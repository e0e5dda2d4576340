"""Regions built from stacked diagonal layers of the square lattice.

A region spec is a side length together with a tuple of positive layer
distances.  The two support diagonals (ell at the top, ell-prime at the
bottom, ``total`` lattice steps apart) bound a band of unit cells; the
interior drawn diagonals, one per consecutive layer pair, cut the squares
they pass through into an upper-left and a lower-right half-square
triangle.  The northeastern boundary is the staircase forced by the layer
structure, the southwestern boundary is its point reflection, and the two
remaining sides are plain zigzags, so the whole region is determined by
the spec.

Cells are checkerboard coloured by diagonal line, starting white on ell.
A spec describes a region only if the forced staircase misses its point
reflection, returns to the height of the western corner, and the bottom
line of cells comes out white.  ``check_spec`` decides all of this from
the distance tuple alone, without building a cell.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator

__all__ = [
    "REASON_POSITIVE",
    "REASON_CROSSING",
    "REASON_CORNERS",
    "REASON_PARITY",
    "SpecInvalid",
    "NegativeExponent",
    "Color",
    "CellKind",
    "Cell",
    "RegionSpec",
    "RegionStats",
    "Corners",
    "Region",
    "check_spec",
    "build_region",
    "find_region",
    "flipped",
    "structural_stats",
    "formula_exponent",
    "formula_count",
    "compositions",
    "spec_from_json",
]

REASON_POSITIVE = "side and distances must be positive"
REASON_CROSSING = "boundaries intersect"
REASON_CORNERS = "east and west corners not on one horizontal line"
REASON_PARITY = "ell-prime on black squares"


class SpecInvalid(ValueError):
    """The given side/distance data does not describe a region."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class NegativeExponent(ValueError):
    """Closed-form exponent came out negative (no valid region does this)."""


class Color(str, Enum):
    BLACK = "black"
    WHITE = "white"


class CellKind(str, Enum):
    SQUARE = "square"
    UP = "up"  # upper-left half of a cut square
    DOWN = "down"  # lower-right half of a cut square


@dataclass(frozen=True)
class RegionSpec:
    """Side length plus layer distances, the full description of a region."""

    side: int
    distances: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "distances", tuple(self.distances))

    @property
    def total(self) -> int:
        return sum(self.distances)

    @property
    def width(self) -> int:
        # number of white squares on the bottom line of a valid region
        return self.total - self.side

    def to_dict(self) -> dict:
        """The ``{"a": side, "d": [distances...]}`` record of JSON output."""
        return {"a": self.side, "d": list(self.distances)}


@dataclass(frozen=True)
class Cell:
    kind: CellKind
    color: Color
    level: int
    anchor: tuple[int, int]

    @property
    def center(self) -> tuple[Fraction, Fraction]:
        x, y = self.anchor
        if self.kind is CellKind.UP:
            return (x + Fraction(1, 3), y + Fraction(2, 3))
        if self.kind is CellKind.DOWN:
            return (x + Fraction(2, 3), y + Fraction(1, 3))
        return (x + Fraction(1, 2), y + Fraction(1, 2))

    def boundary(self) -> tuple[tuple, ...]:
        """Edge keys of the sides this cell can share with a neighbour.

        Horizontal edge ("h", x, y) joins (x, y) to (x+1, y); vertical edge
        ("v", x, y) joins (x, y) to (x, y+1); ("d", x, y) is the cut
        diagonal of the square anchored at (x, y).
        """
        x, y = self.anchor
        if self.kind is CellKind.UP:
            return (("v", x, y), ("h", x, y + 1), ("d", x, y))
        if self.kind is CellKind.DOWN:
            return (("h", x, y), ("v", x + 1, y), ("d", x, y))
        return (("h", x, y), ("h", x, y + 1), ("v", x, y), ("v", x + 1, y))


@dataclass(frozen=True)
class RegionStats:
    """Line and cell counts that drive the closed-form matching count."""

    black_square_lines: int
    up_triangle_lines: int
    down_triangle_lines: int
    black_lines: int
    width: int
    regular_cells: int
    total_size: int


@dataclass(frozen=True)
class Corners:
    north: tuple[int, int]
    east: tuple[int, int]
    south: tuple[int, int]
    west: tuple[int, int]


@dataclass(frozen=True)
class Region:
    spec: RegionSpec
    cells: tuple[Cell, ...]
    corners: Corners
    drawn_levels: tuple[int, ...]


def _drawn_levels(distances: tuple[int, ...]) -> tuple[int, ...]:
    run = 0
    out = []
    for d in distances[:-1]:
        run += d
        out.append(-run)
    return tuple(out)


def _tiers_above(distances: tuple[int, ...]) -> dict[int, int]:
    """Number of cell lines strictly above each diagonal level.

    Tier 0 is the top line of cells; a drawn level contributes two lines
    (upper triangles, then lower triangles), every other level one.
    """
    drawn = set(_drawn_levels(distances))
    total = sum(distances)
    tiers = {0: 0}
    for level in range(0, -total, -1):
        tiers[level - 1] = tiers[level] + (2 if level in drawn else 1)
    return tiers


def _forced_path(tiers: dict[int, int], total: int) -> list[tuple[int, int]]:
    # step j goes east when the line at depth j is black, south when white
    pts = [(0, 0)]
    for j in range(1, total + 1):
        x, y = pts[-1]
        pts.append((x + 1, y) if tiers[-j] % 2 else (x, y - 1))
    return pts


def check_spec(side: int, distances) -> RegionSpec:
    """The spec, or SpecInvalid naming the first region condition it fails."""
    distances = tuple(distances)
    if side < 1 or not distances or any(d < 1 for d in distances):
        raise SpecInvalid(REASON_POSITIVE)
    spec = RegionSpec(side, distances)
    total = spec.total
    tiers = _tiers_above(distances)
    ne = _forced_path(tiers, total)
    sw = [(-side - y, -side - x) for x, y in ne]
    shared = set(ne) & set(sw)
    if ne[-1] == sw[-1]:
        # coincident endpoints mean the corner heights disagree; report that
        # as the corner failure below, not as a crossing
        shared.discard(ne[-1])
    if shared:
        raise SpecInvalid(REASON_CROSSING)
    if ne[-1][1] != -side:
        raise SpecInvalid(REASON_CORNERS)
    if tiers[-total] % 2:
        raise SpecInvalid(REASON_PARITY)
    return spec


def build_region(side: int, distances) -> Region:
    spec = check_spec(side, distances)
    total = spec.total
    drawn = _drawn_levels(spec.distances)
    drawn_set = set(drawn)
    tiers = _tiers_above(spec.distances)
    ne = _forced_path(tiers, total)
    sw = [(-side - y, -side - x) for x, y in ne]

    north = (0, 0)
    east = ne[-1]
    south = (0, -total)
    west = (-side, -side)

    width = spec.width
    se = [east]
    for _ in range(width):
        x, y = se[-1]
        se.append((x, y - 1))
        se.append((x - 1, y - 1))
    nw = [west]
    for _ in range(side):
        x, y = nw[-1]
        nw.append((x, y + 1))
        nw.append((x + 1, y + 1))
    contour = tuple(ne + se[1:] + list(reversed(sw))[1:] + nw[1:-1])

    # scan the vertical contour edges row by row; between an odd and the
    # following even crossing the row is inside the region
    rows: dict[int, list[int]] = {}
    npts = len(contour)
    for i in range(npts):
        x0, y0 = contour[i]
        x1, y1 = contour[(i + 1) % npts]
        if x0 == x1:
            for y in range(min(y0, y1), max(y0, y1)):
                rows.setdefault(y, []).append(x0)
    anchors = []
    for y in sorted(rows, reverse=True):
        xs = sorted(rows[y])
        if len(xs) % 2:
            raise RuntimeError("internal: open contour row")
        for i in range(0, len(xs), 2):
            for x in range(xs[i], xs[i + 1]):
                anchors.append((x, y))

    cells = []
    for x, y in anchors:
        level = y - x
        if not -total <= level <= 0:
            raise RuntimeError("internal: cell outside the support band")
        base = tiers[level]
        if level in drawn_set:
            up_color = Color.WHITE if base % 2 == 0 else Color.BLACK
            down_color = Color.WHITE if (base + 1) % 2 == 0 else Color.BLACK
            cells.append(Cell(CellKind.UP, up_color, level, (x, y)))
            cells.append(Cell(CellKind.DOWN, down_color, level, (x, y)))
        else:
            color = Color.WHITE if base % 2 == 0 else Color.BLACK
            cells.append(Cell(CellKind.SQUARE, color, level, (x, y)))

    def tier_of(cell: Cell) -> int:
        return tiers[cell.level] + (1 if cell.kind is CellKind.DOWN else 0)

    cells.sort(key=lambda c: (tier_of(c), c.anchor[0]))
    cells = tuple(cells)

    _check_cell_structure(cells)
    if any(c.color is Color.BLACK for c in cells if c.level == -total):
        raise RuntimeError("internal: bottom line not white")

    return Region(
        spec=spec,
        cells=cells,
        corners=Corners(north=north, east=east, south=south, west=west),
        drawn_levels=drawn,
    )


def _shared_sides(cells) -> list[tuple[int, int]]:
    """Index pairs i < j of the cells that share a side, one per side."""
    by_edge: dict[tuple, list[int]] = {}
    for i, cell in enumerate(cells):
        for key in cell.boundary():
            by_edge.setdefault(key, []).append(i)
    pairs = []
    for touching in by_edge.values():
        if len(touching) == 2:
            pairs.append((touching[0], touching[1]))
        elif len(touching) > 2:
            raise RuntimeError("internal: edge shared three ways")
    return pairs


def _check_cell_structure(cells: tuple[Cell, ...]) -> None:
    """Internal sanity pass: connectivity and proper colour alternation."""
    if any(c.color is not Color.WHITE for c in cells if c.level == 0):
        raise RuntimeError("internal: top line not white")
    adj: dict[int, list[int]] = {i: [] for i in range(len(cells))}
    for i, j in _shared_sides(cells):
        if cells[i].color is cells[j].color:
            raise RuntimeError("internal: adjacent cells share a colour")
        adj[i].append(j)
        adj[j].append(i)
    seen = {0}
    queue = [0]
    while queue:
        i = queue.pop()
        for j in adj[i]:
            if j not in seen:
                seen.add(j)
                queue.append(j)
    if len(seen) != len(cells):
        raise RuntimeError("internal: region is disconnected")


def find_region(distances) -> Region:
    """Build the region for a distance tuple, deriving the unique side.

    The forced staircase shape depends only on the distances, so the side
    has to equal its number of south steps; anything else fails the corner
    check.  The bottom-line parity is checked up front so that the reason
    reported for a hopeless distance tuple is the parity one.
    """
    distances = tuple(distances)
    if not distances or any(d < 1 for d in distances):
        raise SpecInvalid(REASON_POSITIVE)
    tiers = _tiers_above(distances)
    total = sum(distances)
    if tiers[-total] % 2:
        raise SpecInvalid(REASON_PARITY)
    side = sum(1 for j in range(1, total + 1) if tiers[-j] % 2 == 0)
    return build_region(side, distances)


def flipped(spec: RegionSpec) -> RegionSpec:
    """Half-turn companion spec: side and width trade places."""
    return RegionSpec(spec.total - spec.side, tuple(reversed(spec.distances)))


def structural_stats(region: Region) -> RegionStats:
    total = region.spec.total
    drawn = set(region.drawn_levels)
    tiers = _tiers_above(region.spec.distances)
    sq = up = down = 0
    for level in range(0, -total - 1, -1):
        if level in drawn:
            up += tiers[level] % 2
            down += (tiers[level] + 1) % 2
        else:
            sq += tiers[level] % 2
    width = sum(1 for c in region.cells if c.level == -total)
    regular = sum(
        1
        for c in region.cells
        if c.color is Color.BLACK and c.kind is not CellKind.DOWN
    )
    return RegionStats(
        black_square_lines=sq,
        up_triangle_lines=up,
        down_triangle_lines=down,
        black_lines=sq + up + down,
        width=width,
        regular_cells=regular,
        total_size=len(region.cells),
    )


def formula_exponent(stats: RegionStats) -> int:
    exponent = stats.regular_cells - stats.width * (stats.width + 1) // 2
    if exponent < 0:
        raise NegativeExponent(f"exponent {exponent} is negative")
    return exponent


def formula_count(region: Region) -> int:
    """Closed-form matching count 2**(regular black cells - w(w+1)/2)."""
    return 2 ** formula_exponent(structural_stats(region))


def compositions(total: int) -> Iterator[tuple[int, ...]]:
    """All ordered tuples of positive integers with the given sum."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


def _json_int(value) -> int:
    # JSON true/false load as bool, a subclass of int; refuse them too
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def spec_from_json(text: str) -> RegionSpec:
    """Spec from `{"a": side, "d": [distances]}`; only JSON integers count."""
    try:
        data = json.loads(text)
        return RegionSpec(
            _json_int(data["a"]), tuple(_json_int(d) for d in data["d"])
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecInvalid(f"malformed spec JSON: {exc!r}") from None
