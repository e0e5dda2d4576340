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
One walk down the distance tuple names the black line of each level 0,
-1, ..., -total: ``ZERO`` ("0") a black square line, ``PLUS`` ("+") or
``MINUS`` ("-") a cut line whose upper or lower triangles are black, and
"" a white square line.  The staircase, the cells, the line counts, the
derived side and `shuffle.region_code` are all read off these symbols.

A spec describes a region only if the forced staircase misses its point
reflection, returns to the height of the western corner, and the bottom
line of cells comes out white.  ``check_spec`` decides all of this from
the symbols alone, without building a cell, and ``find_region`` derives
the one side a distance tuple allows and returns the checked spec.

``build_region`` is the only producer of cells.  It makes them one
diagonal level at a time: each level meets the region in a single run of
cells from the SW staircase to the NE staircase, so the cells come out
line by line from the top, west to east, with no contour to trace and
nothing to sort.  Cells that share a side sit on one drawn level, across
its cut diagonal, or on two consecutive levels, across a south or an east
side, so every pair is index arithmetic on the bounds of one or two runs;
the structure check, `matching.dual_graph` and the signed rows of
`matching.deletion_counts` read the pairs, and whether the region is in
one piece, off those bounds without visiting a cell.  Every line of a
run has one kind and one colour, named by the level's symbol, so
`structural_stats`, the lines of `_region_lines` (the vertices of
`matching.dual_graph`, the ranks and outer-face test of the signed rows,
the corners of `condensation.pick_corners`) and the polygons of
`render.svg_region` are read off the runs as well, a whole run at a
time.  A `Region` carries the symbols and runs that laid out its cells,
so none of these readings walks the levels again.
"""

from __future__ import annotations

import json
from collections import namedtuple
from collections.abc import Iterator
from enum import Enum
from functools import partial
from itertools import repeat
from operator import attrgetter, is_

__all__ = [
    "REASON_POSITIVE",
    "REASON_CROSSING",
    "REASON_CORNERS",
    "REASON_PARITY",
    "SpecInvalid",
    "NegativeExponent",
    "InternalError",
    "Color",
    "CellKind",
    "Cell",
    "RegionSpec",
    "RegionStats",
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


class InternalError(RuntimeError):
    """A consistency check on built cells failed; valid specs never do."""

    def __init__(self, reason: str):
        super().__init__(f"internal: {reason}")
        self.reason = reason


class Color(str, Enum):
    BLACK = "black"
    WHITE = "white"


# the symbol of a level's black line; a white square line has "" instead
ZERO = "0"
PLUS = "+"
MINUS = "-"


class CellKind(str, Enum):
    SQUARE = "square"
    UP = "up"  # upper-left half of a cut square
    DOWN = "down"  # lower-right half of a cut square


# a cell's centroid minus six times its anchor: every centroid of a unit
# square or of a half-square triangle is a whole number of sixths
_SIXTHS = {CellKind.SQUARE: (3, 3), CellKind.UP: (2, 4), CellKind.DOWN: (4, 2)}

# the lattice corners of a cell as offsets from its anchor, from the SW
# corner round the polygon that `render.svg_region` draws
_CORNERS = {
    CellKind.SQUARE: ((0, 0), (1, 0), (1, 1), (0, 1)),
    CellKind.UP: ((0, 0), (0, 1), (1, 1)),
    CellKind.DOWN: ((0, 0), (1, 0), (1, 1)),
}


class RegionSpec(namedtuple("RegionSpec", "side distances")):
    """Side length plus layer distances, the full description of a region.

    `distances` is stored as a tuple whatever iterable is given.  `_make`
    and `_replace` skip `__new__` and this coercion; this package calls
    neither.
    """

    __slots__ = ()

    def __new__(cls, side: int, distances) -> RegionSpec:
        return super().__new__(cls, side, tuple(distances))

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


class Cell(namedtuple("Cell", "kind color level anchor")):
    """A `CellKind` and `Color` on a diagonal level; `anchor` is an int pair.

    `build_region` makes cells with `tuple.__new__`, which is all the
    namedtuple's own `__new__` does; a subclass must not add one.
    """

    __slots__ = ()

    @property
    def center(self) -> tuple[int, int]:
        """The centroid in sixths of a lattice unit."""
        x, y = self.anchor
        dx, dy = _SIXTHS[self.kind]
        return (6 * x + dx, 6 * y + dy)


class RegionStats(
    namedtuple(
        "RegionStats",
        "black_square_lines up_triangle_lines down_triangle_lines"
        " black_lines width regular_cells",
    )
):
    """Line and cell counts (ints) that drive the closed-form matching count."""

    __slots__ = ()


class Region(namedtuple("Region", "spec cells symbols runs")):
    """A spec with its tuple of cells, and the line symbols and level runs
    (`_level_runs`, as tuples) that laid the cells out."""

    __slots__ = ()


# the lines of a level, top first, as (kind, colour), by the level's symbol
_LINES = {
    "": ((CellKind.SQUARE, Color.WHITE),),
    ZERO: ((CellKind.SQUARE, Color.BLACK),),
    PLUS: ((CellKind.UP, Color.BLACK), (CellKind.DOWN, Color.WHITE)),
    MINUS: ((CellKind.UP, Color.WHITE), (CellKind.DOWN, Color.BLACK)),
}


def _line_symbols(distances: tuple[int, ...]) -> list[str]:
    """The symbol of each level 0, -1, ..., -total, top to bottom.

    Every layer but the last ends on a drawn level, whose two lines (upper
    triangles, then lower) give the next line the colour of the first.
    """
    symbols = [""]
    black = True  # colour of the next line down
    for d in distances:
        for _ in range(d - 1):
            symbols.append(ZERO if black else "")
            black = not black
        symbols.append(PLUS if black else MINUS)
    # the last layer ends on ell-prime, a line of squares
    symbols[-1] = ZERO if black else ""
    return symbols


def _forced_path(symbols: list[str]) -> list[tuple[int, int]]:
    # step j goes east when the first line at depth j is black, south when white
    pts = [(0, 0)]
    for symbol in symbols[1:]:
        x, y = pts[-1]
        pts.append((x + 1, y) if symbol in (ZERO, PLUS) else (x, y - 1))
    return pts


def _validated(side: int, distances, symbols=None):
    """The spec, its line symbols and its NE staircase, or SpecInvalid.

    `symbols` are the distances' line symbols when the caller has them.
    """
    distances = tuple(distances)
    if side < 1 or not distances or any(d < 1 for d in distances):
        raise SpecInvalid(REASON_POSITIVE)
    if symbols is None:
        symbols = _line_symbols(distances)
    ne = _forced_path(symbols)
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
    if symbols[-1] == ZERO:
        raise SpecInvalid(REASON_PARITY)
    return RegionSpec(side, distances), symbols, ne


def check_spec(side: int, distances) -> RegionSpec:
    """The spec, or SpecInvalid naming the first region condition it fails."""
    return _validated(side, distances)[0]


def _level_runs(side: int, distances):
    """The checked spec, its line symbols and the run of each level, top
    down, both as tuples.

    Level -j meets the region in one run of anchors (x, x - j), x from `lo`
    up to `hi`: from the SW staircase, the point reflection
    (-side - y, -side - x) of ne[j], up to ne[j] itself.  Its run is
    `(start, lo, hi, drawn)`: the run's cells begin at index `start`, and
    a drawn level holds a line of upper halves, then a line of lower
    halves, any other level one line of squares.
    """
    spec, symbols, ne = _validated(side, distances)
    runs = []
    start = 0
    for symbol, (east_x, east_y) in zip(symbols, ne):
        lo = -side - east_y
        drawn = symbol in (PLUS, MINUS)
        runs.append((start, lo, east_x, drawn))
        start += (east_x - lo) * (1 + drawn)
    return spec, tuple(symbols), tuple(runs)


def _run_end(run) -> int:
    start, lo, hi, drawn = run
    return start + (hi - lo) * (1 + drawn)


def _region_runs(region: Region):
    """The line symbols and level runs that a region carries.

    ValueError when the region's cells are not the number its runs lay out.
    """
    if _run_end(region.runs[-1]) != len(region.cells):
        raise ValueError("cells unlike the level runs of their spec")
    return region.symbols, region.runs


def _region_lines(region: Region):
    """The lines of a region's cells, top down, from its runs; ValueError
    as `_region_runs`.

    A line is `(start, j, kind, black, lo, hi, rank)`: cells `start` up to
    `start + hi - lo`, of one kind and colour, at the anchors x from `lo`
    up to `hi` on level -j, and `rank` cells of its colour before them.
    """
    symbols, runs = _region_runs(region)
    lines = []
    seen = [0, 0]
    for j, (symbol, (start, lo, hi, _)) in enumerate(zip(symbols, runs)):
        for kind, color in _LINES[symbol]:
            black = color is Color.BLACK
            lines.append((start, j, kind, black, lo, hi, seen[black]))
            seen[black] += hi - lo
            start += hi - lo
    return lines


def build_region(side: int, distances) -> Region:
    """The region of a spec, its cells made one level run at a time.

    Each line of a run is one kind and colour, `_LINES[symbol]`, over the
    run's anchors, so its cells come from C-level iteration with no Python
    step per cell.  The cells then pass `_check_cell_structure`, and the
    region keeps the symbols and runs, so that nothing reading it walks
    the levels again.
    """
    spec, symbols, runs = _level_runs(side, distances)
    cells: list[Cell] = []
    new = partial(tuple.__new__, Cell)
    for j, (symbol, (_, lo, hi, _)) in enumerate(zip(symbols, runs)):
        n = hi - lo
        anchors = list(zip(range(lo, hi), range(lo - j, hi - j)))
        for kind, color in _LINES[symbol]:
            cells += map(
                new, zip(repeat(kind, n), repeat(color, n), repeat(-j, n), anchors)
            )
    cells = tuple(cells)

    _check_cell_structure(cells, runs)
    if any(c.color is Color.BLACK for c in cells[runs[-1][0]:]):
        raise InternalError("bottom line not white")
    return Region(spec, cells, symbols, runs)


def _pair_blocks(runs):
    """The shared sides of the cells laid out by `runs`, as index blocks.

    A block `(i, j, n, x)` pairs cell i + k with cell j + k, i < j, for
    k < n, where cell i + k has anchor x + k.  The first list holds the
    pairs across a cut diagonal or a south side, whose two cells share
    their anchor x; the second the pairs across an east side, where cell
    j + k sits at x + k + 1.  A square owns all four sides of its anchor,
    an upper half the west and north ones, a lower half the east and south
    ones, so a square or lower half at x on one level meets the square or
    upper half at x (south) and at x + 1 (east) on the level below.
    """
    same, east = [], []
    for start, lo, hi, drawn in runs:
        if drawn:
            same.append((start, start + hi - lo, hi - lo, lo))
    for (s, a, b, drawn), (t, c, d, _) in zip(runs, runs[1:]):
        # cell i + x is the square or lower half at x on the upper level,
        # cell j + x the square or upper half at x on the lower one
        i, j = s + (b - a) * drawn - a, t - c
        lo, hi = max(a, c), min(b, d)
        if lo < hi:
            same.append((i + lo, j + lo, hi - lo, lo))
        lo, hi = max(a, c - 1), min(b, d - 1)
        if lo < hi:
            east.append((i + lo, j + lo + 1, hi - lo, lo))
    return same, east


def _connected(runs) -> bool:
    """Whether the cells laid out by `runs` meet every level in one piece.

    The halves of a cut square share their diagonal, so take each anchor
    as one node.  Sides are shared only between consecutive levels, and
    between runs [a, b) and [c, d) on levels -j and -j - 1 the anchor x
    above meets x and x + 1 below.  So the linked anchors form a single
    connected stretch, x in [max(a, c - 1), min(b, d)) above and in
    [max(a, c), min(b + 1, d)) below, and the rest of the two runs meet
    nothing across that band.  Hence the cells are in one piece iff every
    anchor lies in the stretch of the band above or below it and the
    stretches of each two consecutive bands share an anchor on the level
    between them.
    """
    bounds = [(lo, hi) for _, lo, hi, _ in runs]
    if any(lo >= hi for lo, hi in bounds):
        return False
    if len(bounds) == 1:
        return bounds[0][1] - bounds[0][0] == 1
    # `reached` is the stretch on the current level of the band above it
    reached = None
    for (a, b), (c, d) in zip(bounds, bounds[1:]):
        lo, hi = max(a, c - 1), min(b, d)
        if reached is not None:
            if max(lo, reached[0]) >= min(hi, reached[1]):
                return False
            lo, hi = min(lo, reached[0]), max(hi, reached[1])
        if (lo, hi) != (a, b):
            return False
        reached = (max(a, c), min(b + 1, d))
    return reached == bounds[-1]


def _check_cell_structure(cells: tuple[Cell, ...], runs) -> None:
    """Internal sanity pass over cells laid out by `runs` (`_level_runs`).

    The top line must be white.  The runs must claim the cells in order,
    each once: a run that starts before the one above it ends claims a
    cell for a second level or role, so some side gets three owners, and
    a cell claimed by no run or a run past the last cell leaves cells and
    runs unlike.  The two cells of each pair from `_pair_blocks` must
    differ in colour, checked block by block, and `_connected` must hold.
    """
    top = cells[runs[0][0] : _run_end(runs[0])]
    if any(c.color is not Color.WHITE for c in top):
        raise InternalError("top line not white")
    end = 0
    for run in runs:
        if run[0] < end:
            raise InternalError("edge shared three ways")
        if run[0] > end:
            raise InternalError("cells unlike their runs")
        end = _run_end(run)
    if end != len(cells):
        raise InternalError("cells unlike their runs")
    colors = list(map(attrgetter("color"), cells))
    same, east = _pair_blocks(runs)
    for i, j, n, _ in same + east:
        if any(map(is_, colors[i : i + n], colors[j : j + n])):
            raise InternalError("adjacent cells share a colour")
    if not _connected(runs):
        raise InternalError("region is disconnected")


def find_region(distances) -> RegionSpec:
    """The spec for a distance tuple, deriving the unique side; no cells.

    The forced staircase shape depends only on the distances, so the side
    has to equal its number of south steps; anything else fails the corner
    check.  The bottom-line parity is checked up front so that the reason
    reported for a hopeless distance tuple is the parity one.
    """
    distances = tuple(distances)
    if not distances or any(d < 1 for d in distances):
        raise SpecInvalid(REASON_POSITIVE)
    symbols = _line_symbols(distances)
    if symbols[-1] == ZERO:
        raise SpecInvalid(REASON_PARITY)
    side = sum(1 for symbol in symbols[1:] if symbol in ("", MINUS))
    return _validated(side, distances, symbols)[0]


def flipped(spec: RegionSpec) -> RegionSpec:
    """Half-turn companion spec: side and width trade places."""
    return RegionSpec(spec.total - spec.side, tuple(reversed(spec.distances)))


def structural_stats(region: Region) -> RegionStats:
    """Line and cell counts, read off the line symbols and the level runs.

    ValueError when the cells are not the runs' number.
    """
    return _run_stats(*_region_runs(region))


def _run_stats(symbols, runs) -> RegionStats:
    """The `RegionStats` of the region that `symbols` and `runs` lay out.

    The width is the bottom run's length.  The regular cells, the black
    squares and black upper halves, are one line of the runs on the "0"
    and "+" levels.
    """
    sq, up, down = symbols.count(ZERO), symbols.count(PLUS), symbols.count(MINUS)
    width = runs[-1][2] - runs[-1][1]
    regular = sum(
        hi - lo
        for symbol, (_, lo, hi, _) in zip(symbols, runs)
        if symbol in (ZERO, PLUS)
    )
    return RegionStats(
        black_square_lines=sq,
        up_triangle_lines=up,
        down_triangle_lines=down,
        black_lines=sq + up + down,
        width=width,
        regular_cells=regular,
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
    # RecursionError: nested deeper than the decoder goes
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise SpecInvalid(f"malformed spec JSON: {exc!r}") from None
