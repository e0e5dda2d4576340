"""Reference cell builder and cell checks, by contour and by anchor lookup.

A second, independent way to make a region's cells, for tests to compare
with `Region.cells` cell for cell: trace the region's contour and scan it
row by row.  It derives the tiers and the forced staircase itself; from
the package it takes only the checked spec and the symbols and level runs
of `_level_runs`, which are all a `Region` carries.

`shared_sides` pairs any cells by looking up their anchors in two dicts,
and `check_cell_structure` checks them with it and a breadth-first search;
tests compare both with the package's pairing by level-run arithmetic.

`reference_stats`, `reference_vertices` and `reference_svg` read a region
cell by cell, where `structural_stats`, `matching.dual_graph` and
`render.svg_region` read its level runs; tests compare them.
"""

from fractions import Fraction

from douglastile.regions import (
    _CORNERS,
    Cell,
    CellKind,
    Color,
    InternalError,
    Region,
    RegionStats,
    _level_runs,
)


def _tiers_and_drawn(distances):
    drawn = []
    run = 0
    for d in distances[:-1]:
        run += d
        drawn.append(-run)
    tiers = {0: 0}
    for level in range(0, -sum(distances), -1):
        tiers[level - 1] = tiers[level] + (2 if level in drawn else 1)
    return tiers, tuple(drawn)


def reference_region(side: int, distances) -> tuple[Region, tuple[Cell, ...]]:
    """The spec's `Region` and, made apart from it, its cells from the
    contour row scan."""
    spec, symbols, runs = _level_runs(side, distances)
    total = spec.total
    tiers, drawn = _tiers_and_drawn(spec.distances)

    # the NE staircase steps east when the line at depth j is black
    ne = [(0, 0)]
    for j in range(1, total + 1):
        x, y = ne[-1]
        ne.append((x + 1, y) if tiers[-j] % 2 else (x, y - 1))
    sw = [(-side - y, -side - x) for x, y in ne]
    east, west = ne[-1], (-side, -side)
    se = [east]
    for _ in range(spec.width):
        x, y = se[-1]
        se += [(x, y - 1), (x - 1, y - 1)]
    nw = [west]
    for _ in range(side):
        x, y = nw[-1]
        nw += [(x, y + 1), (x + 1, y + 1)]
    contour = ne + se[1:] + sw[::-1][1:] + nw[1:-1]

    # between an odd and the following even crossing of a row by a
    # vertical contour edge, the row is inside the region
    rows: dict[int, list[int]] = {}
    for i, (x0, y0) in enumerate(contour):
        x1, y1 = contour[(i + 1) % len(contour)]
        if x0 == x1:
            for y in range(min(y0, y1), max(y0, y1)):
                rows.setdefault(y, []).append(x0)
    cells = []
    for y in sorted(rows, reverse=True):
        xs = sorted(rows[y])
        if len(xs) % 2:
            raise AssertionError("open contour row")
        for i in range(0, len(xs), 2):
            for x in range(xs[i], xs[i + 1]):
                level = y - x
                if not -total <= level <= 0:
                    raise AssertionError("cell outside the support band")
                base = tiers[level]
                if level in drawn:
                    halves = ((CellKind.UP, base), (CellKind.DOWN, base + 1))
                    for kind, tier in halves:
                        color = Color.BLACK if tier % 2 else Color.WHITE
                        cells.append(Cell(kind, color, level, (x, y)))
                else:
                    color = Color.BLACK if base % 2 else Color.WHITE
                    cells.append(Cell(CellKind.SQUARE, color, level, (x, y)))

    def tier_of(cell):
        return tiers[cell.level] + (cell.kind is CellKind.DOWN)

    cells.sort(key=lambda c: (tier_of(c), c.anchor[0]))
    return Region(spec, symbols, runs), tuple(cells)


def shared_sides(cells) -> list[tuple[int, int]]:
    """Index pairs i < j of the cells that share a side, one per side.

    Every side is the west or north side of one anchor's unit square and
    the east or south side of another's.  A square owns all four sides of
    its anchor, an upper half the west and north ones, a lower half the
    east and south ones, and the two halves share their cut diagonal.
    """
    west_north: dict[tuple[int, int], int] = {}
    east_south: dict[tuple[int, int], int] = {}
    for i, cell in enumerate(cells):
        kind, anchor = cell.kind, cell.anchor
        # a second claim on one role at one anchor gives a side three owners
        if kind is not CellKind.DOWN and west_north.setdefault(anchor, i) != i:
            raise InternalError("edge shared three ways")
        if kind is not CellKind.UP and east_south.setdefault(anchor, i) != i:
            raise InternalError("edge shared three ways")
    pairs = []
    get = west_north.get
    for (x, y), i in east_south.items():
        # across the east side, the south side and a cut diagonal (a
        # square owns both roles at its anchor and pairs with nothing there)
        for j in (get((x + 1, y)), get((x, y - 1)), get((x, y))):
            if j is not None and j != i:
                pairs.append((i, j) if i < j else (j, i))
    return pairs


def check_cell_structure(cells) -> None:
    """White top line, no side with three owners, proper colour
    alternation and connectivity, cell by cell; InternalError if not."""
    if any(c.color is not Color.WHITE for c in cells if c.level == 0):
        raise InternalError("top line not white")
    colors = [c.color for c in cells]
    adj: list[list[int]] = [[] for _ in cells]
    for i, j in shared_sides(cells):
        if colors[i] is colors[j]:
            raise InternalError("adjacent cells share a colour")
        adj[i].append(j)
        adj[j].append(i)
    seen = bytearray(len(cells))
    seen[0] = 1
    reached = 1
    queue = [0]
    while queue:
        for j in adj[queue.pop()]:
            if not seen[j]:
                seen[j] = 1
                reached += 1
                queue.append(j)
    if reached != len(cells):
        raise InternalError("region is disconnected")


def reference_stats(region) -> RegionStats:
    """`structural_stats` from the cells: black lines by kind, the bottom
    line's cells for the width, black squares and upper halves for the
    regular cells."""
    cells = region.cells
    lines = {(c.level, c.kind) for c in cells if c.color is Color.BLACK}
    kinds = [kind for _, kind in lines]
    sq = kinds.count(CellKind.SQUARE)
    up = kinds.count(CellKind.UP)
    down = kinds.count(CellKind.DOWN)
    total = region.spec.total
    return RegionStats(
        black_square_lines=sq,
        up_triangle_lines=up,
        down_triangle_lines=down,
        black_lines=sq + up + down,
        width=sum(1 for c in cells if c.level == -total),
        regular_cells=sum(
            1
            for c in cells
            if c.color is Color.BLACK and c.kind is not CellKind.DOWN
        ),
    )


def reference_vertices(region) -> tuple:
    """The vertices of `dual_graph`: each cell's colour flag and centroid."""
    return tuple((cell.color is Color.BLACK, *cell.center) for cell in region.cells)


_FILL = {Color.BLACK: "#3f3f3f", Color.WHITE: "#ffffff"}


def _scaled(sixths: int, unit: int) -> str:
    out = Fraction(sixths, 6) * unit
    if out.denominator == 1:
        return str(out.numerator)
    return str(float(out))


def reference_svg(region, matching=None, unit: int = 24) -> str:
    """`render.svg_region` cell by cell: the view box from every anchor,
    one polygon per cell from its corners, overlay ends in exact sixths."""
    cells = region.cells
    xs = [x for x, _ in (c.anchor for c in cells)]
    ys = [y for _, y in (c.anchor for c in cells)]
    x0, x1 = min(xs), max(xs) + 1
    y0, y1 = min(ys), max(ys) + 1
    pad = unit // 2
    view = (
        x0 * unit - pad,
        -y1 * unit - pad,
        (x1 - x0) * unit + 2 * pad,
        (y1 - y0) * unit + 2 * pad,
    )
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{view[0]} {view[1]} {view[2]} {view[3]}">'
    ]
    for cell in cells:
        x, y = cell.anchor
        points = " ".join(
            f"{(x + dx) * unit},{-(y + dy) * unit}" for dx, dy in _CORNERS[cell.kind]
        )
        parts.append(
            f'<polygon points="{points}" fill="{_FILL[cell.color]}" '
            'stroke="#888888" stroke-width="1"/>'
        )
    for i, j in matching or ():
        ax, ay = cells[i].center
        bx, by = cells[j].center
        parts.append(
            f'<line x1="{_scaled(ax, unit)}" y1="{_scaled(-ay, unit)}" '
            f'x2="{_scaled(bx, unit)}" y2="{_scaled(-by, unit)}" '
            'stroke="#c02020" stroke-width="5" stroke-linecap="round"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
