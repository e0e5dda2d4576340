"""Reference cell builder: trace the region's contour and scan it row by row.

A second, independent way to make a region's cells, for tests to compare
with `regions.build_region` cell for cell.  It shares only `check_spec`
with the package and derives the tiers and the forced staircase itself.
"""

from douglastile.regions import Cell, CellKind, Color, Region, check_spec


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


def reference_region(side: int, distances) -> Region:
    spec = check_spec(side, distances)
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
    return Region(spec, tuple(cells))
