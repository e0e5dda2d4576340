"""ASCII and SVG pictures of regions, with optional matching overlays."""

from __future__ import annotations

from .regions import _CORNERS, _LINES, CellKind, Color, Region

__all__ = ["CELL_LIMIT", "ascii_region", "svg_region"]

# the largest region the `render` command draws, by its cell count; just
# past it, the Aztec diamond of order 500 (501,000 cells) draws in about
# 1.9 s as ASCII, 1.0 s as SVG and 3.7 s (450 MB peak) as SVG with the
# matching overlay, wall, on one Xeon core under Python 3.11.7
CELL_LIMIT = 500000


def ascii_region(region: Region) -> str:
    """Two characters per unit square, rows top to bottom.

    A cut square shows its upper-left half first, so the pair reads
    west-to-east like everything else.
    """
    by_anchor: dict[tuple[int, int], list] = {}
    for cell in region.cells:
        by_anchor.setdefault(cell.anchor, []).append(cell)
    xs = [x for x, _ in by_anchor]
    ys = [y for _, y in by_anchor]
    x0, x1 = min(xs), max(xs)
    lines = []
    for y in range(max(ys), min(ys) - 1, -1):
        chars = []
        for x in range(x0, x1 + 1):
            cells = by_anchor.get((x, y))
            if cells is None:
                chars.append("  ")
            elif len(cells) == 1:
                letter = "w" if cells[0].color is Color.WHITE else "b"
                chars.append(letter * 2)
            else:
                up = next(c for c in cells if c.kind is CellKind.UP)
                down = next(c for c in cells if c.kind is CellKind.DOWN)
                chars.append(
                    ("w" if up.color is Color.WHITE else "b")
                    + ("w" if down.color is Color.WHITE else "b")
                )
        lines.append("".join(chars).rstrip())
    return "\n".join(lines)


_FILL = {Color.BLACK: "#3f3f3f", Color.WHITE: "#ffffff"}


def _polygon(corners, color: Color) -> str:
    # {0} and {1} stand for the screen x of the anchor and of the next
    # lattice column, {2} and {3} for the screen y of the anchor and of
    # the next lattice row up
    points = " ".join(f"{{{dx}}},{{{2 + dy}}}" for dx, dy in corners)
    return (
        f'<polygon points="{points}" fill="{_FILL[color]}" '
        'stroke="#888888" stroke-width="1"/>'
    )


# the polygon of a cell as a format method, by (kind, colour)
_POLYGONS = {
    (kind, color): _polygon(corners, color).format
    for kind, corners in _CORNERS.items()
    for color in Color
}


def _scaled(sixths: int, unit: int) -> str:
    # a true division of two ints is correctly rounded
    whole, rest = divmod(sixths * unit, 6)
    return str(sixths * unit / 6) if rest else str(whole)


def svg_region(
    region: Region,
    matching: list[tuple[int, int]] | None = None,
    unit: int = 24,
) -> str:
    """Deterministic standalone SVG; y grows downward on screen.

    The view box and the polygons are read off the level runs: level -j's
    anchors are (x, x - j) for x in [lo, hi), and each line of a run is
    formatted at once from precomputed coordinate strings.  The matching
    overlay joins cell centroids, from `region.cells` read once.
    """
    runs = region.runs
    x0 = min(lo for _, lo, _, _ in runs)
    x1 = max(hi for _, _, hi, _ in runs)
    y0 = min(lo - j for j, (_, lo, _, _) in enumerate(runs))
    y1 = max(hi - j for j, (_, _, hi, _) in enumerate(runs))
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
    # xs[k] is the screen x of lattice column x0 + k, ys[k] the screen y
    # of lattice row y0 + k
    xs = [str(x * unit) for x in range(x0, x1 + 1)]
    ys = [str(-y * unit) for y in range(y0, y1 + 1)]
    for j, (symbol, (_, lo, hi, _)) in enumerate(zip(region.symbols, runs)):
        a, b = lo - x0, hi - x0
        c, d = lo - j - y0, hi - j - y0
        for line in _LINES[symbol]:
            parts += map(
                _POLYGONS[line], xs[a:b], xs[a + 1 : b + 1], ys[c:d], ys[c + 1 : d + 1]
            )
    if matching:
        cells = region.cells
        for i, j in matching:
            ax, ay = cells[i].center
            bx, by = cells[j].center
            parts.append(
                f'<line x1="{_scaled(ax, unit)}" y1="{_scaled(-ay, unit)}" '
                f'x2="{_scaled(bx, unit)}" y2="{_scaled(-by, unit)}" '
                'stroke="#c02020" stroke-width="5" stroke-linecap="round"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts)
