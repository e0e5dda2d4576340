"""ASCII and SVG pictures of regions, with optional matching overlays."""

from __future__ import annotations

from fractions import Fraction

from .regions import _CORNERS, CellKind, Color, Region

__all__ = ["ascii_region", "svg_region"]


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
    lines = []
    for y in range(max(ys), min(ys) - 1, -1):
        chars = []
        for x in range(min(xs), max(xs) + 1):
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


def _scaled(sixths: int, unit: int) -> str:
    out = Fraction(sixths, 6) * unit
    if out.denominator == 1:
        return str(out.numerator)
    return str(float(out))


def svg_region(
    region: Region,
    matching: list[tuple[int, int]] | None = None,
    unit: int = 24,
) -> str:
    """Deterministic standalone SVG; y grows downward on screen."""
    xs = [x for x, _ in (c.anchor for c in region.cells)]
    ys = [y for _, y in (c.anchor for c in region.cells)]
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
    for cell in region.cells:
        x, y = cell.anchor
        points = " ".join(
            f"{(x + dx) * unit},{-(y + dy) * unit}" for dx, dy in _CORNERS[cell.kind]
        )
        parts.append(
            f'<polygon points="{points}" fill="{_FILL[cell.color]}" '
            'stroke="#888888" stroke-width="1"/>'
        )
    if matching:
        for i, j in matching:
            ax, ay = region.cells[i].center
            bx, by = region.cells[j].center
            parts.append(
                f'<line x1="{_scaled(ax, unit)}" y1="{_scaled(-ay, unit)}" '
                f'x2="{_scaled(bx, unit)}" y2="{_scaled(-by, unit)}" '
                'stroke="#c02020" stroke-width="5" stroke-linecap="round"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts)
