"""Weighted Aztec diamonds, urban renewal, and the shuffling exponent.

The edge centres of an order-n Aztec diamond graph form a 2n x 2n array,
so a weight assignment is a matrix; here it is always the periodic tiling
of an even-by-even pattern.  One round of urban renewal replaces every
aligned 2 x 2 block [[x, w], [y, z]] by [[z, y], [w, x]] / (xz + yw) and
shifts the whole pattern one step up and one step left, turning the
order-n diamond into an order n-1 diamond while the matching generating
function picks up the product of the block factors (`reduction_step`;
repeating it down to order 0 multiplies out to the generating function).

A region enters this picture through its characteristic pattern: one
2 x 2 binary block per black line, stacked top to bottom.  Reducing that
pattern never leaves a small family of binary blocks, which is what the
single-character codes track; each round contributes one factor of two
per "0" symbol, and summing those contributions gives the region's
matching exponent without ever building a graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import regions
from .matching import MatchGraph, matching_generating_function
from .regions import RegionSpec, _drawn_levels, _tiers_above

__all__ = [
    "ZERO",
    "PLUS",
    "MINUS",
    "BOTH",
    "NotBinaryBlock",
    "SingularBlock",
    "FormulaProcedureMismatch",
    "WeightPattern",
    "AztecDiamond",
    "weight_matrix",
    "aztec_match_graph",
    "aztec_mgf",
    "cell_factor",
    "urban_renewal",
    "reduction_step",
    "scale_row_part",
    "region_code",
    "characteristic_matrix",
    "encode",
    "pattern_of_code",
    "shift_code",
    "binary_reduction_step",
    "code_trace",
    "shuffle_exponent",
    "shuffle_count",
]

ZERO = "0"
PLUS = "+"
MINUS = "-"
BOTH = "±"

_BLOCKS: dict[str, tuple[tuple[int, int], tuple[int, int]]] = {
    ZERO: ((1, 1), (1, 1)),
    PLUS: ((1, 1), (1, 0)),
    MINUS: ((0, 1), (1, 1)),
    BOTH: ((0, 1), (1, 0)),
}
_SYMBOL_OF = {block: sym for sym, block in _BLOCKS.items()}


class NotBinaryBlock(ValueError):
    """The pattern is not a stack of the four tracked binary blocks."""


class SingularBlock(ArithmeticError):
    """A 2 x 2 block has xz + yw = 0, so urban renewal cannot divide."""

    def __init__(self, block: tuple[int, int]):
        super().__init__(f"singular block at {block}")
        self.block = block


class FormulaProcedureMismatch(AssertionError):
    """Closed-form exponent disagreed with the step-by-step reduction."""


@dataclass(frozen=True)
class WeightPattern:
    """Even-by-even matrix of rational weights, tiled periodically."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        rows = tuple(
            tuple(Fraction(v) for v in row) for row in self.entries
        )
        object.__setattr__(self, "entries", rows)
        if not rows or len(rows) % 2:
            raise ValueError("pattern needs a positive even number of rows")
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise ValueError("pattern rows differ in length")
        if not rows[0] or len(rows[0]) % 2:
            raise ValueError("pattern needs a positive even number of columns")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @classmethod
    def ones(cls, rows: int, cols: int) -> WeightPattern:
        return cls(tuple(tuple(Fraction(1) for _ in range(cols)) for _ in range(rows)))


@dataclass(frozen=True)
class AztecDiamond:
    """Aztec diamond graph of the given order with patterned edge weights."""

    order: int
    pattern: WeightPattern

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("order must be nonnegative")


def weight_matrix(ad: AztecDiamond) -> tuple[tuple[Fraction, ...], ...]:
    """The full 2n x 2n weight array, pattern tiled from the upper left."""
    n = ad.order
    e = ad.pattern.entries
    k, l = ad.pattern.rows, ad.pattern.cols
    return tuple(
        tuple(e[r % k][c % l] for c in range(2 * n)) for r in range(2 * n)
    )


def aztec_match_graph(ad: AztecDiamond) -> MatchGraph:
    """Vertices at odd-sum integer points, one edge per unit lattice cell.

    The edge in the cell with lower-left corner (s, t) runs along the main
    diagonal when s + t is odd and along the anti-diagonal otherwise; its
    weight sits at matrix row n - t, column s + n + 1.
    """
    n = ad.order
    mat = weight_matrix(ad)
    index: dict[tuple[int, int], int] = {}
    verts = []
    for t in range(n, -n - 1, -1):
        for s in range(-n, n + 1):
            if (s + t) % 2:
                index[(s, t)] = len(verts)
                verts.append((s % 2 == 1, s, t))
    weight: dict[tuple[int, int], Fraction] = {}
    for t0 in range(-n, n):
        for s0 in range(-n, n):
            if (s0 + t0) % 2:
                ends = ((s0, t0), (s0 + 1, t0 + 1))
            else:
                ends = ((s0 + 1, t0), (s0, t0 + 1))
            edge = tuple(sorted(index[p] for p in ends))
            weight[edge] = mat[n - t0 - 1][s0 + n]
    edges = tuple(sorted(weight))
    return MatchGraph(tuple(verts), edges, tuple(map(weight.get, edges)))


def aztec_mgf(ad: AztecDiamond) -> Fraction:
    if ad.order == 0:
        return Fraction(1)
    return matching_generating_function(aztec_match_graph(ad))


def cell_factor(weights: tuple[Fraction, Fraction, Fraction, Fraction]) -> Fraction:
    """xz + yt for the four edge weights of a cell in cyclic order."""
    x, y, z, t = weights
    return x * z + y * t


def urban_renewal(
    pattern: WeightPattern,
) -> tuple[WeightPattern, tuple[Fraction, ...]]:
    """One renewal round on the pattern: invert blocks, shift up-left."""
    k, l = pattern.rows, pattern.cols
    e = pattern.entries
    out: list[list[Fraction]] = [[Fraction(0)] * l for _ in range(k)]
    deltas = []
    for bi in range(k // 2):
        for bj in range(l // 2):
            x = e[2 * bi][2 * bj]
            w = e[2 * bi][2 * bj + 1]
            y = e[2 * bi + 1][2 * bj]
            z = e[2 * bi + 1][2 * bj + 1]
            delta = x * z + y * w
            if delta == 0:
                raise SingularBlock((bi, bj))
            deltas.append(delta)
            out[2 * bi][2 * bj] = z / delta
            out[2 * bi][2 * bj + 1] = y / delta
            out[2 * bi + 1][2 * bj] = w / delta
            out[2 * bi + 1][2 * bj + 1] = x / delta
    shifted = tuple(
        tuple(out[(r + 1) % k][(c + 1) % l] for c in range(l))
        for r in range(k)
    )
    return WeightPattern(shifted), tuple(deltas)


def reduction_step(ad: AztecDiamond) -> tuple[AztecDiamond, Fraction]:
    """Shrink the diamond by one order; MGF(old) = factor * MGF(new)."""
    n = ad.order
    if n < 1:
        raise ValueError("nothing to reduce at order 0")
    mat = weight_matrix(ad)
    factor = Fraction(1)
    for i in range(n):
        for j in range(n):
            tl = mat[2 * i][2 * j]
            tr = mat[2 * i][2 * j + 1]
            bl = mat[2 * i + 1][2 * j]
            br = mat[2 * i + 1][2 * j + 1]
            delta = tl * br + tr * bl
            if delta == 0:
                raise SingularBlock((i, j))
            factor *= delta
    new_pattern, _ = urban_renewal(ad.pattern)
    return AztecDiamond(n - 1, new_pattern), factor


def scale_row_part(
    ad: AztecDiamond, part: int, factor: Fraction
) -> AztecDiamond:
    """Multiply one horizontal part of the weight array by a constant.

    Part 0 is the top matrix row, part n the bottom row, and part j in
    between covers rows 2j and 2j+1 (1-indexed).  Every perfect matching
    uses each part exactly n times, so the MGF scales by factor**n.
    """
    n = ad.order
    if not 0 <= part <= n:
        raise ValueError(f"part must be in 0..{n}")
    factor = Fraction(factor)
    mat = [list(row) for row in weight_matrix(ad)]
    if part == 0:
        targets = [0]
    elif part == n:
        targets = [2 * n - 1]
    else:
        targets = [2 * part - 1, 2 * part]
    for r in targets:
        mat[r] = [v * factor for v in mat[r]]
    return AztecDiamond(n, WeightPattern(tuple(tuple(r) for r in mat)))


def region_code(spec: RegionSpec) -> tuple[str, ...]:
    """Symbols of the black lines, top to bottom.

    A black square line is "0"; a cut line is "+" when its black half is
    the upper triangles and "-" when it is the lower triangles.
    """
    drawn = set(_drawn_levels(spec.distances))
    tiers = _tiers_above(spec.distances)
    out = []
    for level in range(0, -spec.total - 1, -1):
        t = tiers[level]
        if level in drawn:
            out.append(PLUS if t % 2 else MINUS)
        elif t % 2:
            out.append(ZERO)
    return tuple(out)


def pattern_of_code(code: tuple[str, ...]) -> WeightPattern:
    if not code:
        raise ValueError("empty code")
    rows = []
    for sym in code:
        if sym not in _BLOCKS:
            raise NotBinaryBlock(f"unknown symbol {sym!r}")
        rows.extend(_BLOCKS[sym])
    return WeightPattern(
        tuple(tuple(Fraction(v) for v in row) for row in rows)
    )


def characteristic_matrix(spec: RegionSpec) -> WeightPattern:
    """The 2q x 2 stack of binary blocks encoding the region's black lines."""
    return pattern_of_code(
        region_code(regions.check_spec(spec.side, spec.distances))
    )


def encode(pattern: WeightPattern) -> tuple[str, ...]:
    if pattern.cols != 2:
        raise NotBinaryBlock("pattern is not a two-column stack")
    out = []
    for i in range(pattern.rows // 2):
        block = (pattern.entries[2 * i], pattern.entries[2 * i + 1])
        try:
            out.append(_SYMBOL_OF[block])
        except KeyError:
            raise NotBinaryBlock(f"block {block} is not tracked") from None
    return tuple(out)


def shift_code(code: tuple[str, ...]) -> tuple[str, ...]:
    """One renewal round on symbols: minus stays, plus moves one left."""
    q = len(code)
    out = []
    for j in range(q):
        minus_here = code[j] in (MINUS, BOTH)
        plus_incoming = code[(j + 1) % q] in (PLUS, BOTH)
        if minus_here and plus_incoming:
            out.append(BOTH)
        elif minus_here:
            out.append(MINUS)
        elif plus_incoming:
            out.append(PLUS)
        else:
            out.append(ZERO)
    return tuple(out)


def binary_reduction_step(pattern: WeightPattern) -> tuple[WeightPattern, int]:
    """Renewal round on a binary stack; MGF(old) = 2**t * MGF(shrunk new).

    The returned pattern keeps the full stack height; the diamond it is
    meant for has its order reduced by one, which truncates the tiling by
    one block.
    """
    code = encode(pattern)
    zeros = sum(1 for s in code if s == ZERO)
    return pattern_of_code(shift_code(code)), zeros


def code_trace(spec: RegionSpec) -> list[dict]:
    """The full symbol reduction of a region, one record per round."""
    cur = region_code(regions.check_spec(spec.side, spec.distances))
    out = []
    step = 0
    while cur:
        out.append(
            {
                "step": step,
                "code": "".join(cur),
                "zeros": sum(1 for s in cur if s == ZERO),
            }
        )
        cur = shift_code(cur)[:-1]
        step += 1
    return out


def _closed_form_exponent(code: tuple[str, ...]) -> int:
    total = 0
    q = len(code)
    for i in range(1, q + 1):
        if code[i - 1] == MINUS:
            continue
        later_plus = sum(1 for s in code[i - 1 :] if s == PLUS)
        total += q - i + 1 - later_plus
    return total


def shuffle_exponent(spec: RegionSpec) -> int:
    """Matching exponent by symbol reduction, computed two ways.

    The step-by-step reduction and the closed-form sum must agree; a
    mismatch would mean the symbol bookkeeping itself is broken, so it is
    raised loudly instead of picking a side.
    """
    code = region_code(regions.check_spec(spec.side, spec.distances))
    procedural = 0
    cur = code
    while cur:
        procedural += sum(1 for s in cur if s == ZERO)
        cur = shift_code(cur)[:-1]
    closed = _closed_form_exponent(code)
    if procedural != closed:
        raise FormulaProcedureMismatch(
            f"procedure {procedural} vs formula {closed} on {''.join(code)}"
        )
    return procedural


def shuffle_count(spec: RegionSpec) -> int:
    return 2 ** shuffle_exponent(spec)
