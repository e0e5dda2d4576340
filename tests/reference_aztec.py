"""Weighted Aztec diamonds and urban renewal, the setting of Proof 2.

The edge centres of an order-n Aztec diamond graph form a 2n x 2n array,
so a weight assignment is a matrix; here it is always the periodic tiling
of an even-by-even pattern.  One round of urban renewal replaces every
aligned 2 x 2 block [[x, w], [y, z]] by [[z, y], [w, x]] / (xz + yw) and
shifts the whole pattern one step up and one step left, turning the
order-n diamond into an order n-1 diamond while the matching generating
function picks up the product of the block factors (`reduction_step`;
repeating it down to order 0 multiplies out to the generating function;
Propp, "Generalized domino-shuffling", 2003).

A region enters this picture through its characteristic pattern: one
2 x 2 binary block per black line, stacked top to bottom.  Reducing that
pattern never leaves the four binary blocks that the single-character
codes of `douglastile.shuffle` name.  `binary_reduction_step` renews a
stack by `shift_code` on its code, and the tests check that against the
weighted count.  The package's symbol engine computes the exponent
without any of this; the tests use it to check the reduction theorem
and the symbol rounds.
"""

from collections import namedtuple
from fractions import Fraction

from reference_graphs import SignedGraph, matching_generating_function
from douglastile import regions
from douglastile.regions import RegionSpec
from douglastile.shuffle import BOTH, MINUS, PLUS, ZERO, region_code, shift_code

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
    """A 2 x 2 block has xz + yw = 0, so urban renewal cannot divide.

    `block` is always the (row, column) of a block of the pattern, never
    of the tiled 2n x 2n array: `reduction_step` renews the pattern.
    """

    def __init__(self, block: tuple[int, int]):
        super().__init__(f"singular block at {block}")
        self.block = block


class WeightPattern(namedtuple("WeightPattern", "entries")):
    """Even-by-even matrix of rational weights, tiled periodically.

    `entries` is stored as a tuple of rows of Fractions; a ragged matrix
    or an odd or zero row or column count raises ValueError.
    """

    __slots__ = ()

    def __new__(cls, entries):
        rows = tuple(tuple(Fraction(v) for v in row) for row in entries)
        if not rows or len(rows) % 2:
            raise ValueError("pattern needs a positive even number of rows")
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise ValueError("pattern rows differ in length")
        if not rows[0] or len(rows[0]) % 2:
            raise ValueError("pattern needs a positive even number of columns")
        return super().__new__(cls, rows)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @classmethod
    def ones(cls, rows: int, cols: int):
        return cls(tuple(tuple(Fraction(1) for _ in range(cols)) for _ in range(rows)))


class AztecDiamond(namedtuple("AztecDiamond", "order pattern")):
    """Aztec diamond graph of the given order with patterned edge weights.

    A negative order raises ValueError.
    """

    __slots__ = ()

    def __new__(cls, order: int, pattern: WeightPattern):
        if order < 0:
            raise ValueError("order must be nonnegative")
        return super().__new__(cls, order, pattern)


def weight_matrix(ad: AztecDiamond) -> tuple[tuple[Fraction, ...], ...]:
    """The full 2n x 2n weight array, pattern tiled from the upper left."""
    n = ad.order
    e = ad.pattern.entries
    k, l = ad.pattern.rows, ad.pattern.cols
    return tuple(
        tuple(e[r % k][c % l] for c in range(2 * n)) for r in range(2 * n)
    )


def aztec_match_graph(ad: AztecDiamond) -> tuple[SignedGraph, tuple[Fraction, ...]]:
    """The diamond's graph and its edge weights, parallel to the edges.

    Vertices sit at odd-sum integer points, one edge per unit lattice
    cell.  The edge in the cell with lower-left corner (s, t) runs along
    the main diagonal when s + t is odd and along the anti-diagonal
    otherwise; its weight sits at matrix row n - t, column s + n + 1.

    The graph carries a lattice Kasteleyn signing.  The edge in a cell
    whose lower-left corner has both coordinates even is negated.  A
    bounded face is an even-sum point (s, t) with |s|, |t| < n; of the
    four cells around it exactly one has an even corner there, so the
    face, of length 4, gets one negated edge.  A vertex (s, t) lies on
    the outer face when max(|s|, |t|) >= n - 1.
    """
    n = ad.order
    mat = weight_matrix(ad)
    index: dict[tuple[int, int], int] = {}
    verts = []
    outer = bytearray()
    for t in range(n, -n - 1, -1):
        for s in range(-n, n + 1):
            if (s + t) % 2:
                index[(s, t)] = len(verts)
                verts.append((s % 2 == 1, s, t))
                outer.append(max(abs(s), abs(t)) >= n - 1)
    weight: dict[tuple[int, int], Fraction] = {}
    negated: dict[tuple[int, int], bool] = {}
    for t0 in range(-n, n):
        for s0 in range(-n, n):
            if (s0 + t0) % 2:
                ends = ((s0, t0), (s0 + 1, t0 + 1))
            else:
                ends = ((s0 + 1, t0), (s0, t0 + 1))
            edge = tuple(sorted(index[p] for p in ends))
            weight[edge] = mat[n - t0 - 1][s0 + n]
            negated[edge] = s0 % 2 == 0 and t0 % 2 == 0
    edges = tuple(sorted(weight))
    signing = (bytes(map(negated.get, edges)), bytes(outer))
    graph = SignedGraph(tuple(verts), edges, signing)
    return graph, tuple(map(weight.get, edges))


def aztec_mgf(ad: AztecDiamond) -> Fraction:
    return matching_generating_function(*aztec_match_graph(ad))


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
            delta = cell_factor((x, y, z, w))
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
    """Shrink the diamond by one order; MGF(old) = factor * MGF(new).

    The factor is the product of the n x n block factors of the tiled
    array; block (i, j) is pattern block (i mod rows/2, j mod cols/2).
    """
    n = ad.order
    if n < 1:
        raise ValueError("nothing to reduce at order 0")
    new_pattern, deltas = urban_renewal(ad.pattern)
    # urban_renewal lists the pattern's block factors row by row
    brows, bcols = ad.pattern.rows // 2, ad.pattern.cols // 2
    factor = Fraction(1)
    for i in range(n):
        for j in range(n):
            factor *= deltas[(i % brows) * bcols + j % bcols]
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


def binary_reduction_step(pattern: WeightPattern) -> tuple[WeightPattern, int]:
    """Renewal round on a binary stack; MGF(old) = 2**t * MGF(shrunk new).

    The returned pattern keeps the full stack height; the diamond it is
    meant for has its order reduced by one, which truncates the tiling by
    one block.
    """
    code = encode(pattern)
    zeros = code.count(ZERO)
    return pattern_of_code(shift_code(code)), zeros
