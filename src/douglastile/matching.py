"""Perfect matchings of plane bipartite graphs, counted exactly.

The main entry points count matchings with one Kasteleyn determinant
(Kasteleyn, "The statistics of dimers on a lattice", 1961; Kuperberg,
"An exploration of the permanent-determinant method", 1998).  The edges
carry a signing under which every face walk of length 2k but each
component's outer walk has k + 1 negative edges mod 2; then every
perfect matching enters the determinant of the signed black x white
matrix with the same sign, and the determinant is one sparse exact
elimination.  Each column's pivot is the first row with a unit entry (+1
or -1) there, if any row has one, else the first row with any entry.  A
unit pivot scales no row, so the entries of a signed matrix, which start
at +1 and -1, and its fill stay small, and an Aztec diamond dual of
order 160 (51,520 vertices) counts in seconds.

A graph hands its signing over in `MatchGraph.signing`, read off lattice
coordinates when the graph is made: `dual_graph` carries the
square-lattice parity rule and the vertices on the outer face.  The
counts trust that signing and refuse a graph without one with
ValueError.  The tests sign the graphs they build by hand with a
face-walk reference signer, `tests/reference_kasteleyn.py`.

`count_matchings(region)` counts a region's tilings without a graph:
it takes the signed rows of the dual, under the same parity rule,
straight from the region's level runs, and needs no vertex coordinates,
outer flags or edge checks.  `dual_graph` serves the Kuo blocks, the
corner picks, the matching overlay and graphs compared by hand.

`deletion_counts` counts several subgraphs G - S from one signing of G.
When every vertex of S lies on the outer walk of its component, the
bounded faces of G - S are exactly the bounded faces of G that miss S,
so G's signing stays a Kasteleyn signing of G - S, components and all;
that holds even where a component of G has colour classes of unequal
size, so that G itself has no matching.  Each G - S takes G's signed rows
less the rows and columns of S, re-ranked, and gets its own exact
elimination; S empty counts G itself.  All arithmetic is integer;
nothing here touches floats.

A vertex is its position in `MatchGraph.vertices`, and `perfect_matching`
returns one matching for drawing as position pairs: an iterative
augmenting-path search with no size limit and no plane drawing needed.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from itertools import chain, compress, repeat
from math import gcd

from .regions import (
    _CORNERS,
    _LINES,
    _SIXTHS,
    Color,
    Region,
    _pair_blocks,
    _region_runs,
)

__all__ = [
    "VERTEX_LIMIT",
    "SizeLimit",
    "check_size",
    "OuterFaceError",
    "MatchGraph",
    "dual_graph",
    "count_matchings",
    "deletion_counts",
    "perfect_matching",
]

# the lattice point at (px, py) has the squares with anchors (px - 1,
# py - 1), (px, py - 1), (px - 1, py) and (px, py) around it, on levels
# -(j - 1), -j and -(j + 1) for j = px - py; so a cell of this kind at
# anchor x on level -j has all four squares around each of its corners iff
# x + dx lies in the run of level -(j + dj) for every (dj, dx) here
_INNER_TESTS = {
    kind: {
        (cx - cy + dj, cx + dx)
        for cx, cy in corners
        for dj, dx in ((0, -1), (1, 0), (-1, -1), (0, 0))
    }
    for kind, corners in _CORNERS.items()
}

# the largest Aztec diamond dual this admits, order 160 with 51,520
# vertices, counts in about 10 s on one Xeon core under Python 3.11
# (`count --engine brute`, start-up and cells included); orders 32, 64
# and 128 take 0.15, 0.4 and 3.8 s
VERTEX_LIMIT = 52000


class SizeLimit(RuntimeError):
    """The instance is too large for the requested exact computation."""


def check_size(vertices: int) -> None:
    """Raise SizeLimit when a graph of this many vertices is too large to count."""
    if vertices > VERTEX_LIMIT:
        raise SizeLimit(f"{vertices} vertices exceed {VERTEX_LIMIT}")


class OuterFaceError(ValueError):
    """A vertex to delete is not on the outer face walk of its component."""


class MatchGraph(namedtuple("MatchGraph", "vertices edges signing")):
    """A bipartite graph drawn in the plane; vertex i is `vertices[i]`.

    A vertex is `(is_black, x, y)`, the coordinates ints or any rationals,
    and an edge a pair of vertex positions.  `signing` is None or a pair
    `(negated, outer)` of flag sequences: `negated[e]` marks edge e of a
    Kasteleyn signing and `outer[i]` marks vertex i as on the outer face
    walk of its component.  The counts trust a given signing and refuse
    a graph without one.  An edge end that is no position, or signing
    flags unlike the edges or vertices in length, raise ValueError.
    `_make` and `_replace` skip `__new__` and these checks; this package
    calls neither.
    """

    __slots__ = ()

    def __new__(cls, vertices, edges, signing=None) -> MatchGraph:
        # two C-level passes over the ends, with no list of them
        ends = chain.from_iterable
        if edges and not (
            0 <= min(ends(edges)) and max(ends(edges)) < len(vertices)
        ):
            raise ValueError("edge end is not a vertex position")
        if signing is not None:
            negated, outer = signing
            if len(negated) != len(edges) or len(outer) != len(vertices):
                raise ValueError("signing flags unlike the edges or vertices")
        return super().__new__(cls, vertices, edges, signing)


def dual_graph(region: Region) -> MatchGraph:
    """One vertex per cell, one edge per shared cell side.

    The graph is for the Kuo blocks, the corner picks and the matching
    overlay; `count_matchings` counts a region from its runs without it.

    Vertex i is `region.cells[i]`: line by line from the top, west to
    east, which keeps the elimination front of the determinant to roughly
    one line of cells.  Each vertex sits at its cell's centroid, in
    integer sixths of a lattice unit, and takes its colour from its line.
    The edges are the index pairs (i, j), i < j, in sorted order.  Both
    are read off the level runs and line symbols that the region carries
    (`regions._pair_blocks`, `regions._LINES`); cells that are not the
    ones those runs lay out, in number, raise ValueError.

    The graph carries a lattice Kasteleyn signing, the parity rule that
    Kasteleyn (1961) gave the square grid.  Two cells with the same anchor
    x, across a square's south side or a cut diagonal, have their edge
    negated when that x is odd; cells across an east side never do.  A
    bounded face is an interior lattice point.  With four cells around it
    the face gets one negated edge; with six (the drawn diagonal through
    it cuts its NE and SW squares) it gets two, so a face of length 2k
    has k + 1 mod 2.  A cell lies on the outer face when one of its
    corners lacks one of the four lattice squares around it.  Those four
    squares lie on three consecutive levels, so the cells of a run that
    are not on the outer face have their anchors in one interval, cut out
    by the bounds of the runs at most two levels away.
    """
    symbols, runs = _region_runs(region)
    size = len(region.cells)
    same, east = _pair_blocks(runs)
    # slot 2i holds cell i's pair across its south side or cut diagonal,
    # slot 2i + 1 its pair across its east side: every pair (i, j) with
    # i < j, in sorted order
    slots = [None] * (2 * size)
    flags = bytearray(len(slots))
    parity = b"\0\1" * (size // 2 + 1)
    for i, j, n, x in same:
        slots[2 * i : 2 * (i + n) : 2] = zip(range(i, i + n), range(j, j + n))
        flags[2 * i : 2 * (i + n) : 2] = parity[x & 1 : (x & 1) + n]
    for i, j, n, _ in east:
        slots[2 * i + 1 : 2 * (i + n) : 2] = zip(range(i, i + n), range(j, j + n))
    edges = tuple(filter(None, slots))
    negated = bytes(compress(flags, slots))

    # bounds[j + 2] are level -j's, with two empty levels past either end
    bounds = [(0, 0)] * 2 + [run[1:3] for run in runs] + [(0, 0)] * 2
    verts, outer = [], []
    for j, (symbol, (_, lo, hi, _)) in enumerate(zip(symbols, runs)):
        n = hi - lo
        for kind, color in _LINES[symbol]:
            # each line's centroids, in sixths, step by 6 along the run
            cx, cy = _SIXTHS[kind]
            verts += zip(
                repeat(color is Color.BLACK, n),
                range(6 * lo + cx, 6 * hi + cx, 6),
                range(6 * (lo - j) + cy, 6 * (hi - j) + cy, 6),
            )
            # the anchors [a, b) off the outer face; every kind has the
            # corner (0, 0), which asks for x in [lo, hi) itself
            lows = [bounds[j + 2 + dj][0] - dx for dj, dx in _INNER_TESTS[kind]]
            highs = [bounds[j + 2 + dj][1] - dx for dj, dx in _INNER_TESTS[kind]]
            a = min(hi, max(lows))
            b = max(a, min(highs))
            outer.append(b"\1" * (a - lo) + b"\0" * (b - a) + b"\1" * (hi - b))
    return MatchGraph(tuple(verts), edges, (negated, b"".join(outer)))


def _ends(graph: MatchGraph):
    """Colour flags and the (black, white) ends of each edge, validated.

    Refuses a self-loop, a parallel edge and an edge inside one colour
    class with ValueError.
    """
    black = [v[0] for v in graph.vertices]
    ends: list[tuple[int, int]] = []
    for i, j in graph.edges:
        if i == j:
            raise ValueError("self-loops are not allowed")
        if black[i] == black[j]:
            raise ValueError("edge inside one part of the bipartition")
        ends.append((i, j) if black[i] else (j, i))
    # two edges on one vertex pair have the same (black, white) ends
    if len(set(ends)) != len(ends):
        raise ValueError("parallel edges are not allowed")
    return black, ends


def _permutation_sign(perm: list[int]) -> int:
    sign = 1
    seen = bytearray(len(perm))
    for start in range(len(perm)):
        if seen[start]:
            continue
        i = start
        length = 0
        while not seen[i]:
            seen[i] = 1
            i = perm[i]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _determinant(rows: list[dict[int, int]]) -> int:
    """Exact determinant of a sparse square integer matrix, rows as dicts.

    Fraction-free elimination, column by column.  The pivot is the first
    remaining row whose entry in the column is +1 or -1, or the first
    row with a nonzero entry when no entry there is a unit.  Every other
    such row r becomes a*r - b*pivot: a unit pivot gives a = 1 and
    b = r's entry times the pivot, otherwise a, b are the pivot and r
    entries over their gcd.  The content of the new row is divided out.
    The scalings are undone by one exact division at the end.  A unit
    pivot never scales a row up, so on a Kasteleyn matrix, whose entries
    start at +1 and -1, the entries and the fill stay small.

    The result carries the sign of the pivot order, so it is the
    determinant itself.  The counts take its absolute value, but the sign
    costs one pass over the n pivots, little next to the elimination, and
    it keeps the function checkable against any other exact determinant;
    a weighted sum over matchings, whose value may be negative, needs it.
    """
    n = len(rows)
    col_rows: list[set[int]] = [set() for _ in range(n)]
    for r, row in enumerate(rows):
        for c in row:
            col_rows[c].add(r)
    product = scaled_up = scaled_down = 1
    pivot_row = [0] * n
    for c in range(n):
        cand = col_rows[c]
        if not cand:
            return 0
        p = min(cand)
        if rows[p][c] not in (1, -1):
            units = [r for r in cand if rows[r][c] in (1, -1)]
            if units:
                p = min(units)
        pivot_row[c] = p
        prow = rows[p]
        rows[p] = None
        for k in prow:
            col_rows[k].discard(p)
        pv = prow.pop(c)
        product *= pv
        unit = pv == 1 or pv == -1
        for r in cand:
            row = rows[r]
            rv = row.pop(c)
            if unit:
                a, b = 1, rv * pv
            else:
                g = gcd(pv, rv)
                a, b = pv // g, rv // g
            if a != 1:
                scaled_up *= a
                for k in row:
                    row[k] *= a
            for k, v in prow.items():
                w = row.get(k)
                if w is None:
                    row[k] = -b * v
                    col_rows[k].add(r)
                else:
                    w -= b * v
                    if w:
                        row[k] = w
                    else:
                        del row[k]
                        col_rows[k].discard(r)
            if not row:
                return 0
            content = gcd(*row.values())
            if content != 1:
                scaled_down *= content
                for k in row:
                    row[k] //= content
        cand.clear()
    det, remainder = divmod(product * scaled_down, scaled_up)
    if remainder:
        raise ArithmeticError("fraction-free elimination did not divide")
    return _permutation_sign(pivot_row) * det


def _reference_matching(keys, n: int) -> list[int] | None:
    """Column matched to each of n rows in one perfect matching, or None.

    Greedy start, then one augmenting-path search per free row, iterative
    so deep graphs need no recursion.
    """
    adj_rows: list[list[int]] = [[] for _ in range(n)]
    for r, c in keys:
        adj_rows[r].append(c)
    row_col = [-1] * n
    col_row = [-1] * n
    for r, cols in enumerate(adj_rows):
        for c in cols:
            if col_row[c] < 0:
                row_col[r], col_row[c] = c, r
                break
    for r in range(n):
        if row_col[r] >= 0:
            continue
        seen = bytearray(n)
        stack = [r]
        iters = [iter(adj_rows[r])]
        found = False
        while stack and not found:
            for c in iters[-1]:
                if seen[c]:
                    continue
                seen[c] = 1
                owner = col_row[c]
                if owner < 0:
                    # flip the path: each row on the stack takes the
                    # column found above it
                    for t in reversed(stack):
                        row_col[t], col_row[c], c = c, t, row_col[t]
                    found = True
                else:
                    stack.append(owner)
                    iters.append(iter(adj_rows[owner]))
                break
            else:
                stack.pop()
                iters.pop()
        if not found:
            return None
    return row_col


def _signed_rows(black, ends, neg, drop):
    """Signed black x white rows of G - drop, or None if its classes differ.

    Rows and columns are the surviving black and white vertices, each
    ranked in vertex order.  An entry is -1 on a flagged edge, else 1.
    """
    rank = [-1] * len(black)
    seen = [0, 0]
    for i, is_black in enumerate(black):
        if i not in drop:
            rank[i] = seen[is_black]
            seen[is_black] += 1
    if seen[0] != seen[1]:
        return None
    rows: list[dict] = [{} for _ in range(seen[1])]
    for (b, w), flip in zip(ends, neg):
        r, c = rank[b], rank[w]
        if r >= 0 and c >= 0:
            rows[r][c] = -1 if flip else 1
    return rows


def deletion_counts(graph: MatchGraph, deletions) -> list[int]:
    """Perfect matchings of G - S for each vertex set S in `deletions`.

    G carries its signing (graphs from `dual_graph` do; any other without
    one raises ValueError).  Each G - S keeps G's signed rows less those
    of S, re-ranked, and gets its own exact determinant, which is plus or
    minus the count.  Every vertex of S must lie on the outer face walk of
    its component, or OuterFaceError is raised: then the bounded faces of
    G - S are the bounded faces of G that do not touch S, so G's signing
    is a Kasteleyn signing of G - S.  The signing holds on every
    component, so one with unequal colour classes shows up as a zero
    determinant.
    """
    check_size(len(graph.vertices))
    black, ends = _ends(graph)
    if graph.signing is None:
        raise ValueError("graph carries no Kasteleyn signing")
    neg, outer = graph.signing
    drops = [set(drop) for drop in deletions]
    for drop in drops:
        for v in drop:
            if not (0 <= v < len(outer) and outer[v]):
                raise OuterFaceError(
                    f"vertex {v} is not on the outer face of its component"
                )
    counts = []
    for drop in drops:
        rows = _signed_rows(black, ends, neg, drop)
        counts.append(0 if rows is None else abs(_determinant(rows)))
    return counts


def _region_rows(region: Region):
    """Signed black x white rows of a region's dual, or None if its colour
    classes differ in size.

    These are the rows of `_signed_rows` on `dual_graph(region)` with
    nothing dropped, read off the level runs with no vertex or edge made.
    Every line of a run has one colour, `_LINES[symbol]`, so a cell's rank
    is its offset in its line plus the cells of that colour on the lines
    before it.  Each block of `_pair_blocks` joins a stretch of one line
    to a stretch of another, so it fills one stretch of rows, one entry
    each.  A same-anchor block's entry is -1 where the anchor x + k is
    odd and 1 elsewhere; an east block's entries are all 1.
    """
    symbols, runs = _region_runs(region)
    # each line's first cell index, its colour, and the rank of that cell
    # among the cells of its colour
    starts, blacks, ranks = [], [], []
    seen = [0, 0]
    for symbol, (start, lo, hi, _) in zip(symbols, runs):
        n = hi - lo
        for _, color in _LINES[symbol]:
            black = color is Color.BLACK
            starts.append(start)
            blacks.append(black)
            ranks.append(seen[black])
            seen[black] += n
            start += n
    if seen[0] != seen[1]:
        return None
    rows: list[dict] = [{} for _ in range(seen[1])]
    signs = (1, -1) * (len(region.cells) // 2 + 1)
    same, east = _pair_blocks(runs)
    for blocks, alternate in ((same, True), (east, False)):
        for i, j, n, x in blocks:
            # the lines of cells i and j: bisect_right passes over lines
            # that end where they start
            a, b = bisect_right(starts, i) - 1, bisect_right(starts, j) - 1
            r, c = ranks[a] + i - starts[a], ranks[b] + j - starts[b]
            if not blacks[a]:
                r, c = c, r
            values = signs[x & 1 : (x & 1) + n] if alternate else repeat(1, n)
            for row, col, value in zip(rows[r : r + n], range(c, c + n), values):
                row[col] = value
    return rows


def count_matchings(region: Region) -> int:
    """Number of perfect matchings of a region's dual graph: its tilings.

    SizeLimit past `VERTEX_LIMIT` cells, before a row is made; ValueError
    when the cells are not the number the region's runs lay out.  The
    signed rows come from the level runs (`_region_rows`), and one exact
    determinant counts them.
    """
    check_size(len(region.cells))
    rows = _region_rows(region)
    return 0 if rows is None else abs(_determinant(rows))


def perfect_matching(graph: MatchGraph) -> list[tuple[int, int]] | None:
    """One perfect matching as pairs of vertex positions, or None if none.

    Each pair and the list are in ascending order.  For a dual graph the
    positions are cell indices, which is what `render.svg_region` draws.
    """
    black, ends = _ends(graph)
    blacks = [i for i, is_black in enumerate(black) if is_black]
    whites = [i for i, is_black in enumerate(black) if not is_black]
    if len(blacks) != len(whites):
        return None
    rank = {i: r for part in (blacks, whites) for r, i in enumerate(part)}
    matched = _reference_matching(
        [(rank[b], rank[w]) for b, w in ends], len(blacks)
    )
    if matched is None:
        return None
    return sorted(
        tuple(sorted((blacks[r], whites[c]))) for r, c in enumerate(matched)
    )
