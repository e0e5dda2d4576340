"""Perfect matchings of plane bipartite graphs, counted exactly.

A region's tilings are the perfect matchings of its dual graph, one
vertex per cell and one edge per shared cell side, and they are counted
with one Kasteleyn determinant (Kasteleyn, "The statistics of dimers on
a lattice", 1961; Kuperberg, "An exploration of the permanent-determinant
method", 1998).  The edges carry signs under which every face walk of
length 2k but each component's outer walk has k + 1 negative edges mod 2;
then every perfect matching enters the determinant of the signed black x
white matrix with the same sign, and the determinant is one sparse exact
elimination.  Each column's pivot is a row with a unit entry (+1 or -1)
there when one has it; a unit pivot scales no row up, so |det| is then
exactly the product of the row contents divided out.  The entries still
grow, to 99 bits on the Aztec diamond dual of order 64, and that dual of
order 160 (51,520 vertices) counts in about 10 s.

`_region_rows` reads the signed rows straight off the region's level
runs, under the parity rule that Kasteleyn gave the square grid, with no
vertex, edge or coordinate made.  `deletion_counts(region, deletions)`
counts several subgraphs G - S as minors of those rows.  When every
vertex of S lies on the outer walk of its component, the bounded faces of
G - S are exactly the bounded faces of G that miss S, so G's signs stay
Kasteleyn signs of G - S, components and all; that holds even where a
component of G has colour classes of unequal size, so that G itself has
no matching.  The border is two index sets, the rows and the columns of
the cells in some S, and the rest is the interior A.  One exact
elimination of A's columns, pivoting on A's rows only, leaves the border
rows, where they stand, holding the Schur complement R = D - C A^-1 B,
and each G - S counts |det A| |det R[K]|, K the block of the border that
it keeps; no row is copied or reordered.  Desnanot-Jacobi relates the
minors of any matrix, however they are computed: on Kuo's six counts the
identity holds exactly when R_xy R_zt and R_xt R_zy do not share a sign,
which is what G's signs promise, so checking it still checks the signing.
S empty counts G itself, which is `count_matchings`.  Whether a cell of S
lies on the outer face is read off the runs as well.  All arithmetic is
integer; nothing here touches floats.  The tests check the rows, the
outer test and the minors against signed graphs and face walks of their
own.

`dual_graph` draws the dual for the matching overlay: a vertex is its
position in `MatchGraph.vertices`, and `perfect_matching` returns one
matching as position pairs: an iterative augmenting-path search with no
size limit and no plane drawing needed.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from itertools import chain, repeat
from math import gcd, prod

from .regions import _CORNERS, _SIXTHS, Region, _pair_blocks, _region_lines

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


class MatchGraph(namedtuple("MatchGraph", "vertices edges")):
    """A bipartite graph drawn in the plane; vertex i is `vertices[i]`.

    A vertex is `(is_black, x, y)`, the coordinates ints or any rationals,
    and an edge a pair of vertex positions; an edge end that is no
    position raises ValueError.  `_make` and `_replace` skip `__new__` and
    this check; this package calls neither.
    """

    __slots__ = ()

    def __new__(cls, vertices, edges) -> MatchGraph:
        # two C-level passes over the ends, with no list of them
        ends = chain.from_iterable
        if edges and not (
            0 <= min(ends(edges)) and max(ends(edges)) < len(vertices)
        ):
            raise ValueError("edge end is not a vertex position")
        return super().__new__(cls, vertices, edges)


def dual_graph(region: Region) -> MatchGraph:
    """One vertex per cell, one edge per shared cell side: the graph that
    the matching overlay draws.

    Vertex i is `region.cells[i]`: line by line from the top, west to
    east.  Each vertex sits at its cell's centroid, in integer sixths of a
    lattice unit, and takes its colour from its line.  The edges are the
    index pairs (i, j), i < j, in sorted order.  Both are read off the
    level runs and line symbols that the region carries
    (`regions._pair_blocks`, `regions._region_lines`); cells that are not
    the ones those runs lay out, in number, raise ValueError.  The graph
    carries no signs: the counts read their signed rows off the runs.
    """
    lines = _region_lines(region)
    same, east = _pair_blocks(region.runs)
    # slot 2i holds cell i's pair across its south side or cut diagonal,
    # slot 2i + 1 its pair across its east side: every pair (i, j) with
    # i < j, in sorted order
    slots = [None] * (2 * len(region.cells))
    for i, j, n, _ in same:
        slots[2 * i : 2 * (i + n) : 2] = zip(range(i, i + n), range(j, j + n))
    for i, j, n, _ in east:
        slots[2 * i + 1 : 2 * (i + n) : 2] = zip(range(i, i + n), range(j, j + n))
    verts = []
    for _, j, kind, black, lo, hi, _ in lines:
        # each line's centroids, in sixths, step by 6 along the run
        cx, cy = _SIXTHS[kind]
        verts += zip(
            repeat(black, hi - lo),
            range(6 * lo + cx, 6 * hi + cx, 6),
            range(6 * (lo - j) + cy, 6 * (hi - j) + cy, 6),
        )
    return MatchGraph(tuple(verts), tuple(filter(None, slots)))


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


def _determinant(rows: list[dict[int, int]], border=None, skip=()) -> int:
    """Exact determinant of a sparse square integer matrix, rows as dicts.

    Fraction-free elimination, column by column.  The pivot is the first
    remaining row whose entry in the column is +1 or -1, or the first
    row with a nonzero entry when no entry there is a unit.  Every other
    such row r becomes a*r - b*pivot: a unit pivot gives a = 1 and
    b = r's entry times the pivot, otherwise a, b are the pivot and r
    entries over their gcd.  The content of the new row is divided out.
    The scalings are undone by one exact division at the end.  A unit
    pivot scales no row up, so under unit pivots |det| is exactly the
    product of the row contents divided out.  The entries still grow: on
    region rows, which start at +1 and -1, they reach 99 bits on the
    Aztec diamond dual of order 64 and 135 bits on the region of distances
    (3,1,4,1,5,9,2,6,5,3,5) times 4.

    A border stands where it is: `border` maps each border row to its
    scaling, 1 on entry, and `skip` is the set of border columns.  Every
    other column is eliminated, in order, and only the other rows, the
    interior A, pivot; A must be square.  A border row is reduced like the
    others, but its content is never divided out, and each factor a that
    scales it multiplies its scaling instead of the end division.  The
    result is then det A, each pivot row is None, and border row r holds
    border[r] times row r of the Schur complement D - C A^-1 B in the
    `skip` columns (B, C and D are A's rows there, the border rows in A's
    columns, and the border's own block).  0 means that A is singular,
    and then the border rows are left half reduced.

    The result carries the sign of the pivot order, read off the ranks of
    the pivot rows, so it is the determinant itself: a weighted sum over
    matchings, whose value may be negative, needs it.
    """
    if border is None:
        border = {}
    col_rows = [set() for _ in range(len(rows) - len(border) + len(skip))]
    for r, row in enumerate(rows):
        for c in row:
            col_rows[c].add(r)
    product = scaled_up = scaled_down = 1
    pivots = []
    for c, cand in enumerate(col_rows):
        if c in skip:
            continue
        # a column that no interior row holds makes A singular
        if not cand:
            return 0
        p = min(cand)
        if p in border or rows[p][c] not in (1, -1):
            inner = [r for r in cand if r not in border]
            if not inner:
                return 0
            units = [r for r in inner if rows[r][c] in (1, -1)]
            p = min(units or inner)
        pivots.append(p)
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
                if r in border:
                    border[r] *= a
                else:
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
            if r in border:
                continue
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
    # the columns sorted by their pivot rows: the inverse of the
    # permutation that takes each column to its pivot row's rank
    return _permutation_sign(sorted(range(len(pivots)), key=pivots.__getitem__)) * det


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


def _region_rows(region: Region) -> list[dict[int, int]]:
    """Signed rows of a region's dual: one per black cell, keyed by the
    white cells' ranks.

    A cell's rank is its position among the cells of its colour.  Every
    line of a run has one colour, so a cell's rank is its offset in its
    line plus the line's `rank` (`regions._region_lines`).  Each block of
    `_pair_blocks` joins a stretch of one line to a stretch of another, so
    it fills one stretch of rows, one entry each.  A same-anchor block's
    entry is -1 where the anchor x + k is odd and 1 elsewhere; an east
    block's entries are all 1.  This is Kasteleyn's parity rule for the
    square grid.  A bounded face is an interior lattice point.  With four
    cells around it, the face gets one -1; with six (the drawn diagonal
    through it cuts its NE and SW squares) it gets two.  So a face of
    length 2k has k + 1 mod 2.  The rows are square only when the colour
    classes are equal in size.
    """
    lines = _region_lines(region)
    starts = [line[0] for line in lines]
    blacks = sum(hi - lo for _, _, _, black, lo, hi, _ in lines if black)
    rows: list[dict] = [{} for _ in range(blacks)]
    signs = (1, -1) * (len(region.cells) // 2 + 1)
    same, east = _pair_blocks(region.runs)
    for blocks, alternate in ((same, True), (east, False)):
        for i, j, n, x in blocks:
            # the lines of cells i and j: bisect_right passes over lines
            # that end where they start
            a = lines[bisect_right(starts, i) - 1]
            b = lines[bisect_right(starts, j) - 1]
            r, c = a[6] + i - a[0], b[6] + j - b[0]
            if not a[3]:
                r, c = c, r
            values = signs[x & 1 : (x & 1) + n] if alternate else repeat(1, n)
            for row, col, value in zip(rows[r : r + n], range(c, c + n), values):
                row[col] = value
    return rows


def _outer_ranks(region: Region, cells) -> dict[int, tuple[bool, int]]:
    """The colour and rank of each of `cells`, keyed by cell index.

    Each must be a cell on the outer face of its component, or
    OuterFaceError names the first that is not.  A cell lies on the outer
    face when one of its corners lacks one of the four lattice squares
    around it.  Those squares lie on three consecutive levels, so the test
    asks, for each entry of `_INNER_TESTS`, whether an anchor lies in the
    run of a level at most two away from the cell's.
    """
    lines = _region_lines(region)
    starts = [line[0] for line in lines]
    runs = region.runs
    out = {}
    for v in cells:
        if 0 <= v < len(region.cells):
            start, j, kind, black, lo, _, rank = lines[bisect_right(starts, v) - 1]
            x = lo + v - start
            if not all(
                0 <= j + dj < len(runs) and runs[j + dj][1] <= x + dx < runs[j + dj][2]
                for dj, dx in _INNER_TESTS[kind]
            ):
                out[v] = (black, rank + v - start)
                continue
        raise OuterFaceError(
            f"vertex {v} is not on the outer face of its component"
        )
    return out


def _kept_minor(block: list[list[int]]) -> int:
    """Determinant of a small dense block: its terms up to 2 x 2, past that
    `_determinant`."""
    k = len(block)
    if k > 2:
        return _determinant([{j: v for j, v in enumerate(row) if v} for row in block])
    if k == 2:
        (a, b), (c, d) = block
        return a * d - b * c
    return block[0][0] if k else 1


def deletion_counts(region: Region, deletions) -> list[int]:
    """Perfect matchings of G - S for each cell set S in `deletions`, G the
    region's dual.

    SizeLimit past `VERTEX_LIMIT` cells, before a row is made; ValueError
    when the cells are not the number the region's runs lay out;
    OuterFaceError, a ValueError, when a cell of S is not on the outer face
    of its component (`_outer_ranks`).  G's rows are built once
    (`_region_rows`) and eliminated once, with the rows and the columns of
    the cells in some S as the border (`_determinant`).  When the interior
    A is square and nonsingular, G - S counts |det A| |det R[K]|, K the
    block of the Schur complement R that S does not delete, read off the
    border rows and divided exactly by their scalings, which are 1 under
    unit pivots; a K with fewer rows than columns, or more, counts 0.
    When A is singular or not square, each S is counted alone, as
    `deletion_counts(region, [S])`: fresh rows whose border is S, so that
    A is G - S and counts 0 where it is singular or not square.
    """
    check_size(len(region.cells))
    drops = [set(drop) for drop in deletions]
    ranks = _outer_ranks(region, chain.from_iterable(drops))
    rows = _region_rows(region)
    border = {r: 1 for black, r in ranks.values() if black}
    skip = {c for black, c in ranks.values() if not black}
    det = 0
    if len(rows) - len(border) == len(region.cells) - len(rows) - len(skip):
        det = abs(_determinant(rows, border, skip))
    if not det and ranks and len(drops) > 1:
        return [deletion_counts(region, [drop])[0] for drop in drops]
    counts = []
    for drop in drops:
        gone = {ranks[v] for v in drop}
        keep = [r for r in border if (True, r) not in gone]
        cols = [c for c in skip if (False, c) not in gone]
        if len(keep) != len(cols):
            counts.append(0)
            continue
        block = [[rows[r].get(c, 0) for c in cols] for r in keep]
        count, remainder = divmod(
            det * abs(_kept_minor(block)), abs(prod(border[r] for r in keep))
        )
        if remainder:
            raise ArithmeticError("fraction-free elimination did not divide")
        counts.append(count)
    return counts


def count_matchings(region: Region) -> int:
    """Number of perfect matchings of a region's dual graph: its tilings.

    `deletion_counts` with S empty: SizeLimit past `VERTEX_LIMIT` cells,
    before a row is made, and one exact determinant of the signed rows
    that `_region_rows` reads off the level runs.
    """
    return deletion_counts(region, ((),))[0]


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
