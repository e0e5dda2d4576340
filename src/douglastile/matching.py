"""Perfect matchings of plane bipartite graphs, counted exactly.

A region's tilings are the perfect matchings of its dual graph, one
vertex per cell and one edge per shared cell side, and they are counted
with one Kasteleyn determinant (Kasteleyn, "The statistics of dimers on
a lattice", 1961; Kuperberg, "An exploration of the permanent-determinant
method", 1998).  The edges carry signs under which every face walk of
length 2k but each component's outer walk has k + 1 negative edges mod 2;
then every perfect matching enters the determinant of the signed black x
white matrix with the same sign, and the determinant is one sparse exact
elimination.  Each column pivots on a row whose entry there is +1 or -1
when one has it, as on region rows it always has, and else on the gcd
that Euclid's algorithm down the column leaves (`_determinant`); no step
scales a row up, so nothing is divided at the end.  The dual of the
Aztec diamond of order 160 (51,520 vertices) counts in about 10 s.

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
from math import gcd

from .regions import _CORNERS, _SIXTHS, Region, _pair_blocks, _region_lines, _run_end

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

    Vertex i is the region's cell i, line by line from the top, west to
    east.  Each vertex sits at its cell's centroid, in integer sixths of a
    lattice unit, and takes its colour from its line.  The edges are the
    index pairs (i, j), i < j, in sorted order.  Both are read off the
    level runs and line symbols that the region carries
    (`regions._pair_blocks`, `regions._region_lines`).  The graph carries
    no signs: the counts read their signed rows off the runs.
    """
    lines = _region_lines(region)
    same, east = _pair_blocks(region.runs)
    # slot 2i holds cell i's pair across its south side or cut diagonal,
    # slot 2i + 1 its pair across its east side: every pair (i, j) with
    # i < j, in sorted order
    slots = [None] * (2 * _run_end(region.runs[-1]))
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


def _gcd_pivot(rows, col_rows, c: int, inner: list[int]) -> int:
    """The row of `inner` to pivot on in column c, which none holds as a
    unit: Euclid's algorithm down the column, each round subtracting from
    every other row the multiple of the row with the least entry that
    leaves the remainder, until one row alone holds c, with the gcd.  A
    row less a multiple of another leaves the determinant as it is."""
    while len(inner) > 1:
        p = min(inner, key=lambda r: (abs(rows[r][c]), r))
        prow = rows[p]
        for r in inner:
            if r == p:
                continue
            row = rows[r]
            q = row[c] // prow[c]
            for k, v in prow.items():
                w = row.get(k, 0) - q * v
                if w:
                    row[k] = w
                    col_rows[k].add(r)
                elif k in row:
                    del row[k]
                    col_rows[k].discard(r)
        inner = [r for r in inner if c in rows[r]]
    return inner[0]


def _determinant(rows: list[dict[int, int]], border=(), skip=()) -> int:
    """|det| of a sparse square integer matrix, rows as dicts.

    Column by column, the pivot is the first remaining row whose entry in
    the column is +1 or -1, and every other such row r becomes r - b *
    pivot, b = r's entry times the pivot's.  No row is scaled up, so |det|
    is exactly the product of the row contents divided out.  A column that
    no row holds as a unit pivots on the row of `_gcd_pivot`, whose steps
    leave the determinant as it is.  Region rows, and a Kuo block's, have
    never been seen to need it, and the tests pin that up to total 12 and
    Aztec order 32; why is not proved.  What is proved: a row whose least
    column is c is no candidate before c, so no earlier pivot touches it
    and it still holds its own +-1 there.  In line order, a black cell
    whose first white neighbour is the column's cell is such a row; that
    covers most columns, not all.  G - S in general does need it: deleting
    one domino on the rim of the Aztec diamond of order n leaves a column
    without a unit for 8n - 9 of its 8n choices.

    A border stands where it is: `border` is a set of rows and `skip` the
    set of border columns.  Every other column is eliminated, in order,
    and only the other rows, the interior A, pivot; A must be square.  A
    border row is reduced like the others, but its content is never
    divided out.  The result is then |det A|, each pivot row is None, and
    border row r holds row r of the Schur complement D - C A^-1 B in the
    `skip` columns (B, C and D are A's rows there, the border rows in A's
    columns, and the border's own block).  0 means that A is singular, or
    that a pivot that is not a unit met a border row, which no integer
    multiple of it reduces; the border rows are then left half reduced.
    """
    col_rows = [set() for _ in range(len(rows) - len(border) + len(skip))]
    for r, row in enumerate(rows):
        for c in row:
            col_rows[c].add(r)
    det = 1
    for c, cand in enumerate(col_rows):
        if c in skip:
            continue
        p = min(cand, default=None)
        if p is None or p in border or rows[p][c] not in (1, -1):
            inner = [r for r in cand if r not in border]
            # a column that no interior row holds makes A singular
            if not inner:
                return 0
            units = [r for r in inner if rows[r][c] in (1, -1)]
            if units:
                p = min(units)
            else:
                p = _gcd_pivot(rows, col_rows, c, inner)
                if rows[p][c] not in (1, -1):
                    # no other interior row holds the column now
                    if len(cand) > 1:
                        return 0
                    det *= abs(rows[p][c])
        prow = rows[p]
        rows[p] = None
        for k in prow:
            col_rows[k].discard(p)
        pv = prow.pop(c)
        for r in cand:
            row = rows[r]
            b = row.pop(c) * pv
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
                det *= content
                for k in row:
                    row[k] //= content
        cand.clear()
    return det


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
    signs = (1, -1) * (_run_end(region.runs[-1]) // 2 + 1)
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
    size = _run_end(runs[-1])
    out = {}
    for v in cells:
        if 0 <= v < size:
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
    """Determinant of a kept block of at most 2 x 2."""
    if len(block) == 2:
        (a, b), (c, d) = block
        return a * d - b * c
    return block[0][0] if block else 1


def deletion_counts(region: Region, deletions) -> list[int]:
    """Perfect matchings of G - S for each cell set S in `deletions`, G the
    region's dual.

    SizeLimit past `VERTEX_LIMIT` cells, the last run's end, before a row
    is made; OuterFaceError, a ValueError, when a cell of S is not on the
    outer face of its component (`_outer_ranks`).  G's rows are built once
    (`_region_rows`) and eliminated once, with the rows and the columns of
    the cells in some S as the border (`_determinant`).  When the interior
    A is square and nonsingular, G - S counts |det A| |det R[K]|, K the
    block of the Schur complement R that S does not delete, read off the
    border rows; a K with fewer rows than columns, or more, counts 0.
    When A is singular or not square, or a pivot that is not a unit met a
    border row, each S is counted alone, as `deletion_counts(region, [S])`,
    and so is an S whose K is larger than 2 x 2: fresh rows whose border
    is S, emptied as no block of it is kept, so that A is G - S.
    """
    size = _run_end(region.runs[-1])
    check_size(size)
    drops = [set(drop) for drop in deletions]
    # S empty ranks no cell, so it walks no lines for the outer test
    ranks = _outer_ranks(region, chain.from_iterable(drops)) if any(drops) else {}
    rows = _region_rows(region)
    border = {r for black, r in ranks.values() if black}
    skip = {c for black, c in ranks.values() if not black}
    if len(drops) == 1:
        # nothing reads them, so none is reduced or met by a pivot
        for r in border:
            rows[r].clear()
    det = 0
    if len(rows) - len(border) == size - len(rows) - len(skip):
        det = _determinant(rows, border, skip)
    if not det and ranks and len(drops) > 1:
        return [deletion_counts(region, [drop])[0] for drop in drops]
    counts = []
    for drop in drops:
        gone = {ranks[v] for v in drop}
        keep = [r for r in border if (True, r) not in gone]
        cols = [c for c in skip if (False, c) not in gone]
        if len(keep) != len(cols):
            counts.append(0)
        elif len(keep) > 2:
            counts.append(deletion_counts(region, [drop])[0])
        else:
            block = [[rows[r].get(c, 0) for c in cols] for r in keep]
            counts.append(det * abs(_kept_minor(block)))
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
