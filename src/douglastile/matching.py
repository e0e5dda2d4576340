"""Perfect matchings of plane bipartite graphs, counted exactly.

The main entry points count matchings (or sum matching weights) with one
Kasteleyn determinant (Kasteleyn, "The statistics of dimers on a
lattice", 1961; Kuperberg, "An exploration of the permanent-determinant
method", 1998).  The cyclic order of neighbours read off the vertex
coordinates gives the faces; each component must come out plane
(V - E + F = 2), or the graph is refused with ValueError.  Coordinates
are ints (region duals sit in sixths of a lattice unit, Aztec graphs on
the integer lattice) or any rationals, and the order is exact on both
with no rescaling.  The edges are signed so that every face walk of
length 2k has k + 1 negative edges mod 2; then every perfect matching
enters the determinant of the signed black x white matrix with the same
sign, and the determinant is one sparse exact elimination.  A Ryser
permanent, which needs no plane drawing, serves as an independent
cross-check on small instances.  All arithmetic is integer or Fraction;
nothing here touches floats.

`perfect_matching` returns one matching for drawing: the iterative
augmenting-path search that also fixes the sign of the weighted
determinant, with no size limit and no plane drawing needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .regions import Region, _shared_sides

__all__ = [
    "RYSER_LIMIT",
    "VERTEX_LIMIT",
    "SizeLimit",
    "Vertex",
    "Edge",
    "MatchGraph",
    "dual_graph",
    "count_matchings",
    "matching_generating_function",
    "permanent_oracle",
    "reduce_forced",
    "perfect_matching",
    "canonical_embedding",
]

RYSER_LIMIT = 16
# the largest Aztec diamond dual this admits, order 52 with 5,512
# vertices, counts in about 10 s on one Xeon core under Python 3.11;
# orders 32 and 48 take 0.45 s and 5.5 s
VERTEX_LIMIT = 5600


class SizeLimit(RuntimeError):
    """The instance is too large for the requested exact computation."""


@dataclass(frozen=True)
class Vertex:
    id: int
    part: str  # "black" or "white"
    x: int | Fraction  # int, or any rational
    y: int | Fraction


@dataclass(frozen=True)
class Edge:
    u: int
    v: int
    weight: Fraction = Fraction(1)


@dataclass(frozen=True)
class MatchGraph:
    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]

    def without(self, ids) -> MatchGraph:
        """Induced subgraph after deleting the given vertex ids."""
        drop = set(ids)
        verts = tuple(v for v in self.vertices if v.id not in drop)
        edges = tuple(
            e for e in self.edges if e.u not in drop and e.v not in drop
        )
        return MatchGraph(verts, edges)


def dual_graph(region: Region) -> MatchGraph:
    """One vertex per cell, one edge per shared cell side.

    Vertex ids follow the cell order of the region (line by line from the
    top, west to east), which keeps the elimination front of the
    determinant to roughly one line of cells.  Each vertex sits at its
    cell's centroid, in integer sixths of a lattice unit.
    """
    verts = tuple(
        Vertex(i, cell.color.value, *cell.center)
        for i, cell in enumerate(region.cells)
    )
    edges = tuple(Edge(i, j) for i, j in sorted(_shared_sides(region.cells)))
    return MatchGraph(verts, edges)


def _prepare(graph: MatchGraph):
    """Colour flags, adjacency and edge ends by vertex position, validated.

    `black[i]` tells the colour class, `adj[i]` lists (neighbour, edge
    index) pairs and `ends[e]` is the (black, white) pair of edge e.
    """
    index = {v.id: pos for pos, v in enumerate(graph.vertices)}
    black = [v.part == "black" for v in graph.vertices]
    adj: list[list[tuple[int, int]]] = [[] for _ in graph.vertices]
    ends: list[tuple[int, int]] = []
    seen = set()
    for e in graph.edges:
        i, j = index[e.u], index[e.v]
        if i == j:
            raise ValueError("self-loops are not allowed")
        key = (i, j) if i < j else (j, i)
        if key in seen:
            raise ValueError("parallel edges are not allowed")
        seen.add(key)
        if black[i] == black[j]:
            raise ValueError("edge inside one part of the bipartition")
        adj[i].append((j, len(ends)))
        adj[j].append((i, len(ends)))
        ends.append((i, j) if black[i] else (j, i))
    return black, adj, ends


def _components(black, adj):
    """Component of each vertex and spanning-forest edge flags.

    Returns None as soon as a component has unequal colour classes, since
    then no perfect matching exists.
    """
    comp = [-1] * len(adj)
    tree = set()
    ncomp = 0
    for root in range(len(adj)):
        if comp[root] >= 0:
            continue
        comp[root] = ncomp
        queue = [root]
        balance = 0
        for i in queue:
            balance += 1 if black[i] else -1
            for j, e in adj[i]:
                if comp[j] < 0:
                    comp[j] = ncomp
                    tree.add(e)
                    queue.append(j)
        if balance:
            return None
        ncomp += 1
    return comp, ncomp, tree


def _rotation(graph: MatchGraph, adj):
    """Each vertex's (neighbour, edge) pairs in counterclockwise order.

    Neighbours are ordered by half-plane and cross products of the
    coordinates as given, which are exact on ints and on Fractions alike.
    Only the cyclic order matters, so up to two neighbours need no sorting.
    """
    px = [v.x for v in graph.vertices]
    py = [v.y for v in graph.vertices]
    rot = []
    for i, pairs in enumerate(adj):
        if len(pairs) < 3:
            rot.append(pairs)
            continue
        x0, y0 = px[i], py[i]
        out: list[tuple[int, int, bool, tuple[int, int]]] = []
        for pair in pairs:
            dx, dy = px[pair[0]] - x0, py[pair[0]] - y0
            lower = dy < 0 or (dy == 0 and dx < 0)
            k = len(out)
            while k:
                ox, oy, olower, _ = out[k - 1]
                if olower < lower or (
                    olower == lower and ox * dy - oy * dx > 0
                ):
                    break
                k -= 1
            out.insert(k, (dx, dy, lower, pair))
        rot.append([item[3] for item in out])
    return rot


def _kasteleyn_signs(black, adj, ends, graph):
    """Edge flags `neg` of a Kasteleyn signing, or None if there is no matching.

    Raises ValueError unless the rotation system read off the coordinates
    has genus zero on every component, which is the hypothesis of
    Kasteleyn's theorem.
    """
    parts = _components(black, adj)
    if parts is None:
        return None
    comp, ncomp, tree = parts
    rot = _rotation(graph, adj)
    # darts: offset[i] + k is the k-th edge end around vertex i
    offset = [0]
    for pairs in rot:
        offset.append(offset[-1] + len(pairs))
    ndarts = offset[-1]
    target = [0] * ndarts
    edge_of = [0] * ndarts
    rev = [0] * ndarts
    first_dart = [-1] * len(ends)
    d = 0
    for pairs in rot:
        for j, e in pairs:
            target[d] = j
            edge_of[d] = e
            other = first_dart[e]
            if other < 0:
                first_dart[e] = d
            else:
                rev[d] = other
                rev[other] = d
            d += 1
    # face walks: after arriving at v along u->v, leave along the edge
    # just clockwise of v->u
    face_of = [-1] * ndarts
    faces: list[list[int]] = []
    for start in range(ndarts):
        if face_of[start] >= 0:
            continue
        walk = []
        d = start
        while face_of[d] < 0:
            face_of[d] = len(faces)
            walk.append(d)
            r = rev[d]
            v = target[d]
            d = r - 1 if r > offset[v] else offset[v + 1] - 1
        faces.append(walk)
    # V - E + F = 2 - 2g on each component, so the totals reach two per
    # component only if every component has genus zero
    if len(adj) - len(ends) + len(faces) != 2 * ncomp:
        raise ValueError("graph is not plane")
    # the non-tree edges form a spanning tree of each dual; fix each face
    # from the leaves up so a walk of length 2k has (k + 1) mod 2 negative
    # edges; the root face then holds too, since the vertex count is even
    root_face: dict[int, int] = {}
    for f, walk in enumerate(faces):
        root_face.setdefault(comp[target[walk[0]]], f)
    order = list(root_face.values())
    reached = bytearray(len(faces))
    for f in order:
        reached[f] = 1
    neg = bytearray(len(ends))
    parent_edge = [-1] * len(faces)
    for f in order:
        for d in faces[f]:
            e = edge_of[d]
            if e in tree:
                continue
            g = face_of[rev[d]]
            if not reached[g]:
                reached[g] = 1
                parent_edge[g] = e
                order.append(g)
    for f in reversed(order):
        e = parent_edge[f]
        if e < 0:
            continue
        walk = faces[f]
        odd = len(walk) // 2 + 1
        for d in walk:
            odd += neg[edge_of[d]]
        neg[e] = odd % 2
    return neg


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

    Fraction-free elimination: column by column, the first remaining row
    with a nonzero entry is the pivot, every other such row r becomes
    a*r - b*pivot with a, b the pivot and r entries over their gcd, and
    the content of the new row is divided out.  The scalings are undone
    by one exact division at the end.
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
        pivot_row[c] = p
        prow = rows[p]
        rows[p] = None
        for k in prow:
            col_rows[k].discard(p)
        pv = prow.pop(c)
        product *= pv
        for r in cand:
            row = rows[r]
            rv = row.pop(c)
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


def _biadjacency(black, ends):
    """Edges as (row, column) keys, with the row and column counts.

    Rows are the black vertices and columns the white ones, each in
    vertex order.
    """
    rank = []
    seen = [0, 0]
    for is_black in black:
        rank.append(seen[is_black])
        seen[is_black] += 1
    return [(rank[b], rank[w]) for b, w in ends], seen[1], seen[0]


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


def _kasteleyn(graph: MatchGraph, weighted: bool):
    """Signed sum over perfect matchings via one Kasteleyn determinant.

    Unweighted, the count is |det K|, since every matching enters the
    determinant with the same sign.  Weighted, that common sign is read
    off one reference matching, so zero and negative weights come out
    right.  Components need no separate pass: K is block diagonal up to
    the order of rows and columns, so its determinant is their product.
    """
    if len(graph.vertices) > VERTEX_LIMIT:
        raise SizeLimit(
            f"{len(graph.vertices)} vertices exceed {VERTEX_LIMIT}"
        )
    black, adj, ends = _prepare(graph)
    if not adj:
        return 1
    neg = _kasteleyn_signs(black, adj, ends, graph)
    if neg is None:
        return 0
    keys, n, _ = _biadjacency(black, ends)
    rows: list[dict] = [{} for _ in range(n)]
    if not weighted:
        for (r, c), flip in zip(keys, neg):
            rows[r][c] = -1 if flip else 1
        return abs(_determinant(rows))
    matched = _reference_matching(keys, n)
    if matched is None:
        return 0
    edge_at = {key: e for e, key in enumerate(keys)}
    sign = _permutation_sign(matched)
    for r, c in enumerate(matched):
        if neg[edge_at[r, c]]:
            sign = -sign
    scale = 1
    for (r, c), flip, edge in zip(keys, neg, graph.edges):
        if edge.weight:
            rows[r][c] = -edge.weight if flip else edge.weight
    for r, values in enumerate(rows):
        common = lcm(*(v.denominator for v in values.values()))
        scale *= common
        rows[r] = {
            c: v.numerator * (common // v.denominator)
            for c, v in values.items()
        }
    return Fraction(sign * _determinant(rows), scale)


def count_matchings(graph: MatchGraph) -> int:
    """Number of perfect matchings of an unweighted plane graph."""
    if any(e.weight != 1 for e in graph.edges):
        raise ValueError("count_matchings expects unit edge weights")
    return _kasteleyn(graph, weighted=False)


def matching_generating_function(graph: MatchGraph) -> Fraction:
    """Sum over perfect matchings of the product of edge weights."""
    return Fraction(_kasteleyn(graph, weighted=True))


def permanent_oracle(graph: MatchGraph) -> Fraction:
    """Biadjacency permanent via Ryser's formula with Gray-code updates."""
    blacks = [v.id for v in graph.vertices if v.part == "black"]
    whites = [v.id for v in graph.vertices if v.part == "white"]
    if len(blacks) != len(whites):
        return Fraction(0)
    n = len(blacks)
    if n == 0:
        return Fraction(1)
    if n > RYSER_LIMIT:
        raise SizeLimit(f"permanent side {n} exceeds {RYSER_LIMIT}")
    col = {w: j for j, w in enumerate(whites)}
    row = {b: i for i, b in enumerate(blacks)}
    a = [[Fraction(0)] * n for _ in range(n)]
    for e in graph.edges:
        if e.u in row and e.v in col:
            a[row[e.u]][col[e.v]] += e.weight
        elif e.v in row and e.u in col:
            a[row[e.v]][col[e.u]] += e.weight
        else:
            raise ValueError("edge inside one part of the bipartition")
    # per(A) = (-1)^n sum over nonempty column sets S of
    #          (-1)^|S| prod_i (row sum of A over S)
    total = Fraction(0)
    sums = [Fraction(0)] * n
    prev = 0
    for code in range(1, 1 << n):
        gray = code ^ (code >> 1)
        changed = gray ^ prev
        j = changed.bit_length() - 1
        sign = 1 if gray & changed else -1
        for i in range(n):
            sums[i] += sign * a[i][j]
        prev = gray
        prod = Fraction(1)
        for i in range(n):
            if sums[i] == 0:
                prod = Fraction(0)
                break
            prod *= sums[i]
        if gray.bit_count() % 2:
            total -= prod
        else:
            total += prod
    return -total if n % 2 else total


def reduce_forced(graph: MatchGraph) -> tuple[MatchGraph, Fraction]:
    """Strip forced edges: every degree-1 vertex fixes its one edge.

    Returns the remaining graph and the product of the forced edge
    weights.  If the cascade isolates a vertex there is no perfect
    matching at all and the zero sentinel (empty graph, 0) comes back.
    """
    index = {v.id: pos for pos, v in enumerate(graph.vertices)}
    n = len(graph.vertices)
    adj: list[set[int]] = [set() for _ in range(n)]
    weight: dict[tuple[int, int], Fraction] = {}
    for e in graph.edges:
        i, j = index[e.u], index[e.v]
        adj[i].add(j)
        adj[j].add(i)
        weight[(min(i, j), max(i, j))] = e.weight
    alive = [True] * n
    multiplier = Fraction(1)
    queue = [i for i in range(n) if len(adj[i]) == 1]
    bad = [i for i in range(n) if not adj[i]]
    if bad and n:
        return MatchGraph((), ()), Fraction(0)
    while queue:
        i = queue.pop()
        if not alive[i] or len(adj[i]) != 1:
            continue
        (j,) = adj[i]
        multiplier *= weight[(min(i, j), max(i, j))]
        for k in (i, j):
            alive[k] = False
        for k in list(adj[j]):
            adj[k].discard(j)
            if alive[k]:
                if not adj[k]:
                    return MatchGraph((), ()), Fraction(0)
                if len(adj[k]) == 1:
                    queue.append(k)
        adj[i].clear()
        adj[j].clear()
    keep = {graph.vertices[i].id for i in range(n) if alive[i]}
    verts = tuple(v for v in graph.vertices if v.id in keep)
    edges = tuple(e for e in graph.edges if e.u in keep and e.v in keep)
    return MatchGraph(verts, edges), multiplier


def perfect_matching(graph: MatchGraph) -> list[tuple[int, int]] | None:
    """One perfect matching as vertex-id pairs, or None if there is none.

    Each pair and the list are ordered by position in `graph.vertices`.
    """
    black, _, ends = _prepare(graph)
    keys, n_black, n_white = _biadjacency(black, ends)
    if n_black != n_white:
        return None
    matched = _reference_matching(keys, n_black)
    if matched is None:
        return None
    blacks = [i for i, is_black in enumerate(black) if is_black]
    whites = [i for i, is_black in enumerate(black) if not is_black]
    pairs = sorted(
        tuple(sorted((blacks[r], whites[c]))) for r, c in enumerate(matched)
    )
    ids = [v.id for v in graph.vertices]
    return [(ids[i], ids[j]) for i, j in pairs]


def canonical_embedding(graph: MatchGraph):
    """Translation-normalised geometric form, for embedded-graph equality."""
    if not graph.vertices:
        return ((), ())
    minx = min(v.x for v in graph.vertices)
    miny = min(v.y for v in graph.vertices)
    pos = {v.id: (v.x - minx, v.y - miny) for v in graph.vertices}
    verts = tuple(sorted(pos.values()))
    edges = tuple(
        sorted(
            (tuple(sorted((pos[e.u], pos[e.v]))), e.weight)
            for e in graph.edges
        )
    )
    return (verts, edges)
