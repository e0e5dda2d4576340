"""Weighted sums and graph utilities that the tests check the package with.

`graph_count` counts the perfect matchings of a signed `MatchGraph`;
the package's `count_matchings` takes a region, not a graph, and reads
its rows off the level runs.

A weighted graph here is a `MatchGraph` together with a tuple of edge
weights parallel to its edges; None stands for all ones.

`matching_generating_function` sums the weights of the perfect matchings
through the same signed rows as the package's counts: the graph's signing
negates an edge, the weight is the entry, and a zero weight leaves none.
It takes its sign from the unit determinant of the rows, which every
matching enters with the common Kasteleyn sign and which is 0 only when
there is no matching.  Weighted rows are scaled to integers by the lcm of
their denominators, undone by one exact division.

A Ryser permanent, which needs no plane drawing, is an independent
cross-check on small instances.  `without` deletes vertices,
`reduce_forced` strips forced edges, and `canonical_embedding` compares
drawn graphs up to translation and vertex numbering.
"""

from fractions import Fraction
from math import lcm

from douglastile.matching import (
    MatchGraph,
    SizeLimit,
    _determinant,
    _ends,
    check_size,
    deletion_counts,
)

RYSER_LIMIT = 16


def graph_count(graph: MatchGraph) -> int:
    """Perfect matchings of a graph that carries its signing: G - S with S
    empty."""
    return deletion_counts(graph, ((),))[0]


def _edge_weights(graph, weights):
    """Weights parallel to `graph.edges`, 1 where `weights` is None."""
    return (1,) * len(graph.edges) if weights is None else weights


def matching_generating_function(graph: MatchGraph, weights) -> Fraction:
    """Sum over the perfect matchings of the product of edge weights.

    Refuses weights unlike the edges in length, a graph past
    `VERTEX_LIMIT` and a graph without a signing, in that order.
    """
    if len(weights) != len(graph.edges):
        raise ValueError("weights and edges differ in length")
    check_size(len(graph.vertices))
    black, ends = _ends(graph)
    if graph.signing is None:
        raise ValueError("graph carries no Kasteleyn signing")
    negated, _ = graph.signing
    rank, seen = [], [0, 0]
    for is_black in black:
        rank.append(seen[is_black])
        seen[is_black] += 1
    if seen[0] != seen[1]:
        return Fraction(0)
    unit = [{} for _ in range(seen[1])]
    rows = [{} for _ in range(seen[1])]
    for (b, w), flip, weight in zip(ends, negated, weights):
        r, c = rank[b], rank[w]
        unit[r][c] = -1 if flip else 1
        if weight:
            rows[r][c] = Fraction(-weight if flip else weight)
    # 0 here leaves no matching, so the weighted determinant is 0 too
    sign = _determinant(unit)
    scale = 1
    for r, values in enumerate(rows):
        common = lcm(*(v.denominator for v in values.values()))
        scale *= common
        rows[r] = {
            c: v.numerator * (common // v.denominator) for c, v in values.items()
        }
    det = _determinant(rows)
    return Fraction(-det if sign < 0 else det, scale)


def permanent_oracle(graph: MatchGraph, weights=None) -> Fraction:
    """Biadjacency permanent via Ryser's formula with Gray-code updates."""
    black = [v[0] for v in graph.vertices]
    rank, size = [], [0, 0]  # row or column of each vertex, part sizes
    for is_black in black:
        rank.append(size[is_black])
        size[is_black] += 1
    n = size[1]
    if n != size[0]:
        return Fraction(0)
    if n == 0:
        return Fraction(1)
    if n > RYSER_LIMIT:
        raise SizeLimit(f"permanent side {n} exceeds {RYSER_LIMIT}")
    a = [[Fraction(0)] * n for _ in range(n)]
    for (u, v), weight in zip(graph.edges, _edge_weights(graph, weights)):
        if black[u] == black[v]:
            raise ValueError("edge inside one part of the bipartition")
        if not black[u]:
            u, v = v, u
        a[rank[u]][rank[v]] += weight
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


def without(graph: MatchGraph, positions, weights=None):
    """Induced subgraph after deleting the vertices at `positions`, and
    the weights of its edges (None for None).

    The survivors keep their order and are renumbered from 0; each
    surviving edge keeps its weight.  The signing is dropped, since
    deleting vertices can move others onto the outer face.
    """
    drop = set(positions)
    # new[i] is the position of survivor i, -1 for a deleted vertex
    new = [-1] * len(graph.vertices)
    verts = []
    for i, vertex in enumerate(graph.vertices):
        if i not in drop:
            new[i] = len(verts)
            verts.append(vertex)
    edges, kept = [], []
    for (u, v), weight in zip(graph.edges, _edge_weights(graph, weights)):
        u, v = new[u], new[v]
        if u >= 0 and v >= 0:
            edges.append((u, v))
            kept.append(weight)
    return (
        MatchGraph(tuple(verts), tuple(edges)),
        None if weights is None else tuple(kept),
    )


def reduce_forced(graph: MatchGraph, weights=None):
    """Strip forced edges: every degree-1 vertex fixes its one edge.

    Returns the remaining graph, its edge weights (None for None) and the
    product of the forced edge weights.  If the cascade isolates a vertex
    there is no perfect matching at all and the zero sentinel (empty
    graph, empty weights or None, 0) comes back.
    """
    n = len(graph.vertices)
    zero = (MatchGraph((), ()), None if weights is None else (), Fraction(0))
    # adj[i] maps each neighbour of vertex i to the weight of their edge
    adj: list[dict[int, Fraction]] = [{} for _ in range(n)]
    for (i, j), w in zip(graph.edges, _edge_weights(graph, weights)):
        adj[i][j] = adj[j][i] = w
    alive = [True] * n
    multiplier = Fraction(1)
    queue = [i for i in range(n) if len(adj[i]) == 1]
    bad = [i for i in range(n) if not adj[i]]
    if bad and n:
        return zero
    while queue:
        i = queue.pop()
        if not alive[i] or len(adj[i]) != 1:
            continue
        (j,) = adj[i]
        multiplier *= adj[i][j]
        for k in (i, j):
            alive[k] = False
        for k in list(adj[j]):
            del adj[k][j]
            if alive[k]:
                if not adj[k]:
                    return zero
                if len(adj[k]) == 1:
                    queue.append(k)
        adj[i].clear()
        adj[j].clear()
    dead = [i for i in range(n) if not alive[i]]
    return (*without(graph, dead, weights), multiplier)


def canonical_embedding(graph: MatchGraph, weights=None):
    """Translation-normalised geometric form, for embedded-graph equality."""
    if not graph.vertices:
        return ((), ())
    _, minx, miny = map(min, zip(*graph.vertices))
    pos = [(v[1] - minx, v[2] - miny) for v in graph.vertices]
    verts = tuple(sorted(pos))
    edges = tuple(
        sorted(
            (tuple(sorted((pos[u], pos[v]))), weight)
            for (u, v), weight in zip(graph.edges, _edge_weights(graph, weights))
        )
    )
    return (verts, edges)
