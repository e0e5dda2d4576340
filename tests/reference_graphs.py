"""Signed graphs, weighted sums and graph utilities that the tests check
the package with.

The package counts a region from its level runs, with no graph.  Here a
`SignedGraph` carries a Kasteleyn signing with the graph it signs, and
the graph versions of the package's counts work on it:
`graph_deletion_counts` counts each G - S from one signing of G,
`graph_count` is the case S empty, and `graph_pick_corners` and
`graph_kuo_counts` are the corner picks and Kuo blocks on drawn vertices.
They are the references that the run-level rows, corners and minors are
checked against, and they count the graphs that tests build by hand.

A weighted graph here is a graph together with a tuple of edge weights
parallel to its edges; None stands for all ones.

`matching_generating_function` sums the weights of the perfect matchings
through the same signed rows as the counts: the graph's signing negates
an edge, the weight is the entry, and a zero weight leaves none.  It
takes its sign from the unit determinant of the rows, which every
matching enters with the common Kasteleyn sign and which is 0 only when
there is no matching.  Weighted rows are scaled to integers by the lcm of
their denominators, undone by one exact division.

A Ryser permanent, which needs no plane drawing, is an independent
cross-check on small instances.  `without` deletes vertices,
`reduce_forced` strips forced edges, and `canonical_embedding` compares
drawn graphs up to translation and vertex numbering.
"""

from collections import namedtuple
from fractions import Fraction
from math import lcm

from douglastile.condensation import CornerQuad, CornersNotFound
from douglastile.matching import (
    MatchGraph,
    OuterFaceError,
    SizeLimit,
    _determinant,
    _ends,
    check_size,
)

RYSER_LIMIT = 16


class SignedGraph(namedtuple("SignedGraph", "vertices edges signing")):
    """A `MatchGraph` with a signing: None or a pair `(negated, outer)` of
    flag sequences.  `negated[e]` marks edge e of a Kasteleyn signing and
    `outer[i]` marks vertex i as on the outer face walk of its component.
    The counts trust a given signing.  Edge ends as `MatchGraph`, and
    flags unlike the edges or vertices in length, raise ValueError.
    """

    __slots__ = ()

    def __new__(cls, vertices, edges, signing=None):
        MatchGraph(vertices, edges)
        if signing is not None:
            negated, outer = signing
            if len(negated) != len(edges) or len(outer) != len(vertices):
                raise ValueError("signing flags unlike the edges or vertices")
        return super().__new__(cls, vertices, edges, signing)


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


def _signing(graph):
    """The graph's `(negated, outer)` flags; ValueError when it has none."""
    signing = getattr(graph, "signing", None)
    if signing is None:
        raise ValueError("graph carries no Kasteleyn signing")
    return signing


def graph_deletion_counts(graph, deletions) -> list[int]:
    """Perfect matchings of G - S for each vertex set S in `deletions`.

    G carries its signing, or ValueError.  Each G - S keeps G's signed rows
    less those of S, re-ranked, and gets its own exact determinant.  Every
    vertex of S must lie on the outer face walk of its component, or
    OuterFaceError is raised: then G's signing is a Kasteleyn signing of
    G - S, on every component.
    """
    check_size(len(graph.vertices))
    black, ends = _ends(graph)
    neg, outer = _signing(graph)
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


def graph_count(graph) -> int:
    """Perfect matchings of a graph that carries its signing: G - S with S
    empty."""
    return graph_deletion_counts(graph, ((),))[0]


def graph_pick_corners(graph) -> CornerQuad:
    """Westmost black, southmost white, eastmost black, northmost white
    vertex, over all vertices.

    Ties resolve toward the outer face: the west pick prefers north, the
    east pick south, the south pick west and the north pick east.
    """
    verts = graph.vertices
    blacks = [i for i, v in enumerate(verts) if v[0]]
    whites = [i for i, v in enumerate(verts) if not v[0]]
    if not blacks or not whites:
        raise CornersNotFound("a colour class is empty")
    west = min(blacks, key=lambda i: (verts[i][1], -verts[i][2]))
    east = max(blacks, key=lambda i: (verts[i][1], -verts[i][2]))
    south = min(whites, key=lambda i: (verts[i][2], verts[i][1]))
    north = max(whites, key=lambda i: (verts[i][2], verts[i][1]))
    if len({west, south, east, north}) != 4:
        raise CornersNotFound("corner picks are not distinct")
    return CornerQuad(west=west, south=south, east=east, north=north)


def graph_kuo_counts(graph, quad: CornerQuad) -> dict[str, int]:
    """The six counts of Kuo's identity, from one signing of the graph;
    CornersNotFound if a corner is not on the outer face."""
    x, y, z, t = quad.west, quad.south, quad.east, quad.north
    deleted = {
        "full": (),
        "minus_all": (x, y, z, t),
        "minus_west_south": (x, y),
        "minus_east_north": (z, t),
        "minus_north_west": (t, x),
        "minus_south_east": (y, z),
    }
    try:
        counts = graph_deletion_counts(graph, deleted.values())
    except OuterFaceError as exc:
        raise CornersNotFound(str(exc)) from exc
    return dict(zip(deleted, counts))


def _edge_weights(graph, weights):
    """Weights parallel to `graph.edges`, 1 where `weights` is None."""
    return (1,) * len(graph.edges) if weights is None else weights


def matching_generating_function(graph, weights) -> Fraction:
    """Sum over the perfect matchings of the product of edge weights.

    Refuses weights unlike the edges in length, a graph past
    `VERTEX_LIMIT` and a graph without a signing, in that order.
    """
    if len(weights) != len(graph.edges):
        raise ValueError("weights and edges differ in length")
    check_size(len(graph.vertices))
    black, ends = _ends(graph)
    negated, _ = _signing(graph)
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
    surviving edge keeps its weight.  The result is an unsigned
    `MatchGraph`, since deleting vertices can move others onto the outer
    face.
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
