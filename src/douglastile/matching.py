"""Perfect matchings of small plane bipartite graphs, counted exactly.

The main entry points count matchings (or sum matching weights) with a
frontier sweep over the vertex order, which handles every graph in this
project comfortably as long as no sweep front gets wider than a couple of
dozen vertices.  A Ryser permanent serves as an independent cross-check
on small instances.  All arithmetic is integer or Fraction; nothing here
touches floats.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .regions import Cell, CellKind, Region

__all__ = [
    "DEFAULT_FRONTIER_LIMIT",
    "RYSER_LIMIT",
    "SizeLimit",
    "Vertex",
    "Edge",
    "MatchGraph",
    "dual_graph",
    "count_matchings",
    "matching_generating_function",
    "permanent_oracle",
    "reduce_forced",
    "greedy_matching",
    "canonical_embedding",
    "graph_to_json",
    "graph_from_json",
]

DEFAULT_FRONTIER_LIMIT = 20
RYSER_LIMIT = 16


class SizeLimit(RuntimeError):
    """The instance is too large for the requested exact computation."""


@dataclass(frozen=True)
class Vertex:
    id: int
    part: str  # "black" or "white"
    x: Fraction
    y: Fraction


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
    top, west to east), which keeps the frontier of the counting sweep to
    roughly one line of cells.
    """
    verts = tuple(
        Vertex(i, cell.color.value, *cell.center)
        for i, cell in enumerate(region.cells)
    )
    by_edge: dict[tuple, list[int]] = {}
    for i, cell in enumerate(region.cells):
        for key in cell.boundary():
            by_edge.setdefault(key, []).append(i)
    edges = []
    for key in sorted(by_edge):
        touching = by_edge[key]
        if len(touching) == 2:
            i, j = sorted(touching)
            edges.append(Edge(i, j))
    edges.sort(key=lambda e: (e.u, e.v))
    return MatchGraph(verts, tuple(edges))


def _prepare(graph: MatchGraph):
    index = {v.id: pos for pos, v in enumerate(graph.vertices)}
    n = len(graph.vertices)
    nbrs: list[list[int]] = [[] for _ in range(n)]
    weight: dict[tuple[int, int], Fraction] = {}
    for e in graph.edges:
        i, j = index[e.u], index[e.v]
        if i == j:
            raise ValueError("self-loops are not allowed")
        key = (min(i, j), max(i, j))
        if key in weight:
            raise ValueError("parallel edges are not allowed")
        weight[key] = e.weight
        nbrs[i].append(j)
        nbrs[j].append(i)
    return n, nbrs, weight


def _frontier_sweep(graph: MatchGraph, frontier_limit: int):
    n, nbrs, weight = _prepare(graph)
    if n == 0:
        return 1
    if n % 2:
        return 0

    # widest sweep front: vertices already seen that still wait for a
    # later neighbour
    last = [max(ns) if ns else -1 for ns in nbrs]
    enders = [0] * n
    for j in range(n):
        if last[j] > j:
            enders[last[j]] += 1
    width = live = 0
    for i in range(n):
        if last[i] > i:
            live += 1
        width = max(width, live)
        live -= enders[i]
    if width > frontier_limit:
        raise SizeLimit(f"frontier width {width} exceeds {frontier_limit}")

    dead_mask = [0] * n
    for j in range(n):
        if last[j] <= j:
            continue
        dead_mask[last[j]] |= 1 << j

    states = {0: 1}
    for i in range(n):
        earlier = [j for j in nbrs[i] if j < i]
        defers = last[i] > i
        bit = 1 << i
        nxt: dict[int, object] = {}
        for mask, value in states.items():
            if defers:
                key = mask | bit
                nxt[key] = nxt.get(key, 0) + value
            for j in earlier:
                jbit = 1 << j
                if mask & jbit:
                    w = weight[(j, i)]
                    key = mask & ~jbit
                    add = value if w == 1 else value * w
                    nxt[key] = nxt.get(key, 0) + add
        dead = dead_mask[i]
        states = {m: v for m, v in nxt.items() if not (m & dead) and v != 0}
        if not states:
            return 0
    return states.get(0, 0)


def count_matchings(
    graph: MatchGraph, frontier_limit: int = DEFAULT_FRONTIER_LIMIT
) -> int:
    """Number of perfect matchings of an unweighted graph."""
    if any(e.weight != 1 for e in graph.edges):
        raise ValueError("count_matchings expects unit edge weights")
    return int(_frontier_sweep(graph, frontier_limit))


def matching_generating_function(
    graph: MatchGraph, frontier_limit: int = DEFAULT_FRONTIER_LIMIT
) -> Fraction:
    """Sum over perfect matchings of the product of edge weights."""
    return Fraction(_frontier_sweep(graph, frontier_limit))


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


def greedy_matching(graph: MatchGraph) -> list[tuple[int, int]] | None:
    """One perfect matching, found forced-choices-first, or None.

    Backtracking search that always branches on a vertex of minimum
    remaining degree, so forced edges are taken immediately.  Meant for
    rendering overlays, not for counting.
    """
    index = {v.id: pos for pos, v in enumerate(graph.vertices)}
    n = len(graph.vertices)
    if n % 2:
        return None
    adj: list[list[int]] = [[] for _ in range(n)]
    for e in graph.edges:
        i, j = index[e.u], index[e.v]
        adj[i].append(j)
        adj[j].append(i)
    for ns in adj:
        ns.sort()
    alive = [True] * n

    def pick() -> int | None:
        best, best_deg = None, None
        for i in range(n):
            if not alive[i]:
                continue
            deg = sum(1 for j in adj[i] if alive[j])
            if best_deg is None or deg < best_deg:
                best, best_deg = i, deg
        return best

    out: list[tuple[int, int]] = []

    def solve() -> bool:
        i = pick()
        if i is None:
            return True
        alive[i] = False
        for j in adj[i]:
            if not alive[j]:
                continue
            alive[j] = False
            out.append((i, j))
            if solve():
                return True
            out.pop()
            alive[j] = True
        alive[i] = True
        return False

    if not solve():
        return None
    return [
        (graph.vertices[i].id, graph.vertices[j].id) for i, j in sorted(out)
    ]


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


def _frac_str(value: Fraction) -> str:
    return str(Fraction(value))


def graph_to_json(graph: MatchGraph) -> str:
    return json.dumps(
        {
            "vertices": [
                {
                    "id": v.id,
                    "part": v.part,
                    "x": _frac_str(v.x),
                    "y": _frac_str(v.y),
                }
                for v in graph.vertices
            ],
            "edges": [
                {"u": e.u, "v": e.v, "w": _frac_str(e.weight)}
                for e in graph.edges
            ],
        }
    )


def graph_from_json(text: str) -> MatchGraph:
    data = json.loads(text)
    verts = tuple(
        Vertex(int(v["id"]), v["part"], Fraction(v["x"]), Fraction(v["y"]))
        for v in data["vertices"]
    )
    edges = tuple(
        Edge(int(e["u"]), int(e["v"]), Fraction(e["w"]))
        for e in data["edges"]
    )
    return MatchGraph(verts, edges)
