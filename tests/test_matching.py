"""Matching counts: Kasteleyn determinant vs permanent oracle, forced-edge
reduction, and the graph utilities."""

import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_count, valid_specs
from douglastile.condensation import kuo_counts, pick_corners
from douglastile.matching import (
    RYSER_LIMIT,
    VERTEX_LIMIT,
    MatchGraph,
    SizeLimit,
    _kasteleyn_signs,
    _prepare,
    canonical_embedding,
    count_matchings,
    dual_graph,
    matching_generating_function,
    perfect_matching,
    permanent_oracle,
    reduce_forced,
)
from douglastile.regions import CellKind, RegionSpec, build_region, formula_count
from douglastile.shuffle import AztecDiamond, WeightPattern, aztec_match_graph


def bipartite(n_black, n_white, mask, weights=None):
    """Graph from an edge bitmask over the black x white product."""
    verts = [(True, Fraction(i), Fraction(0)) for i in range(n_black)]
    verts += [(False, Fraction(j), Fraction(1)) for j in range(n_white)]
    edges = []
    picked = []
    bit = 0
    for i in range(n_black):
        for j in range(n_white):
            if mask >> bit & 1:
                edges.append((i, n_black + j))
                if weights is not None:
                    picked.append(weights[bit % len(weights)])
            bit += 1
    return MatchGraph(
        tuple(verts), tuple(edges), None if weights is None else tuple(picked)
    )


def path(n):
    """Path on n vertices along the x axis, colours alternating."""
    verts = tuple((i % 2 == 0, i, 0) for i in range(n))
    return MatchGraph(verts, tuple((i, i + 1) for i in range(n - 1)))


# plane graphs on which the permanent stays quick: region duals and
# Aztec diamond graphs with at most 20 vertices
PLANE_BASES = tuple(
    g
    for g in [dual_graph(build_region(s.side, s.distances)) for s in valid_specs(8)]
    + [aztec_match_graph(AztecDiamond(n, WeightPattern.ones(2, 2))) for n in (1, 2, 3)]
    if len(g.vertices) <= 20
)

WEIGHT_PICKS = [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(0), Fraction(-1, 3)]


@st.composite
def plane_graphs(draw, weights=(Fraction(1),)):
    """A base plane graph with a few vertices and edges deleted.

    Edge k gets weight `picks[k % len(picks)]`, picks drawn from `weights`.
    """
    g = draw(st.sampled_from(PLANE_BASES))
    drop = draw(st.lists(st.integers(0, 63), max_size=4))
    g = g.without(k % len(g.vertices) for k in drop)
    cut = set(draw(st.lists(st.integers(0, 127), max_size=6)))
    picks = draw(st.lists(st.sampled_from(weights), min_size=1, max_size=6))
    edges = tuple(
        e for k, e in enumerate(g.edges) if k % max(len(g.edges), 1) not in cut
    )
    return MatchGraph(
        g.vertices,
        edges,
        tuple(picks[k % len(picks)] for k in range(len(edges))),
    )


def test_base_counts_match_formula():
    for spec in valid_specs(4):
        region = build_region(spec.side, spec.distances)
        assert count_matchings(dual_graph(region)) == formula_count(region)


def test_dual_graph_shape():
    region = build_region(2, (1, 2, 1))
    g = dual_graph(region)
    assert len(g.vertices) == len(region.cells)
    parts = [v[0] for v in g.vertices]
    assert parts.count(True) == parts.count(False)
    for u, v in g.edges:
        assert {g.vertices[u][0], g.vertices[v][0]} == {True, False}
    assert g.weights is None


def test_tiny_graphs():
    single = bipartite(1, 1, 0b1)
    assert count_matchings(single) == 1
    empty = MatchGraph((), ())
    assert count_matchings(empty) == 1
    odd = MatchGraph(((True, 0, 0),), ())
    assert count_matchings(odd) == 0
    square = bipartite(2, 2, 0b1111)
    assert count_matchings(square) == 2
    no_match = bipartite(2, 2, 0b0011)  # second black vertex is isolated
    assert count_matchings(no_match) == 0


@given(g=plane_graphs())
@settings(max_examples=200, deadline=None)
def test_sweep_agrees_with_permanent(g):
    assert Fraction(count_matchings(g)) == permanent_oracle(g)


@given(g=plane_graphs(weights=WEIGHT_PICKS))
@settings(max_examples=200, deadline=None)
def test_weighted_mgf_agrees_with_permanent(g):
    assert matching_generating_function(g) == permanent_oracle(g)


def test_non_plane_graph_is_refused():
    k33 = bipartite(3, 3, (1 << 9) - 1)
    with pytest.raises(ValueError, match="graph is not plane"):
        count_matchings(k33)
    with pytest.raises(ValueError, match="graph is not plane"):
        matching_generating_function(k33)
    # the permanent needs no drawing
    assert permanent_oracle(k33) == 6


def test_sweep_order_insensitive_to_positions():
    # counting must not depend on where the vertices of a plane drawing
    # sit: turned, sheared apart, mirrored, or scaled from int sixths to
    # lattice units (Fraction halves and thirds), the count stays
    for g in (
        dual_graph(build_region(7, (4, 2, 5, 4))),
        dual_graph(build_region(15, (4, 2, 5, 4, 3, 6, 2, 3))),
        aztec_match_graph(AztecDiamond(4, WeightPattern.ones(2, 2))),
    ):
        want = count_matchings(g)
        for move in (
            lambda x, y: (Fraction(-y, 3), x * 7),
            lambda x, y: (-x, y),
            lambda x, y: (Fraction(x, 6), Fraction(y, 6)),
        ):
            moved = MatchGraph(
                tuple((b, *move(x, y)) for b, x, y in g.vertices),
                g.edges,
                g.weights,
            )
            assert count_matchings(moved) == want


def test_mgf_multiplicative_over_components():
    a = bipartite(2, 2, 0b1111, weights=[Fraction(2), Fraction(1, 3)])
    shift = len(a.vertices)
    b = bipartite(2, 2, 0b0111, weights=[Fraction(5)])
    both = MatchGraph(
        a.vertices + tuple((c, x + 100, y) for c, x, y in b.vertices),
        a.edges + tuple((u + shift, v + shift) for u, v in b.edges),
        a.weights + b.weights,
    )
    assert matching_generating_function(both) == (
        matching_generating_function(a) * matching_generating_function(b)
    )


def test_zero_weight_edges_count_as_zero_not_absent():
    # 4-cycle with one zero edge: one of the two matchings is wiped out
    verts = tuple((i % 2 == 0, i, 0) for i in range(4))
    edges = ((0, 1), (1, 2), (2, 3), (3, 0))
    weights = (Fraction(1), Fraction(1), Fraction(0), Fraction(1))
    g = MatchGraph(verts, edges, weights)
    assert matching_generating_function(g) == 1
    reduced, mult = reduce_forced(g)
    # degrees are all 2, so nothing is forced and nothing is deleted
    assert mult == 1
    assert len(reduced.edges) == 4


def test_count_matchings_requires_unit_weights():
    g = bipartite(1, 1, 0b1, weights=[Fraction(2)])
    with pytest.raises(ValueError):
        count_matchings(g)


def test_rejects_malformed_edges():
    v = path(3).vertices
    with pytest.raises(ValueError, match="self-loops"):
        count_matchings(MatchGraph(v, ((0, 0),)))
    with pytest.raises(ValueError, match="parallel"):
        count_matchings(MatchGraph(v, ((0, 1), (1, 0))))
    with pytest.raises(ValueError, match="one part"):
        count_matchings(MatchGraph(v, ((0, 2),)))


def test_rejects_edge_end_outside_positions():
    # with positions as names, -1 would silently mean the last vertex
    v = path(3).vertices
    for ends in ((0, 3), (-1, 1), (2, -1)):
        with pytest.raises(ValueError, match="not a vertex position"):
            MatchGraph(v, ((0, 1), ends))
    with pytest.raises(ValueError, match="not a vertex position"):
        MatchGraph((), ((0, 1),))


def test_rejects_weights_unlike_edges():
    # zip would silently drop the edges past a short weights tuple
    g = path(4)
    for weights in ((), (Fraction(2),) * 2, (Fraction(2),) * 4):
        with pytest.raises(ValueError, match="differ in length"):
            MatchGraph(g.vertices, g.edges, weights)
    assert MatchGraph(g.vertices, g.edges, (Fraction(2),) * 3).weights


def test_size_limits():
    assert count_matchings(path(VERTEX_LIMIT)) == 1 - VERTEX_LIMIT % 2
    with pytest.raises(SizeLimit):
        count_matchings(path(VERTEX_LIMIT + 1))
    with pytest.raises(SizeLimit):
        matching_generating_function(path(VERTEX_LIMIT + 1))
    wide = bipartite(RYSER_LIMIT + 1, RYSER_LIMIT + 1, 0)
    with pytest.raises(SizeLimit):
        permanent_oracle(wide)


def test_permanent_unequal_parts_is_zero():
    assert permanent_oracle(bipartite(2, 3, (1 << 6) - 1)) == 0


@given(
    n=st.integers(min_value=1, max_value=4),
    m=st.integers(min_value=1, max_value=4),
    mask=st.integers(min_value=0, max_value=(1 << 16) - 1),
    picks=st.lists(
        st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 2)]),
        min_size=1,
        max_size=5,
    ),
)
@settings(max_examples=200, deadline=None)
def test_reduce_forced_preserves_mgf(n, m, mask, picks):
    # dense and unequal-part graphs need not be plane, so the reference is
    # the permanent, which needs no drawing
    g = bipartite(n, m, mask, weights=picks)
    reduced, mult = reduce_forced(g)
    assert mult * permanent_oracle(reduced) == permanent_oracle(g)


@given(g=plane_graphs(weights=[Fraction(1), Fraction(2), Fraction(1, 2)]))
@settings(max_examples=200, deadline=None)
def test_reduce_forced_preserves_mgf_on_plane_graphs(g):
    reduced, mult = reduce_forced(g)
    assert mult * matching_generating_function(reduced) == (
        matching_generating_function(g)
    )


def test_reduce_forced_zero_sentinel():
    # isolated vertex: no perfect matching anywhere
    g = MatchGraph(path(3).vertices, ((0, 1),))
    reduced, mult = reduce_forced(g)
    assert (reduced.vertices, mult) == ((), 0)


def test_reduce_forced_strips_pendant_chain():
    # a path on four vertices is matched entirely by the forced cascade
    g = path(4)
    weights = (Fraction(2), Fraction(1), Fraction(3))
    reduced, mult = reduce_forced(MatchGraph(g.vertices, g.edges, weights))
    assert reduced.vertices == ()
    assert mult == 6


def test_perfect_matching_on_duals():
    for side, d in [(2, (4,)), (2, (1, 2, 1)), (7, (4, 2, 5, 4)), (64, (128,))]:
        g = dual_graph(build_region(side, d))
        matching = perfect_matching(g)
        assert matching is not None
        assert matching == sorted(matching)
        assert all(u < v for u, v in matching)
        used = [i for pair in matching for i in pair]
        assert sorted(used) == list(range(len(g.vertices)))
        edge_set = set(g.edges)
        for pair in matching:
            assert pair in edge_set


def test_perfect_matching_none_when_impossible():
    star = bipartite(1, 3, 0b111)
    assert perfect_matching(star) is None
    odd = MatchGraph(((True, 0, 0),), ())
    assert perfect_matching(odd) is None
    # balanced, but both blacks see only the first white
    blocked = bipartite(2, 2, 0b0101)
    assert count_matchings(blocked) == 0
    assert perfect_matching(blocked) is None
    assert perfect_matching(MatchGraph((), ())) == []


def test_canonical_embedding_ignores_translation_and_ids():
    # the vertices translated and renumbered in reverse order
    g = dual_graph(build_region(2, (2, 1)))
    last = len(g.vertices) - 1
    relabeled = MatchGraph(
        tuple((b, x + 9, y - Fraction(1, 2)) for b, x, y in reversed(g.vertices)),
        tuple((last - v, last - u) for u, v in g.edges),
    )
    assert canonical_embedding(g) == canonical_embedding(relabeled)
    other = dual_graph(build_region(1, (1, 2)))
    assert canonical_embedding(g) != canonical_embedding(other)
    assert canonical_embedding(MatchGraph((), ())) == ((), ())


def test_brute_count_matches_formula_to_t8():
    for spec in valid_specs(8):
        region = build_region(spec.side, spec.distances)
        assert brute_count(spec) == formula_count(region)


def test_kuo_deletion_counts_golden():
    # the five deletion counts of every region with total <= 8, pinned by
    # the digest computed with the exponential frontier-sweep counter,
    # which shares no code with the determinant
    lines = []
    for spec in valid_specs(8):
        g = dual_graph(build_region(spec.side, spec.distances))
        counts = kuo_counts(g, pick_corners(g), count_matchings(g))
        del counts["full"]
        lines.append(json.dumps(counts, sort_keys=True))
    assert sum(len(json.loads(line)) for line in lines) == 635
    digest = hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()
    assert digest == (
        "26d74b30590bc33a1a1d57ca6e9248039fe0d7c2828014b46f5baa19760be2d7"
    )


def _centroid(cell):
    # the mean of the cell's corners, as exact fractions of a lattice unit
    x, y = cell.anchor
    if cell.kind is CellKind.UP:
        corners = [(x, y), (x, y + 1), (x + 1, y + 1)]
    elif cell.kind is CellKind.DOWN:
        corners = [(x, y), (x + 1, y), (x + 1, y + 1)]
    else:
        corners = [(x, y), (x + 1, y), (x + 1, y + 1), (x, y + 1)]
    n = len(corners)
    return (
        sum(Fraction(px) for px, _ in corners) / n,
        sum(Fraction(py) for _, py in corners) / n,
    )


def test_dual_positions_are_integer_sixths():
    # every dual vertex sits at six times its cell's centroid, as ints
    specs = [(s.side, s.distances) for s in valid_specs(10)] + [(8, (16,))]
    for side, distances in specs:
        region = build_region(side, distances)
        g = dual_graph(region)
        for (_, x, y), cell in zip(g.vertices, region.cells, strict=True):
            assert type(x) is int and type(y) is int
            cx, cy = _centroid(cell)
            assert (x, y) == (6 * cx, 6 * cy)
    aztec = aztec_match_graph(AztecDiamond(8, WeightPattern.ones(2, 2)))
    assert all(type(x) is int and type(y) is int for _, x, y in aztec.vertices)


def test_rational_positions_order_exactly():
    # the same drawing in lattice units, with Fraction coordinates, must
    # give the same Kasteleyn signs and the same count as the int sixths
    for side, distances in ((7, (4, 2, 5, 4)), (15, (4, 2, 5, 4, 3, 6, 2, 3))):
        g = dual_graph(build_region(side, distances))
        scaled = MatchGraph(
            tuple((b, Fraction(x, 6), Fraction(y, 6)) for b, x, y in g.vertices),
            g.edges,
        )
        assert {x.denominator for _, x, _ in scaled.vertices} == {2, 3}
        signs = [_kasteleyn_signs(*_prepare(h), h) for h in (g, scaled)]
        assert signs[0] is not None and signs[0] == signs[1]
        assert count_matchings(scaled) == count_matchings(g)


def _check_without(g, drop):
    # survivors keep their order and coordinates, and the edges among
    # them, read as coordinate pairs, keep their weights
    h = g.without(drop)
    keep = [i for i in range(len(g.vertices)) if i not in set(drop)]
    assert h.vertices == tuple(g.vertices[i] for i in keep)
    assert (h.weights is None) == (g.weights is None)

    def weighed(graph, alive):
        weights = graph.weights or (1,) * len(graph.edges)
        return {
            (graph.vertices[u], graph.vertices[v]): w
            for (u, v), w in zip(graph.edges, weights, strict=True)
            if u in alive and v in alive
        }

    survived = weighed(h, range(len(h.vertices)))
    assert len(survived) == len(h.edges)
    assert survived == weighed(g, set(keep))


def test_without_renumbers_survivors():
    checked = 0
    for spec in valid_specs(8):
        g = dual_graph(build_region(spec.side, spec.distances))
        q = pick_corners(g)
        x, y, z, t = q.west, q.south, q.east, q.north
        for drop in ((x, y, z, t), (x, y), (z, t), (t, x), (y, z)):
            _check_without(g, drop)
            checked += 1
    assert checked == 5 * 127
    # a weighted Aztec graph whose 36 edge weights are all distinct
    pattern = WeightPattern(
        tuple(tuple(Fraction(6 * r + c + 1, 7) for c in range(6)) for r in range(6))
    )
    g = aztec_match_graph(AztecDiamond(3, pattern))
    assert len(set(g.weights)) == len(g.edges) == 36
    q = pick_corners(g)
    for drop in ((q.west, q.south), (q.north, q.east, 5), (), range(0, 24, 3)):
        _check_without(g, tuple(drop))
