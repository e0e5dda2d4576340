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
    Edge,
    MatchGraph,
    SizeLimit,
    Vertex,
    canonical_embedding,
    count_matchings,
    dual_graph,
    matching_generating_function,
    perfect_matching,
    permanent_oracle,
    reduce_forced,
)
from douglastile.regions import RegionSpec, build_region, formula_count
from douglastile.shuffle import AztecDiamond, WeightPattern, aztec_match_graph


def bipartite(n_black, n_white, mask, weights=None):
    """Graph from an edge bitmask over the black x white product."""
    verts = [
        Vertex(i, "black", Fraction(i), Fraction(0)) for i in range(n_black)
    ]
    verts += [
        Vertex(n_black + j, "white", Fraction(j), Fraction(1))
        for j in range(n_white)
    ]
    edges = []
    bit = 0
    for i in range(n_black):
        for j in range(n_white):
            if mask >> bit & 1:
                w = Fraction(1) if weights is None else weights[bit % len(weights)]
                edges.append(Edge(i, n_black + j, w))
            bit += 1
    return MatchGraph(tuple(verts), tuple(edges))


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
    g = g.without(g.vertices[k % len(g.vertices)].id for k in drop)
    cut = set(draw(st.lists(st.integers(0, 127), max_size=6)))
    picks = draw(st.lists(st.sampled_from(weights), min_size=1, max_size=6))
    edges = [e for k, e in enumerate(g.edges) if k % max(len(g.edges), 1) not in cut]
    return MatchGraph(
        g.vertices,
        tuple(
            Edge(e.u, e.v, picks[k % len(picks)]) for k, e in enumerate(edges)
        ),
    )


def test_base_counts_match_formula():
    for spec in valid_specs(4):
        region = build_region(spec.side, spec.distances)
        assert count_matchings(dual_graph(region)) == formula_count(region)


def test_dual_graph_shape():
    region = build_region(2, (1, 2, 1))
    g = dual_graph(region)
    assert len(g.vertices) == len(region.cells)
    parts = [v.part for v in g.vertices]
    assert parts.count("black") == parts.count("white")
    for e in g.edges:
        assert {g.vertices[e.u].part, g.vertices[e.v].part} == {"black", "white"}
        assert e.weight == 1


def test_tiny_graphs():
    single = bipartite(1, 1, 0b1)
    assert count_matchings(single) == 1
    empty = MatchGraph((), ())
    assert count_matchings(empty) == 1
    odd = MatchGraph((Vertex(0, "black", Fraction(0), Fraction(0)),), ())
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
    # sit: turned, sheared apart or mirrored, the count stays
    for g in (
        dual_graph(build_region(7, (4, 2, 5, 4))),
        aztec_match_graph(AztecDiamond(4, WeightPattern.ones(2, 2))),
    ):
        want = count_matchings(g)
        for move in (
            lambda v: (Fraction(-v.y, 3), v.x * 7),
            lambda v: (-v.x, v.y),
        ):
            moved = MatchGraph(
                tuple(Vertex(v.id, v.part, *move(v)) for v in g.vertices),
                g.edges,
            )
            assert count_matchings(moved) == want


def test_mgf_multiplicative_over_components():
    a = bipartite(2, 2, 0b1111, weights=[Fraction(2), Fraction(1, 3)])
    shift = len(a.vertices)
    b_raw = bipartite(2, 2, 0b0111, weights=[Fraction(5)])
    b = MatchGraph(
        tuple(
            Vertex(v.id + shift, v.part, v.x + 100, v.y) for v in b_raw.vertices
        ),
        tuple(Edge(e.u + shift, e.v + shift, e.weight) for e in b_raw.edges),
    )
    both = MatchGraph(a.vertices + b.vertices, a.edges + b.edges)
    assert matching_generating_function(both) == (
        matching_generating_function(a) * matching_generating_function(b)
    )


def test_zero_weight_edges_count_as_zero_not_absent():
    # 4-cycle with one zero edge: one of the two matchings is wiped out
    verts = tuple(
        Vertex(i, "black" if i % 2 == 0 else "white", Fraction(i), Fraction(0))
        for i in range(4)
    )
    edges = (
        Edge(0, 1, Fraction(1)),
        Edge(1, 2, Fraction(1)),
        Edge(2, 3, Fraction(0)),
        Edge(3, 0, Fraction(1)),
    )
    g = MatchGraph(verts, edges)
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
    v = (
        Vertex(0, "black", Fraction(0), Fraction(0)),
        Vertex(1, "white", Fraction(1), Fraction(0)),
    )
    with pytest.raises(ValueError):
        count_matchings(MatchGraph(v, (Edge(0, 0),)))
    with pytest.raises(ValueError):
        count_matchings(MatchGraph(v, (Edge(0, 1), Edge(1, 0))))


def test_size_limits():
    def path(n):
        verts = tuple(
            Vertex(i, "black" if i % 2 == 0 else "white", Fraction(i), Fraction(0))
            for i in range(n)
        )
        return MatchGraph(verts, tuple(Edge(i, i + 1) for i in range(n - 1)))

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
    verts = (
        Vertex(0, "black", Fraction(0), Fraction(0)),
        Vertex(1, "white", Fraction(1), Fraction(0)),
        Vertex(2, "black", Fraction(2), Fraction(0)),
    )
    g = MatchGraph(verts, (Edge(0, 1),))
    reduced, mult = reduce_forced(g)
    assert (reduced.vertices, mult) == ((), 0)


def test_reduce_forced_strips_pendant_chain():
    # a path on four vertices is matched entirely by the forced cascade
    verts = tuple(
        Vertex(i, "black" if i % 2 == 0 else "white", Fraction(i), Fraction(0))
        for i in range(4)
    )
    edges = (Edge(0, 1, Fraction(2)), Edge(1, 2), Edge(2, 3, Fraction(3)))
    reduced, mult = reduce_forced(MatchGraph(verts, edges))
    assert reduced.vertices == ()
    assert mult == 6


def test_perfect_matching_on_duals():
    for side, d in [(2, (4,)), (2, (1, 2, 1)), (7, (4, 2, 5, 4)), (64, (128,))]:
        g = dual_graph(build_region(side, d))
        matching = perfect_matching(g)
        assert matching is not None
        assert matching == sorted(matching)
        assert all(u < v for u, v in matching)
        used = [vid for pair in matching for vid in pair]
        assert sorted(used) == sorted(v.id for v in g.vertices)
        edge_set = {(e.u, e.v) for e in g.edges}
        for pair in matching:
            assert pair in edge_set


def test_perfect_matching_none_when_impossible():
    star = bipartite(1, 3, 0b111)
    assert perfect_matching(star) is None
    odd = MatchGraph((Vertex(0, "black", Fraction(0), Fraction(0)),), ())
    assert perfect_matching(odd) is None
    # balanced, but both blacks see only the first white
    blocked = bipartite(2, 2, 0b0101)
    assert count_matchings(blocked) == 0
    assert perfect_matching(blocked) is None
    assert perfect_matching(MatchGraph((), ())) == []


def test_canonical_embedding_ignores_translation_and_ids():
    g = dual_graph(build_region(2, (2, 1)))
    relabeled = MatchGraph(
        tuple(
            Vertex(v.id + 50, v.part, v.x + 9, v.y - Fraction(1, 2))
            for v in g.vertices
        ),
        tuple(Edge(e.u + 50, e.v + 50, e.weight) for e in g.edges),
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
