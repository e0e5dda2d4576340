"""Matching counts: Kasteleyn determinant vs permanent oracle, the
run-level rows and minors vs signed graphs, the weighted sum, forced-edge
reduction, and the graph utilities."""

import hashlib
import json
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import brute_count, valid_specs
from reference_aztec import AztecDiamond, WeightPattern, aztec_match_graph
from reference_graphs import (
    RYSER_LIMIT,
    SignedGraph,
    _signed_rows,
    canonical_embedding,
    graph_count,
    graph_deletion_counts,
    graph_kuo_counts,
    graph_pick_corners,
    matching_generating_function,
    permanent_oracle,
    reduce_forced,
    without,
)
from reference_kasteleyn import (
    adjacency,
    face_walks,
    kasteleyn_signing,
    lattice_negated,
    lattice_signed,
    signed,
)
from douglastile.condensation import CornersNotFound, kuo_counts, pick_corners
from douglastile.matching import (
    VERTEX_LIMIT,
    MatchGraph,
    OuterFaceError,
    SizeLimit,
    _determinant,
    _ends,
    _outer_ranks,
    _region_rows,
    count_matchings,
    deletion_counts,
    dual_graph,
    perfect_matching,
)
from douglastile.regions import (
    Cell,
    CellKind,
    Color,
    Region,
    RegionSpec,
    build_region,
    formula_count,
)


def weighted_bipartite(n_black, n_white, mask, weights):
    """Graph from an edge bitmask over the black x white product, unsigned,
    and its edge weights: the edge of bit k weighs `weights[k % len]`.

    Dense masks draw graphs that are not plane, so only the tests that
    count one sign it, with `signed`.
    """
    verts = [(True, Fraction(i), Fraction(0)) for i in range(n_black)]
    verts += [(False, Fraction(j), Fraction(1)) for j in range(n_white)]
    edges = []
    picked = []
    bit = 0
    for i in range(n_black):
        for j in range(n_white):
            if mask >> bit & 1:
                edges.append((i, n_black + j))
                picked.append(weights[bit % len(weights)])
            bit += 1
    return MatchGraph(tuple(verts), tuple(edges)), tuple(picked)


def bipartite(n_black, n_white, mask):
    """The graph of `weighted_bipartite`, unweighted."""
    return weighted_bipartite(n_black, n_white, mask, (1,))[0]


def aztec_graph(n):
    """The order-n Aztec diamond graph with its lattice signing."""
    return aztec_match_graph(AztecDiamond(n, WeightPattern.ones(2, 2)))[0]


def path(n):
    """Path on n vertices along the x axis, colours alternating, unsigned."""
    verts = tuple((i % 2 == 0, i, 0) for i in range(n))
    return MatchGraph(verts, tuple((i, i + 1) for i in range(n - 1)))


# plane graphs on which the permanent stays quick: region duals and
# Aztec diamond graphs with at most 20 vertices
PLANE_BASES = tuple(
    g
    for g in [dual_graph(build_region(s.side, s.distances)) for s in valid_specs(8)]
    + [aztec_graph(n) for n in (1, 2, 3)]
    if len(g.vertices) <= 20
)

WEIGHT_PICKS = [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(0), Fraction(-1, 3)]


@st.composite
def plane_graphs(draw, weights=(Fraction(1),)):
    """A base plane graph with a few vertices and edges deleted, signed,
    and its edge weights.

    Edge k gets weight `picks[k % len(picks)]`, picks drawn from `weights`.
    """
    g = draw(st.sampled_from(PLANE_BASES))
    drop = draw(st.lists(st.integers(0, 63), max_size=4))
    g, _ = without(g, (k % len(g.vertices) for k in drop))
    cut = set(draw(st.lists(st.integers(0, 127), max_size=6)))
    picks = draw(st.lists(st.sampled_from(weights), min_size=1, max_size=6))
    edges = tuple(
        e for k, e in enumerate(g.edges) if k % max(len(g.edges), 1) not in cut
    )
    return (
        signed(MatchGraph(g.vertices, edges)),
        tuple(picks[k % len(picks)] for k in range(len(edges))),
    )


def test_base_counts_match_formula():
    for spec in valid_specs(4):
        region = build_region(spec.side, spec.distances)
        assert count_matchings(region) == formula_count(region)


def test_region_rows_are_the_dual_graph_rows():
    # the brute count's rows, read off the level runs, are the rows of the
    # dual graph under the lattice signing read off the cells' anchors,
    # with nothing deleted: the same ranks, entries and signs
    specs = list(valid_specs(14))
    specs += [RegionSpec(n, (2 * n,)) for n in (1, 2, 3, 8, 32, 64)]
    assert len(specs) == 8197
    for spec in specs:
        region = build_region(*spec)
        g = dual_graph(region)
        black, ends = _ends(g)
        negated = lattice_negated(region, g)
        assert _region_rows(region) == _signed_rows(black, ends, negated, ())


def _staircase(layers):
    return RegionSpec(1, (1,) * (layers - 1) + (2,))


def _squares(*cells):
    # a hand-built region of squares, one (colour, level, x) per level:
    # runs that no spec lays out, whose rows need not be square
    runs = tuple((j, x, x + 1, False) for j, (_, _, x) in enumerate(cells))
    symbols = tuple("0" if color is Color.BLACK else "" for color, _, _ in cells)
    made = tuple(
        Cell(CellKind.SQUARE, color, level, (x, x + level))
        for color, level, x in cells
    )
    return Region(RegionSpec(1, (1,)), made, symbols, runs)


def _outer_cells(region):
    # the cells that the run-level outer test passes, one call per cell
    passed = []
    for v in range(len(region.cells)):
        try:
            _outer_ranks(region, (v,))
        except OuterFaceError:
            continue
        passed.append(v)
    return passed


def test_run_level_kuo_blocks_match_the_graph_references():
    # the corners, the six minors and the outer test that the package reads
    # off the level runs, against the graph references: the vertex picks,
    # the counts under the lattice signing and the face walks' outer flags
    specs = list(valid_specs(10))
    specs += [RegionSpec(n, (2 * n,)) for n in range(1, 17)] + [_staircase(40)]
    assert len(specs) == 528
    # one cell, and one cell of each colour: both picks refuse
    hand_built = [
        _squares((Color.WHITE, 0, 0)),
        _squares((Color.WHITE, 0, 0), (Color.BLACK, -1, 0)),
    ]
    refused = 0
    for region in [build_region(*spec) for spec in specs] + hand_built:
        spec = region.spec
        g = lattice_signed(region)
        outer = g.signing[1]
        assert _outer_cells(region) == [v for v, flag in enumerate(outer) if flag]
        try:
            want = graph_pick_corners(g)
        except CornersNotFound as exc:
            with pytest.raises(CornersNotFound, match=str(exc)):
                pick_corners(region)
            refused += 1
            continue
        quad = pick_corners(region)
        assert quad == want, spec
        assert kuo_counts(region, quad) == graph_kuo_counts(g, quad), spec
    assert refused == 2


def test_region_count_with_unequal_colour_classes_is_zero():
    # no region a spec describes has one; the rows of runs that lay out
    # more cells of one colour are not square
    lone = _squares((Color.WHITE, 0, 0))
    assert lone.runs == ((0, 0, 1, False),)
    assert _region_rows(lone) == []
    assert count_matchings(lone) == 0
    with pytest.raises(CornersNotFound, match="a colour class is empty"):
        pick_corners(lone)


def _uneven():
    # two white squares over one black: white 0 and the black share a
    # side, white 1 touches neither, and every cell is on the outer face
    cells = (
        Cell(CellKind.SQUARE, Color.WHITE, 0, (0, 0)),
        Cell(CellKind.SQUARE, Color.WHITE, 0, (1, 0)),
        Cell(CellKind.SQUARE, Color.BLACK, -1, (0, -1)),
    )
    runs = ((0, 0, 2, False), (2, 0, 1, False))
    return Region(RegionSpec(1, (1,)), cells, ("", "0"), runs)


def _singular_interior():
    # two white squares over two black ones, each white over the black at
    # its anchor: white 0 touches both blacks, white 1 only black 3; less
    # white 0 and black 3, the border, white 1 and black 2 touch nothing
    cells = (
        Cell(CellKind.SQUARE, Color.WHITE, 0, (0, 0)),
        Cell(CellKind.SQUARE, Color.WHITE, 0, (1, 1)),
        Cell(CellKind.SQUARE, Color.BLACK, -1, (0, -1)),
        Cell(CellKind.SQUARE, Color.BLACK, -1, (1, 0)),
    )
    runs = ((0, 0, 2, False), (2, 0, 2, False))
    return Region(RegionSpec(1, (1,)), cells, ("", "0"), runs)


def test_deletions_can_balance_unequal_colour_classes():
    # the graph reference counts the same minors
    uneven = _uneven()
    sets = ((), (1,), (0,), (0, 2), (1, 2))
    assert deletion_counts(uneven, sets) == [0, 1, 0, 0, 0]
    g = signed(dual_graph(uneven))
    assert g.edges == ((0, 2),)
    assert graph_deletion_counts(g, sets) == [0, 1, 0, 0, 0]


def test_fallback_shapes_count_like_the_graph_reference(monkeypatch):
    # each elimination is logged by its border's rows and columns.  The
    # uneven region's interior is square (and empty) once every cell of
    # the five sets is border, so one elimination serves them all; with
    # S's cells (0,) and (1,) its interior is not square, and the other
    # region's interior is square but singular: then each square G - S is
    # an elimination of its own with S alone as the border
    borders = []

    def counted(rows, border=None, skip=()):
        borders.append((len(border or ()), len(skip)))
        return _determinant(rows, border, skip)

    monkeypatch.setattr("douglastile.matching._determinant", counted)
    cases = [
        (_uneven(), ((), (1,), (0,), (0, 2), (1, 2)), [0, 1, 0, 0, 0], [(1, 2)]),
        (_uneven(), ((), (0,), (1,)), [0, 0, 1], [(0, 1), (0, 1)]),
        (
            _singular_interior(),
            ((), (0,), (0, 3)),
            [1, 0, 0],
            [(1, 1), (0, 0), (1, 1)],
        ),
    ]
    for region, sets, counts, eliminations in cases:
        borders.clear()
        assert deletion_counts(region, sets) == counts
        assert borders == eliminations
        assert graph_deletion_counts(signed(dual_graph(region)), sets) == counts


def test_dual_graph_shape():
    region = build_region(2, (1, 2, 1))
    g = dual_graph(region)
    assert len(g.vertices) == len(region.cells)
    parts = [v[0] for v in g.vertices]
    assert parts.count(True) == parts.count(False)
    for u, v in g.edges:
        assert {g.vertices[u][0], g.vertices[v][0]} == {True, False}
    assert g._fields == ("vertices", "edges")
    # the signing lives on the tests' signed graphs
    h = lattice_signed(region)
    assert h._fields == ("vertices", "edges", "signing")
    assert (h.vertices, h.edges) == g


def test_tiny_graphs():
    single = signed(bipartite(1, 1, 0b1))
    assert graph_count(single) == 1
    empty = signed(MatchGraph((), ()))
    assert graph_count(empty) == 1
    odd = signed(MatchGraph(((True, 0, 0),), ()))
    assert graph_count(odd) == 0
    square = signed(bipartite(2, 2, 0b1111))
    assert graph_count(square) == 2
    no_match = signed(bipartite(2, 2, 0b0011))  # second black vertex is isolated
    assert graph_count(no_match) == 0


@given(case=plane_graphs())
@settings(max_examples=200, deadline=None)
def test_sweep_agrees_with_permanent(case):
    g, weights = case
    assert Fraction(graph_count(g)) == permanent_oracle(g, weights)


@given(case=plane_graphs(weights=WEIGHT_PICKS))
@settings(max_examples=200, deadline=None)
def test_weighted_mgf_agrees_with_permanent(case):
    g, weights = case
    assert matching_generating_function(g, weights) == permanent_oracle(g, weights)


def test_non_plane_graph_is_refused():
    # the reference signer refuses it, so no count gets a signing
    k33 = bipartite(3, 3, (1 << 9) - 1)
    with pytest.raises(ValueError, match="graph is not plane"):
        graph_count(signed(k33))
    with pytest.raises(ValueError, match="graph is not plane"):
        matching_generating_function(signed(k33), (1,) * 9)
    # the permanent needs no drawing
    assert permanent_oracle(k33) == 6


def test_sweep_order_insensitive_to_positions():
    # counting must not depend on where the vertices of a plane drawing
    # sit: turned, sheared apart, mirrored, or scaled from int sixths to
    # lattice units (Fraction halves and thirds), the count stays.  The
    # region duals and the Aztec graph are counted with their lattice
    # signing, the moved graphs with the reference signer, so this also
    # compares the two signings
    for g in (
        lattice_signed(build_region(7, (4, 2, 5, 4))),
        lattice_signed(build_region(15, (4, 2, 5, 4, 3, 6, 2, 3))),
        aztec_graph(4),
    ):
        want = graph_count(g)
        for move in (
            lambda x, y: (Fraction(-y, 3), x * 7),
            lambda x, y: (-x, y),
            lambda x, y: (Fraction(x, 6), Fraction(y, 6)),
        ):
            moved = signed(
                MatchGraph(
                    tuple((b, *move(x, y)) for b, x, y in g.vertices),
                    g.edges,
                )
            )
            assert graph_count(moved) == want


def test_mgf_multiplicative_over_components():
    a, a_weights = weighted_bipartite(2, 2, 0b1111, [Fraction(2), Fraction(1, 3)])
    shift = len(a.vertices)
    b, b_weights = weighted_bipartite(2, 2, 0b0111, [Fraction(5)])
    both = MatchGraph(
        a.vertices + tuple((c, x + 100, y) for c, x, y in b.vertices),
        a.edges + tuple((u + shift, v + shift) for u, v in b.edges),
    )
    assert matching_generating_function(signed(both), a_weights + b_weights) == (
        matching_generating_function(signed(a), a_weights)
        * matching_generating_function(signed(b), b_weights)
    )


def test_zero_weight_edges_count_as_zero_not_absent():
    # 4-cycle with one zero edge: one of the two matchings is wiped out
    verts = tuple((i % 2 == 0, i, 0) for i in range(4))
    edges = ((0, 1), (1, 2), (2, 3), (3, 0))
    weights = (Fraction(1), Fraction(1), Fraction(0), Fraction(1))
    g = signed(MatchGraph(verts, edges))
    assert matching_generating_function(g, weights) == 1
    reduced, _, mult = reduce_forced(g, weights)
    # degrees are all 2, so nothing is forced and nothing is deleted
    assert mult == 1
    assert len(reduced.edges) == 4


def test_weighted_sign_comes_from_the_unit_determinant():
    # this signing gives the 4-cycle a unit determinant of -2, so a
    # weighted sum that dropped that sign, or took abs, would come out 2
    verts = ((True, 0, 0), (False, 1, 0), (True, 1, 1), (False, 0, 1))
    edges = ((0, 1), (1, 2), (2, 3), (3, 0))
    g = signed(MatchGraph(verts, edges))
    weights = tuple(map(Fraction, (1, -3, 1, 1)))
    black, ends = _ends(g)
    neg, _ = g.signing
    assert _determinant(_signed_rows(black, ends, neg, ())) == -2
    assert matching_generating_function(g, weights) == -2
    assert permanent_oracle(g, weights) == -2


def fraction_determinant(matrix):
    """Determinant by Gaussian elimination over Fraction, rows swapped."""
    a = [[Fraction(v) for v in row] for row in matrix]
    det = Fraction(1)
    for c in range(len(a)):
        p = next((r for r in range(c, len(a)) if a[r][c]), None)
        if p is None:
            return 0
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, len(a)):
            f = a[r][c] / a[c][c]
            for k in range(c, len(a)):
                a[r][k] -= f * a[c][k]
    return det


@given(
    matrix=st.integers(0, 7).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-3, 3), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    ),
    repeat=st.booleans(),
)
@example(matrix=[], repeat=False)
@example(matrix=[[2, 1], [1, 1]], repeat=False)
@example(matrix=[[0, 1, 0], [2, 0, 0], [0, 0, -3]], repeat=False)
@example(matrix=[[2, 3], [3, 2]], repeat=False)
@settings(max_examples=500, deadline=None)
def test_determinant_matches_fraction_elimination(matrix, repeat):
    # entries of +-2 and +-3 leave some columns without a unit entry, and
    # a unit below the first candidate row moves the pivot off the
    # diagonal, so the fallback and the permutation sign are both reached;
    # `repeat` makes the last row a copy of the first, a singular matrix
    if repeat and len(matrix) > 1:
        matrix[-1] = list(matrix[0])
    rows = [{c: v for c, v in enumerate(row) if v} for row in matrix]
    assert _determinant(rows) == fraction_determinant(matrix)


@st.composite
def bordered_matrices(draw):
    """A square matrix of order 0 to 6 with entries -3..3, and its border:
    as many rows as columns, at most two of each, drawn at any index."""
    n = draw(st.integers(0, 6))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    matrix = draw(st.lists(row, min_size=n, max_size=n))
    k = draw(st.integers(0, min(n, 2)))
    index = st.lists(
        st.integers(0, max(n - 1, 0)), min_size=k, max_size=k, unique=True
    )
    return matrix, sorted(draw(index)), sorted(draw(index))


@given(case=bordered_matrices(), singular=st.booleans())
@example(case=([[2, 1], [1, 1]], [1], [1]), singular=False)
@example(case=([[1, 1], [1, 2]], [0], [1]), singular=False)
@example(case=([[2, 3, 1], [3, 2, 0], [1, 1, 2]], [2], [2]), singular=False)
@example(case=([[1, 1, 2], [1, 1, 3], [2, 0, 1]], [2], [2]), singular=False)
@example(case=([[0, 1], [1, 0]], [1], [1]), singular=False)
@example(case=([[1, 2, 0], [2, 1, 1], [3, 0, 1]], [0, 2], [1, 2]), singular=False)
@settings(max_examples=500, deadline=None)
def test_bordered_elimination_leaves_the_schur_complement(case, singular):
    # the border rows and columns stand where they are.  A minor that
    # keeps the interior A and as many border rows as border columns is
    # det A times the determinant of the kept residual block, each border
    # row over its own scaling, with A's rows and columns first, each in
    # its order.  Entries of +-2 and +-3 give non-unit pivots, which scale
    # the border rows (the first example scales one by 2, the last two,
    # which stand away from the end); in the second a border row is a
    # column's first candidate, which must not pivot;
    # `singular` makes A's last row a copy of its first, or its one entry
    # 0, and the fourth and fifth examples have a singular A of their own
    matrix, border_rows, border_cols = case
    inner_rows = [r for r in range(len(matrix)) if r not in border_rows]
    inner_cols = [c for c in range(len(matrix)) if c not in border_cols]
    if singular and inner_rows:
        first, last = inner_rows[0], inner_rows[-1]
        for c in inner_cols:
            matrix[last][c] = matrix[first][c] if first != last else 0
    rows = [{c: v for c, v in enumerate(row) if v} for row in matrix]
    scales = dict.fromkeys(border_rows, 1)
    det = _determinant(rows, scales, set(border_cols))
    assert det == fraction_determinant(
        [[matrix[r][c] for c in inner_cols] for r in inner_rows]
    )
    if not det:
        return
    assert all(rows[r] is None for r in inner_rows)
    assert all(c in border_cols for r in border_rows for c in rows[r])
    for size in range(len(border_rows) + 1):
        for keep in combinations(border_rows, size):
            for cols in combinations(border_cols, size):
                minor = [
                    [matrix[r][c] for c in inner_cols + list(cols)]
                    for r in inner_rows + list(keep)
                ]
                block = [
                    [Fraction(rows[r].get(c, 0), scales[r]) for c in cols]
                    for r in keep
                ]
                assert det * fraction_determinant(block) == fraction_determinant(
                    minor
                )


def test_rejects_malformed_edges():
    v = path(3).vertices
    with pytest.raises(ValueError, match="self-loops"):
        graph_count(MatchGraph(v, ((0, 0),)))
    with pytest.raises(ValueError, match="parallel"):
        graph_count(MatchGraph(v, ((0, 1), (1, 0))))
    with pytest.raises(ValueError, match="one part"):
        graph_count(MatchGraph(v, ((0, 2),)))


def test_rejects_edge_end_outside_positions():
    # with positions as names, -1 would silently mean the last vertex;
    # an end equal to the vertex count is one past the last
    v = path(3).vertices
    for ends in ((0, 3), (3, 0), (-1, 1), (2, -1)):
        for edges in (((0, 1), ends), (ends, (1, 2))):
            with pytest.raises(ValueError, match="not a vertex position"):
                MatchGraph(v, edges)
    with pytest.raises(ValueError, match="not a vertex position"):
        MatchGraph((), ((0, 1),))
    assert MatchGraph(v, ((0, 1), (1, 2))).edges == ((0, 1), (1, 2))


def test_rejects_weights_unlike_edges():
    # zip would silently drop the edges past a short weights tuple
    g = signed(path(4))
    for weights in ((), (Fraction(2),) * 2, (Fraction(2),) * 4):
        with pytest.raises(ValueError, match="differ in length"):
            matching_generating_function(g, weights)
    assert matching_generating_function(g, (Fraction(2),) * 3) == 4


def test_size_limits():
    assert graph_count(signed(path(VERTEX_LIMIT))) == 1 - VERTEX_LIMIT % 2
    # the size is refused before the missing signing
    with pytest.raises(SizeLimit):
        graph_count(path(VERTEX_LIMIT + 1))
    with pytest.raises(SizeLimit):
        matching_generating_function(path(VERTEX_LIMIT + 1), (1,) * VERTEX_LIMIT)
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
    g, weights = weighted_bipartite(n, m, mask, picks)
    reduced, kept, mult = reduce_forced(g, weights)
    assert mult * permanent_oracle(reduced, kept) == permanent_oracle(g, weights)


@given(case=plane_graphs(weights=[Fraction(1), Fraction(2), Fraction(1, 2)]))
@settings(max_examples=200, deadline=None)
def test_reduce_forced_preserves_mgf_on_plane_graphs(case):
    g, weights = case
    reduced, kept, mult = reduce_forced(g, weights)
    assert mult * matching_generating_function(signed(reduced), kept) == (
        matching_generating_function(g, weights)
    )


def test_reduce_forced_zero_sentinel():
    # isolated vertex: no perfect matching anywhere
    g = MatchGraph(path(3).vertices, ((0, 1),))
    reduced, _, mult = reduce_forced(g)
    assert (reduced.vertices, mult) == ((), 0)


def test_reduce_forced_strips_pendant_chain():
    # a path on four vertices is matched entirely by the forced cascade
    g = path(4)
    weights = (Fraction(2), Fraction(1), Fraction(3))
    reduced, _, mult = reduce_forced(g, weights)
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
    assert graph_count(signed(blocked)) == 0
    assert perfect_matching(blocked) is None
    assert perfect_matching(MatchGraph((), ())) == []


def test_perfect_matching_augments_past_the_greedy_start():
    # greedy gives black 0 the white 2, leaving black 1 nothing; the
    # augmenting path moves black 0 over to white 3
    g = MatchGraph(
        ((True, 0, 0), (True, 2, 0), (False, 0, 1), (False, 2, 1)),
        ((0, 2), (0, 3), (1, 2)),
    )
    assert perfect_matching(g) == [(0, 3), (1, 2)]


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
        region = build_region(spec.side, spec.distances)
        counts = kuo_counts(region, pick_corners(region))
        del counts["full"]
        lines.append(json.dumps(counts, sort_keys=True))
    assert sum(len(json.loads(line)) for line in lines) == 635
    digest = hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()
    assert digest == (
        "26d74b30590bc33a1a1d57ca6e9248039fe0d7c2828014b46f5baa19760be2d7"
    )


def _aztec_region(n):
    return build_region(n, (2 * n,))


def _aztec_outer(g):
    # a square cell lies on the outer face unless all eight cells around
    # it (positions in sixths, so 6 apart) are in the region
    pos = {(x, y) for _, x, y in g.vertices}
    return [
        i
        for i, (_, x, y) in enumerate(g.vertices)
        if any(
            (x + dx, y + dy) not in pos for dx in (-6, 0, 6) for dy in (-6, 0, 6)
        )
    ]


def test_deletion_counts_are_fresh_counts():
    # minors of one signed matrix count every G - S on the outer face as a
    # count of G - S signed afresh
    for spec in valid_specs(10):
        region = build_region(spec.side, spec.distances)
        g = dual_graph(region)
        q = pick_corners(region)
        x, y, z, t = q.west, q.south, q.east, q.north
        sets = ((x, y, z, t), (x, y), (z, t), (t, x), (y, z))
        assert deletion_counts(region, sets) == [
            graph_count(signed(without(g, drop)[0])) for drop in sets
        ], spec
    for n in range(1, 7):
        region = _aztec_region(n)
        g = dual_graph(region)
        outer = set(_aztec_outer(g))
        assert len(outer) == 8 * n - 4
        sets = [(v,) for v in sorted(outer)] + [
            edge for edge in g.edges if set(edge) <= outer
        ]
        counts = deletion_counts(region, sets)
        assert counts == [
            graph_count(signed(without(g, drop)[0])) for drop in sets
        ]
        assert any(counts)


def test_deletion_signs_unbalanced_components():
    # two ladders of three squares, each with a pendant vertex on its
    # outer face: one component has a black too many, the other a white;
    # G has no matching, but without the two pendants each ladder has 5
    def ladder(dx, extra_black):
        verts = [
            ((i + j) % 2 == 0, dx + 6 * i, 6 * j) for i in range(4) for j in range(2)
        ]
        edges = [(2 * i, 2 * i + 1) for i in range(4)]
        edges += [(2 * i + j, 2 * i + j + 2) for i in range(3) for j in range(2)]
        # the pendant hangs off the first vertex of the other colour
        anchor = next(k for k, v in enumerate(verts) if v[0] != extra_black)
        verts.append((extra_black, dx - 6, verts[anchor][2]))
        edges.append((anchor, len(verts) - 1))
        return verts, edges

    va, ea = ladder(0, True)
    vb, eb = ladder(100, False)
    shift = len(va)
    g = signed(
        MatchGraph(
            tuple(va + vb), tuple(ea + [(u + shift, v + shift) for u, v in eb])
        )
    )
    pendants = (shift - 1, len(g.vertices) - 1)
    assert graph_count(g) == 0
    assert graph_deletion_counts(g, ((), pendants)) == [0, 25]
    assert graph_count(signed(without(g, pendants)[0])) == 25


def test_deletion_off_outer_face_raises():
    region = _aztec_region(3)
    inner = sorted(set(range(len(region.cells))) - set(_aztec_outer(dual_graph(region))))
    assert len(inner) == 4
    for v in inner:
        with pytest.raises(OuterFaceError, match=f"vertex {v} is not on the outer face"):
            deletion_counts(region, ((), (v,)))
    for v in (len(region.cells), -1):
        with pytest.raises(OuterFaceError, match="not on the outer face"):
            deletion_counts(region, ((v,),))


def _area(pos, target, walk):
    # twice the shoelace area of a face walk; only the outer walk is <= 0
    u = target[walk[-1]]
    area = 0
    for d in walk:
        v = target[d]
        area += pos[u][0] * pos[v][1] - pos[v][0] * pos[u][1]
        u = v
    return area


def test_lattice_signing_is_kasteleyn_face_by_face():
    # the lattice parity rules of `lattice_negated` and `aztec_match_graph`,
    # checked on the reference signer's face walks: every bounded walk of
    # length 2k has k + 1 negated edges mod 2, and the cells that the
    # package's run-level test puts on the outer face, and the Aztec
    # graphs' outer flags, are the vertices of the outer walk, on every
    # region with total <= 12, on the Aztec duals (n; 2n) and on the Aztec
    # graphs of order n, n <= 20
    regions = [build_region(s.side, s.distances) for s in valid_specs(12)]
    assert len(regions) == 2047
    regions += [_aztec_region(n) for n in range(1, 21)]
    graphs = []
    for region in regions:
        g = dual_graph(region)
        graphs.append((g, lattice_negated(region, g), _outer_cells(region)))
    for n in range(1, 21):
        g = aztec_graph(n)
        negated, outer = g.signing
        graphs.append((g, negated, [v for v, flag in enumerate(outer) if flag]))
    for g, negated, outer in graphs:
        faces, target, edge_of, _, _ = face_walks(g, adjacency(g))
        pos = [v[1:] for v in g.vertices]
        bounded = [walk for walk in faces if _area(pos, target, walk) > 0]
        # each graph is connected, so Euler leaves one outer walk
        assert len(bounded) == len(faces) - 1 == len(g.edges) - len(g.vertices) + 1
        for walk in bounded:
            odd = sum(negated[edge_of[d]] for d in walk)
            assert odd % 2 == (len(walk) // 2 + 1) % 2
        (walk,) = [walk for walk in faces if _area(pos, target, walk) <= 0]
        assert sorted({target[d] for d in walk}) == outer


def test_signing_flags_are_checked_and_dropped_by_without():
    g = lattice_signed(build_region(7, (4, 2, 5, 4)))
    negated, outer = g.signing
    assert len(negated) == len(g.edges) and len(outer) == len(g.vertices)
    for bad in ((negated[1:], outer), (negated, outer + b"\0"), (b"", b"")):
        with pytest.raises(ValueError, match="signing flags"):
            SignedGraph(g.vertices, g.edges, bad)
    with pytest.raises(ValueError, match="not a vertex position"):
        SignedGraph(g.vertices, ((0, len(g.vertices)),), (b"\0", outer))
    # deleting vertices can move others onto the outer face
    assert type(without(g, ())[0]) is MatchGraph
    assert type(without(g, [0, 1])[0]) is MatchGraph
    assert SignedGraph(g.vertices, g.edges).signing is None


@given(
    n=st.integers(1, 5),
    shape=st.sampled_from([(2, 2), (2, 4), (4, 2), (4, 4)]),
    picks=st.lists(st.sampled_from(WEIGHT_PICKS), min_size=16, max_size=16),
)
@settings(max_examples=200, deadline=None)
def test_aztec_signing_sums_like_the_reference(n, shape, picks):
    # the weighted sum under `aztec_match_graph`'s own signing equals the
    # sum under the reference signing, zero and negative weights included
    rows, cols = shape
    pattern = WeightPattern(
        tuple(tuple(picks[r * cols + c] for c in range(cols)) for r in range(rows))
    )
    g, weights = aztec_match_graph(AztecDiamond(n, pattern))
    assert matching_generating_function(g, weights) == matching_generating_function(
        signed(g), weights
    )


def test_counts_refuse_a_graph_without_signing():
    aztec, weights = aztec_match_graph(AztecDiamond(2, WeightPattern(((1, 2), (3, 4)))))
    dual = dual_graph(build_region(7, (4, 2, 5, 4)))
    bare = MatchGraph(dual.vertices, dual.edges)
    for count in (
        lambda: graph_count(bare),
        lambda: graph_deletion_counts(bare, ((),)),
        lambda: graph_count(SignedGraph(dual.vertices, dual.edges)),
        lambda: matching_generating_function(
            MatchGraph(aztec.vertices, aztec.edges), weights
        ),
    ):
        with pytest.raises(ValueError, match="no Kasteleyn signing"):
            count()


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
    aztec = aztec_graph(8)
    assert all(type(x) is int and type(y) is int for _, x, y in aztec.vertices)


def test_rational_positions_order_exactly():
    # the same drawing in lattice units, with Fraction coordinates, must
    # give the same Kasteleyn signs and the same count as the int sixths
    for side, distances in ((7, (4, 2, 5, 4)), (15, (4, 2, 5, 4, 3, 6, 2, 3))):
        region = build_region(side, distances)
        g = dual_graph(region)
        scaled = MatchGraph(
            tuple((b, Fraction(x, 6), Fraction(y, 6)) for b, x, y in g.vertices),
            g.edges,
        )
        assert {x.denominator for _, x, _ in scaled.vertices} == {2, 3}
        assert kasteleyn_signing(g) == kasteleyn_signing(scaled)
        assert graph_count(signed(scaled)) == count_matchings(region)


def _check_without(g, drop, weights=None):
    # survivors keep their order and coordinates, and the edges among
    # them, read as coordinate pairs, keep their weights
    h, kept = without(g, drop, weights)
    keep = [i for i in range(len(g.vertices)) if i not in set(drop)]
    assert h.vertices == tuple(g.vertices[i] for i in keep)
    assert (kept is None) == (weights is None)

    def weighed(graph, weights, alive):
        weights = weights or (1,) * len(graph.edges)
        return {
            (graph.vertices[u], graph.vertices[v]): w
            for (u, v), w in zip(graph.edges, weights, strict=True)
            if u in alive and v in alive
        }

    survived = weighed(h, kept, range(len(h.vertices)))
    assert len(survived) == len(h.edges)
    assert survived == weighed(g, weights, set(keep))


def test_without_renumbers_survivors():
    checked = 0
    for spec in valid_specs(8):
        region = build_region(spec.side, spec.distances)
        g = dual_graph(region)
        q = pick_corners(region)
        x, y, z, t = q.west, q.south, q.east, q.north
        for drop in ((x, y, z, t), (x, y), (z, t), (t, x), (y, z)):
            _check_without(g, drop)
            checked += 1
    assert checked == 5 * 127
    # a weighted Aztec graph whose 36 edge weights are all distinct
    pattern = WeightPattern(
        tuple(tuple(Fraction(6 * r + c + 1, 7) for c in range(6)) for r in range(6))
    )
    g, weights = aztec_match_graph(AztecDiamond(3, pattern))
    assert len(set(weights)) == len(g.edges) == 36
    q = graph_pick_corners(g)
    for drop in ((q.west, q.south), (q.north, q.east, 5), (), range(0, 24, 3)):
        _check_without(g, tuple(drop), weights)
