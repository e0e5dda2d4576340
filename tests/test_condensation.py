"""Kuo's four-point identity, the case dispatch, and the condensation
counting engine."""

import pytest

from conftest import brute_count, valid_specs
from douglastile import condensation, regions
from douglastile.condensation import (
    BASE_TABLE,
    BaseCase,
    CornerQuad,
    CornersNotFound,
    DivisionInexact,
    canonical_spec,
    case_recurrence,
    condensation_count,
    kuo_counts,
    pick_corners,
    stats_deltas,
    trace_recurrence,
    verify_kuo,
)
from douglastile.matching import (
    MatchGraph,
    canonical_embedding,
    dual_graph,
    reduce_forced,
)
from douglastile.regions import (
    RegionSpec,
    SpecInvalid,
    build_region,
    check_spec,
    flipped,
    formula_count,
)
from douglastile.shuffle import characteristic_matrix, code_trace, shuffle_exponent

# dispatch fixtures: spec -> (case, normalized, flipped, sub-specs, multiplier)
# sub-spec counts were confirmed against brute force when frozen
DISPATCH = [
    ((3, (6,)), "I.1", (3, (6,)), False, ((2, (4,)), (2, (4,)), (1, (2,))), 2),
    ((4, (8,)), "I.1", (4, (8,)), False, ((3, (6,)), (3, (6,)), (2, (4,))), 2),
    (
        (3, (3, 4)),
        "I.1",
        (3, (3, 4)),
        False,
        ((2, (1, 4)), (2, (3, 2)), (1, (1, 2))),
        2,
    ),
    (
        (7, (4, 2, 5, 4)),
        "I.1",
        (7, (4, 2, 5, 4)),
        False,
        ((6, (2, 2, 5, 4)), (6, (4, 2, 5, 2)), (5, (2, 2, 5, 2))),
        2,
    ),
    (
        (4, (2, 5)),
        "I.2",
        (4, (2, 5)),
        False,
        ((2, (4,)), (3, (2, 3)), (1, (2,))),
        2,
    ),
    (
        (3, (5, 2)),
        "I.2",
        (4, (2, 5)),
        True,
        ((2, (4,)), (3, (2, 3)), (1, (2,))),
        2,
    ),
    (
        (3, (1, 2, 3)),
        "I.3",
        (3, (1, 2, 3)),
        False,
        ((3, (2, 3)), (2, (1, 2, 1)), (2, (2, 1))),
        2,
    ),
    (
        (3, (2, 2, 2)),
        "I.4",
        (3, (2, 2, 2)),
        False,
        ((1, (1, 2)), (2, (2, 1)), None),
        2,
    ),
    (
        (3, (1, 1, 2, 1, 1)),
        "I.5",
        (3, (1, 1, 2, 1, 1)),
        False,
        ((3, (1, 2, 1, 1)), (2, (1, 1, 2, 1)), (2, (1, 2, 1))),
        2,
    ),
    (
        (3, (1, 2, 2, 2)),
        "I.6",
        (3, (1, 2, 2, 2)),
        False,
        ((3, (2, 2, 2)), (2, (1, 2, 1)), (2, (2, 1))),
        2,
    ),
    ((1, (1, 2)), "II.1", (1, (1, 2)), False, ((1, (2,)),), 2),
    ((2, (2, 1)), "II.1", (1, (1, 2)), True, ((1, (2,)),), 2),
    (
        (2, (1, 1, 2, 1)),
        "II.2a",
        (2, (1, 1, 2, 1)),
        False,
        ((2, (1, 2, 1)), (1, (1, 1, 2)), (1, (1, 2))),
        2,
    ),
    (
        (2, (1, 4)),
        "II.2b(i)",
        (2, (1, 4)),
        False,
        ((2, (4,)), (1, (1, 2)), (1, (2,))),
        2,
    ),
    (
        (2, (1, 3, 2)),
        "II.2b(ii)",
        (2, (1, 3, 2)),
        False,
        ((2, (3, 2)), (1, (1, 2)), (1, (2,))),
        2,
    ),
    ((2, (3, 2)), "II.2b(iii)", (2, (3, 2)), False, ((1, (1, 2)),), 4),
    ((3, (2, 3)), "II.2b(iii)", (2, (3, 2)), True, ((1, (1, 2)),), 4),
]


def test_base_table_against_brute_force():
    assert len(BASE_TABLE) == 7
    for spec, count in BASE_TABLE.items():
        assert brute_count(spec) == count


def test_smallest_specs_raise_base_case():
    # the table entries the dispatch refuses to split further; the other
    # table specs still classify, the counting engine just never recurses
    # into them because the memo consults the table first
    for raw in [(1, (2,)), (2, (4,)), (2, (1, 2, 1))]:
        spec = RegionSpec(*raw)
        with pytest.raises(BaseCase) as err:
            case_recurrence(spec)
        assert err.value.spec == spec
        assert err.value.count == BASE_TABLE[spec]


@pytest.mark.parametrize(
    "raw,case_id,norm,flip,subs,multiplier",
    DISPATCH,
    ids=[f"{a}:{d}" for (a, d), *_ in DISPATCH],
)
def test_case_dispatch(raw, case_id, norm, flip, subs, multiplier):
    rec = case_recurrence(RegionSpec(*raw))
    assert rec.case_id == case_id
    assert (rec.normalized.side, rec.normalized.distances) == norm
    assert rec.was_flipped == flip
    got = tuple(
        None if g is None else (g.side, g.distances) for g in rec.subspecs
    )
    assert got == subs
    assert rec.multiplier == multiplier


@pytest.mark.parametrize(
    "raw,case_id,norm,flip,subs,multiplier",
    [row for row in DISPATCH if sum(row[0][1]) <= 9],
    ids=[f"{a}:{d}" for (a, d), *_ in DISPATCH if sum(d) <= 9],
)
def test_dispatch_identity_by_brute_force(
    raw, case_id, norm, flip, subs, multiplier
):
    counts = [brute_count(None if s is None else RegionSpec(*s)) for s in subs]
    full = brute_count(RegionSpec(*raw))
    if len(counts) == 1:
        assert full == multiplier * counts[0]
    else:
        assert full * counts[2] == 2 * counts[0] * counts[1]


def test_every_valid_spec_is_classified():
    produced = 0
    for spec in valid_specs(12):
        try:
            rec = case_recurrence(spec)
        except BaseCase:
            continue
        parent = rec.normalized
        for sub in rec.subspecs:
            if sub is None:
                continue
            assert sub.total < parent.total or len(sub.distances) < len(
                parent.distances
            )
            # sub-specs are themselves valid regions; the recurrence
            # dispatches them without checking, so this must hold
            assert check_spec(sub.side, sub.distances) == sub
            produced += 1
    assert produced == 6032


def test_recurrence_checks_only_the_root(monkeypatch):
    calls = []
    check = regions.check_spec

    def counted(side, distances):
        calls.append(side)
        return check(side, distances)

    monkeypatch.setattr(regions, "check_spec", counted)
    staircase = RegionSpec(1, (1,) * 199 + (2,))
    assert condensation_count(staircase) == 2**200
    assert len(calls) == 1
    assert len(trace_recurrence(staircase)) == 198
    assert len(calls) == 2
    with pytest.raises(SpecInvalid):
        trace_recurrence(RegionSpec(1, (3,)))


def test_case_recurrence_rejects_invalid_spec():
    with pytest.raises(SpecInvalid):
        case_recurrence(RegionSpec(1, (3,)))
    with pytest.raises(SpecInvalid):
        condensation_count(RegionSpec(2, (2,)))


def test_canonical_spec_pairs_flips():
    for spec in valid_specs(8):
        canon, was_flipped = canonical_spec(spec)
        other, _ = canonical_spec(flipped(spec))
        assert canon == other
        assert canon in (spec, flipped(spec))
        assert was_flipped == (canon != spec)


def test_condensation_matches_brute_force_to_t8():
    for spec in valid_specs(8):
        assert condensation_count(spec) == brute_count(spec)


def test_condensation_deep_spec():
    assert condensation_count(RegionSpec(7, (4, 2, 5, 4))) == 2**29


def test_condensation_memo_is_populated():
    memo = {}
    spec = RegionSpec(3, (1, 2, 3))
    count = condensation_count(spec, memo)
    assert count == 128
    canon, _ = canonical_spec(spec)
    assert memo[canon] == 128
    # repeated call resolves from the same table
    assert condensation_count(spec, memo) == 128


def test_pick_corners_on_duals():
    for spec in valid_specs(6):
        g = dual_graph(build_region(spec.side, spec.distances))
        quad = pick_corners(g)
        assert g.vertices[quad.west][0] and g.vertices[quad.east][0]
        assert not g.vertices[quad.south][0] and not g.vertices[quad.north][0]
        assert len({quad.west, quad.south, quad.east, quad.north}) == 4


def test_pick_corners_needs_both_classes():
    lonely = MatchGraph(((True, 0, 0),), ())
    with pytest.raises(CornersNotFound):
        pick_corners(lonely)


def test_kuo_identity_exact_on_duals():
    for spec in valid_specs(6):
        g = dual_graph(build_region(spec.side, spec.distances))
        quad = pick_corners(g)
        c = kuo_counts(g, quad)
        assert c["full"] == brute_count(spec)
        assert set(c) == {
            "full",
            "minus_all",
            "minus_west_south",
            "minus_east_north",
            "minus_north_west",
            "minus_south_east",
        }
        assert (
            c["full"] * c["minus_all"]
            == c["minus_west_south"] * c["minus_east_north"]
            + c["minus_north_west"] * c["minus_south_east"]
        )
        assert verify_kuo(g)
        assert verify_kuo(g, quad)


def test_kuo_off_outer_face_is_corners_not_found():
    # black cell 11 of the Aztec n = 3 dual is surrounded by cells, so
    # Kuo's identity does not apply to it and the restricted signing fails
    g = dual_graph(build_region(3, (6,)))
    quad = pick_corners(g)
    inner = CornerQuad(west=11, south=quad.south, east=quad.east, north=quad.north)
    assert g.vertices[11][0]
    with pytest.raises(CornersNotFound, match="not on the outer face"):
        kuo_counts(g, inner)
    with pytest.raises(CornersNotFound):
        verify_kuo(g, inner)


def test_corner_deletion_reproduces_first_subregion():
    # deleting the west and south corners and stripping forced edges
    # leaves exactly the dual of the first sub-spec, weight untouched
    checked = 0
    for spec in valid_specs(8):
        try:
            rec = case_recurrence(spec)
        except BaseCase:
            continue
        if rec.case_id != "I.1" or rec.was_flipped:
            continue
        g = dual_graph(build_region(spec.side, spec.distances))
        quad = pick_corners(g)
        reduced, mult = reduce_forced(g.without((quad.west, quad.south)))
        sub = rec.subspecs[0]
        sub_dual = dual_graph(build_region(sub.side, sub.distances))
        assert mult == 1
        assert canonical_embedding(reduced) == canonical_embedding(sub_dual)
        checked += 1
    assert checked >= 3


def test_stats_deltas_layer_reading_and_balance():
    checked = 0
    cases = set()
    for spec in valid_specs(10):
        try:
            rec = case_recurrence(spec)
        except BaseCase:
            continue
        if not rec.case_id.startswith("I."):
            continue
        deltas = stats_deltas(spec)
        assert deltas["balance_ok"]
        assert deltas["agreement"] == [True, True, True]
        cases.add(rec.case_id)
        checked += 1
    assert checked > 400
    assert cases == {"I.1", "I.2", "I.3", "I.4", "I.5", "I.6"}


def test_stats_deltas_memo_builds_each_region_once(monkeypatch):
    specs = []
    for spec in valid_specs(8):
        try:
            if case_recurrence(spec).case_id.startswith("I."):
                specs.append(spec)
        except BaseCase:
            pass
    fresh = [stats_deltas(spec) for spec in specs]
    built = []
    real_build = regions.build_region

    def counting_build(side, distances):
        built.append(RegionSpec(side, tuple(distances)))
        return real_build(side, distances)

    monkeypatch.setattr(regions, "build_region", counting_build)
    memo: dict = {}
    assert [stats_deltas(spec, memo) for spec in specs] == fresh
    assert len(built) == len(set(built)) == len(memo)


def test_stats_deltas_rejects_case_two():
    with pytest.raises(ValueError):
        stats_deltas(RegionSpec(1, (1, 1, 1, 2)))


def test_trace_recurrence_structure():
    # the walk records canonical forms, so the root is the flip companion
    spec = RegionSpec(4, (2, 5))
    trace = trace_recurrence(spec)
    assert trace[0]["spec"] == {"a": 3, "d": [5, 2]}
    assert trace[0]["case"] == "I.2"
    assert trace[0]["flipped"] is True
    assert trace[0]["count"] == condensation_count(spec)
    cases = {node["case"] for node in trace}
    assert "base" in cases
    for node in trace:
        if node["case"] == "base":
            assert (
                BASE_TABLE[
                    RegionSpec(node["spec"]["a"], tuple(node["spec"]["d"]))
                ]
                == node["count"]
            )
        else:
            assert "identity" in node
            assert len(node["sub_counts"]) == len(node["subs"])


def test_condensation_agrees_with_formula_on_deeper_specs():
    for raw in [(5, (10,)), (4, (3, 3, 4)), (5, (1, 2, 2, 2, 2, 2))]:
        spec = RegionSpec(raw[0], raw[1])
        region = build_region(spec.side, spec.distances)
        assert condensation_count(spec) == formula_count(region)


def test_count_and_trace_both_check_exactness(monkeypatch):
    # a wrong base count makes (3; 6) = 2 * 8 * 8 / 3 inexact
    monkeypatch.setitem(BASE_TABLE, RegionSpec(1, (2,)), 3)
    spec = RegionSpec(3, (6,))
    with pytest.raises(DivisionInexact):
        condensation_count(spec)
    with pytest.raises(DivisionInexact):
        trace_recurrence(spec)


def test_trace_dispatches_each_distinct_spec_once(monkeypatch):
    calls = []
    dispatch = condensation._dispatch

    def counted(spec):
        calls.append(spec)
        return dispatch(spec)

    monkeypatch.setattr(condensation, "_dispatch", counted)
    trace = trace_recurrence(RegionSpec(7, (4, 2, 5, 4)))
    non_base = [node for node in trace if node["case"] != "base"]
    assert len(non_base) == 14
    assert len(calls) == len(non_base)


def test_spec_engines_build_no_cells(monkeypatch):
    # condense, shuffle and trace decide validity from the distances alone
    def no_cells(*args):
        raise AssertionError("cells built")

    monkeypatch.setattr(regions, "build_region", no_cells)
    monkeypatch.setattr(regions, "find_region", no_cells)
    spec = RegionSpec(24, (3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5))
    assert condensation_count(spec) == 2**271
    assert shuffle_exponent(spec) == 271
    assert len(trace_recurrence(spec)) == 212
    assert len(code_trace(spec)) == 27
    characteristic_matrix(spec)


def test_condense_deep_staircase_needs_no_recursion():
    # the staircase recurrence goes one level deeper per layer
    spec = RegionSpec(1, (1,) * 1199 + (2,))
    assert condensation_count(spec) == 2**1200
