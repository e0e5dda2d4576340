"""Kuo's four-point identity, the case dispatch, and the condensation
counting engine."""

import hashlib
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import brute_count, valid_specs
from reference_aztec import characteristic_matrix
from reference_cells import reference_stats
from reference_graphs import canonical_embedding, reduce_forced, without
from douglastile import condensation, regions
from douglastile.condensation import (
    BASE_TABLE,
    BaseCase,
    CornerQuad,
    CornersNotFound,
    DivisionInexact,
    NotCaseOne,
    canonical_spec,
    case_recurrence,
    condensation_count,
    kuo_counts,
    kuo_identity,
    pick_corners,
    stats_deltas,
    trace_recurrence,
)
from douglastile.matching import count_matchings, dual_graph
from douglastile.regions import (
    Color,
    Region,
    RegionSpec,
    SpecInvalid,
    build_region,
    check_spec,
    compositions,
    find_region,
    flipped,
    formula_count,
    structural_stats,
)
from douglastile.shuffle import code_trace, shuffle_count, shuffle_exponent

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


def _case_table_lines(max_total):
    # case_recurrence's whole record, or "base", for the spec of every
    # composition with total <= max_total that describes a region
    lines = []
    for total in range(1, max_total + 1):
        for d in compositions(total):
            try:
                spec = find_region(d)
            except SpecInvalid:
                continue
            try:
                rec = case_recurrence(spec)
            except BaseCase:
                lines.append(json.dumps([spec.to_dict(), "base"]))
                continue
            subs = [None if g is None else g.to_dict() for g in rec.subspecs]
            lines.append(
                json.dumps(
                    [
                        spec.to_dict(),
                        rec.case_id,
                        rec.normalized.to_dict(),
                        rec.was_flipped,
                        subs,
                        rec.multiplier,
                        rec.identity,
                    ]
                )
            )
    return lines


def test_case_table_is_pinned():
    # every case, sub-spec, multiplier and identity text, as the table
    # spelled out case by case gave them before the two cut rules
    lines = _case_table_lines(14)
    assert len(lines) == 8191
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "a598dd1ffaf16323983a0c3f64a595243b5d0fbb8a5d78532ce8977b8f30bb61"
    )


@st.composite
def _compositions(draw, max_total=40):
    # a total, then cut points between its units
    total = draw(st.integers(min_value=2, max_value=max_total))
    cuts = sorted(draw(st.sets(st.integers(min_value=1, max_value=total - 1))))
    ends = [0, *cuts, total]
    return tuple(b - a for a, b in zip(ends, ends[1:]))


@given(_compositions())
@settings(max_examples=200, deadline=None)
def test_engines_agree_on_random_specs(distances):
    try:
        spec = find_region(distances)
    except SpecInvalid:
        assume(False)
    region = build_region(*spec)
    assert structural_stats(region) == reference_stats(region)
    count = formula_count(region)
    assert condensation_count(spec) == count
    assert shuffle_count(spec) == count
    if len(region.cells) <= 300:
        assert count_matchings(region) == count
    # the side is unique: one off either way fails both checks alike
    for side in (spec.side - 1, spec.side + 1):
        with pytest.raises(SpecInvalid) as checked:
            check_spec(side, distances)
        with pytest.raises(SpecInvalid) as built:
            build_region(side, distances)
        assert checked.value.reason == built.value.reason


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
        region = build_region(spec.side, spec.distances)
        cells = region.cells
        quad = pick_corners(region)
        assert cells[quad.west].color is cells[quad.east].color is Color.BLACK
        assert cells[quad.south].color is cells[quad.north].color is Color.WHITE
        assert len({quad.west, quad.south, quad.east, quad.north}) == 4


def test_pick_corners_needs_both_classes():
    # a region of one black square, hand-built: no spec lays it out
    lonely = Region(RegionSpec(1, (1,)), ("0",), ((0, 0, 1, False),))
    with pytest.raises(CornersNotFound, match="a colour class is empty"):
        pick_corners(lonely)


def test_kuo_identity_exact_on_duals():
    for spec in valid_specs(6):
        region = build_region(spec.side, spec.distances)
        quad = pick_corners(region)
        c = kuo_counts(region, quad)
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
        assert kuo_identity(kuo_counts(region, pick_corners(region)))
        assert kuo_identity(c)


def test_kuo_off_outer_face_is_corners_not_found():
    # black cell 11 of the Aztec n = 3 region is surrounded by cells, so
    # Kuo's identity does not apply to it and the restricted signing fails
    region = build_region(3, (6,))
    quad = pick_corners(region)
    inner = CornerQuad(west=11, south=quad.south, east=quad.east, north=quad.north)
    assert region.cells[11].color is Color.BLACK
    with pytest.raises(CornersNotFound, match="vertex 11 is not on the outer face"):
        kuo_counts(region, inner)
    with pytest.raises(CornersNotFound):
        kuo_identity(kuo_counts(region, inner))


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
        region = build_region(spec.side, spec.distances)
        g = dual_graph(region)
        quad = pick_corners(region)
        reduced, _, mult = reduce_forced(without(g, (quad.west, quad.south))[0])
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


def test_stats_deltas_builds_no_cells(monkeypatch):
    # the stats of each region are read off its spec's level runs
    specs = []
    for spec in valid_specs(8):
        try:
            if case_recurrence(spec).case_id.startswith("I."):
                specs.append(spec)
        except BaseCase:
            pass
    built = []
    real_build = regions.build_region

    def counting_build(side, distances):
        built.append(RegionSpec(side, tuple(distances)))
        return real_build(side, distances)

    monkeypatch.setattr(regions, "build_region", counting_build)
    fresh = [stats_deltas(spec) for spec in specs]
    memo: dict = {}
    assert [stats_deltas(spec, memo) for spec in specs] == fresh
    assert built == []
    for spec, stats in memo.items():
        assert stats == regions.structural_stats(real_build(*spec))


def test_stats_deltas_rejects_case_two():
    with pytest.raises(NotCaseOne):
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
