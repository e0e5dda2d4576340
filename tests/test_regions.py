"""Region construction, validity checking, and the line-count lemmas."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import enumerate_valid_regions, valid_specs
from douglastile.regions import (
    REASON_CORNERS,
    REASON_CROSSING,
    REASON_PARITY,
    REASON_POSITIVE,
    Cell,
    CellKind,
    Color,
    RegionSpec,
    SpecInvalid,
    build_region,
    check_spec,
    compositions,
    find_region,
    flipped,
    formula_count,
    formula_exponent,
    spec_from_json,
    structural_stats,
)

# every valid spec with total <= 4, with its matching count 2**exponent
SMALL_VALID = {
    (1, (2,)): 2,
    (2, (4,)): 8,
    (1, (1, 2)): 4,
    (2, (2, 1)): 4,
    (1, (1, 1, 2)): 8,
    (3, (2, 1, 1)): 8,
    (2, (1, 2, 1)): 16,
}

REJECTIONS = [
    (0, (2,), REASON_POSITIVE),
    (1, (), REASON_POSITIVE),
    (1, (0,), REASON_POSITIVE),
    (1, (2, -1), REASON_POSITIVE),
    (1, (2, 2), REASON_CROSSING),
    (1, (2, 1, 1), REASON_CROSSING),
    (1, (1,), REASON_CORNERS),
    (2, (2,), REASON_CORNERS),
    (1, (3,), REASON_PARITY),
    (2, (2, 2), REASON_PARITY),
]


@pytest.mark.parametrize("side,distances,reason", REJECTIONS)
def test_rejection_reasons(side, distances, reason):
    with pytest.raises(SpecInvalid) as err:
        build_region(side, distances)
    assert err.value.reason == reason


def test_small_valid_table():
    seen = {}
    for region in enumerate_valid_regions(4):
        spec = region.spec
        seen[(spec.side, spec.distances)] = formula_count(region)
    assert seen == SMALL_VALID


def test_valid_spec_counts_by_total():
    # 2**(T-2) valid specs at each total T >= 2, none at T = 1
    per_total = {}
    for spec in valid_specs(10):
        per_total[spec.total] = per_total.get(spec.total, 0) + 1
    assert per_total == {t: 2 ** (t - 2) for t in range(2, 11)}
    assert len(valid_specs(4)) == 7
    assert len(valid_specs(8)) == 127


def test_validity_matches_derived_side():
    # a spec is accepted exactly when the distances admit a region at all
    # and the side is the one forced by the staircase
    for total in range(1, 8):
        for d in compositions(total):
            try:
                derived = find_region(d).spec.side
            except SpecInvalid:
                derived = None
            for side in range(1, total + 1):
                try:
                    region = build_region(side, d)
                except SpecInvalid:
                    assert side != derived
                else:
                    assert side == derived
                    assert region.spec == RegionSpec(side, tuple(d))


def test_check_spec_agrees_with_build_region():
    # the arithmetic check and the cell builder reach one verdict on every
    # composition with total <= 12 and side 0..total+1; the tally is the one
    # the cell builder produced before it delegated to check_spec
    def verdict(check, side, d):
        try:
            check(side, d)
        except SpecInvalid as err:
            return err.reason
        return "ok"

    tally = Counter()
    for total in range(1, 13):
        for d in compositions(total):
            for side in range(total + 2):
                got = verdict(check_spec, side, d)
                assert verdict(build_region, side, d) == got
                tally[got] += 1
    assert tally == {
        "ok": 2047,
        REASON_POSITIVE: 4095,
        REASON_CORNERS: 40123,
        REASON_CROSSING: 4946,
        REASON_PARITY: 2036,
    }
    assert check_spec(7, [4, 2, 5, 4]) == RegionSpec(7, (4, 2, 5, 4))


def test_find_region_reports_parity_first():
    # hopeless parity beats the corner mismatch of any particular side
    with pytest.raises(SpecInvalid) as err:
        find_region((3,))
    assert err.value.reason == REASON_PARITY
    with pytest.raises(SpecInvalid) as err:
        find_region((1, 1))
    assert err.value.reason == REASON_PARITY
    with pytest.raises(SpecInvalid) as err:
        find_region(())
    assert err.value.reason == REASON_POSITIVE


@given(
    side=st.integers(min_value=1, max_value=8),
    distances=st.lists(
        st.integers(min_value=1, max_value=6), min_size=1, max_size=4
    ),
)
@settings(max_examples=200, deadline=None)
def test_build_accepts_or_rejects_cleanly(side, distances):
    d = tuple(distances)
    try:
        region = build_region(side, d)
    except SpecInvalid as err:
        assert err.reason in (
            REASON_POSITIVE,
            REASON_CROSSING,
            REASON_CORNERS,
            REASON_PARITY,
        )
        return
    # accepted: the derived side agrees and the stats are consistent
    assert find_region(d).spec.side == side
    stats = structural_stats(region)
    assert stats.total_size == len(region.cells)
    assert formula_exponent(stats) >= 0


def test_line_count_lemmas_full_sweep():
    for spec in valid_specs(12):
        region = build_region(spec.side, spec.distances)
        stats = structural_stats(region)
        k = len(spec.distances)
        p = stats.black_square_lines
        m = stats.up_triangle_lines
        n = stats.down_triangle_lines
        q = stats.black_lines
        assert p >= 1
        assert q == p + m + n
        assert spec.side == p + n
        assert stats.width == p + m
        assert m + n == k - 1
        assert 2 * q == spec.total + k - 1
        assert spec.side + stats.width == spec.total


def test_cell_structure_sweep():
    for spec in valid_specs(10):
        region = build_region(spec.side, spec.distances)
        blacks = sum(1 for c in region.cells if c.color is Color.BLACK)
        whites = sum(1 for c in region.cells if c.color is Color.WHITE)
        assert blacks == whites
        # east and west corners share a horizontal line
        assert region.corners.east[1] == region.corners.west[1]
        assert region.corners.north == (0, 0)
        assert region.corners.south == (0, -spec.total)
        # bottom line is all white, top line all white
        for cell in region.cells:
            if cell.level in (0, -spec.total):
                assert cell.color is Color.WHITE
        # drawn levels carry triangle pairs, others squares
        drawn = set(region.drawn_levels)
        for cell in region.cells:
            if cell.level in drawn:
                assert cell.kind in (CellKind.UP, CellKind.DOWN)
            else:
                assert cell.kind is CellKind.SQUARE


def test_cell_centers_distinct():
    region = build_region(7, (4, 2, 5, 4))
    centers = [c.center for c in region.cells]
    assert len(set(centers)) == len(centers)


def test_flip_swaps_side_with_width_and_keeps_count():
    # the half-turn companion is the same region read upside down: side
    # and width trade places, the two triangle-line counts trade places,
    # and the count exponent survives even though the raw cell tally moves
    for spec in valid_specs(10):
        other = flipped(spec)
        assert flipped(other) == spec
        assert other.total == spec.total
        mine = structural_stats(build_region(spec.side, spec.distances))
        theirs = structural_stats(build_region(other.side, other.distances))
        assert theirs.width == spec.side
        assert other.side == mine.width
        assert theirs.total_size == mine.total_size
        assert theirs.black_square_lines == mine.black_square_lines
        assert theirs.up_triangle_lines == mine.down_triangle_lines
        assert theirs.down_triangle_lines == mine.up_triangle_lines
        assert formula_exponent(theirs) == formula_exponent(mine)
        assert formula_count(build_region(other.side, other.distances)) == (
            formula_count(build_region(spec.side, spec.distances))
        )


@given(st.integers(min_value=1, max_value=10))
def test_compositions_enumeration(n):
    seen = list(compositions(n))
    assert len(seen) == 2 ** (n - 1)
    assert len(set(seen)) == len(seen)
    assert all(sum(c) == n and all(v >= 1 for v in c) for c in seen)


def test_compositions_of_zero():
    assert list(compositions(0)) == [()]


def test_spec_json_round_trip():
    spec = spec_from_json('{"a": 7, "d": [4, 2, 5, 4]}')
    assert spec == RegionSpec(7, (4, 2, 5, 4))
    assert spec.to_dict() == {"a": 7, "d": [4, 2, 5, 4]}


def test_region_json_payload():
    region = build_region(2, (1, 2, 1))
    assert region.spec == RegionSpec(2, (1, 2, 1))
    assert region.drawn_levels == (-1, -3)
    assert {c.kind for c in region.cells} == set(CellKind)
    stats = structural_stats(region)
    assert stats.regular_cells == 7
    assert stats.width == 2
    assert stats.total_size == len(region.cells) == 20


def test_cell_boundary_keys():
    square = Cell(CellKind.SQUARE, Color.WHITE, 0, (0, 0))
    up = Cell(CellKind.UP, Color.WHITE, -1, (1, 0))
    down = Cell(CellKind.DOWN, Color.BLACK, -1, (1, 0))
    assert len(square.boundary()) == 4
    # the cut halves share exactly their diagonal key
    shared = set(up.boundary()) & set(down.boundary())
    assert shared == {("d", 1, 0)}
