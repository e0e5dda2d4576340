"""Region construction, validity checking, and the line-count lemmas."""

import hashlib
import json
from collections import Counter
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import enumerate_valid_regions, valid_specs
from reference_cells import (
    check_cell_structure,
    reference_region,
    reference_stats,
    reference_svg,
    reference_vertices,
    shared_sides,
)
from douglastile.condensation import pick_corners
from douglastile.matching import count_matchings, dual_graph
from douglastile.regions import (
    REASON_CORNERS,
    REASON_CROSSING,
    REASON_PARITY,
    REASON_POSITIVE,
    Cell,
    CellKind,
    Color,
    InternalError,
    RegionSpec,
    SpecInvalid,
    _check_cell_structure,
    _level_runs,
    _pair_blocks,
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
from douglastile.render import svg_region

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
                derived = find_region(d).side
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


def _verdict_digests():
    # check_spec's spec or reason for side 0..T+1, and find_region's side or
    # reason, on every composition with total T <= 9
    spec_lines, side_lines = [], []
    for total in range(1, 10):
        for d in compositions(total):
            for side in range(total + 2):
                try:
                    got = check_spec(side, d).to_dict()
                except SpecInvalid as err:
                    got = err.reason
                spec_lines.append(json.dumps([side, d, got]))
            try:
                got = find_region(d).side
            except SpecInvalid as err:
                got = err.reason
            side_lines.append(json.dumps([d, got]))
    return [
        hashlib.sha256("\n".join(lines).encode()).hexdigest()
        for lines in (spec_lines, side_lines)
    ]


def test_verdicts_are_pinned():
    # every verdict, reason text and test order included, as the tier
    # walk gave it before the checks read the line symbols
    assert _verdict_digests() == [
        "8927f441512ffad6816eaac170df0d37d06fd950c59cdbd684416c4be00145d7",
        "fe9195bf2beea964728eb1e9b77fc9f43e7ddd02336f6da8851bb4331481fd98",
    ]


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
    assert find_region(d).side == side
    stats = structural_stats(region)
    assert stats.width == region.spec.width
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
        # the bottom line runs from the west corner to the east corner
        bottom = [c for c in region.cells if c.level == -spec.total]
        assert len(bottom) == spec.width
        # bottom line is all white, top line all white
        for cell in region.cells:
            if cell.level in (0, -spec.total):
                assert cell.color is Color.WHITE
        # drawn levels carry triangle pairs, others squares
        drawn = {-run for run in accumulate(spec.distances[:-1])}
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
        region = build_region(spec.side, spec.distances)
        other_region = build_region(other.side, other.distances)
        mine = structural_stats(region)
        theirs = structural_stats(other_region)
        assert theirs.width == spec.side
        assert other.side == mine.width
        assert len(other_region.cells) == len(region.cells)
        assert theirs.black_square_lines == mine.black_square_lines
        assert theirs.up_triangle_lines == mine.down_triangle_lines
        assert theirs.down_triangle_lines == mine.up_triangle_lines
        assert formula_exponent(theirs) == formula_exponent(mine)
        assert formula_count(other_region) == formula_count(region)


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
    listed = RegionSpec(1, [2])
    assert listed.distances == (2,)
    assert listed == RegionSpec(1, (2,))
    assert hash(listed) == hash(RegionSpec(1, (2,)))


def test_region_json_payload():
    region = build_region(2, (1, 2, 1))
    assert region._fields == ("spec", "cells", "symbols", "runs")
    assert region.spec == RegionSpec(2, (1, 2, 1))
    assert (region.spec, region.symbols, region.runs) == _level_runs(2, (1, 2, 1))
    assert hash(region) == hash(build_region(2, (1, 2, 1)))
    assert {c.level for c in region.cells if c.kind is CellKind.UP} == {-1, -3}
    assert {c.kind for c in region.cells} == set(CellKind)
    stats = structural_stats(region)
    assert stats.regular_cells == 7
    assert stats.width == 2
    assert len(region.cells) == 20


def test_build_region_matches_reference():
    # the per-level builder and the contour row scan give equal regions:
    # the same spec and the same cells in the same order
    aztec = [(n, (2 * n,)) for n in (32, 64)]
    staircases = [(1, (1,) * (k - 1) + (2,)) for k in (40, 80)]
    specs = [(s.side, s.distances) for s in valid_specs(12)]
    specs += aztec + staircases
    assert len(specs) == 2051
    for side, distances in specs:
        expected = reference_region(side, distances)
        assert build_region(side, distances) == expected


def test_run_readings_match_the_cell_walks():
    # stats, dual-graph vertices and SVG read off the level runs equal the
    # same read cell by cell
    specs = [(s.side, s.distances) for s in valid_specs(12)]
    specs += [(32, (64,)), (1, (1,) * 79 + (2,))]
    specs += [(24, (3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5))]
    assert len(specs) == 2050
    for side, distances in specs:
        region = build_region(side, distances)
        assert structural_stats(region) == reference_stats(region)
        assert dual_graph(region).vertices == reference_vertices(region)
        assert svg_region(region) == reference_svg(region)


def _square(color, x, y):
    return Cell(CellKind.SQUARE, color, y - x, (x, y))


W, B = Color.WHITE, Color.BLACK


def test_shared_sides_pairs():
    # the halves of a cut square share their diagonal, and its upper half
    # meets the square to its west, its lower half the square below
    up = Cell(CellKind.UP, B, -1, (1, 0))
    down = Cell(CellKind.DOWN, W, -1, (1, 0))
    west, below = _square(W, 0, 0), _square(B, 1, -1)
    assert shared_sides((up, down)) == [(0, 1)]
    assert sorted(shared_sides((up, down, west, below))) == [
        (0, 1), (0, 2), (1, 3)
    ]
    # a 3 x 3 block of squares: twelve shared sides, four at the middle
    block = tuple(_square(W, x, y) for y in range(3) for x in range(3))
    pairs = shared_sides(block)
    assert len(pairs) == len(set(pairs)) == 12
    assert all(i < j for i, j in pairs)
    middle = block.index(_square(W, 1, 1))
    assert sum(middle in pair for pair in pairs) == 4


# cells with their level runs `(start, lo, hi, drawn)`, one run per level
# from the top; a run that starts inside the run above claims one of its
# cells a second time, as two squares or a square and an upper half
@pytest.mark.parametrize(
    "cells,runs,reason",
    [
        ((_square(B, 0, 0),), [(0, 0, 1, False)], "top line not white"),
        (
            (_square(W, 0, 0), _square(W, 1, 0)),
            [(0, 0, 1, False), (1, 1, 2, False)],
            "adjacent cells share a colour",
        ),
        (
            (_square(W, 0, 0), _square(B, 2, 0)),
            [(0, 0, 1, False), (1, 1, 1, False), (1, 2, 3, False)],
            "region is disconnected",
        ),
        (
            (_square(W, 0, 0), _square(B, 1, 0)),
            [(0, 0, 1, False), (0, 1, 2, False)],
            "edge shared three ways",
        ),
        (
            (
                _square(W, 0, 0),
                Cell(CellKind.UP, B, -1, (1, 0)),
                Cell(CellKind.DOWN, W, -1, (1, 0)),
            ),
            [(0, 0, 1, False), (0, 1, 2, True)],
            "edge shared three ways",
        ),
    ],
    ids=["top-line", "colour", "disconnected", "two-squares", "square-and-up"],
)
def test_cell_structure_faults(cells, runs, reason):
    with pytest.raises(InternalError) as err:
        _check_cell_structure(cells, runs)
    assert err.value.reason == reason
    assert str(err.value) == f"internal: {reason}"


def test_cell_structure_refuses_cells_unlike_their_runs():
    cells = (_square(W, 0, 0), _square(B, 1, 0))
    for runs in (
        [(0, 0, 1, False)],  # a cell past the last run
        [(0, 0, 1, False), (1, 1, 3, False)],  # a run past the last cell
        [(0, 0, 1, False), (2, 1, 2, False)],  # a cell between two runs
    ):
        with pytest.raises(InternalError) as err:
            _check_cell_structure(cells, runs)
        assert err.value.reason == "cells unlike their runs"
    region = build_region(2, (2, 1))
    for cells in (region.cells[:-1], region.cells + region.cells[:1]):
        for read in (
            dual_graph,
            structural_stats,
            svg_region,
            count_matchings,
            pick_corners,
        ):
            with pytest.raises(ValueError, match="cells unlike the level runs"):
                read(region._replace(cells=cells))


def test_a_level_without_cells_breaks_the_region():
    # the runs of a region meet every level; an empty run at either end,
    # where the cells may still be in one piece, is refused as well
    for cells, runs in (
        ((_square(W, 0, -1),), [(0, 0, 0, False), (0, 0, 1, False)]),
        ((_square(W, 0, 0),), [(0, 0, 1, False), (1, 1, 1, False)]),
    ):
        with pytest.raises(InternalError) as err:
            _check_cell_structure(cells, runs)
        assert err.value.reason == "region is disconnected"


def _verdict(check, *args):
    try:
        check(*args)
    except InternalError as err:
        return err.reason
    return None


def _without_level(cells, runs, m):
    # the cells and runs with level -m's run emptied in place
    start, lo, hi, drawn = runs[m]
    size = (hi - lo) * (1 + drawn)
    later = [(s - size, a, b, d) for s, a, b, d in runs[m + 1 :]]
    return (
        cells[:start] + cells[start + size :],
        [*runs[:m], (start, lo, lo, drawn), *later],
    )


def _recoloured(cells, k):
    cell = cells[k]
    color = W if cell.color is B else B
    return cells[:k] + (cell._replace(color=color),) + cells[k + 1 :]


def test_run_pairing_matches_the_anchor_lookup():
    # the pairs from run arithmetic are the anchor-dict pairs, and the
    # structure check from run bounds gives the dict-and-search verdict,
    # on the regions and on copies with a level emptied or a cell recoloured
    d24 = (3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5)
    specs = list(valid_specs(12))
    specs += [RegionSpec(n, (2 * n,)) for n in range(1, 21)]
    specs += [find_region(tuple(4 * d for d in d24))]
    specs += [RegionSpec(1, (1,) * 199 + (2,))]
    verdicts = Counter()
    for spec in specs:
        region = build_region(*spec)
        cells, runs = region.cells, _level_runs(*spec)[2]
        assert dual_graph(region).edges == tuple(sorted(shared_sides(cells)))
        inputs = [(cells, runs)]
        if len(runs) > 2:
            inputs.append(_without_level(cells, runs, len(runs) // 2))
        for k in (0, len(cells) // 2, len(cells) - 1):
            inputs.append((_recoloured(cells, k), runs))
        for cells, runs in inputs:
            verdict = _verdict(_check_cell_structure, cells, runs)
            assert verdict == _verdict(check_cell_structure, cells)
            verdicts[verdict] += 1
    assert len(specs) == 2069
    assert verdicts == {
        None: 2069,
        "region is disconnected": 2069,
        "top line not white": 2069,
        "adjacent cells share a colour": 2 * 2069,
    }


def _cells_of_runs(bounds, drawn):
    # the cells of the given level runs, each line one tier down from the
    # last and coloured by its tier's parity, so that sides pair unlike
    # colours; returns the cells and their runs
    cells, runs, tier = [], [], 0
    for j, ((lo, hi), cut) in enumerate(zip(bounds, drawn)):
        runs.append((len(cells), lo, hi, cut))
        kinds = (CellKind.UP, CellKind.DOWN) if cut else (CellKind.SQUARE,)
        for kind in kinds:
            color = B if tier % 2 else W
            cells += [Cell(kind, color, -j, (x, x - j)) for x in range(lo, hi)]
            tier += 1
    return tuple(cells), runs


@given(
    st.lists(
        st.tuples(st.integers(-2, 2), st.integers(1, 4), st.booleans()),
        min_size=1,
        max_size=6,
    )
)
@example([(0, 1, False), (0, 2, False)])  # reached across an east side only
@example([(0, 2, False), (0, 0, False), (0, 2, False)])  # an empty level
@settings(max_examples=300, deadline=None)
def test_run_arithmetic_on_any_runs(levels):
    # runs of any bounds, each level's shifted from the last's by -2 to 2:
    # the blocks give the anchor-dict pairs, and the structure check the
    # dict-and-search verdict
    starts = accumulate(shift for shift, _, _ in levels)
    bounds = [(lo, lo + n) for lo, (_, n, _) in zip(starts, levels)]
    drawn = [False] + [cut for _, _, cut in levels[1:]]
    cells, runs = _cells_of_runs(bounds, drawn)
    same, east = _pair_blocks(runs)
    pairs = [
        (i + k, j + k) for i, j, n, _ in same + east for k in range(n)
    ]
    assert sorted(pairs) == sorted(shared_sides(cells))
    verdict = _verdict(_check_cell_structure, cells, runs)
    assert verdict == _verdict(check_cell_structure, cells)
    assert verdict in (None, "region is disconnected")
