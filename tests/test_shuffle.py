"""Weighted Aztec diamonds, urban renewal, and the symbol reduction."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_count, valid_specs
from douglastile.regions import RegionSpec, build_region, structural_stats
from douglastile.shuffle import (
    BOTH,
    MINUS,
    PLUS,
    ZERO,
    AztecDiamond,
    NotBinaryBlock,
    SingularBlock,
    WeightPattern,
    aztec_match_graph,
    aztec_mgf,
    binary_reduction_step,
    cell_factor,
    characteristic_matrix,
    code_trace,
    encode,
    pattern_of_code,
    reduction_step,
    region_code,
    scale_row_part,
    shift_code,
    shuffle_count,
    shuffle_exponent,
    urban_renewal,
    weight_matrix,
)

RATIONALS = [
    Fraction(1),
    Fraction(2),
    Fraction(1, 2),
    Fraction(3),
    Fraction(2, 3),
    Fraction(1, 3),
    Fraction(5, 2),
]

# black-line symbol strings, frozen from the construction
CODES = [
    ((1, (2,)), "0"),
    ((2, (4,)), "00"),
    ((1, (1, 2)), "+0"),
    ((2, (2, 1)), "0-"),
    ((1, (1, 1, 2)), "++0"),
    ((3, (2, 1, 1)), "0--"),
    ((2, (1, 2, 1)), "+0-"),
    ((2, (3, 2)), "0+0"),
    ((3, (6,)), "000"),
    ((7, (4, 2, 5, 4)), "00-+00+00"),
]

SHIFT_GOLDENS = [
    ("+-", "0±"),
    ("0+-", "+0-"),
    ("+0", "0+"),
    ("0-", "0-"),
]

code_strategy = st.lists(
    st.sampled_from([ZERO, PLUS, MINUS, BOTH]), min_size=1, max_size=8
).map(tuple)


def random_pattern(rng, rows, cols):
    return WeightPattern(
        tuple(
            tuple(rng.choice(RATIONALS) for _ in range(cols))
            for _ in range(rows)
        )
    )


def test_pattern_validation():
    with pytest.raises(ValueError):
        WeightPattern(((Fraction(1),),))
    with pytest.raises(ValueError):
        WeightPattern(((Fraction(1), Fraction(1)),))  # one row
    with pytest.raises(ValueError):
        WeightPattern(((Fraction(1), Fraction(1)), (Fraction(1),)))
    pat = WeightPattern(((1, "1/2"), (2, 3)))
    assert pat.entries[0][1] == Fraction(1, 2)
    assert (pat.rows, pat.cols) == (2, 2)
    assert WeightPattern.ones(4, 2).entries[3] == (Fraction(1), Fraction(1))


def test_weight_matrix_tiles_periodically():
    pat = WeightPattern(((1, 2), (3, 4)))
    mat = weight_matrix(AztecDiamond(2, pat))
    assert mat == (
        (1, 2, 1, 2),
        (3, 4, 3, 4),
        (1, 2, 1, 2),
        (3, 4, 3, 4),
    )


def test_aztec_graph_shape():
    for n in range(1, 5):
        g = aztec_match_graph(AztecDiamond(n, WeightPattern.ones(2, 2)))
        assert len(g.vertices) == 2 * n * (n + 1)
        assert len(g.edges) == 4 * n * n
        blacks = sum(1 for v in g.vertices if v[0])
        assert blacks == n * (n + 1)


def test_unweighted_aztec_counts():
    for n in range(5):
        got = aztec_mgf(AztecDiamond(n, WeightPattern.ones(2, 2)))
        assert got == 2 ** (n * (n + 1) // 2)


def test_cell_factor():
    vals = tuple(Fraction(v) for v in (1, 2, 3, 4))
    assert cell_factor(vals) == 11


def test_urban_renewal_single_block():
    pat = WeightPattern(((1, 2), (3, 5)))
    new, deltas = urban_renewal(pat)
    assert deltas == (Fraction(11),)
    assert new.entries == (
        (Fraction(1, 11), Fraction(2, 11)),
        (Fraction(3, 11), Fraction(5, 11)),
    )


def test_urban_renewal_shifts_up_left():
    # two stacked blocks trade places after the cyclic shift
    pat = WeightPattern(((1, 1), (1, 1), (2, 2), (2, 2)))
    new, deltas = urban_renewal(pat)
    assert deltas == (Fraction(2), Fraction(8))
    assert new.entries == (
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(1, 4), Fraction(1, 4)),
        (Fraction(1, 4), Fraction(1, 4)),
        (Fraction(1, 2), Fraction(1, 2)),
    )


def test_singular_block_refused():
    pat = WeightPattern(((1, 1), (0, 0)))
    with pytest.raises(SingularBlock) as err:
        urban_renewal(pat)
    assert err.value.block == (0, 0)
    with pytest.raises(SingularBlock):
        reduction_step(AztecDiamond(1, pat))


def test_reduction_theorem_random_patterns():
    rng = random.Random(11)
    done = 0
    while done < 20:
        n = rng.choice([1, 2, 3])
        pat = random_pattern(rng, rng.choice([2, 4]), rng.choice([2, 4]))
        ad = AztecDiamond(n, pat)
        try:
            smaller, factor = reduction_step(ad)
        except ArithmeticError:
            continue
        assert aztec_mgf(ad) == factor * aztec_mgf(smaller)
        done += 1


def test_reduction_step_bounds():
    with pytest.raises(ValueError):
        reduction_step(AztecDiamond(0, WeightPattern.ones(2, 2)))
    with pytest.raises(ValueError):
        AztecDiamond(-1, WeightPattern.ones(2, 2))


def test_reduction_steps_multiply_to_mgf():
    rng = random.Random(5)
    ad = AztecDiamond(3, random_pattern(rng, 4, 2))
    orders = []
    product = Fraction(1)
    cur = ad
    while cur.order > 0:
        orders.append(cur.order)
        cur, factor = reduction_step(cur)
        product *= factor
    assert orders == [3, 2, 1]
    assert product == aztec_mgf(ad)


def test_scale_row_part_lemma():
    rng = random.Random(7)
    for _ in range(12):
        n = rng.choice([1, 2, 3])
        ad = AztecDiamond(n, random_pattern(rng, 4, 2))
        part = rng.randint(0, n)
        t = rng.choice([Fraction(2), Fraction(3, 2), Fraction(5)])
        assert aztec_mgf(scale_row_part(ad, part, t)) == t**n * aztec_mgf(ad)


def test_scale_row_part_bounds():
    ad = AztecDiamond(2, WeightPattern.ones(2, 2))
    with pytest.raises(ValueError):
        scale_row_part(ad, 3, Fraction(2))
    with pytest.raises(ValueError):
        scale_row_part(ad, -1, Fraction(2))


@pytest.mark.parametrize("raw,code", CODES, ids=[c for _, c in CODES])
def test_region_codes(raw, code):
    side, distances = raw
    region = build_region(side, distances)
    got = region_code(region.spec)
    assert "".join(got) == code
    assert len(got) == structural_stats(region).black_lines


def test_characteristic_matrix_encodes_back():
    for spec in valid_specs(8):
        pat = characteristic_matrix(spec)
        region = build_region(spec.side, spec.distances)
        assert encode(pat) == region_code(spec)
        assert pat.cols == 2
        assert pat.rows == 2 * structural_stats(region).black_lines


def test_pattern_of_code_rejects_bad_input():
    with pytest.raises(ValueError):
        pattern_of_code(())
    with pytest.raises(NotBinaryBlock):
        pattern_of_code(("0", "x"))
    with pytest.raises(NotBinaryBlock):
        encode(WeightPattern.ones(2, 4))
    with pytest.raises(NotBinaryBlock):
        encode(WeightPattern(((2, 1), (1, 1))))


@pytest.mark.parametrize("src,want", SHIFT_GOLDENS, ids=[s for s, _ in SHIFT_GOLDENS])
def test_shift_goldens(src, want):
    assert "".join(shift_code(tuple(src))) == want


@given(code_strategy)
def test_shift_preserves_minus_positions_and_plus_count(code):
    shifted = shift_code(code)
    assert len(shifted) == len(code)
    minus = lambda c: {i for i, s in enumerate(c) if s in (MINUS, BOTH)}
    plus_count = lambda c: sum(1 for s in c if s in (PLUS, BOTH))
    assert minus(shifted) == minus(code)
    assert plus_count(shifted) == plus_count(code)


def test_binary_reduction_step_contract():
    # one renewal round halves the diamond order and spends a factor of
    # two per plain-square line
    for spec in valid_specs(7):
        pat = characteristic_matrix(spec)
        m = pat.rows // 2
        new_pat, zeros = binary_reduction_step(pat)
        lhs = aztec_mgf(AztecDiamond(m, pat))
        rhs = 2**zeros * aztec_mgf(AztecDiamond(m - 1, new_pat))
        assert lhs == rhs


def test_characteristic_diamond_equals_region_count():
    for spec in valid_specs(7):
        pat = characteristic_matrix(spec)
        diamond = aztec_mgf(AztecDiamond(pat.rows // 2, pat))
        assert diamond == brute_count(spec)


def test_code_trace_accounts_for_the_exponent():
    spec = RegionSpec(7, (4, 2, 5, 4))
    trace = code_trace(spec)
    assert trace[0]["code"] == "00-+00+00"
    assert [len(node["code"]) for node in trace] == list(range(9, 0, -1))
    assert sum(node["zeros"] for node in trace) == shuffle_exponent(spec)


def test_shuffle_exponent_matches_formula_sweep():
    for spec in valid_specs(10):
        stats = structural_stats(build_region(spec.side, spec.distances))
        want = stats.regular_cells - stats.width * (stats.width + 1) // 2
        assert shuffle_exponent(spec) == want


def test_shuffle_count_matches_brute_force_to_t8():
    for spec in valid_specs(8):
        assert shuffle_count(spec) == brute_count(spec)


# merging the first two layers has a fixed exponent cost set by the
# parity of the first distance
TRANSFORMS = [
    ((7, (4, 2, 5, 4)), (6, (5, 5, 4)), -2),
    ((3, (3, 4)), (4, (8,)), 2),
    ((3, (1, 2, 3)), (4, (4, 3)), 1),
    ((2, (1, 1, 2, 1)), (3, (3, 2, 1)), 1),
]


@pytest.mark.parametrize("raw,merged,delta", TRANSFORMS)
def test_layer_merge_exponent_shift(raw, merged, delta):
    spec = RegionSpec(*raw)
    companion = RegionSpec(*merged)
    d = spec.distances
    if d[0] % 2 == 0:
        assert companion.side == spec.side - 1
        assert delta == -(d[0] // 2)
    else:
        assert companion.side == spec.side + 1
        assert delta == (d[0] + 1) // 2
    assert companion.distances == (d[0] + d[1] + (1 if delta > 0 else -1),) + d[2:]
    assert shuffle_exponent(companion) == shuffle_exponent(spec) + delta
