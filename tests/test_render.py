"""ASCII and SVG renderings."""

import hashlib
from fractions import Fraction

from conftest import enumerate_valid_regions
from reference_cells import reference_svg
from douglastile.matching import dual_graph, perfect_matching
from douglastile.regions import build_region
from douglastile.render import _scaled, ascii_region, svg_region

ASCII_GOLDENS = [
    (
        (2, (4,)),
        "  wwbb\nwwbbwwbb\nbbwwbbww\n  bbww",
    ),
    (
        (1, (1, 2)),
        "wwbwbb\nbwbbww\nbbww",
    ),
    (
        (2, (1, 2, 1)),
        "  wwbwbb\nwwbwbbwb\nbwbbwbww\nbbwbww",
    ),
]


def test_ascii_goldens():
    for (side, distances), want in ASCII_GOLDENS:
        assert ascii_region(build_region(side, distances)) == want


def test_ascii_digests():
    # the pictures of D24 and of the Aztec diamond of order 32, pinned by
    # the digests that the per-row bounds scan gave before the bounds were
    # taken once
    digests = {
        (24, (3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5)): (
            "15d329f54bf815a231d43f8a6ca4810f7183b23d891505f4a0db3bf18f262f7c"
        ),
        (32, (64,)): (
            "64589f2e1cdffc30f4632cbde09096d828b805a11833abdf052f6ede81925554"
        ),
    }
    for spec, want in digests.items():
        text = ascii_region(build_region(*spec))
        assert hashlib.sha256(text.encode()).hexdigest() == want, spec


def test_ascii_row_count():
    # one text row per lattice row of anchors
    region = build_region(7, (4, 2, 5, 4))
    rows = {y for _, y in (c.anchor for c in region.cells)}
    assert len(ascii_region(region).splitlines()) == len(rows)


def test_svg_structure():
    region = build_region(1, (2,))
    svg = svg_region(region)
    assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
    assert svg.endswith("</svg>")
    assert 'viewBox="-36 -12 72 72"' in svg
    assert svg.count("<polygon") == len(region.cells)
    assert "<line" not in svg
    # deterministic output
    assert svg == svg_region(region)


def test_svg_matching_overlay():
    region = build_region(2, (1, 2, 1))
    matching = perfect_matching(dual_graph(region))
    svg = svg_region(region, matching)
    assert svg.count("<polygon") == len(region.cells)
    assert svg.count("<line") == len(region.cells) // 2


def test_svg_matching_overlay_golden():
    # every valid region with total <= 10 and the Aztec diamond of order
    # 30, each SVG followed by a newline; the digest was taken with the
    # recursive minimum-degree backtracking finder the overlays used before
    regions = list(enumerate_valid_regions(10)) + [build_region(30, (60,))]
    digest = hashlib.sha256()
    for region in regions:
        svg = svg_region(region, perfect_matching(dual_graph(region)))
        digest.update(svg.encode() + b"\n")
    assert len(regions) == 512
    assert digest.hexdigest() == (
        "1581a2dd5e451661738d4b1d909dfd954189402aded94878fffd89a302331666"
    )


def test_svg_overlay_with_an_odd_unit():
    # an odd unit puts most centroids between whole screen units, so the
    # overlay takes the float branch; it prints what exact sixths give
    for spec in ((2, (1, 2, 1)), (7, (4, 2, 5, 4))):
        region = build_region(*spec)
        matching = perfect_matching(dual_graph(region))
        for unit in (5, 7, 24):
            svg = svg_region(region, matching, unit)
            assert svg == reference_svg(region, matching, unit)
        lines = svg_region(region, matching, 5).splitlines()
        assert any("." in ln for ln in lines if ln.startswith("<line"))
    for sixths in (1, -7, 10**17 + 1, -(3**40)):
        for unit in (5, 7, 24, 10**9 + 7):
            want = Fraction(sixths, 6) * unit
            got = _scaled(sixths, unit)
            if want.denominator == 1:
                assert got == str(want.numerator)
            else:
                assert got == str(float(want))


def test_svg_triangle_polygons():
    # a cut square renders as two three-point polygons
    region = build_region(1, (1, 2))
    svg = svg_region(region)
    triangles = [
        line
        for line in svg.splitlines()
        if line.startswith("<polygon") and line.count(",") == 3
    ]
    cut = sum(1 for c in region.cells if c.kind.value != "square")
    assert len(triangles) == cut
