"""ASCII and SVG renderings."""

import hashlib

from conftest import enumerate_valid_regions
from douglastile.matching import dual_graph, perfect_matching
from douglastile.regions import build_region
from douglastile.render import ascii_region, svg_region

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
