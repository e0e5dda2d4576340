#!/usr/bin/env python3
"""Render showcase regions to SVG and print a symbol-reduction trace.

Writes one SVG per showcase spec into --out-dir, one of them with a
perfect matching overlaid, then walks the binary reduction of the
largest example so the power of two can be read off the printed rounds.
"""

import argparse
import pathlib

from douglastile.matching import dual_graph, perfect_matching
from douglastile.regions import RegionSpec, build_region
from douglastile.render import svg_region
from douglastile.shuffle import code_trace, shuffle_exponent

SHOWCASE = [
    ("aztec3", RegionSpec(3, (6,))),
    ("a-family5", RegionSpec(1, (1, 1, 1, 1, 2))),
    ("e-family4", RegionSpec(2, (3, 1, 1, 2))),
    ("deep", RegionSpec(7, (4, 2, 5, 4))),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="figures")
    parser.add_argument("--unit", type=int, default=24)
    args = parser.parse_args(argv)

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    for name, spec in SHOWCASE:
        region = build_region(spec.side, spec.distances)
        matching = None
        if name == "aztec3":
            matching = perfect_matching(dual_graph(region))
        path = out / f"{name}.svg"
        path.write_text(
            svg_region(region, matching=matching, unit=args.unit),
            encoding="utf-8",
        )
        print(f"wrote {path} ({len(region.cells)} cells)")

    _, spec = SHOWCASE[-1]
    print(f"\nreduction trace for a={spec.side} d={spec.distances}:")
    zeros = 0
    for record in code_trace(spec):
        zeros += record["zeros"]
        print(f"  round {record['step']:2d}  {record['code']}")
    exponent = shuffle_exponent(spec)
    assert zeros == exponent
    print(f"total zeros {zeros}, so the region has 2^{exponent} tilings")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
