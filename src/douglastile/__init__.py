"""Exact domino-tiling counts for generalized Douglas regions.

Three independent engines count the perfect matchings of a region's dual
graph: a Kasteleyn determinant, Kuo graphical condensation, and weighted
Aztec-diamond shuffling.  All of them land on a power of
two predicted by a closed-form exponent read off the region's shape.

The names below are the public surface; everything else is imported from
its module (`douglastile.regions`, `.matching`, `.condensation`,
`.shuffle`, `.render`, `.cli`).
"""

__version__ = "0.1.0"

from .condensation import condensation_count, trace_recurrence, verify_kuo
from .matching import SizeLimit, count_matchings, dual_graph, perfect_matching
from .regions import (
    Region,
    RegionSpec,
    SpecInvalid,
    build_region,
    check_spec,
    find_region,
    formula_count,
    structural_stats,
)
from .render import ascii_region, svg_region
from .shuffle import code_trace, shuffle_count, shuffle_exponent

__all__ = [
    "__version__",
    "RegionSpec",
    "Region",
    "SpecInvalid",
    "SizeLimit",
    "check_spec",
    "find_region",
    "build_region",
    "structural_stats",
    "formula_count",
    "dual_graph",
    "count_matchings",
    "perfect_matching",
    "condensation_count",
    "trace_recurrence",
    "verify_kuo",
    "shuffle_count",
    "shuffle_exponent",
    "code_trace",
    "ascii_region",
    "svg_region",
]
