"""Exact domino-tiling counts for generalized Douglas regions.

Three independent engines count the perfect matchings of a region's dual
graph: a Kasteleyn determinant, Kuo graphical condensation, and weighted
Aztec-diamond shuffling.  All of them land on a power of
two predicted by a closed-form exponent read off the region's shape.
"""

__version__ = "0.1.0"

from .condensation import (
    BASE_TABLE,
    BaseCase,
    CaseRecurrence,
    CaseUnreachable,
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
from .matching import (
    Edge,
    MatchGraph,
    SizeLimit,
    Vertex,
    canonical_embedding,
    count_matchings,
    dual_graph,
    graph_from_json,
    graph_to_json,
    greedy_matching,
    matching_generating_function,
    permanent_oracle,
    reduce_forced,
)
from .regions import (
    Cell,
    CellKind,
    Color,
    Corners,
    NegativeExponent,
    Region,
    RegionSpec,
    RegionStats,
    SpecInvalid,
    build_region,
    check_spec,
    compositions,
    enumerate_valid_regions,
    find_region,
    flipped,
    formula_count,
    formula_exponent,
    spec_from_json,
    spec_to_json,
    structural_stats,
)
from .render import ascii_region, svg_region
from .shuffle import (
    AztecDiamond,
    FormulaProcedureMismatch,
    NotBinaryBlock,
    SingularBlock,
    WeightPattern,
    aztec_match_graph,
    aztec_mgf,
    binary_reduction_step,
    characteristic_matrix,
    code_trace,
    encode,
    pattern_from_json,
    pattern_of_code,
    pattern_to_json,
    reduction_step,
    reduction_trace,
    region_code,
    scale_row_part,
    shift_code,
    shuffle_count,
    shuffle_exponent,
    urban_renewal,
    weight_matrix,
)

__all__ = [name for name in dir() if not name.startswith("_")]
