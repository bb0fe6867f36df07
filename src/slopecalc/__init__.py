"""Exact combinatorial calculator: Farey slopes, branched-surface weight
systems, small-Seifert slope analysis, and multicurves on the 3-punctured
sphere.  All arithmetic is arbitrary-precision integer or rational; nothing
here touches floating point.
"""

from .branched_surface import (
    BoundaryCurve,
    BranchCurve,
    BranchedSurface,
    SectorRecord,
    VerticalAnnulus,
    amputate,
    carried_euler,
    check_degree_consistency,
    check_weights,
    enumerate_weights,
    validate_surface,
)
from .farey import (
    INFINITY,
    FareyError,
    Slope,
    greatest_neighbor_below,
    intersection_number,
    is_edge,
    mediant,
    parse_slope,
    shortest_increasing_path,
    successor,
)
from .multicurve import (
    BoundaryData,
    MulticurveCoordinates,
    enumerate_multicurves,
)
from .seifert import (
    AnalysisReport,
    ConventionInfeasible,
    GcsFamily,
    InadmissibleK,
    KEvidence,
    LensSpaceDegeneration,
    NormalizationError,
    SeifertTriple,
    analyze,
    dual_invariants,
    euler_number,
    evidence,
    gcs_family,
    is_torus_bundle,
    limit_slope,
    normalize,
    parse_triple,
)

__version__ = "0.1.0"
