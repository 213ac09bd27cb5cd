"""Equilibrium-measure curvature of finite connected graphs.

The curvature vector w of a connected graph on n vertices solves the distance
system ``D w = n * 1``. This package builds D exactly, classifies solvability
over the rationals (unique / affine family / none), canonicalizes
multi-solution cases by the max-min criterion, falls back to the exact
Moore-Penrose solution when no solution exists (so every curvature value is a
Fraction), and verifies the accompanying theorem suite (Bonnet-Myers with
rigidity, its reverse, Lichnerowicz, the minimax bracketing, generalized bounds
for arbitrary positive weights, and a spectral solvability criterion) on
built-in graph families and user-supplied graphs.
"""

__version__ = "0.1.0"

from .curvature import (
    CurvatureResult,
    CurvatureStatus,
    InvarianceReport,
    NullspaceSumReport,
    compute_curvature,
    curvature_of_family,
    nullspace_sum_check,
    total_curvature_invariance_check,
)
from .graphs import (
    FAMILY_NAMES,
    MAX_FAMILY_VERTICES,
    DisconnectedGraphError,
    DistanceMatrix,
    FamilySpec,
    FamilySpecError,
    Graph,
    GraphFormatError,
    apsp,
    cartesian_product,
    generate,
    is_connected,
    parse_edge_list,
    parse_family_spec,
)
from .linalg import (
    EigenDecomposition,
    NonSymmetricMatrixError,
    SolveOutcome,
    SolveStatus,
    lp_max_min,
    pseudo_apply,
    solve_exact,
    symmetric_eigen,
)
from .theorems import (
    InequalityCheck,
    Quantity,
    SpectralInfo,
    TheoremReport,
    check_bonnet_myers,
    check_lichnerowicz,
    check_minimax,
    check_product_curvature,
    check_reverse_bonnet_myers,
    check_theorem5,
    perron_alignment,
    spectral_criterion,
    spectral_gap,
)

__all__ = [
    "__version__",
    "Graph",
    "DistanceMatrix",
    "FamilySpec",
    "GraphFormatError",
    "FamilySpecError",
    "DisconnectedGraphError",
    "FAMILY_NAMES",
    "MAX_FAMILY_VERTICES",
    "parse_edge_list",
    "parse_family_spec",
    "generate",
    "cartesian_product",
    "is_connected",
    "apsp",
    "SolveStatus",
    "SolveOutcome",
    "EigenDecomposition",
    "NonSymmetricMatrixError",
    "solve_exact",
    "symmetric_eigen",
    "pseudo_apply",
    "lp_max_min",
    "CurvatureStatus",
    "CurvatureResult",
    "InvarianceReport",
    "NullspaceSumReport",
    "compute_curvature",
    "curvature_of_family",
    "total_curvature_invariance_check",
    "nullspace_sum_check",
    "SpectralInfo",
    "Quantity",
    "InequalityCheck",
    "TheoremReport",
    "spectral_gap",
    "check_bonnet_myers",
    "check_reverse_bonnet_myers",
    "check_lichnerowicz",
    "check_minimax",
    "check_theorem5",
    "spectral_criterion",
    "perron_alignment",
    "check_product_curvature",
]
