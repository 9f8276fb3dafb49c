"""Lamination parameters of step-function layups.

Exact parameter computation, a constructive builder realizing any convex
combination of two layups' parameters as a real step laminate, and the
interleaving-sequence machinery showing why parameter convergence does
not give pointwise convergence.
"""

from .convexity import (
    CombinationReport,
    IntervalSplit,
    convex_combine,
    matched_split,
    verify_combination,
)
from .errors import (
    AlphaOutOfRange,
    DegenerateInterval,
    InvariantViolation,
    JOutOfRange,
    LamConvexError,
    NotCoprime,
    ParseError,
    SearchCapExceeded,
    UndefinedAtBreakpoint,
)
from .fileio import (
    laminate_from_dict,
    laminate_to_dict,
    load_laminate,
    save_laminate,
)
from .interleaving import (
    ConvergenceRow,
    WitnessTable,
    bezout_solve,
    congruence_solutions,
    convergence_table,
    find_n_in_region,
    interleave,
    interleave_value,
    oscillation_witness,
)
from .parameters import (
    LamParams,
    blend,
    lamination_parameters,
    quadrature_parameters,
    trig_values,
    weighted_moments,
)
from .step import (
    ANGLE_MERGE_TOL,
    BREAKPOINT_MERGE_TOL,
    RefinedPair,
    StepLaminate,
    moments,
    normalize_breakpoints,
    refine,
)

__version__ = "0.1.0"

__all__ = [
    "ANGLE_MERGE_TOL",
    "AlphaOutOfRange",
    "BREAKPOINT_MERGE_TOL",
    "CombinationReport",
    "ConvergenceRow",
    "DegenerateInterval",
    "IntervalSplit",
    "InvariantViolation",
    "JOutOfRange",
    "LamConvexError",
    "LamParams",
    "NotCoprime",
    "ParseError",
    "RefinedPair",
    "SearchCapExceeded",
    "StepLaminate",
    "UndefinedAtBreakpoint",
    "WitnessTable",
    "bezout_solve",
    "blend",
    "congruence_solutions",
    "convergence_table",
    "convex_combine",
    "find_n_in_region",
    "interleave",
    "interleave_value",
    "laminate_from_dict",
    "laminate_to_dict",
    "lamination_parameters",
    "load_laminate",
    "matched_split",
    "moments",
    "normalize_breakpoints",
    "oscillation_witness",
    "quadrature_parameters",
    "refine",
    "save_laminate",
    "trig_values",
    "verify_combination",
    "weighted_moments",
]
