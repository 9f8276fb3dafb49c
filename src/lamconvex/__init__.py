"""Lamination parameters of step-function layups.

Parameters from closed-form interval moments summed in floats (no
quadrature error, round-off only), a constructive builder realizing any
convex combination of two layups' parameters as a real step laminate,
and the interleaving-sequence machinery showing why parameter
convergence does not give pointwise convergence.
"""

from .convexity import (
    CombinationReport,
    convex_combine,
    matched_split,
    verify_combination,
)
from .errors import (
    InvariantViolation,
    LamConvexError,
    ParseError,
    SearchCapExceeded,
    UndefinedAtBreakpoint,
)
from .fileio import (
    laminate_from_dict,
    load_laminate,
    save_laminate,
)
from .interleaving import (
    ConvergenceRow,
    WitnessTable,
    congruence_solutions,
    convergence_table,
    find_n_in_region,
    interleave,
    oscillation_witness,
)
from .parameters import (
    LamParams,
    blend,
    lamination_parameters,
)
from .step import StepLaminate

__version__ = "0.1.0"

__all__ = [
    "CombinationReport",
    "ConvergenceRow",
    "InvariantViolation",
    "LamConvexError",
    "LamParams",
    "ParseError",
    "SearchCapExceeded",
    "StepLaminate",
    "UndefinedAtBreakpoint",
    "WitnessTable",
    "blend",
    "congruence_solutions",
    "convergence_table",
    "convex_combine",
    "find_n_in_region",
    "interleave",
    "laminate_from_dict",
    "lamination_parameters",
    "load_laminate",
    "matched_split",
    "oscillation_witness",
    "save_laminate",
    "verify_combination",
]
