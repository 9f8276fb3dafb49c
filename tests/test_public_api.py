"""The package's public names. A change to the public surface shows up in
a diff of PUBLIC_NAMES."""

import lamconvex

PUBLIC_NAMES = [
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


def test_all_is_pinned():
    assert sorted(lamconvex.__all__) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == len(set(PUBLIC_NAMES)) == 40


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from lamconvex import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert namespace[name] is getattr(lamconvex, name)
