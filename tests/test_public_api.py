"""The package's public names. A change to the public surface shows up in
a diff of PUBLIC_NAMES."""

import ast
from pathlib import Path

import lamconvex
from lamconvex import errors

PUBLIC_NAMES = [
    "CombinationReport",
    "ConvergenceRow",
    "InvariantViolation",
    "LamConvexError",
    "LamParams",
    "ParseError",
    "RefinedPair",
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
    "normalize_breakpoints",
    "oscillation_witness",
    "refine",
    "save_laminate",
    "verify_combination",
]


def test_all_is_pinned():
    assert sorted(lamconvex.__all__) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == len(set(PUBLIC_NAMES)) == 26


def test_errors_defines_five_classes():
    # a bad argument raises the built-in ValueError; these cover the rest
    classes = [name for name, value in vars(errors).items()
               if isinstance(value, type) and value.__module__ == errors.__name__]
    assert sorted(classes) == ["InvariantViolation", "LamConvexError", "ParseError",
                               "SearchCapExceeded", "UndefinedAtBreakpoint"]
    for name in classes:
        assert issubclass(getattr(errors, name), errors.LamConvexError)
        assert getattr(lamconvex, name) is getattr(errors, name)


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from lamconvex import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert namespace[name] is getattr(lamconvex, name)


def test_tests_import_no_private_names():
    # the test oracles stay independent of the code they check: no test
    # file imports a private name of the package
    found = []
    for path in sorted(Path(__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lamconvex"):
                found += [f"{path.name}: {node.module}.{a.name}"
                          for a in node.names if a.name.startswith("_")]
    assert found == []
