"""The package's public names and the fields of its public records. A
change to the public surface shows up in a diff of PUBLIC_NAMES or
RECORD_FIELDS."""

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
    "SearchCapExceeded",
    "StepLaminate",
    "WitnessTable",
    "blend",
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

# each record holds what it computes; the caller's own arguments are not
# echoed back
RECORD_FIELDS = {
    "CombinationReport": ("expected", "actual", "residuals"),
    "ConvergenceRow": ("n", "params", "residuals"),
    "LamParams": ("xi_a", "xi_b", "xi_d"),
    "StepLaminate": ("breakpoints", "angles"),
    "WitnessTable": ("below", "above", "undefined_at", "angle1", "angle2"),
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def test_all_is_pinned():
    assert sorted(lamconvex.__all__) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == len(set(PUBLIC_NAMES)) == 21


def test_errors_defines_four_classes():
    # a bad argument raises the built-in ValueError; these cover the rest,
    # each a class and a message with no attributes of its own
    classes = [name for name, value in vars(errors).items()
               if isinstance(value, type) and value.__module__ == errors.__name__]
    assert sorted(classes) == ["InvariantViolation", "LamConvexError", "ParseError",
                               "SearchCapExceeded"]
    for name in classes:
        cls = getattr(errors, name)
        assert issubclass(cls, errors.LamConvexError)
        assert getattr(lamconvex, name) is cls
        assert cls.__init__ is Exception.__init__
        assert vars(cls("m")) == {}


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


def test_record_fields_are_pinned():
    assert {name: getattr(lamconvex, name).__slots__ for name in RECORD_FIELDS} == RECORD_FIELDS


def _scope_nodes(scope):
    """The nodes of a module or function outside the functions it defines."""
    for child in ast.iter_child_nodes(scope):
        yield child
        if not isinstance(child, FUNCTIONS):
            yield from _scope_nodes(child)


def _used_names(scope):
    """Every name read in the scope or the functions it defines,
    annotations included, quoted ones too."""
    for node in ast.walk(scope):
        if isinstance(node, ast.Name):
            yield node.id
        for note in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                yield from _used_names(ast.parse(note.value, mode="eval"))


def unused_imports(tree: ast.Module) -> list[str]:
    """The names bound by an import that its scope, the module or the
    function holding it, never reads."""
    found = []
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, FUNCTIONS))]:
        bound = [alias.asname or alias.name.split(".")[0]
                 for node in _scope_nodes(scope)
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 and getattr(node, "module", None) != "__future__"
                 for alias in node.names]
        used = set(_used_names(scope))
        found += [name for name in bound if name not in used]
    return found


def test_unused_import_check_reads_each_scope():
    source = ("import os\nimport os.path as osp\nfrom a import b, c as d, h\n"
              "def f(x: b) -> 'h':\n    from e import g\n    return d\n")
    assert unused_imports(ast.parse(source)) == ["os", "osp", "g"]


def test_modules_import_only_names_they_use():
    # __init__.py imports its names to re-export them
    package = Path(lamconvex.__file__).parent
    found = {path.name: unused_imports(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(package.glob("*.py")) if path.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}
