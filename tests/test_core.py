import ast
import dataclasses
import importlib
import inspect
import json
import math
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import proxgrad
from proxgrad.core import as_vector, make_problem
from proxgrad.prox_oracles import make_zero
from proxgrad.smooth_oracles import make_quartic


def test_as_vector_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        as_vector([1.0, 2.0, 3.0], 2)


def test_as_vector_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        as_vector([1.0, math.nan])
    with pytest.raises(ValueError, match="finite"):
        as_vector([math.inf, 0.0])


@pytest.mark.parametrize("x", [[{"a": 0.5}, 0.8], [2**2000, 0.8]], ids=["dict", "huge_int"])
def test_as_vector_non_float_coordinate_is_value_error(x):
    with pytest.raises(ValueError, match="not a float") as err:
        as_vector(x)
    assert "\n" not in str(err.value)


@pytest.mark.parametrize("x, fragment", [
    ([[1.0], [2.0]], r"expected a 1-D vector, got array of shape \(2, 1\)"),
    ([], "vectors must have dimension >= 1"),
], ids=["matrix", "empty"])
def test_as_vector_rejects_a_non_vector(x, fragment):
    with pytest.raises(ValueError, match=fragment):
        as_vector(x)


@pytest.mark.parametrize("dimension", [0, -1])
def test_problem_dimension_must_be_positive(dimension):
    with pytest.raises(ValueError, match="dimension must be a positive integer"):
        make_problem(make_quartic(), make_zero(), dimension)


def test_make_problem_is_the_dataclass():
    assert proxgrad.make_problem is proxgrad.CompositeProblem


PUBLIC_NAMES = [
    "CompositeProblem", "GammaBoundReport",
    "IterateRecord", "ProxOracle",
    "SmoothOracle", "SolveReport", "SolverConfig", "Trace", "TraceFormatError", "Violation",
    "as_vector", "brute_force_prox",
    "check_acceptance", "check_envelope", "check_gamma_step_product", "check_level_set",
    "check_vanishing_steps", "fd_gradient_check", "gamma_bound_report",
    "make_box", "make_l0", "make_l1", "make_logistic", "make_lp_half", "make_problem",
    "make_quadratic", "make_quartic", "make_sphere", "make_zero",
    "read_trace_csv", "solve",
    "write_trace_csv",
]


def test_public_names_are_pinned():
    # a new export must be added here on purpose
    names = sorted(n for n in dir(proxgrad) if not n.startswith("_")
                   and not isinstance(getattr(proxgrad, n), types.ModuleType))
    assert names == PUBLIC_NAMES


def test_derived_values_are_not_inputs():
    # the row count is read from the trace, the quartic fits any dimension,
    # and a record's index is its position in the trace
    assert "iterations" not in {f.name for f in dataclasses.fields(proxgrad.SolveReport)}
    assert list(inspect.signature(proxgrad.make_quartic).parameters) == []
    assert "k" not in {f.name for f in dataclasses.fields(proxgrad.IterateRecord)}
    assert "__post_init__" not in vars(proxgrad.Trace)


MODULES = [m.name for m in pkgutil.iter_modules(proxgrad.__path__) if m.name != "__main__"]


@pytest.mark.parametrize("module", MODULES)
def test_star_import_resolves(module):
    # a stale __all__ entry makes the star import raise AttributeError
    exec(f"from proxgrad.{module} import *", {})
    exported = importlib.import_module(f"proxgrad.{module}").__all__
    assert len(set(exported)) == len(exported)


# the modules whose __all__ lists are the package's public names
PACKAGE_MODULES = ["core", "diagnostics", "prox_oracles", "smooth_oracles", "solver"]


def _module_all(module):
    return importlib.import_module(f"proxgrad.{module}").__all__


def test_package_names_are_in_their_module_all():
    # __init__ resolves its names from exactly these modules' __all__ lists,
    # so they are the public names, each listed in one module and resolved to
    # that module's object
    assert proxgrad._MODULES == tuple(PACKAGE_MODULES)
    exported = [name for module in PACKAGE_MODULES for name in _module_all(module)]
    assert proxgrad.__all__ == exported
    assert sorted(exported) == PUBLIC_NAMES
    for module in PACKAGE_MODULES:
        for name in _module_all(module):
            assert getattr(proxgrad, name) is getattr(importlib.import_module(
                f"proxgrad.{module}"), name)


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from proxgrad import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES


# in a fresh interpreter: what `import proxgrad` loads, what dir() lists
# before any name is resolved, and each name resolved once
FRESH_PACKAGE = """
import json, sys, types
import proxgrad
loaded = sorted(m for m in sys.modules if m.startswith("proxgrad."))
listed = sorted(n for n in dir(proxgrad) if not n.startswith("_"))
resolved = sorted(n for n in listed if not isinstance(getattr(proxgrad, n), types.ModuleType))
print(json.dumps({"loaded": loaded, "listed": listed, "resolved": resolved}))
"""


def test_each_public_name_resolves_in_a_fresh_interpreter():
    # a lazy name is imported only when asked for, so an import error in one
    # would hide from a process that has already imported every module
    src = str(Path(proxgrad.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", FRESH_PACKAGE], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["loaded"] == []
    assert seen["listed"] == seen["resolved"] == PUBLIC_NAMES


# exported for use outside the package: the independent verification oracles,
# and the return types of checkers whose callers read only their fields
NO_PACKAGE_CALLER = {"brute_force_prox", "fd_gradient_check", "Violation", "GammaBoundReport"}
# cli exports with no package caller: perfbench calls or patches them
PERFBENCH_CALLER = {"load_run_config", "build_smooth", "build_prox"}


def _referenced_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_export_has_a_caller_in_another_module():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in Path(proxgrad.__file__).parent.glob("*.py")}
    defined_in = {name: module for module in PACKAGE_MODULES + ["cli"]
                  for name in _module_all(module)}
    used_by = {module: set(_referenced_names(tree)) for module, tree in trees.items()}
    uncalled = [name for name in sorted(defined_in)
                if not any(name in used for module, used in used_by.items()
                           if module != defined_in[name])]
    assert uncalled == sorted(NO_PACKAGE_CALLER | PERFBENCH_CALLER)
