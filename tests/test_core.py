import math
import types

import pytest

from proxgrad.core import as_vector


def test_as_vector_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        as_vector([1.0, 2.0, 3.0], 2)


def test_as_vector_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        as_vector([1.0, math.nan])
    with pytest.raises(ValueError, match="finite"):
        as_vector([math.inf, 0.0])


PUBLIC_NAMES = [
    "CompositeProblem", "GammaBoundReport", "InnerCapExceeded",
    "IterateRecord", "PROX_REGISTRY", "ProxOracle", "SMOOTH_REGISTRY",
    "SmoothOracle", "SolveReport", "SolverConfig", "Trace", "TraceFormatError", "Violation",
    "as_vector", "backtrack", "brute_force_prox", "build_prox", "build_smooth",
    "check_acceptance", "check_envelope", "check_gamma_step_product", "check_level_set",
    "check_vanishing_steps", "fd_gradient_check", "gamma0_select", "gamma_bound_report",
    "make_box", "make_l0", "make_l1", "make_logistic", "make_lp_half", "make_problem",
    "make_quadratic", "make_quartic", "make_sphere", "make_zero", "outer_residual",
    "read_trace_csv", "solve", "solve_monotone", "subproblem_solve",
    "write_trace_csv",
]


def test_public_names_are_pinned():
    # a new export must be added here on purpose
    import proxgrad

    names = sorted(n for n in dir(proxgrad) if not n.startswith("_")
                   and not isinstance(getattr(proxgrad, n), types.ModuleType))
    assert names == PUBLIC_NAMES
