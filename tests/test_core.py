import math
import types

import numpy as np
import pytest

from proxgrad.core import as_vector, make_problem, psi_eval
from proxgrad.prox_oracles import make_box, make_l1, make_zero
from proxgrad.smooth_oracles import make_quadratic


def half_sq_norm(dim):
    return make_quadratic(np.eye(dim), np.zeros(dim))


def test_psi_eval_zero_case():
    problem = make_problem(half_sq_norm(2), make_zero(), 2)
    assert psi_eval(problem, [0.0, 0.0]) == 0.0


def test_psi_eval_outside_domain_is_inf():
    problem = make_problem(half_sq_norm(2), make_box([0.0, 0.0], [1.0, 1.0]), 2)
    assert psi_eval(problem, [2.0, 0.0]) == math.inf


def test_psi_eval_lasso_point():
    # f = 0.5*||x-(1,0.1)||^2, phi = 0.5*||x||_1 at (0.5, 0):
    # both pieces evaluated independently below
    problem = make_problem(
        make_quadratic(np.eye(2), [1.0, 0.1]), make_l1(0.5), 2
    )
    expected = 0.5 * (0.25 + 0.01) + 0.25
    assert psi_eval(problem, [0.5, 0.0]) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.38, rel=1e-12)


def test_psi_finite_iff_in_domain():
    problem = make_problem(half_sq_norm(2), make_box([-1.0, -1.0], [1.0, 1.0]), 2)
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = rng.uniform(-2, 2, size=2)
        finite = math.isfinite(psi_eval(problem, x))
        in_dom = math.isfinite(problem.nonsmooth.eval(x))
        assert finite == in_dom


def test_psi_eval_dimension_mismatch():
    problem = make_problem(half_sq_norm(2), make_zero(), 2)
    with pytest.raises(ValueError, match="dimension"):
        psi_eval(problem, [1.0, 2.0, 3.0])


def test_as_vector_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        as_vector([1.0, math.nan])
    with pytest.raises(ValueError, match="finite"):
        as_vector([math.inf, 0.0])


PUBLIC_NAMES = [
    "BacktrackResult", "CompositeProblem", "GammaBoundReport", "InnerCapExceeded",
    "IterateRecord", "PROX_REGISTRY", "PrevStep", "ProxOracle", "SMOOTH_REGISTRY",
    "SmoothOracle", "SolveReport", "SolverConfig", "Trace", "TraceFormatError", "Violation",
    "as_vector", "backtrack", "brute_force_prox", "build_prox", "build_smooth",
    "check_acceptance", "check_envelope", "check_gamma_step_product", "check_level_set",
    "check_vanishing_steps", "fd_gradient_check", "gamma0_select", "gamma_bound_report",
    "make_box", "make_l0", "make_l1", "make_logistic", "make_lp_half", "make_problem",
    "make_quadratic", "make_quartic", "make_sphere", "make_zero", "outer_residual",
    "psi_eval", "read_trace_csv", "solve", "solve_monotone", "subproblem_solve",
    "write_trace_csv",
]


def test_public_names_are_pinned():
    # a new export must be added here on purpose
    import proxgrad

    names = sorted(n for n in dir(proxgrad) if not n.startswith("_")
                   and not isinstance(getattr(proxgrad, n), types.ModuleType))
    assert names == PUBLIC_NAMES
