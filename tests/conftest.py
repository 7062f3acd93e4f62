import warnings

import numpy as np
import pytest

from proxgrad.cli import _resolve_config_path, load_run_config
from proxgrad.core import SmoothOracle, make_problem
from proxgrad.diagnostics import IterateRecord, Trace
from proxgrad.prox_oracles import make_box, make_l0, make_l1, make_lp_half, make_sphere, make_zero
from proxgrad.smooth_oracles import make_logistic, make_quadratic, make_quartic
from proxgrad.solver import SolverConfig, solve

SHIPPED = ["lasso_small", "quartic_box", "quartic_l0", "logistic_l1", "sphere_quadratic",
           "lasso_window"]
PROX = ["zero", "l1", "l0", "lp_half", "box", "sphere"]


def load_shipped(name):
    """Problem/config/x0 dict for a shipped example config."""
    return load_run_config(_resolve_config_path(name))


def solve_quiet(problem, config, x0):
    """Run a solve with the nonmonotone-window warning silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return solve(problem, config, x0)


def seeded_problem(smooth_name, prox_name, seed, dim=3):
    """A small random problem and a starting point in the domain of psi."""
    rng = np.random.default_rng(seed)
    if smooth_name == "quadratic":
        smooth = make_quadratic(rng.normal(size=(5, dim)), rng.normal(size=5))
    elif smooth_name == "logistic":
        smooth = make_logistic(rng.normal(size=(6, dim)), rng.choice([-1.0, 1.0], size=6))
    elif smooth_name == "quartic":
        smooth = make_quartic()
    else:
        # nonconvex, so <s, y> <= 0 occurs and the spectral guess falls back
        # to the previous accepted gamma
        smooth = SmoothOracle("double_well", lambda x: float(np.sum(0.25 * x**4 - x**2)),
                              lambda x: x**3 - 2.0 * x)
    lam = float(rng.uniform(0.05, 0.5))
    x0 = rng.uniform(-1.0, 1.0, size=dim)
    if prox_name == "zero":
        prox = make_zero()
    elif prox_name == "l1":
        prox = make_l1(lam)
    elif prox_name == "l0":
        prox = make_l0(lam)
    elif prox_name == "lp_half":
        prox = make_lp_half(lam)
    elif prox_name == "box":
        prox = make_box(-np.ones(dim), np.ones(dim))
    else:
        prox = make_sphere(1.0)
        x0 = np.eye(dim)[0]
    return make_problem(smooth, prox, dim), x0


def seeded_lipschitz(smooth_name, seed, dim=3):
    """The gradient's Lipschitz constant for `seeded_problem`'s quadratic,
    ||A||_2^2, or logistic, ||A||_2^2 / 4: A is that problem's first draw."""
    rows = {"quadratic": 5, "logistic": 6}[smooth_name]
    A = np.random.default_rng(seed).normal(size=(rows, dim))
    return np.linalg.norm(A, 2) ** 2 / (1.0 if smooth_name == "quadratic" else 4.0)


def synth_trace(psi, step_norm=None, gamma=None, inner_iters=None, config=None):
    """Hand-rolled trace for checker fault-injection tests."""
    n = len(psi)
    step_norm = step_norm if step_norm is not None else [0.0] * n
    gamma = gamma if gamma is not None else [1.0] * n
    inner_iters = inner_iters if inner_iters is not None else [0] * n
    records = tuple(
        IterateRecord(
            psi=float(psi[k]),
            f_val=float(psi[k]),
            phi_val=0.0,
            gamma0=float(gamma[k]),
            gamma=float(gamma[k]),
            inner_iters=int(inner_iters[k]),
            step_norm=float(step_norm[k]),
            residual=float("inf") if k == 0 else 1.0,
            accepted_ref=float(psi[k]),
        )
        for k in range(n)
    )
    # the run ends on the cap, and its last iterate repeats the last row's psi
    return Trace(records=records, config_echo=config or SolverConfig(),
                 problem_name="synthetic", x0_hash="0" * 16, status="max_outer_reached",
                 psi_final=float(psi[-1]) if n else 0.0, final_residual=1.0, early_exit=False)


@pytest.fixture
def lasso():
    return load_shipped("lasso_small")
