"""The m > 0 engine against the independent nonmonotone reference, bit for bit."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from proxgrad.core import SmoothOracle, make_problem
from proxgrad.diagnostics import write_trace_csv
from proxgrad.prox_oracles import (
    make_box,
    make_l0,
    make_l1,
    make_lp_half,
    make_sphere,
    make_zero,
)
from proxgrad.smooth_oracles import make_logistic, make_quadratic, make_quartic
from proxgrad.solver import SolverConfig

from conftest import SHIPPED, load_shipped, solve_quiet
from reference_nonmonotone import reference_nonmonotone_solve

WINDOWS = [1, 5, 10]
DIM = 3
SMOOTH = ["quadratic", "logistic", "quartic", "double_well"]
PROX = ["zero", "l1", "l0", "lp_half", "box", "sphere"]


def seeded_problem(smooth_name, prox_name, seed):
    """A small random problem and a starting point in the domain of psi."""
    rng = np.random.default_rng(seed)
    if smooth_name == "quadratic":
        smooth = make_quadratic(rng.normal(size=(5, DIM)), rng.normal(size=5))
    elif smooth_name == "logistic":
        smooth = make_logistic(rng.normal(size=(6, DIM)), rng.choice([-1.0, 1.0], size=6))
    elif smooth_name == "quartic":
        smooth = make_quartic(DIM)
    else:
        # nonconvex, so <s, y> <= 0 occurs and the spectral guess falls back
        # to the previous accepted gamma
        smooth = SmoothOracle("double_well", lambda x: float(np.sum(0.25 * x**4 - x**2)),
                              lambda x: x**3 - 2.0 * x)
    lam = float(rng.uniform(0.05, 0.5))
    x0 = rng.uniform(-1.0, 1.0, size=DIM)
    if prox_name == "zero":
        prox = make_zero()
    elif prox_name == "l1":
        prox = make_l1(lam)
    elif prox_name == "l0":
        prox = make_l0(lam)
    elif prox_name == "lp_half":
        prox = make_lp_half(lam)
    elif prox_name == "box":
        prox = make_box(-np.ones(DIM), np.ones(DIM))
    else:
        prox = make_sphere(1.0)
        x0 = np.eye(DIM)[0]
    return make_problem(smooth, prox, DIM), x0


def assert_same_run(engine, reference, tmp_path):
    assert engine.status == reference.status
    assert engine.iterations == reference.iterations
    assert engine.early_exit_ks == reference.early_exit_ks
    assert engine.x_final.tobytes() == reference.x_final.tobytes()
    path_e, path_r = tmp_path / "engine.csv", tmp_path / "reference.csv"
    write_trace_csv(engine.trace, path_e)
    write_trace_csv(reference.trace, path_r)
    assert path_e.read_bytes() == path_r.read_bytes()


@pytest.mark.parametrize("m", WINDOWS)
@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_configs_match_reference(name, m, tmp_path):
    cfg = load_shipped(name)
    config = replace(cfg["config"], m=m)
    engine = solve_quiet(cfg["problem"], config, cfg["x0"])
    reference = reference_nonmonotone_solve(cfg["problem"], config, cfg["x0"])
    assert engine.iterations > 1
    assert_same_run(engine, reference, tmp_path)


@pytest.mark.parametrize("m", WINDOWS)
@pytest.mark.parametrize("smooth_name, prox_name", itertools.product(SMOOTH, PROX))
def test_seeded_problems_match_reference(smooth_name, prox_name, m, tmp_path):
    for seed, strategy in [(6, "bb_safeguarded"), (2, "constant")]:
        problem, x0 = seeded_problem(smooth_name, prox_name, seed)
        config = SolverConfig(m=m, gamma0_strategy=strategy, gamma0_value=0.5,
                              max_outer=150)
        engine = solve_quiet(problem, config, x0)
        reference = reference_nonmonotone_solve(problem, config, x0)
        assert_same_run(engine, reference, tmp_path)
