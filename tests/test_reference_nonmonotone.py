"""The m > 0 engine against the independent nonmonotone reference, bit for bit."""

import itertools
from dataclasses import replace

import pytest

from proxgrad.diagnostics import write_trace_csv
from proxgrad.solver import SolverConfig

from conftest import PROX, SHIPPED, load_shipped, seeded_problem, solve_quiet
from reference_nonmonotone import reference_nonmonotone_solve

# 10**9 is longer than every run, so no value ever leaves the window
WINDOWS = [1, 5, 10, 10**9]
SMOOTH = ["quadratic", "logistic", "quartic", "double_well"]


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
