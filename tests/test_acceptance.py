"""Acceptance suite: one test per criterion, run at the stated tolerances.

Each test prints a single ``ACCEPTANCE <id> ...: PASS`` line on success
(visible with ``pytest -s``); a pytest failure line is the fail signal.
Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from proxgrad.diagnostics import (
    check_acceptance,
    check_envelope,
    check_gamma_step_product,
    check_level_set,
    check_vanishing_steps,
    gamma_bound_report,
    write_trace_csv,
)
from proxgrad.prox_oracles import (
    brute_force_prox,
    make_box,
    make_l0,
    make_l1,
    make_lp_half,
    make_zero,
)
from proxgrad.smooth_oracles import fd_gradient_check, make_logistic, make_quadratic, make_quartic

from conftest import SHIPPED, load_shipped, solve_quiet, synth_trace
from reference_monotone import reference_monotone_solve

M_SWEEP = [0, 1, 5, 10]


@pytest.fixture(scope="module")
def shipped_reports():
    """Every shipped config run exactly as shipped."""
    out = {}
    for name in SHIPPED:
        cfg = load_shipped(name)
        t0 = time.perf_counter()
        report = solve_quiet(cfg["problem"], cfg["config"], cfg["x0"])
        out[name] = (cfg, report, time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def sweep_reports():
    """Every shipped config re-run at each window size in M_SWEEP."""
    out = {}
    for name in SHIPPED:
        cfg = load_shipped(name)
        for m in M_SWEEP:
            config = dataclasses.replace(cfg["config"], m=m)
            out[(name, m)] = solve_quiet(cfg["problem"], config, cfg["x0"])
    return out


def test_criterion_01_prox_oracle_equivalence():
    """{zero, l1, l0, lp_half, box} agree with the grid oracle within 2e-4."""
    rng = np.random.default_rng(20250810)
    # train the allocator on grid-sized buffers so the measured time is the
    # grid searches themselves, not first-touch page faults
    for _ in range(4):
        np.zeros(1_000_000)
    t0 = time.perf_counter()
    cases = {
        "zero": (lambda p: make_zero(), lambda p: (lambda x: 0.0 * x)),
        "l1": (make_l1, lambda p: (lambda x: p * np.abs(x))),
        "l0": (make_l0, lambda p: (lambda x: p * (x != 0.0))),
        "lp_half": (make_lp_half, lambda p: (lambda x: p * np.sqrt(np.abs(x)))),
        "box": (
            lambda p: make_box([-p], [p]),
            lambda p: (lambda x: np.where(np.abs(x) <= p, 0.0, math.inf)),
        ),
    }
    for name, (factory, phi_factory) in cases.items():
        for _ in range(200):
            gamma = float(rng.uniform(0.1, 10.0))
            v = float(rng.uniform(-5.0, 5.0))
            param = float(rng.uniform(0.1, 2.0))
            oracle = factory(param)
            got = float(oracle.prox(gamma, np.array([v]))[0])
            ref = brute_force_prox(phi_factory(param), gamma, v,
                                   lo=-10.0, hi=10.0, step=1e-4)
            assert abs(got - ref) <= 2e-4, (
                f"{name}: prox={got} grid={ref} (gamma={gamma}, v={v}, param={param})"
            )
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    print(f"ACCEPTANCE 01 prox-oracle equivalence: PASS ({elapsed:.2f}s)")


def test_criterion_02_gradient_fidelity():
    """fd_gradient_check <= 1e-5 at 100 random points per shipped oracle."""
    t0 = time.perf_counter()
    oracles = [
        (make_quadratic([[1.0, 0.5], [-0.3, 0.9], [0.2, -1.1]], [0.4, -0.2, 0.7]), 2),
        (make_quartic(), 3),
        (
            make_logistic(
                [[1.0, 0.5, -0.2], [-0.7, 1.2, 0.3], [0.4, -0.8, 1.0], [-0.2, 0.3, -1.1]],
                [1.0, -1.0, 1.0, -1.0],
            ),
            3,
        ),
    ]
    rng = np.random.default_rng(42)
    for oracle, dim in oracles:
        for _ in range(100):
            x = rng.uniform(-3.0, 3.0, size=dim)
            err = fd_gradient_check(oracle, x, 1e-5)
            assert err <= 1e-5, f"{oracle.name}: fd error {err:.3e} at {x}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"
    print(f"ACCEPTANCE 02 gradient fidelity: PASS ({elapsed:.2f}s)")


def test_criterion_03_inner_loop_finiteness(shipped_reports):
    """No shipped run hits the inner cap; max observed i_k <= 60."""
    worst = 0
    for name, (cfg, report, _) in shipped_reports.items():
        assert report.status != "inner_loop_cap", f"{name} hit the inner cap"
        assert report.status == "converged_residual", (
            f"{name} ended {report.status} before the residual criterion fired"
        )
        for rec in report.trace.records:
            worst = max(worst, rec.inner_iters)
    assert worst <= 60, f"max inner index {worst} exceeds 60"
    print(f"ACCEPTANCE 03 inner-loop finiteness: PASS (max i_k = {worst})")


def test_criterion_04_acceptance_certificate(shipped_reports, sweep_reports):
    """check_acceptance returns zero violations on every emitted trace."""
    checked = 0
    for name, (cfg, report, _) in shipped_reports.items():
        assert check_acceptance(report.trace) == [], name
        checked += 1
    for (name, m), report in sweep_reports.items():
        assert report.trace.config_echo.m == m, (name, m)
        assert check_acceptance(report.trace) == [], (name, m)
        checked += 1
    print(f"ACCEPTANCE 04 acceptance certificate: PASS ({checked} traces, tol 1e-10)")


def test_criterion_05_envelope_and_level_set(sweep_reports):
    """check_envelope and check_level_set pass for every m in {0,1,5,10}."""
    for (name, m), report in sweep_reports.items():
        assert check_envelope(report.trace, m), f"envelope failed for {name}, m={m}"
        assert check_level_set(report.trace), f"level set failed for {name}, m={m}"
    print(f"ACCEPTANCE 05 envelope + level set: PASS ({len(sweep_reports)} runs)")


def test_criterion_06_vanishing_steps():
    """Tail steps and gamma-weighted steps vanish on the two slow problems."""
    for name in ("lasso_small", "quartic_box"):
        cfg = load_shipped(name)
        t0 = time.perf_counter()
        report = solve_quiet(cfg["problem"], cfg["config"], cfg["x0"])
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"{name} took {elapsed:.2f}s (limit 1s)"
        assert report.iterations <= 10000
        assert check_vanishing_steps(report.trace, 1e-6), name
        assert check_gamma_step_product(report.trace, 1e-5), name
    print("ACCEPTANCE 06 vanishing steps + gamma-weighted steps: PASS")


def test_criterion_07_stationarity_of_limit(shipped_reports):
    """Final iterates sit at independently verified stationary points."""
    # lasso: the objective is separable, so a 1e-6 grid over [-2, 2] per
    # coordinate pins the unique minimizer independently of the solver
    grid = np.arange(-2.0, 2.0 + 1e-6 / 2, 1e-6)
    c1 = grid[np.argmin(0.5 * (grid - 1.0) ** 2 + 0.5 * np.abs(grid))]
    c2 = grid[np.argmin(0.5 * (grid - 0.1) ** 2 + 0.5 * np.abs(grid))]
    assert abs(c1 - 0.5) <= 2e-6 and abs(c2 - 0.0) <= 2e-6
    _, lasso_report, _ = shipped_reports["lasso_small"]
    assert lasso_report.status == "converged_residual"
    assert np.max(np.abs(lasso_report.x_final - np.array([c1, c2]))) <= 1e-5
    assert np.max(np.abs(lasso_report.x_final - np.array([0.5, 0.0]))) <= 1e-5

    # quartic/box: stationarity needs x^3 = 0 in the interior, and the
    # boundary normal directions at +-2 point the wrong way, so 0 is the
    # unique candidate; a coarse grid minimum over [-2, 2] agrees
    qgrid = np.arange(-2.0, 2.0 + 1e-4 / 2, 1e-4)
    assert abs(qgrid[np.argmin(0.25 * qgrid**4)]) <= 1e-4
    # stationarity at +2 would need grad <= 0 there, at -2 it would need
    # grad >= 0; the cubic gradient rules out both boundary points
    assert 2.0**3 > 0
    assert (-2.0) ** 3 < 0
    _, quartic_report, _ = shipped_reports["quartic_box"]
    assert abs(quartic_report.x_final[0]) <= 1e-2
    print("ACCEPTANCE 07 stationarity of the limit: PASS")


def test_criterion_08_monotone_nonmonotone_coincidence(tmp_path):
    """The m = 0 engine trace file is bitwise identical to the reference."""
    for name in SHIPPED:
        cfg = load_shipped(name)
        config = dataclasses.replace(cfg["config"], m=0)
        engine = solve_quiet(cfg["problem"], config, cfg["x0"])
        reference = reference_monotone_solve(cfg["problem"], config, cfg["x0"])
        path_e = tmp_path / f"{name}_engine.csv"
        path_r = tmp_path / f"{name}_reference.csv"
        write_trace_csv(engine.trace, path_e)
        write_trace_csv(reference.trace, path_r)
        assert path_e.read_bytes() == path_r.read_bytes(), name
        assert engine.status == reference.status
    print(f"ACCEPTANCE 08 monotone m=0 bitwise coincidence: PASS ({len(SHIPPED)} configs)")


def test_criterion_09_bounded_gamma(shipped_reports):
    """max accepted gamma <= 1e6 and no growth trend on converged runs."""
    for name, (cfg, report, _) in shipped_reports.items():
        g = gamma_bound_report(report.trace)
        assert g.max_gamma <= 1e6, f"{name}: max gamma {g.max_gamma}"
        assert g.trend_flag is False, f"{name}: gamma growth trend flagged"
    print("ACCEPTANCE 09 bounded gamma under local Lipschitzness: PASS")


def test_criterion_10_fault_sensitivity(shipped_reports):
    """Each checker flags its corresponding single-field corruption."""
    _, lasso_report, _ = shipped_reports["lasso_small"]
    trace = lasso_report.trace

    # acceptance: a perturbed psi breaks exactly one certificate
    records = list(trace.records)
    records[10] = dataclasses.replace(records[10], psi=records[10].psi + 1.0)
    corrupted = dataclasses.replace(trace, records=tuple(records))
    violations = check_acceptance(corrupted)
    assert len(violations) == 1 and violations[0].k == 9

    # envelope: a rise inside the window is caught
    assert not check_envelope(synth_trace([5.0, 6.0, 4.0, 3.0]), m=1)

    # level set: an iterate above psi[0] is caught
    decreasing = [5.0, 4.0, 3.0, 2.0, 1.0]
    decreasing[3] = 6.0
    assert not check_level_set(synth_trace(decreasing))

    # vanishing steps: constant unit steps are caught
    assert not check_vanishing_steps(
        synth_trace([float(-k) for k in range(20)], step_norm=[1.0] * 20), 1e-6
    )

    # gamma-weighted steps: large gamma times small steps is caught
    assert not check_gamma_step_product(
        synth_trace([float(-k) for k in range(20)],
                    step_norm=[1e-3] * 20, gamma=[1e8] * 20),
        1e-5,
    )
    print("ACCEPTANCE 10 fault sensitivity of all checkers: PASS")
