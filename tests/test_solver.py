import math
from dataclasses import replace

import numpy as np
import pytest

from proxgrad.core import SmoothOracle, make_problem
from proxgrad.prox_oracles import brute_force_prox, make_box, make_l0, make_l1, make_zero
from proxgrad.smooth_oracles import make_quadratic, make_quartic
from proxgrad.solver import (
    InnerCapExceeded,
    SolverConfig,
    backtrack,
    gamma0_select,
    outer_residual,
    solve,
    solve_monotone,
    subproblem_solve,
)

from conftest import load_shipped, solve_quiet
from reference_monotone import reference_monotone_solve


def norm(v):
    return math.sqrt(float(np.dot(v, v)))


def half_x_squared(dim=1):
    return make_quadratic(np.eye(dim), np.zeros(dim))


class TestSolverConfig:
    def test_defaults_valid(self):
        SolverConfig()

    @pytest.mark.parametrize(
        "field,value,fragment",
        [
            ("tau", 1.0, "tau"),
            ("gamma_min", 0.0, "gamma_min"),
            ("gamma_max", 1e-9, "gamma_min"),
            ("delta", 1.5, "(0, 1)"),
            ("delta", 0.0, "(0, 1)"),
            ("m", -1, "nonnegative"),
            ("gamma0_strategy", "adaptive", "gamma0_strategy"),
            ("gamma0_value", 0.0, "positive"),
            ("tau_abs", 0.0, "positive"),
            ("eps_step", -1.0, ">= 0"),
            ("max_outer", 0, "positive"),
            ("max_inner", 0, "positive"),
            ("m", True, "nonnegative"),
            ("max_outer", True, "positive"),
            ("max_inner", True, "positive"),
        ],
    )
    def test_rejects_bad_values(self, field, value, fragment):
        with pytest.raises(ValueError, match=None) as err:
            SolverConfig(**{field: value})
        assert fragment in str(err.value)


class TestSubproblemSolve:
    def test_quadratic_zero_phi(self):
        problem = make_problem(half_x_squared(), make_zero(), 1)
        x = np.array([1.0])
        out = subproblem_solve(problem, x, problem.smooth.grad(x), 1.0)
        assert np.array_equal(out, [0.0])

    def test_fixed_point_in_constraint_set(self):
        problem = make_problem(half_x_squared(2), make_box([-1.0, -1.0], [1.0, 1.0]), 2)
        x = np.array([0.5, -0.25])
        out = subproblem_solve(problem, x, np.zeros(2), 3.0)
        assert np.array_equal(out, x)

    def test_lasso_soft_threshold(self):
        problem = make_problem(make_quadratic(np.eye(2), [1.0, 0.1]), make_l1(0.5), 2)
        x = np.zeros(2)
        out = subproblem_solve(problem, x, problem.smooth.grad(x), 1.0)
        assert out == pytest.approx([0.5, 0.0], abs=1e-15)
        for i, v in enumerate([1.0, 0.1]):
            bf = brute_force_prox(lambda t: 0.5 * np.abs(t), 1.0, v)
            assert abs(bf - out[i]) <= 1e-4


class TestAcceptanceReference:
    """Row k is tested against the maximum of the last min(k, m) + 1 psi
    values.  logistic_l1 is used because its psi rises at some steps."""

    @staticmethod
    def refs_and_psi(m):
        cfg = load_shipped("logistic_l1")
        report = solve_quiet(cfg["problem"], replace(cfg["config"], m=m), cfg["x0"])
        return ([r.accepted_ref for r in report.trace.records],
                [r.psi for r in report.trace.records])

    def test_max_of_buffer(self):
        refs, psi = self.refs_and_psi(2)
        # windows whose maximum is neither their oldest nor their newest value
        interior = [k for k in range(2, len(psi)) if psi[k - 1] > max(psi[k - 2], psi[k])]
        assert interior
        for k in interior:
            assert refs[k] == psi[k - 1]

    def test_singleton(self):
        refs, psi = self.refs_and_psi(0)
        assert refs == psi

    def test_buffer_growth_matches_min_k_m(self):
        refs, psi = self.refs_and_psi(2)
        assert refs == [max(psi[max(0, k - 2): k + 1]) for k in range(len(psi))]
        # neither a shorter nor an unbounded window gives this column
        assert refs != [max(psi[max(0, k - 1): k + 1]) for k in range(len(psi))]
        assert refs != [max(psi[: k + 1]) for k in range(len(psi))]


class TestGamma0Select:
    def test_constant_in_range(self):
        config = SolverConfig(gamma0_strategy="constant", gamma0_value=1.0)
        assert gamma0_select(config, None) == 1.0

    def test_constant_clamped(self):
        config = SolverConfig(gamma0_strategy="constant", gamma0_value=1e-12)
        assert gamma0_select(config, None) == config.gamma_min

    def test_bb_rayleigh_quotient_of_identity(self):
        config = SolverConfig()
        s = np.array([0.3, -0.7])
        prev = (s, s.copy(), 4.0)
        assert gamma0_select(config, prev) == 1.0

    def test_bb_safeguard_on_negative_curvature(self):
        config = SolverConfig()
        prev = (np.array([1.0]), np.array([-0.3]), 2.5)
        out = gamma0_select(config, prev)
        assert out == 2.5
        assert out > 0

    def test_bb_zero_step_falls_back(self):
        config = SolverConfig()
        prev = (np.zeros(2), np.zeros(2), 0.5)
        assert gamma0_select(config, prev) == 0.5

    def test_first_iteration_default(self):
        assert gamma0_select(SolverConfig(), None) == 1.0


class TestBacktrack:
    def test_immediate_acceptance(self):
        problem = make_problem(half_x_squared(), make_zero(), 1)
        config = SolverConfig(delta=0.5, tau=2.0)
        x = np.array([1.0])
        x_next, _, inner_iters, psi_next, *_ = backtrack(
            problem, x, problem.smooth.grad(x), 1.0, 0.5, config)
        assert inner_iters == 0
        assert np.array_equal(x_next, [0.0])
        assert psi_next == 0.0  # 0 <= 0.5 - 0.25

    def test_stationary_point_is_fixed(self):
        problem = make_problem(half_x_squared(2), make_zero(), 2)
        x = np.zeros(2)
        x_next, _, inner_iters, _, _, _, step_norm, _, _ = backtrack(
            problem, x, np.zeros(2), 1.0, 0.0, SolverConfig())
        assert inner_iters == 0
        assert step_norm == 0.0
        assert np.array_equal(x_next, x)

    def test_quartic_overshoot_forces_backtracking(self):
        problem = make_problem(make_quartic(1), make_zero(), 1)
        config = SolverConfig()
        x = np.array([2.0])
        grad = problem.smooth.grad(x)
        gamma0 = 1e-4
        # the first trial overshoots: psi at the model minimizer blows up
        cand0 = subproblem_solve(problem, x, grad, gamma0)
        psi_ref = problem.smooth.eval(x)
        psi_cand0 = problem.smooth.eval(cand0)
        step0 = norm(cand0 - x)
        assert psi_cand0 > psi_ref - config.delta * (gamma0 / 2.0) * step0**2
        _, gamma, inner_iters, *_ = backtrack(problem, x, grad, gamma0, psi_ref, config)
        assert inner_iters > 0
        assert gamma == pytest.approx(gamma0 * config.tau**inner_iters, rel=1e-12)

    def test_inner_cap_raises(self):
        problem = make_problem(make_quartic(1), make_zero(), 1)
        config = SolverConfig(max_inner=3, tau_abs=1e-300)
        x = np.array([2.0])
        with pytest.raises(InnerCapExceeded):
            backtrack(problem, x, problem.smooth.grad(x), 1e-8, 4.0, config)


class TestNonFiniteTrial:
    """A trial whose psi or gradient is not finite passes neither test."""

    @staticmethod
    def problem(f_cand, g_cand):
        # f = 0 and grad f = 1 at x0 = 1; every other point, and so every
        # candidate 1 - 1/gamma of the zero prox, gets f_cand and g_cand.
        # With g_cand = 0 the inner stationarity residual is exactly 0.
        def feval(x):
            return 0.0 if x[0] == 1.0 else f_cand

        def fgrad(x):
            return np.array([1.0 if x[0] == 1.0 else g_cand])

        return make_problem(SmoothOracle("handmade", feval, fgrad), make_zero(), 1)

    @pytest.mark.parametrize("f_cand, g_cand", [
        (math.nan, 0.0),  # would leave through the inner stationarity test
        (math.inf, 0.0),
        (-1.0, math.inf),  # would pass the decrease test
        (-1.0, math.nan),
    ])
    def test_rejected_and_gamma_grows(self, f_cand, g_cand):
        problem = self.problem(f_cand, g_cand)
        x = np.array([1.0])
        with pytest.raises(InnerCapExceeded) as info:
            backtrack(problem, x, problem.smooth.grad(x), 1.0, 0.0, SolverConfig(max_inner=4))
        assert info.value.last_gamma == 8.0

    def test_solve_records_no_nan_row(self):
        config = SolverConfig(max_inner=4, gamma0_strategy="constant", m=0)
        report = solve(self.problem(math.nan, 0.0), config, [1.0])
        assert report.status == "inner_loop_cap"
        assert report.trace.records == ()
        assert report.psi_final == 0.0


class TestOuterResidual:
    def test_fixed_point(self):
        x = np.array([1.0, 2.0])
        g = np.array([0.5, -0.5])
        assert outer_residual(x, x, 1.0, g, g) == 0.0

    def test_quadratic_exact_zero(self):
        # f = x^2/2: step from 1 with gamma=1 lands on 0 with residual 0
        assert outer_residual(np.array([1.0]), np.array([0.0]), 1.0,
                              np.array([1.0]), np.array([0.0])) == 0.0

    def test_quartic_arithmetic(self):
        got = outer_residual(np.array([1.0]), np.array([0.5]), 2.0,
                             np.array([1.0]), np.array([0.125]))
        assert got == pytest.approx(0.125, rel=1e-15)

    def test_phi_zero_residual_equals_gradient_norm(self):
        # prox-step identity: with dyadic data and gamma a power of two every
        # operation is float-exact and the residual equals ||grad f(x_cur)||
        A = np.array([[1.5, 0.25], [0.0, 0.75]])
        f = make_quadratic(A, np.array([0.25, -0.5]))
        x_prev = np.array([1.0, -2.0])
        g_prev = f.grad(x_prev)
        gamma = 2.0
        x_cur = x_prev - g_prev / gamma
        g_cur = f.grad(x_cur)
        assert outer_residual(x_prev, x_cur, gamma, g_prev, g_cur) == norm(g_cur)


class TestSolve:
    def test_lasso_reaches_soft_threshold_solution(self, lasso):
        report = solve_quiet(lasso["problem"], lasso["config"], lasso["x0"])
        assert report.status == "converged_residual"
        assert report.x_final == pytest.approx([0.5, 0.0], abs=1e-5)

    def test_quartic_box_reaches_origin(self):
        cfg = load_shipped("quartic_box")
        report = solve_quiet(cfg["problem"], cfg["config"], cfg["x0"])
        assert report.status == "converged_residual"
        assert abs(report.x_final[0]) <= 1e-2
        assert report.final_residual <= cfg["config"].tau_abs

    def test_stationary_start_converges_at_k1(self):
        problem = make_problem(half_x_squared(2), make_zero(), 2)
        report = solve(problem, SolverConfig(), np.zeros(2))
        assert report.status == "converged_residual"
        assert report.iterations == 1
        assert len(report.trace.records) == 1
        assert math.isinf(report.trace.records[0].residual)

    def test_x0_outside_domain_rejected(self):
        problem = make_problem(half_x_squared(1), make_box([0.0], [1.0]), 1)
        with pytest.raises(ValueError, match="domain"):
            solve(problem, SolverConfig(), np.array([2.0]))

    def test_gamma_never_below_gamma_min(self):
        cfg = load_shipped("quartic_box")
        report = solve_quiet(cfg["problem"], cfg["config"], cfg["x0"])
        assert all(r.gamma >= cfg["config"].gamma_min for r in report.trace.records)

    def test_psi_column_consistent(self, lasso):
        report = solve_quiet(lasso["problem"], lasso["config"], lasso["x0"])
        for r in report.trace.records:
            assert r.psi == pytest.approx(r.f_val + r.phi_val, rel=1e-12)

    def test_monotone_psi_decrease_at_m0(self, lasso):
        report = solve_monotone(lasso["problem"], lasso["config"], lasso["x0"])
        psi = [r.psi for r in report.trace.records]
        assert all(b <= a for a, b in zip(psi, psi[1:]))

    def test_inner_cap_becomes_status(self):
        problem = make_problem(make_quartic(1), make_zero(), 1)
        config = SolverConfig(gamma_min=1e-8, gamma_max=1e-8, max_inner=1,
                              gamma0_strategy="constant", gamma0_value=1e-8,
                              tau_abs=1e-300)
        report = solve(problem, config, np.array([2.0]))
        assert report.status == "inner_loop_cap"
        assert report.iterations == 0
        assert len(report.trace.records) == 0

    def test_max_outer_status(self, lasso):
        config = replace(lasso["config"], max_outer=3)
        report = solve_quiet(lasso["problem"], config, lasso["x0"])
        assert report.status == "max_outer_reached"
        assert report.iterations == 3

    def test_warns_on_nonmonotone_discontinuous_phi(self):
        cfg = load_shipped("quartic_l0")
        with pytest.warns(UserWarning, match="not.*continuous"):
            solve(cfg["problem"], cfg["config"], cfg["x0"])

    def test_no_warning_for_monotone_l0(self):
        cfg = load_shipped("quartic_l0")
        import warnings as w

        with w.catch_warnings():
            w.simplefilter("error")
            solve(cfg["problem"], replace(cfg["config"], m=0), cfg["x0"])

    def test_trace_metadata(self, lasso):
        report = solve_quiet(lasso["problem"], lasso["config"], lasso["x0"])
        assert report.trace.problem_name == "quadratic+l1"
        assert report.trace.config_echo == lasso["config"]
        assert len(report.trace.x0_hash) == 16


class TestEarlyInnerExit:
    def test_near_stationary_candidate_accepted_and_flagged(self):
        # f = (x - 0.6)^2/2 with an l0 penalty tuned so the prox flips the
        # iterate from the stationary zero into the nonzero basin with a
        # slightly HIGHER psi: sufficient decrease fails, but the inner
        # stationarity residual |cand|*|1 - gamma| stays below tau_abs
        problem = make_problem(make_quadratic([[1.0]], [0.6]), make_l0(0.18), 1)
        config = SolverConfig(
            gamma_min=0.999, gamma_max=0.999, gamma0_strategy="constant",
            gamma0_value=0.999, tau_abs=1e-3, m=0,
        )
        report = solve(problem, config, np.array([0.0]))
        assert report.early_exit_ks == (0,)
        assert report.status == "converged_residual"
        assert report.iterations == 1
        rec = report.trace.records[0]
        # the accepted step genuinely violated the decrease test
        assert report.psi_final > rec.accepted_ref - config.delta * (rec.gamma / 2) * rec.step_norm**2
        assert report.final_residual <= config.tau_abs

    def test_reference_takes_same_early_exit(self):
        problem = make_problem(make_quadratic([[1.0]], [0.6]), make_l0(0.18), 1)
        config = SolverConfig(
            gamma_min=0.999, gamma_max=0.999, gamma0_strategy="constant",
            gamma0_value=0.999, tau_abs=1e-3, m=0,
        )
        engine = solve(problem, config, np.array([0.0]))
        ref = reference_monotone_solve(problem, config, np.array([0.0]))
        assert engine.trace.records == ref.trace.records
        assert engine.status == ref.status


class TestWindowedAcceptance:
    def test_reference_uses_window_maximum(self, lasso):
        config = replace(lasso["config"], m=5)
        report = solve_quiet(lasso["problem"], config, lasso["x0"])
        psi = [r.psi for r in report.trace.records]
        for k, rec in enumerate(report.trace.records):
            m_k = min(k, config.m)
            assert rec.accepted_ref == max(psi[k - m_k: k + 1])

    def test_m0_matches_reference_implementation(self, lasso):
        config = replace(lasso["config"], m=0)
        engine = solve(lasso["problem"], config, lasso["x0"])
        ref = reference_monotone_solve(lasso["problem"], config, lasso["x0"])
        assert engine.status == ref.status
        assert engine.trace.records == ref.trace.records
        assert np.array_equal(engine.x_final, ref.x_final)
