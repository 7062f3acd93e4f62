import math
import warnings
from dataclasses import astuple, fields, replace

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from proxgrad.core import ProxOracle, SmoothOracle, make_problem
from proxgrad.diagnostics import check_acceptance, check_envelope, check_level_set
from proxgrad.prox_oracles import brute_force_prox, make_box, make_l0, make_l1, make_zero
from proxgrad.smooth_oracles import make_quadratic, make_quartic
from proxgrad.solver import SolverConfig, solve

from conftest import PROX, load_shipped, seeded_lipschitz, seeded_problem, solve_quiet
from reference_monotone import reference_monotone_solve
from reference_nonmonotone import reference_nonmonotone_solve


def norm(v):
    return math.sqrt(float(np.dot(v, v)))


def half_x_squared(dim=1):
    return make_quadratic(np.eye(dim), np.zeros(dim))


def one_step(problem, x0, gamma0, **config):
    """The first outer iteration of a monotone solve from x0 at a constant
    gamma0: its report and its trace row."""
    config = SolverConfig(m=0, max_outer=1, gamma0_strategy="constant",
                          gamma0_value=gamma0, **config)
    report = solve(problem, config, x0)
    return report, report.trace.records[0]


def reference_solve(problem, config, x0):
    """The independent reference for the engine at config.m."""
    if config.m == 0:
        return reference_monotone_solve(problem, config, x0)
    return reference_nonmonotone_solve(problem, config, x0)


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
            # not finite numbers: tau_abs = inf would end a run at k = 0 on
            # inf <= inf, and "2" would fail a comparison with a TypeError
            ("tau_abs", math.inf, "tau_abs must be finite"),
            ("eps_step", math.nan, "eps_step must be finite"),
            ("gamma0_value", math.inf, "gamma0_value must be finite"),
            ("gamma_min", True, "gamma_min must be a number"),
            ("tau", "2", "tau must be a number"),
        ],
    )
    def test_rejects_bad_values(self, field, value, fragment):
        with pytest.raises(ValueError, match=None) as err:
            SolverConfig(**{field: value})
        assert fragment in str(err.value)

    @pytest.mark.parametrize("fields", [
        {"tau": 2**2000}, {"gamma_min": 2**2000, "gamma_max": 2**2000}, {"gamma_max": 2**2000},
        {"gamma0_value": 2**2000}, {"tau_abs": 2**2000}, {"eps_step": 2**2000},
    ], ids=lambda fields: next(iter(fields)))
    def test_rejects_int_past_float_range(self, fields):
        # such an int passes the exact comparisons and used to overflow mid-solve
        with pytest.raises(ValueError) as err:
            SolverConfig(**fields)
        assert str(err.value) == f"{next(iter(fields))} is too large to convert to a float"


class TestSubproblemSolve:
    """The model minimizer around x is the prox at the forward point."""

    def test_quadratic_zero_phi(self):
        problem = make_problem(half_x_squared(), make_zero(), 1)
        x = np.array([1.0])
        out = problem.nonsmooth.prox(1.0, x - problem.smooth.grad(x) / 1.0)
        assert np.array_equal(out, [0.0])

    def test_fixed_point_in_constraint_set(self):
        problem = make_problem(half_x_squared(2), make_box([-1.0, -1.0], [1.0, 1.0]), 2)
        x = np.array([0.5, -0.25])
        out = problem.nonsmooth.prox(3.0, x - np.zeros(2) / 3.0)
        assert np.array_equal(out, x)

    def test_lasso_soft_threshold(self):
        problem = make_problem(make_quadratic(np.eye(2), [1.0, 0.1]), make_l1(0.5), 2)
        x = np.zeros(2)
        out = problem.nonsmooth.prox(1.0, x - problem.smooth.grad(x) / 1.0)
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
    """The stepsize guess, read from the trace's gamma0 column."""

    @staticmethod
    def gamma0s(problem, x0, **config):
        return [r.gamma0 for r in solve(problem, SolverConfig(**config), x0).trace.records]

    def test_constant_in_range(self):
        _, row = one_step(make_problem(half_x_squared(), make_zero(), 1), [1.0], 1.0)
        assert row.gamma0 == 1.0

    def test_constant_clamped(self):
        _, row = one_step(make_problem(half_x_squared(), make_zero(), 1), [1.0], 1e-12)
        assert row.gamma0 == SolverConfig().gamma_min

    def test_first_iteration_default(self):
        problem = make_problem(half_x_squared(), make_zero(), 1)
        assert self.gamma0s(problem, [1.0], max_outer=1) == [1.0]

    def test_first_iteration_clamps_to_gamma_min(self):
        problem = make_problem(half_x_squared(), make_zero(), 1)
        assert self.gamma0s(problem, [1.0], max_outer=1, gamma_min=4.0) == [4.0]

    def test_bb_rayleigh_quotient_of_scaled_identity(self):
        # f = 0.5 ||x / 2||^2 has Hessian I / 4, so <s, y> / <s, s> is 0.25
        # exactly.  On 0.5 ||x||^2 itself the quotient is 1, but the first
        # step, at gamma0 = 1, lands on a point whose residual is exactly 0,
        # so there is no second row to read it from
        problem = make_problem(make_quadratic(0.5 * np.eye(2), np.zeros(2)), make_zero(), 2)
        assert self.gamma0s(problem, [0.3, -0.7], max_outer=2) == [1.0, 0.25]

    def test_bb_safeguard_on_negative_curvature(self):
        # f = -0.5 x^2 from x0 = 1: the first trial (gamma 1) lands on x1 = 2
        # and is accepted, and <s, y> = -1 < 0.  The quotient would be -1;
        # the guess falls back to the accepted gamma, not to gamma_min
        concave = SmoothOracle("concave", lambda x: float(-0.5 * x[0] ** 2), lambda x: -x)
        problem = make_problem(concave, make_zero(), 1)
        config = SolverConfig(m=0, max_outer=2)
        first, second = solve(problem, config, [1.0]).trace.records
        assert (first.gamma0, first.gamma, first.inner_iters) == (1.0, 1.0, 0)
        assert second.gamma0 == 1.0
        assert second.gamma0 > config.gamma_min

    def test_bb_zero_step_falls_back(self):
        # from x0 = 0 the trials at gamma 1 and 2 land where f = 1 and are
        # rejected; gamma 4 lands on x1, past gamma_max * tau, so the step-norm
        # exit stays off although the step, 2.5e-164, squares to 0, while
        # <s, y> = 2.5e-164 * 1e-150 stays positive.  The quotient would
        # divide by zero: the guess falls back to the accepted gamma, clamped
        g0, g1 = 1e-163, 1e-163 - 1e-150
        x1 = -g0 / 4.0

        def feval(x):
            return 0.0 if x[0] == 0.0 else -1.0 if x[0] == x1 else -2.0 if x[0] > 0.0 else 1.0

        def fgrad(x):
            return np.array([g0 if x[0] == 0.0 else g1 if x[0] == x1 else 1.0])

        problem = make_problem(SmoothOracle("underflow", feval, fgrad), make_zero(), 1)
        config = SolverConfig(m=0, max_outer=2, gamma_max=1.0, tau_abs=1e-300)
        first, second = solve(problem, config, [0.0]).trace.records
        assert (first.gamma, first.step_norm) == (4.0, 0.0)
        assert second.gamma0 == config.gamma_max

    def test_bb_step_in_the_null_space_falls_back(self):
        # f = 0.5 x_1^2 and an l1 term from x0 = (0, 1): the gradient is 0 at
        # x0, so the first step only shrinks x_2.  It lies in the null space of
        # A, so <s, y> = 0: the guess falls back to the accepted gamma, not to
        # the quotient 0 clamped to gamma_min
        problem = make_problem(make_quadratic([[1.0, 0.0]], [0.0]), make_l1(0.1), 2)
        first, second = solve(problem, SolverConfig(m=0, max_outer=2), [0.0, 1.0]).trace.records
        assert (first.gamma0, first.gamma, first.inner_iters) == (1.0, 1.0, 0)
        assert second.gamma0 == first.gamma

    def test_fallback_after_backtracking_takes_the_accepted_gamma(self):
        # f = 10 (x^4/4 - x^2) from x0 = 0.1: the first trial (gamma 1)
        # overshoots and is rejected, gamma 2 lands where the gradient has
        # fallen, so <s, y> < 0 and the next guess is the accepted gamma 2,
        # not the trial gamma0 1
        well = SmoothOracle("scaled_double_well",
                            lambda x: float(10.0 * (0.25 * x[0] ** 4 - x[0] ** 2)),
                            lambda x: 10.0 * (x**3 - 2.0 * x))
        problem = make_problem(well, make_zero(), 1)
        config = SolverConfig(m=0, max_outer=2)
        first, second = solve(problem, config, [0.1]).trace.records
        assert (first.gamma0, first.gamma, first.inner_iters) == (1.0, 2.0, 1)
        x0 = np.array([0.1])
        x1 = x0 - well.grad(x0) / first.gamma
        assert float(np.dot(x1 - x0, well.grad(x1) - well.grad(x0))) < 0.0
        assert second.gamma0 == min(max(first.gamma, config.gamma_min), config.gamma_max)


class TestBacktrack:
    """The inner loop, seen through the first trace row of one-step solves."""

    def test_immediate_acceptance(self):
        problem = make_problem(half_x_squared(), make_zero(), 1)
        report, row = one_step(problem, [1.0], 1.0, delta=0.5, tau=2.0)
        assert row.accepted_ref == 0.5
        assert row.inner_iters == 0
        assert np.array_equal(report.x_final, [0.0])
        assert report.psi_final == 0.0  # 0 <= 0.5 - 0.25

    def test_stationary_point_is_fixed(self):
        problem = make_problem(half_x_squared(2), make_zero(), 2)
        x = np.zeros(2)
        report, row = one_step(problem, x, 1.0)
        assert row.inner_iters == 0
        assert row.step_norm == 0.0
        assert np.array_equal(report.x_final, x)

    def test_quartic_overshoot_forces_backtracking(self):
        problem = make_problem(make_quartic(), make_zero(), 1)
        config = SolverConfig()
        x = np.array([2.0])
        grad = problem.smooth.grad(x)
        gamma0 = 1e-4
        # the first trial overshoots: psi at the model minimizer blows up
        cand0 = problem.nonsmooth.prox(gamma0, x - grad / gamma0)
        psi_ref = problem.smooth.eval(x)
        psi_cand0 = problem.smooth.eval(cand0)
        step0 = norm(cand0 - x)
        assert psi_cand0 > psi_ref - config.delta * (gamma0 / 2.0) * step0**2
        _, row = one_step(problem, x, gamma0)
        assert (row.gamma0, row.accepted_ref) == (gamma0, psi_ref)
        assert row.inner_iters > 0
        assert row.gamma == pytest.approx(gamma0 * config.tau**row.inner_iters, rel=1e-12)


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
        handmade = self.problem(f_cand, g_cand).smooth
        seen = []

        def feval(x):
            seen.append(float(x[0]))
            return handmade.eval(x)

        problem = make_problem(SmoothOracle("seen", feval, handmade.grad), make_zero(), 1)
        config = SolverConfig(max_inner=4, gamma0_strategy="constant", m=0)
        report = solve(problem, config, [1.0])
        assert report.status == "inner_loop_cap"
        assert report.trace.records == ()
        # x0, then the candidates 1 - 1/gamma of gamma = 1, 2, 4 and 8
        assert seen == [1.0, 0.0, 0.5, 0.75, 0.875]

    def test_solve_records_no_nan_row(self):
        config = SolverConfig(max_inner=4, gamma0_strategy="constant", m=0)
        report = solve(self.problem(math.nan, 0.0), config, [1.0])
        assert report.status == "inner_loop_cap"
        assert report.trace.records == ()
        assert report.psi_final == 0.0

    @staticmethod
    def walled_problem(f_bad, g_bad):
        # f = x^2/2 on x >= -0.5, and f_bad with gradient g_bad beyond: from
        # x0 = 1 with gamma0 = 0.5 the first trial lands on -1, past the
        # wall, and the second (gamma 1) on the minimizer 0
        def feval(x):
            return 0.5 * x[0] * x[0] if x[0] >= -0.5 else f_bad

        def fgrad(x):
            return np.array([x[0] if x[0] >= -0.5 else g_bad])

        return make_problem(SmoothOracle("walled", feval, fgrad), make_zero(), 1)

    @pytest.mark.parametrize("m", [0, 1])
    @pytest.mark.parametrize("build", ["problem", "walled_problem"])
    @pytest.mark.parametrize("f_bad, g_bad", [
        (math.nan, 0.0), (math.inf, 0.0), (-1.0, math.inf), (-1.0, math.nan)])
    def test_engine_matches_reference(self, build, f_bad, g_bad, m):
        problem = getattr(self, build)(f_bad, g_bad)
        config = SolverConfig(max_inner=4, gamma0_strategy="constant",
                              gamma0_value=0.5, m=m)
        engine = solve_quiet(problem, config, [1.0])
        ref = reference_solve(problem, config, [1.0])
        assert engine.status == ref.status
        assert ([repr(astuple(r)) for r in engine.trace.records]
                == [repr(astuple(r)) for r in ref.trace.records])
        assert engine.x_final.tobytes() == ref.x_final.tobytes()
        if build == "walled_problem":
            assert engine.status == "converged_residual"
            assert [r.inner_iters for r in engine.trace.records] == [1]

    @pytest.mark.parametrize("m", [0, 1])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_candidate_raises(self, bad, m):
        prox = ProxOracle("bad", lambda x: 0.0, lambda gamma, v: np.array([bad]))
        problem = make_problem(half_x_squared(), prox, 1)
        for run in (solve_quiet, reference_solve):
            with pytest.raises(ValueError, match="^prox oracle produced a non-finite candidate$"):
                run(problem, SolverConfig(m=m), [1.0])

    @pytest.mark.parametrize("m", [0, 1])
    def test_finite_candidate_with_overflowing_step_is_a_trial(self, m):
        # <d, d> = (2e200)^2 overflows although the candidate is finite
        prox = ProxOracle("mirror", lambda x: 0.0, lambda gamma, v: np.array([-1e200]))
        zero_f = SmoothOracle("zero", lambda x: 0.0, lambda x: np.zeros(1))
        problem = make_problem(zero_f, prox, 1)
        for run in (solve_quiet, reference_solve):
            with np.errstate(over="ignore"):
                report = run(problem, SolverConfig(max_inner=3, m=m), [1e200])
            assert report.status == "inner_loop_cap"

    @pytest.mark.parametrize("m", [0, 1])
    def test_finite_gradient_with_overflowing_square_is_a_trial(self, m):
        # f(x) = 1e200 x on [-1, 1]: the gradient is finite, <g, g> overflows,
        # and the first trial, at the minimizer -1, passes the decrease test
        linear = SmoothOracle("linear", lambda x: 1e200 * float(x[0]),
                              lambda x: np.array([1e200]))
        problem = make_problem(linear, make_box([-1.0], [1.0]), 1)
        config = SolverConfig(m=m)
        engine = solve_quiet(problem, config, [0.0])
        ref = reference_solve(problem, config, [0.0])
        assert engine.status == ref.status == "converged_residual"
        assert engine.trace.records == ref.trace.records
        assert [(r.gamma, r.inner_iters) for r in engine.trace.records] == [(1.0, 0)]
        assert engine.x_final.tolist() == ref.x_final.tolist() == [-1.0]

    @pytest.mark.parametrize("m", [0, 1])
    def test_finite_gradient_with_overflowing_residual_is_a_trial(self, m):
        # f(x) = 1e308 |x + 0.5| on [-1, 1]: from x0 = 1 the first trial, at
        # -1, passes the decrease test, and the gradient flips from 1e308 to
        # -1e308, so the residual overflows while both gradients are finite
        kink = SmoothOracle("kink", lambda x: 1e308 * abs(float(x[0]) + 0.5),
                            lambda x: np.array([math.copysign(1e308, x[0] + 0.5)]))
        problem = make_problem(kink, make_box([-1.0], [1.0]), 1)
        config = SolverConfig(m=m, max_outer=1)
        with np.errstate(over="ignore"):
            engine = solve_quiet(problem, config, [1.0])
            ref = reference_solve(problem, config, [1.0])
        assert engine.status == ref.status == "max_outer_reached"
        assert engine.trace.records == ref.trace.records
        assert [(r.gamma, r.inner_iters) for r in engine.trace.records] == [(1.0, 0)]
        assert engine.x_final.tolist() == ref.x_final.tolist() == [-1.0]
        assert engine.final_residual == ref.final_residual == math.inf


class TestOuterResidual:
    """The residual the run stops on, after short solves."""

    def test_fixed_point(self):
        # x0 sits in a corner of the box that -grad f(x0) points out of, so
        # the step is zero and the residual is exactly 0
        g = np.array([0.5, -0.5])
        x = np.array([1.0, 2.0])
        f = make_quadratic(np.eye(2), x - g)
        problem = make_problem(f, make_box([1.0, 0.0], [3.0, 2.0]), 2)
        assert np.array_equal(f.grad(x), g)
        report = solve(problem, SolverConfig(), x)
        assert np.array_equal(report.x_final, x)
        assert report.final_residual == 0.0

    def test_quadratic_exact_zero(self):
        # f = x^2/2: step from 1 with gamma=1 lands on 0 with residual 0
        problem = make_problem(half_x_squared(), make_zero(), 1)
        report, row = one_step(problem, [1.0], 1.0)
        assert (row.gamma, report.x_final.tolist()) == (1.0, [0.0])
        assert report.final_residual == 0.0

    def test_quartic_arithmetic(self):
        # 2 (1 - 0.5) + 0.5^3 - 1^3
        problem = make_problem(make_quartic(), make_zero(), 1)
        report, row = one_step(problem, [1.0], 2.0)
        assert (row.gamma, report.x_final.tolist()) == (2.0, [0.5])
        assert report.final_residual == pytest.approx(0.125, rel=1e-15)

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
        report, row = one_step(make_problem(f, make_zero(), 2), x_prev, gamma)
        assert row.gamma == gamma
        assert report.x_final.tobytes() == x_cur.tobytes()
        assert report.final_residual == norm(g_cur)


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

    def test_small_step_ends_converged_step(self):
        # gamma0 = 1e4 takes a step of 1.1e-4 <= eps_step while the residual
        # is still 1.118, so only the step-norm fallback can end the run
        problem = make_problem(make_quadratic(np.eye(2), [1.0, 0.5]), make_zero(), 2)
        config = SolverConfig(gamma0_strategy="constant", gamma0_value=1e4, eps_step=1e-3)
        report = solve(problem, config, np.zeros(2))
        assert (report.status, report.iterations) == ("converged_step", 1)
        assert len(report.trace.records) == 1
        assert report.final_residual == pytest.approx(1.118, abs=1e-3)
        assert check_acceptance(report.trace) == []
        ref = reference_nonmonotone_solve(problem, config, np.zeros(2))
        assert (ref.status, ref.final_residual) == (report.status, report.final_residual)
        assert ([repr(astuple(r)) for r in report.trace.records]
                == [repr(astuple(r)) for r in ref.trace.records])
        assert report.x_final.tobytes() == ref.x_final.tobytes()

    def test_small_step_at_gamma_max_times_tau_ends_converged_step(self):
        # f = 2 x^2 from x0 = 6e-4 at gamma0 = gamma_max = 1.5: gamma 1.5 is
        # rejected and gamma 3 = gamma_max * tau lands on -2e-4.  The step,
        # 8e-4, passes eps_step while the residual, |4 - 3| * 8e-4, exceeds
        # tau_abs, and the step-norm exit admits a gamma up to gamma_max * tau
        problem = make_problem(make_quadratic([[2.0]], [0.0]), make_zero(), 1)
        config = SolverConfig(m=0, delta=0.5, gamma_max=1.5, gamma0_strategy="constant",
                              gamma0_value=1.5, eps_step=1e-3, tau_abs=1e-4)
        report = solve(problem, config, [6e-4])
        assert (report.status, report.iterations) == ("converged_step", 1)
        assert report.trace.records[0].gamma == config.gamma_max * config.tau
        assert report.final_residual > config.tau_abs

    @pytest.mark.parametrize("tolerances, status", [
        ({"tau_abs": 0.5}, "converged_residual"),
        ({"tau_abs": 0.1, "eps_step": 0.5}, "converged_step"),
    ], ids=["residual", "step"])
    def test_exit_tolerances_are_inclusive(self, tolerances, status):
        # the first step from 1 at gamma = 2 lands on 0.5 with step norm and
        # residual both exactly 0.5, so a tolerance of 0.5 ends the run there
        config = SolverConfig(m=0, gamma0_strategy="constant", gamma0_value=2.0, **tolerances)
        report = solve(make_problem(half_x_squared(), make_zero(), 1), config, [1.0])
        assert (report.status, report.iterations) == (status, 1)
        assert (report.final_residual, report.trace.records[0].step_norm) == (0.5, 0.5)

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
        report = solve(lasso["problem"], replace(lasso["config"], m=0), lasso["x0"])
        psi = [r.psi for r in report.trace.records]
        assert all(b <= a for a, b in zip(psi, psi[1:]))

    def test_inner_cap_becomes_status(self):
        problem = make_problem(make_quartic(), make_zero(), 1)
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
        assert report.iterations == len(report.trace.records) == 3

    def test_warns_on_nonmonotone_discontinuous_phi(self):
        cfg = load_shipped("quartic_l0")
        with pytest.warns(UserWarning, match="not.*continuous"):
            solve(cfg["problem"], cfg["config"], cfg["x0"])

    def test_window_warning_points_at_the_caller(self):
        cfg = load_shipped("quartic_l0")
        with pytest.warns(UserWarning) as record:
            solve(cfg["problem"], replace(cfg["config"], max_outer=1), cfg["x0"])
        assert [w.filename for w in record] == [__file__]

    def test_report_is_x_final_and_a_view_of_its_trace(self, lasso):
        report = solve_quiet(lasso["problem"], lasso["config"], lasso["x0"])
        assert [f.name for f in fields(report)] == ["x_final", "trace"]
        trace = report.trace
        assert (report.status, report.psi_final, report.final_residual, report.iterations,
                report.early_exit_ks) == (trace.status, trace.psi_final, trace.final_residual,
                                          len(trace.records), ())
        with pytest.raises(AttributeError):
            report.status = "converged_step"

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

    def test_early_exit_trace_certifies_its_last_row(self):
        # the trace says the last step was an early exit, so check_acceptance
        # certifies its residual; read as a decrease step, it fails
        problem = make_problem(make_quadratic([[1.0]], [0.6]), make_l0(0.18), 1)
        config = SolverConfig(
            gamma_min=0.999, gamma_max=0.999, gamma0_strategy="constant",
            gamma0_value=0.999, tau_abs=1e-3, m=0,
        )
        trace = solve(problem, config, np.array([0.0])).trace
        assert trace.early_exit is True
        assert check_acceptance(trace) == []
        assert [v.k for v in check_acceptance(replace(trace, early_exit=False))] == [0]

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

    def test_inner_tolerance_is_inclusive(self):
        # tau_abs set to the residual of the early exit above still takes it
        problem = make_problem(make_quadratic([[1.0]], [0.6]), make_l0(0.18), 1)
        config = SolverConfig(
            gamma_min=0.999, gamma_max=0.999, gamma0_strategy="constant",
            gamma0_value=0.999, tau_abs=0.0006006006006006315, m=0,
        )
        report = solve(problem, config, np.array([0.0]))
        assert report.early_exit_ks == (0,)
        assert report.final_residual == config.tau_abs


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

    @pytest.mark.parametrize("older, newer", [(0.0, -0.0), (-0.0, 0.0)],
                             ids=["zero_then_minus_zero", "minus_zero_then_zero"])
    def test_tied_zeros_in_the_window_give_the_older_sign(self, older, newer):
        # unit steps x_k = k down psi = 1, older, newer, -1, -2; phi is the
        # zero function written as -0.0, so psi = f + phi keeps f's zero sign.
        # With m = 1, rows 2 and 3 are tested against the window {older,
        # newer} and {newer, -1}: max() gives the older of the tied zeros
        values = {0.0: 1.0, 1.0: older, 2.0: newer, 3.0: -1.0, 4.0: -2.0}
        smooth = SmoothOracle("steps", lambda x: values.get(float(x[0]), math.inf),
                              lambda x: np.array([-1.0]))
        problem = make_problem(smooth, ProxOracle("minus_zero", lambda x: -0.0,
                                                  lambda gamma, v: v), 1)
        config = SolverConfig(m=1, gamma0_strategy="constant", gamma0_value=1.0, max_outer=4)
        engine = solve(problem, config, np.zeros(1))
        assert [repr(r.accepted_ref) for r in engine.trace.records] == [
            "1.0", "1.0", repr(older), repr(newer)]
        ref = reference_nonmonotone_solve(problem, config, np.zeros(1))
        assert ([repr(astuple(r)) for r in engine.trace.records]
                == [repr(astuple(r)) for r in ref.trace.records])

    def test_lasso_window_config_is_decided_by_the_window(self):
        # the shipped config where the window changes the run: monotone, psi
        # never rises; with the shipped m = 5 it rises 9 times, and the run
        # takes fewer iterations and trials
        cfg = load_shipped("lasso_window")
        assert cfg["config"].m == 5
        runs = {}
        for m in (0, 5):
            report = solve(cfg["problem"], replace(cfg["config"], m=m), cfg["x0"])
            psi = [r.psi for r in report.trace.records] + [report.psi_final]
            runs[m] = (report.status, report.iterations,
                       sum(r.inner_iters + 1 for r in report.trace.records),
                       sum(b > a for a, b in zip(psi, psi[1:])))
        assert runs == {0: ("converged_residual", 48, 78, 0), 5: ("converged_residual", 41, 44, 9)}


@pytest.mark.parametrize("prox_name", PROX)
@pytest.mark.parametrize("smooth_name", ["quadratic", "logistic", "quartic"])
# no shrinking: a failing draw is reported as drawn, not minimized for minutes
@settings(derandomize=True, deadline=None, max_examples=5,
          phases=[Phase.explicit, Phase.generate])
@given(m=st.integers(0, 10), strategy=st.sampled_from(["constant", "bb_safeguarded"]),
       seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 4))
def test_engine_equals_reference_on_seeded_problems(smooth_name, prox_name, m, strategy,
                                                    seed, dim):
    problem, x0 = seeded_problem(smooth_name, prox_name, seed, dim)
    config = SolverConfig(m=m, gamma0_strategy=strategy, gamma0_value=0.5, max_outer=100)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        engine = solve(problem, config, x0)
    # l0 is not continuous on its domain, so the window voids the paper's
    # guarantees: the engine says so, and the tail checkers have no claim
    # to check, while the per-row ones hold by construction
    assert [str(w.message).split(":")[0] for w in caught] == (
        [f"nonmonotone window m={m} with a nonsmooth term that is not continuous on its domain"]
        if prox_name == "l0" and m > 0 else [])
    assert check_acceptance(engine.trace) == []
    assert check_envelope(engine.trace, m)
    assert check_level_set(engine.trace)
    # the inner early-exit residual is the one the run stops on
    assert engine.early_exit_ks in ((), (engine.iterations - 1,))
    if engine.early_exit_ks:
        assert engine.status == "converged_residual"
    ref = reference_solve(problem, config, x0)
    assert (engine.status, engine.early_exit_ks) == (ref.status, ref.early_exit_ks)
    assert ([repr(astuple(r)) for r in engine.trace.records]
            == [repr(astuple(r)) for r in ref.trace.records])
    assert engine.x_final.tobytes() == ref.x_final.tobytes()


@pytest.mark.parametrize("prox_name", PROX)
@pytest.mark.parametrize("smooth_name", ["quadratic", "logistic"])
@settings(derandomize=True, deadline=None, max_examples=2,
          phases=[Phase.explicit, Phase.generate])
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 4))
def test_backtracking_stops_by_the_lipschitz_bound(smooth_name, prox_name, seed, dim):
    # prox minimizes the model exactly, so by the descent lemma a trial at
    # gamma with gamma (1 - delta) >= L passes sufficient decrease: a row
    # that backtracked rejected gamma / tau, which must lie below that bound
    problem, x0 = seeded_problem(smooth_name, prox_name, seed, dim)
    L = seeded_lipschitz(smooth_name, seed, dim)
    for m in (0, 3, 10):
        for strategy in ("constant", "bb_safeguarded"):
            config = SolverConfig(m=m, gamma0_strategy=strategy, gamma0_value=0.5,
                                  max_outer=30)
            report = solve_quiet(problem, config, x0)
            records = report.trace.records
            for r in records:
                if r.inner_iters > 0:
                    assert (r.gamma / config.tau) * (1 - config.delta) < L * (1 + 1e-12)
            assert check_acceptance(report.trace) == []
            assert check_envelope(report.trace, m)
            assert check_level_set(report.trace)
            if m == 0:
                psi = [r.psi for r in records]
                assert all(b <= a for a, b in zip(psi, psi[1:]))
            assert report.early_exit_ks in ((), (len(records) - 1,))
            if report.early_exit_ks:
                assert report.status == "converged_residual"
