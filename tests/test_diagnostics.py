import copy
import dataclasses
import errno
import hashlib
import json
import math
import os
import pickle

import numpy as np
import pytest

from proxgrad.diagnostics import (
    IterateRecord,
    Trace,
    TraceFormatError,
    check_acceptance,
    check_envelope,
    check_gamma_step_product,
    check_level_set,
    check_vanishing_steps,
    gamma_bound_report,
    read_trace_csv,
    write_trace_csv,
)
from proxgrad.diagnostics import _PSI_TOL, _window_maxima
from proxgrad.solver import SolverConfig, hash_x0, solve

from conftest import load_shipped, solve_quiet, synth_trace


def lasso_trace():
    cfg = load_shipped("lasso_small")
    return solve_quiet(cfg["problem"], cfg["config"], cfg["x0"]).trace, cfg["config"]


def perturb_psi(trace, row, amount=1.0):
    records = list(trace.records)
    records[row] = dataclasses.replace(records[row], psi=records[row].psi + amount)
    return dataclasses.replace(trace, records=tuple(records))


class TestCheckAcceptance:
    def test_solver_trace_is_clean(self):
        trace, _ = lasso_trace()
        assert check_acceptance(trace) == []

    def test_perturbed_psi_is_flagged_once(self):
        trace, _ = lasso_trace()
        bad = perturb_psi(trace, row=10)
        violations = check_acceptance(bad)
        assert len(violations) == 1
        assert violations[0].k == 9  # the certificate that produced row 10's psi

    def test_m0_reduces_to_plain_sufficient_decrease(self):
        cfg = load_shipped("lasso_small")
        config = dataclasses.replace(cfg["config"], m=0)
        trace = solve(cfg["problem"], config, cfg["x0"]).trace
        assert check_acceptance(trace) == []
        psi = [r.psi for r in trace.records]
        for k, rec in enumerate(trace.records[:-1]):
            bound = psi[k] - cfg["config"].delta * (rec.gamma / 2.0) * rec.step_norm**2
            assert psi[k + 1] <= bound + 1e-10

    def test_bound_subtracts_the_decrease_term(self):
        # bound = psi[0] - delta * (gamma / 2) * step**2 = 1 - 0.5 * 0.5 * 1 = 0.75
        config = SolverConfig(delta=0.5, m=0)
        at_bound = synth_trace([1.0, 0.75], step_norm=[1.0, 0.0], config=config)
        assert check_acceptance(at_bound) == []
        above = synth_trace([1.0, 0.76], step_norm=[1.0, 0.0], config=config)
        assert [(v.k, v.detail) for v in check_acceptance(above)] == [
            (0, "psi[1]=0.76000000000000001 exceeds bound 0.75")]

    def test_last_certified_row_is_checked(self):
        # row n-2 certifies the last row's psi
        violations = check_acceptance(synth_trace([3.0, 2.0, 5.0]))
        assert [v.k for v in violations] == [1]

    def test_last_row_is_certified_by_psi_final(self):
        trace = synth_trace([3.0, 2.0, 1.0], config=SolverConfig(m=0))
        assert check_acceptance(trace) == []
        above = dataclasses.replace(trace, psi_final=1.5)
        assert [(v.k, v.detail) for v in check_acceptance(above)] == [
            (2, "psi[3]=1.5 exceeds bound 1")]

    @pytest.mark.parametrize("final_residual, want", [
        (1e-6, []),
        (0.5, [(2, "early exit residual 0.5 exceeds tau_abs 9.9999999999999995e-07")]),
    ], ids=["within_tau_abs", "above_tau_abs"])
    def test_early_exit_row_is_certified_by_its_residual(self, final_residual, want):
        # an early exit failed sufficient decrease, so its psi_final may lie
        # above the bound; its residual must be within tau_abs instead
        trace = dataclasses.replace(synth_trace([3.0, 2.0, 1.0]), status="converged_residual",
                                    psi_final=1.5, final_residual=final_residual,
                                    early_exit=True)
        assert [(v.k, v.detail) for v in check_acceptance(trace)] == want

    def test_row_whose_residual_passed_the_stop_test_is_flagged(self):
        # the engine stops at an iterate whose residual is within tau_abs, the
        # bound included, so no recorded row may show one
        trace, config = lasso_trace()
        records = list(trace.records)
        records[5] = dataclasses.replace(records[5], residual=config.tau_abs)
        bad = dataclasses.replace(trace, records=tuple(records))
        assert [(v.k, v.detail) for v in check_acceptance(bad)] == [
            (5, "residual 9.9999999999999995e-07 <= tau_abs 9.9999999999999995e-07: "
                "the run stops at this iterate")]

    def test_psi_tol_tie_passes_acceptance(self):
        # row 0's bound is psi[0] (a zero step), and psi[1] lies on bound + _PSI_TOL
        assert check_acceptance(synth_trace([1.0, 1.0 + _PSI_TOL])) == []

    @staticmethod
    def backtracked(gamma0, gamma, inner_iters, config):
        """A two-row trace whose row 0 went from gamma0 to gamma in inner_iters trials."""
        trace = synth_trace([2.0, 1.0], config=config)
        row = dataclasses.replace(trace.records[0], gamma0=gamma0, gamma=gamma,
                                  inner_iters=inner_iters)
        return dataclasses.replace(trace, records=(row,) + trace.records[1:])

    def test_gamma_is_gamma0_times_tau_per_trial_in_the_engines_order(self):
        # four multiplications by 1.1 round to another double than 1.1**4 does
        config = SolverConfig(tau=1.1)
        gamma = 1.0 * 1.1 * 1.1 * 1.1 * 1.1
        assert gamma != 1.1**4
        assert check_acceptance(self.backtracked(1.0, gamma, 4, config)) == []
        assert [(v.k, v.detail) for v in check_acceptance(
            self.backtracked(1.0, 1.1**4, 4, config))] == [
            (0, "gamma 1.4641000000000004 is not gamma0 1 after 4 of at most 99 "
                "backtracking steps")]

    @pytest.mark.parametrize("gamma0, flagged", [
        (0.5, False), (0.49999999999999994, True), (4.0, False), (4.000000000000001, True),
        (math.nan, True),
    ], ids=["gamma_min", "below_gamma_min", "gamma_max", "above_gamma_max", "nan"])
    def test_gamma0_lies_in_its_clamp_range(self, gamma0, flagged):
        # the engine clamps every guess to [gamma_min, gamma_max]
        trace = self.backtracked(gamma0, gamma0, 0, SolverConfig(gamma_min=0.5, gamma_max=4.0))
        want = [(0, f"gamma0 {gamma0:.17g} lies outside [gamma_min, gamma_max] = [0.5, 4]")]
        assert [(v.k, v.detail) for v in check_acceptance(trace)][:1] == (want if flagged else [])

    @pytest.mark.parametrize("inner_iters, gamma, flagged", [
        (9, 2.0**9, False), (10, 2.0**10, True), (-1, 1.0, True),
    ], ids=["last_trial", "max_inner", "negative"])
    def test_inner_iters_lies_below_max_inner(self, inner_iters, gamma, flagged):
        trace = self.backtracked(1.0, gamma, inner_iters, SolverConfig(max_inner=10))
        assert [v.k for v in check_acceptance(trace)] == ([0] if flagged else [])


class TestCheckEnvelope:
    def test_decreasing_sequence(self):
        assert check_envelope(synth_trace([5.0, 4.0, 3.0, 2.0]), m=0)

    def test_hand_rolled_counterexample(self):
        # psi (5,6,4,3) with m=1 has envelope (5,6,6,4): rises at k=1
        assert not check_envelope(synth_trace([5.0, 6.0, 4.0, 3.0]), m=1)

    def test_rise_at_the_last_pair_is_flagged(self):
        assert not check_envelope(synth_trace([3.0, 2.0, 4.0]), m=0)

    def test_psi_tol_tie_passes_envelope(self):
        assert check_envelope(synth_trace([1.0, 1.0 + _PSI_TOL]), m=0)

    def test_shipped_runs_with_window(self):
        for name in ("lasso_small", "quartic_box", "logistic_l1"):
            cfg = load_shipped(name)
            trace = solve_quiet(cfg["problem"], cfg["config"], cfg["x0"]).trace
            assert check_envelope(trace, cfg["config"].m)


@pytest.mark.parametrize("m", [0, 1, 3, 2**70])
def test_window_maxima_are_the_slice_maxima(m):
    # max() keeps the first of incomparable values, so NaN and signed zeros
    # show whether the window is scanned oldest first, as the slice is
    psi = [3.0, math.nan, -0.0, 0.0, 5.0, 1.0, math.nan, 2.0, 0.0, -0.0, -1.0]
    want = [max(psi[max(0, k - m): k + 1]) for k in range(len(psi))]
    assert [repr(v) for v in _window_maxima(psi, m)] == [repr(v) for v in want]
    assert _window_maxima([], m) == []


def test_window_keeps_its_front_until_it_leaves():
    # at k = m nothing has left the window yet; psi[k - m - 1] would be psi[-1]
    assert _window_maxima([2.0, 1.0, 2.0], 1) == [2.0, 2.0, 2.0]


@pytest.mark.parametrize("m", [-1, 1.5, "1"],
                         ids=["check_envelope", "check_envelope-float", "check_envelope-str"])
def test_negative_window_is_a_value_error(m):
    with pytest.raises(ValueError, match=f"^m must be a nonnegative integer, got {m!r}$"):
        check_envelope(synth_trace([1.0, 0.5]), m)


def test_numpy_integer_window_is_a_window():
    assert check_envelope(synth_trace([1.0, 0.5]), np.int64(1))


@pytest.mark.parametrize("m, want", [
    (0, [-0.0, 0.0, 0.0, -0.0, -1.0]),
    (1, [-0.0, -0.0, 0.0, 0.0, -0.0]),
    (10**9, [-0.0] * 5),
])
def test_window_maxima_keep_the_oldest_of_tied_zeros(m, want):
    # -0.0 == 0.0, so the zero that entered the window first is its maximum
    psi = [-0.0, 0.0, 0.0, -0.0, -1.0]
    assert [repr(v) for v in _window_maxima(psi, m)] == [repr(v) for v in want]


class TestCheckLevelSet:
    def test_solver_trace(self):
        trace, _ = lasso_trace()
        assert check_level_set(trace)

    def test_single_row(self):
        assert check_level_set(synth_trace([1.0]))

    def test_psi_tol_tie_passes_level_set(self):
        assert check_level_set(synth_trace([1.0, 1.0 + _PSI_TOL]))

    def test_injected_rise_detected(self):
        trace = synth_trace([2.0, 1.5, 1.0, 1.4, 0.5])
        bad = perturb_psi(trace, row=3, amount=2.0 - 1.4 + 1.0)
        assert not check_level_set(bad)


class TestCheckVanishingSteps:
    def test_converged_lasso(self):
        trace, _ = lasso_trace()
        assert check_vanishing_steps(trace, 1e-6)

    def test_constant_steps_fail(self):
        trace = synth_trace([float(-k) for k in range(20)], step_norm=[1.0] * 20)
        assert not check_vanishing_steps(trace, 1e-6)

    def test_trailing_zero_step_passes_any_tol(self):
        steps = [1.0] * 19 + [0.0]
        trace = synth_trace([float(-k) for k in range(20)], step_norm=steps)
        assert check_vanishing_steps(trace, 0.0)

    def test_requires_ten_rows(self):
        with pytest.raises(ValueError, match="10"):
            check_vanishing_steps(synth_trace([1.0, 0.5]), 1e-6)

    def test_ten_rows_are_enough(self):
        trace = synth_trace([float(-k) for k in range(10)], step_norm=[1.0] * 9 + [0.0])
        assert check_vanishing_steps(trace, 0.0)

    def test_steps_before_the_last_tenth_do_not_count(self):
        # of 20 rows the tail is the last 2, so row 0's zero step is outside it
        trace = synth_trace([float(-k) for k in range(20)], step_norm=[0.0] + [1.0] * 19)
        assert not check_vanishing_steps(trace, 0.5)


class TestCheckGammaStepProduct:
    def test_converged_lasso(self):
        trace, _ = lasso_trace()
        assert check_gamma_step_product(trace, 1e-5)

    def test_quartic_box(self):
        cfg = load_shipped("quartic_box")
        trace = solve_quiet(cfg["problem"], cfg["config"], cfg["x0"]).trace
        assert check_gamma_step_product(trace, 1e-5)

    def test_large_gamma_small_step_fails(self):
        trace = synth_trace(
            [float(-k) for k in range(20)],
            step_norm=[1e-3] * 20,
            gamma=[1e8] * 20,
        )
        assert not check_gamma_step_product(trace, 1e-5)

    def test_requires_ten_rows(self):
        with pytest.raises(ValueError, match="10"):
            check_gamma_step_product(synth_trace([1.0] * 9), 1e-5)

    def test_ten_rows_are_enough(self):
        trace = synth_trace([float(-k) for k in range(10)], step_norm=[1.0] * 9 + [0.0])
        assert check_gamma_step_product(trace, 0.0)


@pytest.mark.parametrize("checker", [check_vanishing_steps, check_gamma_step_product])
@pytest.mark.parametrize("tail", [[1e-9, math.nan], [math.nan, 1e-9], [math.nan, math.nan]],
                         ids=["nan_last", "nan_first", "nan_only"])
def test_a_nan_in_the_tail_fails_wherever_it_sits(checker, tail):
    # of 20 rows the tail is the last 2; min() kept 1e-9 when the NaN came second
    trace = synth_trace([float(-k) for k in range(20)], step_norm=[1.0] * 18 + tail)
    assert not checker(trace, 1e-6)
    # a NaN before the tail is not read
    trace = synth_trace([float(-k) for k in range(20)], step_norm=[math.nan] * 18 + [1e-9] * 2)
    assert checker(trace, 1e-6)


class TestGammaBoundReport:
    def test_shipped_run(self):
        trace, config = lasso_trace()
        report = gamma_bound_report(trace)
        assert report.max_gamma == 5.0
        assert report.trend_flag is False

    def test_trend_detected(self):
        n = 20
        trace = synth_trace([float(-k) for k in range(n)], gamma=[1e9] * n,
                            config=SolverConfig(gamma_max=1e6))
        assert gamma_bound_report(trace).trend_flag is True

    def test_empty_trace(self):
        report = gamma_bound_report(synth_trace([]))
        assert (report.max_gamma, report.trend_flag) == (0.0, False)

    @pytest.mark.parametrize("gamma", [[1.0, math.nan, 2.0], [math.nan, 1.0, 2.0]],
                             ids=["nan_inside", "nan_first"])
    def test_nan_gamma_makes_max_gamma_nan(self, gamma):
        # max() skips a NaN after the first value, so the position must not matter
        assert math.isnan(gamma_bound_report(synth_trace([3.0, 2.0, 1.0], gamma=gamma)).max_gamma)

    # with tau = 2 and gamma_max = 1, a gamma above 2 shows growth
    GROWTH = SolverConfig(tau=2.0, gamma_max=1.0)

    def test_trend_reads_only_the_last_quarter(self):
        trace = synth_trace([float(-k) for k in range(8)], gamma=[1.0] * 6 + [3.0] * 2,
                            config=self.GROWTH)
        assert gamma_bound_report(trace).trend_flag is True

    def test_gamma_at_tau_times_gamma_max_is_not_a_trend(self):
        trace = synth_trace([float(-k) for k in range(8)], gamma=[2.0] * 8, config=self.GROWTH)
        assert gamma_bound_report(trace).trend_flag is False

    def test_short_trace_trend_reads_its_last_row(self):
        # a quarter of 4 rows is one row
        trace = synth_trace([3.0, 2.0, 1.0, 0.0], gamma=[1.0, 1.0, 1.0, 3.0], config=self.GROWTH)
        assert gamma_bound_report(trace).trend_flag is True


class TestIterateRecord:
    FIELDS = ("psi", "f_val", "phi_val", "gamma0", "gamma", "inner_iters", "step_norm",
              "residual", "accepted_ref")
    VALUES = (0.5, 0.25, 0.125, 2.0, 4.0, 1, 0.0625, math.inf, 0.75)

    def test_positional_and_keyword_records_are_equal_field_for_field(self):
        rec = IterateRecord(*self.VALUES)
        assert rec == IterateRecord(**dict(zip(self.FIELDS, self.VALUES)))
        assert tuple(f.name for f in dataclasses.fields(IterateRecord)) == self.FIELDS
        assert tuple(getattr(rec, name) for name in self.FIELDS) == self.VALUES
        assert dataclasses.astuple(rec) == self.VALUES

    def test_frozen_and_slotted(self):
        rec = IterateRecord(*self.VALUES)
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.psi = 1.0
        assert not hasattr(rec, "__dict__")

    def test_compares_hashes_and_copies_by_value(self):
        rec = IterateRecord(*self.VALUES)
        other = IterateRecord(*self.VALUES[:-1], 0.5)
        assert rec != other and hash(rec) == hash(IterateRecord(*self.VALUES))
        assert len({rec, IterateRecord(*self.VALUES), other}) == 2
        assert dataclasses.replace(other, accepted_ref=0.75) == rec
        for back in (copy.copy(rec), pickle.loads(pickle.dumps(rec))):
            assert back == rec and back is not rec
            with pytest.raises(dataclasses.FrozenInstanceError):
                back.gamma = 1.0


class TestTraceCsv:
    def test_round_trip_identity(self, tmp_path):
        trace, _ = lasso_trace()
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        back = read_trace_csv(path)
        assert back == trace

    def test_metadata_line_states_the_run_end(self, tmp_path):
        trace, _ = lasso_trace()
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        meta = json.loads(path.read_text().splitlines()[0][len("# proxgrad-trace "):])
        assert sorted(meta) == ["config", "early_exit", "final_residual", "problem_name",
                                "psi_final", "status", "x0_hash"]
        assert (meta["status"], meta["psi_final"], meta["final_residual"], meta["early_exit"]) == (
            "converged_residual", trace.psi_final, trace.final_residual, False)

    @pytest.mark.parametrize("end", [
        {"status": "inner_loop_cap", "final_residual": math.inf},
        {"status": "converged_residual", "final_residual": 1e-7, "early_exit": True},
    ], ids=["inner_cap_at_k0", "early_exit"])
    def test_run_end_round_trips(self, tmp_path, end):
        trace = dataclasses.replace(synth_trace([2.0, 1.0]), **end)
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        assert read_trace_csv(path) == trace

    @pytest.mark.parametrize("config", [SolverConfig(), SolverConfig(
        tau=3.0, gamma_min=1e-6, gamma_max=1e6, delta=0.5, m=0, gamma0_strategy="constant",
        gamma0_value=0.5, tau_abs=1e-9, eps_step=1e-12, max_outer=7, max_inner=9)],
        ids=["default", "every_field_set"])
    def test_metadata_config_is_every_field_of_the_config(self, tmp_path, config):
        trace = dataclasses.replace(synth_trace([2.0, 1.0]), config_echo=config)
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        meta = json.loads(path.read_text().splitlines()[0][len("# proxgrad-trace "):])
        assert meta["config"] == dataclasses.asdict(config)
        assert read_trace_csv(path).config_echo == config

    def test_rewrite_reproduces_the_file_byte_for_byte(self, tmp_path):
        # NaN != NaN, so the bytes are what a second write must reproduce
        extremes = [-0.0, 5e-324, 1.7976931348623157e308, math.nan]
        records = tuple(
            IterateRecord(*(extremes[(k + j) % 4] for j in range(5)), k,
                          extremes[(k + 2) % 4], math.inf if k in (0, 3) else extremes[k % 4],
                          extremes[(k + 1) % 4])
            for k in range(5))
        trace = dataclasses.replace(synth_trace([1.0] * 5), records=records)
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace_csv(trace, first)
        write_trace_csv(read_trace_csv(first), second)
        assert second.read_bytes() == first.read_bytes()
        rows = first.read_text().splitlines()[2:]
        assert [row.split(",")[8] for row in rows] == [
            "", "4.9406564584124654e-324", "1.7976931348623157e+308", "", "-0"]

    def test_minus_inf_residual_round_trips(self, tmp_path):
        # only +inf is the empty-field sentinel; -inf passes the stop test
        trace, _ = lasso_trace()
        records = list(trace.records)
        records[5] = dataclasses.replace(records[5], residual=-math.inf)
        trace = dataclasses.replace(trace, records=tuple(records))
        assert [v.k for v in check_acceptance(trace)] == [5]
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        assert path.read_text().splitlines()[7].split(",")[8] == "-inf"
        back = read_trace_csv(path)
        assert back == trace
        assert [v.k for v in check_acceptance(back)] == [5]

    def test_first_bad_field_in_column_order_is_reported(self, tmp_path):
        trace, _ = lasso_trace()
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        lines = path.read_text().splitlines()
        parts = lines[3].split(",")
        parts[1], parts[3] = "f?", "psi?"
        lines[3] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceFormatError, match="could not convert string to float: 'f\\?'"):
            read_trace_csv(path)

    def test_gamma0_is_read_from_its_own_column(self, tmp_path):
        trace = synth_trace([2.0, 1.0])
        records = (dataclasses.replace(trace.records[0], gamma0=0.25),) + trace.records[1:]
        trace = dataclasses.replace(trace, records=records)
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        assert read_trace_csv(path) == trace

    def test_residual_sentinel_empty_field(self, tmp_path):
        trace, _ = lasso_trace()
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        lines = path.read_text().splitlines()
        header = lines[1]
        assert header == "k,f,phi,psi,gamma0,gamma,inner_iters,step_norm,residual,accepted_ref"
        first = lines[2].split(",")
        assert first[0] == "0"
        assert first[8] == ""  # k = 0 residual sentinel
        assert math.isinf(read_trace_csv(path).records[0].residual)

    def test_17_digit_floats(self, tmp_path):
        rec = IterateRecord(psi=0.1, f_val=0.1, phi_val=0.0, gamma0=1.0,
                            gamma=1.0, inner_iters=0, step_norm=1 / 3,
                            residual=math.inf, accepted_ref=0.1)
        trace = Trace(records=(rec,), config_echo=SolverConfig(),
                      problem_name="p", x0_hash="a" * 16, status="max_outer_reached",
                      psi_final=0.1, final_residual=1.0, early_exit=False)
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        row = path.read_text().splitlines()[2]
        assert "0.10000000000000001" in row  # 17 significant digits
        assert "0.33333333333333331" in row
        assert read_trace_csv(path).records[0].step_norm == 1 / 3

    def test_row_and_x0_bytes_match_format_spec(self, tmp_path):
        # each field as format(value, ".17g") gives it, and a +inf residual
        # as an empty field; -inf is a number like any other
        def fmt(value):
            return f"{value:.17g}"

        values = [-0.0, 5e-324, 1e308, 1 / 3, math.nan, math.inf, -math.inf]
        records = tuple(
            IterateRecord(psi=v, f_val=values[k - 1], phi_val=values[k - 2],
                          gamma0=values[k - 3], gamma=values[k - 4], inner_iters=k,
                          step_norm=values[k - 5], residual=values[k - 6],
                          accepted_ref=v)
            for k, v in enumerate(values))
        path = tmp_path / "t.csv"
        write_trace_csv(Trace(records=records, config_echo=SolverConfig(), problem_name="p",
                              x0_hash="a" * 16, status="max_outer_reached", psi_final=0.1,
                              final_residual=1.0, early_exit=False), path)
        want = []
        for k, r in enumerate(records):
            residual = "" if r.residual == math.inf else fmt(r.residual)
            want.append(f"{k},{fmt(r.f_val)},{fmt(r.phi_val)},{fmt(r.psi)},"
                        f"{fmt(r.gamma0)},{fmt(r.gamma)},{r.inner_iters},"
                        f"{fmt(r.step_norm)},{residual},{fmt(r.accepted_ref)}")
        rows = path.read_text().splitlines()[2:]
        assert rows == want
        assert sum(row.split(",")[8] == "" for row in rows) == 1
        x0 = np.array(values)
        text = ",".join(fmt(float(c)) for c in x0)
        assert hash_x0(x0) == hashlib.sha256(text.encode("ascii")).hexdigest()[:16]
        assert hash_x0(values) == hash_x0(x0)

    def test_byte_determinism(self, tmp_path):
        trace, _ = lasso_trace()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace_csv(trace, a)
        write_trace_csv(trace, b)
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("not,a,trace\n1,2,3\n")
        with pytest.raises(TraceFormatError):
            read_trace_csv(path)

    def test_rejects_wrong_header(self, tmp_path):
        trace, _ = lasso_trace()
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace("gamma0,gamma", "gamma,gamma0")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceFormatError, match="missing or wrong header"):
            read_trace_csv(path)

    @pytest.mark.parametrize("edit, fragment", [
        (lambda parts: parts[:1] + [f'"{parts[1]}"'] + parts[2:], "bad row"),
        (lambda parts: parts + ["0"], "row has 11 fields"),
    ])
    def test_rejects_quoted_field_and_extra_field(self, tmp_path, edit, fragment):
        # the writer never quotes, so a quoted field is not a number
        trace, _ = lasso_trace()
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        lines = path.read_text().splitlines()
        lines[3] = ",".join(edit(lines[3].split(",")))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceFormatError, match=fragment):
            read_trace_csv(path)

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(TraceFormatError):
            read_trace_csv(path)

    @pytest.mark.parametrize("edit, fragment", [
        (lambda meta: {**meta, "config": None}, "bad metadata: "),
        (lambda meta: {k: v for k, v in meta.items() if k != "x0_hash"},
         "bad metadata: missing key 'x0_hash'"),
        (lambda meta: {k: v for k, v in meta.items() if k != "status"},
         "bad metadata: missing key 'status'"),
        (lambda meta: {**meta, "psi_final": None}, "bad metadata: float"),
        (lambda meta: {**meta, "early_exit": "false"},
         "bad metadata: status must be a string and early_exit a boolean"),
        (lambda meta: {**meta, "status": 0},
         "bad metadata: status must be a string and early_exit a boolean"),
        (lambda meta: {**meta, "status": "bogus"}, "bad metadata: unknown status 'bogus'"),
        (lambda meta: {**meta, "status": "max_outer_reached", "early_exit": True},
         "bad metadata: an early exit ends 'converged_residual', not 'max_outer_reached'"),
    ], ids=["null_config", "no_x0_hash", "no_status", "null_psi_final", "string_early_exit",
            "number_status", "unknown_status", "early_exit_with_another_status"])
    def test_rejects_metadata_without_config(self, tmp_path, edit, fragment):
        # delta and m come from the trace's config, so a trace must carry one
        trace, _ = lasso_trace()
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        lines = path.read_text().splitlines()
        meta = json.loads(lines[0][len("# proxgrad-trace "):])
        lines[0] = "# proxgrad-trace " + json.dumps(edit(meta))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceFormatError, match=fragment):
            read_trace_csv(path)

    def test_rejects_noncontiguous_indices(self, tmp_path):
        # a record's index is its position, so only a file can get one wrong:
        # a dropped row and a duplicated row both break the k column
        trace, _ = lasso_trace()
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        lines = path.read_text().splitlines()
        for edited, fragment in [(lines[:4] + lines[5:], "row 2 has k='3'"),
                                 (lines[:5] + lines[4:], "row 3 has k='2'")]:
            path.write_text("\n".join(edited) + "\n")
            with pytest.raises(TraceFormatError, match="contiguous from 0; " + fragment):
                read_trace_csv(path)

    def test_corrupted_psi_still_parses(self, tmp_path):
        # semantic corruption must load so the checkers can flag it
        trace, _ = lasso_trace()
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        lines = path.read_text().splitlines()
        parts = lines[12].split(",")
        parts[3] = repr(float(parts[3]) + 1.0)
        lines[12] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        loaded = read_trace_csv(path)
        assert len(check_acceptance(loaded)) == 1


class TestTraceWrite:
    """An existing file is rewritten in place and cut to the length written."""

    @pytest.mark.parametrize("rows", [(30, 3), (3, 30)], ids=["shorter", "longer"])
    def test_rewrite_leaves_exactly_the_new_bytes(self, tmp_path, rows):
        trace, _ = lasso_trace()
        first, second = (dataclasses.replace(trace, records=trace.records[:n]) for n in rows)
        path, fresh = tmp_path / "t.csv", tmp_path / "fresh.csv"
        write_trace_csv(first, path)
        write_trace_csv(second, path)
        write_trace_csv(second, fresh)
        assert path.read_bytes() == fresh.read_bytes()
        assert read_trace_csv(path) == second

    @pytest.mark.parametrize("umask", [0o002, 0o077], ids=["umask_002", "umask_077"])
    def test_new_file_gets_the_mode_open_gives(self, tmp_path, umask):
        trace = synth_trace([2.0, 1.0])
        old = os.umask(umask)
        try:
            write_trace_csv(trace, tmp_path / "t.csv")
            open(tmp_path / "plain.csv", "w").close()
        finally:
            os.umask(old)
        assert (tmp_path / "t.csv").stat().st_mode == (tmp_path / "plain.csv").stat().st_mode

    def test_short_writes_are_resumed(self, tmp_path, monkeypatch):
        trace, _ = lasso_trace()
        expected = tmp_path / "expected.csv"
        write_trace_csv(trace, expected)
        real_write = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, data[:100]))
        write_trace_csv(trace, tmp_path / "t.csv")
        monkeypatch.undo()
        assert (tmp_path / "t.csv").read_bytes() == expected.read_bytes()

    def test_a_failed_write_leaves_an_empty_file(self, tmp_path, monkeypatch):
        # the disk fills after a short write: neither the old trace nor the
        # part of the new one written survives
        trace, _ = lasso_trace()
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        real_write, calls = os.write, []

        def disk_fills(fd, data):
            calls.append(fd)
            if len(calls) > 1:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return real_write(fd, data[:100])

        monkeypatch.setattr(os, "write", disk_fills)
        with pytest.raises(OSError) as info:
            write_trace_csv(dataclasses.replace(trace, records=trace.records[:3]), path)
        monkeypatch.undo()
        assert info.value.errno == errno.ENOSPC and len(calls) == 2
        assert path.read_bytes() == b""
