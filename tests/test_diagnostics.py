import dataclasses
import math

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
from proxgrad.solver import SolverConfig, solve_monotone

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
        trace = solve_monotone(cfg["problem"], cfg["config"], cfg["x0"]).trace
        assert check_acceptance(trace) == []
        psi = [r.psi for r in trace.records]
        for k, rec in enumerate(trace.records[:-1]):
            bound = psi[k] - cfg["config"].delta * (rec.gamma / 2.0) * rec.step_norm**2
            assert psi[k + 1] <= bound + 1e-10

    def test_requires_config_when_no_echo(self):
        trace, _ = lasso_trace()
        bare = dataclasses.replace(trace, config_echo=None)
        with pytest.raises(TraceFormatError):
            check_acceptance(bare)
        assert check_acceptance(bare, delta=1e-4, m=5) == []


class TestCheckEnvelope:
    def test_decreasing_sequence(self):
        assert check_envelope(synth_trace([5.0, 4.0, 3.0, 2.0]), m=0)

    def test_hand_rolled_counterexample(self):
        # psi (5,6,4,3) with m=1 has envelope (5,6,6,4): rises at k=1
        assert not check_envelope(synth_trace([5.0, 6.0, 4.0, 3.0]), m=1)

    def test_shipped_runs_with_window(self):
        for name in ("lasso_small", "quartic_box", "logistic_l1"):
            cfg = load_shipped(name)
            trace = solve_quiet(cfg["problem"], cfg["config"], cfg["x0"]).trace
            assert check_envelope(trace, cfg["config"].m)


class TestCheckLevelSet:
    def test_solver_trace(self):
        trace, _ = lasso_trace()
        assert check_level_set(trace)

    def test_single_row(self):
        assert check_level_set(synth_trace([1.0]))

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


class TestTraceCsv:
    def test_round_trip_identity(self, tmp_path):
        trace, _ = lasso_trace()
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        back = read_trace_csv(path)
        assert back == trace

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
        rec = IterateRecord(k=0, psi=0.1, f_val=0.1, phi_val=0.0, gamma0=1.0,
                            gamma=1.0, inner_iters=0, step_norm=1 / 3,
                            residual=math.inf, accepted_ref=0.1)
        trace = Trace(records=(rec,), config_echo=SolverConfig(),
                      problem_name="p", x0_hash="a" * 16)
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        row = path.read_text().splitlines()[2]
        assert "0.10000000000000001" in row  # 17 significant digits
        assert "0.33333333333333331" in row
        assert read_trace_csv(path).records[0].step_norm == 1 / 3

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

    def test_rejects_noncontiguous_indices(self):
        rec = IterateRecord(k=3, psi=0.0, f_val=0.0, phi_val=0.0, gamma0=1.0,
                            gamma=1.0, inner_iters=0, step_norm=0.0,
                            residual=math.inf, accepted_ref=0.0)
        with pytest.raises(TraceFormatError, match="contiguous"):
            Trace(records=(rec,))

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
