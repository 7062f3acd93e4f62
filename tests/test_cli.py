import copy
import dataclasses
import json
import logging
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import proxgrad
from proxgrad.cli import _resolve_config_path, build_prox, main, shipped_config_names
from proxgrad.diagnostics import read_trace_csv, write_trace_csv

from conftest import SHIPPED

HUGE = 2**2000  # an int that float() cannot represent
PROBLEM = {"smooth": {"name": "quartic"}, "nonsmooth": {"name": "zero"}, "dimension": 2}
META_PREFIX = "# proxgrad-trace "
# gamma stays at 1e-8 and one trial is allowed: the first outer iteration caps out
INNER_CAP = {"solver.max_inner": 1, "solver.gamma0_strategy": "constant",
             "solver.gamma0_value": 1e-8, "solver.gamma_max": 1e-8}
WINDOW_WARNING = ("warning: nonmonotone window m={} with a nonsmooth term that is not "
                  "continuous on its domain: the envelope-based convergence guarantees "
                  "do not apply\n")


def run_cli(args, monkeypatch=None, cwd=None):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return main(args)


def shipped_path(name) -> Path:
    return _resolve_config_path(name)


def write_config(tmp_path, name="cfg.json", base="lasso_small", **overrides) -> Path:
    cfg = json.loads(shipped_path(base).read_text())
    for key, value in overrides.items():
        section, _, field = key.partition(".")
        if field:
            cfg[section][field] = value
        else:
            cfg[section] = value
    out = tmp_path / name
    out.write_text(json.dumps(cfg))
    return out


def rewrite_metadata(trace: Path, edit) -> None:
    """Replace the metadata object of a trace file by `edit(meta)`."""
    lines = trace.read_text().splitlines()
    lines[0] = META_PREFIX + json.dumps(edit(json.loads(lines[0][len(META_PREFIX):])))
    trace.write_text("\n".join(lines) + "\n")


class TestRun:
    def test_shipped_lasso(self, tmp_path, capsys):
        code = run_cli(["run", "lasso_small", "--output", str(tmp_path / "t.csv")])
        out = capsys.readouterr().out
        assert code == 0
        assert "status=converged_residual" in out
        residual = float(out.split("residual=")[1].strip())
        assert residual <= 1e-6
        assert (tmp_path / "t.csv").exists()

    def test_invalid_delta_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{"solver.delta": 1.5})
        code = run_cli(["run", str(cfg), "--output", str(tmp_path / "t.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert "delta" in err and "(0, 1)" in err

    def test_x0_outside_domain_exits_1(self, tmp_path, capsys):
        cfg = json.loads(shipped_path("quartic_box").read_text())
        cfg["x0"] = [5.0]  # outside the [-2, 2] box
        path = tmp_path / "bad_x0.json"
        path.write_text(json.dumps(cfg))
        code = run_cli(["run", str(path), "--output", str(tmp_path / "t.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert "domain" in err

    def test_half_open_box(self, tmp_path, capsys):
        cfg = json.loads(shipped_path("quartic_box").read_text())
        cfg["problem"]["nonsmooth"]["params"] = {"lo": [0.5], "hi": [float("inf")]}
        path = tmp_path / "half_open.json"
        path.write_text(json.dumps(cfg))
        assert '"hi": [Infinity]' in path.read_text()
        code = run_cli(["run", str(path), "--output", str(tmp_path / "t.csv")])
        assert code == 0
        assert capsys.readouterr().out.startswith("status=converged_residual k=2 psi=0.015625 ")

    def test_unknown_oracle_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{"problem.nonsmooth": {"name": "l2", "params": {}}})
        code = run_cli(["run", str(cfg), "--output", str(tmp_path / "t.csv")])
        assert code == 1
        assert "unknown prox oracle" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config,fragment",
        [
            # a string is the whole file; a dict holds overrides of lasso_small
            ("5", "config must be a JSON object, got int"),
            ({"problem.nonsmooth": {"name": "l1", "params": {}}}, "missing 'lam'"),
            ({"problem.nonsmooth": {"name": "l1", "params": {"lam": 0.5, "mu": 3}}},
             "unknown 'mu'"),
            ({"problem.nonsmooth": {"name": "zero", "params": {"lam": 0.5}}}, "unknown 'lam'"),
            ({"problem.smooth": {"name": "quartic", "params": {"dimension": 2}}},
             "unknown 'dimension'"),
            ({"problem.nonsmooth": {"name": "l1", "params": [0.5]}}, "params must be an object"),
            ({"problem.nonsmooth": {"name": "l1", "params": {"lam": [0.5]}}}, "bad parameter"),
            ({"problem.smooth": {"params": {}}}, "unknown smooth oracle None"),
            ({"problem.smooth": "quadratic"}, "'smooth' entry must be a JSON object"),
            ({"problem": [1]}, "problem section must be a JSON object"),
            ({"solver": [1]}, "solver section must be a JSON object"),
            ({"problem.dimension": True}, "dimension must be a positive integer"),
            ({"solver.m": True}, "m must be a nonnegative integer"),
            ({"output": 5}, "output must be a file path"),
            ({"problem.smooth": {"name": "quadratic",
                                 "params": {"A": [[1e200, 0.0], [0.0, 1.0]], "b": [1.0, 0.1]}},
              "x0": "ones"}, "smooth term 'quadratic' is not finite at x0"),
            # a NaN in A makes f(x0) NaN whatever x0 is: the error names the data too
            pytest.param({"problem.smooth": {"name": "quadratic",
                                             "params": {"A": [[math.nan, 0.0], [0.0, 1.0]],
                                                        "b": [1.0, 0.1]}}},
                         "smooth term 'quadratic' is not finite at x0: f(x0) = nan "
                         "(x0 or the term's data may be too large or not finite)",
                         id="A_nan"),
            pytest.param('{"x0": ' + "[" * 5000 + "]" * 5000 + "}", "config is nested too deeply",
                         id="x0_nested_5000"),
            # ragged or nested past numpy's 64 dimensions, and a wrong length:
            # each names the entry at fault
            pytest.param({"x0": [[0.0], 0.0]}, "x0: expected a 1-D vector, got a ragged",
                         id="x0_ragged"),
            pytest.param({"x0": json.loads("[" * 70 + "0.0" + "]" * 70)},
                         "x0: expected a 1-D vector, got a ragged", id="x0_nested_70"),
            pytest.param({"x0": [0.0, 0.0, 0.0]}, "x0: dimension mismatch: expected 2, got 3",
                         id="x0_too_long"),
            *[pytest.param({"x0": x0}, "error: x0 must be 'zeros', 'ones', or a coordinate "
                                       f"list, got {x0!r}\n", id=f"x0_{kind}")
              for kind, x0 in (("number", 5), ("other_name", "twos"), ("object", {}))],
            pytest.param({"problem.smooth": {"name": "quadratic",
                                             "params": {"A": [[1.0, 0.0], [0.0]],
                                                        "b": [1.0, 0.1]}}},
                         "smooth oracle 'quadratic': bad parameter 'A': ", id="A_ragged"),
            pytest.param({"problem.nonsmooth": {"name": "box",
                                                "params": {"lo": [-1.0, -1.0],
                                                           "hi": [[0.5], 0.5]}}},
                         "prox oracle 'box': bad parameter 'hi': ", id="hi_ragged"),
            pytest.param({"problem.smooth": {"name": "logistic",
                                             "params": {"A": [[1.0, 0.0], [0.0, 1.0]],
                                                        "labels": [[1.0], -1.0]}}},
                         "smooth oracle 'logistic': bad parameter 'labels': ",
                         id="labels_ragged"),
            # an x0 of 8e15 bytes: past the address space, so numpy cannot
            # allocate it whatever the host's memory
            pytest.param(json.dumps({"problem": {**PROBLEM, "dimension": 10**15}, "x0": "zeros"}),
                         "problem dimension 1000000000000000 is too large", id="dimension_huge"),
            pytest.param('{"problem": ', "config is not valid JSON", id="json_invalid"),
            pytest.param("{}", "config is missing the 'problem' section", id="no_problem"),
            *[pytest.param(json.dumps({"problem": {k: v for k, v in PROBLEM.items() if k != key}}),
                           f"problem section is missing {key!r}", id=f"no_{key}")
              for key in PROBLEM],
            pytest.param({"solver": {"mu": 1}}, "bad solver section: ", id="solver_unknown_field"),
        ],
    )
    def test_bad_config_exits_1_with_one_line_error(self, tmp_path, capsys, config, fragment):
        if isinstance(config, str):
            path = tmp_path / "cfg.json"
            path.write_text(config)
        else:
            path = write_config(tmp_path, **config)
        code = run_cli(["run", str(path), "--output", str(tmp_path / "t.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert fragment in err

    @pytest.mark.parametrize("base, overrides", [
        ("quartic_l0", {"x0": [{"a": 0.5}, 0.8]}),
        ("quartic_l0", {"x0": [HUGE, 0.8]}),
        ("lasso_small", {"problem.smooth": {"name": "quadratic",
                                            "params": {"A": [[1.0, 0.0], [0.0, HUGE]],
                                                       "b": [1.0, 0.1]}}}),
        ("lasso_small", {"problem.smooth": {"name": "quadratic",
                                            "params": {"A": [[1.0, 0.0], [0.0, 1.0]],
                                                       "b": [1.0, HUGE]}}}),
        ("quartic_box", {"problem.nonsmooth": {"name": "box",
                                               "params": {"lo": [-HUGE], "hi": [2.0]}}}),
        ("quartic_box", {"problem.nonsmooth": {"name": "box",
                                               "params": {"lo": [-2.0], "hi": [HUGE]}}}),
        ("lasso_small", {"problem.nonsmooth": {"name": "l1", "params": {"lam": HUGE}}}),
        ("sphere_quadratic", {"problem.nonsmooth": {"name": "sphere",
                                                    "params": {"radius": HUGE}}}),
        ("quartic_box", {"solver.tau": HUGE}),
        ("quartic_box", {"solver.gamma_max": HUGE}),
        ("quartic_box", {"solver.gamma0_value": HUGE}),
        ("quartic_box", {"solver.tau_abs": HUGE}),
        ("quartic_box", {"solver.eps_step": HUGE}),
    ], ids=["x0_dict", "x0", "A", "b", "lo", "hi", "lam", "radius",
            "tau", "gamma_max", "gamma0_value", "tau_abs", "eps_step"])
    def test_non_float_value_exits_1_with_one_line_error(self, tmp_path, capsys, base,
                                                         overrides):
        # each used to escape as a TypeError or OverflowError traceback, or
        # (an unused solver field) to run
        path = write_config(tmp_path, base=base, **overrides)
        code = run_cli(["run", str(path), "--output", str(tmp_path / "t.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("base, overrides, fragment", [
        ("lasso_small", {"solver.tau_abs": math.inf}, "tau_abs"),
        ("lasso_small", {"solver.eps_step": math.nan}, "eps_step"),
        ("lasso_small", {"solver.gamma_min": True}, "gamma_min"),
        ("lasso_small", {"solver.tau": "2"}, "tau"),
        ("lasso_small", {"solver.gamma0_strategy": "constant",
                         "solver.gamma0_value": math.inf}, "gamma0_value"),
        ("lasso_small", {"problem.nonsmooth": {"name": "l1", "params": {"lam": "0.5"}}}, "lam"),
        ("lasso_small", {"problem.nonsmooth": {"name": "l1", "params": {"lam": True}}}, "lam"),
        ("lasso_small", {"problem.nonsmooth": {"name": "l1", "params": {"lam": math.nan}}},
         "lam"),
        ("lasso_small", {"problem.nonsmooth": {"name": "l1", "params": {"lam": math.inf}}},
         "lam"),
        ("sphere_quadratic", {"problem.nonsmooth": {"name": "sphere",
                                                    "params": {"radius": True}}}, "radius"),
        ("sphere_quadratic", {"problem.nonsmooth": {"name": "sphere",
                                                    "params": {"radius": math.inf}}}, "radius"),
        ("lasso_small", {"x0": ["0.5", 0]}, "x0"),
        ("lasso_small", {"x0": [True, 0]}, "x0"),
        ("lasso_small", {"problem.smooth": {"name": "quadratic",
                                            "params": {"A": [["1", 0], [0, 1]],
                                                       "b": [1.0, 0.1]}}}, "'A'"),
        ("lasso_small", {"problem.smooth": {"name": "quadratic",
                                            "params": {"A": [[1, 0], [0, 1]],
                                                       "b": [True, 0.1]}}}, "'b'"),
        ("lasso_small", {"problem.smooth": {"name": "quadratic",
                                            "params": {"A": [[1, 0], [0, 1]],
                                                       "b": [math.inf, 0.1]}}}, "'b'"),
        ("lasso_small", {"problem.smooth": {"name": "quadratic",
                                            "params": {"A": [[1, 0], [0, 1]],
                                                       "b": [0.1, math.nan]}}}, "'b'"),
    ], ids=["tau_abs_inf", "eps_step_nan", "gamma_min_true", "tau_str", "gamma0_value_inf",
            "lam_str", "lam_true", "lam_nan", "lam_inf", "radius_true", "radius_inf",
            "x0_str", "x0_true", "A_str", "b_true", "b_inf", "b_nan"])
    def test_value_that_is_not_a_finite_number_exits_1_naming_it(self, tmp_path, capsys,
                                                                 base, overrides, fragment):
        # numpy would read a bool or a string as a number, and a non-finite
        # value would run or fail later under another name
        path = write_config(tmp_path, base=base, **overrides)
        code = run_cli(["run", str(path), "--output", str(tmp_path / "t.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert fragment in err

    def test_step_fallback_exit(self, tmp_path, capsys):
        path = write_config(tmp_path, **{
            "problem.smooth": {"name": "quadratic",
                               "params": {"A": [[1.0, 0.0], [0.0, 1.0]], "b": [1.0, 0.5]}},
            "problem.nonsmooth": {"name": "zero", "params": {}},
            "solver": {"gamma0_strategy": "constant", "gamma0_value": 1e4, "eps_step": 1e-3}})
        assert run_cli(["run", str(path), "--output", str(tmp_path / "t.csv")]) == 0
        assert capsys.readouterr().out.startswith("status=converged_step k=1 ")

    def test_unwritable_output_exits_1(self, tmp_path, capsys):
        out = tmp_path / "missing" / "t.csv"
        assert run_cli(["run", "lasso_small", "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write trace to {out}: ")
        assert captured.err.count("\n") == 1

    def test_warning_line_comes_before_the_error_line(self, tmp_path, capsys):
        out = tmp_path / "missing" / "t.csv"
        assert run_cli(["run", "quartic_l0", "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        warning, error = captured.err.splitlines(keepends=True)
        assert warning == WINDOW_WARNING.format(5)
        assert error.startswith(f"error: cannot write trace to {out}: ")

    def test_huge_m_runs_as_m_equal_max_outer(self, tmp_path, capsys):
        max_outer = json.loads(shipped_path("logistic_l1").read_text())["solver"]["max_outer"]
        rows = []
        for i, caps in enumerate([(max_outer, max_outer), (2**70, max_outer), (2**70, 2**70)]):
            path = write_config(tmp_path, base="logistic_l1",
                                **dict(zip(["solver.m", "solver.max_outer"], caps)))
            trace = tmp_path / f"t{i}.csv"
            assert run_cli(["run", str(path), "--output", str(trace)]) == 0
            rows.append(trace.read_text().splitlines()[1:])  # past the config echo
        assert rows[1] == rows[0] and rows[2] == rows[0]
        assert capsys.readouterr().err == ""

    def test_missing_config_exits_1(self, capsys):
        code = run_cli(["run", "no_such_config"])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_max_outer_exit_code_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{"solver.max_outer": 2})
        code = run_cli(["run", str(cfg), "--output", str(tmp_path / "t.csv")])
        assert code == 2
        assert "status=max_outer_reached" in capsys.readouterr().out

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(["run", "lasso_small", "--output", str(a)]) == 0
        assert run_cli(["run", "lasso_small", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_inner_cap_exit_code_3(self, tmp_path, capsys):
        cfg = json.loads(shipped_path("quartic_box").read_text())
        cfg["solver"].update(
            gamma_min=1e-8, gamma_max=1e-8, max_inner=1, tau_abs=1e-300,
            gamma0_strategy="constant", gamma0_value=1e-8,
        )
        path = tmp_path / "cap.json"
        path.write_text(json.dumps(cfg))
        code = run_cli(["run", str(path), "--output", str(tmp_path / "t.csv")])
        assert code == 3
        assert "status=inner_loop_cap" in capsys.readouterr().out


class TestCheck:
    @pytest.mark.parametrize("flag", ["--steps-tol", "--product-tol"])
    @pytest.mark.parametrize("value", ["nan", "-1", "inf"])
    def test_tolerance_not_finite_and_nonnegative_exits_1(self, tmp_path, capsys, flag,
                                                           value):
        # NaN and negative tolerances used to FAIL a clean trace, and inf to
        # pass any trace
        trace = tmp_path / "t.csv"
        assert run_cli(["run", "lasso_small", "--output", str(trace)]) == 0
        capsys.readouterr()
        code = run_cli(["check", str(trace), flag, value])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: {flag} must be finite and >= 0, got {float(value)}\n"

    @pytest.mark.parametrize("flag", ["--steps-tol", "--product-tol"])
    def test_zero_tolerance_is_used(self, tmp_path, capsys, flag):
        trace = tmp_path / "t.csv"
        assert run_cli(["run", "lasso_small", "--output", str(trace)]) == 0
        capsys.readouterr()
        code = run_cli(["check", str(trace), flag, "0"])
        assert code in (0, 4)
        assert "(tol=0)" in capsys.readouterr().out

    def test_clean_trace_exits_0(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        assert run_cli(["run", "lasso_small", "--output", str(trace)]) == 0
        capsys.readouterr()
        code = run_cli(["check", str(trace)])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("check_acceptance", "check_envelope", "check_level_set",
                     "check_vanishing_steps", "check_gamma_step_product", "gamma_bound"):
            assert name in out

    def test_default_steps_band_follows_the_tail_gamma(self, tmp_path, capsys, monkeypatch):
        # the m = 0 logistic run converges with a last step of 7.6e-6 at gamma
        # 0.12; the band max(tau_abs, 1e-6), not divided by min(1, gamma), failed it
        monkeypatch.chdir(tmp_path)
        assert run_cli(["compare", "logistic_l1", "--m", "0"]) == 0
        capsys.readouterr()
        code = run_cli(["check", "logistic_l1_trace_m0.csv"])
        out = capsys.readouterr().out
        assert code == 0
        assert "check_vanishing_steps: pass (tol=8.20382e-06)" in out

    def test_corrupted_psi_exits_4(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        assert run_cli(["run", "lasso_small", "--output", str(trace)]) == 0
        lines = trace.read_text().splitlines()
        parts = lines[12].split(",")
        parts[3] = repr(float(parts[3]) + 1.0)
        lines[12] = ",".join(parts)
        trace.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run_cli(["check", str(trace)])
        out = capsys.readouterr().out
        assert code == 4
        assert "check_acceptance: FAIL" in out
        assert "row 9" in out

    @pytest.mark.parametrize("field, row", [(3, 19), (5, 20), (7, 20)],
                             ids=["psi", "gamma", "step_norm"])
    def test_nan_in_a_certified_column_exits_4_naming_the_row(self, tmp_path, capsys,
                                                              field, row):
        # a NaN psi fails the certificate that produced it, a NaN gamma or
        # step norm the one it is part of
        trace = tmp_path / "t.csv"
        assert run_cli(["run", "lasso_small", "--output", str(trace)]) == 0
        lines = trace.read_text().splitlines()
        parts = lines[22].split(",")  # row 20, after the metadata line and the header
        parts[field] = "nan"
        lines[22] = ",".join(parts)
        trace.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run_cli(["check", str(trace)])
        out = capsys.readouterr().out
        assert code == 4
        assert "check_acceptance: FAIL" in out
        assert f"  row {row}: " in out

    def test_residual_within_tau_abs_exits_4_naming_the_row(self, tmp_path, capsys):
        # the run would have stopped at row 3's iterate
        trace = tmp_path / "t.csv"
        assert run_cli(["run", "logistic_l1", "--output", str(trace)]) == 0
        lines = trace.read_text().splitlines()
        parts = lines[5].split(",")  # row 3, after the metadata line and the header
        parts[8] = "1e-12"
        lines[5] = ",".join(parts)
        trace.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run_cli(["check", str(trace)])
        out = capsys.readouterr().out
        assert code == 4
        assert "check_acceptance: FAIL (1 violations)" in out
        assert "  row 3: residual 9.9999999999999998e-13 <= tau_abs " in out

    def test_minus_inf_residual_exits_4_naming_the_row(self, tmp_path, capsys):
        # written as -inf, not as the empty field that reads back as +inf
        path = tmp_path / "t.csv"
        assert run_cli(["run", "lasso_small", "--output", str(path)]) == 0
        trace = read_trace_csv(path)
        records = list(trace.records)
        records[5] = dataclasses.replace(records[5], residual=-math.inf)
        write_trace_csv(dataclasses.replace(trace, records=tuple(records)), path)
        capsys.readouterr()
        code = run_cli(["check", str(path)])
        out = capsys.readouterr().out
        assert code == 4
        assert "check_acceptance: FAIL (1 violations)" in out
        assert "  row 5: residual -inf <= tau_abs " in out

    def test_gamma_not_backtracked_from_gamma0_exits_4_naming_the_row(self, tmp_path, capsys):
        # row 3's gamma no longer follows from its gamma0 and trial count
        trace = tmp_path / "t.csv"
        assert run_cli(["run", "quartic_box", "--output", str(trace)]) == 0
        lines = trace.read_text().splitlines()
        parts = lines[5].split(",")  # row 3, after the metadata line and the header
        parts[4], parts[6] = "12345", "7"
        lines[5] = ",".join(parts)
        trace.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run_cli(["check", str(trace)])
        out = capsys.readouterr().out
        assert code == 4
        assert "check_acceptance: FAIL (1 violations)" in out
        assert (f"  row 3: gamma {float(parts[5]):.17g} is not gamma0 12345 after 7 of at most "
                "99 backtracking steps\n") in out

    def test_gamma0_outside_the_clamp_range_exits_4_naming_the_row(self, tmp_path, capsys):
        # a tiny gamma0 and gamma pass the gamma and psi tests, and widen the
        # default steps band; solve clamps every gamma0 to [gamma_min, gamma_max]
        trace = tmp_path / "t.csv"
        assert run_cli(["run", "lasso_small", "--output", str(trace)]) == 0
        lines = trace.read_text().splitlines()
        parts = lines[60].split(",")  # row 58, after the metadata line and the header
        parts[4], parts[5], parts[6] = "1e-300", "1e-300", "0"
        lines[60] = ",".join(parts)
        trace.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run_cli(["check", str(trace)])
        out = capsys.readouterr().out
        assert code == 4
        assert "check_acceptance: FAIL (1 violations)" in out
        assert ("  row 58: gamma0 1e-300 lies outside [gamma_min, gamma_max] "
                "= [1e-08, 100000000]\n") in out

    @pytest.mark.parametrize("overrides, status", [
        ({}, "converged_residual"),
        (INNER_CAP, "inner_loop_cap"),
    ], ids=["converged", "inner_cap"])
    def test_first_line_is_the_status(self, tmp_path, capsys, overrides, status):
        trace = tmp_path / "t.csv"
        run_cli(["run", str(write_config(tmp_path, **overrides)), "--output", str(trace)])
        capsys.readouterr()
        assert run_cli(["check", str(trace)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == f"status: {status}"

    @pytest.mark.parametrize("end, detail", [
        ({"psi_final": 1.0}, "psi[{n}]=1 exceeds bound "),
        ({"early_exit": True, "final_residual": 0.5}, "early exit residual 0.5 exceeds tau_abs "),
    ], ids=["psi_final_above_bound", "early_exit_above_tau_abs"])
    def test_bad_run_end_exits_4_naming_the_last_row(self, tmp_path, capsys, end, detail):
        trace = tmp_path / "t.csv"
        assert run_cli(["run", "lasso_small", "--output", str(trace)]) == 0
        n = len(trace.read_text().splitlines()) - 2
        rewrite_metadata(trace, lambda meta: {**meta, **end})
        capsys.readouterr()
        assert run_cli(["check", str(trace)]) == 4
        out = capsys.readouterr().out
        assert "check_acceptance: FAIL (1 violations)" in out
        assert f"  row {n - 1}: {detail.format(n=n)}" in out

    def test_trace_without_the_run_end_exits_1(self, tmp_path, capsys):
        # a trace written before the metadata line stated how the run ended
        trace = tmp_path / "t.csv"
        assert run_cli(["run", "lasso_small", "--output", str(trace)]) == 0
        rewrite_metadata(trace, lambda meta: {k: meta[k] for k in
                                              ("config", "problem_name", "x0_hash")})
        capsys.readouterr()
        assert run_cli(["check", str(trace)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cannot read trace: bad metadata: missing key 'status'\n"

    @pytest.mark.parametrize("end, message", [
        ({"status": "bogus"}, "unknown status 'bogus'"),
        ({"status": "max_outer_reached", "early_exit": True},
         "an early exit ends 'converged_residual', not 'max_outer_reached'"),
    ], ids=["unknown_status", "early_exit_with_another_status"])
    def test_run_end_the_solver_cannot_give_exits_1(self, tmp_path, capsys, end, message):
        trace = tmp_path / "t.csv"
        assert run_cli(["run", "lasso_small", "--output", str(trace)]) == 0
        rewrite_metadata(trace, lambda meta: {**meta, **end})
        capsys.readouterr()
        assert run_cli(["check", str(trace)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot read trace: bad metadata: {message}\n"

    def test_empty_file_exits_1(self, tmp_path, capsys):
        trace = tmp_path / "empty.csv"
        trace.write_text("")
        code = run_cli(["check", str(trace)])
        assert code == 1
        assert "cannot read trace" in capsys.readouterr().err

    def test_non_ascii_file_exits_1(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        assert run_cli(["run", "lasso_small", "--output", str(trace)]) == 0
        text = trace.read_text()
        trace.write_text(text.replace('"problem_name":"', '"problem_name":"\u00e4', 1),
                         encoding="utf-8")
        capsys.readouterr()
        assert run_cli(["check", str(trace)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read trace: ") and err.count("\n") == 1

    @pytest.mark.parametrize("row", ['1,"0.5",0,0.5,1,1,0,0,,0.5', "1,0.5,0,0.5,1,1,0,0,,0.5,0"])
    def test_quoted_or_extra_field_exits_1(self, tmp_path, capsys, row):
        trace = tmp_path / "t.csv"
        assert run_cli(["run", "lasso_small", "--output", str(trace)]) == 0
        lines = trace.read_text().splitlines()
        lines[3] = row
        trace.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli(["check", str(trace)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read trace: ") and err.count("\n") == 1

    @pytest.mark.parametrize("edit", [lambda lines: lines[:4] + lines[5:],
                                      lambda lines: lines[:5] + lines[4:]],
                             ids=["dropped", "duplicated"])
    def test_noncontiguous_rows_exit_1(self, tmp_path, capsys, edit):
        trace = tmp_path / "t.csv"
        assert run_cli(["run", "lasso_small", "--output", str(trace)]) == 0
        trace.write_text("\n".join(edit(trace.read_text().splitlines())) + "\n")
        capsys.readouterr()
        assert run_cli(["check", str(trace)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot read trace: record indices must be "
                                       "contiguous from 0; ") and captured.err.count("\n") == 1

    def test_bad_config_echo_exits_1(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        assert run_cli(["run", "lasso_small", "--output", str(trace)]) == 0
        text = trace.read_text()
        trace.write_text(text.replace('"tau":2.0', '"tau":0.5', 1))
        capsys.readouterr()
        assert run_cli(["check", str(trace)]) == 1
        assert "bad metadata: tau must be > 1" in capsys.readouterr().err

    def test_trace_without_metadata_exits_1(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        assert run_cli(["run", "lasso_small", "--output", str(trace)]) == 0
        lines = trace.read_text().splitlines()
        assert lines[0].startswith("# proxgrad-trace ")
        trace.write_text("\n".join(lines[1:]) + "\n")
        capsys.readouterr()
        assert run_cli(["check", str(trace)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: cannot read trace: missing the '# proxgrad-trace' "
                                "metadata line\n")

    def test_short_trace_skips_tail_checks(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        assert run_cli(["run", "sphere_quadratic", "--output", str(trace)]) == 0
        capsys.readouterr()
        code = run_cli(["check", str(trace)])
        out = capsys.readouterr().out
        assert code == 0
        assert "skipped" in out

    def test_m_flag_is_a_usage_error(self, capsys):
        # the window is the trace's own; argparse rejects the flag before any read
        with pytest.raises(SystemExit) as exc:
            run_cli(["check", "t.csv", "--m", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --m 5" in capsys.readouterr().err

    def test_every_shipped_trace_checks_clean(self, tmp_path, capsys):
        for name in SHIPPED:
            trace = tmp_path / f"{name}.csv"
            assert run_cli(["run", name, "--output", str(trace)]) == 0
            capsys.readouterr()
            assert run_cli(["check", str(trace)]) == 0, name
            assert "FAIL" not in capsys.readouterr().out


class TestCompare:
    def test_lasso_m0_m5_agree(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = run_cli(["compare", "lasso_small", "--m", "0", "5"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "m,status,outer_iters,total_inner,final_psi"
        assert len(lines) == 3
        rows = [ln.split(",") for ln in lines[1:]]
        assert [r[0] for r in rows] == ["0", "5"]
        assert all(r[1] == "converged_residual" for r in rows)
        assert abs(float(rows[0][4]) - float(rows[1][4])) <= 1e-8

    def test_single_m_trace_matches_run_bitwise(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, name="m0.json", **{"solver.m": 0,
                                                        "output": "m0_trace.csv"})
        assert run_cli(["run", str(cfg)]) == 0
        assert run_cli(["compare", str(cfg), "--m", "0"]) == 0
        run_bytes = (tmp_path / "m0_trace.csv").read_bytes()
        cmp_bytes = (tmp_path / "m0_trace_m0.csv").read_bytes()
        assert run_bytes == cmp_bytes

    def test_four_values_in_order(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = run_cli(["compare", "lasso_small", "--m", "0", "1", "5", "10"])
        out = capsys.readouterr().out
        rows = out.strip().splitlines()[1:]
        assert code == 0
        assert [r.split(",")[0] for r in rows] == ["0", "1", "5", "10"]

    def test_one_warning_line_per_window_run(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli(["compare", "quartic_l0", "--m", "0", "5", "1"]) == 0
        assert capsys.readouterr().err == WINDOW_WARNING.format(5) + WINDOW_WARNING.format(1)

    def test_output_flag_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        # the table goes to stdout only; argparse rejects the flag before any solve
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run_cli(["compare", "lasso_small", "--m", "0", "--output", "x"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --output x" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("overrides, status", [
        ({"solver.max_outer": 3}, "max_outer_reached"),
        (INNER_CAP, "inner_loop_cap"),
    ], ids=["max_outer", "inner_cap"])
    def test_unconverged_window_exits_2(self, tmp_path, capsys, monkeypatch, overrides,
                                        status):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, **overrides)
        assert run_cli(["compare", str(cfg), "--m", "0"]) == 2
        assert capsys.readouterr().out.splitlines()[1].split(",")[:2] == ["0", status]

    @pytest.mark.parametrize("base, m, overrides, status", [
        ("quartic_box", 0, {"solver.max_outer": 3, "solver.max_inner": 1}, "inner_loop_cap"),
        ("logistic_l1", 0, {"solver.max_inner": 2}, "inner_loop_cap"),
        ("lasso_small", 5, {}, "converged_residual"),
    ], ids=["quartic_box_inner_cap", "logistic_l1_inner_cap", "lasso_small"])
    def test_total_inner_counts_prox_calls(self, tmp_path, capsys, monkeypatch, base, m,
                                           overrides, status):
        # every trial solves one prox subproblem, the failed trials of an
        # inner cap included
        calls = []

        def counting_build_prox(name, params, dimension):
            oracle = build_prox(name, params, dimension)
            return dataclasses.replace(
                oracle, prox=lambda gamma, v: calls.append(gamma) or oracle.prox(gamma, v))

        monkeypatch.setattr("proxgrad.cli.build_prox", counting_build_prox)
        monkeypatch.chdir(tmp_path)
        run_cli(["compare", str(write_config(tmp_path, base=base, **overrides)), "--m", str(m)])
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[1] == status
        assert int(row[3]) == len(calls) > 0

    def test_negative_m_exits_1_before_any_solve(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli(["compare", "lasso_small", "--m", "0", "5", "-1"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error: m must be a nonnegative integer, got -1\n")
        assert list(tmp_path.iterdir()) == []


class TestList:
    def test_contents(self, capsys):
        assert run_cli(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("quartic", "l0", "lasso_small"):
            assert name in out
        for name in SHIPPED:
            assert name in out

    def test_stable_across_invocations(self, capsys):
        run_cli(["list"])
        first = capsys.readouterr().out
        run_cli(["list"])
        second = capsys.readouterr().out
        assert first == second


def run_module(args, flags=()) -> subprocess.CompletedProcess:
    """`python FLAGS -m proxgrad ARGS` in a fresh process; it sees stderr that
    pytest would capture."""
    src = str(Path(proxgrad.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *flags, "-m", "proxgrad", *args], capture_output=True,
                          text=True, env=env)


def test_check_loads_neither_numpy_nor_the_engine(tmp_path):
    # `check` reads and compares floats: its imports are core, diagnostics and cli
    trace = tmp_path / "t.csv"
    assert run_cli(["run", "quartic_box", "--output", str(trace)]) == 0
    proc = run_module(["check", str(trace)], flags=("-X", "importtime"))
    assert proc.returncode == 0
    loaded = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
              if line.startswith("import time:")}
    assert {"proxgrad.core", "proxgrad.diagnostics", "proxgrad.cli"} <= loaded
    unwanted = {"numpy", "hashlib", "proxgrad.solver", "proxgrad.prox_oracles",
                "proxgrad.smooth_oracles"}
    assert sorted(m for m in loaded if m.split(".")[0] == "numpy" or m in unwanted) == []


def test_python_dash_m_matches_main(capsys):
    proc = run_module(["list"])
    assert proc.returncode == 0
    assert run_cli(["list"]) == 0
    assert proc.stdout == capsys.readouterr().out


def test_overflow_at_x0_prints_only_the_error_line(tmp_path):
    # in process, pytest would capture numpy's RuntimeWarning; a child shows it
    cfg = write_config(tmp_path, **{
        "problem.smooth": {"name": "quadratic", "params": {"A": [[1e200]], "b": [0.0]}},
        "problem.dimension": 1, "x0": "ones"})
    proc = run_module(["run", str(cfg), "--output", str(tmp_path / "t.csv")])
    assert proc.returncode == 1
    assert proc.stderr == ("error: smooth term 'quadratic' is not finite at x0: f(x0) = inf "
                           "(x0 or the term's data may be too large or not finite)\n")


@pytest.mark.parametrize("overrides, stdout", [
    # the first trial step overflows in power and in dot
    ({"problem.smooth": {"name": "quartic", "params": {}},
      "problem.nonsmooth": {"name": "zero", "params": {}},
      "problem.dimension": 1, "x0": [1e70], "solver.m": 0,
      "solver.gamma0_strategy": "constant", "solver.gamma0_value": 1.0},
     "status=inner_loop_cap k=0 psi=2.5000000000000006e+279 residual=inf\n"),
    # huge margins overflow the inner stationarity residual
    ({"problem.smooth": {"name": "logistic",
                         "params": {"A": [[1e300, 0.0], [0.0, -1e300]], "labels": [1.0, -1.0]}},
      "problem.nonsmooth": {"name": "l1", "params": {"lam": 0.1}},
      "problem.dimension": 2, "x0": "ones"},
     "status=inner_loop_cap k=101 psi=2.5711164757569601e-33 residual=0.14142135623730953\n"),
])
def test_overflow_inside_solve_prints_no_warning(tmp_path, overrides, stdout):
    cfg = write_config(tmp_path, **overrides)
    proc = run_module(["run", str(cfg), "--output", str(tmp_path / "t.csv")])
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, stdout, "")


def test_window_warning_is_one_stderr_line(tmp_path):
    # a child shows what Python's own warning display would print
    proc = run_module(["run", "quartic_l0", "--output", str(tmp_path / "t.csv")])
    assert proc.returncode == 0
    assert proc.stderr == WINDOW_WARNING.format(5)


FUZZ_VALUES = [{"a": 1}, [1.0], None, True, "x", math.nan, -1, 0, 2**70, HUGE]


def leaf_paths(node, path=()):
    """Key paths to the scalars of a parsed JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path]
    return [leaf for key, child in items for leaf in leaf_paths(child, path + (key,))]


@st.composite
def mutated_configs(draw):
    """A shipped config with one or two of its scalars replaced by a value
    from FUZZ_VALUES, and its iteration caps lowered to 20 outer and 100
    inner: a run that cannot reach its tolerance (a huge radius, say) would
    otherwise go on for as many iterations as a huge cap allows."""
    cfg = json.loads(shipped_path(draw(st.sampled_from(SHIPPED))).read_text())
    # the paths are drawn before any change, so none leads into an inserted value
    for path in draw(st.lists(st.sampled_from(leaf_paths(cfg)), min_size=1, max_size=2)):
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = copy.deepcopy(draw(st.sampled_from(FUZZ_VALUES)))
    for field, cap in (("max_outer", 20), ("max_inner", 100)):
        if type(cfg["solver"][field]) is int:
            cfg["solver"][field] = min(cfg["solver"][field], cap)
    return cfg


@settings(derandomize=True, deadline=None, max_examples=80,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=mutated_configs())
def test_fuzzed_config_exits_with_at_most_one_error_line(tmp_path, monkeypatch, capsys, cfg):
    monkeypatch.chdir(tmp_path)  # where a relative output path the config names resolves
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = main(["run", str(path), "--output", str(tmp_path / "t.csv")])
    lines = capsys.readouterr().err.splitlines()
    assert code in (0, 1, 2, 3)
    assert [ln for ln in lines if not ln.startswith("warning: ")] == (
        [ln for ln in lines if ln.startswith("error: ")])
    assert sum(ln.startswith("error: ") for ln in lines) == (code == 1)


def test_shipped_config_names():
    assert shipped_config_names() == sorted(SHIPPED)


def test_env_var_controls_logging(tmp_path, monkeypatch, capsys):
    # the variable is read on every call, and the CLI never configures
    # logging: with no root handler, logging.basicConfig would add one
    root = logging.getLogger()
    monkeypatch.setattr(root, "handlers", [])
    before = (list(root.handlers), root.level)
    trace = tmp_path / "t.csv"
    info = "INFO run quadratic+l1: status=converged_residual iterations=59 early_exits=[]\n"
    for level, err in (("quiet", ""), ("info", info),
                       ("debug", info + f"DEBUG trace written to {trace} (59 rows)\n")):
        monkeypatch.setenv("PROXGRAD_LOG", level)
        assert run_cli(["run", "lasso_small", "--output", str(trace)]) == 0
        assert capsys.readouterr().err == err
    assert (list(root.handlers), root.level) == before
