import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import proxgrad
from proxgrad.cli import _resolve_config_path, main, shipped_config_names

from conftest import SHIPPED


def run_cli(args, monkeypatch=None, cwd=None):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return main(args)


def shipped_path(name) -> Path:
    p = _resolve_config_path(name)
    assert p is not None
    return p


def write_config(tmp_path, name="cfg.json", **overrides) -> Path:
    cfg = json.loads(shipped_path("lasso_small").read_text())
    for key, value in overrides.items():
        section, _, field = key.partition(".")
        if field:
            cfg[section][field] = value
        else:
            cfg[section] = value
    out = tmp_path / name
    out.write_text(json.dumps(cfg))
    return out


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

    def test_bad_config_echo_exits_1(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        assert run_cli(["run", "lasso_small", "--output", str(trace)]) == 0
        text = trace.read_text()
        trace.write_text(text.replace('"tau":2.0', '"tau":0.5', 1))
        capsys.readouterr()
        assert run_cli(["check", str(trace)]) == 1
        assert "bad metadata: tau must be > 1" in capsys.readouterr().err

    def test_short_trace_skips_tail_checks(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        assert run_cli(["run", "sphere_quadratic", "--output", str(trace)]) == 0
        capsys.readouterr()
        code = run_cli(["check", str(trace)])
        out = capsys.readouterr().out
        assert code == 0
        assert "skipped" in out

    def test_explicit_m_flag(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        assert run_cli(["run", "lasso_small", "--output", str(trace)]) == 0
        capsys.readouterr()
        assert run_cli(["check", str(trace), "--m", "5"]) == 0

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

    def test_comparison_csv_written(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out_csv = tmp_path / "cmp.csv"
        code = run_cli(["compare", "lasso_small", "--m", "0", "--output", str(out_csv)])
        printed = capsys.readouterr().out
        assert code == 0
        assert out_csv.read_text() == printed


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


def run_module(args) -> subprocess.CompletedProcess:
    """`python -m proxgrad ARGS` in a fresh process; it sees stderr that pytest would capture."""
    src = str(Path(proxgrad.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-m", "proxgrad", *args], capture_output=True,
                          text=True, env=env)


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
    assert proc.stderr == "error: smooth term 'quadratic' is not finite at x0: f(x0) = inf\n"


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


def test_shipped_config_names():
    assert shipped_config_names() == sorted(SHIPPED)


def test_env_var_controls_logging(tmp_path, monkeypatch, capsys):
    import logging

    monkeypatch.setenv("PROXGRAD_LOG", "info")
    root = logging.getLogger()
    for h in list(root.handlers):
        root.removeHandler(h)
    trace = tmp_path / "t.csv"
    code = run_cli(["run", "lasso_small", "--output", str(trace)])
    assert code == 0
    err = capsys.readouterr().err
    assert "run quadratic+l1" in err
    for h in list(root.handlers):
        root.removeHandler(h)
