"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

import json
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
from proxgrad import diagnostics, solver  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SMALL = replace(wl.SPARSE_LPHALF, name="small", rows=12, cols=30, nnz=3)


# ---- wrappers change nothing -------------------------------------------------

@pytest.mark.parametrize("spec", [replace(wl.LASSO_L1, name="l1", rows=15, cols=30, nnz=3), SMALL])
def test_traced_oracles_are_bitwise_equal(spec):
    case = wl.build_case(wl.entry_points(), wl.planted_data(spec, 3))
    traced = spans.traced_problem(spans.Tracer(), case.problem)
    x = wl.rng_for(9, "x").standard_normal(spec.cols)
    for field in ("eval", "grad"):
        plain, wrapped = getattr(case.problem.smooth, field)(x), getattr(traced.smooth, field)(x)
        assert np.asarray(plain).tobytes() == np.asarray(wrapped).tobytes()
    assert case.problem.nonsmooth.eval(x) == traced.nonsmooth.eval(x)
    assert case.problem.nonsmooth.prox(0.7, x).tobytes() == traced.nonsmooth.prox(0.7, x).tobytes()


def test_traced_solve_writes_identical_trace(tmp_path):
    tracer = spans.Tracer()
    case = wl.build_case(wl.entry_points(tracer.wrap), wl.planted_data(SMALL, 5))
    plain = solver.solve(case.problem, case.config, case.x0)
    traced = tracer.wrap("solver.solve", solver.solve)(
        spans.traced_problem(tracer, case.problem), case.config, case.x0)
    diagnostics.write_trace_csv(plain.trace, tmp_path / "plain.csv")
    diagnostics.write_trace_csv(traced.trace, tmp_path / "traced.csv")
    assert (tmp_path / "plain.csv").read_bytes() == (tmp_path / "traced.csv").read_bytes()
    names = {s.name for s in tracer.spans}
    assert {"solver.solve", "smooth_oracles.eval", "smooth_oracles.grad", "prox_oracles.prox",
            "prox_oracles.eval", "smooth_oracles.build", "prox_oracles.build",
            "core.build"} <= names


def test_every_callable_field_is_wrapped():
    case = wl.build_case(wl.entry_points(), wl.planted_data(SMALL, 1))
    traced = spans.wrap_callable_fields(spans.Tracer(), "prox_oracles", case.problem.nonsmooth)
    assert traced.prox.__wrapped__ is case.problem.nonsmooth.prox
    assert traced.eval.__wrapped__ is case.problem.nonsmooth.eval
    assert traced.name == case.problem.nonsmooth.name


# ---- self time -----------------------------------------------------------------

def test_self_time_on_synthetic_tree():
    S = spans.Span
    tree = [
        S("solver.solve", 0.0, 10.0, -1, 0),
        S("smooth_oracles.eval", 1.0, 3.0, 0, 0),
        S("smooth_oracles.grad", 2.0, 4.0, 0, 0),  # overlaps its sibling: union is [1, 4]
        S("prox_oracles.prox", 6.0, 7.0, 0, 0),
        S("prox_oracles.eval", 6.25, 6.75, 3, 0),  # grandchild
        S("diagnostics.write_trace_csv", 11.0, 12.5, -1, 0),
    ]
    assert spans.self_times(tree) == [6.0, 2.0, 2.0, 0.5, 0.5, 1.5]
    totals = spans.totals_by_run(tree)[0]
    assert totals["solver.self_s"] == 6.0
    assert totals["smooth_oracles.self_s"] == 4.0
    assert totals["prox_oracles.self_s"] == 1.0
    assert totals["smooth_oracles.eval:calls"] == 1


def test_tracer_records_nesting_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("smooth_oracles.eval", lambda x: x + 1)
    outer = tracer.wrap("solver.solve", lambda x: inner(x) * 2)
    tracer.run = 7
    assert outer(1) == 4
    assert tracer.spans == [spans.Span("solver.solve", 0.0, 3.0, -1, 7),
                            spans.Span("smooth_oracles.eval", 1.0, 2.0, 0, 7)]
    assert spans.self_times(tracer.spans) == [2.0, 1.0]


# ---- determinism of the inputs -----------------------------------------------

@pytest.mark.parametrize("spec", [wl.LASSO_L1, wl.SPARSE_LPHALF, *wl.DESK_SEEDED,
                                  *wl.CLI_REPLICAS.values()])
def test_generators_depend_only_on_the_seed(spec):
    small = replace(spec, rows=min(spec.rows, 40), cols=min(spec.cols, 60))
    one, two, other = (wl.planted_data(small, seed) for seed in (11, 11, 12))
    assert one.a.tobytes() == two.a.tobytes() and one.b.tobytes() == two.b.tobytes()
    assert one.lam == two.lam
    assert one.a.tobytes() != other.a.tobytes()
    assert one.a.flags.c_contiguous and one.a.shape == (small.rows, small.cols)


def test_ar1_design_has_the_planted_correlation():
    a = wl.ar1_design(wl.rng_for(2, "corr"), 4000, 6, 0.8)
    corr = np.corrcoef(a, rowvar=False)
    assert np.allclose(np.diag(corr, 1), 0.8, atol=0.03)
    assert np.allclose(a.var(axis=0) * 4000, 1.0, atol=0.08)


def test_desk_cases_and_configs_repeat(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir(), second.mkdir()
    shipped = ROOT / "src" / "proxgrad" / "configs"
    inputs = wl.make_inputs("desk_configs", 4, first, shipped)
    wl.make_inputs("desk_configs", 4, second, shipped)
    for spec in wl.DESK_SEEDED:
        one, two = (json.loads((d / f"{spec.name}.json").read_text()) for d in (first, second))
        assert one.pop("output") != two.pop("output")  # each in its own directory
        assert one == two
    cases, cli_case = wl.build_cases(wl.entry_points(), inputs)
    assert [c.name for c in cases] == [*wl.SHIPPED, *(s.name for s in wl.DESK_SEEDED)]
    assert cli_case is cases[wl.SHIPPED.index(wl.DESK_CLI_CONFIG)]


@pytest.mark.parametrize("workload", ["lasso_l1", "sparse_lphalf"])
def test_large_set_up_builds_the_cli_config_too(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(wl, "LASSO_L1", replace(wl.LASSO_L1, rows=20, cols=40))
    monkeypatch.setattr(wl, "SPARSE_LPHALF", replace(wl.SPARSE_LPHALF, rows=20, cols=40))
    inputs = wl.make_inputs(workload, 4, tmp_path, ROOT / "src" / "proxgrad" / "configs")
    calls = []

    def wrap(name, fn):
        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return counted

    cases, cli_case = wl.build_cases(wl.entry_points(wrap), inputs)
    assert [c.name for c in cases] == [workload]
    assert cli_case.name == wl.CLI_REPLICAS[workload].name
    assert "cli.load_run_config" in calls


# ---- names and the contract file ---------------------------------------------

def test_metric_names_and_units_are_well_formed():
    for table in (run.E2E_UNITS, run.LAYER_UNITS):
        for name, unit in table.items():
            assert NAME.match(name), name
            assert UNIT.match(unit), unit


def test_benchmark_json_lists_the_metrics_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "lasso_l1",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_summary_percentile_has_ten_samples_above():
    s = run.summarize([float(i) for i in range(40)])
    assert s["median"] == 19.5 and s["n"] == 40
    assert s["p_hi"] == 29.0 and s["p_hi_pct"] == 75.0
    assert run.summarize([1.0] * 20)["p_hi"] is None
