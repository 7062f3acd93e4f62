"""Seeded, self-checking benchmark of proxgrad; one workload per process.

Run from the repository root:

    python3 perfbench/run.py --workload lasso_l1 --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` wraps every layer boundary in spans and reports the per-layer
metrics instead.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give each metric's median, high percentile and sample count, the
environment, and the counters and trace digests the correctness gate used.
See perfbench/README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import types
import warnings
from collections import defaultdict
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

WORKLOADS = ("lasso_l1", "sparse_lphalf", "desk_configs")
E2E_UNITS = {
    "solve_s": "s",
    "setup_s": "s",
    "audit_s": "s",
    "cli_cold_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "smooth_oracles.f_calls": "count",
    "smooth_oracles.grad_calls": "count",
    "smooth_oracles.self_s": "s",
    "smooth_oracles.share": "ratio",
    "smooth_oracles.build_s": "s",
    "prox_oracles.prox_calls": "count",
    "prox_oracles.eval_calls": "count",
    "prox_oracles.self_s": "s",
    "prox_oracles.share": "ratio",
    "prox_oracles.build_s": "s",
    "solver.iterations": "count",
    "solver.trials": "count",
    "solver.rejected_trials": "count",
    "solver.accept_ratio": "ratio",
    "solver.early_exits": "count",
    "solver.self_s": "s",
    "solver.self_us_per_iter": "us",
    "solver.share": "ratio",
    "diagnostics.write_s": "s",
    "diagnostics.read_s": "s",
    "diagnostics.check_s": "s",
    "diagnostics.trace_rows": "count",
    "diagnostics.trace_bytes": "bytes",
    "diagnostics.share": "ratio",
    "cli.import_s": "s",
    "cli.load_config_s": "s",
    "core.build_s": "s",
    "trace_overhead": "ratio",
}
SHARE_LAYERS = ("smooth_oracles", "prox_oracles", "solver", "diagnostics")
CHECKERS = ("check_acceptance", "check_envelope", "check_level_set",
            "check_vanishing_steps", "check_gamma_step_product", "gamma_bound_report")

# share of the measuring time per kind of sample; "main" is a solve sample
# followed by an audit sample of its traces
SHARES = {"main": 0.6, "cli": 0.35, "setup": 0.05}
MIN_SAMPLES = 5  # per kind, even past the deadline
# set-up and audit repeat within one sample until it lasts about this long,
# so that no sample is a single call of a few milliseconds
MIN_SAMPLE_S = 0.05
WARMUP_RUN = -(10**9)  # span run of warm-up set-ups, which no metric reads
CHILD_TIMEOUT_S = 60.0
MAX_ERRORS_SHOWN = 20


class Ledger:
    """Attempted and failed operations, and the samples of those that passed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)

    def record(self, metric: str, seconds: float | None, problems: list[str]) -> bool:
        """Count one operation; keep its time (if any) only when it passed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.errors) < MAX_ERRORS_SHOWN:
                self.errors.append(f"{metric}: {'; '.join(problems)}")
            return False
        if seconds is not None:
            self.samples[metric].append(seconds)
        return True


def reps_for(seconds: float) -> int:
    """Repetitions of an operation taking `seconds` that fill one sample."""
    return max(1, math.ceil(MIN_SAMPLE_S / max(seconds, 1e-6)))


def summarize(values: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples above it
    (reported only once that percentile lies above the median)."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n, "p_hi": None, "p_hi_pct": None}
    if n >= 21:
        out["p_hi"] = ordered[n - 11]
        out["p_hi_pct"] = round(100.0 * (n - 10) / n, 1)
    return out


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def env_stamp(root: Path, seed: int) -> dict:
    import numpy as np

    nproc = os.cpu_count() or 1
    thread_vars = {k: os.environ[k] for k in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS") if k in os.environ}
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version", "openblas configuration")}
    except (AttributeError, KeyError, TypeError):
        pass
    threads = []
    for value in thread_vars.values():
        try:
            threads.append(int(value))
        except ValueError:
            pass
    # OpenBLAS and OpenMP default to one thread per online CPU
    blas_threads = min(threads) if threads else nproc
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": thread_vars,
        "blas_threads": blas_threads,
        "nproc": nproc,
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "oversubscribed": any(t > nproc for t in threads),
        "commit": git_commit(root),
        "src_sha256": tree_digest(root / "src" / "proxgrad"),
        "seed": seed,
    }


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def tree_digest(pkg: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(pkg.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(pkg).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def static_counts(root: Path) -> dict:
    """`src_lines`: newline count over src/proxgrad/*.py, as `wc -l` gives it.
    `public_symbols`: names in dir(proxgrad) that do not start with an
    underscore and are not modules."""
    import proxgrad

    pkg = root / "src" / "proxgrad"
    return {
        "src_lines": sum(p.read_bytes().count(b"\n") for p in sorted(pkg.glob("*.py"))),
        "public_symbols": sum(
            1 for n in dir(proxgrad)
            if not n.startswith("_") and not isinstance(getattr(proxgrad, n), types.ModuleType)
        ),
    }


def run_checkers(diag, trace, tail_tolerances) -> list[str]:
    """Names of the checkers `trace` fails.  As in `proxgrad check`, the two
    tail checkers are skipped on traces of fewer than 10 rows."""
    failed = []
    if diag.check_acceptance(trace):
        failed.append("check_acceptance")
    if not diag.check_envelope(trace, trace.config_echo.m):
        failed.append("check_envelope")
    if not diag.check_level_set(trace):
        failed.append("check_level_set")
    if len(trace.records) >= 10:
        steps_tol, product_tol = tail_tolerances(trace)
        if not diag.check_vanishing_steps(trace, steps_tol):
            failed.append("check_vanishing_steps")
        if not diag.check_gamma_step_product(trace, product_tol):
            failed.append("check_gamma_step_product")
    if diag.gamma_bound_report(trace).trend_flag:
        failed.append("gamma_bound_report")
    return failed


class Bench:
    """One workload, one seed, one process."""

    def __init__(self, args, root: Path, work: Path):
        import proxgrad.diagnostics
        import proxgrad.solver
        import spans
        import workloads

        self.args, self.root, self.work = args, root, work
        self.wl, self.spans = workloads, spans
        self.solver = proxgrad.solver
        self.diagnostics = proxgrad.diagnostics
        self.shipped = root / "src" / "proxgrad" / "configs"
        self.ledger = Ledger()
        self.tracer = spans.Tracer() if args.trace else None
        self.counters = None  # of the first pass; every later pass must match
        self.digests = None
        self.solve_runs: list[int] = []
        self.setup_runs: list[int] = []
        self.setup_reps = self.audit_reps = 1
        self.child_times: list[float] = []
        self.rows_bytes = (0, 0)

    # ---- set-up -------------------------------------------------------
    def setup_once(self, warmup: bool = False):
        """One set-up sample of `setup_reps` set-ups from the generated
        inputs; returns what the last one built (or None) and its mean time."""
        api = self.wl.entry_points()
        if self.tracer is not None:
            self.tracer.run = WARMUP_RUN if warmup else -1 - len(self.setup_runs)
            if not warmup:
                self.setup_runs.append(self.tracer.run)
            api = self.wl.entry_points(self.tracer.wrap)
        t0 = time.perf_counter()
        try:
            with self.cli_builders_traced():
                for _ in range(self.setup_reps):
                    built = self.wl.build_cases(api, self.inputs)
            problems = []
        except Exception as exc:  # a failed set-up is counted, not fatal
            problems, built = [f"{type(exc).__name__}: {exc}"], None
        seconds = (time.perf_counter() - t0) / self.setup_reps
        self.ledger.record("warmup.setup_s" if warmup else "setup_s", seconds, problems)
        return built, seconds

    def cli_builders_traced(self):
        """While set-up runs traced, route the builders that
        `cli.load_run_config` calls through spans."""
        if self.tracer is None:
            return contextlib.nullcontext()
        from unittest import mock  # imports asyncio: keep it out of untraced runs' memory

        import proxgrad.cli as cli

        layers = {"build_smooth": "smooth_oracles.build", "build_prox": "prox_oracles.build",
                  "make_problem": "core.build"}
        return mock.patch.multiple(cli, **{name: self.tracer.wrap(layer, getattr(cli, name))
                                           for name, layer in layers.items()})

    # ---- solve and audit ---------------------------------------------
    def solve_pass(self, cases, solve):
        t0 = time.perf_counter()
        reports = [solve(c.problem, c.config, c.x0) for c in cases]
        return time.perf_counter() - t0, reports

    def audit_pass(self, diag, reports):
        """`audit_reps` audits of `reports`; the mean time of one, the trace
        files, and per audit and report the trace read back and the
        checkers it failed."""
        paths = [self.work / f"{c.name}.csv" for c in self.cases]
        t0 = time.perf_counter()
        results = []
        for _ in range(self.audit_reps):
            for report, path in zip(reports, paths):
                diag.write_trace_csv(report.trace, path)
                back = diag.read_trace_csv(path)
                results.append((back, run_checkers(diag, back, self.wl.tail_tolerances)))
        return (time.perf_counter() - t0) / self.audit_reps, paths, results

    def main_step(self, traced: bool, warmup: bool = False) -> float | None:
        """One solve sample, then one audit sample of its traces; returns
        the audit's time.  Traced and warm-up samples are checked like the
        others but kept out of the end-to-end medians."""
        prefix = "warmup." if warmup else "traced." if traced else ""
        if traced:
            self.tracer.run = len(self.solve_runs)
            self.solve_runs.append(self.tracer.run)
            solve, cases, diag = self.traced_solve_fn, self.traced_cases, self.traced_diag
        else:
            solve, cases, diag = self.solver.solve, self.cases, self.diagnostics
        problems: list[str] = []
        try:
            seconds, reports = self.solve_pass(cases, solve)
            counters = []
            for case, rep in zip(self.cases, reports):
                trials = sum(r.inner_iters + 1 for r in rep.trace.records)
                counters.append((rep.status, rep.iterations, trials, len(rep.early_exit_ks)))
                if rep.status not in case.expected:
                    problems.append(f"{case.name} ended {rep.status}, expected {case.expected}")
            if self.counters is None:
                self.counters = counters
            elif counters != self.counters:
                problems.append("work counters differ from the first pass")
        except Exception as exc:
            problems.append(f"solve raised {type(exc).__name__}: {exc}")
            self.ledger.record(prefix + "solve_s", None, problems)
            self.ledger.record(prefix + "audit_s", None, ["no traces to audit"])
            return None
        self.ledger.record(prefix + "solve_s", seconds, problems)

        audit_problems: list[str] = []
        try:
            audit_s, paths, results = self.audit_pass(diag, reports)
            digests = [sha256_file(p) for p in paths]
            for i, (back, failed) in enumerate(results):
                case, rep = self.cases[i % len(reports)], reports[i % len(reports)]
                if failed:
                    audit_problems.append(f"{case.name} fails {', '.join(failed)}")
                if back.records != rep.trace.records:
                    audit_problems.append(f"{case.name} trace does not round-trip")
            if self.digests is None:
                self.digests = dict(zip((c.name for c in self.cases), digests))
                self.rows_bytes = (sum(len(r.trace.records) for r in reports),
                                   sum(p.stat().st_size for p in paths))
            elif digests != list(self.digests.values()):
                audit_problems.append("trace bytes differ from the first pass"
                                      + (" (traced vs untraced)" if traced else ""))
        except Exception as exc:
            audit_s = None
            audit_problems.append(f"audit raised {type(exc).__name__}: {exc}")
        self.ledger.record(prefix + "audit_s", audit_s, audit_problems)
        return audit_s

    def prepare_traced(self):
        t = self.tracer
        self.traced_solve_fn = t.wrap("solver.solve", self.solver.solve)
        self.traced_cases = [replace(c, problem=self.spans.traced_problem(t, c.problem))
                             for c in self.cases]
        d = self.diagnostics
        self.traced_diag = SimpleNamespace(**{
            name: t.wrap(f"diagnostics.{name}", getattr(d, name))
            for name in ("write_trace_csv", "read_trace_csv") + CHECKERS
        })

    # ---- CLI cold start ----------------------------------------------
    def prepare_cli(self, cli_case):
        self.cli = self.wl.cli_job(self.args.workload, self.inputs.cli, cli_case)
        ref_path = self.work / "cli_reference.csv"
        self.diagnostics.write_trace_csv(self.cli.trace, ref_path)
        self.cli_digest = sha256_file(ref_path)
        src = str(self.root / "src")
        pythonpath = os.environ.get("PYTHONPATH")
        self.child_env = dict(os.environ,
                              PYTHONPATH=src + (os.pathsep + pythonpath if pythonpath else ""))

    def cli_sample(self, warmup: bool = False):
        child = str(self.root / "perfbench" / "cli_child.py")
        out = self.work / "cli_trace.csv"
        timing = [self.work / "cli_run_times.json", self.work / "cli_check_times.json"]
        for p in (out, *timing):
            p.unlink(missing_ok=True)
        cmds = [
            [sys.executable, child, str(timing[0]), "run", str(self.cli.config),
             "--output", str(out)],
            [sys.executable, child, str(timing[1]), "check", str(out), *self.cli.check_args],
        ]
        problems = []
        t0 = time.perf_counter()
        try:
            done = [subprocess.run(c, cwd=self.work, env=self.child_env, capture_output=True,
                                   text=True, timeout=CHILD_TIMEOUT_S) for c in cmds]
        except subprocess.TimeoutExpired as exc:
            done = None
            problems.append(f"timed out: {exc.cmd[3:5]}")
        seconds = time.perf_counter() - t0
        if done is not None:
            for proc, want in zip(done, (self.cli.run_exit, 0)):
                if proc.returncode != want:
                    problems.append(f"`proxgrad {proc.args[3]}` exited {proc.returncode}, "
                                    f"expected {want}: {proc.stderr.strip()[-200:]}")
            if not problems and sha256_file(out) != self.cli_digest:
                problems.append("CLI trace bytes differ from the in-process solve")
        metric = "warmup.cli_cold_s" if warmup else "cli_cold_s"
        if self.ledger.record(metric, seconds, problems) and not warmup:
            for p in timing:
                self.child_times.append(json.loads(p.read_text())["cli_import_s"])

    # ---- the run --------------------------------------------------------
    def run(self) -> dict:
        # the seeded inputs are generated once and never timed: set-up
        # samples time only the package's entry points
        self.inputs = self.wl.make_inputs(self.args.workload, self.args.seed, self.work,
                                          self.shipped)
        built, _ = self.setup_once(warmup=True)
        if built is None:
            raise RuntimeError("set-up failed: " + "; ".join(self.ledger.errors))
        self.cases, cli_case = built
        self.prepare_cli(cli_case)
        if self.tracer is not None:
            self.prepare_traced()
        # warm-up: fills caches and writes bytecode; the first pass also
        # fixes the counters and digests every later pass must reproduce.
        # The second warm-up of set-up and audit sets their repetitions.
        self.main_step(traced=False, warmup=True)
        self.audit_reps = reps_for(self.main_step(traced=False, warmup=True) or MIN_SAMPLE_S)
        self.setup_reps = reps_for(self.setup_once(warmup=True)[1])
        self.cli_sample(warmup=True)

        # each kind of sample gets its share of the measuring time and they
        # are interleaved, so slow phases of the machine hit all of them
        steps = {"setup": self.setup_once, "cli": self.cli_sample, "main": self.main_steps}
        print(f"repetitions per sample: set-up {self.setup_reps}, audit {self.audit_reps}")
        spent = dict.fromkeys(SHARES, 0.0)
        count = dict.fromkeys(SHARES, 0)
        deadline = time.perf_counter() + self.args.seconds
        while True:
            short = [k for k in SHARES if count[k] < MIN_SAMPLES]
            if time.perf_counter() >= deadline:
                if not short:
                    break
                kind = short[0]
            else:
                total = sum(spent.values())
                kind = max(SHARES, key=lambda k: SHARES[k] * total - spent[k])
            t0 = time.perf_counter()
            steps[kind]()
            spent[kind] += time.perf_counter() - t0
            count[kind] += 1
        return self.traced_metrics() if self.tracer is not None else self.e2e_metrics()

    def main_steps(self):
        self.main_step(traced=False)
        if self.tracer is not None:
            self.main_step(traced=True)

    def e2e_metrics(self) -> dict:
        values = {m: summarize(self.ledger.samples[m])
                  for m in ("solve_s", "setup_s", "audit_s", "cli_cold_s")
                  if self.ledger.samples[m]}
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
        values["peak_rss_mb"] = {"median": rss, "n": 1, "p_hi": None, "p_hi_pct": None}
        return values

    def traced_metrics(self) -> dict:
        totals = self.spans.totals_by_run(self.tracer.spans)
        samples = [totals[r] for r in self.solve_runs]
        setups = [totals[r] for r in self.setup_runs]

        def series(rows, *keys, per=1):
            return [sum(t.get(k, 0.0) for k in keys) / per for t in rows]

        def audit(*keys):
            return series(samples, *keys, per=self.audit_reps)

        def setup(key):
            return series(setups, key, per=self.setup_reps)

        out: dict[str, list[float]] = {
            "smooth_oracles.f_calls": series(samples, "smooth_oracles.eval:calls"),
            "smooth_oracles.grad_calls": series(samples, "smooth_oracles.grad:calls"),
            "prox_oracles.prox_calls": series(samples, "prox_oracles.prox:calls"),
            "prox_oracles.eval_calls": series(samples, "prox_oracles.eval:calls"),
            "diagnostics.write_s": audit("diagnostics.write_trace_csv:total_s"),
            "diagnostics.read_s": audit("diagnostics.read_trace_csv:total_s"),
            "diagnostics.check_s": audit(*(f"diagnostics.{c}:total_s" for c in CHECKERS)),
            "smooth_oracles.build_s": setup("smooth_oracles.build:total_s"),
            "prox_oracles.build_s": setup("prox_oracles.build:total_s"),
            "core.build_s": setup("core.build:total_s"),
            "cli.load_config_s": setup("cli.load_run_config:total_s"),
            "cli.import_s": self.child_times,
        }
        for layer in SHARE_LAYERS:
            # diagnostics per audit, so that one solve pairs with one audit
            per = self.audit_reps if layer == "diagnostics" else 1
            out[f"{layer}.self_s"] = series(samples, f"{layer}.self_s", per=per)
        busy = [sum(parts) for parts in zip(*(out[f"{layer}.self_s"] for layer in SHARE_LAYERS))]
        for layer in SHARE_LAYERS:
            out[f"{layer}.share"] = [s / b for s, b in zip(out[f"{layer}.self_s"], busy)]

        iterations = sum(c[1] for c in self.counters)
        trials = sum(c[2] for c in self.counters)
        out["solver.self_us_per_iter"] = [1e6 * s / iterations for s in out["solver.self_s"]]
        fixed = {
            "solver.iterations": iterations,
            "solver.trials": trials,
            "solver.rejected_trials": trials - iterations,
            "solver.accept_ratio": iterations / trials,
            "solver.early_exits": sum(c[3] for c in self.counters),
            "diagnostics.trace_rows": self.rows_bytes[0],
            "diagnostics.trace_bytes": self.rows_bytes[1],
            "trace_overhead": (statistics.median(self.ledger.samples["traced.solve_s"])
                               / statistics.median(self.ledger.samples["solve_s"])),
        }
        calls = [tuple(out[k][i] for k in out if k.endswith("_calls"))
                 for i in range(len(samples))]
        for c in calls:
            self.ledger.record("traced.oracle_calls", None,
                               [] if c == calls[0] else ["oracle call counts differ from the "
                                                         "first traced pass"])
        values = {k: summarize(v) for k, v in out.items() if v}
        for k, v in fixed.items():
            values[k] = {"median": v, "n": len(samples), "p_hi": None, "p_hi_pct": None}
        return values


def report(args, bench: Bench, values: dict, env: dict) -> int:
    units = LAYER_UNITS if args.trace else E2E_UNITS
    ledger = bench.ledger
    mode = "traced" if args.trace else "untraced"
    print(f"workload {args.workload}  seed {args.seed}  {mode}  "
          f"failed/attempted {ledger.failed}/{ledger.attempted}")
    if env["oversubscribed"]:
        print(f"warning: thread settings {env['thread_env']} exceed nproc={env['nproc']}")
    print(f"{'metric':28} {'unit':6} {'median':>14} {'high pct':>14} {'pct':>6} {'n':>5}")
    for name, unit in units.items():
        v = values.get(name)
        if v is None:
            print(f"{name:28} {unit:6} {'missing':>14}")
            continue
        hi = "" if v["p_hi"] is None else f"{v['p_hi']:.6g}"
        pct = "" if v["p_hi_pct"] is None else f"p{v['p_hi_pct']:g}"
        print(f"{name:28} {unit:6} {v['median']:14.6g} {hi:>14} {pct:>6} {v['n']:5d}")
    for err in ledger.errors:
        print(f"error: {err}")
    detail = {
        "workload": args.workload, "seed": args.seed, "mode": mode, "env": env,
        "static": static_counts(bench.root), "stats": values,
        "counters": bench.counters, "trace_sha256": bench.digests,
        "cli": {"config": bench.cli.config.name, "check_args": list(bench.cli.check_args),
                "trace_sha256": bench.cli_digest},
    }
    print("detail " + json.dumps(detail, sort_keys=True))
    missing = [n for n in units if n not in values]
    if missing:
        print(f"error: no passing sample for {', '.join(missing)}", file=sys.stderr)
        return 1
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {n: {"value": values[n]["median"], "unit": u} for n, u in units.items()},
    }
    print(json.dumps(result))
    return 0 if ledger.failed == 0 else 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, required=True,
                   help="measuring time; set-up and warm-up come on top")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "proxgrad" / "__init__.py").is_file():
        print(f"error: no proxgrad sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import proxgrad

    if not Path(proxgrad.__file__).resolve().is_relative_to(src):
        print(f"error: imported proxgrad from {proxgrad.__file__}, not {src}", file=sys.stderr)
        return 2
    # quartic_l0 runs with m=5 on a discontinuous penalty on purpose
    warnings.filterwarnings("ignore", message="nonmonotone window")
    # on SIGTERM unwind normally: CLI children are killed and scratch removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    try:
        bench = Bench(args, root, work)
        env = env_stamp(root, args.seed)
        values = bench.run()
        return report(args, bench, values, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
