"""Command-line front end.

Subcommands
-----------
``run <config>``
    Execute a solve described by a JSON config file (or a shipped config
    name), write the CSV trace, and print a one-line summary.  Exit 0 on
    convergence, 2 when the outer iteration cap is hit, 3 when the inner
    loop caps out, 1 on invalid input.
``check <trace>``
    Print the run's status, then one line per trace checker, each run with
    the trace's own config; exit 0 iff all pass (4 when a check fails, 1
    when the file cannot be parsed).
``compare <config> --m M [M ...]``
    Re-run the same problem once per window size and print a comparison CSV.
``list``
    Print the registered oracle names and shipped configs.

This is the one module that reads configs.  `build_smooth` and
`build_prox` map an oracle entry's name and params to the constructors of
`smooth_oracles` and `prox_oracles`; `load_run_config` calls them, and
`make_problem`, by their module-level names.  Each warning of a solve
prints as one ``warning:`` line.  A command raises ValueError on invalid
input (a bad config value, x0, trace or output path, a negative window),
and `main` is the one place that reports it: one ``error:`` line on
stderr and exit 1.

The ``PROXGRAD_LOG`` environment variable ({quiet, info, debug}, default
quiet) is read on every log call, which prints ``INFO ...`` or ``DEBUG ...``
to the current stderr; the CLI attaches no `logging` handler.  Summaries
and CSV output go to stdout; all file formats are bit-exact and
deterministic across invocations.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import warnings
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING

from . import diagnostics
from .core import (CompositeProblem, ProxOracle, SmoothOracle, SolverConfig, as_vector,
                   make_problem)
from .diagnostics import (STATUS_CONVERGED_RESIDUAL, STATUS_CONVERGED_STEP, STATUS_INNER_CAP,
                          STATUS_MAX_OUTER, TraceFormatError, read_trace_csv, write_trace_csv)

if TYPE_CHECKING:  # the commands that solve import the engine
    from .solver import SolveReport

__all__ = ["main", "load_run_config", "build_smooth", "build_prox"]

_EXIT_OK = 0
_EXIT_INVALID = 1
_EXIT_MAX_OUTER = 2
_EXIT_INNER_CAP = 3
_EXIT_CHECK_FAILED = 4

_STATUS_EXIT = {
    STATUS_CONVERGED_RESIDUAL: _EXIT_OK,
    STATUS_CONVERGED_STEP: _EXIT_OK,
    STATUS_MAX_OUTER: _EXIT_MAX_OUTER,
    STATUS_INNER_CAP: _EXIT_INNER_CAP,
}

COMPARE_HEADER = "m,status,outer_iters,total_inner,final_psi"
_CONFIG_DIR = Path(__file__).with_name("configs")


def _log(level: str, message: str) -> None:
    """Print ``LEVEL message`` to stderr if ``PROXGRAD_LOG`` asks for `level`."""
    if os.environ.get("PROXGRAD_LOG") in {"info": ("info", "debug"), "debug": ("debug",)}[level]:
        print(f"{level.upper()} {message}", file=sys.stderr)


def shipped_config_names() -> list[str]:
    """Names of the example configs distributed with the package."""
    return sorted(p.stem for p in _CONFIG_DIR.glob("*.json"))


def _resolve_config_path(arg: str) -> Path:
    """A config argument is a filesystem path or a shipped config name."""
    for path in (Path(arg), _CONFIG_DIR / f"{arg.removesuffix('.json')}.json"):
        if path.is_file():
            return path
    raise ValueError(f"config {arg!r} not found")


def _section(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(value).__name__}")
    return value


@functools.cache
def _registries() -> dict:
    """kind -> name -> (constructor, parameters, array parameters); built once."""
    from .prox_oracles import make_box, make_l0, make_l1, make_lp_half, make_sphere, make_zero
    from .smooth_oracles import make_logistic, make_quadratic, make_quartic
    return {"smooth": {
        "quadratic": (make_quadratic, ("A", "b"), ("A",)),
        "quartic": (make_quartic, (), ()),
        "logistic": (make_logistic, ("A", "labels"), ("A", "labels")),
    }, "prox": {
        "zero": (make_zero, (), ()),
        "l1": (make_l1, ("lam",), ()),
        "l0": (make_l0, ("lam",), ()),
        "lp_half": (make_lp_half, ("lam",), ()),
        "box": (make_box, ("lo", "hi"), ("lo", "hi")),
        "sphere": (make_sphere, ("radius",), ()),
    }}


def _numbers(value, where: str):
    """`value`, unless it or an entry of its nested lists is a JSON boolean
    or string: numpy would read ``true`` as 1.0 and parse ``"0.5"``."""
    items = value if type(value) is list else (value,)
    kinds = set(map(type, items))
    if bool in kinds or str in kinds:
        bad = next(v for v in items if type(v) in (bool, str))
        raise ValueError(f"{where}: {bad!r} is not a number")
    if list in kinds:
        for v in items:
            _numbers(v, where)
    return value


def _build_oracle(kind: str, name: str, params, dimension: int):
    """Construct the `kind` oracle `name` from config-file `params`: its
    constructor takes its parameters in order, and its first array
    parameter's last axis has the problem's `dimension`."""
    import numpy as np
    registry = _registries()[kind]
    if not isinstance(name, str) or name not in registry:
        known = ", ".join(sorted(registry))
        raise ValueError(f"unknown {kind} oracle {name!r} (known: {known})")
    make, names, arrays = registry[name]
    if not isinstance(params, dict):
        raise ValueError(f"{kind} oracle {name!r}: params must be an object")
    wrong = [f"missing {p!r}" for p in names if p not in params]
    wrong += [f"unknown {p!r}" for p in sorted(set(params) - set(names))]
    if wrong:
        expected = ", ".join(names) or "none"
        raise ValueError(f"{kind} oracle {name!r}: {', '.join(wrong)} parameter "
                         f"(expected: {expected})")
    for p in names:
        _numbers(params[p], f"{kind} oracle {name!r} parameter {p!r}")
    args = dict(params)
    for p in arrays:
        try:
            args[p] = np.asarray(args[p], dtype=np.float64)
        except (TypeError, OverflowError, ValueError) as exc:
            raise ValueError(f"{kind} oracle {name!r}: bad parameter {p!r}: {exc}") from None
    try:
        oracle = make(*(args[p] for p in names))
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"{kind} oracle {name!r}: bad parameter: {exc}") from None
    if arrays and args[arrays[0]].shape[-1] != dimension:
        raise ValueError(f"{kind} oracle {name!r}: {arrays[0]!r} has dimension "
                         f"{args[arrays[0]].shape[-1]} but problem dimension is {dimension}")
    return oracle


def build_smooth(name: str, params: dict, dimension: int) -> SmoothOracle:
    """Construct a registered smooth oracle from config-file parameters."""
    return _build_oracle("smooth", name, params, dimension)


def build_prox(name: str, params: dict, dimension: int) -> ProxOracle:
    """Construct a registered prox oracle from config-file parameters."""
    return _build_oracle("prox", name, params, dimension)


def load_run_config(path: Path) -> dict:
    """Parse and validate a run config; returns a dict with instantiated
    problem, solver config, x0, and output path.

    Raises ValueError with a diagnostic message on any invalid entry.
    """
    import numpy as np
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"config is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ValueError("config is nested too deeply") from None
    if "problem" not in _section(raw, "config"):
        raise ValueError("config is missing the 'problem' section")
    prob = _section(raw["problem"], "problem section")
    for key in ("smooth", "nonsmooth", "dimension"):
        if key not in prob:
            raise ValueError(f"problem section is missing {key!r}")
    dimension = prob["dimension"]
    if not (type(dimension) is int and dimension >= 1):
        raise ValueError(f"problem dimension must be a positive integer, got {dimension!r}")

    f_entry = _section(prob["smooth"], "problem 'smooth' entry")
    phi_entry = _section(prob["nonsmooth"], "problem 'nonsmooth' entry")
    smooth = build_smooth(f_entry.get("name"), f_entry.get("params", {}), dimension)
    nonsmooth = build_prox(phi_entry.get("name"), phi_entry.get("params", {}), dimension)
    problem = make_problem(smooth, nonsmooth, dimension)

    solver_fields = _section(raw.get("solver", {}), "solver section")
    try:
        config = SolverConfig(**solver_fields)
    except TypeError as exc:
        raise ValueError(f"bad solver section: {exc}") from exc

    x0_raw = raw.get("x0", "zeros")
    if x0_raw in ("zeros", "ones"):
        try:
            x0 = np.zeros(dimension) if x0_raw == "zeros" else np.ones(dimension)
        except MemoryError:
            raise ValueError(f"problem dimension {dimension} is too large: "
                             f"x0 {x0_raw!r} does not fit in memory") from None
    elif isinstance(x0_raw, list):
        x0 = _numbers(x0_raw, "x0")
        try:
            x0 = as_vector(x0, dimension)
        except ValueError as exc:
            raise ValueError(f"x0: {exc}") from None
    else:
        raise ValueError(f"x0 must be 'zeros', 'ones', or a coordinate list, got {x0_raw!r}")

    output = raw.get("output", f"{path.stem}_trace.csv")
    if not isinstance(output, str):
        raise ValueError(f"output must be a file path string, got {output!r}")
    return {"problem": problem, "config": config, "x0": x0, "output": Path(output)}


def _run_one(problem: CompositeProblem, config: SolverConfig, x0, out: Path) -> SolveReport:
    """Solve once and write the trace to `out`.  Each warning of the solve
    prints as one ``warning:`` line, before any error this raises."""
    from .solver import solve
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = solve(problem, config, x0)
    finally:
        for w in caught:
            print(f"warning: {w.message}", file=sys.stderr)
    _log("info", f"run {problem.name}: status={report.status} "
                 f"iterations={report.iterations} early_exits={list(report.early_exit_ks)}")
    try:
        write_trace_csv(report.trace, out)
    except OSError as exc:
        raise ValueError(f"cannot write trace to {out}: {exc}") from exc
    _log("debug", f"trace written to {out} ({len(report.trace.records)} rows)")
    return report


def cmd_run(args) -> int:
    cfg = load_run_config(_resolve_config_path(args.config))
    out = Path(args.output) if args.output else cfg["output"]
    report = _run_one(cfg["problem"], cfg["config"], cfg["x0"], out)
    print(
        f"status={report.status} k={report.iterations} "
        f"psi={report.psi_final:.17g} residual={report.final_residual:.17g}"
    )
    return _STATUS_EXIT[report.status]


def cmd_check(args) -> int:
    for flag, tol in (("--steps-tol", args.steps_tol), ("--product-tol", args.product_tol)):
        if tol is not None and not 0.0 <= tol < math.inf:
            raise ValueError(f"{flag} must be finite and >= 0, got {tol}")
    try:
        trace = read_trace_csv(args.trace)
    except (OSError, TraceFormatError) as exc:
        raise ValueError(f"cannot read trace: {exc}") from exc
    # tail-check defaults follow the run's tau_abs, floored at desk-scale bands; raw
    # step norms shrink like tau_abs / gamma, so the steps band is over min(1, gamma)
    tau_abs = trace.config_echo.tau_abs
    gamma = min([1.0, *(g for g in diagnostics._tail([r.gamma for r in trace.records]) if g > 0)])
    steps_tol = args.steps_tol if args.steps_tol is not None else max(tau_abs, 1e-6) / gamma
    product_tol = args.product_tol if args.product_tol is not None else max(10.0 * tau_abs, 1e-5)

    print(f"status: {trace.status}")
    ok = True
    violations = diagnostics.check_acceptance(trace)
    if violations:
        ok = False
        print(f"check_acceptance: FAIL ({len(violations)} violations)")
        for v in violations:
            print(f"  row {v.k}: {v.detail}")
    else:
        print("check_acceptance: pass")

    for name, result in (
        ("check_envelope", diagnostics.check_envelope(trace, trace.config_echo.m)),
        ("check_level_set", diagnostics.check_level_set(trace)),
    ):
        print(f"{name}: {'pass' if result else 'FAIL'}")
        ok = ok and result

    for name, checker, tol in (
        ("check_vanishing_steps", diagnostics.check_vanishing_steps, steps_tol),
        ("check_gamma_step_product", diagnostics.check_gamma_step_product, product_tol),
    ):
        if len(trace.records) < 10:
            print(f"{name}: skipped (trace has {len(trace.records)} rows < 10)")
            continue
        result = checker(trace, tol)
        print(f"{name}: {'pass' if result else 'FAIL'} (tol={tol:g})")
        ok = ok and result

    g = diagnostics.gamma_bound_report(trace)
    print(f"gamma_bound: max={g.max_gamma:.6g} trend={'true' if g.trend_flag else 'false'}")

    return _EXIT_OK if ok else _EXIT_CHECK_FAILED


def cmd_compare(args) -> int:
    cfg = load_run_config(_resolve_config_path(args.config))
    # every window is validated by SolverConfig before the first solve
    configs = [replace(cfg["config"], m=m) for m in args.m]

    rows = []
    all_converged = True
    out_base = cfg["output"]
    for config in configs:
        trace_path = out_base.with_name(f"{out_base.stem}_m{config.m}{out_base.suffix}")
        report = _run_one(cfg["problem"], config, cfg["x0"], trace_path)
        total_inner = sum(r.inner_iters + 1 for r in report.trace.records) + (
            config.max_inner if report.status == STATUS_INNER_CAP else 0)
        rows.append(f"{config.m},{report.status},{report.iterations},{total_inner},"
                    f"{report.psi_final:.17g}")
        all_converged = all_converged and _STATUS_EXIT[report.status] == _EXIT_OK
    print("\n".join([COMPARE_HEADER] + rows))
    return _EXIT_OK if all_converged else _EXIT_MAX_OUTER


def cmd_list(args) -> int:
    for title, names in (("smooth oracles", _registries()["smooth"]),
                         ("prox oracles", _registries()["prox"]),
                         ("shipped configs", shipped_config_names())):
        print(f"{title}:")
        for name in sorted(names):
            print(f"  {name}")
    return _EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proxgrad",
        description="Backtracking proximal gradient solver for composite problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve a configured problem and write its trace")
    p_run.add_argument("config", help="path to a JSON run config, or a shipped config name")
    p_run.add_argument("--output", help="override the trace output path")
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check", help="verify the invariants of a trace file")
    p_check.add_argument("trace", help="path to a CSV trace")
    p_check.add_argument("--steps-tol", type=float, default=None,
                         help="tolerance for the vanishing-steps check "
                              "(default: max(tau_abs, 1e-6) / min(1, gamma) over the tail)")
    p_check.add_argument("--product-tol", type=float, default=None,
                         help="tolerance for the gamma*step check "
                              "(default: max(10*tau_abs, 1e-5))")
    p_check.set_defaults(func=cmd_check)

    p_cmp = sub.add_parser("compare", help="run several window sizes on one problem")
    p_cmp.add_argument("config", help="path to a JSON run config, or a shipped config name")
    p_cmp.add_argument("--m", type=int, nargs="+", required=True,
                       help="window sizes to run, in output order")
    p_cmp.set_defaults(func=cmd_compare)

    p_list = sub.add_parser("list", help="show registered oracles and shipped configs")
    p_list.set_defaults(func=cmd_list)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INVALID
