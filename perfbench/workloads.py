"""Seeded inputs of the benchmark workloads.

Every input is a pure function of the workload seed.  The program under
test sees only the generated arrays or config files, never the seed.

Solves on the two large workloads run a fixed outer budget (``max_outer``)
with a ``tau_abs`` they cannot reach in it, so every seed does the same
number of outer iterations: converging to a tolerance takes 50-110
iterations on the l1 lasso and 27-290 on the lp_half lasso depending on the
seed, a spread that would swamp any code change.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from proxgrad import cli, core, prox_oracles, smooth_oracles
from proxgrad.solver import SolverConfig, solve

CONVERGED = ("converged_residual", "converged_step")
CAPPED = ("max_outer_reached",)

SHIPPED = ("lasso_small", "logistic_l1", "quartic_box", "quartic_l0", "sphere_quadratic")
DESK_CLI_CONFIG = "quartic_box"  # the longest shipped run: 703 iterations


@dataclass(frozen=True)
class LassoSpec:
    """0.5*||A x - b||^2 + penalty on a planted sparse signal."""

    name: str
    rows: int
    cols: int
    rho: float  # AR(1) correlation between neighbouring columns of A
    nnz: int
    penalty: str  # "l1", "lp_half" or "zero"
    lam_frac: float  # lam as a fraction of ||A^T b||_inf
    solver: dict
    expected: tuple[str, ...]


# Smooth-heavy: correlated columns make matvecs dominate; BB guesses are
# accepted at almost every trial.
LASSO_L1 = LassoSpec(
    "lasso_l1", 1000, 2000, 0.8, 40, "l1", 0.05,
    dict(m=5, gamma0_strategy="bb_safeguarded", tau_abs=1e-12, eps_step=0.0, max_outer=60),
    CAPPED,
)
# Prox-heavy: the lp_half prox loops over 2000 coordinates in Python, and a
# constant gamma0 below the curvature costs about five trials per step.
# gamma0 = 0.07 puts the accepted gamma (about 1.1) mid-way between two
# powers of tau, so the trial count does not flip between seeds.
SPARSE_LPHALF = LassoSpec(
    "sparse_lphalf", 200, 2000, 0.0, 20, "lp_half", 0.1,
    dict(m=0, gamma0_strategy="constant", gamma0_value=0.07, tau_abs=1e-12,
         eps_step=0.0, max_outer=30),
    CAPPED,
)
# Desk-scale problems for the two prox oracles no shipped config uses.
DESK_SEEDED = (
    LassoSpec("seeded_zero", 20, 20, 0.0, 4, "zero", 0.0,
              dict(m=5, tau_abs=1e-12, eps_step=0.0, max_outer=50), CAPPED),
    LassoSpec("seeded_lp_half", 80, 20, 0.0, 4, "lp_half", 0.1,
              dict(m=5, tau_abs=1e-8), CONVERGED),
)
# What `proxgrad run` gets on the large workloads: the same problem family
# and solver settings at a size whose JSON config loads in milliseconds.
# At this size some seeds reach an exact fixed point within the budget.
CLI_REPLICAS = {
    "lasso_l1": replace(LASSO_L1, name="lasso_l1_cli", rows=50, cols=100, nnz=5,
                        expected=CAPPED + CONVERGED),
    "sparse_lphalf": replace(SPARSE_LPHALF, name="sparse_lphalf_cli", rows=40, cols=200, nnz=4,
                             expected=CAPPED + CONVERGED),
}
# exit codes of `proxgrad run`
RUN_EXIT = {"converged_residual": 0, "converged_step": 0, "max_outer_reached": 2}


@dataclass(frozen=True)
class Case:
    """One solve of a workload and the statuses it may end with."""

    name: str
    problem: object
    config: SolverConfig
    x0: np.ndarray
    expected: tuple[str, ...]


@dataclass(frozen=True)
class LassoData:
    """The seeded arrays of one LassoSpec."""

    spec: LassoSpec
    a: np.ndarray
    b: np.ndarray
    lam: float


@dataclass(frozen=True)
class ConfigFile:
    """A `proxgrad run` config and the statuses its solve may end with."""

    name: str
    path: Path
    expected: tuple[str, ...]


@dataclass(frozen=True)
class Inputs:
    """What set-up builds from, generated once before anything is timed."""

    solved: tuple  # LassoData or ConfigFile, one per case of a solve sample
    cli: ConfigFile  # the config `proxgrad run` gets


@dataclass(frozen=True)
class CliJob:
    """`proxgrad run config` then `proxgrad check trace *check_args`."""

    config: Path
    run_exit: int  # what the in-process solve of the config implies
    check_args: tuple[str, ...]
    trace: object  # of the in-process solve; the CLI must write it byte for byte


def entry_points(wrap=lambda name, fn: fn):
    """The package functions that set-up goes through; `wrap` may trace them."""
    return SimpleNamespace(
        make_quadratic=wrap("smooth_oracles.build", smooth_oracles.make_quadratic),
        make_penalty={
            "l1": wrap("prox_oracles.build", prox_oracles.make_l1),
            "lp_half": wrap("prox_oracles.build", prox_oracles.make_lp_half),
        },
        make_problem=wrap("core.build", core.make_problem),
        load_run_config=wrap("cli.load_run_config", cli.load_run_config),
    )


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """Independent generator per (seed, input stream)."""
    return np.random.default_rng([seed & (2**64 - 1), *stream.encode()])


def ar1_design(rng: np.random.Generator, rows: int, cols: int, rho: float) -> np.ndarray:
    """Gaussian rows x cols matrix whose columns form an AR(1) chain with
    correlation `rho`; entries have variance 1/rows.  Built in place in its
    final C-ordered layout, so generating it never holds a second copy."""
    a = rng.standard_normal((rows, cols))
    if rho:
        c = math.sqrt(1.0 - rho * rho)
        for j in range(1, cols):
            col = a[:, j]
            col *= c
            col += rho * a[:, j - 1]
    a /= math.sqrt(rows)
    return a


def planted_data(spec: LassoSpec, seed: int) -> LassoData:
    """Design, response with 1% noise, and lam for `spec`."""
    rng = rng_for(seed, spec.name)
    a = ar1_design(rng, spec.rows, spec.cols, spec.rho)
    x = np.zeros(spec.cols)
    idx = rng.choice(spec.cols, spec.nnz, replace=False)
    x[idx] = rng.choice([-1.0, 1.0], spec.nnz) * rng.uniform(0.5, 1.5, spec.nnz)
    b = a @ x + 0.01 * rng.standard_normal(spec.rows)
    lam = spec.lam_frac * float(np.max(np.abs(a.T @ b)))
    return LassoData(spec, a, b, lam)


def write_config(data: LassoData, path: Path) -> ConfigFile:
    """Write `data` as a `proxgrad run` config."""
    spec = data.spec
    params = {} if spec.penalty == "zero" else {"lam": data.lam}
    raw = {
        "problem": {
            "smooth": {"name": "quadratic",
                       "params": {"A": data.a.tolist(), "b": data.b.tolist()}},
            "nonsmooth": {"name": spec.penalty, "params": params},
            "dimension": spec.cols,
        },
        "solver": spec.solver,
        "x0": "zeros",
        "output": str(path.with_suffix(".csv")),
    }
    path.write_text(json.dumps(raw), encoding="utf-8")
    return ConfigFile(spec.name, path, spec.expected)


def make_inputs(workload: str, seed: int, work_dir: Path, shipped_dir: Path) -> Inputs:
    """Generate the seeded arrays and config files of `workload`."""
    if workload in ("lasso_l1", "sparse_lphalf"):
        spec = LASSO_L1 if workload == "lasso_l1" else SPARSE_LPHALF
        replica = CLI_REPLICAS[workload]
        return Inputs((planted_data(spec, seed),),
                      write_config(planted_data(replica, seed),
                                   work_dir / f"{replica.name}.json"))
    if workload == "desk_configs":
        shipped = [ConfigFile(n, shipped_dir / f"{n}.json", CONVERGED) for n in SHIPPED]
        seeded = [write_config(planted_data(spec, seed), work_dir / f"{spec.name}.json")
                  for spec in DESK_SEEDED]
        return Inputs((*shipped, *seeded), shipped[SHIPPED.index(DESK_CLI_CONFIG)])
    raise ValueError(f"unknown workload {workload!r}")


def build_case(api, source) -> Case:
    """Build one case through the package's entry points: the library
    constructors for generated arrays, `load_run_config` for a config."""
    if isinstance(source, LassoData):
        spec = source.spec
        problem = api.make_problem(api.make_quadratic(source.a, source.b),
                                   api.make_penalty[spec.penalty](source.lam), spec.cols)
        return Case(spec.name, problem, SolverConfig(**spec.solver), np.zeros(spec.cols),
                    spec.expected)
    cfg = api.load_run_config(source.path)
    return Case(source.name, cfg["problem"], cfg["config"], cfg["x0"], source.expected)


def build_cases(api, inputs: Inputs) -> tuple[list[Case], Case]:
    """Everything set-up produces: the cases one solve sample runs, and the
    case of the CLI config (one of them on `desk_configs`)."""
    cases = [build_case(api, source) for source in inputs.solved]
    for source, case in zip(inputs.solved, cases):
        if source is inputs.cli:
            return cases, case
    return cases, build_case(api, inputs.cli)


def tail_tolerances(trace) -> tuple[float, float]:
    """Bands for the two tail checkers: a tenfold contraction of the first
    step's length and of its gamma * step.  The default bands of `proxgrad
    check` assume a run converged to a small tau_abs; budget-capped runs
    and short converged runs need a band relative to their own scale."""
    first = trace.records[0]
    return 0.1 * first.step_norm, 0.1 * first.gamma * first.step_norm


def cli_job(workload: str, config: ConfigFile, case: Case) -> CliJob:
    """The cold-start command of `workload`, checked against the same config
    solved in-process."""
    report = solve(case.problem, case.config, case.x0)
    if report.status not in config.expected:
        raise RuntimeError(f"{config.path.name} ended {report.status}, expected {config.expected}")
    check_args: tuple[str, ...] = ()
    if workload != "desk_configs":
        steps_tol, product_tol = tail_tolerances(report.trace)
        check_args = ("--steps-tol", repr(steps_tol), "--product-tol", repr(product_tol))
    return CliJob(config.path, RUN_EXIT[report.status], check_args, report.trace)
