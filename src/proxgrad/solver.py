"""Backtracking proximal gradient engine with a nonmonotone acceptance window.

One engine covers both variants: the acceptance test measures sufficient
decrease against the maximum of the last ``min(k, m) + 1`` objective values,
and ``m = 0`` reduces it to the classical monotone method (a single code
path halves the test surface; `solve_monotone` simply forwards with m = 0).

No stepsize rule needs a Lipschitz constant: each outer iteration starts
from a spectral or constant guess ``gamma0 in [gamma_min, gamma_max]`` and
multiplies by ``tau > 1`` until the candidate proximal step passes the
acceptance test.  Termination is certified through the computable
stationarity residual

    ``|| gamma_{k-1} (x^{k-1} - x^k) + grad f(x^k) - grad f(x^{k-1}) ||``

checked before any work at each iteration, with a step-norm fallback as a
secondary exit.  A run is strictly sequential, holds no global mutable
state, and is deterministic given (problem, config, x0).  Problems are
frozen dataclasses, and each smooth oracle's one-entry memo returns on a hit
the bits a recompute would give, so any number of solves may share a problem
concurrently.
"""

from __future__ import annotations

import math
import warnings
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .core import CompositeProblem, Vector, as_vector
from .diagnostics import IterateRecord, Trace, hash_x0

__all__ = [
    "SolverConfig",
    "InnerCapExceeded",
    "SolveReport",
    "subproblem_solve",
    "gamma0_select",
    "backtrack",
    "outer_residual",
    "solve",
    "solve_monotone",
]

GAMMA0_STRATEGIES = ("constant", "bb_safeguarded")

STATUS_CONVERGED_RESIDUAL = "converged_residual"
STATUS_CONVERGED_STEP = "converged_step"
STATUS_MAX_OUTER = "max_outer_reached"
STATUS_INNER_CAP = "inner_loop_cap"


@dataclass(frozen=True)
class SolverConfig:
    """All algorithm parameters.

    Defaults follow common practice for this method family: a small
    sufficient-decrease constant, a window of 5, and wide stepsize bounds.
    `tau` must exceed 1 so that backtracking actually increases gamma.
    """

    tau: float = 2.0
    gamma_min: float = 1e-8
    gamma_max: float = 1e8
    delta: float = 1e-4
    m: int = 5
    gamma0_strategy: str = "bb_safeguarded"
    gamma0_value: float = 1.0
    tau_abs: float = 1e-6
    eps_step: float = 1e-10
    max_outer: int = 10000
    max_inner: int = 100

    def __post_init__(self):
        if not self.tau > 1:
            raise ValueError(f"tau must be > 1, got {self.tau}")
        if not 0 < self.gamma_min <= self.gamma_max < math.inf:
            raise ValueError(
                f"need 0 < gamma_min <= gamma_max < inf, got "
                f"[{self.gamma_min}, {self.gamma_max}]"
            )
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if not (type(self.m) is int and self.m >= 0):
            raise ValueError(f"m must be a nonnegative integer, got {self.m}")
        if self.gamma0_strategy not in GAMMA0_STRATEGIES:
            raise ValueError(
                f"gamma0_strategy must be one of {GAMMA0_STRATEGIES}, "
                f"got {self.gamma0_strategy!r}"
            )
        if not self.gamma0_value > 0:
            raise ValueError(f"gamma0_value must be positive, got {self.gamma0_value}")
        if not self.tau_abs > 0:
            raise ValueError(f"tau_abs must be positive, got {self.tau_abs}")
        if self.eps_step < 0:
            raise ValueError(f"eps_step must be >= 0, got {self.eps_step}")
        if not (type(self.max_outer) is int and self.max_outer >= 1):
            raise ValueError(f"max_outer must be a positive integer, got {self.max_outer}")
        if not (type(self.max_inner) is int and self.max_inner >= 1):
            raise ValueError(f"max_inner must be a positive integer, got {self.max_inner}")


def _clamp(value: float, lo: float, hi: float) -> float:
    return min(max(value, lo), hi)


def gamma0_select(config: SolverConfig,
                  prev: tuple[Vector, Vector, float] | None) -> float:
    """Pick the trial stepsize parameter gamma0 in [gamma_min, gamma_max].

    `prev` is the previous accepted step ``(s, y, gamma)``: s = x^k - x^{k-1},
    y = grad f(x^k) - grad f(x^{k-1}) and its accepted gamma_{k-1}; None on
    the first iteration.  The ``constant`` strategy clamps the configured
    value.  The ``bb_safeguarded`` strategy clamps the spectral quotient
    <s,y>/<s,s>, falling back to the previous accepted gamma when <s,y> <= 0
    or s = 0, and to 1 on the first iteration.
    """
    if config.gamma0_strategy == "constant":
        return _clamp(config.gamma0_value, config.gamma_min, config.gamma_max)
    if prev is None:
        return _clamp(1.0, config.gamma_min, config.gamma_max)
    s, y, gamma_prev = prev
    sy = float(np.dot(s, y))
    ss = float(np.dot(s, s))
    if sy > 0.0 and ss > 0.0:
        return _clamp(sy / ss, config.gamma_min, config.gamma_max)
    return _clamp(gamma_prev, config.gamma_min, config.gamma_max)


def subproblem_solve(problem: CompositeProblem, x_k: Vector, grad_k: Vector,
                     gamma: float) -> Vector:
    """Global minimizer of the quadratic-plus-nonsmooth model around x_k.

    Completing the square turns the model into a prox evaluation at the
    forward point: ``prox(gamma, x_k - grad_k / gamma)``.
    """
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    return problem.nonsmooth.prox(gamma, x_k - grad_k / gamma)


class InnerCapExceeded(Exception):
    """The inner loop hit max_inner without acceptance.

    Signals that the current iterate is numerically stationary already or
    that the tolerances are inconsistent; the outer loop converts this into
    a clean ``inner_loop_cap`` status rather than crashing.
    """

    def __init__(self, trials: int, last_gamma: float):
        super().__init__(f"no acceptance within {trials} inner iterations "
                         f"(last gamma {last_gamma:.3e})")
        self.trials = trials
        self.last_gamma = last_gamma


def backtrack(problem: CompositeProblem, x_k: Vector, grad_k: Vector,
              gamma0_k: float, psi_ref: float, config: SolverConfig) -> tuple:
    """Inner loop: grow gamma by factors of tau until a candidate is accepted.

    A candidate passes either the sufficient-decrease test against `psi_ref`
    or, failing that, the inner stationarity test
    ``||grad f(x) - grad f(x_k) + gamma (x_k - x)|| <= tau_abs`` which marks
    the candidate as approximately stationary already (reported via
    `early_exit`).  Each trial evaluates f, phi and grad f once at the
    candidate.  A trial whose psi or gradient is not finite passes neither
    test.

    Returns the plain tuple ``(x_next, gamma, inner_iters, psi_next, f_next,
    phi_next, step_norm, early_exit, grad_next)`` of the accepted candidate:
    its accepted gamma, the number of rejected trials before it, its
    objective pieces, ``||x_next - x_k||``, the test that accepted it and
    its gradient.

    Raises
    ------
    InnerCapExceeded
        After `config.max_inner` unaccepted trials.
    """
    gamma = gamma0_k
    for i in range(config.max_inner):
        cand = subproblem_solve(problem, x_k, grad_k, gamma)
        if not np.isfinite(cand).all():
            raise ValueError("prox oracle produced a non-finite candidate")
        d = cand - x_k
        step_sq = float(np.dot(d, d))
        f_cand = float(problem.smooth.eval(cand))
        phi_cand = float(problem.nonsmooth.eval(cand))
        psi_cand = f_cand + phi_cand
        grad_cand = problem.smooth.grad(cand)
        # a trial with a non-finite psi or gradient is rejected, whatever
        # the comparisons below would make of its NaN or inf
        if math.isfinite(psi_cand) and np.isfinite(grad_cand).all():
            if psi_cand <= psi_ref - config.delta * (gamma / 2.0) * step_sq:
                return (cand, gamma, i, psi_cand, f_cand, phi_cand,
                        math.sqrt(step_sq), False, grad_cand)
            inner_res = grad_cand - grad_k + gamma * (x_k - cand)
            if math.sqrt(float(np.dot(inner_res, inner_res))) <= config.tau_abs:
                return (cand, gamma, i, psi_cand, f_cand, phi_cand,
                        math.sqrt(step_sq), True, grad_cand)
        gamma = gamma * config.tau
    raise InnerCapExceeded(config.max_inner, gamma / config.tau)


def outer_residual(x_prev: Vector, x_cur: Vector, gamma_prev: float,
                   grad_prev: Vector, grad_cur: Vector) -> float:
    """Stationarity residual at the current iterate:
    ``||gamma_prev (x_prev - x_cur) + grad_cur - grad_prev||``."""
    if not gamma_prev > 0:
        raise ValueError(f"gamma_prev must be positive, got {gamma_prev}")
    r = gamma_prev * (x_prev - x_cur) + grad_cur - grad_prev
    return math.sqrt(float(np.dot(r, r)))


@dataclass(frozen=True)
class SolveReport:
    """Terminal point, exit status, final residual, and the full trace.

    `iterations` counts accepted outer steps (== number of trace rows; for
    ``inner_loop_cap`` it is the iteration index k at which the cap fired).
    `early_exit_ks` lists iterations whose step was accepted through the
    inner stationarity test instead of sufficient decrease.
    """

    x_final: Vector
    status: str
    final_residual: float
    iterations: int
    psi_final: float
    trace: Trace
    early_exit_ks: tuple[int, ...] = ()


def solve(problem: CompositeProblem, config: SolverConfig, x0) -> SolveReport:
    """Run the proximal gradient method from x0 until a termination fires.

    The starting point must lie in the domain of the nonsmooth term and the
    smooth term must be finite there; otherwise a ValueError names the term
    at fault.  Every accepted iterate stays in the initial sublevel set, and
    each trace row carries the acceptance certificate that produced it.
    """
    x = x0 = as_vector(x0, problem.dimension)
    # one errstate, entered once per solve: an overflow at x0 or at a trial
    # point is met by the finiteness checks here and in backtrack, not
    # printed as a numpy warning too
    with np.errstate(all="ignore"):
        f_x = float(problem.smooth.eval(x))
        phi_x = float(problem.nonsmooth.eval(x))
        psi_x = f_x + phi_x
        if not math.isfinite(phi_x):
            raise ValueError("x0 not in the domain of the nonsmooth term: phi(x0) is not finite")
        if not math.isfinite(f_x):
            raise ValueError(f"smooth term {problem.smooth.name!r} is not finite at x0: "
                             f"f(x0) = {f_x}")
        if config.m > 0 and not problem.nonsmooth.continuous_on_domain:
            warnings.warn(
                f"nonmonotone window m={config.m} with a nonsmooth term that is not "
                "continuous on its domain: the envelope-based convergence guarantees "
                "do not apply",
                UserWarning,
                stacklevel=2,
            )

        grad = problem.smooth.grad(x)
        # the last min(k, m) + 1 accepted objective values; with m = 0 their
        # maximum is the current one and the test is plain sufficient decrease
        window = deque([psi_x], maxlen=config.m + 1)
        records: list[IterateRecord] = []
        early_ks: list[int] = []
        # the previous accepted step (s, y, gamma) and the iterate and
        # gradient it started from; None before the first step
        prev = x_prev = grad_prev = None
        step_small = False
        k = 0

        while True:
            if prev is None:
                residual = math.inf
            else:
                residual = outer_residual(x_prev, x, gamma, grad_prev, grad)
            if residual <= config.tau_abs:
                status = STATUS_CONVERGED_RESIDUAL
                break
            if step_small:
                # the fallback exit is secondary: it fires only after the
                # residual check at the new iterate declined to certify
                status = STATUS_CONVERGED_STEP
                break
            if k >= config.max_outer:
                status = STATUS_MAX_OUTER
                break

            gamma0 = gamma0_select(config, prev)
            psi_ref = max(window)
            try:
                (x_next, gamma, inner_iters, psi_next, f_next, phi_next,
                 step_norm, early_exit, grad_next) = backtrack(
                    problem, x, grad, gamma0, psi_ref, config)
            except InnerCapExceeded:
                status = STATUS_INNER_CAP
                break

            records.append(
                IterateRecord(
                    k=k,
                    psi=psi_x,
                    f_val=f_x,
                    phi_val=phi_x,
                    gamma0=gamma0,
                    gamma=gamma,
                    inner_iters=inner_iters,
                    step_norm=step_norm,
                    residual=residual,
                    accepted_ref=psi_ref,
                )
            )
            if early_exit:
                early_ks.append(k)

            prev = (x_next - x, grad_next - grad, gamma)
            x_prev, grad_prev = x, grad
            x, grad = x_next, grad_next
            f_x, phi_x, psi_x = f_next, phi_next, psi_next
            window.append(psi_x)
            step_small = (step_norm <= config.eps_step
                          and gamma <= config.gamma_max * config.tau)
            k += 1

    trace = Trace(
        records=tuple(records),
        config_echo=config,
        problem_name=problem.name,
        x0_hash=hash_x0(x0),
    )
    return SolveReport(
        x_final=x,
        status=status,
        final_residual=residual,
        iterations=k,
        psi_final=psi_x,
        trace=trace,
        early_exit_ks=tuple(early_ks),
    )


def solve_monotone(problem: CompositeProblem, config: SolverConfig, x0) -> SolveReport:
    """Classical monotone method: the engine with the window forced to m = 0."""
    return solve(problem, replace(config, m=0), x0)
