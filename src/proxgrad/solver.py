"""Backtracking proximal gradient engine with a nonmonotone acceptance window.

One engine covers both variants: the acceptance test measures sufficient
decrease against the maximum of the last ``min(k, m) + 1`` objective values,
and ``m = 0`` reduces it to the classical monotone method, so a single code
path serves both.  `solve` is that method written straight through: one
outer loop around an inner backtracking loop.

No stepsize rule needs a Lipschitz constant: each outer iteration starts
from a spectral or constant guess ``gamma0 in [gamma_min, gamma_max]`` and
multiplies by ``tau > 1`` until the candidate proximal step passes the
acceptance test.  Termination is certified through the computable
stationarity residual

    ``|| gamma_{k-1} (x^{k-1} - x^k) + grad f(x^k) - grad f(x^{k-1}) ||``

checked before any work at each iteration, with a step-norm fallback as a
secondary exit.  These parameters are the fields of
`proxgrad.core.SolverConfig`, which every trace carries.  A run is strictly sequential, holds no global mutable
state, and is deterministic given (problem, config, x0).  Problems are
frozen dataclasses, and each smooth oracle's one-entry memo returns on a hit
the bits a recompute would give, so any number of solves may share a problem
concurrently.
"""

from __future__ import annotations

import math
import sys
import warnings
from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import CompositeProblem, SolverConfig, Vector, as_vector
from .diagnostics import IterateRecord, Trace, hash_x0

__all__ = [
    "SolveReport",
    "gamma0_select",
    "solve",
]

STATUS_CONVERGED_RESIDUAL = "converged_residual"
STATUS_CONVERGED_STEP = "converged_step"
STATUS_MAX_OUTER = "max_outer_reached"
STATUS_INNER_CAP = "inner_loop_cap"


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

    Each outer iteration k backtracks from gamma0: the trial at gamma is
    the model minimizer ``prox(gamma, x_k - grad f(x_k) / gamma)``, and gamma
    grows by factors of tau until a trial passes either the sufficient-decrease
    test against the window maximum or, failing that, the inner stationarity
    test ``||grad f(x) - grad f(x_k) + gamma (x_k - x)|| <= tau_abs``, which
    marks the candidate as approximately stationary already (listed in
    `early_exit_ks`).  Each trial evaluates f, phi and grad f once at the
    candidate; one whose psi or gradient is not finite passes neither test.
    After `config.max_inner` unaccepted trials the run ends with status
    ``inner_loop_cap``.

    The starting point must lie in the domain of the nonsmooth term and the
    smooth term must be finite there; otherwise a ValueError names the term
    at fault, as it does a non-finite prox candidate.  Every accepted iterate
    stays in the initial sublevel set, and each trace row carries the
    acceptance certificate that produced it.
    """
    x = x0 = as_vector(x0, problem.dimension)
    # one errstate, entered once per solve: an overflow at x0 or at a trial
    # point (the tests below square the step and the gradient, so a huge
    # finite one overflows) is met by the finiteness checks, not printed as
    # a numpy warning too
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
        # maximum is the current one and the test is plain sufficient decrease.
        # deque takes no maxlen past sys.maxsize; no run appends that many
        # values, so the cap never drops one, whatever the m
        window = deque([psi_x], maxlen=min(config.m + 1, sys.maxsize))
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
                r = gamma * (x_prev - x) + grad - grad_prev
                residual = math.sqrt(float(np.dot(r, r)))
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
            gamma = gamma0
            for i in range(config.max_inner):
                cand = problem.nonsmooth.prox(gamma, x - grad / gamma)
                d = cand - x
                step_sq = float(np.dot(d, d))
                # a non-finite coordinate of cand makes step_sq inf or NaN, so the
                # array check runs whenever it could fail (and on an overflow too)
                if not math.isfinite(step_sq) and not np.isfinite(cand).all():
                    raise ValueError("prox oracle produced a non-finite candidate")
                f_cand = float(problem.smooth.eval(cand))
                phi_cand = float(problem.nonsmooth.eval(cand))
                psi_cand = f_cand + phi_cand
                grad_cand = problem.smooth.grad(cand)
                # a trial with a non-finite psi or gradient is rejected, whatever
                # the comparisons below would make of its NaN or inf; a finite
                # <g, g> certifies a finite gradient, as step_sq does cand
                if math.isfinite(psi_cand) and (
                        math.isfinite(float(np.dot(grad_cand, grad_cand)))
                        or np.isfinite(grad_cand).all()):
                    if psi_cand <= psi_ref - config.delta * (gamma / 2.0) * step_sq:
                        break
                    inner_res = grad_cand - grad + gamma * (x - cand)
                    if math.sqrt(float(np.dot(inner_res, inner_res))) <= config.tau_abs:
                        early_ks.append(k)
                        break
                gamma = gamma * config.tau
            else:
                # the last gamma tried is gamma / config.tau
                status = STATUS_INNER_CAP
                break

            step_norm = math.sqrt(step_sq)
            records.append(IterateRecord(
                k=k, psi=psi_x, f_val=f_x, phi_val=phi_x, gamma0=gamma0, gamma=gamma,
                inner_iters=i, step_norm=step_norm, residual=residual, accepted_ref=psi_ref))
            prev = (d, grad_cand - grad, gamma)
            x_prev, grad_prev = x, grad
            x, grad = cand, grad_cand
            f_x, phi_x, psi_x = f_cand, phi_cand, psi_cand
            window.append(psi_x)
            step_small = (step_norm <= config.eps_step
                          and gamma <= config.gamma_max * config.tau)
            k += 1

    trace = Trace(records=tuple(records), config_echo=config, problem_name=problem.name,
                  x0_hash=hash_x0(x0))
    return SolveReport(x_final=x, status=status, final_residual=residual, iterations=k,
                       psi_final=psi_x, trace=trace, early_exit_ks=tuple(early_ks))
