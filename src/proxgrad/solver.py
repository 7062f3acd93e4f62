"""Backtracking proximal gradient engine with a nonmonotone acceptance window.

One engine covers both variants: the acceptance test measures sufficient
decrease against the maximum of the last ``min(k, m) + 1`` objective values,
and ``m = 0`` reduces it to the classical monotone method, so a single code
path serves both.  `solve` is that method written straight through: one
outer loop around an inner backtracking loop.

No stepsize rule needs a Lipschitz constant: each outer iteration starts
from a guess ``gamma0`` and multiplies it by ``tau > 1`` until the candidate
proximal step passes the acceptance test.  The ``constant`` strategy guesses
the configured value.  The ``bb_safeguarded`` strategy guesses 1 on the first
iteration and then the spectral quotient <s,y>/<s,s>, with
s = x^k - x^{k-1} and y = grad f(x^k) - grad f(x^{k-1}), falling back to the
previous accepted gamma when <s,y> <= 0 or s = 0.  Either guess is clamped to
``[gamma_min, gamma_max]``.  Termination is certified through the computable
stationarity residual

    ``|| gamma_{k-1} (x^{k-1} - x^k) + grad f(x^k) - grad f(x^{k-1}) ||``

computed once per trial, where it decides the inner early exit, and tested
right after the accepted step, with a step-norm fallback as a secondary exit.
These parameters are the fields of `proxgrad.core.SolverConfig`, which every
trace carries.  A run is deterministic given (problem, config, x0).  Runs
share only the smooth oracles' matvec helper thread, which keeps nothing
between calls and never changes a bit.  Problems are frozen dataclasses, and
a smooth oracle's memo returns on a hit the bits a recompute would give, so
solves may share a problem concurrently.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import CompositeProblem, SolverConfig, Vector, as_vector
from .diagnostics import (STATUS_CONVERGED_RESIDUAL, STATUS_CONVERGED_STEP, STATUS_INNER_CAP,
                          STATUS_MAX_OUTER, IterateRecord, Trace)

__all__ = [
    "SolveReport",
    "solve",
]


@dataclass(frozen=True)
class SolveReport:
    """The terminal point and the trace, which the other attributes read.

    `iterations` counts accepted outer steps, which are the trace rows.
    `early_exit_ks` is ``()``, or the last row's index when its step was
    accepted through the inner stationarity test, not sufficient decrease.
    """

    x_final: Vector
    trace: Trace

    status = property(lambda self: self.trace.status)
    psi_final = property(lambda self: self.trace.psi_final)
    final_residual = property(lambda self: self.trace.final_residual)
    iterations = property(lambda self: len(self.trace.records))
    early_exit_ks = property(lambda self: (self.iterations - 1,) if self.trace.early_exit else ())


def hash_x0(x0) -> str:
    """Short deterministic checksum of a starting point."""
    text = ",".join(["%.17g" % c for c in np.asarray(x0, dtype=np.float64).tolist()])
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def solve(problem: CompositeProblem, config: SolverConfig, x0) -> SolveReport:
    """Run the proximal gradient method from x0 until a termination fires.

    Each outer iteration k backtracks from gamma0: the trial at gamma is
    the model minimizer ``prox(gamma, x_k - grad f(x_k) / gamma)``, and gamma
    grows by factors of tau until a trial passes either the sufficient-decrease
    test against the window maximum or, failing that, the inner stationarity
    test ``||gamma (x_k - x) + grad f(x) - grad f(x_k)|| <= tau_abs``, which
    marks the candidate as approximately stationary already (listed in
    `early_exit_ks`).  Each trial evaluates f, phi and grad f once at the
    candidate; one whose psi or gradient is not finite passes neither test.
    An accepted step ends the run if its residual is at most tau_abs
    (``converged_residual``) or, failing that, if its step passes the
    step-norm test (``converged_step``).  After `config.max_inner` unaccepted
    trials the run ends with ``inner_loop_cap``, and after `config.max_outer`
    accepted steps with ``max_outer_reached``.

    The starting point must lie in the domain of the nonsmooth term and the
    smooth term must be finite there; otherwise a ValueError names the term
    at fault, as it does a non-finite prox candidate.  Every accepted iterate
    stays in the initial sublevel set, each trace row carries the acceptance
    certificate that produced it, and the window holds at most m + 1 values.
    """
    x = x0 = as_vector(x0, problem.dimension)
    f_eval, f_grad = problem.smooth.eval, problem.smooth.grad
    phi_eval, prox = problem.nonsmooth.eval, problem.nonsmooth.prox
    m, tau, delta, tau_abs, eps_step = (
        config.m, config.tau, config.delta, config.tau_abs, config.eps_step)
    gamma_min, gamma_max, gamma0_value = config.gamma_min, config.gamma_max, config.gamma0_value
    constant_gamma0, max_inner = config.gamma0_strategy == "constant", config.max_inner
    # one errstate, entered once per solve: an overflow at x0 or at a trial
    # point (the tests below square the step and the residual, so a huge
    # finite one overflows) is met by the finiteness checks, not printed as
    # a numpy warning too
    with np.errstate(all="ignore"):
        f_x = float(f_eval(x))
        phi_x = float(phi_eval(x))
        psi_x = f_x + phi_x
        if not math.isfinite(phi_x):
            raise ValueError("x0 not in the domain of the nonsmooth term: phi(x0) is not finite")
        if not math.isfinite(f_x):
            raise ValueError(f"smooth term {problem.smooth.name!r} is not finite at x0: "
                             f"f(x0) = {f_x} (x0 or the term's data may be too large "
                             "or not finite)")
        if m > 0 and not problem.nonsmooth.continuous_on_domain:
            warnings.warn(
                f"nonmonotone window m={m} with a nonsmooth term that is not "
                "continuous on its domain: the envelope-based convergence guarantees "
                "do not apply",
                UserWarning,
                stacklevel=2,
            )

        grad = f_grad(x)
        # (index, psi) of the last min(k, m) + 1 accepted values that no later
        # one exceeds, oldest first: the front is their maximum, the oldest of
        # tied values as max() gives it, and with m = 0 the current value
        window = deque([(0, psi_x)])
        records: list[IterateRecord] = []
        early_exit = False
        # after the first step, gamma, the step d, step_sq = <d, d>,
        # grad_prev and residual are the accepted step's
        residual = math.inf

        for k in range(config.max_outer):
            if constant_gamma0:
                gamma0 = gamma0_value
            elif k == 0:
                gamma0 = 1.0
            else:
                # the quotient <s, y> / <s, s>, s = d and y = grad - grad_prev
                sy = float(d.dot(grad - grad_prev))
                gamma0 = sy / step_sq if sy > 0.0 and step_sq > 0.0 else gamma
            gamma0 = min(max(gamma0, gamma_min), gamma_max)
            if window[0][0] < k - m:  # at most one value leaves per step
                window.popleft()
            psi_ref = window[0][1]
            gamma = gamma0
            for i in range(max_inner):
                cand = prox(gamma, x - grad / gamma)
                d = cand - x
                step_sq = float(d.dot(d))
                # a non-finite coordinate of cand makes step_sq inf or NaN, so the
                # array check runs whenever it could fail (and on an overflow too)
                if not math.isfinite(step_sq) and not np.isfinite(cand).all():
                    raise ValueError("prox oracle produced a non-finite candidate")
                f_cand = float(f_eval(cand))
                phi_cand = float(phi_eval(cand))
                psi_cand = f_cand + phi_cand
                grad_cand = f_grad(cand)
                r = grad_cand - gamma * d - grad
                res_cand = math.sqrt(float(r.dot(r)))
                # a trial with a non-finite psi or gradient is rejected, whatever
                # the comparisons below would make of its NaN or inf; a finite
                # residual certifies a finite gradient, as step_sq does cand
                if math.isfinite(psi_cand) and (
                        math.isfinite(res_cand) or np.isfinite(grad_cand).all()):
                    if psi_cand <= psi_ref - delta * (gamma / 2.0) * step_sq:
                        break
                    if res_cand <= tau_abs:
                        early_exit = True
                        break
                gamma = gamma * tau
            else:
                # the last gamma tried is gamma / tau
                status = STATUS_INNER_CAP
                break

            step_norm = math.sqrt(step_sq)
            records.append(IterateRecord(psi_x, f_x, phi_x, gamma0, gamma, i, step_norm,
                                         residual, psi_ref))
            grad_prev, residual = grad, res_cand
            x, grad = cand, grad_cand
            f_x, phi_x, psi_x = f_cand, phi_cand, psi_cand
            while window and window[-1][1] < psi_x:  # strict: of ties, the oldest stays
                window.pop()
            window.append((k + 1, psi_x))
            if residual <= tau_abs:
                status = STATUS_CONVERGED_RESIDUAL
                break
            # the fallback exit is secondary: it fires only when the residual
            # at the new iterate declined to certify
            if step_norm <= eps_step and gamma <= gamma_max * tau:
                status = STATUS_CONVERGED_STEP
                break
        else:
            status = STATUS_MAX_OUTER

    trace = Trace(records=tuple(records), config_echo=config, problem_name=problem.name,
                  x0_hash=hash_x0(x0), status=status, psi_final=psi_x,
                  final_residual=residual, early_exit=early_exit)
    return SolveReport(x_final=x, trace=trace)
