"""Straight-line reference implementation of the nonmonotone method.

Used by the test suite as the cross-check for the engine's m > 0 path.  It
shares no solver code: the window is a plain list of every accepted
objective value, and the acceptance reference is the maximum of its last
``min(k, m) + 1`` entries.  Like the engine, a trial whose psi or gradient is
not finite passes neither test.  The floating-point expressions mirror the
engine's operation order so that the two traces can be compared bitwise.
"""

import math

import numpy as np

from proxgrad.diagnostics import IterateRecord, Trace
from proxgrad.solver import SolveReport, hash_x0


def _clamp(value, lo, hi):
    return min(max(value, lo), hi)


def reference_nonmonotone_solve(problem, config, x0) -> SolveReport:
    x = np.asarray(x0, dtype=np.float64)
    f_x = float(problem.smooth.eval(x))
    phi_x = float(problem.nonsmooth.eval(x))
    psi_x = f_x + phi_x
    assert math.isfinite(psi_x), "x0 must lie in the domain of psi"
    grad = problem.smooth.grad(x)

    psi_history = [psi_x]
    records = []
    early_ks = []
    x_prev = grad_prev = None
    gamma_prev = None
    step_small = False
    k = 0

    while True:
        if x_prev is not None:
            rvec = gamma_prev * (x_prev - x) + grad - grad_prev
            residual = math.sqrt(float(np.dot(rvec, rvec)))
        else:
            residual = math.inf
        if residual <= config.tau_abs:
            status = "converged_residual"
            break
        if step_small:
            status = "converged_step"
            break
        if k >= config.max_outer:
            status = "max_outer_reached"
            break

        # stepsize guess
        if config.gamma0_strategy == "constant":
            gamma0 = _clamp(config.gamma0_value, config.gamma_min, config.gamma_max)
        elif x_prev is None:
            gamma0 = _clamp(1.0, config.gamma_min, config.gamma_max)
        else:
            s = x - x_prev
            y = grad - grad_prev
            sy = float(np.dot(s, y))
            ss = float(np.dot(s, s))
            if sy > 0.0 and ss > 0.0:
                gamma0 = _clamp(sy / ss, config.gamma_min, config.gamma_max)
            else:
                gamma0 = _clamp(gamma_prev, config.gamma_min, config.gamma_max)

        # the acceptance reference: max over the last min(k, m) + 1 values
        psi_ref = max(psi_history[max(0, k - config.m): k + 1])

        # backtracking: grow gamma until the candidate passes a test
        gamma = gamma0
        accepted = None
        for i in range(config.max_inner):
            cand = problem.nonsmooth.prox(gamma, x - grad / gamma)
            if not np.isfinite(cand).all():
                raise ValueError("prox oracle produced a non-finite candidate")
            d = cand - x
            step_sq = float(np.dot(d, d))
            f_cand = float(problem.smooth.eval(cand))
            phi_cand = float(problem.nonsmooth.eval(cand))
            psi_cand = f_cand + phi_cand
            grad_cand = problem.smooth.grad(cand)
            if math.isfinite(psi_cand) and np.isfinite(grad_cand).all():
                if psi_cand <= psi_ref - config.delta * (gamma / 2.0) * step_sq:
                    accepted = (False, i, step_sq)
                    break
                ivec = grad_cand - grad + gamma * (x - cand)
                if math.sqrt(float(np.dot(ivec, ivec))) <= config.tau_abs:
                    accepted = (True, i, step_sq)
                    break
            gamma = gamma * config.tau
        if accepted is None:
            status = "inner_loop_cap"
            break

        early, i, step_sq = accepted
        step_norm = math.sqrt(step_sq)
        records.append(
            IterateRecord(psi=psi_x, f_val=f_x, phi_val=phi_x,
                          gamma0=gamma0, gamma=gamma, inner_iters=i,
                          step_norm=step_norm, residual=residual,
                          accepted_ref=psi_ref)
        )
        if early:
            early_ks.append(k)
        x_prev, grad_prev, gamma_prev = x, grad, gamma
        x, grad = cand, grad_cand
        f_x, phi_x, psi_x = f_cand, phi_cand, psi_cand
        psi_history.append(psi_x)
        step_small = (step_norm <= config.eps_step
                      and gamma <= config.gamma_max * config.tau)
        k += 1

    trace = Trace(records=tuple(records), config_echo=config,
                  problem_name=problem.name,
                  x0_hash=hash_x0(np.asarray(x0, dtype=np.float64)),
                  status=status, psi_final=psi_x, final_residual=residual,
                  early_exit=bool(early_ks))
    return SolveReport(x_final=x, trace=trace)
