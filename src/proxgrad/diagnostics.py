"""Trace recording, CSV serialization, and post-hoc invariant checks.

A trace holds one record per accepted outer step: record ``k`` describes the
move from the k-th iterate to the next one, together with the termination
residual that was evaluated *at* the k-th iterate before stepping (``+inf``
sentinel at k = 0, where no previous gradient exists).  A trace carries its
`SolverConfig`, problem name, x0 checksum and end: the status, psi and
residual at the last iterate, and whether its step was an inner early exit.
On file they form the metadata line, so the last row is certified too.

The checkers are pure functions over traces.  They recompute every derived
quantity (window maxima, envelopes) from the raw columns instead of trusting
solver-side bookkeeping, so they catch corrupted as well as buggy traces.
Asymptotic statements are operationalized as tail-window threshold checks:
a finite trace cannot certify a limit, but it can certify that the monitored
quantity entered the prescribed band.  Safe for concurrent batch use.
"""

from __future__ import annotations

import json
import math
import operator
from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .core import SolverConfig

__all__ = [
    "IterateRecord",
    "Trace",
    "TraceFormatError",
    "write_trace_csv",
    "read_trace_csv",
    "Violation",
    "check_acceptance",
    "check_envelope",
    "check_level_set",
    "check_vanishing_steps",
    "check_gamma_step_product",
    "GammaBoundReport",
    "gamma_bound_report",
]

TRACE_HEADER = "k,f,phi,psi,gamma0,gamma,inner_iters,step_norm,residual,accepted_ref"

_META_PREFIX = "# proxgrad-trace "

# Slack of the psi comparisons in the acceptance, envelope and level-set checks
_PSI_TOL = 1e-10

# How a run ends; an inner early exit always ends the first way
STATUS_CONVERGED_RESIDUAL = "converged_residual"
STATUS_CONVERGED_STEP = "converged_step"
STATUS_MAX_OUTER = "max_outer_reached"
STATUS_INNER_CAP = "inner_loop_cap"
_STATUSES = (STATUS_CONVERGED_RESIDUAL, STATUS_CONVERGED_STEP, STATUS_MAX_OUTER, STATUS_INNER_CAP)


class TraceFormatError(ValueError):
    """Raised when a trace file cannot be parsed into a Trace."""


# A record's __init__ sets its fields through this one binding; the __init__ a
# frozen dataclass generates looks object.__setattr__ up once per field
_set = object.__setattr__


@dataclass(frozen=True, slots=True, init=False)
class IterateRecord:
    """One accepted outer step.

    A record's index k is its position in `Trace.records`; the CSV ``k``
    column is written from that position and checked against it on read.
    `psi`, `f_val`, `phi_val` are the objective pieces at the iterate the
    step starts from; `residual` is the outer termination value checked at
    that iterate (inf at k = 0); `accepted_ref` is the window maximum the
    sufficient-decrease test was measured against.  Records are slotted and
    take their fields positionally or by name.
    """

    psi: float
    f_val: float
    phi_val: float
    gamma0: float
    gamma: float
    inner_iters: int
    step_norm: float
    residual: float
    accepted_ref: float

    def __init__(self, psi: float, f_val: float, phi_val: float, gamma0: float, gamma: float,
                 inner_iters: int, step_norm: float, residual: float, accepted_ref: float):
        _set(self, "psi", psi)
        _set(self, "f_val", f_val)
        _set(self, "phi_val", phi_val)
        _set(self, "gamma0", gamma0)
        _set(self, "gamma", gamma)
        _set(self, "inner_iters", inner_iters)
        _set(self, "step_norm", step_norm)
        _set(self, "residual", residual)
        _set(self, "accepted_ref", accepted_ref)


@dataclass(frozen=True)
class Trace:
    records: tuple[IterateRecord, ...]
    config_echo: SolverConfig
    problem_name: str
    x0_hash: str
    status: str
    psi_final: float
    final_residual: float
    early_exit: bool


# One trace row; "%.17g" gives the bytes of format(value, ".17g").  The
# residual goes in as a string, since its k = 0 sentinel, +inf, is an empty field.
_ROW_FORMAT = "%s,%.17g,%.17g,%.17g,%.17g,%.17g,%s,%.17g,%s,%.17g"


def write_trace_csv(trace: Trace, path) -> None:
    """Serialize a trace losslessly.

    Floats are written with 17 significant digits (exact double round-trip);
    the k = 0 residual sentinel, +inf, becomes an empty field, and -inf is
    written as ``-inf``.  A single comment-prefixed metadata line precedes the
    fixed column header so that the solver configuration, problem name, x0
    checksum and the run's end survive the round-trip.
    """
    meta = {"problem_name": trace.problem_name, "x0_hash": trace.x0_hash,
            "config": vars(trace.config_echo), "status": trace.status,
            "psi_final": trace.psi_final, "final_residual": trace.final_residual,
            "early_exit": trace.early_exit}
    lines = [_META_PREFIX + json.dumps(meta, sort_keys=True, separators=(",", ":"))]
    lines.append(TRACE_HEADER)
    for k, r in enumerate(trace.records):
        residual = "" if r.residual == math.inf else "%.17g" % r.residual
        lines.append(_ROW_FORMAT % (
            k, r.f_val, r.phi_val, r.psi, r.gamma0, r.gamma, r.inner_iters,
            r.step_norm, residual, r.accepted_ref))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trace_csv(path) -> Trace:
    """Parse a trace file written by :func:`write_trace_csv`.

    The metadata line is required and must hold a valid solver config, the
    problem name, the x0 checksum and the run's end, which the checkers
    need: one of the four statuses, with `early_exit` only at
    ``converged_residual``.  The rows are validated only structurally (field
    counts, number formats, contiguous indices): semantically corrupted
    values must still load so the checkers can flag them.  Rows are split on
    commas, since the writer never quotes; a quoted field is a format error.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            raw = fh.read()
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"not an ASCII file: {exc}") from exc
    lines = [ln for ln in raw.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith(_META_PREFIX):
        raise TraceFormatError(f"missing the {_META_PREFIX.strip()!r} metadata line")
    try:
        meta = json.loads(lines[0][len(_META_PREFIX):])
        config = SolverConfig(**meta["config"])
        problem_name, x0_hash, status = meta["problem_name"], meta["x0_hash"], meta["status"]
        psi_final, final_residual = float(meta["psi_final"]), float(meta["final_residual"])
        if type(status) is not str or type(early_exit := meta["early_exit"]) is not bool:
            raise TypeError("status must be a string and early_exit a boolean")
        if status not in _STATUSES:
            raise ValueError(f"unknown status {status!r}")
        if early_exit and status != STATUS_CONVERGED_RESIDUAL:
            raise ValueError(f"an early exit ends {STATUS_CONVERGED_RESIDUAL!r}, not {status!r}")
    except KeyError as exc:
        raise TraceFormatError(f"bad metadata: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:  # not JSON, not an object, or a bad config
        raise TraceFormatError(f"bad metadata: {exc}") from exc
    lines = lines[1:]
    if not lines or lines[0] != TRACE_HEADER:
        raise TraceFormatError(f"missing or wrong header; expected {TRACE_HEADER!r}")
    records = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 10:
            raise TraceFormatError(f"row has {len(parts)} fields, expected 10: {ln!r}")
        k, f_val, phi_val, psi, gamma0, gamma, inner_iters, step_norm, residual, ref = parts
        if k != str(len(records)):
            raise TraceFormatError(f"record indices must be contiguous from 0; "
                                   f"row {len(records)} has k={k!r}")
        try:  # converted in column order, so a row's first bad field is the one reported
            f_val, phi_val = float(f_val), float(phi_val)
            records.append(IterateRecord(
                float(psi), f_val, phi_val, float(gamma0), float(gamma), int(inner_iters),
                float(step_norm), math.inf if residual == "" else float(residual), float(ref)))
        except ValueError as exc:
            raise TraceFormatError(f"bad row {ln!r}: {exc}") from exc
    return Trace(records=tuple(records), config_echo=config, problem_name=problem_name,
                 x0_hash=x0_hash, status=status, psi_final=psi_final,
                 final_residual=final_residual, early_exit=early_exit)


@dataclass(frozen=True)
class Violation:
    """A single failed per-row assertion discovered by a checker."""

    k: int
    detail: str


def _window_maxima(psi: Sequence[float], m: int) -> list[float]:
    """For every k, what `max` gives over the last min(k, m)+1 values of psi up
    to k: NaN if the oldest is NaN, else the oldest of the largest, a deque's front."""
    try:  # an int or a numpy integer: not a float, a string or a negative
        if operator.index(m) < 0:
            raise TypeError
    except TypeError:
        raise ValueError(f"m must be a nonnegative integer, got {m!r}") from None
    # the window's non-NaN values that no later one exceeds, oldest first; a
    # value is popped only by a larger one, so it leaves iff the front equals it
    window: deque[float] = deque()
    maxima = []
    for k, value in enumerate(psi):
        if k > m and window and window[0] == psi[k - m - 1]:
            window.popleft()
        if value == value:  # not NaN
            while window and window[-1] < value:  # strict: of ties, the oldest stays
                window.pop()
            window.append(value)
        oldest = psi[k - m] if k > m else psi[0]
        maxima.append(window[0] if oldest == oldest else oldest)
    return maxima


def check_acceptance(trace: Trace) -> list[Violation]:
    """Re-verify the acceptance certificate of every row.

    Row k asserts ``psi[k+1] <= max(psi[k-m_k .. k]) - delta*(gamma_k/2)*step_k^2``
    with the window maxima recomputed from the psi column and psi[n] =
    `psi_final`; delta and m are the trace's.  An `early_exit` last row
    asserts ``final_residual <= tau_abs`` instead.  Every row's residual must
    fail the engine's stop test ``residual <= tau_abs``, or the run would have
    stopped at that iterate.  Every row's gamma0 must lie in ``[gamma_min,
    gamma_max]``, where the engine clamps each guess, and its gamma must equal
    gamma0 multiplied by tau once per rejected trial, in the engine's order,
    with ``0 <= inner_iters < max_inner`` trials rejected.  Returns an empty
    list iff the trace passes.
    """
    delta, tau_abs = trace.config_echo.delta, trace.config_echo.tau_abs
    tau, max_inner = trace.config_echo.tau, trace.config_echo.max_inner
    gamma_min, gamma_max = trace.config_echo.gamma_min, trace.config_echo.gamma_max
    psi = [r.psi for r in trace.records] + [trace.psi_final]
    env = _window_maxima(psi, trace.config_echo.m)
    violations = [Violation(k=k, detail=f"residual {rec.residual:.17g} <= tau_abs "
                                        f"{tau_abs:.17g}: the run stops at this iterate")
                  for k, rec in enumerate(trace.records) if rec.residual <= tau_abs]
    for k, rec in enumerate(trace.records):
        if not gamma_min <= rec.gamma0 <= gamma_max:  # NaN fails too
            violations.append(Violation(k=k, detail=(
                f"gamma0 {rec.gamma0:.17g} lies outside [gamma_min, gamma_max] = "
                f"[{gamma_min:.17g}, {gamma_max:.17g}]")))
        gamma, trials = rec.gamma0, rec.inner_iters
        counted = 0 <= trials < max_inner
        for _ in range(trials if counted else 0):  # one product per rejected trial, in order
            gamma = gamma * tau
        if not (counted and gamma == rec.gamma):
            violations.append(Violation(k=k, detail=(
                f"gamma {rec.gamma:.17g} is not gamma0 {rec.gamma0:.17g} after "
                f"{trials} of at most {max_inner - 1} backtracking steps")))
    for k in range(len(trace.records) - trace.early_exit):
        rec = trace.records[k]
        bound = env[k] - delta * (rec.gamma / 2.0) * rec.step_norm**2
        if not psi[k + 1] <= bound + _PSI_TOL:  # NaN fails too
            violations.append(Violation(
                k=k, detail=f"psi[{k + 1}]={psi[k + 1]:.17g} exceeds bound {bound:.17g}"))
    if trace.early_exit and not trace.final_residual <= tau_abs:
        violations.append(Violation(k=len(trace.records) - 1, detail=(
            f"early exit residual {trace.final_residual:.17g} exceeds tau_abs {tau_abs:.17g}")))
    return violations


def check_envelope(trace: Trace, m: int) -> bool:
    """True iff the rolling window maximum of psi is nonincreasing."""
    psi = [r.psi for r in trace.records]
    env = _window_maxima(psi, m)
    return all(env[k + 1] <= env[k] + _PSI_TOL for k in range(len(env) - 1))


def check_level_set(trace: Trace) -> bool:
    """True iff every iterate stays in the initial sublevel set,
    i.e. psi[k] <= psi[0] + 1e-10 for all k."""
    psi = [r.psi for r in trace.records]
    return all(p <= psi[0] + _PSI_TOL for p in psi)


def _tail(values: list, fraction: float = 0.1) -> list:
    n = max(1, int(len(values) * fraction))
    return values[-n:]


def _tail_min_at_most(values: list, tol: float) -> bool:
    """min over the final 10% of >= 10 `values` <= tol; a NaN there fails, wherever it sits."""
    if len(values) < 10:
        raise ValueError("need a trace with at least 10 rows")
    tail = _tail(values)
    return not any(map(math.isnan, tail)) and min(tail) <= tol


def check_vanishing_steps(trace: Trace, tol: float) -> bool:
    """True iff the step norms vanish at the tail: min over the final 10%
    of rows of ||x^{k+1} - x^k|| <= tol.  Requires >= 10 rows."""
    return _tail_min_at_most([r.step_norm for r in trace.records], tol)


def check_gamma_step_product(trace: Trace, tol: float) -> bool:
    """True iff min over the final 10% of rows of gamma_k * step_norm_k <= tol.
    Requires >= 10 rows."""
    return _tail_min_at_most([r.gamma * r.step_norm for r in trace.records], tol)


@dataclass(frozen=True)
class GammaBoundReport:
    """Summary of accepted stepsize-parameter growth over a run.

    `trend_flag` is True when every gamma in the last quarter of the trace
    exceeds tau * gamma_max, i.e. the run shows an unbounded-growth trend.
    Reported as a metric, not a pass/fail: boundedness holds only along
    subsequences in general.
    """

    max_gamma: float
    trend_flag: bool


def gamma_bound_report(trace: Trace) -> GammaBoundReport:
    tau, gamma_max = trace.config_echo.tau, trace.config_echo.gamma_max
    gammas = [r.gamma for r in trace.records]
    if not gammas:
        return GammaBoundReport(max_gamma=0.0, trend_flag=False)
    tail = _tail(gammas, fraction=0.25)
    return GammaBoundReport(
        max_gamma=math.nan if any(map(math.isnan, gammas)) else max(gammas),
        trend_flag=all(g > tau * gamma_max for g in tail),
    )
