"""Trace recording, CSV serialization, and post-hoc invariant checks.

A trace holds one record per accepted outer step: record ``k`` describes the
move from the k-th iterate to the next one, together with the termination
residual that was evaluated *at* the k-th iterate before stepping (``+inf``
sentinel at k = 0, where no previous gradient exists).

The checkers are pure functions over traces.  They recompute every derived
quantity (window maxima, envelopes) from the raw columns instead of trusting
solver-side bookkeeping, so they catch corrupted as well as buggy traces.
Asymptotic statements are operationalized as tail-window threshold checks:
a finite trace cannot certify a limit, but it can certify that the monitored
quantity entered the prescribed band.  Safe for concurrent batch use.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from .solver import SolverConfig

__all__ = [
    "IterateRecord",
    "Trace",
    "TraceFormatError",
    "TRACE_HEADER",
    "hash_x0",
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


class TraceFormatError(ValueError):
    """Raised when a trace file cannot be parsed into a Trace."""


@dataclass(frozen=True)
class IterateRecord:
    """One accepted outer step.

    `psi`, `f_val`, `phi_val` are the objective pieces at the iterate the
    step starts from; `residual` is the outer termination value checked at
    that iterate (inf at k = 0); `accepted_ref` is the window maximum the
    sufficient-decrease test was measured against.
    """

    k: int
    psi: float
    f_val: float
    phi_val: float
    gamma0: float
    gamma: float
    inner_iters: int
    step_norm: float
    residual: float
    accepted_ref: float


@dataclass(frozen=True)
class Trace:
    records: tuple[IterateRecord, ...]
    config_echo: "SolverConfig | None" = None
    problem_name: str = ""
    x0_hash: str = ""

    def __post_init__(self):
        for i, rec in enumerate(self.records):
            if rec.k != i:
                raise TraceFormatError(
                    f"record indices must be contiguous from 0; position {i} has k={rec.k}"
                )


def hash_x0(x0) -> str:
    """Short deterministic checksum of a starting point."""
    text = ",".join(_fmt(float(c)) for c in x0)
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def write_trace_csv(trace: Trace, path) -> None:
    """Serialize a trace losslessly.

    Floats are written with 17 significant digits (exact double round-trip);
    the k = 0 residual sentinel becomes an empty field.  A single
    comment-prefixed metadata line precedes the fixed column header so that
    the solver configuration, problem name, and x0 checksum survive the
    round-trip.
    """
    meta = {
        "problem_name": trace.problem_name,
        "x0_hash": trace.x0_hash,
        "config": asdict(trace.config_echo) if trace.config_echo is not None else None,
    }
    lines = [_META_PREFIX + json.dumps(meta, sort_keys=True, separators=(",", ":"))]
    lines.append(TRACE_HEADER)
    for r in trace.records:
        residual = "" if math.isinf(r.residual) else _fmt(r.residual)
        lines.append(
            f"{r.k},{_fmt(r.f_val)},{_fmt(r.phi_val)},{_fmt(r.psi)},"
            f"{_fmt(r.gamma0)},{_fmt(r.gamma)},{r.inner_iters},"
            f"{_fmt(r.step_norm)},{residual},{_fmt(r.accepted_ref)}"
        )
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trace_csv(path) -> Trace:
    """Parse a trace file written by :func:`write_trace_csv`.

    Validation is purely structural (field counts, number formats,
    contiguous indices): semantically corrupted values must still load so
    the checkers can flag them.  Rows are split on commas, since the writer
    never quotes; a quoted field is a format error.
    """
    from .solver import SolverConfig  # deferred; solver imports this module

    try:
        with open(path, "r", encoding="ascii") as fh:
            raw = fh.read()
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"not an ASCII file: {exc}") from exc
    lines = [ln for ln in raw.splitlines() if ln.strip()]
    meta = {"problem_name": "", "x0_hash": "", "config": None}
    if lines and lines[0].startswith(_META_PREFIX):
        try:
            meta.update(json.loads(lines[0][len(_META_PREFIX):]))
        except (TypeError, ValueError) as exc:  # not JSON, or not an object
            raise TraceFormatError(f"bad metadata line: {exc}") from exc
        lines = lines[1:]
    if not lines or lines[0] != TRACE_HEADER:
        raise TraceFormatError(f"missing or wrong header; expected {TRACE_HEADER!r}")
    records = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 10:
            raise TraceFormatError(f"row has {len(parts)} fields, expected 10: {ln!r}")
        try:
            records.append(
                IterateRecord(
                    k=int(parts[0]),
                    f_val=float(parts[1]),
                    phi_val=float(parts[2]),
                    psi=float(parts[3]),
                    gamma0=float(parts[4]),
                    gamma=float(parts[5]),
                    inner_iters=int(parts[6]),
                    step_norm=float(parts[7]),
                    residual=math.inf if parts[8] == "" else float(parts[8]),
                    accepted_ref=float(parts[9]),
                )
            )
        except ValueError as exc:
            raise TraceFormatError(f"bad row {ln!r}: {exc}") from exc
    try:
        config = SolverConfig(**meta["config"]) if meta.get("config") else None
    except (TypeError, ValueError) as exc:
        raise TraceFormatError(f"bad metadata: {exc}") from exc
    return Trace(
        records=tuple(records),
        config_echo=config,
        problem_name=meta.get("problem_name", ""),
        x0_hash=meta.get("x0_hash", ""),
    )


@dataclass(frozen=True)
class Violation:
    """A single failed per-row assertion discovered by a checker."""

    k: int
    kind: str
    detail: str


def _window_max(psi: Sequence[float], k: int, m: int) -> float:
    """max of psi over the last min(k, m)+1 iterates ending at k."""
    m_k = min(k, m)
    return max(psi[k - m_k : k + 1])


def check_acceptance(trace: Trace, *, delta: float | None = None,
                     m: int | None = None) -> list[Violation]:
    """Re-verify the sufficient-decrease certificate on every checkable row.

    Row k asserts ``psi[k+1] <= max(psi[k-m_k .. k]) - delta*(gamma_k/2)*step_k^2``
    with the window maxima recomputed from the psi column.  The final row has
    no successor psi in the file and is certified at solve time instead.
    Returns an empty list iff the trace passes.
    """
    if delta is None or m is None:
        if trace.config_echo is None:
            raise TraceFormatError("trace carries no config echo; pass delta and m")
        delta = trace.config_echo.delta if delta is None else delta
        m = trace.config_echo.m if m is None else m
    psi = [r.psi for r in trace.records]
    violations = []
    for k in range(len(trace.records) - 1):
        rec = trace.records[k]
        bound = _window_max(psi, k, m) - delta * (rec.gamma / 2.0) * rec.step_norm**2
        if psi[k + 1] > bound + _PSI_TOL:
            violations.append(
                Violation(
                    k=k,
                    kind="acceptance",
                    detail=f"psi[{k + 1}]={psi[k + 1]:.17g} exceeds bound {bound:.17g}",
                )
            )
    return violations


def check_envelope(trace: Trace, m: int) -> bool:
    """True iff the rolling window maximum of psi is nonincreasing."""
    psi = [r.psi for r in trace.records]
    env = [_window_max(psi, k, m) for k in range(len(psi))]
    return all(env[k + 1] <= env[k] + _PSI_TOL for k in range(len(env) - 1))


def check_level_set(trace: Trace) -> bool:
    """True iff every iterate stays in the initial sublevel set,
    i.e. psi[k] <= psi[0] + 1e-10 for all k."""
    psi = [r.psi for r in trace.records]
    return all(p <= psi[0] + _PSI_TOL for p in psi)


def _tail(values: list, fraction: float = 0.1) -> list:
    n = max(1, int(len(values) * fraction))
    return values[-n:]


def check_vanishing_steps(trace: Trace, tol: float) -> bool:
    """True iff the step norms vanish at the tail: min over the final 10%
    of rows of ||x^{k+1} - x^k|| <= tol.  Requires >= 10 rows."""
    if len(trace.records) < 10:
        raise ValueError("need a trace with at least 10 rows")
    return min(_tail([r.step_norm for r in trace.records])) <= tol


def check_gamma_step_product(trace: Trace, tol: float) -> bool:
    """True iff min over the final 10% of rows of gamma_k * step_norm_k <= tol.
    Requires >= 10 rows."""
    if len(trace.records) < 10:
        raise ValueError("need a trace with at least 10 rows")
    return min(_tail([r.gamma * r.step_norm for r in trace.records])) <= tol


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
    if trace.config_echo is None:
        raise TraceFormatError("trace carries no config echo")
    tau, gamma_max = trace.config_echo.tau, trace.config_echo.gamma_max
    gammas = [r.gamma for r in trace.records]
    if not gammas:
        return GammaBoundReport(max_gamma=0.0, trend_flag=False)
    tail = _tail(gammas, fraction=0.25)
    return GammaBoundReport(
        max_gamma=max(gammas),
        trend_flag=all(g > tau * gamma_max for g in tail),
    )
