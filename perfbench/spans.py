"""In-memory spans recorded around calls into proxgrad's layers.

The benchmark never edits the package: it wraps the callables it hands to
the package (oracle fields, module functions) so that each call records a
span ``(name, start, end, parent, run)``.  A span's layer is the part of its
name before the first dot, e.g. ``smooth_oracles.eval`` belongs to
``smooth_oracles``.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import dataclasses
import math
import time
from collections import defaultdict
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    run: int  # sample the span belongs to


class Tracer:
    """Records nested spans of one thread; `run` tags the current sample."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        # a slot is None only while its call is still running
        self.spans: list[Span | None] = []
        self.run = 0
        self._stack: list[int] = []
        self._clock = clock

    def wrap(self, name: str, fn: Callable) -> Callable:
        """Return `fn` with every call recorded as a span named `name`."""
        spans, stack, clock = self.spans, self._stack, self._clock

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, self.run)

        traced.__wrapped__ = fn
        return traced


def wrap_callable_fields(tracer: Tracer, layer: str, obj):
    """Copy of a frozen dataclass with every callable field traced.

    Fields are discovered, not listed, so a callable field added to an
    oracle later is timed without editing the benchmark.
    """
    changes = {
        f.name: tracer.wrap(f"{layer}.{f.name}", getattr(obj, f.name))
        for f in dataclasses.fields(obj)
        if callable(getattr(obj, f.name))
    }
    return dataclasses.replace(obj, **changes)


def traced_problem(tracer: Tracer, problem):
    """`problem` with its smooth and prox oracle fields traced."""
    return dataclasses.replace(
        problem,
        smooth=wrap_callable_fields(tracer, "smooth_oracles", problem.smooth),
        nonsmooth=wrap_callable_fields(tracer, "prox_oracles", problem.nonsmooth),
    )


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [(s.end - s.start) - _covered(children.get(i, [])) for i, s in enumerate(spans)]


def totals_by_run(spans: list[Span]) -> dict[int, dict[str, float]]:
    """Per run: self time per layer (``<layer>.self_s``), and per span name
    its call count (``<name>:calls``) and inclusive time (``<name>:total_s``)."""
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s, own in zip(spans, self_times(spans)):
        totals = out[s.run]
        totals[f"{s.name.split('.', 1)[0]}.self_s"] += own
        totals[f"{s.name}:calls"] += 1
        totals[f"{s.name}:total_s"] += s.end - s.start
    return out
