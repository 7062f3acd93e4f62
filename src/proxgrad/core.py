"""Vector coercion, extended-real conventions, the composite problem type, and
the solver configuration.

Points live in plain Euclidean space and are represented as dense 1-D float64
numpy arrays.  The nonsmooth term of a composite objective may take the value
``+inf`` (and only ``+inf``); everywhere in this package "extended real" means
a Python float where ``math.inf`` marks points outside the domain.  IEEE
semantics already give the required behaviour: ``inf`` compares greater than
every finite value and ``finite + inf == inf``.

All types in this module are frozen dataclasses and all operations are
pure.  A smooth oracle's one-entry memo (see `SmoothOracle`) returns on a hit
what a recompute would, so problems may be shared freely between
concurrently running solves.  `SolverConfig` lives here, below both the
engine and the diagnostics: `solve` runs on it, and every trace carries it
so that the checkers can re-verify a run from the file alone.  Nothing here
knows the config-file format; `proxgrad.cli` builds oracles from configs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "as_vector",
    "SmoothOracle",
    "ProxOracle",
    "CompositeProblem",
    "make_problem",
    "SolverConfig",
]

Vector = "numpy.ndarray"  # for annotations only, so that this module loads no numpy


def as_vector(x, dimension: int | None = None) -> Vector:
    """Coerce `x` to a finite 1-D float64 array, optionally checking its length.

    Raises
    ------
    ValueError
        If `x` is not one-dimensional, has an entry that is not a number or
        not finite, is empty, or does not match `dimension`.
    """
    import numpy as np
    try:
        v = np.asarray(x, dtype=np.float64)
    except (TypeError, OverflowError) as exc:  # e.g. a dict entry, or an int past 1e308
        raise ValueError(f"vector has a coordinate that is not a float: {exc}") from None
    except ValueError:  # a ragged list, or one nested past numpy's 64 dimensions
        raise ValueError("expected a 1-D vector, got a ragged or too deeply nested list") from None
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got array of shape {v.shape}")
    if v.size == 0:
        raise ValueError("vectors must have dimension >= 1")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite coordinates")
    if dimension is not None and v.size != dimension:
        raise ValueError(f"dimension mismatch: expected {dimension}, got {v.size}")
    return v


@dataclass(frozen=True)
class SmoothOracle:
    """A continuously differentiable function with an exact gradient.

    `eval` and `grad` must be total on all finite vectors of the oracle's
    dimension; `grad` returns a vector of the same dimension.  The dataclass
    is frozen; an oracle may keep a private one-entry memo of work shared by
    `eval` and `grad` at one point, whose hits equal a recompute bit for bit.
    """

    name: str
    eval: Callable[[Vector], float]
    grad: Callable[[Vector], Vector]


@dataclass(frozen=True)
class ProxOracle:
    """A lower semicontinuous function with an exact proximal map.

    ``prox(gamma, v)`` returns a global minimizer of
    ``x -> (gamma/2)*||x - v||^2 + phi(x)`` and its output always lies in the
    domain of `eval` (i.e. ``eval(prox(gamma, v))`` is finite).  Where the
    minimizer is not unique the tie is broken deterministically toward the
    sparser / smaller-norm point; the concrete rule is documented per oracle.
    """

    name: str
    eval: Callable[[Vector], float]
    prox: Callable[[float, Vector], Vector]
    continuous_on_domain: bool = True  # if False, the solver warns when m > 0


@dataclass(frozen=True)
class CompositeProblem:
    """Pairing of a smooth oracle ``f`` and a prox-friendly oracle ``phi``.

    The composite objective is ``psi(x) = f(x) + phi(x)`` on vectors of the
    given dimension.
    """

    smooth: SmoothOracle
    nonsmooth: ProxOracle
    dimension: int

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be a positive integer")

    @property
    def name(self) -> str:
        return f"{self.smooth.name}+{self.nonsmooth.name}"


make_problem = CompositeProblem


GAMMA0_STRATEGIES = ("constant", "bb_safeguarded")


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
        # checked without coercion, so a trace's config echo keeps each value
        # as given; a bool or a string is not a number here
        for name in ("tau", "gamma_min", "gamma_max", "delta", "gamma0_value",
                     "tau_abs", "eps_step"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{name} must be a number, got {value!r}")
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an int past the float range
                raise ValueError(f"{name} is too large to convert to a float") from None
            if not finite:
                raise ValueError(f"{name} must be finite, got {value}")
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
