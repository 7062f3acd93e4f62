"""Vector coercion, extended-real arithmetic, and the composite problem type.

Points live in plain Euclidean space and are represented as dense 1-D float64
numpy arrays.  The nonsmooth term of a composite objective may take the value
``+inf`` (and only ``+inf``); everywhere in this package "extended real" means
a Python float where ``math.inf`` marks points outside the domain.  IEEE
semantics already give the required behaviour: ``inf`` compares greater than
every finite value and ``finite + inf == inf``.

All types in this module are frozen dataclasses and all operations are
pure.  A smooth oracle's one-entry memo (see `SmoothOracle`) returns on a hit
what a recompute would, so problems may be shared freely between
concurrently running solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Vector",
    "as_vector",
    "SmoothOracle",
    "ProxOracle",
    "CompositeProblem",
    "make_problem",
    "build_oracle",
]

Vector = np.ndarray


def as_vector(x, dimension: int | None = None) -> Vector:
    """Coerce `x` to a finite 1-D float64 array, optionally checking its length.

    Raises
    ------
    ValueError
        If `x` is not one-dimensional, contains NaN or +-inf, is empty, or
        does not match `dimension`.
    """
    v = np.asarray(x, dtype=np.float64)
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


def make_problem(smooth: SmoothOracle, nonsmooth: ProxOracle,
                 dimension: int) -> CompositeProblem:
    """Pair a smooth and a nonsmooth oracle on vectors of `dimension`."""
    return CompositeProblem(smooth, nonsmooth, dimension)


def build_oracle(kind: str, registry: dict, name: str, params, dimension: int):
    """Construct `registry[name]` from config-file `params`: its constructor
    takes its parameters in order, one named ``dimension`` being the problem
    dimension, and its sized parameter's last axis must have that length."""
    if not isinstance(name, str) or name not in registry:
        known = ", ".join(sorted(registry))
        raise ValueError(f"unknown {kind} oracle {name!r} (known: {known})")
    make, names, sized = registry[name]
    if not isinstance(params, dict):
        raise ValueError(f"{kind} oracle {name!r}: params must be an object")
    wanted = [p for p in names if p != "dimension"]
    wrong = [f"missing {p!r}" for p in wanted if p not in params]
    wrong += [f"unknown {p!r}" for p in sorted(set(params) - set(wanted))]
    if wrong:
        expected = ", ".join(wanted) or "none"
        raise ValueError(f"{kind} oracle {name!r}: {', '.join(wrong)} parameter "
                         f"(expected: {expected})")
    args = {**params, "dimension": dimension}
    try:
        if sized is not None:
            args[sized] = np.asarray(args[sized], dtype=np.float64)
        oracle = make(*(args[p] for p in names))
    except TypeError as exc:
        raise ValueError(f"{kind} oracle {name!r}: bad parameter: {exc}") from None
    if sized is not None and args[sized].shape[-1] != dimension:
        raise ValueError(f"{kind} oracle {name!r}: {sized!r} has dimension "
                         f"{args[sized].shape[-1]} but problem dimension is {dimension}")
    return oracle
