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
concurrently running solves.  Nothing here knows the config-file format;
`proxgrad.cli` builds oracles from configs.
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
]

Vector = np.ndarray


def as_vector(x, dimension: int | None = None) -> Vector:
    """Coerce `x` to a finite 1-D float64 array, optionally checking its length.

    Raises
    ------
    ValueError
        If `x` is not one-dimensional, has an entry that is not a number or
        not finite, is empty, or does not match `dimension`.
    """
    try:
        v = np.asarray(x, dtype=np.float64)
    except (TypeError, OverflowError) as exc:  # e.g. a dict entry, or an int past 1e308
        raise ValueError(f"vector has a coordinate that is not a float: {exc}") from None
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

