"""Smooth objective terms with exact gradients, plus a finite-difference check.

The library ships three families:

``quadratic``
    f(x) = 0.5*||A x - b||^2, the standard data-fitting term.
``quartic``
    f(x) = 0.25 * sum(x_i^4).  Its gradient is locally but not globally
    Lipschitz, which is exactly the regime the solver is built for.
``logistic``
    f(x) = sum_i log(1 + exp(-y_i <a_i, x>)), evaluated in overflow-safe
    form because the solver probes large trial steps while backtracking.

Each oracle is a frozen dataclass.  ``quadratic`` and ``logistic`` keep a
private one-entry memo of the last point's ``A x`` term, so a `grad` at the
point of the preceding `eval` (as in every backtracking trial) does one pass
over ``A`` instead of two.  The memo is keyed on the point's dtype, shape and
bytes, is replaced atomically, and a hit equals a recompute bit for bit;
concurrent callers can only cause misses.
"""

from __future__ import annotations

import numpy as np

from .core import SmoothOracle, Vector, as_vector, build_oracle

__all__ = [
    "make_quadratic",
    "make_quartic",
    "make_logistic",
    "fd_gradient_check",
    "SMOOTH_REGISTRY",
    "build_smooth",
]


def _last_point_memo(compute):
    """Wrap ``compute(x)`` in a one-entry cache keyed on x's exact contents.

    The key is ``(dtype, shape, bytes)``: not identity, because a caller may
    change the array in place between calls, and not ``array_equal``, which
    equates -0.0 with 0.0 and never matches NaN.  The slot is one tuple, so
    replacing it is atomic.  The cached array is read-only and callers only
    ever receive arrays computed from it.
    """
    slot = (None, None)

    def cached(x):
        nonlocal slot
        x = np.asarray(x)
        key = (x.dtype.str, x.shape, x.tobytes())
        last_key, value = slot
        if key == last_key:
            return value
        value = compute(x)
        value.flags.writeable = False
        slot = (key, value)
        return value

    return cached


def make_quadratic(A_rows, b) -> SmoothOracle:
    """Least-squares oracle f(x) = 0.5*||A x - b||^2 with grad A^T(A x - b).

    Parameters
    ----------
    A_rows : array_like, shape (m, n)
        Design matrix given as a list of rows.
    b : array_like, shape (m,)
        Right-hand side; must have one entry per row of `A_rows`.
    """
    A = np.asarray(A_rows, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError(f"A must be a matrix, got shape {A.shape}")
    bv = as_vector(b)
    if A.shape[0] != bv.size:
        raise ValueError(
            f"shape mismatch: A has {A.shape[0]} rows but b has {bv.size} entries"
        )

    residual = _last_point_memo(lambda x: A @ x - bv)

    def feval(x: Vector) -> float:
        r = residual(x)
        return 0.5 * float(np.dot(r, r))

    def fgrad(x: Vector) -> Vector:
        return A.T @ residual(x)

    return SmoothOracle("quadratic", feval, fgrad)


def make_quartic(dimension: int) -> SmoothOracle:
    """Separable quartic f(x) = 0.25 * sum(x_i^4), grad (x_1^3, ..., x_n^3).

    The gradient is locally Lipschitz on every bounded set but has no global
    Lipschitz constant.
    """
    if dimension < 1:
        raise ValueError("dimension must be >= 1")

    def feval(x: Vector) -> float:
        return 0.25 * float((x**4).sum())

    def fgrad(x: Vector) -> Vector:
        return x**3

    return SmoothOracle("quartic", feval, fgrad)


def make_logistic(A_rows, labels) -> SmoothOracle:
    """Logistic loss f(x) = sum_i log(1 + exp(-y_i <a_i, x>)), labels in {-1,+1}.

    Evaluation uses ``log1p(exp(-|z|)) + max(-z, 0)`` so that large margins
    of either sign cannot overflow.
    """
    A = np.asarray(A_rows, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError(f"A must be a matrix, got shape {A.shape}")
    y = np.asarray(labels, dtype=np.float64)
    if y.shape != (A.shape[0],):
        raise ValueError("labels must have one entry per row of A")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")

    margins = _last_point_memo(lambda x: y * (A @ x))

    def feval(x: Vector) -> float:
        z = margins(x)
        return float(np.sum(np.log1p(np.exp(-np.abs(z))) + np.maximum(-z, 0.0)))

    def fgrad(x: Vector) -> Vector:
        z = margins(x)
        # sigma(-z) = 1/(1+e^z), branch-guarded against exp overflow
        p = np.where(
            z >= 0,
            np.exp(-np.clip(z, 0, None)) / (1.0 + np.exp(-np.clip(z, 0, None))),
            1.0 / (1.0 + np.exp(np.clip(z, None, 0))),
        )
        return -(A.T @ (y * p))

    return SmoothOracle("logistic", feval, fgrad)


def fd_gradient_check(oracle: SmoothOracle, x, h: float = 1e-5) -> float:
    """Largest relative deviation between `oracle.grad` and central differences.

    Returns ``max_i |(f(x + h e_i) - f(x - h e_i))/(2h) - g_i| / max(1, |g_i|)``
    where ``g = oracle.grad(x)``.  The default ``h = 1e-5`` balances the
    O(h^2) truncation error against double-precision roundoff.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    xv = as_vector(x)
    g = oracle.grad(xv)
    worst = 0.0
    for i in range(xv.size):
        step = np.zeros_like(xv)
        step[i] = h
        slope = (oracle.eval(xv + step) - oracle.eval(xv - step)) / (2.0 * h)
        err = abs(slope - float(g[i])) / max(1.0, abs(float(g[i])))
        worst = max(worst, err)
    return worst


# name -> (constructor, parameters, sized parameter), read by `build_smooth`
SMOOTH_REGISTRY = {
    "quadratic": (make_quadratic, ("A", "b"), "A"),
    "quartic": (make_quartic, ("dimension",), None),
    "logistic": (make_logistic, ("A", "labels"), "A"),
}


def build_smooth(name: str, params: dict, dimension: int) -> SmoothOracle:
    """Construct a registered smooth oracle from config-file parameters."""
    return build_oracle("smooth", SMOOTH_REGISTRY, name, params, dimension)
