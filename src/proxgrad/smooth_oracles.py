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
concurrent callers can only cause misses.  A config names a family by the
name above; `proxgrad.cli.build_smooth` maps it to its constructor.

Both bind ``A x`` and ``A^T r`` when built, to two cores where BLAS uses one
(C-ordered ``A``, n >= 2m, 350 000 <= m*n < 460 800): each call queues its first
outputs, split at a multiple of 16, to one helper thread with a fresh queue,
computes the rest, and takes the helper's one reply, None or the fault to raise.
Every point takes this path: the kernels cast an integer or float32 point as
``A @ x`` does and reject a wrong-length one with ValueError.  Each output is
the same BLAS dot product, so the bits do not change.  The halves overlap only
if the kernel releases the GIL: ``A x`` binds ``np.dot``, since numpy 2.4's
``np.matmul`` holds the GIL on C-ordered rows; ``A^T r`` binds ``np.matmul``,
since ``np.dot`` copies strided parts, with other bits.  From 460 800 up
OpenBLAS threads the call itself, with bits that can differ.
"""

from __future__ import annotations

import functools
import os
import threading

import numpy as np

from .core import SmoothOracle, Vector, as_vector

__all__ = [
    "make_quadratic",
    "make_quartic",
    "make_logistic",
    "fd_gradient_check",
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


_helper = {}  # "jobs": the one helper thread's job queue, made on first use
os.register_at_fork(after_in_child=_helper.clear)


def _split_points(A) -> tuple[int, int]:
    """Where ``A @ x`` and ``A.T @ r`` split their outputs, or 0 for no split."""
    m, n = A.shape
    split = (A.flags.c_contiguous and n >= 2 * m and 350_000 <= m * n < 460_800
             and len(getattr(os, "sched_getaffinity", lambda _: ())(0)) >= 2)
    return (m // 32 * 16, n // 32 * 16) if split else (0, 0)


def _serve(jobs):  # the helper thread; each job's caller waits on `done` for None or a fault
    while True:
        kernel, M, v, out, done = jobs.get()
        try:
            kernel(M, v, out)
            done.put(None)
        except BaseException as exc:  # the caller raises it; the helper lives on
            done.put(exc)


def _product(M, v, split: int, kernel):
    """``M @ v`` by ``kernel(part, v, out)``, outputs [:split] (split > 0) by the helper thread."""
    import queue  # here: at module level it adds about 1 ms to `run`'s cold start
    if (jobs := _helper.get("jobs")) is None:
        new = queue.SimpleQueue()
        if (jobs := _helper.setdefault("jobs", new)) is new:  # one of racing callers
            threading.Thread(target=_serve, args=(new,), name="proxgrad-matvec", daemon=True).start()
    out, done = np.empty(M.shape[0]), queue.SimpleQueue()
    jobs.put((kernel, M[:split], v, out[:split], done))
    kernel(M[split:], v, out[split:])
    if (fault := done.get()) is not None:
        raise fault
    return out


def _design(A_rows):
    """Float64 matrix ``A``, ``x -> A @ x`` and ``r -> A.T @ r``, split as `_split_points` says."""
    A = np.asarray(A_rows, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError(f"A must be a matrix, got shape {A.shape}")
    rows, cols = _split_points(A)
    return (A, functools.partial(_product, A, split=rows, kernel=np.dot) if rows else A.__matmul__,
            functools.partial(_product, A.T, split=cols, kernel=np.matmul) if cols
            else A.T.__matmul__)


def make_quadratic(A_rows, b) -> SmoothOracle:
    """Least-squares oracle f(x) = 0.5*||A x - b||^2 with grad A^T(A x - b).

    Parameters
    ----------
    A_rows : array_like, shape (m, n)
        Design matrix given as a list of rows.
    b : array_like, shape (m,)
        Right-hand side; must have one entry per row of `A_rows`.
    """
    A, matvec, rmatvec = _design(A_rows)
    try:
        bv = as_vector(b)
    except ValueError as exc:
        raise ValueError(f"parameter 'b': {exc}") from None
    if A.shape[0] != bv.size:
        raise ValueError(f"shape mismatch: A has {A.shape[0]} rows but b has {bv.size} entries")

    residual = _last_point_memo(lambda x: matvec(x) - bv)

    def feval(x: Vector) -> float:
        r = residual(x)
        return 0.5 * float(np.dot(r, r))

    def fgrad(x: Vector) -> Vector:
        return rmatvec(residual(x))

    return SmoothOracle("quadratic", feval, fgrad)


def make_quartic() -> SmoothOracle:
    """Separable quartic f(x) = 0.25 * sum(x_i^4), grad (x_1^3, ..., x_n^3).

    It works at any dimension.  The gradient is locally Lipschitz on every
    bounded set but has no global Lipschitz constant.
    """

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
    A, matvec, rmatvec = _design(A_rows)
    y = np.asarray(labels, dtype=np.float64)
    if y.shape != (A.shape[0],):
        raise ValueError("labels must have one entry per row of A")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")

    margins = _last_point_memo(lambda x: y * matvec(x))

    def feval(x: Vector) -> float:
        z = margins(x)
        return float(np.sum(np.log1p(np.exp(-np.abs(z))) + np.maximum(-z, 0.0)))

    def fgrad(x: Vector) -> Vector:
        z = margins(x)
        # sigma(-z) = 1/(1+e^z), from e = exp(-|z|) <= 1, which cannot overflow
        e = np.exp(-np.abs(z))
        p = np.where(z >= 0, e, 1.0) / (1.0 + e)
        return -rmatvec(y * p)

    return SmoothOracle("logistic", feval, fgrad)


def fd_gradient_check(oracle: SmoothOracle, x, h: float = 1e-5) -> float:
    """Largest relative deviation between `oracle.grad` and central differences.

    Returns ``max_i |(f(x + h e_i) - f(x - h e_i))/(2h) - g_i| / max(1, |g_i|)``
    where ``g = oracle.grad(x)``.  The default ``h = 1e-5`` balances the
    O(h^2) truncation error against double-precision roundoff.
    """
    if not 0 < h < np.inf:
        raise ValueError(f"h must be positive and finite, got {h}")
    xv = as_vector(x)
    g = oracle.grad(xv)
    errs = []
    for i in range(xv.size):
        step = np.zeros_like(xv)
        step[i] = h
        slope = (oracle.eval(xv + step) - oracle.eval(xv - step)) / (2.0 * h)
        errs.append(abs(slope - float(g[i])) / max(1.0, abs(float(g[i]))))
    return float(np.max(errs, initial=0.0))  # NaN if any deviation is NaN

