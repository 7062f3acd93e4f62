"""Nonsmooth penalty/indicator terms with exact proximal maps.

Each oracle solves ``min_x (gamma/2)*||x - v||^2 + phi(x)`` globally.  The
nonconvex maps (hard threshold, square-root penalty, sphere projection) are
set-valued at ties; every tie is broken deterministically toward the
sparser / smaller point so that repeated runs produce identical traces.

``brute_force_prox`` is an independent 1-D grid oracle used for
verification: it never shares code with the closed-form maps.
All oracles are immutable and their operations pure.  A config names an
oracle by its ``name`` (``zero``, ``l1``, ``l0``, ``lp_half``, ``box``,
``sphere``); `proxgrad.cli.build_prox` maps it to its constructor.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .core import ProxOracle, Vector

__all__ = [
    "make_zero",
    "make_l1",
    "make_l0",
    "make_lp_half",
    "make_box",
    "make_sphere",
    "brute_force_prox",
]

# Relative tolerance for membership in the sphere {x : ||x|| = r}; iterates
# are radial projections whose norm matches r only up to roundoff.
_SPHERE_MEMBERSHIP_RTOL = 1e-9


def _check_gamma(gamma: float) -> float:
    g = float(gamma)
    if not g > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    return g


def _check_lam(lam: float) -> float:
    lam = float(lam)
    if not 0 <= lam < math.inf:
        raise ValueError(f"lam must be finite and >= 0, got {lam}")
    return lam


def make_zero() -> ProxOracle:
    """phi == 0; the prox is the identity and the solver reduces to
    plain gradient descent with backtracking."""

    def peval(x: Vector) -> float:
        return 0.0

    def prox(gamma: float, v: Vector) -> Vector:
        _check_gamma(gamma)
        return np.array(v, dtype=np.float64)

    return ProxOracle("zero", peval, prox)


def make_l1(lam: float) -> ProxOracle:
    """phi(x) = lam * ||x||_1; prox is the coordinatewise soft threshold
    ``sign(v_i) * max(|v_i| - lam/gamma, 0)``."""
    lam = _check_lam(lam)

    def peval(x: Vector) -> float:
        return lam * float(np.sum(np.abs(x)))

    def prox(gamma: float, v: Vector) -> Vector:
        g = _check_gamma(gamma)
        t = lam / g
        return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)

    return ProxOracle("l1", peval, prox)


def make_l0(lam: float) -> ProxOracle:
    """phi(x) = lam * #{i : x_i != 0}; prox is the coordinatewise hard
    threshold, keeping v_i exactly when (gamma/2)*v_i^2 > lam.

    Ties ((gamma/2)*v_i^2 == lam) resolve to 0.  Not continuous on its
    domain, so the nonmonotone solver warns when run on it with m > 0.
    """
    lam = _check_lam(lam)

    def peval(x: Vector) -> float:
        return lam * float(np.count_nonzero(x))

    def prox(gamma: float, v: Vector) -> Vector:
        g = _check_gamma(gamma)
        keep = 0.5 * g * v * v > lam
        return np.where(keep, v, 0.0)

    return ProxOracle("l0", peval, prox, continuous_on_domain=False)


def make_lp_half(lam: float) -> ProxOracle:
    """phi(x) = lam * sum_i |x_i|^(1/2), the p = 1/2 power penalty.

    The coordinatewise prox is the half-thresholding map of Xu, Chang, Xu &
    Zhang, "L1/2 regularization: a thresholding representation theory and a
    fast solver", IEEE TNNLS 23(7), 2012, with mu = 2*lam/gamma: v_i is
    kept when ``|v_i| > (54^(1/3)/4) * mu^(2/3)`` and maps to
    ``(2/3) v_i (1 + cos(2*pi/3 - (2/3) arccos((mu/8) (|v_i|/3)^(-3/2))))``,
    every other coordinate maps to 0.  The threshold is tested in the cubed
    form ``8 gamma^2 |v_i|^3 > 27 lam^2``: the rounded root of the first
    form misplaces exact ties such as lam = gamma = 1, v_i = 1.5, where 0
    and (2/3) v_i have equal objective.  Ties resolve to 0.
    """
    lam = _check_lam(lam)

    def peval(x: Vector) -> float:
        return lam * float(np.sum(np.sqrt(np.abs(x))))

    def prox(gamma: float, v: Vector) -> Vector:
        g = _check_gamma(gamma)
        v = np.array(v, dtype=np.float64)
        if lam == 0.0:
            return v
        mu = 2.0 * lam / g
        a = np.abs(v)
        keep = 8.0 * g * g * a**3 > 27.0 * lam * lam
        # the arccos argument is inf at v_i = 0, so only kept coordinates
        # go through the formula
        phase = np.arccos((mu / 8.0) * (a[keep] / 3.0) ** -1.5)
        out = np.zeros_like(v)
        out[keep] = (2.0 / 3.0) * v[keep] * (1.0 + np.cos(2.0 * math.pi / 3.0 - 2.0 * phase / 3.0))
        return out

    return ProxOracle("lp_half", peval, prox)


def make_box(lo, hi) -> ProxOracle:
    """Indicator of the box [lo, hi]; prox is the componentwise clamp,
    independent of gamma.  A side may be open: -inf in `lo` or +inf in `hi`,
    so ``make_box([0.0], [math.inf])`` is the constraint x >= 0.  The bounds
    are copied, so later changes to the caller's arrays do not move the box."""
    lo_v = np.array(lo, dtype=np.float64)
    hi_v = np.array(hi, dtype=np.float64)
    if lo_v.ndim != 1 or lo_v.size == 0 or lo_v.shape != hi_v.shape:
        raise ValueError("lo and hi must be nonempty vectors of the same dimension")
    if np.isnan(lo_v).any() or np.isnan(hi_v).any():
        raise ValueError("box bounds must not be NaN")
    if (lo_v == math.inf).any() or (hi_v == -math.inf).any():
        raise ValueError("box bounds may be infinite only outward: -inf in lo, +inf in hi")
    if (lo_v > hi_v).any():
        raise ValueError("box is empty: lo > hi in some coordinate")
    lo_v.flags.writeable = hi_v.flags.writeable = False

    def peval(x: Vector) -> float:
        inside = bool(((x >= lo_v) & (x <= hi_v)).all())
        return 0.0 if inside else math.inf

    def prox(gamma: float, v: Vector) -> Vector:
        _check_gamma(gamma)
        # the method np.clip dispatches to, without its Python wrapper
        return np.asarray(v).clip(lo_v, hi_v)

    return ProxOracle("box", peval, prox)


def make_sphere(radius: float) -> ProxOracle:
    """Indicator of the (nonconvex) sphere {x : ||x|| = radius}.

    The prox is the radial projection ``radius * v / ||v||``.  At the tie
    v = 0, where every point of the sphere is equally close, the
    deterministic selection is ``radius * e_1``.  Membership is tested with
    a small relative tolerance because projected points match the radius
    only up to roundoff.
    """
    r = float(radius)
    if not 0 < r < math.inf:
        raise ValueError(f"radius must be positive and finite, got {r}")

    def peval(x: Vector) -> float:
        nrm = math.sqrt(float(np.dot(x, x)))
        if abs(nrm - r) <= _SPHERE_MEMBERSHIP_RTOL * max(1.0, r):
            return 0.0
        return math.inf

    def prox(gamma: float, v: Vector) -> Vector:
        _check_gamma(gamma)
        nrm = math.sqrt(float(np.dot(v, v)))
        if nrm == 0.0:
            out = np.zeros_like(np.asarray(v, dtype=np.float64))
            out[0] = r
            return out
        return (r / nrm) * v

    return ProxOracle("sphere", peval, prox)


@functools.lru_cache(maxsize=8)
def _brute_force_grid(lo: float, hi: float, step: float) -> Vector:
    """Read-only grid {lo, lo+step, ..., hi}, memoized across calls.

    A grid point that should be exactly zero is snapped to 0.0 so that
    penalties distinguishing zero from nonzero are graded fairly.
    """
    n = int(math.floor((hi - lo) / step + 1e-9)) + 1
    grid = lo + step * np.arange(n)
    zero_idx = int(np.argmin(np.abs(grid)))
    if abs(grid[zero_idx]) < 1e-9 * step:
        grid[zero_idx] = 0.0
    grid.flags.writeable = False
    return grid


def brute_force_prox(
    phi_1d,
    gamma: float,
    v: float,
    lo: float = -10.0,
    hi: float = 10.0,
    step: float = 1e-4,
) -> float:
    """Grid-search argmin of ``(gamma/2)*(x - v)^2 + phi(x)`` over 1-D x.

    Independent verification oracle for the separable prox maps.  `phi_1d`
    is evaluated on the whole grid at once and must map it elementwise, to
    an array of the grid's shape without NaN (``+inf`` is allowed), and `v`
    must be finite; otherwise a ValueError is raised.  Ties resolve to the
    smallest |x|, then the smallest x.
    """
    g = _check_gamma(gamma)
    if not (lo < hi) or step <= 0:
        raise ValueError("need lo < hi and step > 0")
    grid = _brute_force_grid(lo, hi, step)
    phi_vals = np.asarray(phi_1d(grid), dtype=np.float64)
    if phi_vals.shape != grid.shape:
        raise ValueError(f"phi_1d must map the grid elementwise: got shape "
                         f"{phi_vals.shape} for a grid of shape {grid.shape}")
    if not math.isfinite(v) or np.isnan(phi_vals).any():
        raise ValueError(f"need a finite v (got {v}) and a phi_1d without NaN on the grid")
    obj = grid - v
    obj *= obj
    obj *= 0.5 * g
    obj += phi_vals
    best = np.min(obj)
    ties = grid[obj == best]
    return float(min(ties, key=lambda x: (abs(x), x)))

