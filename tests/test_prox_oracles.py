import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxgrad.cli import build_prox
from proxgrad.core import make_problem
from proxgrad.prox_oracles import (
    brute_force_prox,
    make_box,
    make_l0,
    make_l1,
    make_lp_half,
    make_sphere,
    make_zero,
)
from proxgrad.smooth_oracles import make_quadratic
from proxgrad.solver import SolverConfig, solve

INF = math.inf


def scalar_prox(oracle, gamma, v):
    return float(oracle.prox(gamma, np.array([v]))[0])


class TestZero:
    def test_identity(self):
        z = make_zero()
        assert np.array_equal(z.prox(1.0, np.array([1.0, 2.0])), [1.0, 2.0])
        assert np.array_equal(z.prox(7.0, np.array([0.0, 0.0])), [0.0, 0.0])

    def test_matches_brute_force(self):
        z = make_zero()
        rng = np.random.default_rng(11)
        for _ in range(20):
            v = float(rng.uniform(-4, 4))
            gamma = float(rng.uniform(0.2, 5))
            bf = brute_force_prox(lambda x: 0.0 * x, gamma, v)
            assert abs(scalar_prox(z, gamma, v) - bf) <= 1e-4


class TestL1:
    def test_lambda_zero_is_identity(self):
        p = make_l1(0.0)
        v = np.array([0.3, -2.0])
        assert np.array_equal(p.prox(1.0, v), v)

    def test_zero_input(self):
        p = make_l1(1.0)
        assert np.array_equal(p.prox(2.0, np.zeros(2)), np.zeros(2))

    def test_soft_threshold_values(self):
        p = make_l1(1.0)
        out = p.prox(2.0, np.array([3.0, -0.25]))
        assert out == pytest.approx([2.5, 0.0], abs=1e-15)
        # cross-check each coordinate against the grid oracle
        for v, expect in ((3.0, 2.5), (-0.25, 0.0)):
            bf = brute_force_prox(lambda x: np.abs(x), 2.0, v, lo=-5.0, hi=5.0, step=1e-4)
            assert abs(bf - expect) <= 1e-4

    def test_one_lipschitz(self):
        p = make_l1(0.7)
        rng = np.random.default_rng(3)
        for gamma in (0.1, 1.0, 10.0):
            for _ in range(50):
                v, w = rng.uniform(-5, 5, size=(2, 4))
                lhs = np.linalg.norm(p.prox(gamma, v) - p.prox(gamma, w))
                assert lhs <= np.linalg.norm(v - w) + 1e-12


class TestL0:
    def test_small_entry_zeroed(self):
        assert scalar_prox(make_l0(1.0), 2.0, 0.9) == 0.0  # 0.81 < 1

    def test_large_entry_kept(self):
        assert scalar_prox(make_l0(1.0), 2.0, 1.5) == 1.5  # 2.25 > 1

    def test_tie_resolves_to_zero(self):
        assert scalar_prox(make_l0(1.0), 2.0, 1.0) == 0.0  # (gamma/2)v^2 == lam

    def test_flags(self):
        assert make_l0(1.0).continuous_on_domain is False


class TestLpHalf:
    def test_zero_input(self):
        assert scalar_prox(make_lp_half(1.0), 2.0, 0.0) == 0.0

    def test_lambda_zero_is_identity(self):
        p = make_lp_half(0.0)
        v = np.array([1.3, -0.2])
        assert np.array_equal(p.prox(1.0, v), v)

    def test_against_grid(self):
        p = make_lp_half(1.0)
        got = scalar_prox(p, 2.0, 1.8)
        bf = brute_force_prox(
            lambda x: np.sqrt(np.abs(x)), 2.0, 1.8, lo=-3.0, hi=3.0, step=1e-5
        )
        assert abs(got - bf) <= 1e-4

    def test_sign_symmetry(self):
        p = make_lp_half(0.8)
        rng = np.random.default_rng(9)
        for _ in range(50):
            v = float(rng.uniform(0, 5))
            gamma = float(rng.uniform(0.1, 10))
            assert scalar_prox(p, gamma, -v) == -scalar_prox(p, gamma, v)

    def test_stationarity_of_nonzero_output(self):
        # nonzero outputs satisfy gamma*(x - v) + (lam/2)*x^(-1/2) = 0
        p = make_lp_half(0.6)
        rng = np.random.default_rng(13)
        for _ in range(100):
            v = float(rng.uniform(0.5, 5))
            gamma = float(rng.uniform(0.5, 10))
            x = scalar_prox(p, gamma, v)
            if x != 0.0:
                g = gamma * (x - v) + 0.3 / math.sqrt(x)
                assert abs(g) <= 1e-10 * max(1.0, gamma * v)

    @pytest.mark.parametrize("lam,gamma,v", [(1.0, 1.0, 1.5), (8.0, 1.0, 6.0), (64.0, 1.0, 24.0)])
    def test_tie_resolves_to_zero(self, lam, gamma, v):
        # 8*gamma^2*v^3 == 27*lam^2: x = 0 and x = (2/3)*v have equal objective
        p = make_lp_half(lam)
        for s in (1.0, -1.0):
            assert scalar_prox(p, gamma, s * v) == 0.0
            assert scalar_prox(p, gamma, s * np.nextafter(v, 0.0)) == 0.0
            x = scalar_prox(p, gamma, s * np.nextafter(v, math.inf))
            assert x != 0.0 and math.copysign(1.0, x) == s
            assert x == pytest.approx(s * 2.0 * v / 3.0, rel=1e-12)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(lam=st.floats(0.01, 3.0), gamma=st.floats(0.1, 10.0), v=st.floats(-5.0, 5.0))
    def test_global_minimizer_property(self, lam, gamma, v):
        def h(x):
            return 0.5 * gamma * (x - v) ** 2 + lam * math.sqrt(abs(x))

        p = make_lp_half(lam)
        x = float(p.prox(gamma, [v])[0])
        bf = brute_force_prox(lambda t: lam * np.sqrt(np.abs(t)), gamma, v)
        slack = 1e-12 * max(1.0, h(0.0))
        assert h(x) <= h(0.0) + slack
        assert h(x) <= h(bf) + slack
        assert float(p.prox(gamma, [-v])[0]) == -x


class TestBox:
    def test_identity_inside(self):
        b = make_box([0.0, 0.0], [1.0, 1.0])
        v = np.array([0.25, 0.75])
        assert np.array_equal(b.prox(3.0, v), v)

    def test_clamp(self):
        b = make_box([0.0, 0.0], [1.0, 1.0])
        assert np.array_equal(b.prox(1.0, np.array([2.0, -3.0])), [1.0, 0.0])

    def test_gamma_independent(self):
        b = make_box([-1.0], [1.0])
        assert scalar_prox(b, 0.1, 4.0) == scalar_prox(b, 10.0, 4.0) == 1.0

    def test_matches_brute_force(self):
        lo, hi = -0.5, 1.25
        b = make_box([lo], [hi])
        phi = lambda x: np.where((x >= lo) & (x <= hi), 0.0, INF)
        rng = np.random.default_rng(17)
        for _ in range(20):
            v = float(rng.uniform(-4, 4))
            gamma = float(rng.uniform(0.2, 5))
            bf = brute_force_prox(phi, gamma, v)
            assert abs(scalar_prox(b, gamma, v) - bf) <= 1e-4

    def test_empty_box_rejected(self):
        with pytest.raises(ValueError, match="lo > hi"):
            make_box([0.0, 1.0], [1.0, 0.0])

    @pytest.mark.parametrize("lo, hi, fragment", [
        ([math.nan], [1.0], "NaN"),
        ([0.0], [math.nan], "NaN"),
        ([INF], [INF], "outward"),
        ([-INF], [-INF], "outward"),
        ([0.0, 0.0], [1.0], "same dimension"),
        ([], [], "nonempty"),
    ])
    def test_bad_bounds_rejected(self, lo, hi, fragment):
        with pytest.raises(ValueError, match=fragment) as err:
            make_box(lo, hi)
        assert "\n" not in str(err.value)

    def test_bounds_are_copied(self):
        lo, hi = np.array([0.0]), np.array([1.0])
        b = make_box(lo, hi)
        lo[0], hi[0] = 5.0, -5.0  # would be an empty box
        assert b.prox(1.0, np.array([0.5])).tolist() == [0.5]
        assert b.prox(1.0, np.array([7.0])).tolist() == [1.0]
        assert b.eval(np.array([0.5])) == 0.0

    @pytest.mark.parametrize("lo, hi", [(0.0, INF), (-INF, 1.0)])
    def test_half_bounded(self, lo, hi):
        b = make_box([lo], [hi])
        for v in [-5.0, -0.5, 0.0, 0.5, 1.0, 5.0]:
            want = min(max(v, lo), hi)
            assert b.prox(2.0, np.array([v])).tolist() == [want]
            assert b.eval(np.array([v])) == (0.0 if want == v else INF)
        assert b.eval(np.array([math.nan])) == INF

    def test_nonnegativity_constraint_solves(self):
        # min 0.5 ||x - (-1, 2)||^2 over x >= 0
        problem = make_problem(make_quadratic(np.eye(2), [-1.0, 2.0]),
                               make_box([0.0, 0.0], [INF, INF]), 2)
        report = solve(problem, SolverConfig(), [1.0, 1.0])
        assert report.status == "converged_residual"
        assert report.x_final.tolist() == pytest.approx([0.0, 2.0], abs=1e-6)

    # the bounds here are finite; the points need not be
    BOUNDS = list(itertools.product([-0.0, 0.0, -1.0], [0.0, -0.0, 1.0]))
    POINTS = [math.nan, 0.0, -0.0, INF, -INF, 1.0, -1.0, 5e-324]

    @pytest.mark.parametrize("lo, hi", BOUNDS)
    def test_prox_is_np_clip_bit_for_bit(self, lo, hi):
        n = len(self.POINTS)
        lo_v, hi_v = np.full(n, lo), np.full(n, hi)
        b = make_box(lo_v, hi_v)
        for v in (np.array(self.POINTS), self.POINTS):
            got = b.prox(1.0, v)
            want = np.clip(v, lo_v, hi_v)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("lo, hi", BOUNDS)
    def test_eval_matches_two_reductions(self, lo, hi):
        b = make_box([lo], [hi])
        lo_v, hi_v = np.array([lo]), np.array([hi])
        for x in self.POINTS:
            x = np.array([x])
            inside = bool((x >= lo_v).all() and (x <= hi_v).all())
            assert b.eval(x) == (0.0 if inside else INF)
        assert b.eval(np.array([math.nan])) == INF
        assert b.eval(np.array([lo])) == b.eval(np.array([hi])) == 0.0
        # every coordinate must be inside, not just one
        assert make_box([lo, lo], [hi, hi]).eval(np.array([lo, hi + 1.0])) == INF


class TestSphere:
    def test_radial_projection(self):
        s = make_sphere(1.0)
        out = s.prox(1.0, np.array([3.0, 4.0]))
        assert out == pytest.approx([0.6, 0.8], abs=1e-15)

    def test_projection_beats_sphere_samples(self):
        s = make_sphere(1.0)
        v = np.array([3.0, 4.0])
        p = s.prox(1.0, v)
        thetas = np.linspace(0.0, 2 * math.pi, 10_000, endpoint=False)
        samples = np.column_stack([np.cos(thetas), np.sin(thetas)])
        dists = np.linalg.norm(samples - v, axis=1)
        assert np.linalg.norm(p - v) <= dists.min() + 1e-12
        assert np.linalg.norm(p - samples[dists.argmin()]) <= 2 * math.pi / 10_000 + 1e-9

    def test_identity_on_sphere(self):
        s = make_sphere(2.0)
        v = np.array([2 * math.cos(0.3), 2 * math.sin(0.3)])
        assert s.prox(5.0, v) == pytest.approx(v, abs=1e-14)

    def test_tie_break_at_origin(self):
        s = make_sphere(1.0)
        assert np.array_equal(s.prox(1.0, np.zeros(2)), [1.0, 0.0])

    def test_membership_tolerance(self):
        s = make_sphere(1.0)
        p = s.prox(1.0, np.array([0.123, -4.56]))
        assert s.eval(p) == 0.0
        assert s.eval(np.array([2.0, 0.0])) == INF

    def test_membership_boundary_is_inclusive(self):
        # the origin is |0 - r| = r = 1e-9 * max(1, r) off the radius-1e-9 sphere
        assert make_sphere(1e-9).eval(np.zeros(2)) == 0.0

    def test_membership_tolerance_grows_with_a_radius_above_one(self):
        # radius 4: the band is 4e-9 wide, not 1e-9 or 2.5e-10
        s = make_sphere(4.0)
        assert s.eval(np.array([4.0 + 2e-9, 0.0])) == 0.0
        assert s.eval(np.array([4.0 + 6e-9, 0.0])) == INF

    def test_membership_tolerance_is_1e_9_below_radius_one(self):
        # radius 0.5: the band is 1e-9 wide, not 0.5e-9 or 2e-9
        s = make_sphere(0.5)
        assert s.eval(np.array([0.5 + 0.75e-9])) == 0.0
        assert s.eval(np.array([0.5 + 1.5e-9])) == INF


class TestBruteForce:
    def test_identity_prox(self):
        got = brute_force_prox(lambda x: 0.0 * x, 1.0, 0.5, lo=-1.0, hi=1.0, step=1e-3)
        assert abs(got - 0.5) <= 1e-3

    def test_abs_penalty(self):
        got = brute_force_prox(lambda x: np.abs(x), 1.0, 2.0, lo=-5.0, hi=5.0, step=1e-4)
        assert abs(got - 1.0) <= 1e-4

    def test_two_point_indicator(self):
        # indicator of {0, 1}, realized on the grid with half-step tolerance
        phi = lambda x: np.where(np.minimum(np.abs(x), np.abs(x - 1.0)) < 5e-5, 0.0, INF)
        got = brute_force_prox(phi, 1.0, 0.4)
        assert abs(got - 0.0) <= 1e-4

    def test_phi_must_map_the_grid_elementwise(self):
        # a scalar or a length-1 result would broadcast over the grid unnoticed
        for phi in (lambda x: 0.0, lambda x: np.zeros(1), lambda x: np.zeros(3)):
            with pytest.raises(ValueError, match="must map the grid elementwise"):
                brute_force_prox(phi, 1.0, 2.0, lo=-3.0, hi=3.0, step=1e-2)

    def test_tie_prefers_smaller_magnitude_then_smaller_value(self):
        # {0, 1} indicator with v = 0.5: both candidates cost exactly 0.125,
        # the smaller-|x| rule picks 0 (grid of 0.5-multiples is float-exact)
        phi = lambda x: np.where((x == 0.0) | (x == 1.0), 0.0, INF)
        assert brute_force_prox(phi, 1.0, 0.5, lo=-2.0, hi=2.0, step=0.5) == 0.0
        # exact symmetric tie at +-1: equal magnitudes resolve to the smaller x
        concave = lambda x: -(x * x)
        assert brute_force_prox(concave, 1.0, 0.0, lo=-1.0, hi=1.0, step=0.25) == -1.0

    def test_grid_is_shared_read_only_and_snaps_zero(self):
        # the grid -0.3 + 0.1 k misses 0 by 5.6e-17 unless the point is
        # snapped, and the l0 penalty tells the two apart
        seen = []

        def l0(x):
            seen.append(x)
            return (x != 0.0).astype(np.float64)

        for _ in range(2):
            assert brute_force_prox(l0, 1.0, 0.0, lo=-0.3, hi=0.3, step=0.1) == 0.0
        assert seen[0] is seen[1] and not seen[0].flags.writeable

    def test_a_point_a_fraction_of_a_step_from_zero_is_not_snapped(self):
        # -1.000005 + 1e-4 k passes 0 at 5e-6, a twentieth of a step: the
        # snap (below 1e-9 * step) is for rounding error only, so no grid
        # point is 0 and the l0 penalty's argmin is the point nearest 0
        l0 = lambda x: (x != 0.0).astype(np.float64)
        got = brute_force_prox(l0, 1.0, 0.0, lo=-1.000005, hi=1.0, step=1e-4)
        assert got == pytest.approx(-5e-6, rel=1e-9)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            brute_force_prox(lambda x: 0.0 * x, 1.0, 0.0, lo=1.0, hi=0.0, step=0.1)

    @pytest.mark.parametrize("lo, hi, step", [
        (0.0, 1.0, 0.0), (0.0, 1.0, -0.1), (1.0, 1.0, 0.1),
    ], ids=["zero_step", "negative_step", "lo_equal_hi"])
    def test_argument_check_names_the_bad_grid(self, lo, hi, step):
        # each is caught by the argument check, not by a later division or
        # an empty grid
        with pytest.raises(ValueError, match="^need lo < hi and step > 0$"):
            brute_force_prox(lambda x: 0.0 * x, 1.0, 0.0, lo=lo, hi=hi, step=step)

    def test_grid_count_ends_at_hi(self):
        # v beyond the grid lands on its last point, which is hi exactly
        assert brute_force_prox(lambda x: 0.0 * x, 1.0, 5.0, lo=-1.0, hi=1.0, step=0.25) == 1.0

    @pytest.mark.parametrize("v, end", [(-100.0, -10.0), (100.0, 10.0)], ids=["lo", "hi"])
    def test_default_bounds_are_plus_minus_ten(self, v, end):
        assert brute_force_prox(lambda x: 0.0 * x, 1.0, v) == pytest.approx(end, abs=1e-12)

    @pytest.mark.parametrize("v", [INF, -INF, math.nan])
    def test_non_finite_v_is_rejected(self, v):
        # an infinite v made every grid point cost inf and returned 0.0
        with pytest.raises(ValueError, match=r"^need a finite v \(got (inf|-inf|nan)\)"):
            brute_force_prox(abs, 1.0, v)

    @pytest.mark.parametrize("phi", [lambda x: np.where(x > 0.5, math.nan, 0.0),
                                     lambda x: np.full_like(x, math.nan)],
                             ids=["part_of_the_grid", "whole_grid"])
    def test_nan_phi_is_rejected(self, phi):
        with pytest.raises(ValueError, match="and a phi_1d without NaN on the grid$"):
            brute_force_prox(phi, 1.0, 0.75, lo=-1.0, hi=1.0, step=0.25)

    def test_infinite_phi_stays_valid(self):
        # the indicator of x >= 0.5 is +inf on part of the grid
        phi = lambda x: np.where(x >= 0.5, 0.0, INF)
        assert brute_force_prox(phi, 1.0, 0.0, lo=-1.0, hi=1.0, step=0.25) == 0.5


@pytest.mark.parametrize("make, value, fragment", [
    (make, value, "lam must be finite and >= 0")
    for make in (make_l1, make_l0, make_lp_half) for value in (-1.0, math.nan, INF)
] + [(make_sphere, value, "radius must be positive and finite")
     for value in (0.0, math.nan, INF)])
def test_penalty_weight_and_radius_must_be_finite(make, value, fragment):
    with pytest.raises(ValueError, match=fragment):
        make(value)
    # numpy scalars are numbers to the library constructors
    assert make(np.float32(0.5)).eval(np.array([0.5])) == pytest.approx(
        make(0.5).eval(np.array([0.5])))


def shipped_prox_oracles():
    return [
        make_zero(),
        make_l1(0.7),
        make_l0(0.3),
        make_lp_half(0.9),
        make_box([-1.0, -0.5, 0.0], [1.5, 2.0, 0.25]),
        make_sphere(1.3),
    ]


@pytest.mark.parametrize("oracle", shipped_prox_oracles(), ids=lambda o: o.name)
def test_prox_optimality_certificate(oracle):
    """prox(gamma, v) must beat 50 domain points for 200 random v per gamma."""
    rng = np.random.default_rng(2024)
    dim = 3
    if oracle.name == "box":
        zs = rng.uniform([-1.0, -0.5, 0.0], [1.5, 2.0, 0.25], size=(50, dim))
    elif oracle.name == "sphere":
        raw = rng.normal(size=(50, dim))
        zs = 1.3 * raw / np.linalg.norm(raw, axis=1, keepdims=True)
    else:
        zs = rng.uniform(-6, 6, size=(50, dim))
    phi_z = np.array([oracle.eval(z) for z in zs])
    for gamma in (0.1, 1.0, 10.0):
        for _ in range(200):
            v = rng.uniform(-5, 5, size=dim)
            p = oracle.prox(gamma, v)
            lhs = 0.5 * gamma * float(np.dot(p - v, p - v)) + oracle.eval(p)
            rhs = 0.5 * gamma * np.sum((zs - v) ** 2, axis=1) + phi_z
            assert lhs <= rhs.min() + 1e-10


@pytest.mark.parametrize("oracle", shipped_prox_oracles(), ids=lambda o: o.name)
def test_prox_output_in_domain(oracle):
    rng = np.random.default_rng(77)
    for gamma in (0.1, 1.0, 10.0):
        for _ in range(50):
            v = rng.uniform(-5, 5, size=3)
            assert math.isfinite(oracle.eval(oracle.prox(gamma, v)))


@pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("oracle", shipped_prox_oracles(), ids=lambda o: o.name)
def test_prox_rejects_non_positive_gamma(oracle, gamma):
    with pytest.raises(ValueError, match="gamma must be positive"):
        oracle.prox(gamma, np.zeros(3))


def test_registry_names_and_unknown():
    assert build_prox("l1", {"lam": 0.5}, 3).name == "l1"
    with pytest.raises(ValueError, match="unknown prox oracle"):
        build_prox("l2", {}, 3)


def test_registry_box_dimension_check():
    with pytest.raises(ValueError, match="dimension"):
        build_prox("box", {"lo": [0.0], "hi": [1.0]}, 2)
