import math
import sys
import threading

import numpy as np
import pytest

from proxgrad.smooth_oracles import (
    build_smooth,
    fd_gradient_check,
    make_logistic,
    make_quadratic,
    make_quartic,
)


class TestQuadratic:
    def test_identity_design(self):
        f = make_quadratic(np.eye(2), [0.0, 0.0])
        assert f.eval(np.array([1.0, 1.0])) == 1.0
        assert np.array_equal(f.grad(np.array([1.0, 1.0])), [1.0, 1.0])

    def test_gradient_vanishes_at_b(self):
        f = make_quadratic(np.eye(2), [1.0, 0.1])
        assert np.array_equal(f.grad(np.array([1.0, 0.1])), [0.0, 0.0])

    def test_row_design(self):
        # f(x) = 0.5*(x1 + x2 - 2)^2
        f = make_quadratic([[1.0, 1.0]], [2.0])
        assert f.eval(np.array([1.0, 1.0])) == 0.0
        assert np.array_equal(f.grad(np.array([0.0, 0.0])), [-2.0, -2.0])

    def test_nonnegative_and_zero_iff_solution(self):
        A = np.array([[1.0, 0.5], [-0.3, 0.9], [0.2, -1.1]])
        x_star = np.array([0.7, -0.4])
        f = make_quadratic(A, A @ x_star)
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = rng.uniform(-3, 3, size=2)
            assert f.eval(x) >= 0.0
        assert f.eval(x_star) == pytest.approx(0.0, abs=1e-28)
        assert f.eval(x_star + [1e-3, 0.0]) > 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            make_quadratic(np.eye(2), [1.0, 2.0, 3.0])


class TestQuartic:
    def test_zero_gradient(self):
        f = make_quartic(2)
        assert np.array_equal(f.grad(np.array([0.0, 0.0])), [0.0, 0.0])

    def test_symmetry(self):
        f = make_quartic(2)
        assert f.eval(np.array([1.0, -1.0])) == 0.5

    def test_cube_gradient(self):
        f = make_quartic(1)
        assert np.array_equal(f.grad(np.array([2.0])), [8.0])
        assert fd_gradient_check(f, [2.0]) <= 1e-6


class TestLogistic:
    def test_zero_matrix_is_constant(self):
        f = make_logistic(np.zeros((3, 2)), [1.0, -1.0, 1.0])
        for x in ([0.0, 0.0], [5.0, -7.0]):
            assert f.eval(np.asarray(x)) == pytest.approx(3 * math.log(2), rel=1e-15)
            assert np.array_equal(f.grad(np.asarray(x)), [0.0, 0.0])

    def test_sigmoid_at_zero(self):
        f = make_logistic([[1.0]], [1.0])
        assert f.grad(np.array([0.0])) == pytest.approx([-0.5], rel=1e-15)

    def test_no_overflow_at_large_margin(self):
        f = make_logistic([[1.0]], [1.0])
        val = f.eval(np.array([40.0]))
        assert math.isfinite(val)
        assert val == pytest.approx(0.0, abs=1e-15)
        # stable form must agree with the naive form where the latter is safe
        for x in (-3.0, -0.5, 0.0, 1.2, 4.0):
            naive = math.log(1.0 + math.exp(-x))
            assert f.eval(np.array([x])) == pytest.approx(naive, rel=1e-14)
        # and must stay finite where the naive form overflows
        assert math.isfinite(f.eval(np.array([-800.0])))

    def test_bad_labels(self):
        with pytest.raises(ValueError, match="labels"):
            make_logistic([[1.0]], [0.5])


class TestFdGradientCheck:
    def test_quadratic_near_exact(self):
        f = make_quadratic(np.eye(2), [0.0, 0.0])
        assert fd_gradient_check(f, [1.0, 2.0], 1e-5) <= 1e-7

    def test_quartic_truncation_bound(self):
        f = make_quartic(1)
        assert fd_gradient_check(f, [1.5], 1e-5) <= 1e-8

    def test_symmetric_stencil_at_critical_point(self):
        f = make_quartic(2)
        assert fd_gradient_check(f, [0.0, 0.0], 1e-5) <= 1e-9

    def test_rejects_bad_h(self):
        f = make_quartic(1)
        with pytest.raises(ValueError, match="positive"):
            fd_gradient_check(f, [1.0], 0.0)


def shipped_oracles():
    return [
        make_quadratic([[1.0, 0.5], [-0.3, 0.9], [0.2, -1.1]], [0.4, -0.2, 0.7]),
        make_quartic(3),
        make_logistic(
            [[1.0, 0.5, -0.2], [-0.7, 1.2, 0.3], [0.4, -0.8, 1.0], [-0.2, 0.3, -1.1]],
            [1.0, -1.0, 1.0, -1.0],
        ),
    ]


@pytest.mark.parametrize("oracle", shipped_oracles(), ids=lambda o: o.name)
def test_fd_check_on_random_points(oracle):
    dim = 2 if oracle.name == "quadratic" else 3
    rng = np.random.default_rng(42)
    for _ in range(100):
        x = rng.uniform(-3, 3, size=dim)
        assert fd_gradient_check(oracle, x, 1e-5) <= 1e-5


def test_registry_names_and_unknown():
    oracle = build_smooth("quartic", {}, 4)
    assert oracle.name == "quartic"
    with pytest.raises(ValueError, match="unknown smooth oracle"):
        build_smooth("cubic", {}, 2)


def test_registry_dimension_check():
    with pytest.raises(ValueError, match="dimension"):
        build_smooth("quadratic", {"A": [[1.0, 0.0]], "b": [1.0]}, 3)


# ---- the one-entry memo of quadratic and logistic ------------------------------

A_MEMO = np.random.default_rng(11).standard_normal((5, 4))
MEMO_BUILDERS = {
    "quadratic": lambda: make_quadratic(A_MEMO, [0.3, -1.0, 0.5, 2.0, -0.7]),
    "logistic": lambda: make_logistic(A_MEMO, [1.0, -1.0, -1.0, 1.0, 1.0]),
}
memo_kinds = pytest.mark.parametrize("kind", sorted(MEMO_BUILDERS))


def fresh_bytes(kind, field, x):
    """`field` at x of a newly built oracle, whose memo is still empty."""
    return np.asarray(getattr(MEMO_BUILDERS[kind](), field)(x)).tobytes()


def call_bytes(oracle, field, x):
    return np.asarray(getattr(oracle, field)(x)).tobytes()


@memo_kinds
def test_memo_interleaved_points(kind):
    oracle = MEMO_BUILDERS[kind]()
    a, b = np.array([0.5, -1.0, 2.0, 0.0]), np.array([-0.0, 3.0, -2.5, 1.0])
    for x, field in [(a, "eval"), (a, "grad"), (b, "eval"), (a, "grad"), (b, "grad"),
                     (a, "eval"), (a, "grad")]:
        assert call_bytes(oracle, field, x) == fresh_bytes(kind, field, x)


@memo_kinds
def test_memo_sees_in_place_change(kind):
    oracle = MEMO_BUILDERS[kind]()
    x = np.array([0.5, -1.0, 2.0, 0.0])
    oracle.eval(x)
    x[0] += 1
    assert call_bytes(oracle, "grad", x) == fresh_bytes(kind, "grad", x)
    assert call_bytes(oracle, "eval", x) == fresh_bytes(kind, "eval", x)


@memo_kinds
def test_memo_tells_dtypes_with_equal_bytes_apart(kind):
    oracle = MEMO_BUILDERS[kind]()
    xi = np.array([1, -2, 3, 4], dtype=np.int64)
    xf = xi.view(np.float64)
    assert xi.tobytes() == xf.tobytes()
    oracle.eval(xf)
    assert call_bytes(oracle, "grad", xi) == fresh_bytes(kind, "grad", xi)
    assert call_bytes(oracle, "grad", xf) == fresh_bytes(kind, "grad", xf)


@memo_kinds
def test_memo_hands_out_no_cached_array(kind):
    oracle = MEMO_BUILDERS[kind]()
    x = np.array([0.5, -1.0, 2.0, 0.0])
    oracle.eval(x)
    oracle.grad(x)[:] = 7.0
    assert call_bytes(oracle, "grad", x) == fresh_bytes(kind, "grad", x)


@memo_kinds
def test_memo_under_concurrent_callers(kind):
    # more threads than a small host has cores, started together and
    # switching as often as possible; a memo that stores its key and its
    # value in two separate variables fails here
    oracle = MEMO_BUILDERS[kind]()
    points = [np.random.default_rng(i).standard_normal(4) for i in range(8)]
    expected = {(i, f): fresh_bytes(kind, f, x) for i, x in enumerate(points)
                for f in ("eval", "grad")}
    mismatches, done = [], []
    start = threading.Barrier(8, timeout=60)

    def worker(seed):
        start.wait()
        order = np.random.default_rng(seed).integers(0, 8, size=3000)
        for j, i in enumerate(order):
            field = "eval" if j % 2 else "grad"
            if np.asarray(getattr(oracle, field)(points[i])).tobytes() != expected[i, field]:
                mismatches.append((seed, j))
        done.append(seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(done) == list(range(8))
    assert mismatches == []
