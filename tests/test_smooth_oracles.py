import math
import multiprocessing
import os
import sys
import threading
import time

import numpy as np
import pytest

from proxgrad import smooth_oracles
from proxgrad.cli import build_smooth, main
from proxgrad.core import SmoothOracle, make_problem
from proxgrad.diagnostics import write_trace_csv
from proxgrad.prox_oracles import make_l1
from proxgrad.smooth_oracles import (
    fd_gradient_check,
    make_logistic,
    make_quadratic,
    make_quartic,
)
from proxgrad.solver import SolverConfig, solve

from conftest import SHIPPED, load_shipped, solve_quiet


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
        f = make_quartic()
        assert np.array_equal(f.grad(np.array([0.0, 0.0])), [0.0, 0.0])

    def test_symmetry(self):
        f = make_quartic()
        assert f.eval(np.array([1.0, -1.0])) == 0.5

    def test_cube_gradient(self):
        f = make_quartic()
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
        f = make_quartic()
        assert fd_gradient_check(f, [1.5], 1e-5) <= 1e-8

    def test_symmetric_stencil_at_critical_point(self):
        f = make_quartic()
        assert fd_gradient_check(f, [0.0, 0.0], 1e-5) <= 1e-9

    def test_rejects_bad_h(self):
        f = make_quartic()
        with pytest.raises(ValueError, match="positive"):
            fd_gradient_check(f, [1.0], 0.0)

    @pytest.mark.parametrize("h", [-1e-5, math.nan, math.inf])
    def test_rejects_a_negative_or_non_finite_h(self, h):
        # a NaN or infinite h made every slope NaN, which scored 0.0
        with pytest.raises(ValueError, match="h must be positive and finite"):
            fd_gradient_check(make_quartic(), [1.0], h)

    @pytest.mark.parametrize("grad, value", [
        (lambda x: np.full_like(x, math.nan), lambda x: 0.25 * float((x**4).sum())),
        (lambda x: np.where(np.arange(x.size) == 1, math.nan, x**3),
         lambda x: 0.25 * float((x**4).sum())),
        (lambda x: x**3, lambda x: math.nan),
    ], ids=["nan_gradient", "nan_second_coordinate", "nan_value"])
    def test_a_nan_deviation_is_the_result(self, grad, value):
        oracle = SmoothOracle("nan", value, grad)
        assert math.isnan(fd_gradient_check(oracle, [1.0, 2.0, 3.0]))


def shipped_oracles():
    return [
        make_quadratic([[1.0, 0.5], [-0.3, 0.9], [0.2, -1.1]], [0.4, -0.2, 0.7]),
        make_quartic(),
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


@pytest.mark.parametrize("make, A, second, fragment", [
    (make_quadratic, [1.0, 2.0], [1.0], r"A must be a matrix, got shape \(2,\)"),
    (make_logistic, [1.0, 2.0], [1.0], r"A must be a matrix, got shape \(2,\)"),
    (make_logistic, [[1.0], [2.0]], [1.0], "labels must have one entry per row of A"),
], ids=["quadratic_vector_A", "logistic_vector_A", "logistic_label_count"])
def test_data_shapes_are_checked(make, A, second, fragment):
    with pytest.raises(ValueError, match=fragment):
        make(A, second)


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


def assert_concurrent_callers_agree(oracle, points, expected, calls):
    """Eight threads, started together and switching as often as possible,
    each make `calls` alternating grad/eval calls at seeded choices of
    `points`; every call must give `expected[index, field]`'s bytes."""
    mismatches, done = [], []
    start = threading.Barrier(8, timeout=60)

    def worker(seed):
        start.wait()
        order = np.random.default_rng(seed).integers(0, len(points), size=calls)
        for j, i in enumerate(order):
            field = "eval" if j % 2 else "grad"
            if np.asarray(getattr(oracle, field)(points[i])).tobytes() != expected[i, field]:
                mismatches.append((seed, j))
        done.append(seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,), daemon=True)
                   for seed in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(done) == list(range(8))
    assert mismatches == []


@memo_kinds
def test_memo_under_concurrent_callers(kind):
    # more threads than a small host has cores; a memo that stores its key
    # and its value in two separate variables fails here
    points = [np.random.default_rng(i).standard_normal(4) for i in range(8)]
    expected = {(i, f): fresh_bytes(kind, f, x) for i, x in enumerate(points)
                for f in ("eval", "grad")}
    assert_concurrent_callers_agree(MEMO_BUILDERS[kind](), points, expected, 3000)

# ---- A x and A^T r split between two threads -----------------------------------

@pytest.fixture
def two_cpus(monkeypatch):
    """Let the band alone decide a split, whatever CPUs this process may use."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def in_band_design(seed, m=200, n=2000):
    """A seeded C-ordered design inside the split band and its split points."""
    A = np.random.default_rng(seed).standard_normal((m, n))
    return A, smooth_oracles._split_points(A)


def split_products(A):
    """The ``A @ x`` and ``A.T @ r`` an oracle on `A` binds, both split."""
    products = smooth_oracles._design(A)[1:]
    assert all(p.func is smooth_oracles._product and p.keywords["split"] > 0 for p in products)
    return products


def awkward(rng, size):
    """Gaussian entries scaled by up to 1e150, with zeros and negative zeros."""
    v = rng.standard_normal(size) * 10.0 ** rng.integers(-3, 151, size)
    v[::7] = 0.0
    v[3::11] = -0.0
    return v


@pytest.mark.parametrize("shape, order, cpus, want", [
    ((200, 2000), "C", 2, (96, 992)),
    ((175, 2000), "C", 2, (80, 992)),  # m*n = 350 000, the lower edge
    ((174, 2000), "C", 2, (0, 0)),
    ((230, 2003), "C", 2, (112, 992)),  # m*n = 460 690
    ((200, 2304), "C", 2, (0, 0)),  # m*n = 460 800: OpenBLAS threads the call itself
    ((500, 900), "C", 2, (0, 0)),  # not wide
    ((2000, 200), "C", 2, (0, 0)),
    ((200, 2000), "F", 2, (0, 0)),
    ((200, 2000), "C", 1, (0, 0)),
], ids=lambda p: "x".join(map(str, p)) if isinstance(p, tuple) else str(p))
def test_split_points_follow_the_band(monkeypatch, shape, order, cpus, want):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    assert smooth_oracles._split_points(np.empty(shape, order=order)) == want


# the last two lie just below m*n = 460 800
@pytest.mark.parametrize("m, n", [(200, 2000), (226, 2038), (210, 2194)])
def test_split_products_equal_the_whole_products_bitwise(two_cpus, m, n):
    A, (rows, cols) = in_band_design(m, m, n)
    assert rows % 16 == 0 < rows and cols % 16 == 0 < cols
    matvec, rmatvec = split_products(A)
    rng = np.random.default_rng(n)
    for _ in range(3):
        x, r = awkward(rng, n), awkward(rng, m)
        for got, want in ((matvec(x), A @ x), (rmatvec(r), A.T @ r)):
            assert np.array_equal(got, want) and got.tobytes() == want.tobytes()


def assert_split_solve_equals_the_unsplit_solve(build, monkeypatch, tmp_path):
    """`build()`'s oracle with an l1 term gives the same trace bytes and
    `x_final` bits with its matvecs split as with them whole."""
    runs = []
    for name in ("split", "whole"):
        if name == "whole":
            monkeypatch.setattr(smooth_oracles, "_split_points", lambda A: (0, 0))
        problem = make_problem(build(), make_l1(0.05), 2000)
        report = solve(problem, SolverConfig(max_outer=15), np.zeros(2000))
        write_trace_csv(report.trace, tmp_path / name)
        runs.append(((tmp_path / name).read_bytes(), report.x_final.tobytes()))
    assert runs[0] == runs[1]


def test_in_band_solve_equals_the_unsplit_solve(two_cpus, monkeypatch, tmp_path):
    A, _ = in_band_design(21)
    A /= math.sqrt(200)
    b = A[:, :8] @ np.linspace(-1.0, 1.0, 8)
    assert_split_solve_equals_the_unsplit_solve(lambda: make_quadratic(A, b), monkeypatch,
                                                tmp_path)


def test_in_band_logistic_solve_equals_the_unsplit_solve(two_cpus, monkeypatch, tmp_path):
    # the margins y * (A x) take the split A x, the gradient the split A^T r
    A, _ = in_band_design(22)
    A /= math.sqrt(200)
    y = np.where(A[:, :8] @ np.linspace(-1.0, 1.0, 8) >= 0, 1.0, -1.0)
    split_products(A)  # asserts that the design is in band
    assert_split_solve_equals_the_unsplit_solve(lambda: make_logistic(A, y), monkeypatch,
                                                tmp_path)


def split_and_whole_quadratics(monkeypatch, seed):
    """Two quadratic oracles on one in-band design, its matvecs split and whole."""
    A, _ = in_band_design(seed)
    b = np.linspace(-1.0, 1.0, 200)
    split_products(A)  # asserts that the design is in band
    split = make_quadratic(A, b)
    monkeypatch.setattr(smooth_oracles, "_split_points", lambda A: (0, 0))
    return split, make_quadratic(A, b)


@pytest.mark.parametrize("dtype", [np.int64, np.float32])
def test_split_oracle_casts_a_point_as_the_whole_one_does(two_cpus, monkeypatch, dtype):
    split, whole = split_and_whole_quadratics(monkeypatch, 14)
    x = (np.random.default_rng(14).standard_normal(2000) * 8).astype(dtype)
    for field in ("eval", "grad"):
        assert call_bytes(split, field, x) == call_bytes(whole, field, x), field


def test_wrong_length_point_is_a_value_error_split_or_whole(two_cpus, monkeypatch):
    monkeypatch.setattr(smooth_oracles, "_helper", {})  # a helper that dies here stays here
    split, whole = split_and_whole_quadratics(monkeypatch, 15)
    for oracle in (split, whole):
        for field in ("eval", "grad"):
            for n in (1999, 2001):
                with pytest.raises(ValueError):
                    getattr(oracle, field)(np.ones(n))


def matvec_threads():
    return sum(t.name == "proxgrad-matvec" for t in threading.enumerate())


def test_shipped_configs_and_run_start_no_helper(monkeypatch, tmp_path):
    monkeypatch.setattr(smooth_oracles, "_helper", {})
    threads = matvec_threads()
    for name in SHIPPED:
        cfg = load_shipped(name)
        solve_quiet(cfg["problem"], cfg["config"], cfg["x0"])
    assert main(["run", "lasso_small", "--output", str(tmp_path / "t.csv")]) == 0
    assert smooth_oracles._helper == {} and matvec_threads() == threads


def test_split_oracle_under_concurrent_callers(two_cpus, monkeypatch):
    # a short form of test_memo_under_concurrent_callers: the callers queue
    # their parts at the one helper, each waiting on its own reply queue, and the
    # first calls race to start that helper from none
    monkeypatch.setattr(smooth_oracles, "_helper", {})
    threads = matvec_threads()
    A, _ = in_band_design(8)
    b = np.linspace(-1.0, 1.0, 200)
    points = [np.random.default_rng(i).standard_normal(2000) for i in range(8)]
    expected = {}
    for i, x in enumerate(points):
        r = A @ x - b
        expected[i, "eval"] = np.asarray(0.5 * float(np.dot(r, r))).tobytes()
        expected[i, "grad"] = (A.T @ r).tobytes()
    assert_concurrent_callers_agree(make_quadratic(A, b), points, expected, 40)
    assert matvec_threads() == threads + 1


def test_product_is_whole_after_the_callers_part_raised(two_cpus, monkeypatch):
    # the helper finishes the raised call's part into a buffer nobody reads,
    # and the next caller waits for its own part, which the helper takes later
    A, _ = in_band_design(9)
    x1, x2 = np.ones(2000), np.linspace(-1.0, 1.0, 2000)
    want = A @ x2  # kept, so that no later buffer can start out holding it
    dot, armed = np.dot, [True]

    def dot_with_faults(*args):
        if threading.current_thread().name == "proxgrad-matvec":
            time.sleep(0.02)  # the helper's part outlasts the caller's
        elif armed:
            armed.clear()
            raise MemoryError("injected")
        return dot(*args)

    monkeypatch.setattr(np, "dot", dot_with_faults)  # the kernel both halves of A x call
    matvec, _ = split_products(A)
    with pytest.raises(MemoryError, match="injected"):
        matvec(x1)
    assert matvec(x2).tobytes() == want.tobytes()


def test_helpers_fault_is_raised_by_its_caller_and_the_helper_lives_on(two_cpus, monkeypatch):
    monkeypatch.setattr(smooth_oracles, "_helper", {})  # a helper that dies here stays here
    A, _ = in_band_design(12)
    x1, x2 = np.ones(2000), np.linspace(-1.0, 1.0, 2000)
    want = A @ x2
    dot, armed = np.dot, [True]

    def dot_with_faults(*args):
        if armed and threading.current_thread().name == "proxgrad-matvec":
            armed.clear()
            raise MemoryError("injected in the helper")
        return dot(*args)

    monkeypatch.setattr(np, "dot", dot_with_faults)
    matvec, _ = split_products(A)
    results = []

    def call(x):
        try:
            results.append(matvec(x).tobytes())
        except MemoryError as exc:
            results.append(exc)

    for x in (x1, x2):  # each in a thread, so that a caller left waiting fails the test
        caller = threading.Thread(target=call, args=(x,), daemon=True)
        caller.start()
        caller.join(timeout=10)
        assert not caller.is_alive()
    assert not armed and len(results) == 2
    assert isinstance(results[0], MemoryError) and str(results[0]) == "injected in the helper"
    assert results[1] == want.tobytes()


def test_split_products_release_the_gil(two_cpus):
    # both halves of a split call overlap only if each kernel releases the
    # GIL; numpy 2.4's np.matmul keeps it through a C-ordered matrix times a
    # vector, with the same bits, so a thread counting in Python must advance
    # while the caller's part runs.  The long switch interval keeps this
    # thread from taking the GIL by a forced switch.
    A, _ = in_band_design(13)
    count, spinning = [0], [True]

    def spin():
        while spinning:
            count[0] += 1
            time.sleep(0)  # gives the GIL back at once

    interval = sys.getswitchinterval()
    sys.setswitchinterval(10.0)
    spinner = threading.Thread(target=spin, daemon=True)
    try:
        spinner.start()
        while not count[0]:
            time.sleep(0.001)
        for product in split_products(A):
            M, split, kernel = product.args[0], product.keywords["split"], product.keywords["kernel"]
            v, out = np.ones(M.shape[1]), np.empty(M.shape[0] - split)
            before, deadline = count[0], time.perf_counter() + 1.0
            while count[0] == before and time.perf_counter() < deadline:
                kernel(M[split:], v, out)  # the counter can move only inside this call
            assert count[0] > before, kernel
    finally:
        spinning.clear()
        spinner.join(timeout=10)
        sys.setswitchinterval(interval)


def test_forked_child_computes_a_split_product(two_cpus):
    A, _ = in_band_design(10)
    matvec, _ = split_products(A)
    x = np.linspace(-1.0, 1.0, 2000)
    want = (A @ x).tobytes()
    assert matvec(x).tobytes() == want  # the parent's helper

    def product_in_child():
        sys.exit(0 if matvec(x).tobytes() == want else 1)

    child = multiprocessing.get_context("fork").Process(target=product_in_child)
    child.start()
    child.join(timeout=10)
    if child.is_alive():
        child.kill()
        child.join()
    assert child.exitcode == 0
