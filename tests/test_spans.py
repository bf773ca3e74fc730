"""Dense passes run over spans of the leading axis on up to ``_WORKERS``
threads; every result has the same bits for any number of threads, and
small or COO tensors start no thread."""

import itertools
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from mteq import initial_point, solve_nonnegative, solve_positive, zero_out_rhs
from mteq import problems, tensor
from mteq.problems import (_draw, _rng, _uniform_open, gen_problem1,
                           gen_problem2, gen_problem3, gen_problem4,
                           gen_problem5, symmetrize_full)
from mteq.tensor import Tensor, _over_spans
from oracles import symmetrize_whole_array

WORKERS = (1, 2, 3)


class CountingPool:
    """Wraps the module's pool and counts the tasks handed to it."""

    def __init__(self, pool):
        self.pool = pool
        self.submitted = 0

    def submit(self, *args):
        self.submitted += 1
        return self.pool.submit(*args)


@pytest.fixture
def spans(monkeypatch):
    """``run(w, fn, *args)``: ``fn(*args)`` with every pass run on ``w``
    threads, cut into spans of one step each when ``w > 1``;
    ``run.submitted`` counts the threads handed a share of a pass."""
    monkeypatch.setattr(tensor, "_PARALLEL_MIN_BYTES", 0)
    monkeypatch.setattr(tensor, "_SPAN_BYTES", 1)
    counting = CountingPool(tensor._executor())
    monkeypatch.setattr(tensor, "_executor", lambda: counting)

    def run(w, fn, *args):
        monkeypatch.setattr(tensor, "_WORKERS", w)
        problems._problem2_scaled.cache_clear()
        before = counting.submitted
        out = fn(*args)
        run.submitted += counting.submitted - before
        return out
    run.submitted = 0
    yield run
    problems._problem2_scaled.cache_clear()


def test_over_spans_covers_the_range_in_order(monkeypatch):
    monkeypatch.setattr(tensor, "_PARALLEL_MIN_BYTES", 0)
    monkeypatch.setattr(tensor, "_SPAN_BYTES", 10)
    for w, length, step, nbytes in itertools.product(
            (1, 2, 3, 5), (1, 7, 33, 100), (1, 4, 16), (0, 60, 1000)):
        monkeypatch.setattr(tensor, "_WORKERS", w)
        got = _over_spans(lambda a, b: (a, b), length, nbytes, step)
        assert got[0][0] == 0 and got[-1][1] == length
        assert all(a[1] == b[0] for a, b in zip(got, got[1:]))
        units = length // step
        if min(w, units) > 1:
            assert len(got) == min(units, max(w, nbytes // 10))
        else:
            assert len(got) == 1
        # every span but the last is a whole number of steps, and none
        # is shorter than a step unless the range is
        assert all((b - a) % step == 0 for a, b in got[:-1])
        assert all(b - a >= min(step, length) for a, b in got)


def test_a_thread_that_has_not_started_holds_up_no_pass(monkeypatch):
    busy = ThreadPoolExecutor(max_workers=1)
    release = threading.Event()
    busy.submit(release.wait, 10)  # the pool's one thread is taken
    handed = []

    def submit(fn):
        handed.append(busy.submit(fn))
        return handed[-1]
    monkeypatch.setattr(tensor, "_PARALLEL_MIN_BYTES", 0)
    monkeypatch.setattr(tensor, "_SPAN_BYTES", 1)
    monkeypatch.setattr(tensor, "_executor",
                        lambda: SimpleNamespace(submit=submit))
    monkeypatch.setattr(tensor, "_WORKERS", 3)
    ran = []

    def task(a, b):
        ran.append((a, b))
        return a
    try:
        assert _over_spans(task, 10, 5) == [0, 2, 4, 6, 8]
        # the calling thread ran every span and did not wait for the others
        assert ran == [(0, 2), (2, 4), (4, 6), (6, 8), (8, 10)]
        assert len(handed) == 2 and all(f.cancelled() for f in handed)
        assert not release.is_set()
    finally:
        release.set()
        busy.shutdown()


@pytest.mark.parametrize("m,n", [(3, 5), (2, 7), (4, 3), (3, 9), (5, 3)])
def test_draw_and_the_next_uniforms_match_one_serial_draw(spans, m, n):
    assert n ** m % 4 != 0
    rng = _rng(7)
    want = rng.random((n,) * m).tobytes() + _uniform_open(rng, n).tobytes()
    for w in WORKERS:
        buf, rng = spans(w, _draw, 7, (n,) * m)
        assert buf.tobytes() + _uniform_open(rng, n).tobytes() == want
    assert spans.submitted >= 3


@pytest.mark.parametrize("m,n", [(3, 7), (4, 5), (5, 3)])
def test_symmetrize_full_matches_whole_array_sums(spans, monkeypatch, m, n):
    # tiles of 1 or 2 indices: orbits with and without repeated tiles,
    # one span each
    monkeypatch.setattr(problems, "_TILE_BYTES", 8 * 2 ** m)
    a = np.random.default_rng(m).uniform(-1.0, 1.0, size=(n,) * m)
    a[(0,) * m] = -0.0
    a[(1,) * m] = np.nan
    want = symmetrize_whole_array(a)
    for w in WORKERS:
        mine = a.copy()
        got = spans(w, symmetrize_full, mine)
        assert got is mine
        assert got.tobytes() == want.tobytes()
        # 0.0 + (-0.0) is +0.0
        assert not np.signbit(got[(0,) * m])
    # one pass per call, handed to W - 1 helpers
    assert spans.submitted >= 1 + 2


@pytest.mark.parametrize("m,n", [(3, 6), (4, 5)])
def test_exact_symmetry_test_does_not_depend_on_workers(spans, m, n):
    # the same answer from every span, also where only the last slab
    # breaks the symmetry
    a = symmetrize_whole_array(
        np.random.default_rng(n).uniform(-1.0, 1.0, size=(n,) * m))
    broken = a.copy()
    broken[(n - 1, 0) + (1,) * (m - 2)] += 1.0
    for entries, exact in ((a, True), (broken, False)):
        for w in WORKERS:
            t = Tensor.from_dense(entries.copy())
            assert spans(w, t.is_exactly_semi_symmetric) is exact
    assert spans.submitted >= 2 * 2


def build(gen, *args):
    p = gen(*args)
    A = p.A
    data = A.dense_values if A.is_dense else A.coo_values
    return (data.tobytes(), p.b.tobytes(), float(p.omega).hex(),
            p.certificate is None, A.max_abs(), A.is_z_tensor())


@pytest.mark.parametrize("m,n", [(3, 9), (4, 5)])
def test_generators_do_not_depend_on_workers(spans, m, n):
    cases = [(gen_problem1, m, n, 4), (gen_problem2, m, n, 4),
             (gen_problem4, m, n, 4), (gen_problem5, m, n, 4),
             (gen_problem3, 2 * n + 1)]
    for case in cases:
        want = spans(1, build, *case)
        for w in WORKERS[1:]:
            assert spans(w, build, *case) == want
    assert spans.submitted > 0


def kernels(t, x):
    image, jac = t.image_and_jacobian(x)
    return (t.apply(x).tobytes(), t.jacobian_matrix(x).tobytes(),
            image.tobytes(), jac.tobytes(),
            *[part.tobytes() for part in t._ones_record()])


@pytest.mark.parametrize("m,n", [(2, 53), (2, 801), (3, 37), (4, 33), (5, 7)])
def test_kernels_do_not_depend_on_workers(spans, m, n):
    a = np.random.default_rng(n).uniform(-1.0, 1.0, size=(n,) * m)
    x = np.random.default_rng(m).uniform(0.5, 2.0, size=n)
    want = spans(1, kernels, Tensor.from_dense(a), x)
    for w in WORKERS[1:]:
        assert spans(w, kernels, Tensor.from_dense(a), x) == want
    assert spans.submitted >= 2 * 3


def test_more_threads_than_cores_switching_often(spans):
    a = np.random.default_rng(5).uniform(-1.0, 1.0, size=(23,) * 3)
    x = np.random.default_rng(6).uniform(0.5, 2.0, size=23)

    def results():
        return (build(gen_problem1, 3, 23, 2), build(gen_problem5, 3, 23, 2),
                kernels(Tensor.from_dense(a), x))
    want = spans(1, results)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert spans(7, results) == want
    finally:
        sys.setswitchinterval(interval)
    assert spans.submitted >= 3 * 6


def test_small_and_coo_tensors_start_no_thread(monkeypatch):
    def no_pool():
        raise AssertionError("a pass was handed to another thread")
    monkeypatch.setattr(tensor, "_executor", no_pool)
    monkeypatch.setattr(tensor, "_WORKERS", 2)
    # below the byte threshold: generation, start and both solvers
    for gen in (gen_problem1, gen_problem4, gen_problem5):
        p = gen(3, 30, 1)
        assert p.A.dense_values.nbytes < tensor._PARALLEL_MIN_BYTES
        init = initial_point(p)
        solve_nonnegative(p, init.y0)
        if p.certificate is not None:
            solve_positive(p, init.x0)
    # COO storage never cuts its passes, at any size
    monkeypatch.setattr(tensor, "_PARALLEL_MIN_BYTES", 0)
    p = gen_problem3(40)
    assert p.A.storage == "coo"
    init = initial_point(p)
    solve_positive(p, init.x0)
    x = np.linspace(0.5, 1.5, p.n)
    p.A.apply(x)
    p.A.jacobian_matrix(x)
    zero_out_rhs(p.b, 0)
