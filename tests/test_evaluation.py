"""Each point is contracted at most once: the evaluated-point record, its
memo on the problem, and the fused dense kernel behind both, which reads
the tensor once for the contraction and the Jacobian.  A dominant start
is not contracted at all, and the point that ends a solve with ``b > 0``
is contracted without its Jacobian."""

import gc
import weakref

import numpy as np
import pytest

from mteq import (SolverConfig, Tensor, hadamard_power, initial_point,
                  line_search_basic, make_problem, newton_direction, residual,
                  residual_jacobian, solve, solve_nonnegative, solve_positive)
from mteq import cli, tensor
from mteq.model import _evaluate
from mteq.problems import (gen_problem1, gen_problem2, gen_problem4,
                           gen_problem5, write_problem, zero_out_rhs)

from oracles import CONTRACTIONS, CountingTensor


def counted_problem(p, zero=False, seed=0):
    """``p`` rebuilt by ``make_problem`` on a counter, with the calls that
    construction made cleared."""
    counted = CountingTensor(p.A)
    b = zero_out_rhs(p.b, seed) if zero else p.b
    q = make_problem(counted, b, omega=p.omega)
    counted.reset()
    return q, counted


# The bitwise references for the dense kernels, in plain numpy on whole
# arrays: no library kernel runs in them.

def reference_partial(a, x):
    """``A x^{m-2}``: the trailing slots contracted one at a time, last
    slot first."""
    out = a
    for _ in range(a.ndim - 2):
        out = out @ x
    return out


def reference_apply(a, x):
    return reference_partial(a, x) @ x


def reference_jacobian(a, x):
    """Sum of the one-slot contractions from zeros, slot by slot."""
    m, n = a.ndim, a.shape[0]
    jac = np.zeros((n, n))
    for slot in range(1, m):
        t = np.moveaxis(a, slot, 1)
        for _ in range(m - 2):
            t = t @ x
        jac += t
    return jac


def trials(rep):
    return sum(rec.backtracks + 1 for rec in rep.trace)


@pytest.mark.parametrize("zero", [False, True], ids=["positive", "half_zeroed"])
def test_start_is_contracted_once(zero):
    # P4 has no symmetry, so with b > 0 the final point is predicted
    p, counted = counted_problem(gen_problem4(3, 30, 2), zero=zero, seed=2)
    rep = solve(p)
    assert rep.converged
    x0 = hadamard_power(rep.start.y0, 1.0 / (p.m - 1))
    # the start costs no pass: x0 is constant, and its record scales the
    # record of the all-ones vector that the dominance test made; then
    # one record per trial, each a single pass
    assert counted.at(x0) == 0
    records = counted.calls["image_and_jacobian"] + counted.calls["apply"]
    assert len(records) == trials(rep)
    # with zeros in b every trial is one fused pass; with b > 0 a trial
    # predicted final is contracted without its Jacobian, which the final
    # point never builds, and a wrong guess builds it on first use
    guessed = counted.calls["apply"]
    if zero:
        assert not guessed
    else:
        assert np.array_equal(guessed[-1], rep.x_final)
    wrong = guessed[:-1]
    built = counted.calls["jacobian_matrix"]
    assert len(built) == len(wrong)
    assert all(np.array_equal(a, b) for a, b in zip(wrong, built))


@pytest.fixture
def slot_passes(monkeypatch):
    """Every dense pass, as ``(x, jacobian)``: the arguments of each
    ``tensor._slot_terms`` call, where ``jacobian`` asks for the slot
    terms of the derivative matrix."""
    passes = []
    original = tensor._slot_terms

    def counted(a, x, jacobian):
        passes.append((np.array(x), jacobian))
        return original(a, x, jacobian)
    monkeypatch.setattr(tensor, "_slot_terms", counted)
    return passes


@pytest.mark.parametrize("gen", [gen_problem1, gen_problem2, gen_problem4])
def test_dominant_start_makes_no_pass(slot_passes, gen):
    # the dominance test of make_problem recorded e; the start is s e
    p = gen(3, 30, 0)
    slot_passes.clear()
    init = initial_point(p)
    assert init.iterations == 0
    newton_direction(p, init.y0)
    assert not slot_passes


@pytest.mark.parametrize("gen", [gen_problem4])
def test_positive_solve_makes_one_fused_and_one_image_pass(slot_passes, gen):
    # at (3, 200) the first step's trial is one fused pass, and the second
    # step's, predicted final, is one pass without slot terms
    for seed in range(2):
        p = gen(3, 200, seed)
        for solver, start in ((solve_positive, "x0"),
                              (solve_nonnegative, "y0")):
            slot_passes.clear()
            rep = solver(p, getattr(initial_point(p), start))
            assert rep.converged and rep.iterations == 2
            assert [jac for _, jac in slot_passes] == [True, False]
            assert np.array_equal(slot_passes[-1][0], rep.x_final)


@pytest.mark.parametrize("n", [30, 200])
def test_exact_symmetry_makes_no_slot_term_pass(slot_passes, n):
    # P2 knows its symmetry: every Jacobian is (m-1) M, from passes
    # without slot terms, with b > 0 and with zeros in b
    p = gen_problem2(3, n, 0)
    q = make_problem(p.A, zero_out_rhs(p.b, 0), omega=p.omega)
    slot_passes.clear()
    assert solve_positive(p, initial_point(p).x0).converged
    assert solve_nonnegative(q, initial_point(q).y0).converged
    assert slot_passes
    assert not any(jac for _, jac in slot_passes)


@pytest.mark.parametrize("gen,points", [(gen_problem1, 2), (gen_problem2, 3)])
def test_exact_symmetry_makes_one_pass_per_point(slot_passes, monkeypatch,
                                                 gen, points):
    # with b > 0 no final point is predicted: a record with its Jacobian
    # (m-1) M costs the same pass as one without, so a wrong guess would
    # cost a second pass through jacobian_matrix
    built = []
    jacobian_matrix = Tensor.jacobian_matrix

    def counted(self, x):
        built.append(np.array(x))
        return jacobian_matrix(self, x)
    monkeypatch.setattr(Tensor, "jacobian_matrix", counted)
    p = gen(3, 200, 0)
    assert p.A.is_exactly_semi_symmetric()
    slot_passes.clear()
    rep = solve_positive(p, initial_point(p).x0)
    assert rep.converged and trials(rep) == points
    assert [jac for _, jac in slot_passes] == [False] * points
    assert not built


@pytest.mark.parametrize("gen", [gen_problem1, gen_problem4])
def test_half_zeroed_jacobians_within_one_plus_trials(gen):
    for seed in range(3):
        p, counted = counted_problem(gen(3, 30, seed), zero=True, seed=seed)
        rep = solve_nonnegative(p, initial_point(p).y0)
        assert rep.converged
        jacobians = (counted.calls["jacobian_matrix"]
                     + counted.calls["image_and_jacobian"])
        assert 1 <= len(jacobians) <= 1 + trials(rep)
        # every Jacobian comes from its record's one pass over the tensor
        assert not counted.calls["jacobian_matrix"]
        assert not counted.applied_at_records()


def test_dense_record_costs_one_pass_before_its_jacobian():
    p, counted = counted_problem(gen_problem1(3, 12, 0))
    y = initial_point(p).y0 * np.linspace(1.0, 1.5, p.n)
    counted.reset()
    point = _evaluate(p, y)
    assert len(counted.calls["image_and_jacobian"]) == 1
    assert not counted.calls["apply"] and not counted.calls["jacobian_matrix"]
    first = point.jacobian()
    assert point.jacobian() is first
    # the Jacobian came with the record's pass: no second one
    assert len(counted.calls["image_and_jacobian"]) == 1
    assert not counted.calls["jacobian_matrix"]
    assert not counted.applied_at_records()


def test_initial_point_contracts_with_all_ones_once():
    # P5 fails the dominance test, whose record of the all-ones vector
    # contracts with it once.  The certificate's first Newton step scales
    # that record, image and Jacobian, one step passes the test with one
    # contraction at its point, and the start reuses that image of the
    # certificate instead of contracting at it again.
    q = gen_problem5(3, 12, 0)
    counted = CountingTensor(Tensor.from_dense(q.A.to_dense_array()))
    p = make_problem(counted, q.b)
    assert p.certificate is None
    init = initial_point(p)
    assert (init.steps, init.iterations) == (1, 0)
    ones = np.ones(p.n)
    assert counted.at(ones) == 1
    assert np.array_equal(counted.calls["image_and_jacobian"][0], ones)
    assert len(counted.calls["apply"]) == init.steps
    assert counted.at(init.u) == 1
    # the feasibility check of the start is its record's one pass
    x0 = hadamard_power(init.y0, 1.0 / (p.m - 1))
    assert counted.at(x0) == 1
    assert len(counted.calls["image_and_jacobian"]) == 2
    assert not counted.applied_at_records()
    assert not counted.calls["jacobian_matrix"]


@pytest.mark.parametrize("gen", [gen_problem1, gen_problem4, gen_problem5])
def test_zeroed_rebuild_makes_no_contraction(gen):
    # the generated problem has checked its tensor; a second problem over
    # the same tensor reads the cached facts
    p = gen(3, 12, 1)
    counted = CountingTensor(p.A)
    q = make_problem(counted, zero_out_rhs(p.b, 1, keep=(0,)), omega=p.omega)
    assert not any(counted.calls.values())
    assert (q.certificate is None) == (p.certificate is None)


def test_verify_contracts_the_file_tensor_with_all_ones_once(tmp_path,
                                                             monkeypatch):
    # the printed dominance test; the first Newton step of the
    # certificate search and the problem built for --rhs read the record
    # of e it cached
    p = gen_problem5(3, 8, 0)
    write_problem(tmp_path, p, {})
    loaded, contracted = [], []
    read_tensor = cli.read_tensor

    def read(path):
        loaded.append(read_tensor(path))
        return loaded[-1]

    def counting(kernel):
        def counted(self, x):
            contracted.append((self, np.array(x)))
            return kernel(self, x)
        return counted
    monkeypatch.setattr(cli, "read_tensor", read)
    for name in CONTRACTIONS:
        monkeypatch.setattr(Tensor, name, counting(getattr(Tensor, name)))
    code = cli.main(["verify", str(tmp_path / "tensor.mt"),
                     "--rhs", str(tmp_path / "rhs.vec")])
    assert code == cli.EXIT_OK
    (A,) = loaded
    ones = np.ones(p.n)
    assert sum(t is A and np.array_equal(x, ones) for t, x in contracted) == 1


@pytest.mark.parametrize("m,n", [(3, 9), (4, 6), (5, 5)])
def test_fused_kernel_matches_stand_alone_kernels_bitwise(m, n):
    # a raw P4 tensor is not semi-symmetric, so a (m-1) M shortcut would
    # change the Jacobian
    a = gen_problem4(m, n, 3).A.to_dense_array()
    t = Tensor.from_dense(a)
    x = np.random.default_rng(m).uniform(0.5, 2.0, size=n)
    image = reference_apply(a, x)
    assert t.apply(x).tobytes() == image.tobytes()
    jac = reference_jacobian(a, x)
    assert t.jacobian_matrix(x).tobytes() == jac.tobytes()
    fused_image, fused_jac = t.image_and_jacobian(x)
    assert fused_image.tobytes() == image.tobytes()
    assert fused_jac.tobytes() == jac.tobytes()
    # the record's Jacobian is the stand-alone one, column-scaled
    p = make_problem(t, np.ones(n))
    y = hadamard_power(x, m - 1)
    point = _evaluate(p, y)
    scale = hadamard_power(y, 1.0 / (m - 1) - 1.0) / (m - 1)
    xr = hadamard_power(y, 1.0 / (m - 1))
    expect = reference_jacobian(a, xr) * scale[None, :]
    assert point.jacobian().tobytes() == expect.tobytes()
    assert point.f.tobytes() == (reference_apply(a, xr) - p.b).tobytes()


def test_memo_hits_only_on_equal_points():
    p, counted = counted_problem(gen_problem1(3, 12, 1))
    y = initial_point(p).y0 * np.linspace(1.0, 1.5, p.n)
    point = _evaluate(p, y)
    counted.reset()
    assert _evaluate(p, y.copy()) is point
    assert not counted.calls["image_and_jacobian"]
    nudged = y.copy()
    nudged[3] = np.nextafter(nudged[3], np.inf)
    assert _evaluate(p, nudged) is not point
    assert len(counted.calls["image_and_jacobian"]) == 1
    # the record keeps its own copy of y: changing the caller's array
    # afterwards cannot make a stale hit
    mine = y.copy()
    held = _evaluate(p, mine)
    mine *= 2.0
    assert _evaluate(p, mine) is not held
    assert np.array_equal(held.y, y)


def test_step_that_rounds_away_costs_no_evaluation():
    p, counted = counted_problem(gen_problem1(3, 12, 2))
    y = initial_point(p).y0
    d = 1e-20 * newton_direction(p, y)
    _evaluate(p, 2.0 * y)  # moves the memo off y
    counted.reset()
    assert line_search_basic(p, y, d, SolverConfig(), current_norm=1.0) is None
    assert not any(counted.calls.values())


def test_public_reads_return_copies():
    p = gen_problem1(3, 12, 1)
    y = initial_point(p).y0
    f = residual(p, y)
    J = residual_jacobian(p, y)
    f[:] = 0.0
    J[:] = 0.0
    assert np.all(residual(p, y) != 0.0)
    assert np.any(residual_jacobian(p, y) != 0.0)


def test_memo_makes_no_reference_cycle():
    p0 = gen_problem1(3, 12, 4)
    p = make_problem(p0.A, zero_out_rhs(p0.b, 4))
    del p0
    rep = solve_nonnegative(p, initial_point(p).y0)
    assert rep.converged and p._memo is not None
    ref = weakref.ref(p)
    gc.disable()
    try:
        del p
        assert ref() is None
    finally:
        gc.enable()
