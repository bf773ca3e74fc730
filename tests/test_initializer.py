"""Feasible starting points from the diagonal splitting iteration."""

import types
import warnings

import numpy as np
import pytest

import mteq.initializer
import mteq.linalg
from mteq import (SolverConfig, Tensor, find_certificate, hadamard_power,
                  in_feasible_split, initial_point, jacobi_step, make_problem)
from mteq.initializer import ANDERSON_DEPTH, MAX_SWEEPS, InitializationError, _mix
from mteq.model import MTeqProblem
from mteq.problems import gen_problem1, gen_problem3, gen_problem5, zero_out_rhs

from oracles import CountingTensor, certificate_sweeps, coo_apply_prod


def test_jacobi_step_identity_fixed_point():
    t = Tensor.identity(3, 4)
    e = np.ones(4)
    assert np.array_equal(jacobi_step(t, e, e), e)


def test_jacobi_step_diagonal_tensor():
    # a_{iii} = 4, m = 3, unit target: x+ = (1/4)^{1/2} e
    dense = np.zeros((2, 2, 2))
    dense[0, 0, 0] = 4.0
    dense[1, 1, 1] = 4.0
    t = Tensor.from_dense(dense)
    out = jacobi_step(t, np.ones(2), np.full(2, 7.0))
    assert np.allclose(out, 0.5, rtol=1e-15, atol=0)


def test_jacobi_step_refuses_nonpositive_diagonal():
    dense = np.zeros((2, 2, 2))
    dense[0, 0, 0] = 1.0  # second diagonal entry is zero
    with pytest.raises(InitializationError):
        jacobi_step(Tensor.from_dense(dense), np.ones(2), np.ones(2))


def test_find_certificate_problem5(monkeypatch):
    monkeypatch.setattr(mteq.initializer, "MAX_SWEEPS", 500)
    p = gen_problem5(3, 20, seed=0)
    u, sweeps, _ = find_certificate(p.A)
    assert sweeps <= 500
    assert p.A.apply(u).min() > 0.0


def test_find_certificate_validates_target():
    t = Tensor.identity(3, 2)
    with pytest.raises(ValueError):
        find_certificate(t, rhs=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        find_certificate(t, rhs=np.ones(3))


def test_find_certificate_cap_exhaustion(monkeypatch):
    # shift below the spectral radius of the all-ones part: not a strong
    # M-tensor, the sweeps never produce a positive image
    monkeypatch.setattr(mteq.initializer, "MAX_SWEEPS", 200)
    dense = -np.ones((2, 2, 2))
    dense[0, 0, 0] += 3.9
    dense[1, 1, 1] += 3.9
    with pytest.raises(InitializationError):
        find_certificate(Tensor.from_dense(dense))


@pytest.mark.parametrize("shift", [2.0, 3.9, 3.99])
def test_find_certificate_non_m_tensor_fails_cleanly(monkeypatch, shift):
    # below the spectral radius 4 of the all-ones part the accelerated
    # iterates grow without bound; that must end in InitializationError,
    # not in a least-squares failure or a leaked overflow warning
    monkeypatch.setattr(mteq.initializer, "MAX_SWEEPS", 2000)
    dense = -np.ones((2, 2, 2))
    dense[0, 0, 0] += shift
    dense[1, 1, 1] += shift
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InitializationError):
            find_certificate(Tensor.from_dense(dense))


def test_find_certificate_cap_zero_tests_the_all_ones_start_only(monkeypatch):
    monkeypatch.setattr(mteq.initializer, "MAX_SWEEPS", 0)
    p = gen_problem3(24)
    with pytest.raises(InitializationError, match="cap of 0 splitting sweeps"):
        find_certificate(p.A, rhs=p.b)
    assert find_certificate(Tensor.identity(3, 2))[1] == 0


def _pin_sweeps(A, rhs, apply):
    want = certificate_sweeps(apply, A.diagonal(), A.max_abs(), A.order, rhs)
    assert want is not None
    u, sweeps, image = find_certificate(A, rhs)
    assert sweeps == want[1] > 0
    assert u.tobytes() == want[0].tobytes()
    assert image.tobytes() == want[2].tobytes()


@pytest.mark.parametrize("bounds", [(1e7, 1e7), (2e7, 1e7), (1e7, 5e7)])
@pytest.mark.parametrize("n", [24, 40, 160])
def test_stencil_sweeps_match_the_step_by_step_loop_bitwise(n, bounds):
    p = gen_problem3(n, *bounds)
    A = p.A

    def apply(x):
        return coo_apply_prod(A.coo_indices, A.coo_values, A.dim, x)
    _pin_sweeps(A, p.b, apply)


def test_dense_sweeps_match_the_step_by_step_loop_bitwise():
    # P5 is not diagonally dominant, and with half of b zeroed
    # initial_point sweeps towards the all-ones target
    p = gen_problem5(3, 12, seed=0)
    assert p.certificate is None
    _pin_sweeps(p.A, None, p.A.apply)


def mixing_columns(n, k, kind):
    """``(d_res, res)`` of ``k`` columns in an ``(n, ANDERSON_DEPTH)``
    Fortran-ordered buffer, as the sweeps hold them.  "rank-deficient"
    makes the last column a combination of the others; "near-dependent"
    puts the two smallest singular values at 3 and 0.5 times numpy's
    cutoff ``eps * max(n, k)`` of the largest, one on each side of it."""
    rng = np.random.default_rng([n, k, len(kind)])
    buf = np.asfortranarray(rng.standard_normal((n, ANDERSON_DEPTH)))
    if kind == "rank-deficient" and k > 1:
        buf[:, k - 1] = 2.0 * buf[:, 0] - buf[:, k - 2]
    elif kind == "near-dependent":
        r = min(n, k)
        left = np.linalg.qr(rng.standard_normal((n, r)))[0]
        right = np.linalg.qr(rng.standard_normal((k, r)))[0]
        cut = np.finfo(float).eps * max(n, k)
        s = np.ones(r)
        if r > 1:
            s[-1] = 0.5 * cut
        if r > 2:
            s[-2] = 3.0 * cut
        buf[:, :k] = (left * s) @ right.T
    return buf[:, :k], rng.standard_normal(n)


@pytest.mark.parametrize("kind", ["independent", "rank-deficient", "near-dependent"])
@pytest.mark.parametrize("k", range(1, ANDERSON_DEPTH + 1))
@pytest.mark.parametrize("n", [2, 3, 24, 40, 1280])
def test_mix_solves_as_numpys_lstsq_bitwise(n, k, kind):
    # n < k (more columns than rows) pads the right-hand side for dgelsd
    d_res, res = mixing_columns(n, k, kind)
    held = d_res.tobytes(), res.tobytes()
    want = np.linalg.lstsq(d_res, res, rcond=None)[0]
    assert mteq.linalg.lstsq(d_res, res).tobytes() == want.tobytes()
    # dgelsd overwrites its operands: the ring buffer must reach it copied
    assert (d_res.tobytes(), res.tobytes()) == held
    g = np.linspace(-1.0, 1.0, n)
    # d_res @ gamma stays near res however large gamma grows, so exp(z)
    # stays finite
    d_val = np.ascontiguousarray(d_res)
    z, xm = _mix(g, res, d_res, d_val)
    assert z.tobytes() == (g - d_val @ want).tobytes()
    assert xm.tobytes() == np.exp(z).tobytes()


def test_mix_restarts_when_the_least_squares_solve_fails(monkeypatch):
    lapack = mteq.linalg._lapack()

    def unconverged(*args, **kwargs):
        x, s, rank, _ = lapack.dgelsd(*args, **kwargs)
        return x, s, rank, 1
    monkeypatch.setattr(mteq.linalg, "_lapack", lambda: types.SimpleNamespace(
        dgelsd=unconverged, dgelsd_lwork=lapack.dgelsd_lwork))
    d_res, res = mixing_columns(24, 3, "independent")
    assert _mix(np.zeros(24), res, d_res, np.ones((24, 3))) is None


@pytest.mark.parametrize("n", [24, 40])
def test_each_mix_of_the_sweeps_is_numpys_lstsq_bitwise(monkeypatch, n):
    # the buffers as the sweeps hold them: the bits of every mixed iterate
    # are those of np.linalg.lstsq and a C-ordered product d_val @ gamma
    calls = []

    def recording(g, res, d_res, d_val):
        out = _mix(g, res, d_res, d_val)
        calls.append((g, res, d_res.copy(), d_val.copy(order="K"), out))
        return out
    monkeypatch.setattr(mteq.initializer, "_mix", recording)
    p = gen_problem3(n)
    find_certificate(p.A, rhs=p.b)
    assert len(calls) > 50
    for g, res, d_res, d_val, out in calls:
        gamma = np.linalg.lstsq(d_res, res, rcond=None)[0]
        held = np.empty((n, ANDERSON_DEPTH))
        held[:, :d_val.shape[1]] = d_val
        assert out[0].tobytes() == (g - held[:, :d_val.shape[1]] @ gamma).tobytes()


def test_find_certificate_cap_message_reports_reach(monkeypatch):
    monkeypatch.setattr(mteq.initializer, "MAX_SWEEPS", 5)
    p = gen_problem3(40)
    with pytest.raises(InitializationError) as info:
        find_certificate(p.A, rhs=p.b)
    msg = str(info.value)
    assert "cap of 5 splitting sweeps ran out" in msg
    assert "smallest ratio of A x^{m-1} to its positivity floor" in msg
    assert "likely not" not in msg


def test_find_certificate_stencil_sweep_count():
    # plain Jacobi sweeps took 16,074 here; the accelerated map takes 86
    p = gen_problem3(40)
    u, sweeps, _ = find_certificate(p.A, rhs=p.b)
    assert 0 < sweeps < 1000
    assert np.all(p.A.apply(u) > 0.1 * p.b)


def test_find_certificate_one_apply_per_sweep():
    p = gen_problem3(24)
    counted = CountingTensor(p.A)
    u, sweeps, _ = find_certificate(counted, rhs=p.b)
    assert sweeps > 0
    # sweep 0 reads the all-ones image the tensor cached; every later
    # sweep contracts once, the last one for the test at the result
    assert len(counted.calls["apply"]) == sweeps
    assert len(counted.calls["diagonal"]) == 1


@pytest.mark.parametrize("gen, calls", [(lambda: gen_problem3(24), 1),
                                         (lambda: gen_problem1(3, 10, 0), 0)],
                         ids=["P3", "P1-dominant"])
def test_initial_point_sweeps_through_find_certificate(monkeypatch, gen, calls):
    # the public loop is the one that runs, so a wrapper set on the module
    # (as a tracer sets one) sees every sweep; a dominant tensor needs none
    seen = []
    real = mteq.initializer.find_certificate

    def counting(*args, **kwargs):
        seen.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(mteq.initializer, "find_certificate", counting)
    ip = initial_point(gen())
    assert len(seen) == calls
    assert (ip.iterations > 0) == (calls > 0)


def test_dominant_shortcut_uses_ones():
    p = gen_problem1(3, 10, 0)
    ip = initial_point(p)
    assert ip.iterations == 0
    assert np.array_equal(ip.u, np.ones(10))
    assert np.array_equal(ip.y0, hadamard_power(ip.x0, 2))


def test_initial_point_reuses_problem_certificate(monkeypatch):
    p = gen_problem1(3, 10, 0)
    assert p.certificate is not None

    def retest(self):
        raise AssertionError("diagonal dominance tested again")
    monkeypatch.setattr(Tensor, "is_diag_dominant", retest)
    ip = initial_point(p)
    assert ip.iterations == 0
    assert np.array_equal(ip.u, p.certificate)


def test_a_problem_built_directly_takes_the_ones_certificate(monkeypatch):
    # the certificate comes from the tensor's dominance test whenever a
    # problem is built, not only through make_problem, and no caller sets it
    q = gen_problem1(3, 10, 0)
    A = Tensor.from_dense(q.A.to_dense_array())
    p = MTeqProblem(A, q.b)
    assert np.array_equal(p.certificate, np.ones(10))
    want = initial_point(make_problem(A, q.b))

    def sweep(*args, **kwargs):
        raise AssertionError("swept for a certificate")
    monkeypatch.setattr(mteq.initializer, "find_certificate", sweep)
    ip = initial_point(p)
    assert ip.iterations == 0
    assert np.array_equal(ip.u, np.ones(10))
    assert ip.x0.tobytes() == want.x0.tobytes()
    # a tensor that fails the dominance test gets none
    r = gen_problem5(3, 12, 0)
    assert MTeqProblem(r.A, r.b).certificate is None
    with pytest.raises(TypeError):
        MTeqProblem(A, q.b, certificate=np.ones(10))


def test_identity_inflation_arithmetic():
    # u = e, A e^2 = e, so t = sqrt(0.1 * 27) * 1.01
    p = make_problem(Tensor.identity(3, 2), np.array([8.0, 27.0]))
    ip = initial_point(p)
    t_expect = np.sqrt(2.7) * 1.01
    assert np.allclose(ip.x0, t_expect, rtol=1e-14, atol=0)
    assert in_feasible_split(p, ip.y0, 0.1, 0.05)


def test_initial_point_refuses_an_inflation_that_overflows():
    # t^2 = 0.1 * 1e300 / 1e-11 overflows: the start would be infinite
    p = make_problem(Tensor.identity(3, 2).scaled(1e-11), np.full(2, 1e300))
    with np.errstate(over="ignore"):
        with pytest.raises(InitializationError, match="failed the feasibility check"):
            initial_point(p)


def test_initial_point_rejects_zero_rhs():
    p = make_problem(Tensor.identity(3, 2), np.zeros(2))
    with pytest.raises(InitializationError):
        initial_point(p)


def test_boundary_value_problem_start_is_feasible():
    p = gen_problem3(20)
    cfg = SolverConfig(relative_stop=True)
    ip = initial_point(p, cfg)
    assert 0 < ip.iterations < MAX_SWEEPS
    assert ip.x0.min() > 0.0
    assert in_feasible_split(p, ip.y0, cfg.eps, cfg.eps2)


def test_split_feasible_start_for_zeroed_rhs():
    p0 = gen_problem5(3, 10, seed=4)
    b = zero_out_rhs(p0.b, seed=4, keep=(0,))
    p = make_problem(p0.A, b)
    cfg = SolverConfig()
    ip = initial_point(p, cfg)
    assert ip.iterations > 0  # not diagonally dominant, sweeps required
    assert in_feasible_split(p, ip.y0, cfg.eps, cfg.eps2)


@pytest.mark.parametrize("seed", range(3))
def test_start_feasible_across_generators(seed):
    cfg = SolverConfig()
    for p in (gen_problem1(3, 12, seed), gen_problem5(3, 12, seed)):
        ip = initial_point(p, cfg)
        assert in_feasible_split(p, ip.y0, cfg.eps, cfg.eps2)
