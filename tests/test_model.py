"""Problem container, transformed residual, and feasibility predicates."""

import numpy as np
import pytest

from mteq import (MTeqProblem, SingularMatrixError, SolverConfig, Tensor,
                  check_assumption, feasibility_slack, hadamard_power,
                  in_feasible_split, make_problem, partition_indices, residual,
                  residual_jacobian, scale_problem, zero_block_threshold)
from mteq.problems import gen_problem1

from oracles import fd_jacobian, missing_rows_blocks


def small_problem(b=(1.0, 1.0)):
    dense = -np.ones((2, 2, 2))
    dense[0, 0, 0] += 4.04
    dense[1, 1, 1] += 4.04
    return make_problem(Tensor.from_dense(dense), np.array(b))


def test_partition_indices():
    part = partition_indices(np.array([0.5, 0.0, 2.0, 0.0]))
    assert np.array_equal(part.i_plus, [0, 2])
    assert np.array_equal(part.i_zero, [1, 3])


def test_config_validation():
    SolverConfig()  # defaults are legal
    with pytest.raises(ValueError):
        SolverConfig(eps=0.0)
    with pytest.raises(ValueError):
        SolverConfig(eps=0.1, eps2=0.1)  # needs eps2 < eps
    with pytest.raises(ValueError):
        SolverConfig(sigma=0.5)
    with pytest.raises(ValueError):
        SolverConfig(rho=1.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)


def test_problem_validation():
    with pytest.raises(ValueError):
        make_problem(Tensor.from_dense(np.ones((2, 2, 2))), np.ones(2))  # not Z
    with pytest.raises(ValueError):
        small_problem(b=(1.0, -1.0))  # negative right-hand side
    with pytest.raises(ValueError):
        make_problem(Tensor.identity(3, 2), np.ones(3))  # length mismatch


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 1, 1), (1, 1, 1)], ids=["off", "diag"])
def test_non_finite_tensor_rejected(value, where):
    dense = small_problem().A.to_dense_array()
    dense[where] = value
    A = Tensor.from_dense(dense)
    for build in (make_problem, scale_problem, MTeqProblem):
        with pytest.raises(ValueError, match="coefficient tensor has a non-finite entry"):
            build(A, np.ones(2))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_rhs_rejected(value):
    A = small_problem().A
    b = np.array([1.0, value])
    for build in (make_problem, scale_problem, MTeqProblem):
        with pytest.raises(ValueError, match=r"right-hand side has a non-finite entry: b\[1\]"):
            build(A, b)


def test_residual_definition():
    p = make_problem(Tensor.identity(3, 2), np.array([1.0, 4.0]))
    y = np.array([9.0, 9.0])  # x = (3, 3)
    assert np.array_equal(residual(p, y), np.array([8.0, 5.0]))
    with pytest.raises(ValueError):
        residual(p, np.array([1.0, 0.0]))  # transform needs y > 0


@pytest.mark.parametrize("m,n,seed", [(3, 5, 0), (4, 4, 1), (3, 8, 2)])
def test_residual_jacobian_matches_fd(m, n, seed):
    p = gen_problem1(m, n, seed)
    rng = np.random.default_rng(seed + 100)
    y = rng.uniform(0.5, 2.0, size=n)
    J = residual_jacobian(p, y)
    J_fd = fd_jacobian(lambda v: residual(p, v), y, h=1e-7)
    assert np.allclose(J, J_fd, rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("m,n,seed", [(3, 6, 3), (4, 4, 4)])
def test_euler_identity(m, n, seed):
    # f'(y) y = f(y) + b holds for the transformed map at any y > 0
    p = gen_problem1(m, n, seed)
    rng = np.random.default_rng(seed)
    for _ in range(10):
        y = rng.uniform(0.1, 3.0, size=n)
        lhs = residual_jacobian(p, y) @ y
        rhs = residual(p, y) + p.b
        assert np.allclose(lhs, rhs, rtol=0, atol=1e-12 * (1 + np.linalg.norm(p.b)))


def test_in_feasible():
    p = make_problem(Tensor.identity(3, 2), np.array([4.0, 4.0]))
    # x = (1, 1): A x^2 = (1, 1) >= 0.1 * b = (0.4, 0.4)
    assert in_feasible_split(p, np.array([1.0, 1.0]), 0.1, 0.05)
    # x = (0.5, 0.5): image (0.25, 0.25) < 0.4
    assert not in_feasible_split(p, np.array([0.25, 0.25]), 0.1, 0.05)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_transformed_iterate_rejected(value):
    # NaN and +inf pass a test for y <= 0; neither may reach the tensor
    p = make_problem(Tensor.identity(3, 2), np.array([4.0, 4.0]))
    y = np.array([1.0, value])
    for evaluate in (residual, residual_jacobian):
        with pytest.raises(ValueError, match="strictly positive and finite"):
            evaluate(p, y)
    assert p._memo is None


def test_feasibility_slack_scales_with_b():
    assert feasibility_slack(np.array([1.0])) == pytest.approx(2e-14)
    assert feasibility_slack(np.array([1e6])) > feasibility_slack(np.array([1.0]))


def test_in_feasible_split_and_threshold():
    p = small_problem(b=(1.0, 0.0))
    assert p.partition.i_zero.size == 1
    y = hadamard_power(np.array([2.0, 2.0]), 2)
    # positive image clears the nonpositive coupling threshold automatically
    thr = zero_block_threshold(p, y, 0.05)
    assert thr.shape == (1,)
    assert thr[0] <= 0.0
    assert in_feasible_split(p, y, 0.1, 0.05)
    # shrink x until the positive-row requirement fails
    assert not in_feasible_split(p, np.array([1e-4, 1e-4]), 0.1, 0.05)


def test_zero_block_threshold_requires_positive_rows():
    p = small_problem(b=(1.0, 0.0))
    with pytest.raises(ValueError):
        zero_block_threshold(
            make_problem(p.A, np.zeros(2)), np.ones(2), 0.05)


def test_split_infeasible_when_block_singular():
    # diag(1, 1) identity with b = (1, 0): the I+ x I+ block of f'(y) is
    # 1x1 and positive, so this exercises the healthy path; the singular
    # path needs a tensor whose I+ block degenerates
    dense = np.zeros((2, 2, 2))
    dense[0, 1, 1] = -1.0  # row 1 has zero diagonal: J[I+, I+] = 0
    dense[1, 1, 1] = 1.0
    t = Tensor.from_dense(dense)
    p = make_problem(t, np.array([1.0, 0.0]))
    y = np.ones(2)
    with pytest.raises(SingularMatrixError):
        zero_block_threshold(p, y, 0.05)
    # the predicate reports infeasible instead of raising
    assert not in_feasible_split(p, y, 0.1, 0.05)


def test_scale_problem_preserves_solutions():
    p = small_problem()
    scaled = scale_problem(p.A, p.b)
    assert scaled.omega == pytest.approx(3.04)
    x = np.array([5.0, 5.0])
    # A x^2 = b iff (A/w) x^2 = b/w
    assert np.allclose(scaled.A.apply(x), scaled.b, rtol=0, atol=1e-14)
    with pytest.raises(ValueError):
        scale_problem(Tensor.from_dense(np.zeros((2, 2, 2))), np.zeros(2))


def test_check_assumption():
    # b = (1, 0) with full off-diagonal coupling: row 2 reaches I+ = {1}
    p = small_problem(b=(1.0, 0.0))
    rep = check_assumption(p)
    assert rep.ok and rep.i_plus_size == 1 and rep.i_zero_size == 1
    # diagonal tensor: the zero row couples to nothing, assumption fails
    pd = make_problem(Tensor.identity(3, 2), np.array([1.0, 0.0]))
    rep = check_assumption(pd)
    assert not rep.ok
    assert 1 in rep.missing or (1,) == rep.missing  # 0-based row 1 lacks coupling
    # all-positive b: nothing to check
    assert check_assumption(small_problem()).ok


@pytest.mark.parametrize("m,n", [(2, 9), (3, 7), (4, 5)])
def test_check_assumption_matches_block_copies(m, n):
    # sparse random Z-tensors, with -0.0 entries, so that some zero rows
    # couple to I+ and some do not, on dense and on COO storage
    rng = np.random.default_rng(10 * m + n)
    seen = set()
    for density in (0.01, 0.05, 0.2, 1.0):
        for _ in range(4):
            a = -rng.uniform(0.1, 1.0, size=(n,) * m)
            a[rng.random(a.shape) >= density] = 0.0
            a[rng.random(a.shape) < 0.1] = -0.0
            a[(np.arange(n),) * m] = n
            b = rng.uniform(0.5, 1.0, size=n) * (rng.random(n) < 0.5)
            b[rng.integers(n)] = 1.0
            part = partition_indices(b)
            expect = missing_rows_blocks(a, part.i_plus, part.i_zero)
            dense = Tensor.from_dense(a)
            for t in (dense, dense.to_coo()):
                rep = check_assumption(make_problem(t, b))
                assert rep.missing == expect
                assert rep.ok == (not expect)
            seen.add(bool(expect))
    assert seen == {True, False}
