"""LU solves and pivot guards."""

import numpy as np
import pytest
import scipy.linalg

from mteq import SingularMatrixError
from mteq.linalg import lu_solve


def test_lu_solve_matches_reference():
    rng = np.random.default_rng(0)
    mat = rng.uniform(-1.0, 1.0, size=(6, 6)) + 6.0 * np.eye(6)
    rhs = rng.uniform(-1.0, 1.0, size=6)
    x = lu_solve(mat, rhs)
    assert np.allclose(mat @ x, rhs, rtol=0, atol=1e-12)
    assert np.allclose(x, np.linalg.solve(mat, rhs), rtol=1e-12, atol=1e-14)


def test_lu_solve_rejects_singular():
    mat = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrixError):
        lu_solve(mat, np.array([1.0, 1.0]))


def test_lu_solve_rejects_near_singular():
    mat = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-16]])
    with pytest.raises(SingularMatrixError):
        lu_solve(mat, np.array([1.0, 1.0]))


def test_lu_solve_rejects_zero_matrix():
    with pytest.raises(SingularMatrixError, match="singular to working precision"):
        lu_solve(np.zeros((2, 2)), np.ones(2))


@pytest.mark.parametrize("mat", [[[np.nan]], [[np.inf]],
                                 [[1.0, 0.0], [np.nan, 1.0]],
                                 [[1.0, 0.0], [np.inf, 1.0]]],
                         ids=["nan", "inf", "nan-off", "inf-off"])
def test_lu_solve_rejects_non_finite_entry(mat):
    # a NaN pivot compares False with every bound, so only a test that
    # demands a pivot above the bound refuses it
    with pytest.raises(SingularMatrixError, match="matrix not finite"):
        lu_solve(mat, np.ones(len(mat)))



@pytest.mark.parametrize("n", [1, 2, 40, 200])
def test_lu_solve_is_scipys_lu_solve_bitwise(n):
    rng = np.random.default_rng(n)
    # rows scaled over many decades, so that the pivot order matters
    mat = rng.uniform(-1.0, 1.0, size=(n, n)) * np.logspace(-3, 3, n)[:, None]
    rhs = rng.uniform(-1.0, 1.0, size=n)
    want = scipy.linalg.lu_solve(scipy.linalg.lu_factor(mat), rhs)
    held = mat.tobytes(), rhs.tobytes()
    assert lu_solve(mat, rhs).tobytes() == want.tobytes()
    assert (mat.tobytes(), rhs.tobytes()) == held
    # a C-ordered view with strides, as the Newton step's submatrix is not
    wide = np.zeros((n, 2 * n))
    wide[:, ::2] = mat
    assert lu_solve(wide[:, ::2], rhs).tobytes() == want.tobytes()


@pytest.mark.parametrize("mat, message", [
    ([[1.0, 2.0], [2.0, 4.0]], "singular to working precision (pivot 0.000e+00, norm 6.000e+00)"),
    # the infinity norm, the largest row sum, and not the largest column sum
    ([[1.0, 0.0], [3.0, 0.0]], "singular to working precision (pivot 0.000e+00, norm 3.000e+00)"),
    ([[0.0, 0.0], [0.0, 0.0]], "singular to working precision (pivot 0.000e+00, norm 0.000e+00)"),
    ([[1e-300, 0.0], [0.0, 1.0]], "singular to working precision (pivot 1.000e-300, norm 1.000e+00)"),
    ([[np.nan]], "not finite (pivot nan, norm nan)"),
    ([[np.inf]], "not finite (pivot inf, norm inf)"),
    ([[1.0, 0.0], [np.inf, 1.0]], "not finite (pivot 0.000e+00, norm inf)"),
    ([[-np.inf, 1.0], [1.0, 1.0]], "not finite (pivot 1.000e+00, norm inf)"),
], ids=["exact", "rows", "zero", "tiny-pivot", "nan", "inf", "inf-off", "inf-pivot"])
def test_lu_solve_refusals_name_pivot_and_norm(mat, message):
    with pytest.raises(SingularMatrixError) as info:
        lu_solve(mat, np.ones(len(mat)))
    assert str(info.value) == "matrix " + message
