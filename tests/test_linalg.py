"""LU solves and pivot guards."""

import numpy as np
import pytest

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

