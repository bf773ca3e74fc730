"""LU solves, pivot guards, and block extraction."""

import numpy as np
import pytest

from mteq import SingularMatrixError
from mteq.linalg import lu_solve, submatrix


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


def test_submatrix_selects_blocks():
    mat = np.arange(16.0).reshape(4, 4)
    block = submatrix(mat, np.array([0, 2]), np.array([1, 3]))
    assert np.array_equal(block, np.array([[1.0, 3.0], [9.0, 11.0]]))
    with pytest.raises(IndexError):
        submatrix(mat, np.array([0, 4]), np.array([0]))

