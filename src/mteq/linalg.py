"""Dense linear solves and the block extraction used by the feasibility
machinery.

Solves go through an LU factorization with partial pivoting; a pivot below
``1e-14`` times the infinity norm of the matrix is treated as singular to
working precision and reported as an explicit error rather than letting
garbage propagate into a Newton step.
"""

from __future__ import annotations

import warnings

import numpy as np

__all__ = [
    "SingularMatrixError",
    "lu_solve",
    "submatrix",
]

PIVOT_RTOL = 1e-14


class SingularMatrixError(RuntimeError):
    """Matrix is singular to working precision."""


def _as_square(mat) -> np.ndarray:
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    return mat


def lu_solve(mat, rhs) -> np.ndarray:
    """Solve ``mat @ z = rhs`` by LU with partial pivoting.

    Raises :class:`SingularMatrixError` when the smallest pivot falls below
    ``1e-14 * ||mat||_inf``.
    """
    # imported here, its only use, so that commands which never solve
    # (``mteq gen``, ``verify``, ``--help``) start without it
    import scipy.linalg

    mat = _as_square(mat)
    rhs = np.asarray(rhs, dtype=float)
    n = mat.shape[0]
    if rhs.shape[0] != n:
        raise ValueError(f"rhs length {rhs.shape[0]} does not match matrix size {n}")
    if n == 0:
        return np.zeros_like(rhs)
    norm = float(np.abs(mat).sum(axis=1).max())
    with warnings.catch_warnings():
        # exactly singular input provokes a LinAlgWarning; the pivot check
        # below turns it into a hard error instead
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(mat, check_finite=False)
    pivots = np.abs(np.diag(lu))
    if norm == 0.0 or pivots.min() <= PIVOT_RTOL * norm:
        raise SingularMatrixError(
            f"matrix singular to working precision (pivot {pivots.min():.3e}, "
            f"norm {norm:.3e})")
    return scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)


def submatrix(mat, rows, cols) -> np.ndarray:
    """Copy of ``mat[rows, cols]`` preserving the given index order."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2:
        raise ValueError("submatrix needs a 2-d array")
    rows = np.asarray(rows, dtype=np.int64).ravel()
    cols = np.asarray(cols, dtype=np.int64).ravel()
    for name, ix, limit in (("row", rows, mat.shape[0]), ("column", cols, mat.shape[1])):
        if ix.size and (ix.min() < 0 or ix.max() >= limit):
            raise IndexError(f"{name} index out of range 0..{limit - 1}")
    return mat[np.ix_(rows, cols)]
