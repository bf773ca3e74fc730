"""Dense linear solves.

Solves go through an LU factorization with partial pivoting; a pivot below
``1e-14`` times the infinity norm of the matrix is treated as singular to
working precision, and a matrix with a NaN or infinite entry as unusable.
Both are reported as an explicit error rather than letting garbage
propagate into a Newton step.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

__all__ = [
    "SingularMatrixError",
    "lu_solve",
]

PIVOT_RTOL = 1e-14


class SingularMatrixError(RuntimeError):
    """Matrix is singular to working precision."""


def lu_solve(mat, rhs) -> np.ndarray:
    """Solve ``mat @ z = rhs`` by LU with partial pivoting.

    Raises :class:`SingularMatrixError` unless the smallest pivot exceeds
    ``1e-14 * ||mat||_inf``, which a zero matrix, and one with a NaN or
    infinite entry, never does.
    """
    # imported here, its only use, so that commands which never solve
    # (``mteq gen``, ``verify``, ``--help``) start without it
    import scipy.linalg

    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
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
    if not pivots.min() > PIVOT_RTOL * norm:
        why = ("singular to working precision" if math.isfinite(norm)
               else "not finite")
        raise SingularMatrixError(
            f"matrix {why} (pivot {pivots.min():.3e}, norm {norm:.3e})")
    return scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)

