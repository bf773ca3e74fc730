"""Dense linear solves.

Solves go through an LU factorization with partial pivoting; a pivot below
``1e-14`` times the infinity norm of the matrix is treated as singular to
working precision, and a matrix with a NaN or infinite entry as unusable.
Both are reported as an explicit error rather than letting garbage
propagate into a Newton step.

The Newton solves and the least-squares solves of the accelerated
splitting sweeps call LAPACK (``dgetrf``/``dgetrs`` and ``dgelsd``)
through ``scipy.linalg.lapack`` directly: the wrappers of
``scipy.linalg`` and ``np.linalg`` around the same routines cost more than
the routines themselves at the sizes solved here.  The results keep the
wrappers' bits: the LU solve is the call that ``scipy.linalg.lu_factor``
and ``lu_solve`` make, and the least-squares solve the one that
``np.linalg.lstsq(a, b, rcond=None)`` makes, which agrees with numpy's
bits as long as numpy's and scipy's LAPACK builds do.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "SingularMatrixError",
    "lstsq",
    "lu_solve",
]

PIVOT_RTOL = 1e-14

_EPS = float(np.finfo(float).eps)


class SingularMatrixError(RuntimeError):
    """Matrix is singular to working precision."""


@functools.cache
def _lapack():
    """``scipy.linalg.lapack``, imported on first use, so that commands
    which neither solve nor sweep (``mteq gen``, ``--help``, ``verify`` of
    a tensor whose all-ones vector is its certificate) start without
    ``scipy.linalg``."""
    from scipy.linalg import lapack
    return lapack


@functools.cache
def _gelsd_work(n, k):
    """``dgelsd``'s workspace sizes ``(lwork, liwork)`` for ``n`` rows,
    ``k`` columns and one right-hand side, from its size query."""
    lwork, liwork, _ = _lapack().dgelsd_lwork(n, k, 1)
    return int(lwork), liwork


def lu_solve(mat, rhs) -> np.ndarray:
    """Solve ``mat @ z = rhs`` by LU with partial pivoting.

    Raises :class:`SingularMatrixError` unless the smallest pivot exceeds
    ``1e-14 * ||mat||_inf``, which a zero matrix, and one with a NaN or
    infinite entry, never does.
    """
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
    lapack = _lapack()
    # info > 0 flags an exactly zero pivot, which the pivot test refuses
    lu, piv, _ = lapack.dgetrf(mat)
    pivots = np.abs(np.diag(lu))
    if not pivots.min() > PIVOT_RTOL * norm:
        why = ("singular to working precision" if math.isfinite(norm)
               else "not finite")
        raise SingularMatrixError(
            f"matrix {why} (pivot {pivots.min():.3e}, norm {norm:.3e})")
    return lapack.dgetrs(lu, piv, rhs)[0]


def lstsq(a, b) -> np.ndarray:
    """The minimum-norm ``x`` minimising ``||b - a @ x||``, bit for bit
    as ``np.linalg.lstsq(a, b, rcond=None)[0]``.

    ``a`` is a float64 ``(n, k)`` array, cheapest in Fortran order, and
    ``b`` a float64 vector of length ``n``.  Singular values below
    ``eps * max(n, k)`` times the largest count as zero.  Raises
    ``np.linalg.LinAlgError`` when the SVD does not converge.
    """
    n, k = a.shape
    if n < k:
        # dgelsd returns x in the rows of b, which must hold k of them
        b = np.concatenate((b, np.zeros(k - n)))
    x, _, _, info = _lapack().dgelsd(a, b, *_gelsd_work(n, k), cond=_EPS * max(n, k))
    if info != 0:
        raise np.linalg.LinAlgError(
            f"SVD did not converge in linear least squares (info {info})")
    return x[:k]
