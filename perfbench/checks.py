"""Checks of solver output that do not reuse the library's kernels.

Every check recomputes ``A x^{m-1}`` with its own contraction (``np.einsum``
for dense arrays, a scatter-add over the COO entries for sparse ones) and
raises :class:`CheckFailure` with a reason when the answer is wrong.  The
benchmark runs them after the timed part of each instance.
"""

from __future__ import annotations

import csv
import string

import numpy as np

# Allowance for rounding, relative to ``|A| x^{m-1}``, the sum of the
# magnitudes of the terms.  The check's contraction and the library's differ
# by at most 6e-15 of it on the dense instances; on the stencil rows the
# terms cancel by ten orders of magnitude, so a bound relative to ``b``
# alone would not do.
ROUNDING = 1e-13

# A converged solve stops at ``||f|| <= 1e-10``; on the triangular
# instances the forward-substitution solution agrees to this relative
# distance.
FORWARD_RTOL = 1e-8


class CheckFailure(AssertionError):
    """A solver output failed an independent check."""


def dense_contraction(a):
    """``x -> (A x^{m-1}, |A| x^{m-1})`` for a dense array of shape ``(n,)*m``."""
    m = a.ndim
    letters = string.ascii_lowercase[:m]
    subscripts = letters + "," + ",".join(letters[1:]) + "->" + letters[0]
    magnitudes = np.abs(a)

    def contract(x):
        xs = [np.abs(x)] * (m - 1)
        return (np.einsum(subscripts, a, *([x] * (m - 1))),
                np.einsum(subscripts, magnitudes, *xs))
    return contract


def coo_contraction(indices, values, n):
    """``x -> (A x^{m-1}, |A| x^{m-1})`` summed entry by entry over COO
    storage."""
    indices = np.asarray(indices)
    values = np.asarray(values, dtype=float)

    def contract(x):
        terms = values * np.prod(x[indices[:, 1:]], axis=1)
        out = np.zeros(n)
        mag = np.zeros(n)
        np.add.at(out, indices[:, 0], terms)
        np.add.at(mag, indices[:, 0], np.abs(terms))
        return out, mag
    return contract


def check_solution(contract, b, x, eta, relative=False, omega=1.0):
    """Positive ``x`` whose residual is within the stopping tolerance.

    ``omega`` divides the residual when the solver stopped on a system
    scaled by ``1/omega``; ``relative`` divides it by ``||b||`` instead.
    """
    b = np.asarray(b, dtype=float)
    x = np.asarray(x, dtype=float)
    if x.shape != b.shape or not np.all(np.isfinite(x)):
        raise CheckFailure("solution has the wrong shape or non-finite entries")
    if not np.all(x > 0.0):
        raise CheckFailure(f"solution has {int(np.sum(x <= 0.0))} nonpositive entries")
    g, mag = contract(x)
    scale = float(np.linalg.norm(b)) if relative else omega
    res = float(np.linalg.norm(g - b)) / scale
    allowed = eta + ROUNDING * float(np.linalg.norm(mag)) / scale
    if not res <= allowed:
        raise CheckFailure(f"residual {res:.3e} above {allowed:.3e}")
    return res


def check_path(contract, b, iterates, alphas, m, eps, sigma):
    """Feasibility of every accepted iterate and the descent bound.

    ``iterates`` are the transformed points ``y = x^{m-1}`` starting with
    the initial one; ``alphas`` are the accepted step lengths.  Each point
    must satisfy ``A x^{m-1} >= eps * b`` on the rows where ``b > 0``, and
    each step ``||f_{k+1}||^2 <= (1 - 2 sigma alpha_k) ||f_k||^2``.
    """
    b = np.asarray(b, dtype=float)
    if len(iterates) != len(alphas) + 1:
        raise CheckFailure("iterate count does not match the step count")
    plus = b > 0.0
    norms, errors = [], []
    for k, y in enumerate(iterates):
        y = np.asarray(y, dtype=float)
        if not np.all(y > 0.0):
            raise CheckFailure(f"iterate {k} is not strictly positive")
        g, mag = contract(y ** (1.0 / (m - 1)))
        slack = ROUNDING * mag
        if not np.all(g[plus] >= eps * b[plus] - slack[plus]):
            raise CheckFailure(f"iterate {k} violates A x^(m-1) >= eps*b on I+")
        norms.append(float(np.linalg.norm(g - b)))
        errors.append(float(np.linalg.norm(slack)))
    check_descent(norms, alphas, sigma, errors)


def check_descent(norms, alphas, sigma, errors=None):
    """``norms[k+1]^2 <= (1 - 2 sigma alphas[k]) norms[k]^2`` for every k,
    with each norm moved by its rounding allowance in ``errors`` in the
    direction that favours the solver."""
    errors = errors or [0.0] * len(norms)
    for k, alpha in enumerate(alphas):
        bound = (1.0 - 2.0 * sigma * alpha) * (norms[k] + errors[k]) ** 2
        if not max(norms[k + 1] - errors[k + 1], 0.0) ** 2 <= bound:
            raise CheckFailure(
                f"step {k + 1} misses the descent bound: "
                f"{norms[k + 1]:.3e} after {norms[k]:.3e} with alpha {alpha:.3g}")


def check_report(contract, b, m, report, cfg):
    """All checks on an in-memory solve report of an order-``m`` system."""
    if report.status.value != "converged":
        raise CheckFailure(f"status {report.status.value}: {report.message}")
    check_solution(contract, b, report.x_final, cfg.eta, relative=cfg.relative_stop)
    check_path(contract, b, report.iterates, [rec.alpha for rec in report.trace],
               m, cfg.eps, cfg.sigma)


def forward_substitution(a, b):
    """Unique positive solution for a tensor whose row ``i`` holds only the
    diagonal entry and entries with every trailing index below ``i``."""
    n, m = a.shape[0], a.ndim
    letters = string.ascii_lowercase[:m - 1]
    subscripts = letters + "," + ",".join(letters) + "->"
    x = np.zeros(n)
    for i in range(n):
        row = a[i]
        lower = row[(slice(0, i),) * (m - 1)]
        rest = row.copy()
        rest[(slice(0, i),) * (m - 1)] = 0.0
        rest[(i,) * (m - 1)] = 0.0
        if np.any(rest != 0.0):
            raise CheckFailure(f"row {i} is not triangular")
        s = float(np.einsum(subscripts, lower, *([x[:i]] * (m - 1)))) if i else 0.0
        x[i] = ((b[i] - s) / row[(i,) * (m - 1)]) ** (1.0 / (m - 1))
    return x


def check_triangular(a, b, x):
    """Solution matches forward substitution on a triangular tensor."""
    ref = forward_substitution(a, np.asarray(b, dtype=float))
    dist = float(np.max(np.abs(x - ref)) / np.max(np.abs(ref)))
    if not dist <= FORWARD_RTOL:
        raise CheckFailure(f"solution is {dist:.3e} from forward substitution")


def read_dense_tensor(path):
    """Dense ``.mt`` file read with ``np.loadtxt``."""
    with open(path) as fh:
        header = fh.readline().split()
    if header[0] != "MT1" or header[3] != "dense":
        raise CheckFailure(f"{path}: not a dense MT1 file")
    m, n = int(header[1]), int(header[2])
    return np.loadtxt(path, skiprows=1).reshape((n,) * m)


def read_vector(path):
    """``.vec`` file read with ``np.loadtxt``."""
    return np.atleast_1d(np.loadtxt(path, skiprows=1))


def check_files(tensor_path, rhs_path, solution_path, trace_path, eta, sigma):
    """Checks on the files ``mteq solve`` read and wrote.

    The trace CSV holds step lengths and residuals after each step, so the
    descent bound is checked between consecutive rows.
    """
    a = read_dense_tensor(tensor_path)
    b = read_vector(rhs_path)
    x = read_vector(solution_path)
    omega = max(float(np.abs(a).max()), float(np.abs(b).max()))
    check_solution(dense_contraction(a), b, x, eta, omega=omega)
    with open(trace_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise CheckFailure("trace has no iterations")
    if any(row["feasible"] != "true" for row in rows):
        raise CheckFailure("trace records an infeasible iterate")
    norms = [float(row["residual"]) for row in rows]
    alphas = [float(row["alpha"]) for row in rows[1:]]
    check_descent(norms, alphas, sigma)
