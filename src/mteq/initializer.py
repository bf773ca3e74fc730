"""Construct feasible starting points.

The recipe: find a positive vector ``u`` with ``A u^{m-1} > 0`` (the
problem's certificate, which every problem over a diagonally dominant
tensor carries as the all-ones vector when it is built, otherwise iterate
the diagonal tensor splitting of ``A x^{m-1} = r`` for a positive target
``r``), then inflate it by the smallest factor ``t >= 1`` such that
``t^{m-1} A u^{m-1} >= eps * b`` holds strictly.  The inflated point lies
inside the feasible region by construction, so the solvers can start
descending immediately.

The splitting target ``r`` is the right-hand side itself whenever it is
strictly positive, and the all-ones vector otherwise.  Sweeping against
the actual right-hand side keeps the certificate shaped like the solution,
which is what keeps the inflated start close when ``b`` spans many orders
of magnitude; with zero components in ``b`` the all-ones target is used
instead so the positivity margin below stays meaningful.

Plain Jacobi sweeps contract slowly on stiff tensors (about ``10 n^2``
sweeps on the boundary-value stencil), so the sweeps are Anderson
accelerated (Walker & Ni, SIAM J. Numer. Anal. 49, 2011): each step mixes
the newest Jacobi value with the last ``ANDERSON_DEPTH`` ones by the
least-squares combination of their fixed-point residuals.  Mixing happens
in the coordinates ``log x^{m-1}``, so every iterate stays positive
however far the extrapolation reaches; a mixed iterate that is not finite
is replaced by the plain Jacobi value and the history restarts.  Each
sweep costs one contraction ``A x^{m-1}`` through the public
``A.apply``, shared by the positivity test and the next Jacobi value, and
one least-squares solve of at most ``ANDERSON_DEPTH`` columns; the rest
is a few elementwise passes over vectors of length ``n``.  Every sweep
runs in :func:`find_certificate`: sweep 0 reads the image of ``e`` that
the dominance test cached, and the last sweep's image, which it returns
with ``u``, serves the feasible start.  On the order-4 stencil a sweep
takes about 38 us at ``n = 40`` and 150 us at ``n = 1280`` (one core of a
2-vCPU Xeon), of which the least-squares solve, LAPACK's ``dgelsd``
called directly (:func:`mteq.linalg.lstsq`), takes 10 us and 56 us.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .linalg import lstsq
from .model import MTeqProblem, SolverConfig, _in_domain, in_feasible_split
from .tensor import Tensor, hadamard_power

__all__ = [
    "InitializationError",
    "InitialPoint",
    "jacobi_step",
    "find_certificate",
    "initial_point",
]

MAX_SWEEPS = 100_000

# Positivity of A x^{m-1} is only a usable certificate when it clears the
# noise floor and has some margin relative to the largest component:
# stopping at the first sign change produces inflation factors that grow
# without bound as the margin shrinks.
POSITIVITY_MARGIN = 0.1

# Number of earlier Jacobi values each accelerated step mixes in.
ANDERSON_DEPTH = 5


class InitializationError(RuntimeError):
    """No feasible starting point could be constructed."""


@dataclass(frozen=True)
class InitialPoint:
    """Feasible start: ``x0`` with its transform ``y0 = x0^{m-1}``.

    ``iterations`` counts splitting sweeps spent finding the certificate
    vector ``u``: 0 when the tensor is diagonally dominant, so that the
    problem carries the all-ones certificate.  Otherwise it is at least
    1: the sweeps' test at their all-ones start has a floor no lower than
    the dominance test's, so a tensor that fails the one fails the other.
    ``elapsed_ms`` is the wall-clock time :func:`initial_point` took.
    """

    x0: np.ndarray
    y0: np.ndarray
    iterations: int
    u: np.ndarray
    elapsed_ms: float


def _positive_diagonal(A: Tensor) -> np.ndarray:
    d = A.diagonal()
    if np.any(d <= 0.0):
        raise InitializationError(
            "tensor diagonal is not strictly positive; the splitting is unusable")
    return d


def _jacobi_power(d, rhs, xm, ax) -> np.ndarray:
    """The Jacobi value raised to the power ``m-1``: ``(rhs + B x^{m-1}) / d``.

    ``xm`` is ``x^{m-1}`` and ``ax`` is ``A x^{m-1}`` at the current ``x``,
    so ``B x^{m-1} = d * xm - ax``.
    """
    num = rhs + d * xm - ax
    if (num <= 0.0).any():
        raise InitializationError("splitting step left the positive cone")
    return num / d


def _diverged(sweeps) -> InitializationError:
    return InitializationError(
        f"splitting iterates diverged: they overflowed after {sweeps} sweeps")


def _mix(g, res, d_res, d_val):
    """Anderson's mixed iterate ``g - d_val @ gamma`` and its exponential.

    ``gamma`` minimises ``||res - d_res @ gamma||``, where the columns of
    ``d_res`` and ``d_val`` are differences of successive fixed-point
    residuals and map values.  Returns ``None`` when the least-squares
    problem fails or the exponential is not positive and finite.
    """
    try:
        gamma = lstsq(d_res, res)
    except np.linalg.LinAlgError:
        return None
    z = g - d_val @ gamma
    xm = np.exp(z)
    if not (np.isfinite(xm) & (xm > 0.0)).all():
        return None
    return z, xm


def jacobi_step(A: Tensor, rhs, x) -> np.ndarray:
    """One sweep of the diagonal tensor splitting for ``A x^{m-1} = rhs``.

    With ``B = diag(a_{i..i}) I - A`` (entrywise nonnegative for a Z-tensor)
    the update is ``x_i <- ((rhs_i + (B x^{m-1})_i) / a_{i..i})^{1/(m-1)}``,
    which maps positive vectors to positive vectors when ``rhs > 0``.
    """
    rhs = np.asarray(rhs, dtype=float)
    x = np.asarray(x, dtype=float)
    d = _positive_diagonal(A)
    m = A.order
    w = _jacobi_power(d, rhs, hadamard_power(x, m - 1), A.apply(x))
    return hadamard_power(w, 1.0 / (m - 1))


def find_certificate(A: Tensor, rhs=None):
    """Positive ``u`` with ``A u^{m-1} > 0``, found by splitting sweeps.

    Returns ``(u, sweeps, image)``, where ``image`` is ``A u^{m-1}`` from
    the last sweep, so that :func:`initial_point` does not contract the
    tensor at ``u`` again.  Sweeps solve ``A x^{m-1} = rhs`` approximately
    (all-ones target when ``rhs`` is omitted; an explicit target must be
    strictly positive), Anderson accelerated in ``log x^{m-1}``.  The loop
    stops once ``A x^{m-1}`` clears both the tensor's noise floor and a
    fixed fraction of the target on every component, so the certificate
    has a usable margin.  ``MAX_SWEEPS`` caps the sweeps after sweep 0.
    Raises :class:`InitializationError` when the iterates diverge, or when
    the sweep cap runs out; the message then gives how close the last
    iterate came to passing the test.
    """
    e = np.ones(A.dim)
    if rhs is None:
        target = e
    else:
        target = np.asarray(rhs, dtype=float)
        if target.shape != (A.dim,):
            raise ValueError(f"target length {target.shape} does not match dimension {A.dim}")
        if not np.all(np.isfinite(target)) or np.any(target <= 0.0):
            raise ValueError("splitting target must be finite and strictly positive")
    cap = MAX_SWEEPS
    d = _positive_diagonal(A)
    # xm > 0 by construction, so its root needs no sign test
    root = 1.0 / (A.order - 1)
    floor = np.maximum(A._noise_floor(), POSITIVITY_MARGIN * target)
    # Anderson mixing in z = log x^{m-1}, of the map G(z) = log of the
    # Jacobi value's (m-1)-th power, with fixed-point residual G(z) - z.
    # The last ANDERSON_DEPTH differences of both sit in ring buffers;
    # their column order does not matter to the least-squares problem.
    # d_res is in Fortran order, as LAPACK takes it.  d_val stays in C
    # order: in Fortran order d_val @ gamma runs another BLAS kernel, whose
    # sums round differently and change the iterates' bits.
    x = xm = e
    z = np.zeros(A.dim)
    d_res = np.empty((A.dim, ANDERSON_DEPTH), order="F")
    d_val = np.empty((A.dim, ANDERSON_DEPTH))
    stored = 0
    last = None
    # Overflow is caught below by the finiteness tests.
    with np.errstate(over="ignore", invalid="ignore"):
        for sweep in range(cap + 1):
            ax = A.apply(x) if sweep else A._ones_record()[0]
            if not np.isfinite(ax).all():
                raise _diverged(sweep)
            if (ax > floor).all():
                return x, sweep, ax
            if sweep == cap:
                break
            w = _jacobi_power(d, target, xm, ax)
            g = np.log(w)
            if not np.isfinite(g).all():
                raise _diverged(sweep)
            res = g - z
            if last is not None:
                slot = stored % ANDERSON_DEPTH
                np.subtract(res, last[0], out=d_res[:, slot])
                np.subtract(g, last[1], out=d_val[:, slot])
                stored += 1
            last = res, g
            z, xm = g, w
            if stored:
                cols = min(stored, ANDERSON_DEPTH)
                mixed = _mix(g, res, d_res[:, :cols], d_val[:, :cols])
                if mixed is None:
                    stored = 0
                else:
                    z, xm = mixed
            x = xm ** root
    reach = float(np.min(ax / floor))
    raise InitializationError(
        f"no positivity certificate: the cap of {cap} splitting sweeps ran "
        f"out; at the last iterate the smallest ratio of A x^{{m-1}} to its "
        f"positivity floor was {reach:.3g} (the test needs every ratio above 1)")


def initial_point(p: MTeqProblem, cfg: SolverConfig | None = None) -> InitialPoint:
    """Build a feasible starting point for either solver.

    The certificate is ``p.certificate`` when the problem carries one (the
    all-ones vector, which every problem over a diagonally dominant tensor
    carries); otherwise :func:`find_certificate` sweeps for it.  Either
    way ``A u^{m-1}`` clears a positive floor.  Raises
    :class:`InitializationError` when no certificate vector exists within
    the sweep cap or the constructed point fails the feasibility check it
    was built to satisfy.  The image ``A u^{m-1}`` is not contracted
    again: it is the last sweep's, or for the all-ones certificate the one
    the tensor's dominance test cached.
    The feasibility check evaluates ``y0`` and leaves its record in the
    problem's memo, so a solver started from ``x0`` or ``y0`` does not
    contract the tensor at the start again.  For the all-ones certificate
    ``x0`` is constant, and its record scales the tensor's record of the
    all-ones vector without a pass (see :mod:`mteq.model`).
    """
    tic = time.perf_counter()
    cfg = cfg or SolverConfig()
    part = p.partition
    if part.i_plus.size == 0:
        raise InitializationError(
            "right-hand side has no positive components; only x = 0 could solve this")
    if p.certificate is not None:
        u, sweeps, au = p.certificate, 0, p.A._ones_record()[0]
    else:
        target = p.b if part.i_zero.size == 0 else None
        u, sweeps, au = find_certificate(p.A, rhs=target)
    m = p.m
    # Smallest inflation with t^{m-1} (A u^{m-1})_i >= eps b_i on every
    # component; 1.01 keeps the inequalities strict under rounding.
    t = max(1.0, float(np.max(cfg.eps * p.b / au)) ** (1.0 / (m - 1))) * 1.01
    x0 = t * u
    y0 = hadamard_power(x0, m - 1)
    if not (_in_domain(y0) and in_feasible_split(p, y0, cfg.eps, cfg.eps2)):
        raise InitializationError("constructed point failed the feasibility check")
    return InitialPoint(x0=x0, y0=y0, iterations=sweeps, u=u,
                        elapsed_ms=(time.perf_counter() - tic) * 1e3)
