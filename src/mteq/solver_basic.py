"""The damped Newton iteration shared by both solvers.

Each step solves the Newton system of the transformed residual and then
backtracks along the direction until the trial point stays strictly
positive and finite, remains inside the feasible region and achieves the
descent condition

    ||f(y + alpha d)||^2 <= (1 - 2 sigma alpha) ||f(y)||^2.

Feasibility of every iterate is what keeps the Jacobian an M-matrix and
the iteration well defined all the way to the solution.  The feasibility
test is :func:`mteq.model.in_feasible_split`, which reduces to the plain
``eps * b`` floor when ``b > 0``.  The loop, the start checks, the report
assembly and the backtracking search live here once;
:func:`solve_positive` runs them with the plain ``rho**i`` trials and
:mod:`mteq.solver_extended` with the residual-scaled retry of the unit
step.

Each point is evaluated once (see :mod:`mteq.model`).  The start check
reads the record that :func:`~mteq.initializer.initial_point` left in the
problem's memo; each trial of the line search builds a record, whose
``A x^{m-1}`` feeds the feasibility test and whose Jacobian, when ``b``
has zeros, feeds the zero-row threshold; the accepted trial's record then
gives the next Newton direction.  Every function here takes the point
``y`` and reads its record through the memo, never a caller's copy of
``f``, ``g`` or ``J``.  A trial that rounds back to the current point
ends the search without a step, and the failed solve's message says so.

The Jacobian at the point that ends a solve is never used.  When ``b > 0``
no feasibility test needs it either, and the quadratic rate predicts
that point: after a step from residual ``r_prev`` to ``r``, the next is
about ``r^3 / r_prev^2``.  When that is at most the stop threshold, the
loop evaluates the unit-step trial, the first of every search, without
its Jacobian (:func:`_predicted_final`), and the search finds that record
in the memo.  If the solve goes on after all, the record builds its
Jacobian on first use, with the same bits.
"""

from __future__ import annotations

import time
from typing import NamedTuple

import numpy as np

from .linalg import SingularMatrixError, lu_solve
from .model import (MTeqProblem, SolverConfig, _evaluate, _in_domain,
                    in_feasible_split)
from .report import IterationRecord, SolveReport, SolveStatus
from .tensor import hadamard_power

__all__ = [
    "LineSearchResult",
    "newton_direction",
    "line_search_basic",
    "solve_positive",
    "trial_scale",
]


class LineSearchResult(NamedTuple):
    """An accepted trial; ``y_next`` is read-only."""

    alpha: float
    y_next: np.ndarray
    residual_norm: float
    backtracks: int


def newton_direction(p: MTeqProblem, y) -> np.ndarray:
    """Solve ``J(y) d = -f(y)`` for the Newton direction."""
    point = _evaluate(p, y)
    return lu_solve(point.jacobian(), -point.f)


def trial_scale(residual_norm, c) -> float:
    """Base steplength ``beta`` for retries after a failed unit step."""
    beta = 1.0 - c * float(residual_norm)
    return beta if beta > 0.0 else 1.0


def _steps(cfg: SolverConfig, current_norm, scaled: bool):
    """Yield ``(i, alpha)`` for the trials ``1, beta, beta*rho, ...`` of one
    search, at most ``cfg.max_backtracks`` backtracks.

    ``beta`` is ``rho`` for the plain schedule and
    ``trial_scale(||f(y)||, cfg.c)`` for the scaled one.
    """
    beta = trial_scale(current_norm, cfg.c) if scaled else cfg.rho
    alpha = 1.0
    for i in range(cfg.max_backtracks + 1):
        yield i, alpha
        alpha = beta if i == 0 else alpha * cfg.rho


def _rounds_away(y, yt, alpha, cfg: SolverConfig) -> str:
    """Why the trial ``yt = y + alpha d`` ends its search unevaluated, or
    ``""``: its descent factor ``1 - 2 sigma alpha`` rounds to 1, or it
    rounds to ``y`` itself.  That trial and every shorter one would pass
    the descent test without descending."""
    if 1.0 - 2.0 * cfg.sigma * alpha == 1.0:
        return "the descent factor 1 - 2 sigma alpha rounds to 1"
    if np.array_equal(yt, y):
        return "the trial point rounds to the current point"
    return ""


def _descends(rt, r, alpha, sigma) -> bool:
    """The descent bound ``rt^2 <= (1 - 2 sigma alpha) r^2``."""
    return rt * rt <= (1.0 - 2.0 * sigma * alpha) * (r * r)


def _backtrack(p: MTeqProblem, y, d, cfg: SolverConfig, current_norm,
               scaled: bool) -> LineSearchResult | None:
    """Return the first trial of :func:`_steps` that is positive, finite,
    feasible and descending.

    The search ends with ``None`` after the last trial, or at a trial that
    rounds away (:func:`_rounds_away`); :func:`_search_failure` says
    which.  The accepted trial is the last point evaluated on ``p``, so
    its record stays in the problem's memo.
    """
    if current_norm is None:
        current_norm = float(np.linalg.norm(_evaluate(p, y).f))
    for i, alpha in _steps(cfg, current_norm, scaled):
        yt = y + alpha * d
        if _rounds_away(y, yt, alpha, cfg):
            return None
        if _in_domain(yt):
            trial = _evaluate(p, yt)
            if in_feasible_split(p, trial.y, cfg.eps, cfg.eps2):
                rt = float(np.linalg.norm(trial.f))
                if _descends(rt, current_norm, alpha, cfg.sigma):
                    return LineSearchResult(alpha, trial.y, rt, i)
    return None


def _search_failure(y, d, cfg: SolverConfig, current_norm, scaled: bool,
                    k: int) -> str:
    """The message for a search from ``y`` along ``d`` that accepted no
    trial at iteration ``k``: the trial that rounded away, found by
    replaying the schedule without evaluating anything, or else the
    exhausted backtracks."""
    for i, alpha in _steps(cfg, current_norm, scaled):
        why = _rounds_away(y, y + alpha * d, alpha, cfg)
        if why:
            return (f"line search stopped at iteration {k} after {i} "
                    f"backtracks: {why}")
    return f"line search exhausted {cfg.max_backtracks} backtracks at iteration {k}"


def line_search_basic(p: MTeqProblem, y, d, cfg: SolverConfig,
                      current_norm=None) -> LineSearchResult | None:
    """Largest ``rho**i`` step that keeps the trial feasible and descending.

    Returns ``None`` when no acceptable steplength is found within
    ``cfg.max_backtracks`` backtracks.
    """
    return _backtrack(p, y, d, cfg, current_norm, scaled=False)


def _predicted_final(p: MTeqProblem, y, d, cfg: SolverConfig, r, r_prev,
                     threshold) -> None:
    """Evaluate the search's first trial, the unit step, without its
    Jacobian when ``b > 0`` and the quadratic rate predicts that it ends
    the solve: ``r^3 / r_prev^2 <= threshold`` (see the module
    docstring).  Does nothing where the search would not evaluate that
    trial, or where the trailing indices permute exactly: the Jacobian
    then costs no pass."""
    if (p.partition.i_zero.size or r_prev is None
            or p.A.is_exactly_semi_symmetric()):
        return
    if r * (r / r_prev) ** 2 > threshold:
        return
    _, alpha = next(_steps(cfg, r, scaled=False))
    yt = y + alpha * d
    if _in_domain(yt) and not _rounds_away(y, yt, alpha, cfg):
        _evaluate(p, yt, jacobian=False)


def _stop_threshold(p: MTeqProblem, cfg: SolverConfig) -> float:
    if cfg.relative_stop:
        return cfg.eta * float(np.linalg.norm(p.b))
    return cfg.eta


def _damped_newton(p: MTeqProblem, start, cfg: SolverConfig, line_search, *,
                   start_is_y: bool, mode: str | None = None,
                   refusal: str = "") -> SolveReport:
    """Run the damped Newton loop from ``start`` and assemble the report.

    ``start`` is ``x0``, or ``y0 = x0^{m-1}`` when ``start_is_y`` is set.
    A nonempty ``refusal`` ends the solve before any evaluation with
    ``ASSUMPTION_VIOLATED``, and a start that is not positive, or whose
    ``y`` is not finite, with ``BAD_INITIAL_POINT``.
    ``line_search(p, y, d, cfg, current_norm=r)`` picks each step;
    ``mode`` names its rule in the report, and ``"residual_scaled"`` is
    the scaled schedule of :func:`_steps`.  A step that breaks the descent
    bound ends the solve with ``LINE_SEARCH_FAILURE``.
    """
    threshold = _stop_threshold(p, cfg)
    start = np.asarray(start, dtype=float)

    def stopped(status, x, y, r, message):
        return SolveReport(status, x, y, [], r, r, stop_threshold=threshold,
                           message=message, mode=mode)

    if refusal:
        return stopped(SolveStatus.ASSUMPTION_VIOLATED, start, start,
                       float("nan"), refusal)
    if start.shape != (p.n,) or np.any(start <= 0.0):
        return stopped(SolveStatus.BAD_INITIAL_POINT, start, start,
                       float("nan"), "starting point must be strictly positive")
    with np.errstate(over="ignore"):  # an overflow fails the next test
        y = start if start_is_y else hadamard_power(start, p.m - 1)
    if not np.isfinite(y).all():
        return stopped(SolveStatus.BAD_INITIAL_POINT, start, start, float("nan"),
                       "starting point or its power y = x^{m-1} is not finite")
    point = _evaluate(p, y)
    r = float(np.linalg.norm(point.f))
    if not in_feasible_split(p, y, cfg.eps, cfg.eps2):
        x0 = point.x.copy() if start_is_y else start
        return stopped(SolveStatus.BAD_INITIAL_POINT, x0, y, r,
                       "starting point outside the feasible region")
    r0 = r
    r_prev = None
    trace: list[IterationRecord] = []
    iterates = [point.y.copy()]
    status = SolveStatus.ITERATION_CAP
    message = ""
    for k in range(1, cfg.max_iter + 1):
        if r <= threshold:
            status = SolveStatus.CONVERGED
            break
        tic = time.perf_counter()
        try:
            d = newton_direction(p, point.y)
        except SingularMatrixError as exc:
            status = SolveStatus.LINE_SEARCH_FAILURE
            message = f"singular Jacobian at iteration {k}: {exc}"
            break
        _predicted_final(p, point.y, d, cfg, r, r_prev, threshold)
        step = line_search(p, point.y, d, cfg, current_norm=r)
        if step is None:
            status = SolveStatus.LINE_SEARCH_FAILURE
            message = _search_failure(point.y, d, cfg, r,
                                      mode == "residual_scaled", k)
            break
        if not _descends(step.residual_norm, r, step.alpha, cfg.sigma):
            status = SolveStatus.LINE_SEARCH_FAILURE
            message = (f"line search accepted a step that breaks the descent "
                       f"bound at iteration {k}: alpha {step.alpha!r}, "
                       f"||f|| {r!r} -> {step.residual_norm!r}")
            break
        # the accepted trial was the last point evaluated: a memo hit
        point, r_prev, r = _evaluate(p, step.y_next), r, step.residual_norm
        trace.append(IterationRecord(k, step.alpha, r, step.backtracks, True,
                                     (time.perf_counter() - tic) * 1e3))
        iterates.append(point.y.copy())
    else:
        if r <= threshold:
            status = SolveStatus.CONVERGED
    return SolveReport(status, point.x.copy(), point.y.copy(), trace, r, r0,
                       iterates, stop_threshold=threshold, message=message,
                       mode=mode)


def solve_positive(p: MTeqProblem, x0, cfg: SolverConfig | None = None) -> SolveReport:
    """Solve ``A x^{m-1} = b`` for ``b > 0`` starting from a feasible ``x0``.

    The starting point must be strictly positive, with a finite ``x0^{m-1}``
    and ``A x0^{m-1} >= eps * b``; otherwise the report comes back with
    status ``BAD_INITIAL_POINT``.  Right-hand sides with zero components
    belong to :func:`~mteq.solver_extended.solve_nonnegative`.
    """
    cfg = cfg or SolverConfig()
    if p.partition.i_zero.size:
        raise ValueError(
            "right-hand side has zero components; use solve_nonnegative")
    return _damped_newton(p, x0, cfg, line_search_basic, start_is_y=False)
