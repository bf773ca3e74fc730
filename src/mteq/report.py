"""Iteration records, solve reports, trace export and order estimation."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .initializer import InitialPoint

__all__ = [
    "SolveStatus",
    "IterationRecord",
    "SolveReport",
    "write_trace_csv",
    "estimate_order",
]


class SolveStatus(Enum):
    CONVERGED = "converged"
    ITERATION_CAP = "iteration_cap"
    LINE_SEARCH_FAILURE = "line_search_failure"
    BAD_INITIAL_POINT = "bad_initial_point"
    ASSUMPTION_VIOLATED = "assumption_violated"


@dataclass
class IterationRecord:
    """One accepted Newton step.

    ``residual_norm`` is the Euclidean norm of the transformed residual at
    the new iterate, stored with the exact float the line search compared,
    so the logged descent inequality can be re-verified bit for bit.
    """

    k: int
    alpha: float
    residual_norm: float
    backtracks: int
    feasible: bool
    elapsed_ms: float


@dataclass
class SolveReport:
    """Outcome of a solve, including the full iteration trace.

    ``iterates`` keeps every accepted transformed iterate (including the
    starting point), which is cheap at the scales this library targets and
    lets tests re-check feasibility of the whole path.  ``start`` is the
    start that :func:`mteq.solve` built, else ``None``.
    """

    status: SolveStatus
    x_final: np.ndarray
    y_final: np.ndarray
    trace: list[IterationRecord]
    final_residual: float
    initial_residual: float
    iterates: list[np.ndarray] = field(default_factory=list)
    stop_threshold: float = 0.0
    message: str = ""
    mode: str | None = None
    start: InitialPoint | None = None

    @property
    def converged(self) -> bool:
        return self.status is SolveStatus.CONVERGED

    @property
    def iterations(self) -> int:
        return len(self.trace)

    def residual_path(self) -> list[float]:
        """Residual norms along the run, starting at the initial point."""
        return [self.initial_residual] + [r.residual_norm for r in self.trace]


def write_trace_csv(report: SolveReport, path) -> None:
    """Write the per-iteration trace.

    Columns are ``k,alpha,residual,backtracks,feasible,elapsed_ms``, plus a
    trailing ``mode`` column when the report carries a line-search mode.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["k", "alpha", "residual", "backtracks", "feasible", "elapsed_ms"]
        if report.mode is not None:
            header.append("mode")
        writer.writerow(header)
        for rec in report.trace:
            row = [rec.k, f"{rec.alpha:.17g}", f"{rec.residual_norm:.17g}",
                   rec.backtracks, str(rec.feasible).lower(),
                   f"{rec.elapsed_ms:.6g}"]
            if report.mode is not None:
                row.append(report.mode)
            writer.writerow(row)


def estimate_order(trace) -> float | None:
    """Convergence-order estimate from the last three residuals.

    Accepts a :class:`SolveReport` (whose residual path includes the
    initial point) or a plain sequence of residual norms.  Returns
    ``log(r_K/r_{K-1}) / log(r_{K-1}/r_{K-2})`` or ``None`` when fewer
    than three values are available, any of the last three is nonpositive
    or nonfinite, or the residuals are not strictly decreasing there.
    """
    if isinstance(trace, SolveReport):
        values = trace.residual_path()
    else:
        values = [float(t) for t in trace]
    if len(values) < 3:
        return None
    r0, r1, r2 = values[-3:]
    for r in (r0, r1, r2):
        if not math.isfinite(r) or r <= 0.0:
            return None
    if not (r0 > r1 > r2):
        return None
    # r0 > r1 > 0 gives fl(r1/r0) <= 1 - 2^-53, whose log is negative
    return math.log(r2 / r1) / math.log(r1 / r0)
