"""Damped Newton iteration for right-hand sides with zero components.

The loop is the one of :mod:`mteq.solver_basic`, run on an
index-partitioned feasible set with a different step rule.  Feasibility is
judged per index block: rows with ``b_i > 0`` keep the ``eps * b`` floor,
rows with ``b_i = 0`` compare against the Jacobian-derived threshold of
:func:`mteq.model.zero_block_threshold`.

The default step rule retries the unit step scaled by ``1 - c * ||f(y)||``
after a failed unit trial.  Near the solution that scale tends to 1, so
full Newton steps are recovered and the quadratic convergence rate
survives the damping.  ``SolverConfig.plain_steps`` selects the plain
``rho**i`` trials of the basic solver instead.
"""

from __future__ import annotations

from .model import MTeqProblem, SolverConfig
from .report import SolveReport
from .solver_basic import (LineSearchResult, _backtrack, _damped_newton,
                           trial_scale)

__all__ = [
    "trial_scale",
    "line_search_extended",
    "solve_nonnegative",
]


def line_search_extended(p: MTeqProblem, y, d, cfg: SolverConfig,
                         current_norm=None) -> LineSearchResult | None:
    """Backtracking search under the split feasibility test.

    Trials are ``1, beta, beta*rho, ...`` with ``beta = trial_scale(||f(y)||,
    cfg.c)``, or the plain ``rho**i`` when ``cfg.plain_steps`` is set.
    """
    return _backtrack(p, y, d, cfg, current_norm, scaled=not cfg.plain_steps)


def solve_nonnegative(p: MTeqProblem, y0, cfg: SolverConfig | None = None) -> SolveReport:
    """Solve ``A x^{m-1} = b`` for ``b >= 0`` from a transformed start ``y0``.

    Refuses outright (status ``ASSUMPTION_VIOLATED``) when some zero-indexed
    row has no nonzero entry coupling it to the positive index set, since no
    positive solution can exist then.  The starting point must satisfy the
    split feasibility test, else ``BAD_INITIAL_POINT``.  The report's
    ``mode`` is ``"plain"`` or ``"residual_scaled"``.
    """
    cfg = cfg or SolverConfig()
    assumption = p.assumption
    refusal = "" if assumption.ok else (
        "zero-indexed rows without coupling entries: "
        + ", ".join(str(i + 1) for i in assumption.missing))
    mode = "plain" if cfg.plain_steps else "residual_scaled"
    return _damped_newton(p, y0, cfg, line_search_extended, start_is_y=True,
                          mode=mode, refusal=refusal)
