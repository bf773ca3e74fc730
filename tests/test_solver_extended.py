"""Newton iteration with index-partitioned feasibility for b >= 0."""

import numpy as np
import pytest

from mteq import (SolveStatus, SolverConfig, Tensor, initial_point,
                  line_search_basic, line_search_extended, make_problem,
                  newton_direction, residual, solve_nonnegative,
                  solve_positive, trial_scale)
from mteq import solver_basic
from mteq.problems import gen_problem1, zero_out_rhs

from oracles import two_var_bisection

# root of (4.04 I - ones) x^2 = (1, 0): second component stays positive
# even though its equation row is homogeneous
X_B10 = np.array([3.548669034952, 3.513620236615])


def small_problem(b=(1.0, 0.0)):
    dense = -np.ones((2, 2, 2))
    dense[0, 0, 0] += 4.04
    dense[1, 1, 1] += 4.04
    return make_problem(Tensor.from_dense(dense), np.array(b))


def test_zero_component_matches_bisection_oracle():
    p = small_problem()
    rep = solve_nonnegative(p, initial_point(p).y0)
    assert rep.converged
    assert rep.x_final.min() > 0.0
    assert np.allclose(rep.x_final, X_B10, rtol=0, atol=1e-8)
    live = two_var_bisection(p.A.to_dense_array(), p.b)
    assert np.allclose(rep.x_final, live, rtol=0, atol=1e-8)


def test_mode_recorded_in_report():
    p = small_problem()
    y0 = initial_point(p).y0
    assert solve_nonnegative(p, y0).mode == "residual_scaled"


def test_trial_scale():
    assert trial_scale(0.3, 1.0) == pytest.approx(0.7)
    assert trial_scale(0.0, 1.0) == 1.0
    # residual at or above 1/c would zero the scale; rule resets to 1
    assert trial_scale(1.0, 1.0) == 1.0
    assert trial_scale(5.0, 1.0) == 1.0
    assert trial_scale(0.5, 0.5) == pytest.approx(0.75)


def test_scaled_retry_follows_failed_unit_step():
    p = small_problem()
    y = initial_point(p).y0
    r = float(np.linalg.norm(residual(p, y)))
    # twice the Newton direction overshoots, so the unit trial fails
    d = 2.0 * newton_direction(p, y)
    cfg = SolverConfig()
    hit = line_search_extended(p, y, d, cfg)
    assert hit.backtracks == 1
    assert hit.alpha == trial_scale(r, cfg.c)
    assert hit.alpha != cfg.rho


def test_search_along_ascent_direction_fails_instead_of_standing_still():
    # with 60 backtracks the trials shrink until y + alpha d rounds to y
    # (b = (1, 0)) or 1 - 2 sigma alpha rounds to 1 (b = (1, 1)); either
    # way the descent test would hold with equality
    for b in ((1.0, 0.0), (1.0, 1.0)):
        p = small_problem(b)
        y = initial_point(p).y0
        d = -newton_direction(p, y)
        assert line_search_basic(p, y, d, SolverConfig()) is None
        assert line_search_extended(p, y, d, SolverConfig()) is None


def test_solve_along_ascent_directions_ends_in_line_search_failure(monkeypatch):
    newton = solver_basic.newton_direction
    monkeypatch.setattr(solver_basic, "newton_direction",
                        lambda *args, **kwargs: -newton(*args, **kwargs))
    p = small_problem()
    rep = solve_nonnegative(p, initial_point(p).y0)
    assert rep.status is SolveStatus.LINE_SEARCH_FAILURE
    assert rep.iterations == 0


@pytest.mark.parametrize("b", [(1.0, 0.0), (1.0, 1.0)])
def test_failed_search_names_the_real_reason(monkeypatch, b):
    newton = solver_basic.newton_direction
    p = small_problem(b)
    start = initial_point(p).y0

    def solve(scale, cfg):
        monkeypatch.setattr(solver_basic, "newton_direction",
                            lambda *args, **kwargs: scale * newton(*args, **kwargs))
        return solve_nonnegative(p, start, cfg)

    # along an ascent direction the trials shrink until the descent factor
    # rounds to 1, well before the 60th backtrack
    rep = solve(-1.0, SolverConfig())
    assert rep.status is SolveStatus.LINE_SEARCH_FAILURE
    head, why = rep.message.split(": ")
    assert head.startswith("line search stopped at iteration 1 after ")
    assert int(head.split()[-2]) < SolverConfig().max_backtracks
    assert why == "the descent factor 1 - 2 sigma alpha rounds to 1"
    # a direction too short to move y stops at the unit trial
    rep = solve(1e-20, SolverConfig())
    assert rep.status is SolveStatus.LINE_SEARCH_FAILURE
    assert rep.message == ("line search stopped at iteration 1 after 0 "
                           "backtracks: the trial point rounds to the current point")
    # a search that runs out of trials still says so
    rep = solve(-1.0, SolverConfig(max_backtracks=20))
    assert rep.message == "line search exhausted 20 backtracks at iteration 1"


def test_step_that_breaks_the_descent_bound_ends_the_solve():
    # the loop checks the bound itself rather than trusting its line
    # search (it is not an assert, so python -O keeps it)
    p = small_problem((1.0, 1.0))
    y0 = initial_point(p).y0

    def uphill(q, y, d, cfg, current_norm=None):
        step = line_search_extended(q, y, d, cfg, current_norm=current_norm)
        return step._replace(residual_norm=2.0 * current_norm)
    rep = solver_basic._damped_newton(p, y0, SolverConfig(), uphill,
                                      start_is_y=True)
    assert rep.status is SolveStatus.LINE_SEARCH_FAILURE
    assert rep.iterations == 0
    assert "breaks the descent bound at iteration 1" in rep.message


def test_assumption_violation_is_structured():
    # diagonal tensor with a zeroed row: that row couples to nothing in I+
    p = make_problem(Tensor.identity(3, 2), np.array([1.0, 0.0]))
    rep = solve_nonnegative(p, np.ones(2))
    assert rep.status is SolveStatus.ASSUMPTION_VIOLATED
    assert rep.iterations == 0
    assert "2" in rep.message  # offending row, 1-based


def test_bad_initial_point():
    p = small_problem()
    rep = solve_nonnegative(p, np.array([1.0, 0.0]))
    assert rep.status is SolveStatus.BAD_INITIAL_POINT
    rep = solve_nonnegative(p, np.array([1e-8, 1e-8]))
    assert rep.status is SolveStatus.BAD_INITIAL_POINT


def test_zeroed_rhs_ensemble_stays_positive():
    for seed in range(5):
        p0 = gen_problem1(3, 20, seed)
        b = zero_out_rhs(p0.b, seed=seed)
        p = make_problem(p0.A, b)
        rep = solve_nonnegative(p, initial_point(p).y0)
        assert rep.converged, rep.status
        assert rep.x_final.min() > 0.0
        assert rep.final_residual <= 1e-10
        assert all(r.feasible for r in rep.trace)


def test_positive_rhs_accepted_by_extended_path():
    p = gen_problem1(3, 8, 1)
    rep = solve_nonnegative(p, initial_point(p).y0)
    assert rep.converged
    check = solve_positive(p, initial_point(p).x0)
    assert np.allclose(rep.x_final, check.x_final, rtol=1e-10, atol=0)
