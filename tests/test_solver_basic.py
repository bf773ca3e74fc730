"""Damped Newton iteration on problems with strictly positive right-hand sides."""

import numpy as np
import pytest

from mteq import (SingularMatrixError, SolveStatus, SolverConfig, Tensor, hadamard_power,
                  initial_point, line_search_basic, make_problem,
                  newton_direction, residual, solve_nonnegative,
                  solve_positive)
from mteq import solver_basic
from mteq.cli import EXIT_INFEASIBLE, EXIT_OK, main
from mteq.problems import (gen_problem1, gen_problem4, gen_problem5,
                           zero_out_rhs)
from mteq.solver_basic import _predicted_final

from oracles import two_var_bisection

# root of (4.04 I - ones) x^2 = (1, 1), pinned by the nested-bisection
# oracle in oracles.py (which also reproduces it live in
# test_solver_extended.py for the (1, 0) case)
X_ONES = np.array([5.0, 5.0])


def small_problem(b=(1.0, 1.0)):
    dense = -np.ones((2, 2, 2))
    dense[0, 0, 0] += 4.04
    dense[1, 1, 1] += 4.04
    return make_problem(Tensor.from_dense(dense), np.array(b))


def test_identity_solves_in_one_step():
    # the transformed map is affine in y for the identity tensor, so a
    # single Newton correction lands on the root exactly
    p = make_problem(Tensor.identity(4, 2), np.array([8.0, 27.0]))
    ip = initial_point(p)
    rep = solve_positive(p, ip.x0)
    assert rep.converged and rep.iterations == 1
    assert np.allclose(rep.x_final, [2.0, 3.0], rtol=1e-12, atol=0)


def test_newton_direction_identity():
    p = make_problem(Tensor.identity(4, 2), np.array([8.0, 27.0]))
    y = np.ones(2)
    # f(y) = y - b and f'(y) = I, so d = b - y
    d = newton_direction(p, y)
    assert np.allclose(d, [7.0, 26.0], rtol=1e-13, atol=0)


def test_small_dense_matches_oracle():
    p = small_problem()
    rep = solve_positive(p, initial_point(p).x0)
    assert rep.converged
    assert np.allclose(rep.x_final, X_ONES, rtol=0, atol=1e-10)
    oracle = two_var_bisection(p.A.to_dense_array(), p.b)
    assert np.allclose(rep.x_final, oracle, rtol=0, atol=1e-8)


def test_rejects_zero_rhs_components():
    p = small_problem(b=(1.0, 0.0))
    with pytest.raises(ValueError):
        solve_positive(p, np.ones(2))


def test_bad_initial_point_status():
    p = small_problem()
    rep = solve_positive(p, np.array([1.0, -1.0]))
    assert rep.status is SolveStatus.BAD_INITIAL_POINT
    # strictly positive but outside the feasible cone
    rep = solve_positive(p, np.array([1e-3, 1e-3]))
    assert rep.status is SolveStatus.BAD_INITIAL_POINT
    assert rep.iterations == 0 and not rep.converged


@pytest.mark.parametrize("value", [np.nan, np.inf, 1e200])
def test_non_finite_start_is_refused_before_evaluation(value):
    # NaN and inf pass a test for x <= 0, and 1e200 overflows in x^2;
    # none may reach the tensor (nor warn there)
    p = gen_problem1(3, 5, 0)
    x0 = np.ones(5)
    x0[0] = value
    runs = [solve_positive(p, x0)]
    if not np.isfinite(value):
        runs.append(solve_nonnegative(p, x0))  # x0 read as y0
    for rep in runs:
        assert rep.status is SolveStatus.BAD_INITIAL_POINT
        assert rep.message == "starting point or its power y = x^{m-1} is not finite"
        assert rep.iterations == 0
    assert p._memo is None


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_line_search_skips_a_non_finite_trial(value):
    p = gen_problem4(3, 5, 0)
    cfg = SolverConfig()
    y = initial_point(p, cfg).y0
    start = p._memo
    d = newton_direction(p, y)
    d[0] = value  # every trial y + alpha d has that entry
    assert line_search_basic(p, y, d, cfg) is None
    # the prediction of the final point skips it too
    _predicted_final(p, y, d, cfg, 1e-30, 1.0, 1.0)
    assert p._memo is start


def test_iteration_cap_status():
    p = gen_problem1(3, 10, 0)
    cfg = SolverConfig(max_iter=1, eta=1e-14)
    rep = solve_positive(p, initial_point(p, cfg).x0, cfg)
    assert rep.status is SolveStatus.ITERATION_CAP
    assert rep.iterations == 1


def test_convergence_on_the_last_allowed_iteration_is_not_a_cap():
    p = gen_problem1(3, 10, 0)
    x0 = initial_point(p).x0
    free = solve_positive(p, x0)
    k = free.iterations
    assert free.converged and k >= 1
    rep = solve_positive(p, x0, SolverConfig(max_iter=k))
    assert rep.status is SolveStatus.CONVERGED and rep.iterations == k
    assert rep.x_final.tobytes() == free.x_final.tobytes()


def test_singular_jacobian_stops_the_solve(tmp_path, monkeypatch, capsys):
    def singular(*args, **kwargs):
        raise SingularMatrixError("zero pivot")

    monkeypatch.setattr(solver_basic, "lu_solve", singular)
    p = gen_problem1(3, 8, 0)
    rep = solve_positive(p, initial_point(p).x0)
    assert rep.status is SolveStatus.LINE_SEARCH_FAILURE
    assert rep.message == "singular Jacobian at iteration 1: zero pivot"
    assert rep.iterations == 0
    out = tmp_path / "p1"
    assert main(["gen", "--problem", "1", "--n", "8", "--out", str(out)]) == EXIT_OK
    assert main(["solve", str(out / "tensor.mt"), str(out / "rhs.vec"),
                 "--solution", str(tmp_path / "x.vec")]) == EXIT_INFEASIBLE
    assert "singular Jacobian at iteration 1" in capsys.readouterr().out


def test_line_search_accepts_unit_step_near_solution():
    p = small_problem()
    y = hadamard_power(X_ONES * 1.05, 2)
    f = residual(p, y)
    d = newton_direction(p, y)
    cfg = SolverConfig()
    step = line_search_basic(p, y, d, cfg)
    assert step.alpha == 1.0 and step.backtracks == 0
    assert step.residual_norm ** 2 <= (1 - 2 * cfg.sigma) * np.linalg.norm(f) ** 2


def test_line_search_backtracks_on_overlong_direction():
    p = gen_problem1(3, 10, 0)
    cfg = SolverConfig()
    y = initial_point(p, cfg).y0
    f = residual(p, y)
    d = newton_direction(p, y)
    step = line_search_basic(p, y, 3.0 * d, cfg)
    # tripling the Newton step overshoots; two halvings recover descent
    assert step.alpha == 0.25 and step.backtracks == 2
    assert step.residual_norm < np.linalg.norm(f)
    assert np.array_equal(step.y_next, y + step.alpha * 3.0 * d)


def test_line_search_fails_on_ascent_direction():
    p = small_problem()
    y = hadamard_power(X_ONES * 1.05, 2)
    f = residual(p, y)
    # walking along +f increases the residual at every scale on this ray
    assert line_search_basic(p, y, f.copy(), SolverConfig(max_backtracks=20)) is None


def test_trace_integrity():
    p = gen_problem1(3, 12, 3)
    cfg = SolverConfig()
    rep = solve_positive(p, initial_point(p, cfg).x0, cfg)
    assert rep.converged
    assert [r.k for r in rep.trace] == list(range(1, rep.iterations + 1))
    assert all(r.feasible for r in rep.trace)
    assert len(rep.iterates) == len(rep.trace) + 1
    path = rep.residual_path()
    assert path[0] == rep.initial_residual
    assert path[-1] == rep.final_residual
    assert all(b < a for a, b in zip(path, path[1:]))
    # recorded norms are reproducible from the recorded iterates
    for rec, y in zip(rep.trace, rep.iterates[1:]):
        assert np.linalg.norm(residual(p, y)) == rec.residual_norm


@pytest.mark.parametrize("gen", [gen_problem1, gen_problem4, gen_problem5])
def test_every_accepted_step_meets_the_descent_bound(gen):
    # ||f(y_k)||^2 <= (1 - 2 sigma alpha_k) ||f(y_{k-1})||^2, with the
    # norms recomputed from the recorded iterates
    cfg = SolverConfig()
    steps = 0
    for m, n in ((3, 20), (4, 7)):
        for seed in range(3):
            p = gen(m, n, seed)
            zeroed = make_problem(p.A, zero_out_rhs(p.b, seed, keep=(0,)),
                                  omega=p.omega)
            init = initial_point(p, cfg)
            reports = [solve_nonnegative(zeroed, initial_point(zeroed, cfg).y0, cfg),
                       solve_nonnegative(p, init.y0, cfg)]
            if gen is not gen_problem5:
                reports.append(solve_positive(p, init.x0, cfg))
            for q, rep in zip((zeroed, p, p), reports):
                assert rep.converged, rep.message
                norms = [float(np.linalg.norm(residual(q, y)))
                         for y in rep.iterates]
                assert norms[0] == rep.initial_residual
                for rec, before, after in zip(rep.trace, norms, norms[1:]):
                    assert after == rec.residual_norm
                    bound = (1.0 - 2.0 * cfg.sigma * rec.alpha) * (before * before)
                    assert after * after <= bound
                    steps += 1
    assert steps > 20
