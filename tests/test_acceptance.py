"""End-to-end acceptance runs.

Each test here exercises one externally meaningful guarantee of the
package on fixed seeded ensembles, records a PASS/FAIL line (echoed in
the terminal summary), and asserts it.  The feasibility/descent invariant
is re-checked for every iteration of every run launched from this module,
immediately after each solve so that large instances can be released.
"""

import time
from dataclasses import dataclass, field

import numpy as np
import pytest

from mteq import (SolverConfig, Tensor, check_assumption, estimate_order,
                  in_feasible_split, initial_point, make_problem, residual,
                  residual_jacobian, solve, solve_positive, write_tensor)
from mteq.cli import EXIT_INFEASIBLE, main as cli_main
from mteq.initializer import InitializationError
from mteq.problems import (gen_problem1, gen_problem2, gen_problem3,
                           gen_problem4, gen_problem5, zero_out_rhs)
from mteq.report import SolveStatus

from oracles import fd_jacobian, two_var_bisection

SEEDS = range(20)

CRITERIA_RESULTS = {}


def _record(num, ok, summary):
    CRITERIA_RESULTS[num] = (bool(ok), summary)
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {summary}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# invariant bookkeeping (criterion 7 aggregates this)

@dataclass
class WalkStats:
    runs: int = 0
    iterations: int = 0
    violations: list = field(default_factory=list)


WALK = WalkStats()


def _walk_invariants(p, cfg, rep):
    """Re-check feasibility and logged descent for every iteration."""
    WALK.runs += 1
    prev = rep.initial_residual
    for rec, y_next in zip(rep.trace, rep.iterates[1:]):
        WALK.iterations += 1
        feasible = in_feasible_split(p, y_next, cfg.eps, cfg.eps2)
        if not (rec.feasible and feasible):
            WALK.violations.append(f"iterate {rec.k} infeasible")
        if not rec.residual_norm ** 2 <= (1.0 - 2.0 * cfg.sigma * rec.alpha) * prev ** 2:
            WALK.violations.append(f"iterate {rec.k} breaks the descent bound")
        prev = rec.residual_norm


def _solve_and_walk(p, cfg):
    rep = solve(p, cfg)
    _walk_invariants(p, cfg, rep)
    return rep.start, rep


def small_dense_tensor():
    dense = -np.ones((2, 2, 2))
    dense[0, 0, 0] += 4.04
    dense[1, 1, 1] += 4.04
    return Tensor.from_dense(dense)


# ---------------------------------------------------------------------------
# 1. Jacobian of the transformed residual vs central differences

def test_criterion_1_jacobian():
    t0 = time.perf_counter()
    gens = [gen_problem1, lambda m, n, s: gen_problem2(m, n, seed=s), gen_problem4]
    worst = 0.0
    worst_id = 0.0
    rng = np.random.default_rng(12345)
    for gen in gens:
        for m, n in ((3, 10), (4, 6)):
            for seed in range(5):
                p = gen(m, n, seed)
                y = rng.uniform(0.5, 2.0, size=n)
                J = residual_jacobian(p, y)
                J_fd = fd_jacobian(lambda v: residual(p, v), y, h=1e-6)
                scale = max(1.0, np.abs(J).max())
                worst = max(worst, np.abs(J - J_fd).max() / scale)
    # Euler identity at 50 random positive points
    p = gen_problem1(3, 10, 0)
    tol_id = 1e-12 * (1.0 + np.linalg.norm(p.b))
    for _ in range(50):
        y = rng.uniform(0.1, 3.0, size=10)
        gap = residual_jacobian(p, y) @ y - (residual(p, y) + p.b)
        worst_id = max(worst_id, np.abs(gap).max())
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and worst_id <= tol_id and elapsed < 10.0
    _record(1, ok,
            f"Jacobian vs central differences on 30 instances: max rel err "
            f"{worst:.2e} (tol 1e-6); Euler identity gap {worst_id:.2e} "
            f"(tol {tol_id:.1e}); {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. small-instance oracle equivalence

def test_criterion_2_oracle():
    t0 = time.perf_counter()
    A = small_dense_tensor()
    p1 = make_problem(A, np.array([1.0, 1.0]))
    rep1 = solve(p1)
    err_ones = np.abs(rep1.x_final - 5.0).max()

    p2 = make_problem(A, np.array([1.0, 0.0]))
    rep2 = solve(p2)
    oracle = two_var_bisection(A.to_dense_array(), p2.b)
    err_mixed = np.abs(rep2.x_final - oracle).max()
    elapsed = time.perf_counter() - t0
    ok = (rep1.converged and err_ones <= 1e-10
          and rep2.converged and err_mixed <= 1e-8
          and rep2.x_final.min() > 0.0 and elapsed < 1.0)
    _record(2, ok,
            f"b=(1,1) -> (5,5) within {err_ones:.1e} (tol 1e-10); b=(1,0) vs "
            f"bisection within {err_mixed:.1e} (tol 1e-8), x > 0; {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. iteration-count reproduction for the dense families

@pytest.fixture(scope="module")
def table_runs():
    t0 = time.perf_counter()
    cfg = SolverConfig()
    means = {}
    converged = True
    for name, gen in (("P1", gen_problem1),
                      ("P2", lambda m, n, s: gen_problem2(m, n, seed=s)),
                      ("P4", gen_problem4)):
        for n in (50, 200):
            iters = []
            for seed in SEEDS:
                p = gen(3, n, seed)
                _, rep = _solve_and_walk(p, cfg)
                converged = converged and rep.converged
                iters.append(rep.iterations)
            means[f"{name}(3,{n})"] = float(np.mean(iters))
    return means, converged, time.perf_counter() - t0


def test_criterion_3_iteration_tables(table_runs):
    means, converged, elapsed = table_runs
    in_band = all(2.0 <= v <= 4.0 for v in means.values())
    ok = converged and in_band and elapsed < 120.0
    pretty = ", ".join(f"{k}={v:.2f}" for k, v in means.items())
    _record(3, ok, f"mean Newton iterations {pretty} (band [2,4], 100% "
                   f"convergence); {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. boundary-value family with the splitting initializer

def test_criterion_4_boundary_value_problem():
    t0 = time.perf_counter()
    cfg = SolverConfig(relative_stop=True)
    p = gen_problem3(40)
    ip, rep = _solve_and_walk(p, cfg)
    rel = rep.final_residual / np.linalg.norm(p.b)
    # sensitivity to the boundary constants: reported, not asserted
    sensitivity = []
    for c0, c1 in ((2e7, 1e7), (1e7, 5e7)):
        q = gen_problem3(40, c0=c0, c1=c1)
        _, rq = _solve_and_walk(q, cfg)
        sensitivity.append(f"c0={c0:.0e},c1={c1:.0e}: {rq.iterations}")
    elapsed = time.perf_counter() - t0
    ok = rep.converged and rep.iterations <= 3 and rel <= 1e-10 and elapsed < 30.0
    _record(4, ok,
            f"n=40 converged in {rep.iterations} Newton iteration(s) after "
            f"{ip.steps} certificate step(s) and {ip.iterations} splitting "
            f"sweeps, relative residual {rel:.1e}; "
            f"sensitivity [{'; '.join(sensitivity)}]; {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. extended method on half-zeroed right-hand sides

@pytest.fixture(scope="module")
def extended_runs():
    t0 = time.perf_counter()
    cfg = SolverConfig()
    iters, all_ok = [], True
    for gen in (gen_problem1, lambda m, n, s: gen_problem2(m, n, seed=s), gen_problem4):
        for seed in SEEDS:
            p0 = gen(3, 50, seed)
            p = make_problem(p0.A, zero_out_rhs(p0.b, seed=seed))
            _, rep = _solve_and_walk(p, cfg)
            all_ok = (all_ok and rep.converged and rep.x_final.min() > 0.0
                      and rep.final_residual <= 1e-10)
            iters.append(rep.iterations)
    return float(np.mean(iters)), all_ok, time.perf_counter() - t0


def test_criterion_5_extended_method(extended_runs):
    mean_iters, all_ok, elapsed = extended_runs
    ok = all_ok and mean_iters <= 6.0 and elapsed < 120.0
    _record(5, ok,
            f"60 half-zeroed solves converged with positive x, mean "
            f"{mean_iters:.2f} iterations (cap 6); {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. quadratic-rate signature on the final residual triple

def test_criterion_6_convergence_order():
    # size 10 keeps at least three Newton corrections above the rounding
    # floor of double precision; at larger sizes the final logged
    # contraction is truncated by the floor and the ratio underestimates
    # the true rate
    t0 = time.perf_counter()
    cfg = SolverConfig(eta=1e-12)
    good, orders = 0, []
    for seed in SEEDS:
        p = gen_problem1(3, 10, seed)
        _, rep = _solve_and_walk(p, cfg)
        q = estimate_order(rep)
        if rep.converged and q is not None and q >= 1.5:
            good += 1
        if q is not None:
            orders.append(q)
    elapsed = time.perf_counter() - t0
    ok = good >= 16
    _record(6, ok,
            f"order estimate >= 1.5 on {good}/20 runs (need 16); median "
            f"{np.median(orders):.2f}; {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 7. feasibility and logged-descent invariants across all runs above

def test_criterion_7_invariants(table_runs, extended_runs):
    # the fixtures and the direct criteria have all walked their runs by
    # now; this aggregates every recorded iteration
    ok = WALK.iterations > 0 and not WALK.violations
    detail = "; ".join(WALK.violations[:3]) if WALK.violations else "none"
    _record(7, ok,
            f"{WALK.iterations} iterations across {WALK.runs} runs re-checked "
            f"for feasibility and the descent bound; violations: {detail}")


# ---------------------------------------------------------------------------
# 8. the non-dominant family needs the splitting initializer

def test_criterion_8_splitting_initializer_family():
    t0 = time.perf_counter()
    cfg = SolverConfig()
    iters, steps, sweeps = [], [], []
    converged = True
    for seed in SEEDS:
        p = gen_problem5(3, 50, seed)
        ip, rep = _solve_and_walk(p, cfg)
        converged = converged and rep.converged
        iters.append(rep.iterations)
        steps.append(ip.steps)
        sweeps.append(ip.iterations)
    elapsed = time.perf_counter() - t0
    mean_iters = float(np.mean(iters))
    ok = converged and 2.0 <= mean_iters <= 5.0 and elapsed < 60.0
    _record(8, ok,
            f"mean {mean_iters:.2f} Newton iterations (band [2,5]) after "
            f"mean {np.mean(steps):.1f} certificate steps and "
            f"{np.mean(sweeps):.1f} sweeps; {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 9. failure semantics for a tensor that is not a strong M-tensor

def test_criterion_9_failure_semantics(tmp_path):
    dense = -np.ones((2, 2, 2))
    dense[0, 0, 0] += 1.0  # shift 1 < spectral radius 4 of the ones part
    dense[1, 1, 1] += 1.0
    weak = Tensor.from_dense(dense)
    path = tmp_path / "weak.mt"
    write_tensor(path, weak)
    verify_code = cli_main(["verify", str(path)])

    p = make_problem(weak, np.array([1.0, 1.0]))
    # the initializer refuses: the splitting has a zero diagonal
    try:
        initial_point(p)
        init_refused = False
    except InitializationError:
        init_refused = True
    # a direct solve attempt from an arbitrary point fails in a structured
    # way instead of crashing or looping
    rep = solve_positive(p, np.ones(2), SolverConfig(max_iter=300))
    structured = rep.status in (SolveStatus.BAD_INITIAL_POINT,
                                SolveStatus.LINE_SEARCH_FAILURE,
                                SolveStatus.ITERATION_CAP)
    ok = verify_code == EXIT_INFEASIBLE and init_refused and structured
    _record(9, ok,
            f"verify exits {verify_code} (want {EXIT_INFEASIBLE}); initializer "
            f"refused: {init_refused}; solve status {rep.status.name}")


# ---------------------------------------------------------------------------
# 10. the boundary-value family at a size plain Jacobi sweeps cannot reach

def test_criterion_10_large_boundary_value_problem():
    # plain Jacobi sweeps ran out of their 100,000-sweep cap at n=160
    t0 = time.perf_counter()
    cfg = SolverConfig(relative_stop=True)
    worst, runs = 0.0, []
    converged = True
    for c0, c1 in ((1e7, 1e7), (2e7, 1e7), (1e7, 5e7)):
        p = gen_problem3(160, c0=c0, c1=c1)
        ip, rep = _solve_and_walk(p, cfg)
        converged = converged and rep.converged
        worst = max(worst, rep.final_residual / np.linalg.norm(p.b))
        runs.append(f"c0={c0:.0e},c1={c1:.0e}: {ip.steps} certificate step(s), "
                    f"{ip.iterations} sweeps, {rep.iterations} Newton")
    elapsed = time.perf_counter() - t0
    ok = converged and worst <= 1e-10 and elapsed < 30.0
    _record(10, ok,
            f"n=160 converged for all three boundary pairs, worst relative "
            f"residual {worst:.1e} (tol 1e-10) [{'; '.join(runs)}]; {elapsed:.1f}s")
