"""Tests of the benchmark's own checks: correct answers pass, a perturbed
solution and an infeasible iterate are rejected.

    python3 -m pytest perfbench/selftest.py
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import mteq  # noqa: E402
from mteq.cli import main as cli_main  # noqa: E402

CFG = mteq.SolverConfig()


def _solve(p, cfg=CFG):
    init = mteq.initial_point(p, cfg)
    if p.partition.i_zero.size:
        return mteq.solve_nonnegative(p, init.y0, cfg)
    return mteq.solve_positive(p, init.x0, cfg)


@pytest.fixture(scope="module")
def solved():
    p = mteq.gen_problem1(3, 12, 7)
    p = mteq.make_problem(p.A, mteq.zero_out_rhs(p.b, 7), omega=p.omega)
    return p, checks.dense_contraction(p.A.to_dense_array()), _solve(p)


def test_correct_report_passes(solved):
    p, contract, rep = solved
    checks.check_report(contract, p.b, p.m, rep, CFG)


def test_perturbed_solution_is_rejected(solved):
    p, contract, rep = solved
    with pytest.raises(checks.CheckFailure, match="residual"):
        checks.check_solution(contract, p.b, rep.x_final * (1 + 1e-6), CFG.eta)


def test_nonpositive_solution_is_rejected(solved):
    p, contract, rep = solved
    x = rep.x_final.copy()
    x[np.flatnonzero(p.b == 0.0)[0]] = 0.0
    with pytest.raises(checks.CheckFailure, match="nonpositive"):
        checks.check_solution(contract, p.b, x, CFG.eta)


def test_infeasible_iterate_is_rejected(solved):
    p, contract, rep = solved
    iterates = list(rep.iterates)
    iterates[1] = iterates[1] * 0.01  # A x^{m-1} drops to a hundredth
    bad = dataclasses.replace(rep, iterates=iterates)
    with pytest.raises(checks.CheckFailure, match="eps\\*b"):
        checks.check_report(contract, p.b, p.m, bad, CFG)


def test_missed_descent_is_rejected(solved):
    p, contract, rep = solved
    y0 = rep.iterates[0]
    with pytest.raises(checks.CheckFailure, match="descent"):
        checks.check_path(contract, p.b, [y0, y0], [1.0], p.m, CFG.eps, CFG.sigma)


def test_stencil_relative_residual():
    cfg = mteq.SolverConfig(relative_stop=True)
    p = mteq.gen_problem3(12)
    rep = _solve(p, cfg)
    contract = checks.coo_contraction(p.A.coo_indices, p.A.coo_values, p.n)
    checks.check_report(contract, p.b, p.m, rep, cfg)
    with pytest.raises(checks.CheckFailure, match="residual"):
        checks.check_solution(contract, p.b, rep.x_final * (1 + 1e-6), cfg.eta,
                              relative=True)


def test_forward_substitution_on_triangular_tensor():
    p = mteq.gen_problem5(3, 15, 3)
    p = mteq.make_problem(p.A, mteq.zero_out_rhs(p.b, 3, keep=(0,)), omega=p.omega)
    rep = _solve(p)
    a = p.A.to_dense_array()
    checks.check_triangular(a, p.b, rep.x_final)
    with pytest.raises(checks.CheckFailure, match="forward substitution"):
        checks.check_triangular(a, p.b, rep.x_final * (1 + 1e-6))
    with pytest.raises(checks.CheckFailure, match="not triangular"):
        checks.check_triangular(mteq.gen_problem1(3, 5, 0).A.to_dense_array(),
                                np.ones(5), np.ones(5))


def test_cli_files(tmp_path, capsys):
    out = tmp_path / "p"
    assert cli_main(["gen", "--problem", "1", "--m", "3", "--n", "8", "--seed", "4",
                     "--zero-frac", "0.5", "--out", str(out)]) == 0
    files = [str(out / f) for f in ("tensor.mt", "rhs.vec", "x.vec", "trace.csv")]
    assert cli_main(["solve", files[0], files[1], "--solution", files[2],
                     "--trace", files[3]]) == 0
    checks.check_files(*files, CFG.eta, CFG.sigma)
    x = checks.read_vector(files[2])
    mteq.write_vector(files[2], x * (1 + 1e-6))
    with pytest.raises(checks.CheckFailure, match="residual"):
        checks.check_files(*files, CFG.eta, CFG.sigma)
