"""Command-line entry points: exit codes, files, and round trips."""

import csv
import dataclasses
import json

import numpy as np
import pytest

from mteq import (SolverConfig, Tensor, initial_point, model, read_vector,
                  solve_positive, write_tensor, write_vector)
from mteq.cli import (EXIT_CAP, EXIT_INFEASIBLE, EXIT_IO, EXIT_OK, _config_from,
                      bench_cell, build_parser, main)
from mteq.problems import gen_problem1


def run_cli(*argv):
    return main(list(argv))


def test_gen_writes_problem_files(tmp_path):
    out = tmp_path / "p1"
    assert run_cli("gen", "--problem", "1", "--m", "3", "--n", "6",
                   "--seed", "2", "--out", str(out)) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["problem_kind"] == 1 and manifest["seed"] == 2
    assert manifest["rng"] == "philox4x64-10"
    assert (out / "tensor.mt").exists() and (out / "rhs.vec").exists()


def test_gen_usage_errors(tmp_path, monkeypatch):
    # unknown family: argparse choices reject it with the usual usage exit
    with pytest.raises(SystemExit) as ex:
        run_cli("gen", "--problem", "7", "--out", str(tmp_path))
    assert ex.value.code == 2
    # the boundary-value family is order 4 only
    assert run_cli("gen", "--problem", "3", "--m", "3", "--n", "10",
                   "--out", str(tmp_path / "x")) == 2
    # a dense instance above the entry cap
    monkeypatch.setenv("MTEQ_DENSE_CAP", "10")
    assert run_cli("gen", "--problem", "1", "--m", "3", "--n", "3",
                   "--out", str(tmp_path / "p1")) == 2
    assert not (tmp_path / "p1").exists()


def test_solve_round_trip_matches_in_process(tmp_path):
    out = tmp_path / "p1"
    run_cli("gen", "--problem", "1", "--m", "3", "--n", "8", "--seed", "5",
            "--out", str(out))
    sol = tmp_path / "solution.vec"
    trace = tmp_path / "trace.csv"
    code = run_cli("solve", str(out / "tensor.mt"), str(out / "rhs.vec"),
                   "--solution", str(sol), "--trace", str(trace))
    assert code == EXIT_OK

    # reproduce in process: the CLI reads the already-scaled files, so the
    # pipeline is generate -> write -> read -> solve with default settings
    p = gen_problem1(3, 8, 5)
    cfg = SolverConfig()
    rep = solve_positive(p, initial_point(p, cfg).x0, cfg)
    x_cli = read_vector(sol)
    assert np.array_equal(x_cli, rep.x_final)

    with open(trace, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == rep.iterations
    for row, rec in zip(rows, rep.trace):
        assert float(row["residual"]) == rec.residual_norm
        assert float(row["alpha"]) == rec.alpha


@pytest.mark.parametrize("command", [["solve", "t.mt", "b.vec"],
                                     ["bench", "--problem", "1", "--sizes", "3,4"]],
                         ids=["solve", "bench"])
def test_solver_flags_default_to_the_config_defaults(command):
    parser = build_parser()
    args = parser.parse_args(command)
    for field in dataclasses.fields(SolverConfig):
        assert getattr(args, field.name) == field.default, field.name
    assert _config_from(args) == SolverConfig()
    args = parser.parse_args(command + ["--relative", "--plain-steps",
                                        "--max-iter", "7", "--eta", "1e-6"])
    assert _config_from(args) == SolverConfig(relative_stop=True, plain_steps=True,
                                              max_iter=7, eta=1e-6)


def test_solve_exit_codes(tmp_path):
    out = tmp_path / "p1"
    run_cli("gen", "--problem", "1", "--m", "3", "--n", "6", "--seed", "0",
            "--out", str(out))
    # unreachable tolerance under a one-iteration cap
    code = run_cli("solve", str(out / "tensor.mt"), str(out / "rhs.vec"),
                   "--solution", str(tmp_path / "s.vec"),
                   "--max-iter", "1", "--eta", "1e-15")
    assert code == EXIT_CAP
    assert run_cli("solve", str(tmp_path / "missing.mt"),
                   str(out / "rhs.vec")) == EXIT_IO


@pytest.mark.parametrize("flags, mode", [((), "residual_scaled"),
                                         (("--plain-steps",), "plain")],
                         ids=["residual_scaled", "plain"])
def test_solve_zeroed_rhs_uses_extended_path(tmp_path, flags, mode):
    out = tmp_path / "p1z"
    run_cli("gen", "--problem", "1", "--m", "3", "--n", "8", "--seed", "1",
            "--zero-frac", "0.5", "--out", str(out))
    b = read_vector(out / "rhs.vec")
    assert (b == 0.0).sum() == 4
    trace = tmp_path / "t.csv"
    assert run_cli("solve", str(out / "tensor.mt"), str(out / "rhs.vec"),
                   "--solution", str(tmp_path / "s.vec"),
                   "--trace", str(trace), *flags) == EXIT_OK
    with open(trace, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and {row["mode"] for row in rows} == {mode}
    assert read_vector(tmp_path / "s.vec").min() > 0.0


@pytest.mark.parametrize("coupled", [True, False],
                         ids=["coupled", "uncoupled"])
def test_solve_checks_the_assumption_once(tmp_path, monkeypatch, capsys,
                                          coupled):
    if coupled:
        out = tmp_path / "p1z"
        run_cli("gen", "--problem", "1", "--m", "3", "--n", "8", "--seed", "1",
                "--zero-frac", "0.5", "--out", str(out))
        tensor, rhs = out / "tensor.mt", out / "rhs.vec"
    else:
        # row 2 of the identity has no entry a[2, 1, 1] to couple it to b_1
        tensor, rhs = tmp_path / "eye.mt", tmp_path / "b.vec"
        write_tensor(tensor, Tensor.identity(3, 2, storage="dense"))
        write_vector(rhs, [1.0, 0.0])
    calls = []
    check = model.check_assumption

    def counted(p):
        calls.append(p)
        return check(p)
    monkeypatch.setattr(model, "check_assumption", counted)
    sol = tmp_path / "s.vec"
    code = run_cli("solve", str(tensor), str(rhs), "--solution", str(sol))
    assert len(calls) == 1
    if coupled:
        assert code == EXIT_OK and sol.exists()
    else:
        assert code == EXIT_INFEASIBLE and not sol.exists()
        assert ("refused: zero-indexed rows without coupling entries: 2"
                in capsys.readouterr().err)


def test_verify_accepts_strong_m_tensor(tmp_path):
    out = tmp_path / "p5"
    run_cli("gen", "--problem", "5", "--m", "3", "--n", "10", "--seed", "0",
            "--out", str(out))
    assert run_cli("verify", str(out / "tensor.mt")) == EXIT_OK


def test_verify_rejects_non_m_tensor(tmp_path):
    # identity minus ones: diagonal shift 1 sits far below the spectral
    # radius 4 of the all-ones part
    dense = -np.ones((2, 2, 2))
    dense[0, 0, 0] += 1.0
    dense[1, 1, 1] += 1.0
    path = tmp_path / "weak.mt"
    write_tensor(path, Tensor.from_dense(dense))
    assert run_cli("verify", str(path)) == EXIT_INFEASIBLE


@pytest.mark.parametrize("problem,m,n,expect", [
    ("1", "3", "8", "yes"), ("2", "3", "8", "yes"), ("3", "4", "8", "yes"),
    ("4", "3", "8", "no")])
def test_verify_reads_semi_symmetry_from_the_file(tmp_path, capsys, problem,
                                                  m, n, expect):
    out = tmp_path / f"p{problem}"
    assert run_cli("gen", "--problem", problem, "--m", m, "--n", n,
                   "--seed", "1", "--out", str(out)) == EXIT_OK
    capsys.readouterr()
    run_cli("verify", str(out / "tensor.mt"))
    assert f"semi-symmetric: {expect}\n" in capsys.readouterr().out


def _non_finite_files(tmp_path, value, in_tensor, storage):
    p = gen_problem1(3, 4, 0)
    a, b = p.A.to_dense_array(), p.b.copy()
    if in_tensor:
        a[1, 2, 0] = value
    else:
        b[2] = value
    t = Tensor.from_dense(a)
    write_tensor(tmp_path / "t.mt", t if storage == "dense" else t.to_coo())
    write_vector(tmp_path / "b.vec", b)
    return tmp_path / "t.mt", tmp_path / "b.vec"


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("in_tensor,storage", [(True, "dense"), (True, "coo"),
                                               (False, "dense")],
                         ids=["tensor-dense", "tensor-coo", "rhs"])
def test_non_finite_input_is_a_format_error(tmp_path, capsys, value,
                                            in_tensor, storage):
    tensor, rhs = _non_finite_files(tmp_path, value, in_tensor, storage)
    path, index = (tensor, "(2, 3, 1)") if in_tensor else (rhs, "(3)")
    for argv in (["solve", str(tensor), str(rhs),
                  "--solution", str(tmp_path / "x.vec")],
                 ["verify", str(tensor), "--rhs", str(rhs)]):
        assert run_cli(*argv) == EXIT_IO
        err = capsys.readouterr().err
        assert str(path) in err
        assert f"non-finite entry {value} at index {index}" in err
    assert not (tmp_path / "x.vec").exists()


def test_verify_missing_file(tmp_path):
    assert run_cli("verify", str(tmp_path / "none.mt")) == EXIT_IO


def test_bench_smoke(tmp_path):
    out = tmp_path / "bench"
    assert run_cli("bench", "--problem", "1", "--sizes", "3,8",
                   "--trials", "3", "--out", str(out)) == EXIT_OK
    md = (out / "bench.md").read_text()
    assert "| (3,8) |" in md
    with open(out / "bench.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["converged"] == "3"
    assert 2.0 <= float(rows[0]["iter_mean"]) <= 4.0


def test_bench_deterministic(tmp_path):
    # timings vary run to run; everything else must not
    stable = []
    for sub in ("a", "b"):
        run_cli("bench", "--problem", "5", "--sizes", "3,10", "--trials", "2",
                "--seed", "11", "--out", str(tmp_path / sub))
        with open(tmp_path / sub / "bench.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        stable.append([(r["m"], r["n"], r["trials"], r["converged"],
                        r["iter_mean"], r["init_iters_mean"]) for r in rows])
    assert stable[0] == stable[1]


def test_bench_cell_records_failures():
    # a factory yielding a non-M tensor: every trial fails, none crash
    def broken(seed):
        dense = -np.ones((2, 2, 2))
        dense[0, 0, 0] += 1.0
        dense[1, 1, 1] += 1.0
        from mteq.model import MTeqProblem
        return MTeqProblem(Tensor.from_dense(dense), np.array([1.0, 1.0]))

    cell = bench_cell(broken, trials=3, cfg=SolverConfig())
    assert cell.trials == 3 and cell.converged == 0
