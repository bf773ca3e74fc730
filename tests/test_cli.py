"""Command-line entry points: exit codes, files, and round trips."""

import csv
import dataclasses
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import mteq
from mteq import (SolverConfig, Tensor, cli, initial_point, linalg, model,
                  read_vector, scale_problem, solve_positive, write_tensor,
                  write_vector)
from mteq.cli import (EXIT_CAP, EXIT_INFEASIBLE, EXIT_IO, EXIT_OK, _config_from,
                      bench_cell, build_parser, main)
from mteq.problems import gen_problem1, gen_problem2, gen_problem3

from oracles import near_singular


def run_cli(*argv):
    return main(list(argv))


def test_cli_imports_without_scipy_linalg_until_a_solve(tmp_path):
    # a fresh interpreter: this one has long since loaded scipy.linalg.
    # --help, gen, and verify of a diagonally dominant tensor, whose
    # certificate is the all-ones vector, so that no splitting sweep runs,
    # go without it.  The all-ones images of P1 and P4 at (3,8), seed 0,
    # miss the 0.1 margin of the sweeps' own test; P2's clears it.
    child = "\n".join([
        "import contextlib, io, sys",
        "import mteq.cli",
        "print('scipy.linalg' in sys.modules)",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    try:",
        "        mteq.cli.main(['--help'])",
        "    except SystemExit:",
        "        pass",
        "for problem in ('1', '2', '4'):",
        "    out = sys.argv[1] + '/p' + problem",
        "    shown = io.StringIO()",
        "    with contextlib.redirect_stdout(shown):",
        "        mteq.cli.main(['gen', '--problem', problem, '--m', '3', '--n', '8',",
        "                       '--seed', '0', '--out', out])",
        "        code = mteq.cli.main(['verify', out + '/tensor.mt', '--rhs', out + '/rhs.vec'])",
        "    line = 'positivity certificate A u^{m-1} > 0: found (all-ones vector)'",
        "    print(code, line in shown.getvalue().splitlines(), 'scipy.linalg' in sys.modules)",
        "p = mteq.gen_problem1(3, 8, 0)",
        "print(mteq.solve_positive(p, mteq.initial_point(p).x0).converged)",
        "print('scipy.linalg' in sys.modules)"])
    src = os.path.dirname(os.path.dirname(mteq.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", child, str(tmp_path)],
                         env=env, check=True, capture_output=True, text=True).stdout
    assert out.split() == (["False"] + [str(EXIT_OK), "True", "False"] * 3
                           + ["True", "True"])


def test_gen_writes_problem_files(tmp_path):
    out = tmp_path / "p1"
    assert run_cli("gen", "--problem", "1", "--m", "3", "--n", "6",
                   "--seed", "2", "--out", str(out)) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["problem_kind"] == 1 and manifest["seed"] == 2
    assert manifest["rng"] == "philox4x64-10"
    assert (out / "tensor.mt").exists() and (out / "rhs.vec").exists()


def test_gen_usage_errors(tmp_path, monkeypatch, capsys):
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
    # a dimension that makes no tensor
    capsys.readouterr()
    assert run_cli("gen", "--problem", "1", "--n", "0",
                   "--out", str(tmp_path / "p0")) == 2
    assert capsys.readouterr().err == (
        "error: a tensor needs order >= 2 and dimension >= 1, "
        "got order 3, dimension 0\n")
    assert not (tmp_path / "p0").exists()


FRACTION_MESSAGE = "error: zero fraction must lie strictly between 0 and 1"
SEED_MESSAGE = "error: seed must be an integer from 0 to 2**128 - 1"


@pytest.mark.parametrize("argv, message", [
    (("--zero-frac", "2"), FRACTION_MESSAGE),
    (("--zero-frac", "-1"), FRACTION_MESSAGE),
    (("--zero-frac", "0"), FRACTION_MESSAGE),
    (("--zero-frac", "1"), FRACTION_MESSAGE),
    (("--zero-frac", "nan"), FRACTION_MESSAGE),
    (("--zero-frac", "inf"), FRACTION_MESSAGE),
    (("--seed", "-1"), SEED_MESSAGE),
    (("--seed", str(2 ** 128)), SEED_MESSAGE),
], ids=["frac-2", "frac-neg", "frac-0", "frac-1", "frac-nan", "frac-inf",
        "seed-neg", "seed-big"])
def test_gen_refuses_a_zero_fraction_or_seed_out_of_range(tmp_path, capsys,
                                                          argv, message):
    # problem 3 draws nothing for its tensor, and is refused all the same
    for problem, m in (("1", "3"), ("3", "4")):
        out = tmp_path / f"p{problem}"
        assert run_cli("gen", "--problem", problem, "--m", m, "--n", "6",
                       *argv, "--out", str(out)) == EXIT_CAP
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()


@pytest.mark.parametrize("problem", ["2", "3"])
def test_exactly_symmetric_file_solves_to_the_in_process_bits(tmp_path,
                                                              problem):
    # P2 and P3 know their exact trailing symmetry from their
    # construction; the file's tensor finds it in its entries
    out = tmp_path / f"p{problem}"
    m, n, p = (("3", "8", gen_problem2(3, 8, 5)) if problem == "2"
               else ("4", "24", gen_problem3(24)))
    assert run_cli("gen", "--problem", problem, "--m", m, "--n", n,
                   "--seed", "5", "--out", str(out)) == EXIT_OK
    sol, trace = tmp_path / "x.vec", tmp_path / "trace.csv"
    assert run_cli("solve", str(out / "tensor.mt"), str(out / "rhs.vec"),
                   "--relative", "--solution", str(sol),
                   "--trace", str(trace)) == EXIT_OK
    q = scale_problem(p.A, p.b)  # as the CLI scales what it reads
    cfg = SolverConfig(relative_stop=True)
    rep = solve_positive(q, initial_point(q, cfg).x0, cfg)
    assert rep.converged and q.A._facts["is_exactly_semi_symmetric"]
    assert read_vector(sol).tobytes() == rep.x_final.tobytes()
    with open(trace, newline="") as fh:
        residuals = [float(row["residual"]) for row in csv.DictReader(fh)]
    assert residuals == [rec.residual_norm for rec in rep.trace]


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
    args = parser.parse_args(command + ["--relative", "--max-iter", "7",
                                        "--eta", "1e-6"])
    assert _config_from(args) == SolverConfig(relative_stop=True, max_iter=7,
                                              eta=1e-6)


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


def test_solve_zeroed_rhs_uses_extended_path(tmp_path):
    out = tmp_path / "p1z"
    run_cli("gen", "--problem", "1", "--m", "3", "--n", "8", "--seed", "1",
            "--zero-frac", "0.5", "--out", str(out))
    b = read_vector(out / "rhs.vec")
    assert (b == 0.0).sum() == 4
    trace = tmp_path / "t.csv"
    assert run_cli("solve", str(out / "tensor.mt"), str(out / "rhs.vec"),
                   "--solution", str(tmp_path / "s.vec"),
                   "--trace", str(trace)) == EXIT_OK
    with open(trace, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and {row["mode"] for row in rows} == {"residual_scaled"}
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
        write_tensor(tensor, Tensor.identity(3, 2).to_dense())
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


def test_verify_with_rhs_reports_a_tensor_that_is_not_z(tmp_path, capsys):
    # one positive off-diagonal entry: no problem can be built on this
    # tensor, so the coupling check is not attempted and the verdict stands
    dense = np.zeros((2, 2, 2))
    dense[0, 0, 0] = dense[1, 1, 1] = 1.0
    dense[0, 1, 1] = 0.5
    tensor, rhs = tmp_path / "t.mt", tmp_path / "b.vec"
    write_tensor(tensor, Tensor.from_dense(dense))
    write_vector(rhs, [1.0, 1.0])
    assert run_cli("verify", str(tensor), "--rhs", str(rhs)) == EXIT_INFEASIBLE
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "z sign pattern (off-diagonal <= 0): no\n" in captured.out
    assert ("zero-row coupling check: not attempted (not a Z sign pattern)\n"
            in captured.out)
    assert captured.out.endswith("verdict: no strong M-tensor certificate\n")


@pytest.mark.parametrize("problem,m,n,expect", [
    ("1", "3", "8", "exact"), ("2", "3", "8", "exact"),
    ("3", "4", "8", "exact"), ("4", "3", "8", "no"), ("5", "3", "8", "no"),
    ("5", "3", "2", "exact")])
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


def test_rhs_from_a_pipe_with_a_huge_length_is_a_format_error(tmp_path):
    # the header alone once allocated 10**14 values and died in a traceback
    write_tensor(tmp_path / "t.mt", gen_problem1(3, 4, 0).A)
    fifo = tmp_path / "rhs.vec"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes,
                              args=(b"100000000000000\n1 2 3 4\n",))
    writer.start()
    src = os.path.dirname(os.path.dirname(mteq.__file__))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "mteq", "solve", str(tmp_path / "t.mt"), str(fifo),
             "--solution", str(tmp_path / "x.vec")],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=120)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert done.returncode == EXIT_IO
    assert "Traceback" not in done.stderr
    assert "expected 100000000000000 values, found 4" in done.stderr


@pytest.mark.parametrize("delta, how", [
    (None, "1 Newton step"),
    (1e-2, "3 Newton steps, then 1 splitting sweep"),
    (1e-3, "5 splitting sweeps"),
], ids=["P3", "steps-then-sweeps", "sweeps"])
def test_verify_says_how_the_certificate_was_found(tmp_path, capsys, delta, how):
    # the near-singular tensors fall back to the sweeps, at 1e-2 after
    # three steps that miss the test
    A = gen_problem3(24).A if delta is None else near_singular(3, 30, delta, 0)
    write_tensor(tmp_path / "t.mt", A)
    assert run_cli("verify", str(tmp_path / "t.mt")) == EXIT_OK
    assert (f"positivity certificate A u^{{m-1}} > 0: found ({how})"
            in capsys.readouterr().out.splitlines())


@pytest.mark.parametrize("problem, line", [
    (gen_problem1(3, 8, 0), "iterations: 3 (initializer sweeps: 0)"),
    (gen_problem3(24), "iterations: 1 (initializer: 1 Newton step)"),
], ids=["P1", "P3"])
def test_solve_says_how_the_start_was_found(tmp_path, capsys, problem, line):
    mteq.write_problem(tmp_path, problem, {})
    assert run_cli("solve", str(tmp_path / "tensor.mt"), str(tmp_path / "rhs.vec"),
                   "--solution", str(tmp_path / "x.vec")) == EXIT_OK
    assert line in capsys.readouterr().out.splitlines()


def test_bench_loads_lapack_before_its_first_timer(monkeypatch):
    # so that the first cell's time does not include LAPACK's import
    linalg._lapack.cache_clear()
    loaded = []
    real = cli.solve

    def timed(p, cfg=None):
        loaded.append(linalg._lapack.cache_info().currsize)
        return real(p, cfg)
    monkeypatch.setattr(cli, "solve", timed)
    assert run_cli("bench", "--problem", "1", "--sizes", "3,6", "--trials", "2") == EXIT_OK
    assert loaded == [1, 1]


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


def test_keep_lists_the_entries_left_positive(tmp_path, capsys):
    gen = ["gen", "--problem", "1", "--n", "8", "--zero-frac", "0.5"]
    assert run_cli(*gen, "--out", str(tmp_path / "default")) == EXIT_OK
    # 1-based indices; without them seed 0 zeroes b[0]
    assert read_vector(tmp_path / "default" / "rhs.vec")[0] == 0.0
    assert run_cli(*gen, "--keep", "1,3", "--out", str(tmp_path / "kept")) == EXIT_OK
    b = read_vector(tmp_path / "kept" / "rhs.vec")
    assert b[0] > 0.0 and b[2] > 0.0 and np.any(b == 0.0)
    manifest = json.loads((tmp_path / "kept" / "manifest.json").read_text())
    assert manifest["params"]["keep"] == [1, 3]
    assert run_cli(*gen, "--keep", "", "--out", str(tmp_path / "none")) == EXIT_OK
    capsys.readouterr()
    for keep, message in (("0", "keep index out of range 1..8"),
                          ("9", "keep index out of range 1..8"),
                          ("x", "cannot parse keep list 'x'")):
        assert run_cli(*gen, "--keep", keep, "--out", str(tmp_path / "bad")) == EXIT_CAP
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "bad").exists()
    assert run_cli("bench", "--problem", "1", "--sizes", "3,8", "--trials", "2",
                   "--zero-frac", "0.5", "--keep", "1") == EXIT_OK


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


def test_solver_flag_out_of_range_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "p1"
    run_cli("gen", "--problem", "1", "--m", "3", "--n", "6", "--out", str(out))
    capsys.readouterr()
    assert run_cli("solve", str(out / "tensor.mt"), str(out / "rhs.vec"),
                   "--solution", str(tmp_path / "s.vec"),
                   "--eps", "2") == EXIT_CAP
    assert capsys.readouterr().err == "error: eps must lie in (0, 1)\n"
    assert not (tmp_path / "s.vec").exists()
    assert run_cli("bench", "--problem", "1", "--sizes", "3,8",
                   "--max-iter", "0") == EXIT_CAP
    captured = capsys.readouterr()
    assert captured.err == "error: iteration limits must be at least 1\n"
    assert not captured.out


@pytest.mark.parametrize("argv, message", [
    (("--problem", "3", "--sizes", "3,10"), "problem 3 is an order-4 stencil"),
    (("--problem", "5", "--sizes", "3,1"), "the triangular generator needs n >= 2"),
    (("--problem", "1", "--sizes", "3,1", "--trials", "0"),
     "trials must be at least 1"),
    (("--problem", "1", "--sizes", "3,1", "--zero-frac", "nan"),
     FRACTION_MESSAGE.removeprefix("error: ")),
    (("--problem", "3", "--sizes", "4,6", "--seed", "-1"),
     SEED_MESSAGE.removeprefix("error: ")),
], ids=["order", "dimension", "trials", "zero-frac", "seed"])
def test_bench_refuses_arguments_that_gen_refuses(capsys, argv, message):
    assert run_cli("bench", *argv) == EXIT_CAP
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}")
    # no table row labelled from a problem that was never built
    assert not captured.out


INSTANCE_FLAGS = ("--problem", "--seed", "--c0", "--c1", "--zero-frac", "--keep")


def option_help(capsys, command):
    """The entry of each option in ``mteq <command> --help``, by flag."""
    with pytest.raises(SystemExit) as ex:
        run_cli(command, "--help")
    assert ex.value.code == 0
    entries, flag = {}, None
    for line in capsys.readouterr().out.splitlines():
        if line.startswith("  -"):
            flag = line.split()[0].rstrip(",")
            entries[flag] = line
        elif flag and line.startswith("   "):
            entries[flag] += "\n" + line
        else:
            flag = None
    return entries


def test_gen_and_bench_show_the_same_instance_flags(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    gen, bench = option_help(capsys, "gen"), option_help(capsys, "bench")
    for flag in INSTANCE_FLAGS:
        if flag == "--seed":
            # the one help text of its own: bench draws a seed per trial
            assert gen[flag].split() == ["--seed", "SEED"]
            assert bench[flag].split(None, 2)[2] == "base seed; trial t uses seed + t"
        else:
            assert gen[flag] == bench[flag]
    assert "left boundary value (problem 3)" in bench["--c0"]


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["verify", "gen", "solve", "bench"])
def test_closed_standard_output_exits_1_quietly(tmp_path, command, unbuffered):
    # a subcommand whose standard output has no reader left ends with
    # exit 1 and nothing on standard error; the files it wrote stay
    out, sol = tmp_path / "p1", tmp_path / "x.vec"
    assert run_cli("gen", "--problem", "1", "--n", "6", "--out", str(out)) == EXIT_OK
    argv = {"verify": ["verify", str(out / "tensor.mt")],
            "gen": ["gen", "--problem", "1", "--n", "6", "--out", str(tmp_path / "g")],
            "solve": ["solve", str(out / "tensor.mt"), str(out / "rhs.vec"),
                      "--solution", str(sol)],
            "bench": ["bench", "--problem", "1", "--sizes", "3,6", "--trials", "1"]}
    written = {"gen": tmp_path / "g" / "tensor.mt", "solve": sol}.get(command)
    assert run_with_closed_stdout(argv[command], unbuffered) == (EXIT_IO, b"")
    assert written is None or written.exists()


def run_with_closed_stdout(argv, unbuffered):
    """Exit code and standard error of ``python -m mteq *argv`` in a child
    whose standard output is a pipe without a reader."""
    src = os.path.dirname(os.path.dirname(mteq.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        done = subprocess.run([sys.executable, "-m", "mteq", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=env, timeout=120)
    finally:
        os.close(write_end)
    return done.returncode, done.stderr


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_bench_writes_its_files_when_standard_output_is_closed(tmp_path,
                                                                unbuffered):
    # the table is printed after the files, so a print that fails on the
    # closed pipe cannot keep them from being written
    out = tmp_path / "bo"
    argv = ["bench", "--problem", "1", "--sizes", "3,6", "--trials", "1",
            "--out", str(out)]
    assert run_with_closed_stdout(argv, unbuffered) == (EXIT_IO, b"")
    assert "| (3,6) |" in (out / "bench.md").read_text()
    with open(out / "bench.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["m"], r["n"], r["converged"]) for r in rows] == [("3", "6", "1")]
