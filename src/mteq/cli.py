"""Command-line front end.

Four subcommands: ``solve`` runs :func:`mteq.solve` on a tensor (``.mt``
text or dense ``.npy``) and a ``.vec`` file, ``gen`` materializes benchmark
instances, ``verify`` reports the structural certificates of a tensor, and
``bench`` aggregates seeded trials into the iteration/time tables.

Exit codes of ``solve``: 0 converged, 2 iteration cap or a usage error, 3
infeasibility or a structural refusal, 1 file errors or standard output
closed by its reader, which ends every subcommand with exit 1 and nothing
on standard error.  ``verify`` exits 0 only when a strong M-tensor
certificate was found.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

from .initializer import InitializationError, find_certificate
from .linalg import _lapack
from .model import MTeqProblem, SolverConfig, make_problem, scale_problem
from .problems import (TENSOR_FILES, _check_fraction, _seed_key, gen_problem1,
                       gen_problem2, gen_problem3, gen_problem4, gen_problem5,
                       write_problem, zero_out_rhs)
from .report import SolveStatus, estimate_order, write_trace_csv
from .solver_extended import solve
from .tensor import (FormatError, m_splitting, nqz_spectral_radius,
                     read_tensor, read_vector, write_vector)

__all__ = ["main", "run", "bench_cell", "CellResult", "markdown_table"]

EXIT_OK = 0
EXIT_IO = 1
EXIT_CAP = 2
EXIT_INFEASIBLE = 3


class _Exit(Exception):
    """``_Exit(code, message)`` ends a subcommand: :func:`main` writes
    ``message`` to standard error and returns ``code``."""


@contextlib.contextmanager
def _exit_on(code, *errors, prefix="error"):
    """End the subcommand with ``code`` and the line ``prefix: <error>``
    when the block raises one of ``errors``."""
    try:
        yield
    except errors as exc:
        raise _Exit(code, f"{prefix}: {exc}") from None


def _add_solver_flags(sub):
    """One flag per :class:`SolverConfig` field, named after it (``--relative``
    for ``relative_stop``) and defaulting to the field's default."""
    helps = {
        "eps": "feasibility floor factor",
        "eps2": "zero-row threshold factor",
        "sigma": "descent constant of the line search",
        "rho": "backtracking shrink factor",
        "eta": "residual-norm stopping tolerance",
        "c": "scale of the retried near-unit step",
        "max_iter": "iteration cap",
        "max_backtracks": "line-search trial cap",
        "relative_stop": "stop on the residual relative to ||b||",
    }
    for field in fields(SolverConfig):
        name, default = field.name, field.default
        flag = "--" + ("relative" if name == "relative_stop"
                       else name.replace("_", "-"))
        if isinstance(default, bool):
            sub.add_argument(flag, dest=name, action="store_true",
                             help=helps[name])
        else:
            sub.add_argument(flag, dest=name, type=type(default),
                             default=default,
                             help=f"{helps[name]} (default {default})")


def _config_from(args) -> SolverConfig:
    return SolverConfig(**{field.name: getattr(args, field.name)
                           for field in fields(SolverConfig)})


def _add_instance_flags(sub, seed_help):
    """The flags that describe the instances of ``gen`` and ``bench``,
    read by :func:`_instance`."""
    sub.add_argument("--problem", type=int, required=True, choices=range(1, 6))
    sub.add_argument("--seed", type=int, default=0, help=seed_help)
    sub.add_argument("--c0", type=float, default=1e7,
                     help="left boundary value (problem 3)")
    sub.add_argument("--c1", type=float, default=1e7,
                     help="right boundary value (problem 3)")
    sub.add_argument("--zero-frac", type=float, default=None,
                     help="zero out this fraction of the right-hand side")
    sub.add_argument("--keep", default=None,
                     help="comma-separated 1-based indices kept positive "
                          "when zeroing (default: 1 for problem 5)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mteq",
        description="Damped Newton solvers for multilinear M-tensor equations")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve A x^{m-1} = b from files")
    p_solve.add_argument("tensor",
                         help="coefficient tensor (.mt text or dense .npy)")
    p_solve.add_argument("rhs", help="right-hand side (.vec)")
    p_solve.add_argument("--solution", default="solution.vec",
                         help="output path for the solution vector")
    p_solve.add_argument("--trace", default=None,
                         help="output path for the per-iteration CSV trace")
    _add_solver_flags(p_solve)

    p_gen = sub.add_parser("gen", help="generate a benchmark instance")
    _add_instance_flags(p_gen, seed_help=None)
    p_gen.add_argument("--m", type=int, default=3, help="tensor order")
    p_gen.add_argument("--n", type=int, default=10, help="dimension")
    p_gen.add_argument("--format", choices=sorted(TENSOR_FILES), default="text",
                       help="tensor file: tensor.mt text (default) or "
                            "tensor.npy binary, dense tensors only")
    p_gen.add_argument("--out", required=True, help="output directory")

    p_verify = sub.add_parser("verify",
                              help="report structural certificates of a tensor")
    p_verify.add_argument("tensor",
                          help="coefficient tensor (.mt text or dense .npy)")
    p_verify.add_argument("--rhs", default=None,
                          help="optional right-hand side for the coupling check")

    p_bench = sub.add_parser("bench", help="aggregate seeded solve trials")
    _add_instance_flags(p_bench, seed_help="base seed; trial t uses seed + t")
    p_bench.add_argument("--sizes", action="append", required=True,
                         metavar="M,N", help="cell size, repeatable")
    p_bench.add_argument("--trials", type=int, default=20)
    p_bench.add_argument("--out", default=None,
                         help="directory for bench.csv and bench.md")
    _add_solver_flags(p_bench)
    return parser


# ----------------------------------------------------------------------
# solve

_STATUS_EXIT = {
    SolveStatus.CONVERGED: EXIT_OK,
    SolveStatus.ITERATION_CAP: EXIT_CAP,
    SolveStatus.LINE_SEARCH_FAILURE: EXIT_INFEASIBLE,
    SolveStatus.BAD_INITIAL_POINT: EXIT_INFEASIBLE,
}


def _plural(count, noun) -> str:
    return f"{count} {noun}{'' if count == 1 else 's'}"


def _found_by(steps, sweeps) -> str:
    """How a certificate was found, such as ``1 Newton step`` or ``3
    Newton steps, then 12 splitting sweeps``."""
    parts = [_plural(steps, "Newton step")] if steps or not sweeps else []
    if sweeps:
        parts.append(_plural(sweeps, "splitting sweep"))
    return ", then ".join(parts)


def cmd_solve(args) -> int:
    with _exit_on(EXIT_CAP, ValueError):  # usage-level error
        cfg = _config_from(args)
    with _exit_on(EXIT_IO, OSError, FormatError):
        A = read_tensor(args.tensor)
        b = read_vector(args.rhs)
    with _exit_on(EXIT_INFEASIBLE, ValueError):
        p = scale_problem(A, b)
    with _exit_on(EXIT_INFEASIBLE, InitializationError,
                  prefix="initialization failed"):
        report = solve(p, cfg)
    if report.status is SolveStatus.ASSUMPTION_VIOLATED:
        raise _Exit(EXIT_INFEASIBLE, f"refused: {report.message}")
    with _exit_on(EXIT_IO, OSError):
        write_vector(args.solution, report.x_final)
        if args.trace:
            write_trace_csv(report, args.trace)
    print(f"status: {report.status.value}")
    start = report.start
    how = (f"initializer: {_found_by(start.steps, start.iterations)}" if start.steps
           else f"initializer sweeps: {start.iterations}")
    print(f"iterations: {report.iterations} ({how})")
    print(f"residual: {report.final_residual:.3e} (scaled by 1/{p.omega:.6g})")
    order = estimate_order(report)
    if order is not None:
        print(f"order estimate: {order:.2f}")
    if report.message:
        print(f"note: {report.message}")
    return _STATUS_EXIT[report.status]


# ----------------------------------------------------------------------
# gen

def _parse_keep(text, n, problem) -> tuple:
    if text is None:
        return (0,) if problem == 5 else ()
    if not text.strip():
        return ()
    try:
        ones_based = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse keep list {text!r}") from None
    if any(i < 1 or i > n for i in ones_based):
        raise ValueError(f"keep index out of range 1..{n}")
    return tuple(i - 1 for i in ones_based)


def _check_draw_args(args) -> None:
    """Refuse the seed or the zero fraction of ``gen`` or ``bench`` that
    the generators would refuse, before any instance is built."""
    _seed_key(args.seed)
    if args.zero_frac is not None:
        _check_fraction(args.zero_frac)


_GENERATORS = {1: gen_problem1, 2: gen_problem2, 4: gen_problem4,
               5: gen_problem5}


def _instance(args, m, n, seed, keep) -> MTeqProblem:
    """The instance of order ``m`` and dimension ``n`` that the instance
    flags in ``args`` describe, drawn from ``seed``, with the 0-based
    ``keep`` indices kept positive when its right-hand side is zeroed."""
    if args.problem == 3:
        if m != 4:
            raise ValueError("problem 3 is an order-4 stencil; use --m 4")
        p = gen_problem3(n, args.c0, args.c1)
    else:
        p = _GENERATORS[args.problem](m, n, seed)
    if args.zero_frac is None:
        return p
    b = zero_out_rhs(p.b, seed, keep=keep, fraction=args.zero_frac)
    return make_problem(p.A, b, omega=p.omega)


def cmd_gen(args) -> int:
    with _exit_on(EXIT_CAP, ValueError):  # usage-level error
        _check_draw_args(args)
        keep = _parse_keep(args.keep, args.n, args.problem)
        p = _instance(args, args.m, args.n, args.seed, keep)
        if args.format == "npy" and not p.A.is_dense:
            raise ValueError(f"problem {args.problem} has a COO tensor; "
                             f"--format npy holds dense tensors only")
    manifest = {
        "problem_kind": args.problem,
        "seed": args.seed,
        "params": {
            "c0": args.c0,
            "c1": args.c1,
            "zero_fraction": args.zero_frac,
            "keep": [i + 1 for i in keep] if args.zero_frac is not None else [],
        },
    }
    with _exit_on(EXIT_IO, OSError):
        write_problem(args.out, p, manifest, fmt=args.format)
    print(f"wrote {TENSOR_FILES[args.format]}, rhs.vec, manifest.json "
          f"to {args.out}")
    return EXIT_OK


# ----------------------------------------------------------------------
# verify

def cmd_verify(args) -> int:
    with _exit_on(EXIT_IO, OSError, FormatError):
        A = read_tensor(args.tensor)
        b = read_vector(args.rhs) if args.rhs else None
    print(f"tensor: order {A.order}, dimension {A.dim}, "
          f"{A.storage} storage, {A.nnz} nonzeros")
    z = A.is_z_tensor()
    dominant = A.is_diag_dominant()
    print(f"z sign pattern (off-diagonal <= 0): {'yes' if z else 'no'}")
    print(f"diagonally dominant (A e^{{m-1}} > 0): "
          f"{'yes' if dominant else 'no'}")
    print(f"semi-symmetric: "
          f"{'exact' if A.is_exactly_semi_symmetric() else 'no'}")
    s = float(A.diagonal().max())
    print(f"splitting shift s (max diagonal): {s:.6g}")
    certified = False
    if z:
        # s*I - A of a finite tensor is nonnegative exactly when A is a
        # Z-tensor; the certificate is the solvers' own: the all-ones
        # vector when the tensor is dominant, else Newton steps and, where
        # they fail, splitting sweeps
        lo, hi = nqz_spectral_radius(m_splitting(A, s)[1])
        cmp = "<" if hi < s else ">="
        print(f"spectral radius bracket of the nonnegative part: "
              f"[{lo:.6g}, {hi:.6g}] (upper {cmp} s)")
        try:
            how = ("all-ones vector" if dominant
                   else _found_by(*find_certificate(A)[1:3]))
            print(f"positivity certificate A u^{{m-1}} > 0: found ({how})")
            certified = True
        except InitializationError as exc:
            print(f"positivity certificate: not found ({exc})")
    else:
        print("spectral radius bracket: not applicable (nonnegative split failed)")
        print("positivity certificate: not attempted (not a Z sign pattern)")
    if b is not None and not z:
        print("zero-row coupling check: not attempted (not a Z sign pattern)")
    elif b is not None:
        with _exit_on(EXIT_IO, ValueError, prefix="right-hand side rejected"):
            p = make_problem(A, b)
        rep = p.assumption
        print(f"right-hand side: {rep.i_plus_size} positive, {rep.i_zero_size} zero entries")
        if rep.i_zero_size:
            verdict = "pass" if rep.ok else (
                f"fail (rows {rep.missing_text})")
            print(f"zero-row coupling check: {verdict}")
    print(f"verdict: {'strong M-tensor certificate found' if certified else 'no strong M-tensor certificate'}")
    return EXIT_OK if certified else EXIT_INFEASIBLE


# ----------------------------------------------------------------------
# bench

@dataclass
class CellResult:
    """Aggregates of one (m, n) bench cell; means are over converged trials."""

    m: int
    n: int
    trials: int
    converged: int
    iter_mean: float
    time_mean_s: float
    init_time_mean_s: float
    init_iters_mean: float


def bench_cell(factory, trials, cfg: SolverConfig) -> CellResult:
    """Run ``factory(t) -> MTeqProblem`` for ``t in range(trials)``.

    Failures of initialization and solving are counted rather than
    raised, so one broken cell cannot take down a table.  An error of
    ``factory`` itself, such as a ``ValueError`` for a size the generator
    refuses, is raised.
    """
    iters, times, init_times, init_iters = [], [], [], []
    m = n = 0
    for t in range(trials):
        p = factory(t)
        m, n = p.m, p.n
        try:
            tic = time.perf_counter()
            report = solve(p, cfg)
            toc = time.perf_counter()
        except (InitializationError, ValueError):
            continue
        if report.converged:
            iters.append(report.iterations)
            times.append(toc - tic)
            init_times.append(report.start.elapsed_ms / 1e3)
            init_iters.append(report.start.iterations)
    def mean(vals):
        return float(np.mean(vals)) if vals else float("nan")
    return CellResult(m=m, n=n, trials=trials, converged=len(iters),
                      iter_mean=mean(iters), time_mean_s=mean(times),
                      init_time_mean_s=mean(init_times),
                      init_iters_mean=mean(init_iters))


def markdown_table(cells) -> str:
    lines = ["| (m,n) | Iter | Time (s) | Time-Int (s) | Success |",
             "|---|---|---|---|---|"]
    for c in cells:
        def fmt(v, digits=".2f"):
            return "-" if np.isnan(v) else format(v, digits)
        lines.append(f"| ({c.m},{c.n}) | {fmt(c.iter_mean)} | "
                     f"{fmt(c.time_mean_s, '.4f')} | "
                     f"{fmt(c.init_time_mean_s, '.4f')} | "
                     f"{c.converged}/{c.trials} |")
    return "\n".join(lines) + "\n"


def csv_table(cells) -> str:
    lines = ["m,n,trials,converged,iter_mean,time_s_mean,init_time_s_mean,init_iters_mean"]
    for c in cells:
        lines.append(f"{c.m},{c.n},{c.trials},{c.converged},"
                     f"{c.iter_mean:.6g},{c.time_mean_s:.6g},"
                     f"{c.init_time_mean_s:.6g},{c.init_iters_mean:.6g}")
    return "\n".join(lines) + "\n"


def cmd_bench(args) -> int:
    with _exit_on(EXIT_CAP, ValueError):
        sizes = []
        for item in args.sizes:
            parts = item.replace("x", ",").split(",")
            if len(parts) != 2:
                raise ValueError(f"cannot parse size {item!r}; expected M,N")
            sizes.append((int(parts[0]), int(parts[1])))
        if args.trials < 1:
            raise ValueError("trials must be at least 1")
        _check_draw_args(args)
        cfg = _config_from(args)
        # import LAPACK before the first timer, not inside the first cell's
        _lapack()
        cells = []
        for m, n in sizes:
            keep = _parse_keep(args.keep, n, args.problem)
            cells.append(bench_cell(lambda t, m=m, n=n, keep=keep: _instance(
                args, m, n, args.seed + t, keep), args.trials, cfg))
    table = markdown_table(cells)
    try:
        if args.out:
            with _exit_on(EXIT_IO, OSError):
                os.makedirs(args.out, exist_ok=True)
                with open(os.path.join(args.out, "bench.md"), "w") as fh:
                    fh.write(table)
                with open(os.path.join(args.out, "bench.csv"), "w") as fh:
                    fh.write(csv_table(cells))
    finally:
        # after the files, so that a closed standard output cannot stop them
        print(table, end="")
    return EXIT_OK


# ----------------------------------------------------------------------

def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"solve": cmd_solve, "gen": cmd_gen,
               "verify": cmd_verify, "bench": cmd_bench}[args.command]
    try:
        return handler(args)
    except _Exit as stop:
        code, message = stop.args
        print(message, file=sys.stderr)
        return code


def run() -> None:
    """The console script: exit with :func:`main`'s code, or with
    ``EXIT_IO`` and nothing on standard error once the reader of standard
    output has gone."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes standard output once more on its way out
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_IO
    sys.exit(code)
