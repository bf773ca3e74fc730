"""Print one SHA-256 over the solve reports of a fixed ensemble.

A refactor that must not change any iterate runs this before and after the
change and compares the two lines.  The hash covers every ``SolveReport``
field except the wall-clock ``elapsed_ms`` of the trace records: the
status, ``x_final``, ``y_final`` and every iterate as raw float64 bytes,
the trace records, both residuals, ``stop_threshold``, ``message`` and
``mode``.  It also covers each ``InitialPoint`` (``u``, ``x0`` and ``y0``
as raw float64 bytes, and ``iterations``); initializer failures enter the
hash through their message.  Last come the exit code and standard output
of ``mteq verify --rhs`` on problem files written by ``write_problem``,
the bytes of the ``tensor.mt`` and ``rhs.vec`` files that ``write_problem``
writes, the output of ``mteq solve`` from a tensor written as
``tensor.npy``, and then the generated instances themselves: the raw
float64 bytes of ``A`` and ``b``, ``omega`` and whether a certificate is
attached.

The ensemble:

- P1, P2, P4 and P5 at (m, n) = (3, 30) and (4, 8), and P1 and P4 at
  (5, 6), seeds 0 to 7, each with its generated ``b`` and half-zeroed,
  solved with the default config and with ``max_iter=2``; a positive
  ``b`` goes through both ``solve_positive`` and ``solve_nonnegative``;
- P3 at n = 24 and 40 with the three boundary pairs of the stencil
  benchmark, stopping on the residual relative to ``||b||``;
- bad starting points (negative, zero, infeasible, wrong shape) and a
  problem that violates the zero-row coupling assumption;
- ``mteq verify`` on P1, P2, P4 and P5 at (3, 8), seed 0, and on P3 at
  n = 24;
- the files ``write_problem`` writes for P1, P2, P4 and P5 at (3, 8) and
  (4, 20), seed 0, and for P3 at n = 24, each with its tensor stored dense
  and as COO;
- the exit code, standard output, solution file and trace (without its
  wall-clock column) of ``mteq solve --trace`` from ``tensor.npy`` for P1
  at (3, 30), seed 0, and P5 at (3, 30), seed 0, half-zeroed.  Versions
  of mteq without the ``.npy`` format write and read that file as text,
  so the same hash on both sides of a change to the formats shows that a
  solve from ``.npy`` gives the bits of a solve from text;
- the instances of P1, P2, P4 and P5 at (3, 200), seeds 0 to 2, each with
  its generated ``b`` and half-zeroed, each followed by its solves with
  the default config.

The hash depends on the BLAS build, so compare runs on one machine only.

Run from the repository root:

    PYTHONPATH=src python scripts/report_hash.py

With ``--items`` it prints instead one line per item, its own SHA-256 and
its label, such as ``P1(3,30) seed 0 zeroed, default: solve_nonnegative``.
Diffing the output of two runs lists the items that changed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import os
import tempfile

import numpy as np

import mteq
from mteq.cli import main as cli_main

CONFIGS = {"default": mteq.SolverConfig(),
           "max_iter=2": mteq.SolverConfig(max_iter=2)}
STENCIL_CONFIG = mteq.SolverConfig(relative_stop=True)
STENCIL_BOUNDARIES = ((1e7, 1e7), (2e7, 1e7), (1e7, 5e7))


def _float(v) -> bytes:
    return float(v).hex().encode()


def _array(a) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


def report_bytes(rep: mteq.SolveReport) -> bytes:
    parts = [rep.status.value.encode(), _array(rep.x_final), _array(rep.y_final)]
    for rec in rep.trace:
        parts += [str(rec.k).encode(), _float(rec.alpha),
                  _float(rec.residual_norm), str(rec.backtracks).encode(),
                  str(rec.feasible).encode()]
    parts += [_float(rep.final_residual), _float(rep.initial_residual)]
    parts += [_array(y) for y in rep.iterates]
    parts += [_float(rep.stop_threshold), rep.message.encode(),
              str(rep.mode).encode()]
    return b"|".join(parts)


def init_bytes(init: mteq.InitialPoint) -> bytes:
    return b"|".join([_array(init.u), _array(init.x0), _array(init.y0),
                      str(init.iterations).encode()])


def solves(label, p, cfg):
    """Initialize and solve ``p`` with each applicable solver; each item
    is labelled ``label`` and the step."""
    try:
        init = mteq.initial_point(p, cfg)
    except mteq.InitializationError as exc:
        yield f"{label}: init", f"init: {exc}".encode()
        return
    yield f"{label}: init", init_bytes(init)
    if not p.partition.i_zero.size:
        yield (f"{label}: solve_positive",
               report_bytes(mteq.solve_positive(p, init.x0, cfg)))
    yield (f"{label}: solve_nonnegative",
           report_bytes(mteq.solve_nonnegative(p, init.y0, cfg)))


def dense_problems(sizes=((3, 30), (4, 8)), seeds=range(8),
                   problems=(1, 2, 4, 5)):
    """``(label, p)`` for each problem at each size and seed, plain and
    half-zeroed."""
    for problem in problems:
        gen = getattr(mteq, f"gen_problem{problem}")
        keep = (0,) if problem == 5 else ()
        for m, n in sizes:
            for seed in seeds:
                label = f"P{problem}({m},{n}) seed {seed}"
                p = gen(m, n, seed)
                yield label, p
                b = mteq.zero_out_rhs(p.b, seed, keep=keep)
                yield f"{label} zeroed", mteq.make_problem(p.A, b, omega=p.omega)


def instance_bytes(p: mteq.MTeqProblem) -> bytes:
    return b"|".join([_array(p.A.to_dense_array()), _array(p.b),
                      _float(p.omega), str(p.certificate is not None).encode()])


def bad_starts():
    p = mteq.gen_problem1(3, 10, 0)
    n = p.n
    starts = {"negative": -np.ones(n), "zero": np.zeros(n),
              "infeasible": np.full(n, 1e-8), "wrong shape": np.ones(n + 1)}
    for name, start in starts.items():
        yield (f"{name} start: solve_positive",
               report_bytes(mteq.solve_positive(p, start)))
        yield (f"{name} start: solve_nonnegative",
               report_bytes(mteq.solve_nonnegative(p, start)))
    # a diagonal tensor with a zeroed row: row 2 couples to nothing in I+
    q = mteq.make_problem(mteq.Tensor.identity(3, 2), np.array([1.0, 0.0]))
    yield ("uncoupled zero row: solve_nonnegative",
           report_bytes(mteq.solve_nonnegative(q, np.ones(2))))


def verify_outputs():
    """Exit code and standard output of ``mteq verify --rhs`` per file."""
    problems = {"P3(24)": mteq.gen_problem3(24)}
    problems.update({f"P{k}(3,8)": getattr(mteq, f"gen_problem{k}")(3, 8, 0)
                     for k in (1, 2, 4, 5)})
    with tempfile.TemporaryDirectory() as tmp:
        for k, (label, p) in enumerate(problems.items()):
            out = os.path.join(tmp, str(k))
            mteq.write_problem(out, p, {})
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli_main(["verify", os.path.join(out, "tensor.mt"),
                                 "--rhs", os.path.join(out, "rhs.vec")])
            yield f"verify {label}", f"{code}|{buf.getvalue()}".encode()


def written_files():
    """Bytes of the tensor and right-hand side files of ``write_problem``."""
    problems = {f"P{k}({m},{n})": getattr(mteq, f"gen_problem{k}")(m, n, 0)
                for m, n in ((3, 8), (4, 20)) for k in (1, 2, 4, 5)}
    problems["P3(24)"] = mteq.gen_problem3(24)
    with tempfile.TemporaryDirectory() as tmp:
        for label, p in problems.items():
            other = p.A.to_coo() if p.A.is_dense else p.A.to_dense()
            for A in (p.A, other):
                q = mteq.make_problem(A, p.b, omega=p.omega)
                mteq.write_problem(tmp, q, {})
                for name in ("tensor.mt", "rhs.vec"):
                    with open(os.path.join(tmp, name), "rb") as fh:
                        yield f"files {label} {A.storage}: {name}", fh.read()


def npy_solves():
    """Exit code, output, solution and trace of ``mteq solve`` from
    ``tensor.npy``."""
    p1 = mteq.gen_problem1(3, 30, 0)
    p5 = mteq.gen_problem5(3, 30, 0)
    p5 = mteq.make_problem(p5.A, mteq.zero_out_rhs(p5.b, 0, keep=(0,)),
                           omega=p5.omega)
    with tempfile.TemporaryDirectory() as tmp:
        for label, p in (("P1(3,30)", p1), ("P5(3,30) zeroed", p5)):
            mteq.write_problem(tmp, p, {})
            tensor = os.path.join(tmp, "tensor.npy")
            mteq.write_tensor(tensor, p.A)
            solution = os.path.join(tmp, "x.vec")
            trace = os.path.join(tmp, "trace.csv")
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli_main(["solve", tensor, os.path.join(tmp, "rhs.vec"),
                                 "--solution", solution, "--trace", trace])
            with open(solution, "rb") as fh:
                x = fh.read()
            with open(trace, newline="") as fh:
                rows = [[v for k, v in row.items() if k != "elapsed_ms"]
                        for row in csv.DictReader(fh)]
            yield (f"npy solve {label}",
                   f"{code}|{buf.getvalue()}|{rows}".encode() + x)


def ensemble():
    """``(label, bytes)`` for every item, in hash order."""
    for label, p in dense_problems():
        for name, cfg in CONFIGS.items():
            yield from solves(f"{label}, {name}", p, cfg)
    for label, p in dense_problems(sizes=((5, 6),), problems=(1, 4)):
        for name, cfg in CONFIGS.items():
            yield from solves(f"{label}, {name}", p, cfg)
    for n in (24, 40):
        for c0, c1 in STENCIL_BOUNDARIES:
            yield from solves(f"P3({n}) c0 {c0:g} c1 {c1:g}, relative_stop",
                              mteq.gen_problem3(n, c0, c1), STENCIL_CONFIG)
    yield from bad_starts()
    yield from verify_outputs()
    yield from written_files()
    yield from npy_solves()
    for label, p in dense_problems(sizes=((3, 200),), seeds=range(3)):
        yield f"instance {label}", instance_bytes(p)
        yield from solves(f"{label}, default", p, CONFIGS["default"])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--items", action="store_true",
                        help="print one digest per labelled item")
    args = parser.parse_args(argv)
    digest = hashlib.sha256()
    count = 0
    for label, item in ensemble():
        if args.items:
            print(f"{hashlib.sha256(item).hexdigest()}  {label}")
        digest.update(len(item).to_bytes(8, "little"))
        digest.update(item)
        count += 1
    if not args.items:
        print(f"{digest.hexdigest()}  ({count} items)")


if __name__ == "__main__":
    main()
