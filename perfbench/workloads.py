"""The four workloads: their instances, how one instance is timed, and its
checks.

Every call into the library goes through ``mteq.<name>`` or
``mteq.cli.main`` at call time, so the traced run's wrappers (installed on
the package namespace) see the benchmark's own calls.  An instance returns
its generation and solve times in seconds; its check runs afterwards and
raises :class:`checks.CheckFailure`.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import time
from dataclasses import dataclass, field
from typing import Callable

import mteq
import mteq.cli

import checks

# Solves at the default tolerance; the stencil stops on the residual
# relative to ||b||, because its b spans 12 orders of magnitude.
DENSE_CONFIG = mteq.SolverConfig()
STENCIL_CONFIG = mteq.SolverConfig(relative_stop=True)

# Every instance of round r is generated from |seed| * 1000 + r.  Set-up
# pass k uses the seeds of round 900 + k, which no timed round reaches.
SEED_STRIDE = 1000
WARM_OFFSET = 900


@dataclass
class Outcome:
    gen_s: float
    solve_s: float
    check: Callable[[], None] = field(repr=False)


@dataclass
class Instance:
    label: str
    run: Callable[[], Outcome] = field(repr=False)


def _solve(p, cfg):
    init = mteq.initial_point(p, cfg)
    if p.partition.i_zero.size:
        return mteq.solve_nonnegative(p, init.y0, cfg)
    return mteq.solve_positive(p, init.x0, cfg)


def _library_instance(label, make, cfg, triangular=False):
    """Generate with ``make()``, then initialize and solve in memory."""
    def run():
        t0 = time.perf_counter()
        p = make()
        t1 = time.perf_counter()
        report = _solve(p, cfg)
        t2 = time.perf_counter()

        def check():
            if p.A.is_dense:
                a = p.A.to_dense_array()
                contract = checks.dense_contraction(a)
            else:
                contract = checks.coo_contraction(p.A.coo_indices, p.A.coo_values, p.n)
            checks.check_report(contract, p.b, p.m, report, cfg)
            if triangular:
                checks.check_triangular(a, p.b, report.x_final)
        return Outcome(t1 - t0, t2 - t1, check)
    return Instance(label, run)


def _dense(problem, seed, zero=False, keep=()):
    gen = getattr(mteq, f"gen_problem{problem}")
    label = f"P{problem}{'z' if zero else ''}(3,200)"

    def make():
        p = gen(3, 200, seed)
        if zero:
            b = mteq.zero_out_rhs(p.b, seed, keep=keep)
            p = mteq.make_problem(p.A, b, omega=p.omega)
        return p
    return _library_instance(label, make, DENSE_CONFIG, triangular=problem == 5)


def _stencil(n, c0, c1):
    return _library_instance(f"P3(n={n},c0={c0:.0e},c1={c1:.0e})",
                             lambda: mteq.gen_problem3(n, c0, c1), STENCIL_CONFIG)


def _cli_instance(workdir, label, problem, seed, extra=()):
    """``mteq gen`` then ``mteq solve --trace`` through ``mteq.cli.main``."""
    out = os.path.join(workdir, label)
    tensor, rhs = os.path.join(out, "tensor.mt"), os.path.join(out, "rhs.vec")
    solution, trace = os.path.join(out, "x.vec"), os.path.join(out, "trace.csv")
    gen_args = ["gen", "--problem", str(problem), "--m", "3", "--n", "60",
                "--seed", str(seed), "--out", out, *extra]
    solve_args = ["solve", tensor, rhs, "--solution", solution, "--trace", trace]

    def run():
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            t0 = time.perf_counter()
            gen_code = mteq.cli.main(gen_args)
            t1 = time.perf_counter()
            solve_code = mteq.cli.main(solve_args)
            t2 = time.perf_counter()

        def check():
            if gen_code != 0 or solve_code != 0:
                raise checks.CheckFailure(
                    f"exit codes gen {gen_code}, solve {solve_code}: {sink.getvalue()!r}")
            checks.check_files(tensor, rhs, solution, trace,
                               DENSE_CONFIG.eta, DENSE_CONFIG.sigma)
        return Outcome(t1 - t0, t2 - t1, check)
    return Instance(label, run)


class Workload:
    """A named instance mix.  ``round(r)`` lists the instances of timed
    round ``r``; ``warm(k)`` lists those of set-up pass ``k``."""

    name = ""

    def __init__(self, seed, workdir):
        self.seed = abs(int(seed))
        self.workdir = workdir

    def base(self, r):
        return self.seed * SEED_STRIDE + r

    def round(self, r):
        raise NotImplementedError

    def warm(self, k):
        return self.round(WARM_OFFSET + k)


class DensePositive(Workload):
    name = "dense-positive"

    def round(self, r):
        s = self.base(r)
        return [_dense(1, s), _dense(2, s), _dense(4, s)]


class DenseZeroRhs(Workload):
    name = "dense-zero-rhs"

    def round(self, r):
        s = self.base(r)
        return [_dense(1, s, zero=True), _dense(4, s, zero=True),
                _dense(5, s, zero=True, keep=(0,))]


class StencilSweeps(Workload):
    name = "stencil-sweeps"
    SIZES = (24, 32, 40)
    BOUNDARIES = ((1e7, 1e7), (2e7, 1e7), (1e7, 5e7))

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self._order = random.Random(self.seed)

    def round(self, r):
        cells = [(n, c0, c1) for n in self.SIZES for c0, c1 in self.BOUNDARIES]
        self._order.shuffle(cells)
        return [_stencil(*cell) for cell in cells]

    def warm(self, k):
        # The cheapest cell warms the COO kernels; the stencil is the same
        # code path at every size.
        return [_stencil(self.SIZES[0], *self.BOUNDARIES[0])]


class CliFiles(Workload):
    name = "cli-files"

    def round(self, r):
        s = self.base(r)
        return [_cli_instance(self.workdir, "p1", 1, s),
                _cli_instance(self.workdir, "p4", 4, s),
                _cli_instance(self.workdir, "p1z", 1, s, ("--zero-frac", "0.5"))]


WORKLOADS = {w.name: w for w in (DensePositive, DenseZeroRhs, StencilSweeps, CliFiles)}
