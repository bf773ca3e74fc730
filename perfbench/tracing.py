"""Spans around the library's layers for the traced run.

:func:`install` replaces each traced function in every ``mteq`` module
that binds it (``from .x import y`` makes copies, such as
``solver_basic.lu_solve`` or ``cli.initial_point``) and the traced
``Tensor`` methods on the class.  Each call records one span: name, start,
end and the enclosing span.  Spans stay in memory as flat arrays and are
written out when the run ends.  Self time is a span's duration minus the
durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
from array import array

import numpy as np

import mteq

# Span name -> functions recorded under it, as "module.attribute".
FUNCTIONS = {
    "problems.gen": ["problems.gen_problem1", "problems.gen_problem2",
                     "problems.gen_problem3", "problems.gen_problem4",
                     "problems.gen_problem5", "problems.zero_out_rhs"],
    "problems.symmetrize_full": ["problems.symmetrize_full"],
    "problems.write_problem": ["problems.write_problem"],
    "model.make_problem": ["model.make_problem"],
    "model.residual": ["model.residual"],
    "model.residual_jacobian": ["model.residual_jacobian"],
    "model.in_feasible_split": ["model.in_feasible_split"],
    "model.zero_block_threshold": ["model.zero_block_threshold"],
    "model.check_assumption": ["model.check_assumption"],
    "linalg.lu_solve": ["linalg.lu_solve"],
    "initializer.initial_point": ["initializer.initial_point"],
    "initializer.find_certificate": ["initializer.find_certificate"],
    "initializer.jacobi_step": ["initializer.jacobi_step"],
    "solver_basic.newton_direction": ["solver_basic.newton_direction"],
    "solver_basic.line_search_basic": ["solver_basic.line_search_basic"],
    "solver_basic.solve_positive": ["solver_basic.solve_positive"],
    "solver_extended.line_search_extended": ["solver_extended.line_search_extended"],
    "solver_extended.solve_nonnegative": ["solver_extended.solve_nonnegative"],
    "tensor.read_tensor": ["tensor.read_tensor"],
    "tensor.read_vector": ["tensor.read_vector"],
    "tensor.write_tensor": ["tensor.write_tensor"],
    "tensor.write_vector": ["tensor.write_vector"],
    "report.write_trace_csv": ["report.write_trace_csv"],
    "cli.cmd_solve": ["cli.cmd_solve"],
    "cli.cmd_gen": ["cli.cmd_gen"],
}

# Tensor methods; those named with a storage suffix record
# "<name>.dense" or "<name>.coo".
METHODS = {"apply": "tensor.apply", "jacobian_matrix": "tensor.jacobian_matrix"}
PLAIN_METHODS = {"diagonal": "tensor.diagonal"}

# The solvers whose reports give Newton iterations and line-search trials.
SOLVERS = {"solver_basic.solve_positive": "solver_basic",
           "solver_extended.solve_nonnegative": "solver_extended"}

# Per-layer metrics: call counts of the spans in CALLS and self times of
# those in SELF_MS, per instance, and the RATIOS that Tracer.metrics
# computes.  A ratio whose base is 0 reads 0.
CALLS = ["tensor.apply.dense", "tensor.jacobian_matrix.dense", "linalg.lu_solve",
         "model.residual_jacobian", "model.in_feasible_split",
         "model.zero_block_threshold", "initializer.jacobi_step",
         "tensor.apply.coo", "tensor.diagonal", "solver_basic.newton_direction",
         "solver_basic.line_search_basic", "solver_extended.line_search_extended",
         "model.residual"]
SELF_MS = ["problems.gen", "problems.symmetrize_full", "model.make_problem",
           "tensor.apply.dense", "tensor.jacobian_matrix.dense", "linalg.lu_solve",
           "model.residual_jacobian", "model.in_feasible_split",
           "model.zero_block_threshold", "model.check_assumption",
           "initializer.jacobi_step", "initializer.find_certificate",
           "tensor.apply.coo", "solver_basic.line_search_basic",
           "solver_extended.line_search_extended", "tensor.read_tensor",
           "tensor.read_vector", "tensor.write_tensor", "tensor.write_vector",
           "problems.write_problem", "report.write_trace_csv", "cli.cmd_solve",
           "cli.cmd_gen"]
RATIOS = ["solver_extended.jacobians_per_iter", "initializer.applies_per_sweep",
          "solver_basic.trials_per_iter", "solver_extended.trials_per_iter"]


def per_layer_metrics():
    """``(name, unit)`` of every per-layer metric, in report order."""
    return ([(f"{s}.calls", "count") for s in CALLS]
            + [(f"{s}.ms", "ms") for s in SELF_MS]
            + [(r, "ratio") for r in RATIOS])


class Tracer:
    """In-memory span store and the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.reset()

    def reset(self):
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.iterations = {s: 0 for s in SOLVERS.values()}
        self.trials = {s: 0 for s in SOLVERS.values()}

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start[i] = time.perf_counter()
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        nid = self._id(name)
        solver = SOLVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if solver is not None:
                self.iterations[solver] += result.iterations
                self.trials[solver] += sum(rec.backtracks + 1 for rec in result.trace)
            return result
        return traced

    def wrap_storage_method(self, name, fn):
        dense_id, coo_id = self._id(f"{name}.dense"), self._id(f"{name}.coo")

        @functools.wraps(fn)
        def traced(tensor, *args, **kwargs):
            i = self._open(dense_id if tensor.is_dense else coo_id)
            try:
                return fn(tensor, *args, **kwargs)
            finally:
                self._close(i)
        return traced

    # ------------------------------------------------------------------
    # analysis

    def arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.int32).astype(np.int64),
                np.frombuffer(self.parent, dtype=np.int32).astype(np.int64),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def metrics(self, instances):
        """Per-instance per-layer metrics from the recorded spans."""
        names, parent, start, end = self.arrays()
        k = len(self.names)
        dur = end - start
        child = parent >= 0
        child_time = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        self_time = np.bincount(names, weights=dur - child_time, minlength=k)
        calls = np.bincount(names, minlength=k)

        def count(name):
            return int(calls[self._ids[name]]) if name in self._ids else 0

        def under(span_names, ancestor):
            """Spans named in ``span_names`` inside an ``ancestor`` span."""
            ids = [self._ids[s] for s in span_names if s in self._ids]
            if ancestor not in self._ids or not ids:
                return 0
            inside = _has_ancestor(names, parent, self._ids[ancestor])
            return int(np.sum(inside & np.isin(names, ids)))

        def ratio(num, den):
            return num / den if den else 0.0

        per = float(instances)
        out = {}
        for s in CALLS:
            out[f"{s}.calls"] = count(s) / per
        for s in SELF_MS:
            ms = float(self_time[self._ids[s]]) * 1e3 if s in self._ids else 0.0
            out[f"{s}.ms"] = ms / per
        jacobians = ["tensor.jacobian_matrix.dense", "tensor.jacobian_matrix.coo"]
        applies = ["tensor.apply.dense", "tensor.apply.coo"]
        out["solver_extended.jacobians_per_iter"] = ratio(
            under(jacobians, "solver_extended.solve_nonnegative"),
            self.iterations["solver_extended"])
        out["initializer.applies_per_sweep"] = ratio(
            under(applies, "initializer.find_certificate"),
            count("initializer.jacobi_step"))
        for solver in SOLVERS.values():
            out[f"{solver}.trials_per_iter"] = ratio(self.trials[solver],
                                                     self.iterations[solver])
        return out

    def save(self, path):
        names, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=names,
                            parent=parent, start=start, end=end)


def _has_ancestor(names, parent, target):
    found = np.zeros(len(names), dtype=bool)
    anc = parent.copy()
    live = anc >= 0
    while live.any():
        idx = np.flatnonzero(live)
        found[idx] |= names[anc[idx]] == target
        anc[idx] = parent[anc[idx]]
        live = anc >= 0
    return found


def mteq_modules():
    mods = [mteq]
    for info in pkgutil.iter_modules(mteq.__path__):
        if info.name == "__main__":
            continue
        mods.append(importlib.import_module(f"mteq.{info.name}"))
    return mods


def install(tracer: Tracer) -> None:
    """Wrap every traced function wherever an ``mteq`` module binds it."""
    mods = mteq_modules()
    by_name = {m.__name__.removeprefix("mteq."): m for m in mods}
    for span, targets in FUNCTIONS.items():
        for target in targets:
            mod_name, attr = target.split(".")
            original = getattr(by_name[mod_name], attr)
            traced = tracer.wrap(span, original)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
    for attr, span in METHODS.items():
        setattr(mteq.Tensor, attr,
                tracer.wrap_storage_method(span, getattr(mteq.Tensor, attr)))
    for attr, span in PLAIN_METHODS.items():
        setattr(mteq.Tensor, attr, tracer.wrap(span, getattr(mteq.Tensor, attr)))
