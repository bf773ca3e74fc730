"""Run one workload of the mteq benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The library is imported from ``src/`` next
to this directory.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Instances run one at a time in this process (a closed loop with one
client), in whole rounds, until ``--seconds`` have passed.
"""

import os
import time

_T0 = time.perf_counter()

# One BLAS thread, set before numpy loads OpenBLAS: on a 2-core machine a
# second thread makes kernel times bimodal (see README.md).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("dense-positive", "dense-zero-rhs", "stencil-sweeps", "cli-files")

# Set-up runs this many times; setup_s is the import time plus the median.
SETUP_PASSES = 3

END_TO_END_UNITS = {"solve_ms_p50": "ms", "instances_per_s": "1/s",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def clear_caches(modules):
    """Empty every functools cache of the library, so each set-up pass
    rebuilds what the first one built."""
    for mod in modules:
        for value in list(vars(mod).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def set_up(workload, modules):
    passes = []
    for k in range(SETUP_PASSES):
        clear_caches(modules)
        gc.collect()
        tic = time.perf_counter()
        for inst in workload.warm(k):
            inst.run()
        passes.append(time.perf_counter() - tic)
    return statistics.median(passes)


def measure(workload, seconds, check_failure):
    """Whole rounds until ``seconds`` have passed; returns the solve and
    pipeline times of the instances that passed, and the counts."""
    solve_s, pipeline_s = [], []
    attempted = failed = 0
    correct = True
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds:
        for inst in workload.round(r):
            gc.collect()
            attempted += 1
            try:
                outcome = inst.run()
            except Exception:  # an operation failure, counted and reported
                failed += 1
                print(f"{inst.label}: failed\n{traceback.format_exc()}", file=sys.stderr)
                continue
            try:
                outcome.check()
            except check_failure as exc:
                failed += 1
                correct = False
                print(f"{inst.label}: wrong answer: {exc}", file=sys.stderr)
                continue
            solve_s.append(outcome.solve_s)
            pipeline_s.append(outcome.gen_s + outcome.solve_s)
        r += 1
    return solve_s, pipeline_s, attempted, failed, correct


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "mteq" / "__init__.py").is_file():
        print(f"error: no mteq package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks
    import tracing
    import workloads
    t_import = time.perf_counter() - _T0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    workdir = OUT / f"work-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
    gc.disable()
    try:
        setup_s = t_import + set_up(workload, tracing.mteq_modules())
        if tracer:
            tracer.reset()
        solve_s, pipeline_s, attempted, failed, correct = measure(
            workload, args.seconds, checks.CheckFailure)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not solve_s:
        print("error: no instance completed", file=sys.stderr)
        return 1
    end_to_end = {
        "solve_ms_p50": statistics.median(solve_s) * 1e3,
        "instances_per_s": len(pipeline_s) / sum(pipeline_s),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"{args.workload} seed {args.seed}: {attempted} instances, "
          f"{failed} failed; " + ", ".join(f"{k} {v:.6g}" for k, v in end_to_end.items()),
          file=sys.stderr)
    if tracer:
        layers = tracer.metrics(attempted)
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in tracing.per_layer_metrics()}
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{args.workload}.npz")
        with open(OUT / f"trace-{args.workload}.json", "w") as fh:
            json.dump({"seed": args.seed, "instances": attempted,
                       "end_to_end": end_to_end, "per_layer": layers}, fh, indent=1)
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in end_to_end.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
