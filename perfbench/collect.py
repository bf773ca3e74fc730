"""Repeat the benchmark over seeds and summarise the spread.

    python3 perfbench/collect.py [--workloads a,b] [--seeds 1-10] [--traced]

Runs ``run.py`` once per workload and seed, one run at a time, with the run
length of ``BENCHMARK.json``.  Prints, per workload and end-to-end metric,
the median, the quartiles and the spread (interquartile distance over the
median) next to the metric's bound.  ``--traced`` adds one traced run per
workload (first seed) and prints its per-layer figures and the tracing
overhead.  Every raw result is appended to ``perfbench/out/runs.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(cmd, workload, seed, seconds, trace):
    argv = [sys.executable, *cmd[1:], "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update(workload=workload, seed=seed, trace=trace)
    (HERE / "out").mkdir(exist_ok=True)
    with open(HERE / "out" / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(result) + "\n")
    return result


def summarise(bench, workload, results):
    rows = []
    for metric in bench["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        flag = "" if spread <= metric["bound"] / 3 else " (above a third of the bound)"
        rows.append(f"| {workload} | {metric['name']} ({metric['unit']}) | {med:.4g} | "
                    f"{q1:.4g} to {q3:.4g} | {spread:.3f}{flag} | {metric['bound']} |")
    failed = sorted({(r["failed"], r["attempted"]) for r in results})
    correct = all(r["correct"] for r in results)
    return rows, f"{workload}: correct {correct}, failed/attempted per run {failed}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=None,
                        help="comma-separated names (default: all)")
    parser.add_argument("--seeds", default="1-10", help="inclusive range, such as 1-10")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    seeds = parse_seeds(args.seeds)
    table = ["| workload | metric | median | quartiles | spread | bound |",
             "|---|---|---|---|---|---|"]
    notes, traced = [], {}
    for name in names:
        results = [run_once(bench["command"], name, s, bench["run_seconds"], 0)
                   for s in seeds]
        rows, note = summarise(bench, name, results)
        table += rows
        notes.append(note)
        if args.traced:
            traced[name] = (run_once(bench["command"], name, seeds[0],
                                     bench["run_seconds"], 1), results)
    print("\n".join(table))
    print("\n".join(notes))
    for name, (result, untraced) in traced.items():
        summary = json.loads((HERE / "out" / f"trace-{name}.json").read_text())
        print(f"\n{name}, traced run (seed {seeds[0]}, {summary['instances']} instances):")
        for metric in ("solve_ms_p50", "instances_per_s"):
            base = statistics.median(r["metrics"][metric]["value"] for r in untraced)
            value = summary["end_to_end"][metric]
            print(f"  overhead {metric}: {value:.4g} traced against {base:.4g} untraced "
                  f"({(value - base) / base:+.1%})")
        for metric, entry in result["metrics"].items():
            if entry["value"]:
                print(f"  {metric} = {entry['value']:.4g} {entry['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
