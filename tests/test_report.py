"""Solve reports, trace serialization, and the convergence-order estimate."""

import csv

import numpy as np
import pytest

from mteq import (IterationRecord, SolveReport, SolveStatus, estimate_order,
                  write_trace_csv)


def record(k, norm, alpha=1.0):
    return IterationRecord(k=k, alpha=alpha, residual_norm=norm, backtracks=0,
                           feasible=True, elapsed_ms=0.5)


def make_report(norms, mode=None):
    trace = [record(k + 1, r) for k, r in enumerate(norms[1:])]
    return SolveReport(status=SolveStatus.CONVERGED,
                       x_final=np.ones(2), y_final=np.ones(2), trace=trace,
                       final_residual=norms[-1], initial_residual=norms[0],
                       iterates=[np.ones(2)] * len(norms),
                       stop_threshold=1e-10, mode=mode)


def test_residual_path_prepends_start():
    rep = make_report([1.0, 0.1, 0.001])
    assert rep.residual_path() == [1.0, 0.1, 0.001]
    assert rep.converged and rep.iterations == 2


def test_estimate_order_exact_squaring():
    assert estimate_order([1e-2, 1e-4, 1e-8]) == pytest.approx(2.0, abs=1e-12)
    assert estimate_order([1e-1, 1e-2, 1e-3]) == pytest.approx(1.0, abs=1e-12)


def test_estimate_order_uses_last_triple():
    # leading history is ignored; only the final three residuals matter
    assert estimate_order([5.0, 1e-2, 1e-4, 1e-8]) == pytest.approx(2.0, abs=1e-12)


def test_estimate_order_undefined_cases():
    assert estimate_order([1e-2, 1e-4]) is None
    assert estimate_order([1e-2, 1e-4, 0.0]) is None
    assert estimate_order([1e-2, 1e-4, 1e-4]) is None  # not strictly decreasing
    assert estimate_order([1e-2, 1e-4, np.nan]) is None


def test_estimate_order_accepts_reports():
    rep = make_report([1e-2, 1e-4, 1e-8])
    assert estimate_order(rep) == pytest.approx(2.0, abs=1e-12)


def test_trace_csv_round_trip(tmp_path):
    rep = make_report([1.0, 0.25, 0.0625])
    path = tmp_path / "trace.csv"
    write_trace_csv(rep, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert rows[0]["k"] == "1"
    # %.17g survives the round trip exactly
    assert float(rows[1]["residual"]) == 0.0625
    assert "mode" not in rows[0]


def test_trace_csv_mode_column(tmp_path):
    rep = make_report([1.0, 0.5], mode="residual_scaled")
    path = tmp_path / "trace.csv"
    write_trace_csv(rep, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["mode"] == "residual_scaled"
