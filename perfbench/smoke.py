"""Smoke test of the benchmark: every workload at its smallest size (one
round), untraced and traced, plus the reference check.

    python3 -m pytest -q perfbench/smoke.py

Run from the repository root. The file is not named test_*.py, so the
package's own test run does not collect it; it takes a few minutes because
one round of pairing_scan is a two-point scan.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
from tracer import per_layer_names  # noqa: E402


def _bench(workload: str, trace: int) -> tuple[list, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def _reported(lines: list) -> dict:
    """metric name -> unit from the report lines."""
    out = {}
    for line in lines:
        if not line.startswith("#"):
            parts = line.split()
            out[parts[0]] = parts[2]
    return out


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_prints_every_metric(workload):
    lines, result = _bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    reported = _reported(lines)
    for name, unit, _ in run.END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert reported[name] == unit
    for name, unit, _ in run.REPORTED:
        assert reported[name] == unit


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_names_every_layer(workload):
    lines, result = _bench(workload, 1)
    assert result["correct"] is True
    metrics = result["metrics"]
    for name, unit, _ in per_layer_names():
        assert metrics[name]["unit"] == unit
    # the main thread's top-level spans cover the timed phase; what they
    # miss (the benchmark's own checks between ops) stays within the
    # tracing overhead, when that is positive, plus 1% of the phase
    traced_wall = float(next(line.split(":")[1] for line in lines
                             if line.startswith("# traced_wall_s:")))
    uncovered = metrics["trace.uncovered_s"]["value"]
    overhead = metrics["trace.overhead_s"]["value"]
    assert uncovered >= 0.0
    assert uncovered <= max(overhead, 0.0) + 0.01 * traced_wall


def test_benchmark_json_matches_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == per_layer_names()


def test_perturbed_reference_counts_as_failure():
    import workloads
    ref = workloads.load_reference("cusp_scan")
    t = workloads.CUSP_GRID[0]
    good = workloads.cusp_round([t], ref)
    assert run._op_summary([r.row() for r in good])["failed"] == 0
    bad_ref = dict(ref)
    bad_ref[t] = ref[t] * (1.0 + 10.0 * workloads.CUSP_RTOL)
    summ = run._op_summary([r.row() for r in workloads.cusp_round([t], bad_ref)])
    assert summ["failed"] == 1
    assert summ["correct"] is False
