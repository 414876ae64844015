"""Benchmark of the picard_eisenstein package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src. Each
measurement runs in a fresh child process (perfbench/child.py) with cold
caches and PICARD_EISENSTEIN_WORKERS removed from its environment; worker
counts are set by the workloads themselves.

--trace 0 measures the end-to-end metrics: four set-up-only children plus
the measuring child give five set-up samples (setup_s is their median), and
the measuring child runs a fixed number of whole rounds of the workload,
as many as fit in S seconds at the workload's nominal round time
(workloads.Workload.rounds). --trace 1 runs the same rounds twice, untraced
and then traced, each in its own fresh process; the traced child gives the
per-layer metrics and the wall-time difference is the tracing overhead.
Spans are written to .perfbench/spans-<workload>.json.gz.

The report lists every metric with its unit; the last line of standard
output is one JSON object {"correct", "attempted", "failed", "metrics"}.
The exit code is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import per_layer_names  # noqa: E402

WORKLOADS = ("series_two_route", "pairing_scan", "height_mellin", "cusp_scan")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0   # every child is killed before the run exceeds this

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("cpu_s_per_op", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
# reported in the text lines only, without a regression bound: the latency
# percentiles rest on 2 to 10 ops per run on three workloads (op_tail_s is
# undefined below 11 ops), failed_frac is 0 on three workloads, and
# check_ratio_max is a maximum over seeded draws
REPORTED = (
    ("op_p50_s", "s", "lower"),
    ("op_tail_s", "s", "lower"),
    ("failed_frac", "ratio", "lower"),
    ("check_ratio_max", "ratio", "lower"),
)


class BenchError(RuntimeError):
    pass


def _child(root: str, started: float, args, mode: str,
           spans: str = "") -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PICARD_EISENSTEIN_WORKERS", "PYTHONPATH")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode,
           "--t0", repr(time.monotonic())]
    if spans:
        cmd += ["--spans", spans]
    remaining = DEADLINE_S - (time.monotonic() - started)
    if remaining < 1.0:
        raise BenchError("time budget exhausted")
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} child exceeded the time budget") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} child failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} child printed nothing:\n{proc.stderr}")
    return json.loads(lines[-1])


def _check_package(root: str, result: dict):
    expected = os.path.realpath(os.path.join(root, "src", "picard_eisenstein"))
    if os.path.realpath(result["package"]) != expected:
        raise BenchError(f"imported {result['package']}, not {expected}")


def _op_summary(ops: list) -> dict:
    """Correctness counts of op rows (see workloads.OpResult.row)."""
    passed = sum(op[2] for op in ops)
    ratios = [op[1] for op in ops if op[1] is not None]
    return {"attempted": len(ops), "passed": passed,
            "failed": len(ops) - passed,
            # a failure inside a recorded defect region is counted, but
            # does not make the run incorrect
            "correct": all(op[2] or op[3] for op in ops),
            "check_ratio_max": max(ratios) if ratios else float("nan")}


def tail_latency(latencies: list):
    """(value, percentile) of the highest latency with at least ten ops
    above it, or None when fewer than eleven ops ran."""
    n = len(latencies)
    if n < 11:
        return None
    return sorted(latencies)[n - 11], 100.0 * (n - 10) / n


def measure(root: str, started: float, args) -> tuple[dict, dict, dict]:
    """End-to-end run: returns (summary, metrics, extra report values)."""
    setups = [_child(root, started, args, "setup")["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    res = _child(root, started, args, "run")
    _check_package(root, res)
    setups.append(res["setup_s"])
    summ = _op_summary(res["ops"])
    lat = [op[0] for op in res["ops"]]
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": summ["passed"] / res["wall_s"],
        "cpu_s_per_op": res["cpu_s"] / summ["attempted"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    tail = tail_latency(lat)
    extra = {
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail[0] if tail else None,
        "op_tail_note": (f"p{tail[1]:.1f} of {len(lat)} ops" if tail
                         else f"undefined: {len(lat)} ops, 11 needed"),
        "failed_frac": summ["failed"] / summ["attempted"],
        "check_ratio_max": summ["check_ratio_max"],
        "rounds": res["rounds"], "wall_s": res["wall_s"],
        "setup_samples": setups,
    }
    return summ, metrics, extra


def trace(root: str, started: float, args) -> tuple[dict, dict, dict]:
    """Traced run: the same rounds untraced, then traced."""
    base = _child(root, started, args, "run")
    _check_package(root, base)
    out_dir = os.path.join(root, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, f"spans-{args.workload}.json.gz")
    res = _child(root, started, args, "trace", spans=spans)
    s1, s2 = _op_summary(base["ops"]), _op_summary(res["ops"])
    summ = {"attempted": s1["attempted"] + s2["attempted"],
            "failed": s1["failed"] + s2["failed"],
            "correct": s1["correct"] and s2["correct"]}
    metrics = dict(res["layers"])
    metrics["trace.overhead_s"] = res["wall_s"] - base["wall_s"]
    metrics["trace.uncovered_s"] = res["wall_s"] - res["root_s"]
    extra = {"rounds": res["rounds"], "untraced_wall_s": base["wall_s"],
             "traced_wall_s": res["wall_s"], "root_span_s": res["root_s"],
             "spans": res["spans"], "spans_file": spans}
    return summ, metrics, extra


def run_metadata() -> dict:
    """Python and library versions and the processor count."""
    import importlib.metadata as md
    out = {"python": platform.python_version()}
    for pkg in ("numpy", "scipy", "mpmath", "sympy"):
        try:
            out[pkg] = md.version(pkg)
        except md.PackageNotFoundError:
            out[pkg] = "missing"
    out["nproc"] = os.cpu_count()
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    started = time.monotonic()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "picard_eisenstein",
                                       "__init__.py")):
        print("error: run from a checkout root holding "
              "src/picard_eisenstein", file=sys.stderr)
        return 2
    try:
        summ, metrics, extra = (trace if args.trace else measure)(
            root, started, args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    units = {n: (u, b) for n, u, b in END_TO_END + REPORTED}
    units.update({n: (u, b) for n, u, b in per_layer_names()})
    print(f"# {args.workload} seed {args.seed} trace {args.trace}: "
          + ", ".join(f"{k} {v}" for k, v in run_metadata().items()))
    print(f"# attempted {summ['attempted']}, failed {summ['failed']}, "
          f"correct {summ['correct']}")
    for name, value in list(metrics.items()) + [
            (k, v) for k, v in extra.items() if k in units]:
        unit, better = units[name]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:<48} {shown:>14} {unit:<6} ({better} is better)")
    for key, value in extra.items():
        if key not in units:
            print(f"# {key}: {value}")
    listed = [n for n, _, _ in (per_layer_names() if args.trace
                                else END_TO_END)]
    print(json.dumps({
        "correct": summ["correct"], "attempted": summ["attempted"],
        "failed": summ["failed"],
        "metrics": {n: {"value": metrics[n], "unit": units[n][0]}
                    for n in listed}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
