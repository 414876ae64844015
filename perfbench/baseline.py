"""Measure the benchmark's baseline and write perfbench/baseline.json.

    python3 perfbench/baseline.py [--seeds 1 2 ...] [--workloads a b ...]
                                  [--sets 2] [--repeats 5]

Run from the repository root. For every workload: --sets sets of untraced
runs, one run per seed in each (the end-to-end metrics, their medians and
the quartile spread as a share of the median, as the acceptance rule
computes it), --repeats untraced runs of the first seed (the same spread
with the inputs fixed, which is the machine's share of it), and one traced
run on the first seed (per-layer metrics and the time shares of the layers,
taken from the span file). The sets run one after another over all
workloads, so they are minutes apart. `drift` is how much worse the last
set's median is than the first set's, as a share of the first; the
acceptance rule allows at most the metric's bound. Results of an earlier
baseline.json are kept for workloads not measured again.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "baseline.json")
sys.path.insert(0, HERE)

import run  # noqa: E402

# which end-to-end metric each layer metric is expected to move, and where
# a change must leave things unchanged
LAYER_MAP = [
    {"layer": "lseries.zeta_K_continued.self_s",
     "moves": {"pairing_scan": ["ops_per_s", "op_p50_s"]},
     "unchanged": ["series_two_route", "height_mellin"]},
    {"layer": "lseries.l_function_continued.self_s (Hecke path, n != 0)",
     "moves": {"cusp_scan": ["ops_per_s", "op_tail_s"]},
     "unchanged": ["height_mellin"]},
    {"layer": "lseries.lru_hit_ratio, lseries.duplicate_evals, "
              "microlocal.scan_t.self_s",
     "moves": {"pairing_scan": ["ops_per_s", "cpu_s_per_op"]},
     "unchanged": ["cusp_scan"]},
    {"layer": "eisenstein.eisenstein_coset_sum.self_s, su2.wigner_D_su2, "
              "gaussian.factor_gauss",
     "moves": {"series_two_route": ["ops_per_s"]},
     "unchanged": ["pairing_scan"]},
    {"layer": "specfun.bessel_k_complex.self_s (mpmath path)",
     "moves": {"series_two_route": ["op_tail_s (ops with |Im s| > 12)"]},
     "unchanged": []},
    {"layer": "eisenstein.fourier_expansion_terms, lseries.sigma_twisted, "
              "gaussian.divisors, h3.integrate_dV",
     "moves": {"height_mellin": ["ops_per_s", "check_ratio_max and "
                                 "failed_frac (integrate_dV)"]},
     "unchanged": []},
    {"layer": "lattice-table and cache sizes",
     "moves": {w: ["peak_rss_mb"] for w in run.WORKLOADS},
     "unchanged": []},
]

KNOWN_DEFECTS = [{
    "workload": "height_mellin",
    "region": "Re s < 1.75 (perfbench/workloads.py MELLIN_KNOWN_DEFECT_S)",
    "what": "For zero-frequency seeds the direct and spectral height-Mellin "
            "routes drift apart as Re s falls and the band moves down; the "
            "direct route's error estimate stays far below the gap "
            "(ROADMAP 5a). Centre 2.9, width 0.26, s = 1.45: reported error "
            "8e-6, gap 1.5e-3. Centre 2.8, width 0.33, single scalar seed: "
            "check ratio 3.4 at s = 1.4, 1.38 at s = 1.6, 0.92 at s = 1.7, "
            "0.76 at s = 1.75. "
            "At s = 1.3 (outside the drawn range) the quadrature raises "
            "ArithmeticError.",
    "handling": "ops in the region that complete but miss their budget are "
                "counted in `failed` and failed_frac; they do not set "
                "correct to false. An op that raises, or misses its budget "
                "outside the region, does.",
}]


def _machine_loop_s() -> float:
    """Time of a fixed pure-Python loop: the machine's speed at the moment,
    recorded with every run so that machine noise can be told apart from
    differences between seeds."""
    start = time.perf_counter()
    total = 0
    for i in range(3_000_000):
        total += i * i % 7
    return time.perf_counter() - start


def _bench(workload: str, seed: int, trace: int, seconds: int) -> dict:
    loop_s = _machine_loop_s()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    extra = {}
    for line in lines[:-1]:
        parts = line.split()
        if parts and parts[0] in {n for n, _, _ in run.REPORTED}:
            extra[parts[0]] = None if parts[1] == "n/a" else float(parts[1])
    return {"result": json.loads(lines[-1]), "extra": extra,
            "machine_loop_s": loop_s}


def _quartiles(values: list) -> dict:
    med = statistics.median(values)
    q = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q[0], "q3": q[2],
            "spread": (q[2] - q[0]) / med if med else None,
            "values": values}


def _outermost_seconds(spans: list, parent_of: dict, names: set) -> float:
    """Summed duration of spans named in `names` with no ancestor that is
    also named in `names` (so nested calls are not counted twice)."""
    name_of = {sp[0]: sp[1] for sp in spans}
    total = 0.0
    for sid, name, start, end, parent, _, _ in spans:
        if name not in names:
            continue
        p = parent
        while p is not None and name_of[p] not in names:
            p = parent_of[p]
        if p is None:
            total += end - start
    return total


def span_shares(path: str) -> dict:
    """Inclusive time of each traced function as a share of op time (the
    summed duration of the spans that start an op)."""
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        data = json.load(fh)
    names = data["names"]
    spans = [(r[0], names[r[1]], r[2], r[3], r[4], r[5], r[6])
             for r in data["spans"]]
    parent_of = {sp[0]: sp[4] for sp in spans}
    op_of = {sp[0]: sp[5] for sp in spans}
    # an op starts at a span without parent or with a parent of another op;
    # a start that contains other ops' starts (a pooled scan) is left out
    starts = [sp for sp in spans
              if sp[4] is None or op_of[sp[4]] != sp[5]]
    containers = {sp[4] for sp in starts if sp[4] is not None}
    op_spans = [sp for sp in starts if sp[0] not in containers]
    op_time = sum(end - start for _, _, start, end, _, _, _ in op_spans)
    out = {"op_time_s": op_time, "op_spans": sorted({sp[1] for sp in op_spans})}
    for name in sorted(set(names)):
        out[name] = _outermost_seconds(spans, parent_of, {name}) / op_time
    out["lvalues (zeta_K_continued + l_function_continued)"] = \
        _outermost_seconds(spans, parent_of, {
            "lseries.zeta_K_continued",
            "lseries.l_function_continued"}) / op_time
    out["fourier_expansion_terms + integrate_dV"] = _outermost_seconds(
        spans, parent_of, {"eisenstein.fourier_expansion_terms",
                           "h3.integrate_dV"}) / op_time
    return out


def _metadata() -> dict:
    import platform
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "unknown"
    return {"git_rev": rev, **run.run_metadata(),
            "machine": platform.machine(),
            "date": time.strftime("%Y-%m-%d", time.gmtime())}


def _summarise(runs: list) -> dict:
    out = {"attempted": [r["result"]["attempted"] for r in runs],
           "failed": [r["result"]["failed"] for r in runs],
           "correct": [r["result"]["correct"] for r in runs],
           "machine_loop_s": _quartiles([r["machine_loop_s"] for r in runs]),
           "end_to_end": {name: _quartiles(
               [r["result"]["metrics"][name]["value"] for r in runs])
               for name, _, _ in run.END_TO_END},
           "reported": {}}
    for name, _, _ in run.REPORTED:
        vals = [r["extra"].get(name) for r in runs]
        vals = [v for v in vals if v is not None]
        out["reported"][name] = _quartiles(vals) if vals else None
    return out


def _drift(first: dict, last: dict) -> dict:
    """Share by which the last set's median is worse than the first's."""
    out = {}
    for name, _, better in run.END_TO_END:
        a = first["end_to_end"][name]["median"]
        b = last["end_to_end"][name]["median"]
        out[name] = (b - a) / a if better == "lower" else (a - b) / a
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    ap.add_argument("--workloads", nargs="+", default=list(run.WORKLOADS))
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--repeats", type=int, default=5)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    try:
        with open(OUT, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        doc = {"workloads": {}}
    doc["metadata"] = _metadata()
    doc["run_seconds"] = args.seconds

    sets = {wl: [] for wl in args.workloads}
    for k in range(args.sets):
        for wl in args.workloads:
            runs = [_bench(wl, seed, 0, args.seconds) for seed in args.seeds]
            sets[wl].append(_summarise(runs))
            print(f"{wl} set {k + 1}: " + ", ".join(
                f"{n} {v['median']:.4g} (spread {v['spread']:.3f})"
                for n, v in sets[wl][-1]["end_to_end"].items()), flush=True)
    for wl in args.workloads:
        same = _summarise([_bench(wl, args.seeds[0], 0, args.seconds)
                           for _ in range(args.repeats)])
        traced = _bench(wl, args.seeds[0], 1, args.seconds)
        spans = os.path.join(ROOT, ".perfbench", f"spans-{wl}.json.gz")
        drift = _drift(sets[wl][0], sets[wl][-1])
        spreads = [st["end_to_end"][n]["spread"]
                   for st in sets[wl] for n in bounds if n != "setup_s"]
        doc["workloads"][wl] = {
            "seeds": args.seeds,
            "sets": sets[wl],
            "same_seed": {"seed": args.seeds[0], **same},
            "drift": drift,
            "within_bounds": all(
                st["end_to_end"][n]["spread"] <= bounds[n]
                for st in sets[wl] for n in bounds if n != "setup_s")
            and all(drift[n] <= bounds[n] for n in bounds),
            "max_spread_share_of_bound": max(
                st["end_to_end"][n]["spread"] / bounds[n]
                for st in sets[wl] for n in bounds if n != "setup_s"),
            "per_layer": {k: v["value"] for k, v
                          in traced["result"]["metrics"].items()},
            "shares": span_shares(spans),
        }
        print(f"{wl}: same-seed " + ", ".join(
            f"{n} spread {v['spread']:.3f}"
            for n, v in same["end_to_end"].items())
            + "; drift " + ", ".join(f"{n} {v:+.3f}" for n, v in drift.items())
            + f"; max spread {max(spreads):.3f}", flush=True)
    doc["layer_map"] = LAYER_MAP
    doc["known_defects"] = KNOWN_DEFECTS
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
