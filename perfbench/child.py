"""One workload in one fresh process, so every lru cache starts cold as it
does in a command-line run. Started by run.py; prints one JSON object.

Modes:
  setup  import the package and build the inputs, then stop (set-up sample)
  run    measure the workload's rounds for a run of --seconds
  trace  the same rounds with every layer call recorded
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import resource
import sys
import time

LAYER_MODULES = ("gaussian", "su2", "specfun", "lseries", "h3", "eisenstein",
                 "microlocal", "cli")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"),
                    required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() of the parent when it started us")
    ap.add_argument("--spans", default="")
    args = ap.parse_args(argv)

    # set-up: everything a command-line user pays before the first result
    modules = {name: importlib.import_module(f"picard_eisenstein.{name}")
               for name in LAYER_MODULES}
    import workloads
    wl = workloads.WORKLOADS[args.workload]
    plan = wl.plan(args.seed, wl.rounds(args.seconds))
    run_round = wl.run_round
    if wl.reference:
        run_round = functools.partial(
            run_round, reference=workloads.load_reference(wl.reference))
    setup_s = time.monotonic() - args.t0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer
        tracer = Tracer(modules)
        tracer.install()
    results = []
    cpu0 = time.process_time()
    start = time.perf_counter()
    for ops in plan:
        results += run_round(ops, tracer=tracer)
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0

    out = {
        "setup_s": setup_s, "wall_s": wall, "cpu_s": cpu, "rounds": len(plan),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "ops": [r.row() for r in results],
        "package": os.path.dirname(modules["cli"].__file__),
    }
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.layer_metrics()
        out["root_s"] = tracer.root_seconds()
        out["spans"] = len(tracer.spans)
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
