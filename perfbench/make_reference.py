"""Compute a reference table of the benchmark: one value per grid point.

    PYTHONPATH=src python3 perfbench/make_reference.py pairing_scan|cusp_scan

Writes perfbench/reference/<workload>.json. The tables were computed once,
with the package at the commit named in the file, and the benchmark checks
every later version against them; regenerate one only when a change of the
expected values is intended and recorded.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import workloads
from picard_eisenstein import microlocal
from picard_eisenstein.su2 import SpectralIndex


def _rev() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(name: str) -> int:
    if name == "pairing_scan":
        grid = workloads.PAIRING_GRID
        cfg = workloads.pairing_config(workers=1)
        task = "incomplete"
        what = ("scan_t('incomplete') at index (0,0,0), log-gaussian test "
                f"function of width {workloads.PAIRING_PSI_WIDTH}, contour "
                "on, default contour step")
    elif name == "cusp_scan":
        grid = workloads.CUSP_GRID
        cfg = {"spec": microlocal.CuspFormSpec(
            SpectralIndex.make(*workloads.CUSP_SPEC_INDEX),
            r=workloads.CUSP_SPEC_R),
            "provider": microlocal.mock_l_provider, "workers": 1}
        task = "cusp"
        what = (f"scan_t('cusp') at index {workloads.CUSP_SPEC_INDEX}, "
                f"r = {workloads.CUSP_SPEC_R}, mock_l_provider")
    else:
        print(f"unknown workload {name!r}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    rows = microlocal.scan_t(task, grid, cfg)
    values = {repr(r.t): [r.value.real, r.value.imag] for r in rows}
    path = os.path.join(workloads.REFERENCE_DIR, f"{name}.json")
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    head = json.dumps({"workload": name, "computed_with": what,
                       "package_rev": _rev()}, indent=1)[:-2]
    body = ",\n".join(f"  {json.dumps(t)}: {json.dumps(v)}"
                       for t, v in values.items())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{head},\n "values": {{\n{body}\n }}\n}}\n')
    print(f"{path}: {len(values)} values in "
          f"{time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
