"""The four benchmark workloads: seeded input plans, one op each, and the
correctness check every op must pass.

An op is one user-level query: one two-route series value, one pairing at
one t, or one two-route height-Mellin transform. Ops are grouped in rounds.
A round is a stratified sample of the workload's input ranges whose
cost-determining structure (which indices, which strata of t or s) is the
same for every seed, so a seed changes the values an op sees but not how
much work a round holds. A run executes a fixed number of whole rounds,
set by the run length and the workload's nominal round time, so every run
of a given length measures the same mix of work.

Functions of the package are looked up on the module objects at call time,
so the traced run sees the wrapped versions.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from picard_eisenstein import eisenstein, microlocal
from picard_eisenstein.eisenstein import TestFunctionPsi
from picard_eisenstein.h3 import GroupElementSL2C
from picard_eisenstein.su2 import SU2Element, SpectralIndex

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

# allowed deviation from a stored reference, relative to its modulus. The
# pairing value carries the line integral, converged to 1e-6 relative, so
# the table allows ten times that; the cusp value is a product of L-values
# and gamma factors accurate to about 1e-14.
PAIRING_RTOL = 1e-5
CUSP_RTOL = 1e-8

# grids the seeded t values are drawn from; the reference tables hold one
# value per grid point
PAIRING_GRID = tuple(20.0 + 2.5 * i for i in range(25))        # 20 .. 80
# width of the log-gaussian test function of the pairing scan. The line
# integral runs to where the test function's transform decays, |Im s| about
# 10.5 / width, so width 3 needs a third of the zeta nodes of the default
# width 1 (about 1,150 per t instead of 3,391) and a two-point scan fits in
# one run
PAIRING_PSI_WIDTH = 3.0
CUSP_GRID = tuple(float(t) for t in range(20, 201))            # 20 .. 200
CUSP_SPEC_INDEX = (2, 2, 2)
CUSP_SPEC_R = 1.3

# Known defect at the package commit the benchmark was defined on: for
# zero-frequency seeds the two height-Mellin routes drift apart as Re s
# falls and the band moves down, while the direct route's error estimate
# stays far smaller. At the worst corner of the drawn ranges (centre 2.8,
# width 0.33) the check ratio is 3.4 at s = 1.4, 1.38 at s = 1.6, 0.92 at
# s = 1.7 and 0.76 at s = 1.75. An op below this edge that completes but
# misses its budget is counted in `failed` like any other, but does not mark
# the run incorrect; an op that raises, or misses its budget anywhere else,
# does.
MELLIN_KNOWN_DEFECT_S = 1.75


@dataclass
class OpResult:
    latency_s: float
    ratio: float | None = None      # deviation / allowed deviation
    error: str | None = None        # exception raised by the op
    known_defect: bool = False      # inside a recorded defect region

    @property
    def passed(self) -> bool:
        return self.error is None and self.ratio is not None \
            and self.ratio < 1.0

    def row(self) -> list:
        """[latency_s, ratio, passed, known_defect, error], as reported."""
        ratio = None if self.ratio is None else float(self.ratio)
        return [self.latency_s, ratio, bool(self.passed), self.known_defect,
                self.error]


def load_reference(name: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, f"{name}.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    return {float(t): complex(re, im) for t, (re, im) in data["values"].items()}


# -- series_two_route ----------------------------------------------------------

# Im s classes: real, |Im s| in (0, 12] (float Bessel path) and (12, 20]
# (mpmath Bessel path); half the ops are real
_IM_CLASSES = ("lo", "hi", "real", "real")


# m of the first round is (0, 0, 1, 2) for l = 0..3: even on the ops with
# Im s != 0, whose Fourier route then runs both Bessel paths (odd m makes
# the series vanish without any Bessel call)
_M_OFFSET = (0, 1, 3, 5)


def _series_m(r: int, l: int) -> int:
    # cycles through every m with |m| <= l over consecutive rounds
    return (r + _M_OFFSET[l]) % (2 * l + 1) - l


def series_plan(seed: int, rounds: int) -> list:
    rng = np.random.default_rng(seed)
    plan = []
    for r in range(rounds):
        ops = []
        for l in range(4):
            k = int(rng.integers(-l, l + 1))
            m = _series_m(r, l)
            im_class = _IM_CLASSES[(r + l) % 4]
            s_re = float(rng.uniform(1.5, 2.5))
            sign = 1.0 if rng.random() < 0.5 else -1.0
            s_im = {"real": 0.0,
                    "lo": sign * float(rng.uniform(0.0, 12.0)),
                    "hi": sign * float(rng.uniform(12.0, 20.0))}[im_class]
            ops.append({
                "lkm": (l, k, m), "s": (s_re, s_im),
                "x": float(rng.uniform(-0.5, 0.5)),
                "y": float(rng.uniform(-0.5, 0.5)),
                "lam": float(rng.uniform(0.9, 1.7)),
                "rot": [float(v) for v in rng.normal(size=4)],
            })
        plan.append(ops)
    return plan


def series_round(ops: list, tracer=None) -> list:
    out = []
    for op in ops:
        if tracer is not None:
            tracer.new_op()
        params = eisenstein.SeriesParams(SpectralIndex.make(*op["lkm"]),
                                         complex(*op["s"]))
        v = op["rot"]
        g = (GroupElementSL2C.translation(complex(op["x"], op["y"]))
             * GroupElementSL2C.dilation(op["lam"])
             * GroupElementSL2C.from_su2(
                 SU2Element(complex(v[0], v[1]), complex(v[2], v[3]))))
        start = time.perf_counter()
        try:
            cs = eisenstein.eisenstein_coset_sum(params, g)
            fv = eisenstein.eisenstein_fourier_group(params, g)
        except (ArithmeticError, ValueError) as exc:
            out.append(OpResult(time.perf_counter() - start, error=repr(exc)))
            continue
        latency = time.perf_counter() - start
        # acceptance budget of the two-route check (verify eisenstein)
        budget = max(1e-4 * max(abs(cs.value), 1e-30), 3.0 * cs.tail_bound)
        out.append(OpResult(latency, abs(cs.value - fv) / budget))
    return out


# -- pairing_scan --------------------------------------------------------------

def pairing_plan(seed: int, rounds: int) -> list:
    # one t from each half of the grid, mirrored about its middle, so the
    # two points of a scan always sum to 100 and their joint cost varies
    # little between seeds
    rng = np.random.default_rng(seed)
    half = len(PAIRING_GRID) // 2
    plan = []
    for _ in range(rounds):
        i = int(rng.integers(0, half))
        plan.append([PAIRING_GRID[i], PAIRING_GRID[-1 - i]])
    return plan


def pairing_config(workers: int) -> dict:
    return {"index": SpectralIndex.make(0, 0, 0),
            "psi": TestFunctionPsi(width=PAIRING_PSI_WIDTH),
            "workers": workers}


def pairing_round(ts: list, reference: dict, tracer=None) -> list:
    """One scan over the round's t values with two pool workers. Each t is
    an op; its latency is the duration of its incomplete_pairing call."""
    stamps = {}
    lock = threading.Lock()
    inner = microlocal.incomplete_pairing

    def stamped(index, psi, t, *args, **kwargs):
        start = time.perf_counter()
        try:
            return inner(index, psi, t, *args, **kwargs)
        finally:
            with lock:
                stamps[float(t)] = time.perf_counter() - start

    if tracer is not None:
        tracer.new_op()
    microlocal.incomplete_pairing = stamped
    start = time.perf_counter()
    try:
        rows = microlocal.scan_t("incomplete", ts, pairing_config(workers=2))
    except (ArithmeticError, ValueError) as exc:
        wall = time.perf_counter() - start
        return [OpResult(wall, error=repr(exc)) for _ in ts]
    finally:
        microlocal.incomplete_pairing = inner
    out = []
    for row in rows:
        ref = reference[row.t]
        ratio = abs(row.value - ref) / (PAIRING_RTOL * abs(ref))
        out.append(OpResult(stamps[row.t], ratio))
    return out


# -- height_mellin -------------------------------------------------------------

_MELLIN_ROUND = 12
# (l, |two_k|, |two_m|) of the extra seeds of a round, in slot order: every
# seed shape once, a few twice. The shape sets the op's cost (how many
# series the spectral route expands, how many Wigner terms the direct route
# sums), so it is fixed; signs, frequencies and amplitudes are drawn.
_EXTRA_SEEDS = ((2, 0, 0), (4, 4, 4), (2, 2, 0), (0, 0, 0), (4, 0, 4),
                (4, 2, 0), (4, 4, 0), (2, 0, 0), (4, 0, 0), (4, 2, 4),
                (0, 0, 0), (4, 4, 4))


def mellin_plan(seed: int, rounds: int) -> list:
    # Latin hypercube over (Re s, centre, width): each round takes one value
    # from each of twelve equal strata of every range. Slot i holds 1 + i % 3
    # seeds: the scalar band seed at unit amplitude, as in both cases of
    # verify mellin, then extra seeds of the shapes above.
    rng = np.random.default_rng(seed)
    n = _MELLIN_ROUND
    plan = []
    for _ in range(rounds):
        strata = [(rng.permutation(n) + rng.random(n)) / n for _ in range(3)]
        s_vals = 1.4 + 1.1 * np.sort(strata[0])
        shapes = iter(_EXTRA_SEEDS)
        ops = []
        for i in range(n):
            seeds = [{"l": 0, "two_k": 0, "two_m": 0, "amplitude": 1.0,
                      "frequency": [0, 0]}]
            for _ in range(i % 3):
                l, two_k, two_m = next(shapes)
                seeds.append({
                    "l": l,
                    "two_k": two_k * int(rng.choice((-1, 1))),
                    "two_m": two_m * int(rng.choice((-1, 1))),
                    "amplitude": float(rng.uniform(0.3, 1.0)),
                    "frequency": [int(v) for v in rng.integers(0, 2, 2)]})
            ops.append({
                "s": float(s_vals[i]),
                "center": float(2.8 + 0.8 * strata[1][i]),
                "width": float(0.2 + 0.13 * strata[2][i]),
                "seeds": seeds,
            })
        plan.append(ops)
    return plan


def mellin_round(ops: list, tracer=None) -> list:
    out = []
    for op in ops:
        if tracer is not None:
            tracer.new_op()
        start = time.perf_counter()
        try:
            psi = eisenstein.TestFunctionPsi(center=op["center"],
                                             width=op["width"])
            f = microlocal.invariant_fiber_function(
                [microlocal.SeedMode(sd["l"], sd["two_k"], sd["two_m"],
                                     complex(sd["amplitude"]),
                                     tuple(sd["frequency"]))
                 for sd in op["seeds"]], psi)
            d = microlocal.mellin_direct_result(f, op["s"])
            e = microlocal.mellin_eisenstein_result(f, op["s"])
        except (ArithmeticError, ValueError) as exc:
            # an exception is never exempt
            out.append(OpResult(time.perf_counter() - start, error=repr(exc)))
            continue
        latency = time.perf_counter() - start
        # budget of verify mellin
        budget = max(1e-3, 3.0 * (d.error_estimate + e.error_estimate))
        out.append(OpResult(latency, abs(d.value - e.value) / budget,
                            known_defect=op["s"] < MELLIN_KNOWN_DEFECT_S))
    return out


# -- cusp_scan -----------------------------------------------------------------

_CUSP_STRATA = 5


def cusp_plan(seed: int, rounds: int) -> list:
    # five strata of 36 integers in [20, 199], two distinct t in each,
    # mirrored about the stratum's middle: the pair's joint cost, and the
    # median op of the round (the pair of the middle stratum), vary little
    # between seeds
    rng = np.random.default_rng(seed)
    width = 36
    plan = []
    for _ in range(rounds):
        ts = []
        for i in range(_CUSP_STRATA):
            lo = CUSP_GRID[0] + i * width
            j = int(rng.integers(0, width // 2))
            ts += [lo + j, lo + width - 1 - j]
        plan.append(sorted(ts))
    return plan


def cusp_round(ts: list, reference: dict, tracer=None) -> list:
    spec = microlocal.CuspFormSpec(SpectralIndex.make(*CUSP_SPEC_INDEX),
                                   r=CUSP_SPEC_R)
    out = []
    for t in ts:
        if tracer is not None:
            tracer.new_op()
        start = time.perf_counter()
        try:
            rows = microlocal.scan_t("cusp", [t], {
                "spec": spec, "provider": microlocal.mock_l_provider,
                "workers": 1})
        except (ArithmeticError, ValueError) as exc:
            out.append(OpResult(time.perf_counter() - start, error=repr(exc)))
            continue
        latency = time.perf_counter() - start
        ref = reference[t]
        out.append(OpResult(latency,
                            abs(rows[0].value - ref) / (CUSP_RTOL * abs(ref))))
    return out


@dataclass(frozen=True)
class Workload:
    plan: Callable[[int, int], list]      # (seed, rounds) -> rounds
    run_round: Callable[..., list]        # (round, [reference], tracer)
    round_s: float                        # nominal round time, see rounds()
    reference: str | None = None          # name of the reference table

    def rounds(self, seconds: float) -> int:
        """Rounds a run of the given length executes: as many whole rounds
        as fit at the nominal round time (measured on a 2-core x86-64 VM
        when the benchmark was defined), at least one. The count depends on
        nothing measured, so a faster program shows as a shorter run of the
        same work."""
        return max(1, int(seconds // self.round_s))


WORKLOADS = {
    "series_two_route": Workload(series_plan, series_round, 15.0),
    "pairing_scan": Workload(pairing_plan, pairing_round, 11.5,
                             "pairing_scan"),
    "height_mellin": Workload(mellin_plan, mellin_round, 2.6),
    "cusp_scan": Workload(cusp_plan, cusp_round, 16.0, "cusp_scan"),
}
