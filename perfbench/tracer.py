"""In-memory span tracer for the benchmark's traced run.

The tracer replaces a fixed list of the package's public functions by thin
wrappers, under every name a package module binds them to (so the call
``eisenstein.l_function_continued(...)`` inside the eisenstein module is
recorded as well as ``lseries.l_function_continued``). Each call records one
span: (id, name, start, end, parent id, op id, tag). Spans stay in memory
until the run ends; per-layer metrics are computed from them afterwards.

Self time of a span is its duration minus the part of its interval covered
by the union of its child spans, child spans from pool threads included.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import threading
import time

# (module, function) pairs whose calls are recorded, in report order
TRACED = (
    ("gaussian", "factor_gauss"),
    ("gaussian", "divisors"),
    ("su2", "wigner_D_su2"),
    ("specfun", "bessel_k_complex_array"),
    ("specfun", "bessel_k_complex"),
    ("specfun", "log_gamma"),
    ("lseries", "zeta_K_continued"),
    ("lseries", "l_function_continued"),
    ("lseries", "sigma_twisted"),
    ("h3", "integrate_dV"),
    ("eisenstein", "eisenstein_coset_sum"),
    ("eisenstein", "eisenstein_fourier_group"),
    ("eisenstein", "fourier_expansion_terms"),
    ("microlocal", "incomplete_pairing"),
    ("microlocal", "cusp_pairing_formula"),
    ("microlocal", "mellin_direct_result"),
    ("microlocal", "mellin_eisenstein_result"),
    ("microlocal", "scan_t"),
)

LVALUE_FUNCTIONS = ("lseries.zeta_K_continued", "lseries.l_function_continued")

# |Im s| bins of the L-value argument: (suffix, lower edge, upper edge)
IM_BINS = (("im_lt_50", 0.0, 50.0), ("im_50_150", 50.0, 150.0),
           ("im_ge_150", 150.0, float("inf")))

# orders with |Im nu| above this take the mpmath path of the Bessel code
BESSEL_MP_THRESHOLD = 12.0


def _im_bin(s) -> str:
    im = abs(complex(s).imag)
    for suffix, lo, hi in IM_BINS:
        if lo <= im < hi:
            return suffix
    return IM_BINS[-1][0]


def _tag(name: str, args) -> str | None:
    """Per-call attribute kept with the span: the |Im s| bin of an L-value
    argument, or the path a Bessel order selects."""
    if name in LVALUE_FUNCTIONS:
        return _im_bin(args[0])
    if name == "specfun.bessel_k_complex_array":
        return "mp" if abs(complex(args[0]).imag) > BESSEL_MP_THRESHOLD \
            else "float"
    return None


def per_layer_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for mod, fn in TRACED:
        out.append((f"{mod}.{fn}.calls", "count", "lower"))
        out.append((f"{mod}.{fn}.self_s", "s", "lower"))
    for name in LVALUE_FUNCTIONS:
        for kind, unit in (("self_s", "s"), ("calls", "count")):
            for suffix, _, _ in IM_BINS:
                out.append((f"{name}.{kind}.{suffix}", unit, "lower"))
    out += [
        ("lseries.lru_hit_ratio", "ratio", "higher"),
        ("lseries.duplicate_evals", "count", "lower"),
        ("specfun.bessel_mp_share", "ratio", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.uncovered_s", "s", "lower"),
    ]
    return out


class Tracer:
    """Records spans of the wrapped functions; install() patches the
    package modules, uninstall() restores them."""

    def __init__(self, modules: dict):
        self.modules = modules          # short name -> module object
        self.spans = []                 # finished spans, append-only
        self._ids = itertools.count(1)
        self._ops = itertools.count()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._root = None               # open main-thread span (for pools)
        self._current_op = 0
        self._saved = []                # (module, attribute, original)
        self.originals = {}             # traced name -> original function

    # -- op bookkeeping -------------------------------------------------------
    def new_op(self):
        """Start a new op in the calling (main) thread."""
        self._current_op = next(self._ops)

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    # -- wrapping ------------------------------------------------------------
    def _wrap(self, name: str, fn):
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent, op = stack[-1]
            elif threading.current_thread() is tracer._main:
                parent, op = None, tracer._current_op
            else:
                # root of a pool thread: caused by the open main-thread span,
                # and a new op (one scan point per worker call)
                parent, op = tracer._root, next(tracer._ops)
            sid = next(ids)
            stack.append((sid, op))
            if parent is None:
                tracer._root = sid
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if parent is None:
                    tracer._root = None
                spans.append((sid, name, start, end, parent, op,
                              _tag(name, args)))

        # keep the lru_cache statistics of the original reachable
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def install(self):
        for mod, fn_name in TRACED:
            original = getattr(self.modules[mod], fn_name)
            name = f"{mod}.{fn_name}"
            self.originals[name] = original
            wrapper = self._wrap(name, original)
            for module in self.modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, value))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    # -- results -------------------------------------------------------------
    def root_seconds(self) -> float:
        """Summed duration of the main thread's top-level spans."""
        return sum(end - start for (_, _, start, end, parent, _, _)
                   in self.spans if parent is None)

    def self_times(self) -> dict:
        """span id -> self time (duration minus the union of its children)."""
        children = {}
        for sp in self.spans:
            if sp[4] is not None:
                children.setdefault(sp[4], []).append((sp[2], sp[3]))
        out = {}
        for sid, _, start, end, _, _, _ in self.spans:
            covered = 0.0
            cur_lo = cur_hi = None
            for lo, hi in sorted(children.get(sid, ())):
                lo, hi = max(lo, start), min(hi, end)
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out[sid] = (end - start) - covered
        return out

    def layer_metrics(self) -> dict:
        """Per-layer values keyed by metric name (tracing metrics excluded)."""
        selfs = self.self_times()
        vals = {name: 0.0 for name, _, _ in per_layer_names()
                if not name.startswith("trace.")}
        bessel_calls = bessel_mp = 0
        for sid, name, _, _, _, _, tag in self.spans:
            vals[f"{name}.calls"] += 1
            vals[f"{name}.self_s"] += selfs[sid]
            if name in LVALUE_FUNCTIONS:
                vals[f"{name}.calls.{tag}"] += 1
                vals[f"{name}.self_s.{tag}"] += selfs[sid]
            elif name == "specfun.bessel_k_complex_array":
                bessel_calls += 1
                bessel_mp += tag == "mp"
        hits = misses = size = 0
        for name in LVALUE_FUNCTIONS:
            info = self.originals[name].cache_info()
            hits, misses = hits + info.hits, misses + info.misses
            size += info.currsize
        vals["lseries.lru_hit_ratio"] = hits / (hits + misses) \
            if hits + misses else 0.0
        vals["lseries.duplicate_evals"] = float(misses - size)
        vals["specfun.bessel_mp_share"] = bessel_mp / bessel_calls \
            if bessel_calls else 0.0
        return vals

    def dump(self, path):
        """Write the spans as gzip-compressed JSON: a name table and rows
        [id, name index, start, end, parent, op, tag]."""
        names = sorted({sp[1] for sp in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[sid, index[name], round(start, 7), round(end, 7), parent,
                 op, tag] for sid, name, start, end, parent, op, tag
                in sorted(self.spans)]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": names,
                       "columns": ["id", "name", "start", "end", "parent",
                                   "op", "tag"],
                       "spans": rows}, fh)
