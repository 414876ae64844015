"""Command-line front end: verification suites, series evaluation, t-scans.

Exit codes: 0 success (all checks passed), 1 runtime/IO failure or a failing
check, 2 usage or precondition error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from math import exp, isfinite, pi, sqrt

import numpy as np

from .eisenstein import (BESSEL_TOL, SeriesParams, TestFunctionPsi,
                         eisenstein_coset_sum, eisenstein_fourier_group,
                         f_seed)
from .gaussian import (GaussInt, divisors, enumerate_coset_reps, factor_gauss,
                       gauss_xgcd, is_coprime)
from .h3 import GroupElementSL2C, H3Point
from .lseries import (MAX_NORM_BOUND, SyntheticCuspCoefficients,
                      d_sum_closed, d_sum_direct, lfc_identity_check,
                      ramanujan_identity_check, zeta_K_continued)
from .microlocal import (CuspFormSpec, SeedMode, cusp_pairing_formula,
                         gamma_factor_block, invariant_fiber_function,
                         main_term_coefficient, mellin_direct_result,
                         mellin_eisenstein_result, mock_l_provider, scan_t,
                         verify_lemma_integral, verify_suma_es0)
from .specfun import digamma, digamma_shifted
from .su2 import (SpectralIndex, euler_decompose, haar_grid, random_su2,
                  rot_matrix, spin_cover, t_basis, t_modes, wigner_D_su2,
                  wigner_symmetries_check)


@dataclass
class RunConfig:
    coset_norm_bound: int = 1000
    out: str = ""
    format: str = "csv"
    seed: int = 20210

    def __post_init__(self):
        if not 1 <= self.coset_norm_bound <= MAX_NORM_BOUND:
            raise ValueError("truncation bounds must lie in "
                             f"[1, {MAX_NORM_BOUND}]")
        if self.format not in ("csv", "json"):
            raise ValueError(f"unknown output format {self.format!r}")


# RunConfig field -> command-line flag (argparse dest) that sets it
_CONFIG_FLAGS = (("coset_norm_bound", "coset_bound"), ("out", "out"),
                 ("format", "format"), ("seed", "seed"))


def build_config(args) -> RunConfig:
    """Flags > config file > defaults. The file may set only the fields
    whose flags the subcommand has."""
    fields = {field: flag for field, flag in _CONFIG_FLAGS
              if hasattr(args, flag)}
    merged = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
        bad = set(data) - set(fields)
        if bad:
            raise ValueError(f"unknown config keys: {sorted(bad)}")
        merged.update(data)
    for field, flag in fields.items():
        val = getattr(args, flag)
        if val is not None:
            merged[field] = val
    return RunConfig(**merged)


def finite(text: str) -> float:
    """argparse type: a float that is neither infinite nor NaN."""
    if not isfinite(val := float(text)):
        raise ValueError(text)
    return val


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def _jsonify(obj):
    """JSON text with floats at 17 significant digits (round-trip exact)."""
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _g17(obj)
    if isinstance(obj, complex):
        return _jsonify({"re": obj.real, "im": obj.imag})
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_jsonify(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {_jsonify(v)}"
                               for k, v in obj.items()) + "}"
    raise TypeError(f"cannot serialize {type(obj)}")


def _emit(cfg: RunConfig, columns, rows, meta: dict):
    """Write rows to cfg.out (or stdout) in the configured format."""
    meta = dict(sorted(meta.items()))
    if cfg.format == "json":
        text = _jsonify({"config": meta,
                         "columns": list(columns),
                         "rows": [list(r) for r in rows]}) + "\n"
    else:
        lines = [f"# {k}={v}" for k, v in meta.items()]
        lines.append(",".join(columns))
        for r in rows:
            lines.append(",".join(
                _g17(v) if isinstance(v, (float, np.floating)) else str(v)
                for v in r))
        text = "\n".join(lines) + "\n"
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- verification suites ------------------------------------------------------------

def _suite_wigner(cfg: RunConfig):
    rng = np.random.default_rng(cfg.seed)
    pairs = [(random_su2(rng), random_su2(rng)) for _ in range(100)]
    js = [n / 2.0 for n in range(9)]  # j = 0, 1/2, ..., 4

    def dmat(j, a):
        n = int(2 * j) + 1
        return np.array([[wigner_D_su2(j, (2 * r - int(2 * j)) / 2.0,
                                       (2 * c - int(2 * j)) / 2.0, a)
                          for c in range(n)] for r in range(n)])

    unit = rep = 0.0
    for a, b in pairs:
        for j in js:
            da, db = dmat(j, a), dmat(j, b)
            n = da.shape[0]
            unit = max(unit, float(np.max(np.abs(da @ da.conj().T
                                                 - np.eye(n)))))
            rep = max(rep, float(np.max(np.abs(dmat(j, a * b) - da @ db))))
    sym = 0.0
    for a, _ in pairs[:20]:
        for j in js:
            for tk in range(-int(2 * j), int(2 * j) + 1, 2):
                for tm in range(-int(2 * j), int(2 * j) + 1, 2):
                    sym = max(sym, wigner_symmetries_check(
                        j, tk / 2.0, tm / 2.0, a))
    hom = ker = rt = 0.0
    samples = [(random_su2(rng), random_su2(rng)) for _ in range(1000)]
    for a, b in samples:
        ra, rb, rab = spin_cover(a), spin_cover(b), spin_cover(a * b)
        hom = max(hom, float(np.max(np.abs(rab.entries
                                           - ra.entries @ rb.entries))))
    for a, _ in samples[:200]:
        ang = euler_decompose(spin_cover(a))
        back = rot_matrix(ang.theta, ang.chi, ang.phi)
        rt = max(rt, float(np.max(np.abs(back.entries
                                         - spin_cover(a).entries))))
    from .su2 import SU2Element
    minus = SU2Element(-1.0, 0.0)
    ker = float(np.max(np.abs(spin_cover(minus).entries - np.eye(3))))
    grid = haar_grid(12, 20, 24)
    modes = [(l, k, m) for l in range(3) for k, m in t_modes(l)]
    vals = np.array([[t_basis(l, k, m, a) for a in grid[0]]
                     for l, k, m in modes])
    gram = (vals * grid[1]) @ vals.conj().T
    orth = float(np.max(np.abs(gram - np.eye(len(modes)) / (2 * pi ** 2))))
    return [
        ("unitarity", unit, 1e-12),
        ("representation-product", rep, 1e-12),
        ("symmetries-and-base-change", sym, 1e-12),
        ("spin-cover-homomorphism", hom, 1e-12),
        ("spin-cover-kernel", ker, 1e-12),
        ("euler-round-trip", rt, 1e-12),
        ("basis-orthogonality-l<=2", orth, 1e-6),
    ]


def _suite_lattice(cfg: RunConfig):
    rng = np.random.default_rng(cfg.seed)
    fac = 0.0
    for _ in range(200):
        w = GaussInt(int(rng.integers(-40, 41)), int(rng.integers(-40, 41)))
        if w.is_zero():
            continue
        unit, factors = factor_gauss(w)
        prod = unit
        count = 1
        for p, e in factors.items():
            count *= e + 1
            for _ in range(e):
                prod = prod * p
        fac = max(fac, abs(complex(prod.re - w.re, prod.im - w.im)))
        # divisors() lists all unit multiples: four per associate class
        fac = max(fac, abs(len(divisors(w)) - 4 * count))
    xg = 0.0
    for _ in range(200):
        a = GaussInt(int(rng.integers(-30, 31)), int(rng.integers(-30, 31)))
        b = GaussInt(int(rng.integers(-30, 31)), int(rng.integers(-30, 31)))
        if a.is_zero() or b.is_zero():
            continue
        g, x, y = gauss_xgcd(a, b)
        lhs = a * x + b * y
        xg = max(xg, abs(complex(lhs.re - g.re, lhs.im - g.im)))
    reps = enumerate_coset_reps(120)
    cop = 0.0 if all(is_coprime(r.c, r.d) for r in reps) else 1.0
    uniq = 0.0 if len({(r.c.re, r.c.im, r.d.re, r.d.im)
                       for r in reps}) == len(reps) else 1.0
    return [
        ("factorization-round-trip", fac, 1e-12),
        ("extended-gcd-identity", xg, 1e-12),
        ("coset-rows-coprime", cop, 0.5),
        ("coset-rows-distinct", uniq, 0.5),
    ]


def _suite_lfunctions(cfg: RunConfig):
    rows = []
    bound = max(cfg.coset_norm_bound, 10 ** 4)
    worst = 0.0
    for w in (0.5, 0.5 + 0.5j, 1.0):
        for k in (0, 2):
            closed = d_sum_closed(k, w, 1.5)
            direct = d_sum_direct(k, w, 1.5, bound)
            worst = max(worst, abs(direct - closed) / abs(closed))
    rows.append(("exponential-sum-closed-form", worst, 1e-4))
    r1 = ramanujan_identity_check(0, 0, 0, 0.0, 0.0, 3.0, truncation=10 ** 5)
    r2 = ramanujan_identity_check(1, 0, 0, 0.5, -0.25, 4.0,
                                  truncation=10 ** 5)
    rows.append(("convolution-identity-trivial", r1.rel_deviation, 1e-4))
    rows.append(("convolution-identity-twisted", r2.rel_deviation, 1e-4))
    zk2 = zeta_K_continued(2.0 + 0.0j).real
    rows.append(("dedekind-zeta-at-2", abs(zk2 - 1.5067030), 1e-6))
    return rows


def _suite_eisenstein(cfg: RunConfig):
    points = (H3Point(0.13, 0.21, 1.1), H3Point(-0.31, 0.05, 0.95),
              H3Point(0.02, -0.44, 1.6))
    rows = []
    for lkm in ((0, 0, 0), (1, 0, 0), (1, 1, 1), (2, 1, 0)):
        params = SeriesParams(SpectralIndex.make(*lkm), 2.0)
        worst = 0.0
        for p in points:
            g = (GroupElementSL2C.translation(p.z)
                 * GroupElementSL2C.dilation(p.lam))
            cs = eisenstein_coset_sum(params, g, cfg.coset_norm_bound)
            fv = eisenstein_fourier_group(params, g)
            budget = max(1e-4 * max(abs(cs.value), 1e-30),
                         3.0 * cs.tail_bound)
            worst = max(worst, abs(cs.value - fv) / budget)
        rows.append((f"two-route-l{lkm[0]}k{lkm[1]}m{lkm[2]}", worst, 1.0))
    # on the line Re s = 0 the expansion is the only route: the series is
    # invariant under S and TS to within 1e4 times the Bessel tolerance
    g = (GroupElementSL2C.translation(0.1 + 0.05j)
         * GroupElementSL2C.dilation(0.5))
    inversion = GroupElementSL2C(0.0, -1.0, 1.0, 0.0)
    gammas = (inversion, GroupElementSL2C.translation(1.0) * inversion)
    for t in (20, 60):
        for lkm in ((0, 0, 0), (1, 1, 0), (2, 0, 0), (2, 2, 2), (3, 1, -2)):
            params = SeriesParams(SpectralIndex.make(*lkm), 1j * t)
            base = eisenstein_fourier_group(params, g)
            gap = max(abs(eisenstein_fourier_group(params, gm * g) - base)
                      for gm in gammas)
            rows.append((f"invariance-t{t}-l{lkm[0]}k{lkm[1]}m{lkm[2]}",
                         gap / abs(base), 1e4 * BESSEL_TOL))
    return rows


def _suite_appendix(cfg: RunConfig):
    rng = np.random.default_rng(cfg.seed)
    suma = max(verify_suma_es0(l) for l in range(1, 9))
    dig = 0.0
    for _ in range(20):
        s = complex(rng.uniform(0.2, 3.0), rng.uniform(-20.0, 20.0))
        m = int(rng.integers(1, 12))
        dig = max(dig, abs(digamma_shifted(s, m) - digamma(s + m)))
    lemma = verify_lemma_integral(TestFunctionPsi()).deviation
    coeffs = SyntheticCuspCoefficients.seeded(2 * 10 ** 4, cfg.seed)
    lfc = lfc_identity_check(coeffs, -8.0, 0, 0.5 + 0.25j,
                             truncation=2 * 10 ** 4).rel_deviation
    equi = 0.0
    g = (GroupElementSL2C.translation(0.2 - 0.1j)
         * GroupElementSL2C.dilation(1.3))
    for _ in range(5):
        bb = random_su2(rng)
        gb = g * GroupElementSL2C.from_su2(bb)
        for k in (-1, 0, 1):
            lhs = f_seed(SpectralIndex.make(1, k, 0), gb, 2.0)
            rhs = sum(
                complex(wigner_D_su2(1, k, a, bb.inv())).conjugate()
                * f_seed(SpectralIndex.make(1, a, 0), g, 2.0)
                for a in (-1, 0, 1))
            equi = max(equi, abs(lhs - rhs))
    return [
        ("alternating-weight-sums", suma, 1e-12),
        ("digamma-recurrence", dig, 1e-12),
        ("height-volume-integral", lemma, 1e-8),
        ("coefficient-convolution", lfc, 1e-5),
        ("seed-rotation-equivariance", equi, 1e-12),
    ]


def _suite_mellin(cfg: RunConfig):
    psi = TestFunctionPsi(center=3.3, width=0.3)
    fs = (invariant_fiber_function([SeedMode(0, 0, 0)], psi),
          invariant_fiber_function([SeedMode(0, 0, 0, 1.0, (0, 0)),
                                    SeedMode(4, 4, 4, 0.6, (0, 0)),
                                    SeedMode(2, 0, 0, 0.5, (1, 1))], psi))
    rows = []
    for tag, f in zip(("single-band", "mixed-band"), fs):
        worst = 0.0
        for s in (1.5, 2.0):
            d = mellin_direct_result(f, s)
            e = mellin_eisenstein_result(f, s)
            budget = max(1e-3,
                         3.0 * (d.error_estimate + e.error_estimate))
            worst = max(worst, abs(d.value - e.value) / budget)
        rows.append((f"two-route-transform-{tag}", worst, 1.0))
    return rows


def _suite_microlocal(cfg: RunConfig):
    spec = CuspFormSpec(SpectralIndex.make(2, 0, 0), r=1.3)
    ts = np.geomspace(40.0, 160.0, 9)
    gs = np.array([gamma_factor_block(spec, t) for t in ts])
    slope = float(np.polyfit(np.log(ts), np.log(gs), 1)[0])
    vals = [abs(cusp_pairing_formula(spec, t, mock_l_provider))
            for t in (20.0, 40.0, 80.0)]
    mono = max(0.0, vals[1] - vals[0], vals[2] - vals[1])
    from .microlocal import incomplete_pairing
    off = abs(incomplete_pairing(SpectralIndex.make(4, 0, 4),
                                 TestFunctionPsi(), 12.0,
                                 include_contour=False).residue_part)
    c = main_term_coefficient(SpectralIndex.make(0, 0, 0), TestFunctionPsi())
    cdev = abs(c - sqrt(pi) * exp(1.0) / (4.0 * 1.5067030))
    return [
        ("cusp-gamma-block-slope+1", abs(slope + 1.0), 0.1),
        ("cusp-pairing-monotone-decay", mono, 1e-15),
        ("off-diagonal-residue", off, 0.0),
        ("main-term-constant", cdev, 1e-5),
    ]


SUITES = {
    "wigner": _suite_wigner,
    "lattice": _suite_lattice,
    "lfunctions": _suite_lfunctions,
    "eisenstein": _suite_eisenstein,
    "appendix": _suite_appendix,
    "mellin": _suite_mellin,
    "microlocal": _suite_microlocal,
}


def cmd_verify(args) -> int:
    cfg = build_config(args)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    rows = []
    for name in names:
        for check, dev, tol in SUITES[name](cfg):
            status = "pass" if dev <= tol else "FAIL"
            rows.append((f"{name}/{check}", float(dev), float(tol), status))
    width = max(len(r[0]) for r in rows) + 2
    for check, dev, tol, status in rows:
        print(f"{check:<{width}} {dev:12.3e}  (tol {tol:.0e})  {status}")
    if cfg.out:
        _emit(cfg, ("check", "deviation", "tolerance", "status"), rows,
              {"command": "verify", "suite": args.suite, "seed": cfg.seed})
    failed = [r for r in rows if r[3] != "pass"]
    if failed:
        print(f"{len(failed)} of {len(rows)} checks failed")
        return 1
    print(f"all {len(rows)} checks passed")
    return 0


def cmd_eval(args) -> int:
    cfg = build_config(args)
    index = SpectralIndex.make(args.l, args.k, args.m)
    s = complex(args.s_re, args.s_im)
    if args.route in ("coset", "both") and not s.real > 1.0:
        raise ValueError("the coset route requires Re(s) > 1")
    try:
        x, y, lam = (finite(v) for v in args.point.split(","))
    except Exception as exc:
        raise ValueError(f"point must be finite 'x,y,lam': {exc}") from None
    if not lam > 0:
        raise ValueError("point height must be positive")
    # the Iwasawa coordinates of n[z] a[lam] carry 1/lam and z/lam
    if not isfinite((2.0 + abs(complex(x, y))) / lam):
        raise ValueError(f"height {lam} too small: (2+|z|)/height overflows")
    params = SeriesParams(index, s)
    g = (GroupElementSL2C.translation(complex(x, y))
         * GroupElementSL2C.dilation(lam))
    out = {"l": str(index.l), "k": str(index.k), "m": str(index.m),
           "s_re": s.real, "s_im": s.imag, "point": args.point,
           "route": args.route}
    if args.route in ("coset", "both"):
        cs = eisenstein_coset_sum(params, g, cfg.coset_norm_bound)
        out["coset_re"], out["coset_im"] = cs.value.real, cs.value.imag
        out["coset_tail"] = cs.tail_bound
    if args.route in ("fourier", "both"):
        fv = eisenstein_fourier_group(params, g)
        out["fourier_re"], out["fourier_im"] = fv.real, fv.imag
    if args.route == "both":
        out["deviation"] = abs(cs.value - fv)
    if cfg.format == "json":
        text = _jsonify(out) + "\n"
        if cfg.out:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    else:
        for key, val in out.items():
            print(f"{key} = {_g17(val) if isinstance(val, float) else val}")
    return 0


def cmd_scan(args) -> int:
    cfg = build_config(args)
    if not (0.0 < args.t_min < args.t_max):
        raise ValueError("need 0 < t_min < t_max")
    if args.steps < 2:
        raise ValueError("need at least 2 steps")
    grid = list(np.linspace(args.t_min, args.t_max, args.steps))
    meta = {"command": "scan", "task": args.task,
            "t_min": _g17(args.t_min), "t_max": _g17(args.t_max),
            "steps": args.steps}
    scan_cfg = {}
    if args.task == "incomplete":
        l, a, b = (v or 0 for v in (args.l, args.a, args.b))
        include = not args.no_contour
        scan_cfg = {"index": SpectralIndex.make(l, a, b),
                    "include_contour": include}
        meta.update(index=f"({l},{a},{b})", include_contour=include)
    else:
        given = [flag for flag, val in (("--l", args.l), ("--a", args.a),
                                        ("--b", args.b),
                                        ("--no-contour", args.no_contour))
                 if val is not None]
        if given:
            raise ValueError(f"{', '.join(given)}: valid only with "
                             "--task incomplete")
    rows = scan_t(args.task, grid, scan_cfg)
    _emit(cfg, ("t", "value_re", "value_im", "main_term", "value_over_lnt"),
          [(r.t, r.value.real, r.value.imag, r.main_term, r.value_over_lnt)
           for r in rows], meta)
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="picard-eisenstein",
        description="Eisenstein series on the Gaussian-integer frame "
                    "bundle: verification suites, evaluation, scans.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, bounds=True):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"))
        if bounds:
            p.add_argument("--coset-bound", dest="coset_bound", type=int)

    pv = sub.add_parser("verify", help="run an invariant/identity suite")
    pv.add_argument("suite", choices=sorted(SUITES) + ["all"])
    pv.add_argument("--seed", type=int)
    add_common(pv)
    pv.set_defaults(func=cmd_verify)

    pe = sub.add_parser("eval", help="evaluate a series value")
    pe.add_argument("--l", type=int, default=0)
    pe.add_argument("--k", type=int, default=0)
    pe.add_argument("--m", type=int, default=0)
    pe.add_argument("--s-re", dest="s_re", type=finite, default=2.0)
    pe.add_argument("--s-im", dest="s_im", type=finite, default=0.0)
    pe.add_argument("--point", default="0,0,1")
    pe.add_argument("--route", choices=("coset", "fourier", "both"),
                    default="both")
    add_common(pe)
    pe.set_defaults(func=cmd_eval)

    ps = sub.add_parser("scan", help="pairing scan over t, CSV/JSON output")
    ps.add_argument("--task", choices=("incomplete", "cusp"),
                    default="incomplete",
                    help="incomplete: the incomplete-series pairing; cusp: "
                    "the cusp pairing with mock_l_provider, which sets "
                    "every cusp-form L-value to 1")
    ps.add_argument("--t-min", dest="t_min", type=finite, default=50.0)
    ps.add_argument("--t-max", dest="t_max", type=finite, default=200.0)
    ps.add_argument("--steps", type=int, default=4)
    # pairing index (default (0, 0, 0)) and contour switch: --task
    # incomplete only
    ps.add_argument("--l", type=int)
    ps.add_argument("--a", type=int)
    ps.add_argument("--b", type=int)
    ps.add_argument("--no-contour", dest="no_contour", action="store_true",
                    default=None,
                    help="skip the slowly decaying line-integral part")
    add_common(ps, bounds=False)
    ps.set_defaults(func=cmd_scan)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
