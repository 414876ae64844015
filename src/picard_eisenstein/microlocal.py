"""Rotation-mode analysis on the frame bundle over the Gaussian modular
quotient.

Provides: functions with finitely many fiber modes and their coefficient
maps; reduction of points to the fundamental domain together with the
rotation cocycle picked up along the way; a lattice-invariant construction
that averages a band-limited seed over those reductions; two independent
height-Mellin evaluations of such a function (a literal volume integral
over the unit strip, and a pairing against the Fourier modes of the
continued series from the eisenstein module, over a height box); the
explicit pairing of a synthetic cusp form against the degenerate spectral
measure at parameter t; the incomplete-series pairing with its logarithmic
main term split off; and the t-scan loop behind the command-line scan.

The height transform used throughout is H(s) = int psi(lam) lam^{-s}
dlam/lam (see TestFunctionPsi.mellin).
"""

from __future__ import annotations

import cmath
import hashlib
from dataclasses import dataclass
from fractions import Fraction
from math import cos, factorial, log, pi, sqrt
from typing import NamedTuple

import numpy as np
from scipy.special import loggamma

from .eisenstein import (SeriesParams, TestFunctionPsi, _constant_terms,
                         fourier_mode)
from .h3 import (GroupElementSL2C, H3Point, QuadResult, frame_transport,
                 integrate_dV)
from .lseries import (SyntheticCuspCoefficients, l_function_continued,
                      l_function_values, zeta_K_continued,
                      zeta_K_log_derivative)
from .memo import ArrayMemo
from .specfun import digamma, digamma_shifted, log_gamma
from .su2 import (SU2_IDENTITY, SpectralIndex, SU2Element, b_factor,
                  check_index, haar_grid, haar_integrate, t_basis,
                  wigner_D_su2, wigner_monomial, xi_weight)

TWO_PI_SQ = 2.0 * pi ** 2

#: residue of the Dedekind zeta of the Gaussian field at its pole
ZETA_K_RESIDUE = pi / 4.0

#: constant term of its Laurent expansion there, in closed form
#: gamma pi/4 + L'(1, chi_{-4}) with
#: L'(1, chi_{-4}) = (pi/4)(gamma + 2 ln 2 + 3 ln pi - 4 ln Gamma(1/4)),
#: rounded from a 60-digit evaluation (summing the logarithms in float64
#: loses about 1e-15 to cancellation)
ZETA_K_CONSTANT_TERM = 0.6462454398948133

#: first trapezoid step of the pairing's line integral on Re s = 1, and the
#: relative agreement of two successive halvings that ends it
CONTOUR_STEP = 0.05
CONTOUR_TOL = 1e-6

#: inversions after which a reduction is declared non-terminating
REDUCTION_MAX_STEPS = 500


# -- fiber modes ------------------------------------------------------------------

@dataclass(frozen=True)
class FiberMode:
    """One rotation mode: index (l, k, m) with a point-dependent coefficient
    (a callable on H3Point)."""
    l: int
    two_k: int
    two_m: int
    coefficient: object

    def __post_init__(self):
        check_index(Fraction(self.l, 2), Fraction(self.two_k, 2),
                    Fraction(self.two_m, 2))
        if not callable(self.coefficient):
            raise ValueError("mode coefficient must be callable")

    @property
    def k(self) -> Fraction:
        return Fraction(self.two_k, 2)

    @property
    def m(self) -> Fraction:
        return Fraction(self.two_m, 2)


@dataclass(frozen=True)
class FiberFunction:
    """Finite sum of fiber modes; evaluated at a point and a rotation."""
    modes: tuple

    def evaluate(self, p: H3Point,
                 rotation: SU2Element = SU2_IDENTITY) -> complex:
        total = 0.0 + 0.0j
        for mode in self.modes:
            c = complex(mode.coefficient(p))
            if c != 0.0:
                total += c * t_basis(mode.l, mode.k, mode.m, rotation)
        return total


def fiber_coefficients(f: FiberFunction, p: H3Point, cross_check: bool = False,
                       grid=None, tol: float = 1e-8) -> dict:
    """Coefficient map at the point: dict (l, k, m) -> value.

    cross_check recomputes every coefficient as 2 pi^2 times the
    normalized-Haar integral of f against the conjugated basis element and
    raises if any disagrees beyond tol (orthonormality of the basis makes
    the quadrature an independent route to the same numbers).
    """
    out = {}
    for mode in f.modes:
        key = (mode.l, mode.k, mode.m)
        out[key] = out.get(key, 0.0 + 0.0j) + complex(mode.coefficient(p))
    if cross_check:
        g = grid if grid is not None else haar_grid()
        bad = []
        for (l, k, m), val in out.items():
            num = TWO_PI_SQ * haar_integrate(
                lambda a: f.evaluate(p, a)
                * complex(t_basis(l, k, m, a)).conjugate(), g)
            if abs(num - val) > tol:
                bad.append(f"(l={l}, k={k}, m={m}): {abs(num - val):.3e}")
        if bad:
            raise ArithmeticError(
                "quadrature cross-check failed at " + "; ".join(bad))
    return out


# -- reduction to the fundamental domain -------------------------------------------

_INVERSION = GroupElementSL2C(0.0, -1.0, 1.0, 0.0)


def reduce_to_fundamental(p: H3Point):
    """(q, gamma) with gamma(p) = q in the closed fundamental domain:
    alternate recentering of z into the unit square with the inversion,
    which strictly increases the height whenever it applies."""
    x, y, lam = p.x, p.y, p.lam
    g = GroupElementSL2C.identity()
    for _ in range(REDUCTION_MAX_STEPS):
        dx, dy = round(x), round(y)
        if dx or dy:
            x -= dx
            y -= dy
            g = GroupElementSL2C.translation(complex(-dx, -dy)) * g
        r2 = x * x + y * y + lam * lam
        if r2 >= 1.0 - 1e-15:
            return H3Point(x, y, lam), g
        x, y, lam = -x / r2, y / r2, lam / r2
        g = _INVERSION * g
    raise ArithmeticError(f"reduction did not terminate at {p}")


#: total size of the memoized grid reductions (see _reduce_arrays)
REDUCTION_MEMO_BYTES = 16 * 2 ** 20

_REDUCTIONS = ArrayMemo(REDUCTION_MEMO_BYTES)


class Reduction(NamedTuple):
    """Reduced coordinates of a point array, and the frame rotation
    K[alpha, beta] from each input point to its reduced representative.
    If no point was inverted, alpha and beta are None (identity) and x, y,
    lam keep the input shapes; otherwise all five are flat over the grid."""
    x: np.ndarray
    y: np.ndarray
    lam: np.ndarray
    alpha: np.ndarray | None
    beta: np.ndarray | None


def _reduce_arrays(xs, ys, lams) -> Reduction:
    """Vectorized reduction carrying the rotation cocycle (translations
    transport trivially; each inversion contributes K[conj(z)/r, -lam/r],
    r = |z|^2 + lam^2 at the current point, composed on the left) on
    inputs that broadcast together, such as grid axes.

    A call in which some point needs an inversion is memoized, because the
    quadrature lays the same grids again for every function and exponent:
    the key is the input shapes and a blake2b-256 digest of the input bytes
    (the axes, not the broadcast grid), the stored arrays are read-only,
    and the memo keeps at most REDUCTION_MEMO_BYTES of them (least recently
    used out first). The loop is deterministic in its input, so a hit
    returns exactly the arrays a fresh reduction would give. The direct
    height-Mellin route reduces four image-box grids (about 2 MB); a sweep
    of the image box to its end would lay many more, and the cap keeps
    their memory bounded. Calls in which no point is inverted (the band
    grids) are returned at once without hashing or storing."""
    x0, y0, lam = (np.asarray(a, dtype=float) for a in (xs, ys, lams))
    x, y = x0 - np.round(x0), y0 - np.round(y0)
    if not (x * x + y * y + lam * lam < 1.0 - 1e-15).any():
        return Reduction(x, y, lam, None, None)
    digest = hashlib.blake2b(digest_size=32)
    for a in (x0, y0, lam):
        digest.update(a.tobytes())
    key = (np.shape(xs), np.shape(ys), np.shape(lams), digest.digest())
    hit = _REDUCTIONS.get(key)
    if hit is not None:
        return hit
    x, y, lam = (a.flatten() for a in np.broadcast_arrays(x, y, lam))
    ta = np.ones(x.shape, dtype=complex)
    tb = np.zeros(x.shape, dtype=complex)
    for _ in range(REDUCTION_MAX_STEPS):
        x -= np.round(x)
        y -= np.round(y)
        r2 = x * x + y * y + lam * lam
        mask = r2 < 1.0 - 1e-15
        if not mask.any():
            return _REDUCTIONS.put(key, Reduction(x, y, lam, ta, tb))
        r = np.sqrt(r2[mask])
        sa = (x[mask] - 1j * y[mask]) / r
        sb = -lam[mask] / r
        na = sa * ta[mask] - sb * np.conjugate(tb[mask])
        nb = sa * tb[mask] + sb * np.conjugate(ta[mask])
        ta[mask] = na
        tb[mask] = nb
        inv = 1.0 / r2[mask]
        x[mask] = -x[mask] * inv
        y[mask] = y[mask] * inv
        lam[mask] = lam[mask] * inv
    raise ArithmeticError("vectorized reduction did not terminate")


# -- invariant functions from band-limited seeds -----------------------------------

@dataclass(frozen=True)
class SeedMode:
    """Band seed: index (l, k, m) with amplitude * cos(2 pi (f1 x + f2 y))
    * psi(lam) as coefficient. l must be even (integer rotation indices) and
    m an even integer (two_m = 0 mod 4): the four-fold unit average kills
    every other row, and the cosine is even and unit-periodic, so the
    averaged sum telescopes to a clean factor 4."""
    l: int
    two_k: int
    two_m: int
    amplitude: complex = 1.0 + 0.0j
    frequency: tuple = (0, 0)

    def __post_init__(self):
        check_index(Fraction(self.l, 2), Fraction(self.two_k, 2),
                    Fraction(self.two_m, 2))
        if self.l % 2:
            raise ValueError("seed degree l must be even")
        if self.two_m % 4:
            raise ValueError("seed row index m must be an even integer "
                             "(two_m divisible by 4)")
        f1, f2 = self.frequency
        if f1 != int(f1) or f2 != int(f2):
            raise ValueError("frequencies must be integers")

    @property
    def k(self) -> Fraction:
        return Fraction(self.two_k, 2)

    @property
    def m(self) -> Fraction:
        return Fraction(self.two_m, 2)


@dataclass(frozen=True)
class InvariantFiberFunction(FiberFunction):
    """Result of averaging band seeds over reductions; carries the seed data
    so the strip evaluation can run vectorized."""
    seeds: tuple = ()
    psi: TestFunctionPsi = None
    band: tuple = (0.0, 0.0)

    def strip_values(self, xs, ys, lams) -> np.ndarray:
        """Values at rotation = identity on coordinate arrays that broadcast
        together (the vectorized form of evaluate(p) used by the strip
        quadrature). In the band, (P, 1), (P, 1), (1, Q) axes give cosines
        on the P points, psi on the Q heights, and one outer product."""
        shape = np.broadcast_shapes(np.shape(xs), np.shape(ys), np.shape(lams))
        x, y, lam, ta, tb = _reduce_arrays(xs, ys, lams)
        w = np.asarray(self.psi(lam), dtype=float)
        out = np.zeros(np.broadcast_shapes(x.shape, y.shape), dtype=complex)
        for sd in self.seeds:
            if ta is None and sd.two_m != sd.two_k:
                continue  # D^{l/2}_{m,k}(identity) = delta_{mk}
            f1, f2 = sd.frequency
            pz = np.cos(2.0 * pi * (f1 * x + f2 * y))
            term = (sd.amplitude * sqrt((sd.l + 1) / TWO_PI_SQ)) * pz
            if ta is not None:
                term = term * wigner_monomial(sd.l, sd.two_m, sd.two_k, ta, tb)
            out += term
        return (4.0 * w * out).reshape(shape)


def _transported_coefficient(sds: tuple, psi: TestFunctionPsi, two_n: int):
    l = sds[0].l
    n = Fraction(two_n, 2)
    j = Fraction(l, 2)

    def coefficient(p: H3Point) -> complex:
        q, gamma = reduce_to_fundamental(p)
        w = float(psi(q.lam))
        if w == 0.0:
            return 0.0 + 0.0j
        t0 = frame_transport(gamma, p)
        total = 0.0 + 0.0j
        for sd in sds:
            f1, f2 = sd.frequency
            pz = cos(2.0 * pi * (f1 * q.x + f2 * q.y))
            total += (complex(sd.amplitude) * pz
                      * wigner_D_su2(j, sd.m, n, t0))
        return 4.0 * w * total
    return coefficient


def invariant_fiber_function(seeds,
                             psi: TestFunctionPsi) -> InvariantFiberFunction:
    """Lattice-invariant function obtained by pushing band seeds through the
    reduction map.

    The band (where psi exceeds 1e-20) must sit above height 1.5:
    up there a point determines its reduction uniquely up to horizontal
    translations and unit rotations, which the periodic cosine factor and
    the four-fold unit average absorb exactly, so invariance holds to
    1e-20. The modes of the returned function are the reduced-seed
    coefficients rotated by the accumulated frame cocycle.
    """
    seeds = tuple(seeds)
    if not seeds:
        raise ValueError("at least one seed is required")
    lo, hi = psi.support_interval(1e-20)
    if lo <= 1.5:
        raise ValueError(
            f"band floor {lo:.3f} must lie above height 1.5 for the "
            "averaged sum to collapse to a single reduction")
    groups = {}
    for sd in seeds:
        groups.setdefault((sd.l, sd.two_k), []).append(sd)
    modes = []
    for (l, two_k), sds in sorted(groups.items()):
        for two_n in range(-l, l + 1, 2):
            modes.append(FiberMode(l, two_k, two_n,
                                   _transported_coefficient(tuple(sds), psi,
                                                            two_n)))
    return InvariantFiberFunction(tuple(modes), seeds, psi, (lo, hi))


# -- height-Mellin transform, two routes --------------------------------------------

def _seed_scale(f: InvariantFiberFunction, sigma: float) -> float:
    band_mass = abs(complex(f.psi.mellin(1.0 - sigma)))
    return sum(4.0 * abs(sd.amplitude) * sqrt((sd.l + 1) / TWO_PI_SQ)
               for sd in f.seeds) * band_mass + 1e-12


def mellin_direct_result(f: FiberFunction, s: complex) -> QuadResult:
    """Literal route: integral of f(p, identity) * lam^{1+s} over the unit
    strip against dV. For an invariant function the integrand is evaluated
    through the vectorized reduction; for a plain mode sum it is the mode
    coefficients at k = m directly.

    The grid reaches the integrand as axes, so lam^{1+s} is formed once per
    height. The image box (1e-12, 1) gets the same Gauss-Legendre grids
    for every f and s (four of them when two quiet panels end the sweep),
    so their reductions come from the memo of _reduce_arrays: keyed on a
    digest of the grid axes, capped at REDUCTION_MEMO_BYTES, and exact.
    Band grids need no inversion: no Wigner factor is formed, and the
    values are an outer product of point and height factors."""
    s = complex(s)
    if s.real <= 1.0:
        raise ValueError("the strip transform needs Re(s) > 1")
    if isinstance(f, InvariantFiberFunction):
        quad_tol = 1e-4 * _seed_scale(f, s.real)

        def fv(xs, ys, lams):
            return f.strip_values(xs, ys, lams) * lams ** (1.0 + s)

        # the strip splits into the band itself, the translates of the band
        # under nontrivial cosets (all below height 1, since reduction only
        # raises heights above the band floor), and a gap in between where
        # the function vanishes by construction; integrating band and image
        # boxes separately keeps the quadrature from stopping in the gap
        lo, hi = f.band
        band = integrate_dV(fv, ("box", lo * (1.0 - 1e-9), hi),
                            tol=quad_tol, vectorized=True)
        bottom = 1e-12
        images = integrate_dV(fv, ("box", bottom, 1.0), tol=quad_tol,
                              vectorized=True)
        f_max = sum(4.0 * abs(sd.amplitude) * sqrt((sd.l + 1) / TWO_PI_SQ)
                    for sd in f.seeds)
        deep_tail = f_max * bottom ** (s.real - 1.0) / (s.real - 1.0)
        return QuadResult(band.value + images.value,
                          band.error_estimate + images.error_estimate
                          + deep_tail)

    def g(p: H3Point) -> complex:
        return f.evaluate(p) * p.lam ** (1.0 + s)
    return integrate_dV(g, "strip", tol=1e-10)


def mellin_eisenstein_result(f: InvariantFiberFunction,
                             s: complex) -> QuadResult:
    """Spectral route: the same transform written as a pairing of each seed
    against the continued series over the band box. Unfolding the strip to
    the quotient and back to the box turns the seed (l, k, m) into the
    series at index (l/2, -m, -k) with the sign (-1)^{m-k}. On the unit
    square the seed's cos(2 pi (f1 x + f2 y)) meets only the modes
    2w = +-(f1, -f2) of the series, half each (the constant term at f = 0),
    so each seed takes one height quadrature (integrate_dV, as the direct
    route) of psi times those mode profiles."""
    if not isinstance(f, InvariantFiberFunction):
        raise TypeError("the spectral route needs an invariant function")
    s = complex(s)
    if s.real <= 1.0:
        raise ValueError("the strip transform needs Re(s) > 1")
    lo, hi = f.band
    psi = f.psi
    total = 0.0 + 0.0j
    err = 0.0
    for sd in f.seeds:
        if (sd.two_k // 2) % 2:
            continue  # odd k: the paired series vanishes identically
        params = SeriesParams(SpectralIndex(sd.l, -sd.two_m, -sd.two_k), s)
        f1, f2 = map(int, sd.frequency)
        modes = [fourier_mode(params, params.lkm()[1], two_w) for two_w in
                 ([(0, 0)] if f1 == f2 == 0 else [(f1, -f2), (-f1, f2)])]

        def gv(xs, ys, lams, _modes=modes):
            # the mean over the unit square: a (1, Q) row of heights
            return psi(lams) * (sum(p(lams) for p in _modes) / len(_modes))

        coefmag = 4.0 * abs(sd.amplitude) * sqrt((sd.l + 1) / TWO_PI_SQ)
        scale = coefmag * abs(complex(psi.mellin(1.0 - s.real))) * 8.0 + 1e-12
        quad = integrate_dV(gv, ("box", lo, hi), tol=1e-4 * scale,
                            vectorized=True)
        sign = (-1.0) ** ((sd.two_m - sd.two_k) // 2)
        # the row sum runs over all four associate rows, i.e. twice over the
        # projective cosets, and the unfolded quotient domain is half of the
        # reduction target (the extra unit symmetry z -> -z): net factor 4
        # between the literal strip integral and this pairing
        coef = sign * sqrt((sd.l + 1) / TWO_PI_SQ) * complex(sd.amplitude)
        total += coef * quad.value
        err += abs(coef) * quad.error_estimate
    return QuadResult(total, err)


# -- cusp-form pairing ---------------------------------------------------------------

@dataclass(frozen=True)
class CuspFormSpec:
    """Synthetic cusp-form data: fiber index (half-integers allowed),
    spectral parameter r, and optionally the multiplicative coefficients
    behind a computable Dirichlet-series provider."""
    index: SpectralIndex
    r: float = 1.0
    coefficients: SyntheticCuspCoefficients | None = None


def mock_l_provider(kind: str, s_value: complex, chi_index: int) -> complex:
    """Stand-in spectral data: every cusp-form L-value is 1, character
    L-values are computed honestly. Useful for exercising the analytic
    skeleton (gamma factors, angular signs, decay) without a cusp form."""
    if kind == "cusp":
        return 1.0 + 0.0j
    if kind == "character":
        return l_function_continued(complex(s_value), int(chi_index))
    raise ValueError(f"unknown L-value kind {kind!r}")


def _cusp_gamma_logs(l, p, q, r: float, t: float):
    """(prefactor log, list of per-v gamma logs) of the pairing, assembled
    additively so the exponentially decaying and growing gamma factors
    cancel before exponentiation."""
    hq = abs(q + p) / 2
    it = 1j * t
    ir = 1j * r
    lg0 = (log_gamma(0.5 + hq - ir / 2)
           + log_gamma(0.5 + hq - ir / 2 - it)
           - log_gamma(1.0 + it))
    vmax = int(l - (abs(q + p) + abs(q - p)) / 2)
    vlogs = []
    for v in range(vmax + 1):
        vlogs.append(log_gamma(0.5 + l - v - hq + ir / 2)
                     + log_gamma(0.5 + l - v - hq + ir / 2 - it)
                     - log_gamma(1.0 + l - v + ir)
                     - log_gamma(1.0 + l - v - it))
    return lg0, vlogs


def _cusp_v_sum(l, p, q, vlogs) -> tuple:
    """(base log, alternating xi-weighted sum relative to the base)."""
    base = vlogs[0]
    total = 0.0 + 0.0j
    for v, lgv in enumerate(vlogs):
        total += (-1.0) ** v * xi_weight(l, p, q, v) * cmath.exp(lgv - base)
    return base, total


def gamma_factor_block(spec: CuspFormSpec, t: float) -> float:
    """Magnitude of the gamma-factor block of the pairing (every gamma
    carrying the parameter t, including the xi-weighted sum); decays like
    1/t for large t."""
    l, p, q = spec.index.l, spec.index.k, spec.index.m
    lg0, vlogs = _cusp_gamma_logs(l, p, q, spec.r, float(t))
    base, vsum = _cusp_v_sum(l, p, q, vlogs)
    return abs(cmath.exp(lg0 + base)) * abs(vsum)


def cusp_pairing_formula(spec: CuspFormSpec, t: float,
                         provider=None) -> complex:
    """Pairing of the synthetic cusp form against the degenerate spectral
    measure at parameter t, assembled from provided L-values.

    The coefficient sum over frequencies cancels under the four unit
    rotations unless p + q = 0 mod 4, in which case the value is 0 without
    touching any L-function. Otherwise four L-values are requested from
    provider(kind, s, chi_index); if any request returns None the full list
    of missing values is raised. The leading lattice constant enters at
    strength 4 (it is printed in two strengths, 4 and 16; no second route
    settles which one holds).
    """
    l, p, q = spec.index.l, spec.index.k, spec.index.m
    t = float(t)
    pq = int(p + q)
    if pq % 4:
        return 0.0 + 0.0j
    it = 1j * t
    ir = 1j * spec.r
    requests = (
        ("cusp", 0.5 - ir / 2 - it, -pq),
        ("cusp", 0.5 - ir / 2, -pq),
        ("character", 1.0 + it, 0),
        ("character", 1.0 - ir - it, -2 * pq),
    )
    values, missing = [], []
    for kind, s_value, chi_index in requests:
        got = provider(kind, s_value, chi_index) if provider is not None \
            else None
        if got is None:
            missing.append(f"{kind} L at s = {complex(s_value):.6g}, "
                           f"character {chi_index}")
        values.append(got)
    if missing:
        raise ValueError("L-values unavailable: " + "; ".join(missing))
    cusp1, cusp2, zeta1t, char1 = (complex(v) for v in values)
    lg0, vlogs = _cusp_gamma_logs(l, p, q, spec.r, t)
    base, vsum = _cusp_v_sum(l, p, q, vlogs)
    angular = (-1.0) ** int(l - p) * 1j ** (-pq % 4)
    power = cmath.exp((-1.0 + ir + 2.0 * it) * log(pi))
    return (angular * power * cusp1 * cusp2
            / (zeta1t * char1) * cmath.exp(lg0 + base) * vsum)


# -- incomplete-series pairing --------------------------------------------------------

@dataclass(frozen=True)
class IncompletePairingResult:
    """Pairing split into the constant-term part (f1), the frequency part
    (f2 = contour + residue), the logarithmic main term, and what is left."""
    f1: complex
    f2: complex
    main_term: float
    remainder: complex
    contour_part: complex
    residue_part: complex

    @property
    def value(self) -> complex:
        return self.f1 + self.f2


def _mellin_log_derivative(psi: TestFunctionPsi) -> complex:
    """H'(2)/H(2): -center + width^2 in closed form for the log-gaussian;
    a central difference of step h = 1e-6 for the compact bump, whose
    transform is numeric."""
    if psi.kind == "log-gaussian":
        return complex(-psi.center + psi.width ** 2)
    h = 1e-6
    num = (psi.mellin(2.0 + h) - psi.mellin(2.0 - h)) / (2.0 * h)
    return complex(num) / complex(psi.mellin(2.0))


def main_term_coefficient(index: SpectralIndex, psi: TestFunctionPsi) -> float:
    """Coefficient of log t in the pairing: nonzero only on the diagonal
    trivial angular index, where it is the alternating xi sum (identically
    zero for l >= 1) times H(2) / (4 zeta_K(2))."""
    if index.two_l % 2:
        raise ValueError("integer indices only")
    l = index.two_l // 2
    a = index.two_k // 2
    b = index.two_m // 2
    if a != 0 or b != 0:
        return 0.0
    alt = sum((-1.0) ** u * xi_weight(l, 0, 0, u) / (1.0 + l - u)
              for u in range(l + 1))
    h2 = complex(psi.mellin(2.0)).real
    return (-1.0) ** l * alt * h2 / (4.0 * zeta_K_continued(2.0 + 0.0j).real)


def _contour_cut(psi: TestFunctionPsi, step: float) -> float:
    peak = abs(complex(psi.mellin(1.0)))
    T = step
    while abs(complex(psi.mellin(complex(1.0, T)))) > 1e-12 * peak:
        T += step
        if T > 400.0:
            raise ArithmeticError(
                "transform does not decay along the vertical line")
    return T


def _line_integrand(l: int, a: int, b: int, t: float, psi: TestFunctionPsi,
                    n_terms: int, h_floor: float):
    """Rows over u of the line integrand at s = 1 + i tau, one row per entry
    of the node array taus, already divided by the two gamma factors of the
    outer denominator (log-space assembly keeps the exponentially
    small/large pieces balanced). Each L-factor is one array call over the
    nodes."""
    h2 = abs(a + b) // 2
    it = 1j * t
    lg_den = log_gamma(1.0 + it)
    lu = l - np.arange(n_terms)              # l - u, one column per u

    def values(taus: np.ndarray) -> np.ndarray:
        out = np.zeros((taus.size, n_terms), dtype=complex)
        s = 1.0 + 1j * taus
        hval = psi.mellin(s)
        keep = np.abs(hval) > h_floor
        if b == 0:
            # tau = 0 lands on the pole of the denominator zeta; the
            # integrand itself vanishes there.
            keep &= np.abs(s - 1.0) >= 1e-12
        s, hval = s[keep], hval[keep]
        half = l_function_values(s / 2.0, a + b)
        ell = (half * l_function_values(s / 2.0 + it, a + b)
               * l_function_values(s / 2.0 - it, b - a)
               * (half if a == 0 else l_function_values(s / 2.0, b - a)))
        den = l_function_values(s, 2 * b)
        base = hval * ell / (np.exp(s * log(pi)) * den)
        hs = s[:, None] / 2.0
        lg = (loggamma(hs + lu - h2) + loggamma(hs + h2 + it)
              + loggamma(hs + lu - h2 - it) + loggamma(hs + h2)
              - loggamma(2.0 * hs + lu) - lg_den - loggamma(1.0 + lu - it))
        out[keep] = base[:, None] * np.exp(lg)
        return out
    return values


def _contour_terms(l: int, a: int, b: int, t: float, psi: TestFunctionPsi,
                   n_terms: int, step: float, tol: float) -> np.ndarray:
    """(1/2 pi i) times the line integral on Re s = 1, per u, divided by the
    outer gamma pair: trapezoid at the given step, halved until two passes
    agree to the requested relative tolerance. A halving evaluates only its
    new nodes (the odd multiples of the new step), all at once, and adds
    them to the running node sum."""
    T = _contour_cut(psi, step)
    peak = abs(complex(psi.mellin(1.0)))
    integrand = _line_integrand(l, a, b, t, psi, n_terms, 1e-14 * peak)
    h = step
    n = int(round(2.0 * T / h))
    rows = integrand(-T + h * np.arange(n + 1))
    node_sum = 0.5 * (rows[0] + rows[-1]) + rows[1:-1].sum(axis=0)
    prev = node_sum * (h / (2.0 * pi))
    for _ in range(6):
        h /= 2.0
        n *= 2
        node_sum += integrand(-T + h * np.arange(1, n, 2)).sum(axis=0)
        cur = node_sum * (h / (2.0 * pi))
        scale = max(float(np.max(np.abs(cur))), 1e-15 * peak)
        if float(np.max(np.abs(cur - prev))) <= tol * scale:
            return cur
        prev = cur
    raise ArithmeticError(
        f"line integral did not stabilize at step {h} (target {tol})")


def _residue_terms(l: int, a: int, b: int, t: float,
                   psi: TestFunctionPsi, n_terms: int) -> np.ndarray:
    """Residue of the shifted integrand at s = 2 per u, divided by the outer
    gamma pair. Diagonal trivial index: double pole, evaluated through the
    zeta expansion constants and logarithmic derivatives. Diagonal and
    anti-diagonal nonzero index: simple pole in closed form. Off-diagonal:
    identically zero."""
    out = np.zeros(n_terms, dtype=complex)
    it = 1j * t
    h2v = complex(psi.mellin(2.0))
    zk2 = zeta_K_continued(2.0 + 0.0j)
    if a == 0 and b == 0:
        zz = (zeta_K_continued(complex(1.0, t))
              * zeta_K_continued(complex(1.0, -t)))
        zp = 0.5 * (zeta_K_log_derivative(complex(1.0, t))
                    + zeta_K_log_derivative(complex(1.0, -t)))
        hlog = _mellin_log_derivative(psi)
        zp2 = zeta_K_log_derivative(2.0 + 0.0j)
        for u in range(n_terms):
            lu = l - u
            dsh = digamma_shifted(complex(1.0, -t), lu) if lu \
                else digamma(complex(1.0, -t))
            gpg = (hlog + zp + 0.5 * digamma(complex(1.0, t)) + 0.5 * dsh
                   + 0.5 * digamma(1.0 + lu) + 0.5 * digamma(1.0)
                   - log(pi) - digamma(2.0 + lu) - zp2)
            g2 = h2v * zz / (pi ** 2 * (1.0 + lu) * zk2)
            out[u] = g2 * ZETA_K_RESIDUE * (2.0 * ZETA_K_CONSTANT_TERM
                                         + ZETA_K_RESIDUE * gpg)
        return out
    if a == b:
        l1 = l_function_continued(1.0 + 0.0j, 2 * a)
        lt = l_function_continued(complex(1.0, t), 2 * a)
        l2 = l_function_continued(2.0 + 0.0j, 2 * a)
        zmt = zeta_K_continued(complex(1.0, -t))
        aa = abs(a)
        for u in range(n_terms):
            lu = l - u
            lg = (log_gamma(1.0 + aa + it) + log_gamma(1.0 + lu - aa - it)
                  - log_gamma(1.0 + it) - log_gamma(1.0 + lu - it))
            plain = (factorial(lu - aa) * factorial(aa)
                     / factorial(lu + 1))
            out[u] = (h2v * l1 * lt * zmt / (4.0 * pi * l2)
                      * plain * cmath.exp(lg))
        return out
    if a == -b:
        l1 = l_function_continued(1.0 + 0.0j, -2 * a)
        lmt = l_function_continued(complex(1.0, -t), -2 * a)
        l2 = l_function_continued(2.0 + 0.0j, -2 * a)
        zpt = zeta_K_continued(complex(1.0, t))
        for u in range(n_terms):
            lu = l - u
            out[u] = (h2v * zpt * lmt * l1 * factorial(lu)
                      / (4.0 * pi * factorial(lu + 1) * l2))
        return out
    return out


def incomplete_pairing(index: SpectralIndex, psi: TestFunctionPsi, t: float,
                       include_contour: bool = True) -> IncompletePairingResult:
    """Pairing of the smoothed series at the given index against the
    degenerate spectral measure at parameter t.

    f1 collects the products of the constant-term coefficients of the two
    factors (each height power pairing to a transform value); it is nonzero
    only on the diagonal even index. f2 is the frequency sum, rewritten as
    a shifted line integral plus the residue picked up when the line moves
    from Re s = 3 to Re s = 1; the angular index decides everything: odd
    entries kill the series outright, an index sum not divisible by 4 kills
    the frequency pairing by unit-rotation cancellation, and the residue is
    a double pole (diagonal trivial), a simple pole (diagonal or
    anti-diagonal nonzero), or zero (off-diagonal).

    include_contour=False skips the line integral (the slowly decaying
    O(t^{-1/3}) piece) and reports only the structural parts.
    """
    if index.two_l % 2:
        raise ValueError("integer indices only")
    if not t > 1.0:
        raise ValueError("the spectral parameter must exceed 1")
    l = index.two_l // 2
    a = index.two_k // 2
    b = index.two_m // 2
    zero = 0.0 + 0.0j
    if a % 2 or b % 2:
        # odd row or column: series and paired component both vanish
        return IncompletePairingResult(zero, zero, 0.0, zero, zero, zero)
    it = 1j * float(t)
    f1 = zero
    for c1 in _constant_terms(0, 0, 0, it):
        for c2 in _constant_terms(l, -b, -a, -it):
            power = c1.exponent + c2.exponent
            if abs(power - 2.0) < 1e-12:
                # balanced height powers: the Mellin-inverted pairing turns
                # this product into the scale-invariant integral of a pure
                # power, which regularizes to zero; only the oscillating
                # cross products survive, and they die off rapidly in t.
                continue
            f1 += (c1.coefficient * c2.coefficient
                   * complex(psi.mellin(2.0 - power)))
    f1 *= (-1.0) ** (a + b) / TWO_PI_SQ
    contour = residue = zero
    if (a + b) % 4 == 0:
        n_terms = l - (abs(b + a) + abs(b - a)) // 2 + 1
        xi = np.array([(-1.0) ** u * xi_weight(l, a, b, u)
                       for u in range(n_terms)])
        pref = (4.0 * (-1.0) ** (l + b) * 1j ** ((b + a) % 4)
                * b_factor(l, b, a))
        denom = (zeta_K_continued(complex(1.0, t))
                 * l_function_continued(complex(1.0, -t), -2 * a))
        res_u = _residue_terms(l, a, b, float(t), psi, n_terms)
        residue = pref * complex(np.dot(xi, res_u)) / denom
        if include_contour:
            con_u = _contour_terms(l, a, b, float(t), psi, n_terms,
                                   CONTOUR_STEP, CONTOUR_TOL)
            contour = pref * complex(np.dot(xi, con_u)) / denom
    f2 = contour + residue
    main = main_term_coefficient(index, psi) * log(float(t))
    return IncompletePairingResult(f1, f2, main, f1 + f2 - main,
                                   contour, residue)


# -- identity checks -----------------------------------------------------------------

def verify_suma_es0(l: int) -> float:
    """|sum_u (-1)^u xi(l, 0, 0, u) / (1 + l - u)|: identically zero for
    every l >= 1 (the alternating sum telescopes against the harmonic
    denominators); at the l = 0 boundary the sum is the single term 1."""
    if l < 0:
        raise ValueError("l must be nonnegative")
    total = sum((-1.0) ** u * xi_weight(l, 0, 0, u) / (1.0 + l - u)
                for u in range(l + 1))
    return abs(total)


@dataclass(frozen=True)
class LemmaIntegralReport:
    quadrature: float
    transform_value: float
    deviation: float


def verify_lemma_integral(psi: TestFunctionPsi) -> LemmaIntegralReport:
    """The quotient volume of the smoothed series at the trivial index
    unfolds to the height integral of psi against lam^{-3} d lam, which is
    the transform at 2; the left side is computed here by direct
    Gauss-Legendre quadrature on the log axis."""
    lo, hi = psi.support_interval(1e-24)
    ua, ub = log(lo), log(hi)
    prev = cur = None
    for n in (96, 160, 256, 384):
        x, w = np.polynomial.legendre.leggauss(n)
        u = ua + (ub - ua) * (x + 1.0) / 2.0
        cur = float(np.sum(w * psi(np.exp(u)) * np.exp(-2.0 * u))
                    * (ub - ua) / 2.0)
        if prev is not None and abs(cur - prev) <= 1e-13 * max(1.0, abs(cur)):
            break
        prev = cur
    rhs = complex(psi.mellin(2.0)).real
    return LemmaIntegralReport(cur, rhs, abs(cur - rhs) / max(abs(rhs), 1e-300))


# -- parameter scans -----------------------------------------------------------------

@dataclass(frozen=True)
class ScanRow:
    t: float
    value: complex
    main_term: float
    value_over_lnt: float


def scan_t(task: str, t_grid, config: dict | None = None) -> list:
    """Rows (t, value, main term, value / log t) over the sorted grid.

    task "incomplete": value is the full pairing at config["index"]
    (default trivial) with config["psi"] (default unit log-gaussian).
    task "cusp": value is the cusp pairing for config["spec"] with
    config["provider"] (default the mock provider); the main-term column is
    0 there. The points run one after another in one thread; config keys
    other than these are ignored.
    """
    cfg = dict(config or {})
    ts = sorted(float(t) for t in t_grid)
    if any(not t > 1.0 for t in ts):
        raise ValueError("scan parameters must exceed 1")
    if task == "incomplete":
        index = cfg.get("index") or SpectralIndex(0, 0, 0)
        psi = cfg.get("psi") or TestFunctionPsi()
        include = bool(cfg.get("include_contour", True))

        def one(t: float) -> ScanRow:
            r = incomplete_pairing(index, psi, t, include_contour=include)
            return ScanRow(t, r.value, r.main_term, r.value.real / log(t))
    elif task == "cusp":
        spec = cfg.get("spec") or CuspFormSpec(SpectralIndex.make(2, 0, 0),
                                               r=1.3)
        provider = cfg.get("provider") or mock_l_provider

        def one(t: float) -> ScanRow:
            v = cusp_pairing_formula(spec, t, provider)
            return ScanRow(t, v, 0.0, v.real / log(t))
    else:
        raise ValueError(f"unknown scan task {task!r}")
    return [one(t) for t in ts]
