"""Frame-bundle Eisenstein series for the Gaussian modular group: the seed
function on the group, truncated coset-sum evaluation (absolutely convergent
half-plane) with a rigorous tail estimate, the Fourier-Bessel expansion of
the same series (usable down to the critical line, where it serves as the
definition of the continued series) with the one vectorized evaluator that
every expansion route goes through, incomplete series smoothed by a test
function on the height axis -- evaluated both as a literal coset sum and as
a Mellin contour integral -- and the test-function / Mellin-transform pair.

Conventions. A coset of the unipotent subgroup is a coprime bottom row
(c, d); the four diagonal-unit rows (0, u) give the constant term and force
the series to vanish identically for odd column index m (the unit average
sum_u u^{2m} is 4 or 0). Frequencies of the expansion live in the
half-integer lattice; a frequency is stored as the Gaussian integer 2w.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from math import exp, log, pi, sqrt

import numpy as np

from .gaussian import GaussInt, canonical_associate, factor_gauss
from .h3 import GroupElementSL2C, H3Point, iwasawa_decompose
from .lseries import _lattice_arrays, l_function_continued, sigma_twisted
from .specfun import bessel_k_complex_array, gamma_complex
from .su2 import (SpectralIndex, b_factor, wigner_D_su2, wigner_monomial,
                  xi_weight)

_UNITS_C = (1.0 + 0.0j, 1j, -1.0 + 0.0j, -1j)

# five generators of the Gaussian modular group (as SL(2)-matrices):
# both unit translations, the inversion, the diagonal unit, and the
# lower unit translation
GAMMA_GENERATORS = (
    GroupElementSL2C.translation(1.0),
    GroupElementSL2C.translation(1j),
    GroupElementSL2C(0.0, -1.0, 1.0, 0.0),
    GroupElementSL2C(1j, 0.0, 0.0, -1j),
    GroupElementSL2C(1.0, 0.0, 1.0, 1.0),
)


@dataclass(frozen=True)
class TruncationConfig:
    coset_norm_bound: int = 1000
    lattice_norm_bound: int = 400
    bessel_tol: float = 1e-12
    quadrature_tol: float = 1e-8

    def __post_init__(self):
        if (self.coset_norm_bound < 1 or self.lattice_norm_bound < 1
                or not self.bessel_tol > 0 or not self.quadrature_tol > 0):
            raise ValueError("truncation parameters must be positive")


@dataclass(frozen=True)
class SeriesParams:
    index: SpectralIndex
    s: complex
    truncation: TruncationConfig = field(default_factory=TruncationConfig)

    def __post_init__(self):
        if self.index.two_l % 2 != 0:
            raise ValueError("series indices must be integers (even two_l)")

    def lkm(self) -> tuple[int, int, int]:
        return (self.index.two_l // 2, self.index.two_k // 2,
                self.index.two_m // 2)


@dataclass(frozen=True)
class SeriesValue:
    value: complex
    tail_bound: float


# -- seed and elementary coefficients -----------------------------------------

def f_seed(index: SpectralIndex, g: GroupElementSL2C, s: complex) -> complex:
    """conj(D_{km}(rotation part of g)^{-1}-entry) times height^{1+s}; the
    single term of the series attached to the identity coset."""
    co = iwasawa_decompose(g)
    d = wigner_D_su2(index.l, index.k, index.m, co.k.inv())
    return complex(d).conjugate() * co.height ** (1.0 + complex(s))


# -- row enumeration ------------------------------------------------------------

@lru_cache(maxsize=4096)
def _squarefree_divisors(c: GaussInt) -> tuple[tuple[int, complex, int], ...]:
    """(moebius sign, complex value, norm) over the squarefree divisors of c
    (one associate each)."""
    _, fac = factor_gauss(c)
    out = [(1, 1.0 + 0.0j, 1)]
    for q in fac:
        qc, qn = complex(q.re, q.im), q.norm()
        out += [(-mu, val * qc, n * qn) for (mu, val, n) in out]
    return tuple(out)


def _height_form_min(z: complex, lam: float) -> float:
    """Least eigenvalue of the positive form (c,d) -> |cz+d|^2 + lam^2|c|^2,
    so that the form is >= mu * (|c|^2 + |d|^2) on every row."""
    tr = 1.0 + abs(z) ** 2 + lam * lam
    disc = sqrt(max(tr * tr - 4.0 * lam * lam, 0.0))
    return (tr - disc) / 2.0


def _row_sum_vector(l: int, m: int, z: complex, lam: float, bound: int,
                    hweight) -> np.ndarray:
    """Sum of conj(D_{am}(row rotation)) * hweight(row height) over all
    coprime rows (c, d) with c != 0 and |c|^2 + |d|^2 <= bound, returned as
    a vector over a = -l..l.

    The coprimality condition is opened up by Moebius inversion over the
    squarefree divisors of c (an exact rearrangement of the finite sum);
    within each block the rows are processed as numpy arrays.
    """
    acc = np.zeros(2 * l + 1, dtype=complex)
    if bound < 1:
        return acc
    re, im, norm = _lattice_arrays(bound)
    canon = np.nonzero((re > 0) & (im >= 0))[0]
    lam2 = lam * lam
    for idx in canon:
        nc = int(norm[idx])
        c0 = GaussInt(int(re[idx]), int(im[idx]))
        rem = bound - nc
        for mu_g, gval, gn in _squarefree_divisors(c0):
            count = int(np.searchsorted(norm, rem // gn, side="right"))
            d_arr = np.empty(count + 1, dtype=complex)
            d_arr[:count] = (re[:count] + 1j * im[:count]) * gval
            d_arr[count] = 0.0  # the d = 0 row; cancels unless c is a unit
            for unit in _UNITS_C:
                cu = unit * complex(c0.re, c0.im)
                t = cu * z + d_arr
                v2 = np.abs(t) ** 2 + lam2 * nc
                vroot = np.sqrt(v2)
                alpha = t / vroot
                beta = (lam * cu.conjugate()) / vroot
                wvals = hweight(lam / v2)
                for a in range(-l, l + 1):
                    wig = wigner_monomial(2 * l, 2 * a, 2 * m, alpha, beta)
                    acc[a + l] += mu_g * complex(
                        np.sum(np.conjugate(wig) * wvals))
    return acc


def _diagonal_unit_sum(m: int) -> float:
    # sum over the four units of u^{2m}: 4 for even m, 0 for odd
    return 4.0 if m % 2 == 0 else 0.0


def _combine_rotation(l: int, k: int, kinv, values) -> complex:
    """Contract point values with conj(D_{ka}) of the inverse rotation part
    (right-translation equivariance). values(rows) returns the values at the
    row indices a whose coefficient is nonzero, in the order given."""
    coefs = {a: complex(wigner_D_su2(l, k, a, kinv)).conjugate()
             for a in range(-l, l + 1)}
    rows = [a for a, coef in coefs.items() if coef != 0.0]
    total = 0.0 + 0.0j
    for a, val in zip(rows, values(rows)):
        total += coefs[a] * val
    return total


# -- the series in the convergent half-plane ------------------------------------

def eisenstein_coset_sum(params: SeriesParams, g: GroupElementSL2C) -> SeriesValue:
    """Truncated coset sum of the series at g, Re(s) > 1 only; rows are cut
    at |c|^2 + |d|^2 <= coset_norm_bound and the discarded remainder is
    bounded by an integral comparison (rotation entries have modulus <= 1,
    row heights are <= lam / (mu * rownorm))."""
    s = complex(params.s)
    if s.real <= 1.0:
        raise ValueError("coset-sum route requires Re(s) > 1")
    l, k, m = params.lkm()
    bound = params.truncation.coset_norm_bound
    co = iwasawa_decompose(g)
    z, lam = co.z, co.height
    vec = _row_sum_vector(l, m, z, lam, bound,
                          lambda h: h ** (1.0 + s))
    vec[m + l] += _diagonal_unit_sum(m) * lam ** (1.0 + s)
    value = _combine_rotation(l, k, co.k.inv(),
                              lambda rows: [vec[a + l] for a in rows])
    mu = _height_form_min(z, lam)
    sig = s.real
    tail = pi ** 2 * (lam / mu) ** (1.0 + sig) \
        * bound ** (1.0 - sig) / (sig - 1.0)
    return SeriesValue(value, float(tail))


# -- Fourier-Bessel expansion ----------------------------------------------------

@dataclass(frozen=True)
class ConstantTermData:
    coefficient: complex
    exponent: complex  # the term is coefficient * lam**exponent


@dataclass(frozen=True)
class WaveTermData:
    frequency: complex       # w in the half-integer lattice (nonzero)
    d_value: complex         # closed-form exponential-sum value at -w
    coefficient: complex     # d_value * |w|^{s-1} * (w/|w|)^{-k-m}
    u_terms: tuple           # ((signed xi, 1/Gamma(1+l+s-u), Bessel order), ...)


@dataclass(frozen=True)
class FourierExpansionTerms:
    prefactor: complex       # (-1)^{l+m} i^{-k-m} (2 pi)^s B
    constant_terms: tuple
    nonconstant_terms: dict  # (2w).re, (2w).im -> WaveTermData


def _constant_terms(l: int, k: int, m: int, s: complex,
                    index_gamma_inf: int) -> tuple:
    b = b_factor(l, k, m)
    out = []
    if k == m:
        out.append(ConstantTermData(index_gamma_inf * b, 1.0 + s))
    if k == -m:
        prod = 1.0 + 0.0j
        for j in range(abs(m) + 1, l + 1):
            prod *= (j - s)  # Gamma(1+l-s)/Gamma(1+|m|-s), pole-free form
        lrat = l_function_continued(s, 2 * m) \
            / l_function_continued(1.0 + s, 2 * m)
        # the degenerate (zero-frequency) coefficient carries the same
        # unit-class multiplicity as the leading term: its L-ratio is the
        # per-ideal value of the exponential lattice sum, whose four
        # associate rows contribute equally (empirical pin: two-route
        # agreement at Re(s) = 2)
        coef = (index_gamma_inf * (-1.0) ** (m + abs(m)) * pi * prod
                * gamma_complex(abs(m) + s) / gamma_complex(1.0 + l + s)
                * lrat * b)
        out.append(ConstantTermData(coef, 1.0 - s))
    return tuple(out)


def _u_data(l: int, k: int, m: int, s: complex) -> tuple:
    out = []
    for u in range(0, l - max(abs(k), abs(m)) + 1):
        xi = (-1.0) ** u * xi_weight(l, -m, -k, u)
        inv_gamma = 1.0 / gamma_complex(1.0 + l + s - u)
        out.append((xi, inv_gamma, s + l - abs(k + m) - u))
    return tuple(out)


def _prefactor(l: int, k: int, m: int, s: complex) -> complex:
    """(-1)^{l+m} i^{-k-m} (2 pi)^s B."""
    return (-1.0) ** (l + m) * 1j ** (-k - m) * (2.0 * pi) ** s \
        * b_factor(l, k, m)


def fourier_expansion_terms(params: SeriesParams,
                            index_gamma_inf: int = 4) -> FourierExpansionTerms:
    """Assembled coefficient data of the expansion: both constant-term
    coefficients and, for every frequency with |2w|^2 <= lattice_norm_bound,
    its exponential-sum value, angular factor, and Bessel/gamma data."""
    s = complex(params.s)
    l, k, m = params.lkm()
    consts = () if m % 2 else _constant_terms(l, k, m, s, index_gamma_inf)
    waves = {}
    if m % 2 == 0:
        udata = _u_data(l, k, m, s)
        l_den = 4.0 * l_function_continued(1.0 + s, 2 * m)
        re, im, norm = _lattice_arrays(params.truncation.lattice_norm_bound)
        # closed form of the exponential lattice series at frequency -w;
        # associate-invariant, so computed once per class
        d_values = {}
        for j in range(len(norm)):
            tw = GaussInt(int(re[j]), int(im[j]))
            wc = complex(tw.re, tw.im) / 2.0
            cls = canonical_associate(tw)
            dv = d_values.get(cls)
            if dv is None:
                dv = d_values[cls] = \
                    16.0 * sigma_twisted(cls, m // 2, -s) / l_den
            coef = dv * abs(wc) ** (s - 1.0) * (wc / abs(wc)) ** (-k - m)
            waves[(tw.re, tw.im)] = WaveTermData(wc, dv, coef, udata)
    return FourierExpansionTerms(_prefactor(l, k, m, s), consts, waves)


def fourier_evaluator(params: SeriesParams, rows, lam_min: float,
                      index_gamma_inf: int = 4):
    """Vectorized evaluator of the Fourier-Bessel expansion of the series at
    the indices (l, a, m), a in rows, at heights lam >= lam_min.

    Returns evaluate(zs, lams): zs (complex) and lams broadcast to one
    shape, and the result has shape (len(rows),) + that shape. Terms decay
    like exp(-2 pi |2w| lam), so a frequency enters only while
    2 pi |2w| lam <= x_cut at the lowest height of the call; coefficients
    are computed once, for the frequencies inside the cut at lam_min. The
    values are separable in (z, lam): each call works on the distinct z
    and the distinct heights, and evaluates the Bessel factor of each
    distinct order once, shared across the rows. The series vanishes
    identically for odd m.
    """
    s = complex(params.s)
    l, _, m = params.lkm()
    if m % 2:  # the series vanishes identically for odd m
        return lambda zs, lams: np.zeros(
            (len(rows),) + np.broadcast(zs, lams).shape, dtype=complex)
    trunc = params.truncation
    x_cut = -log(trunc.bessel_tol) + 20.0
    norm_cut = min(trunc.lattice_norm_bound,
                   int((x_cut / (2.0 * pi * lam_min)) ** 2))
    terms = fourier_expansion_terms(
        replace(params, truncation=replace(
            trunc, lattice_norm_bound=max(norm_cut, 1))),
        index_gamma_inf)
    waves = terms.nonconstant_terms
    two_w = np.array(list(waves), dtype=float).reshape(-1, 2)
    norm = two_w[:, 0] ** 2 + two_w[:, 1] ** 2
    wc = np.array([wt.frequency for wt in waves.values()], dtype=complex)
    absw = np.abs(wc)
    dcoef = np.array([wt.d_value for wt in waves.values()],
                     dtype=complex) * absw ** (s - 1.0)
    row_data = [(_constant_terms(l, a, m, s, index_gamma_inf),
                 _u_data(l, a, m, s), dcoef * (wc / absw) ** (-a - m),
                 _prefactor(l, a, m, s)) for a in rows]

    def evaluate(zs, lams) -> np.ndarray:
        za, la = np.broadcast_arrays(np.asarray(zs, dtype=complex),
                                     np.asarray(lams, dtype=float))
        lam_u, lam_inv = np.unique(la.ravel(), return_inverse=True)
        z_u, z_inv = np.unique(za.ravel(), return_inverse=True)
        if lam_u[0] < lam_min:
            raise ValueError(f"height {lam_u[0]} below the evaluator floor "
                             f"{lam_min}")
        keep = 2.0 * pi * np.sqrt(norm) * lam_u[0] <= x_cut
        roots, n_inv = np.unique(np.sqrt(norm[keep]), return_inverse=True)
        bessel_arg = np.outer(2.0 * pi * roots, lam_u)
        power_arg = np.outer(pi * roots, lam_u)
        phase = np.exp(-4j * pi * np.real(np.outer(z_u, wc[keep])))
        kvals = {}
        out = np.empty((len(rows), len(z_u), len(lam_u)), dtype=complex)
        for i, (consts, udata, coef, pref) in enumerate(row_data):
            rad = np.zeros(bessel_arg.shape, dtype=complex)
            for u, (xi, ig, order) in enumerate(udata):
                if order not in kvals:
                    kvals[order] = bessel_k_complex_array(
                        order, bessel_arg.ravel(),
                        trunc.bessel_tol).reshape(bessel_arg.shape)
                rad += (xi * ig) * power_arg ** (1 + l - u) * kvals[order]
            const = sum(ct.coefficient * lam_u ** ct.exponent
                        for ct in consts)
            # einsum, not a BLAS product: at these sizes BLAS worker threads
            # spin between calls and cost more CPU than they save
            out[i] = const + pref * np.einsum(
                "zj,jl->zl", phase * coef[keep], rad[n_inv])
        return out[:, z_inv, lam_inv].reshape((len(rows),) + la.shape)
    return evaluate


def eisenstein_fourier(params: SeriesParams, p: H3Point,
                       index_gamma_inf: int = 4) -> complex:
    """Value of the series at the point z + lam*j assembled from its
    Fourier-Bessel expansion; valid wherever the coefficient L-values are
    (everything but the excluded polar set), in particular on the critical
    line where it defines the continued series."""
    k = params.lkm()[1]
    ev = fourier_evaluator(params, [k], p.lam, index_gamma_inf)
    return complex(ev(p.z, p.lam)[0])


def eisenstein_fourier_group(params: SeriesParams, g: GroupElementSL2C,
                             index_gamma_inf: int = 4) -> complex:
    """Expansion route at a general group element: evaluate the a-vector at
    the Iwasawa point and contract with the rotation part."""
    l, k, _ = params.lkm()
    co = iwasawa_decompose(g)
    return _combine_rotation(
        l, k, co.k.inv(),
        lambda rows: fourier_evaluator(params, rows, co.height,
                                       index_gamma_inf)(co.z, co.height))


# -- test functions on the height axis and their Mellin transforms ---------------

@dataclass(frozen=True)
class TestFunctionPsi:
    """Smooth rapidly decaying weight on (0, inf).

    kind "log-gaussian": exp(-((ln lam - center)/width)^2), Mellin transform
    in closed form. kind "compact-bump": the standard smooth bump in
    x = (ln lam - ln a)/(ln b - ln a) on support (a, b), normalized to peak
    value 1; Mellin transform numeric.
    """
    __test__ = False  # not a test class despite the name

    kind: str = "log-gaussian"
    center: float = 0.0
    width: float = 1.0
    support: tuple = (1.0, 4.0)
    smoothness: int = 1

    def __post_init__(self):
        if self.kind not in ("log-gaussian", "compact-bump"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if not self.width > 0:
            raise ValueError("width must be positive")
        a, b = self.support
        if not 0 < a < b:
            raise ValueError("support must satisfy 0 < a < b")
        if self.smoothness < 1:
            raise ValueError("smoothness must be >= 1")

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=float)
        u = np.log(np.maximum(lam, 1e-300))
        if self.kind == "log-gaussian":
            return np.exp(-((u - self.center) / self.width) ** 2)
        a, b = self.support
        x = (u - log(a)) / (log(b) - log(a))
        inside = (x > 0.0) & (x < 1.0)
        xs = np.where(inside, x, 0.5)
        p = self.smoothness
        vals = np.exp(4.0 ** p - (1.0 / (xs * (1.0 - xs))) ** p)
        return np.where(inside, vals, 0.0)

    def support_interval(self, eps: float = 1e-20) -> tuple:
        """Interval outside which the function is < eps (exact for bumps)."""
        if self.kind == "compact-bump":
            return self.support
        r = self.width * sqrt(log(1.0 / eps))
        return (exp(self.center - r), exp(self.center + r))

    def mellin(self, s):
        """H(s) at a number (returned as complex) or at every entry of an
        array of s."""
        if self.kind == "compact-bump":
            if np.ndim(s):
                return np.array([_mellin_numeric(self, complex(v))
                                 for v in np.ravel(s)]).reshape(np.shape(s))
            return _mellin_numeric(self, complex(s))
        # int exp(-((u-c)/w)^2 - s u) du, complete the square
        s = np.asarray(s, dtype=complex)
        out = (sqrt(pi) * self.width
               * np.exp(-s * self.center + (self.width * s) ** 2 / 4.0))
        return complex(out) if out.ndim == 0 else out


def _mellin_numeric(psi: TestFunctionPsi, s: complex) -> complex:
    a, b = psi.support
    ua, ub = log(a), log(b)
    prev = None
    for n in (96, 160, 256):
        x, w = np.polynomial.legendre.leggauss(n)
        u = ua + (ub - ua) * (x + 1.0) / 2.0
        cur = complex(np.sum(w * psi(np.exp(u)) * np.exp(-s * u))
                      * (ub - ua) / 2.0)
        if prev is not None and abs(cur - prev) <= 1e-12 * max(1.0, abs(cur)):
            return cur
        prev = cur
    return prev


# -- incomplete series ------------------------------------------------------------

@dataclass(frozen=True)
class IncompleteSeriesResult:
    direct_value: complex
    contour_value: complex
    direct_tail: float
    contour_error: float


def incomplete_series(index: SpectralIndex, psi: TestFunctionPsi,
                      g: GroupElementSL2C,
                      truncation: TruncationConfig | None = None,
                      index_gamma_inf: int = 4,
                      sigma0: float = 3.0,
                      routes: str = "both") -> IncompleteSeriesResult:
    """The series smoothed over the height axis by psi, computed twice:
    directly (only rows whose height lands above the support floor of psi
    contribute, a finite set) and as the Mellin contour integral of
    H(sigma0 + i tau) against the expansion route at s = sigma0 - 1 + i tau.

    routes: "both" (default), "direct", or "contour"; a skipped route
    reports value None.
    """
    if routes not in ("both", "direct", "contour"):
        raise ValueError(f"unknown routes selector {routes!r}")
    trunc = truncation or TruncationConfig()
    if index.two_l % 2 != 0:
        raise ValueError("series indices must be integers")
    l = index.two_l // 2
    a_idx = index.two_k // 2
    b_idx = index.two_m // 2
    co = iwasawa_decompose(g)
    z, lam = co.z, co.height
    kinv = co.k.inv()

    # direct route
    direct, direct_tail = None, 0.0
    if routes in ("both", "direct"):
        eps = 0.0 if psi.kind == "compact-bump" else 1e-20
        h_lo, _ = psi.support_interval(max(eps, 1e-20))
        mu = _height_form_min(z, lam)
        bound = int(lam / (h_lo * mu)) + 1
        if bound > 20_000_000:
            raise ArithmeticError(
                f"support floor {h_lo:.3e} needs {bound} rows; lower the "
                "decay cutoff or move the test function up")
        vec = _row_sum_vector(l, b_idx, z, lam, bound,
                              lambda h: np.asarray(psi(h), dtype=complex))
        vec[b_idx + l] += _diagonal_unit_sum(b_idx) * float(psi(lam))
        direct = _combine_rotation(l, a_idx, kinv,
                                   lambda rows: [vec[a + l] for a in rows])
        direct_tail = eps * pi ** 2 * float(bound) ** 2
    if routes == "direct":
        return IncompleteSeriesResult(direct, None, float(direct_tail), 0.0)

    # contour route
    h_peak = abs(psi.mellin(complex(sigma0, 0.0)))
    t_cut = 4.0
    while abs(psi.mellin(complex(sigma0, t_cut))) \
            > 1e-12 * max(h_peak, 1e-300):
        t_cut *= 1.4
        if t_cut > 150.0:
            raise ArithmeticError(
                "Mellin transform tail does not fall below 1e-12 by "
                f"tau = 150 (still {abs(psi.mellin(complex(sigma0, 150.0))):.2e})")

    def contour_total(order: int) -> complex:
        x_gl, w_gl = np.polynomial.legendre.leggauss(order)
        total = 0.0 + 0.0j
        n_panels = int(t_cut) + 1
        width = t_cut / n_panels
        for half in (1.0, -1.0):
            for ip in range(n_panels):
                taus = half * (width * ip + width * (x_gl + 1.0) / 2.0)
                for tau, wq in zip(taus, w_gl):
                    params = SeriesParams(index, complex(sigma0 - 1.0, tau),
                                          trunc)
                    e_val = _combine_rotation(
                        l, a_idx, kinv,
                        lambda rows: fourier_evaluator(
                            params, rows, lam, index_gamma_inf)(z, lam))
                    total += (wq * width / 2.0
                              * psi.mellin(complex(sigma0, tau)) * e_val)
        return total / (2.0 * pi)

    c_lo = contour_total(6)
    c_hi = contour_total(10)
    tail_term = abs(psi.mellin(complex(sigma0, t_cut))) * (abs(c_hi) + 1.0)
    return IncompleteSeriesResult(direct, c_hi, float(direct_tail),
                                  float(abs(c_hi - c_lo) + tail_term))
