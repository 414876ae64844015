"""Frame-bundle Eisenstein series for the Gaussian modular group: the seed
function on the group, truncated coset-sum evaluation (absolutely convergent
half-plane) with a rigorous tail estimate, the Fourier-Bessel expansion of
the same series (usable down to the critical line, where it serves as the
definition of the continued series) with the one vectorized evaluator that
every expansion route goes through, and the test functions on the height
axis with their Mellin transforms, which smooth the series into the
incomplete series of the pairings (microlocal).

Conventions. A coset of the unipotent subgroup is a coprime bottom row
(c, d); the four diagonal-unit rows (0, u) give the constant term and force
the series to vanish identically for odd column index m (the unit average
sum_u u^{2m} is 4 or 0). Frequencies of the expansion live in the
half-integer lattice; a frequency is stored as the Gaussian integer 2w.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, log, pi, sqrt

import numpy as np

from .gaussian import GaussInt
from .h3 import GroupElementSL2C, iwasawa_decompose
from .lseries import (MAX_NORM_BOUND, _canonical_mu_table, _lattice_arrays,
                      l_function_continued, sigma_twisted)
from .specfun import PoleError, bessel_k_complex_array, gamma_complex
from .su2 import (SpectralIndex, SU2Element, b_factor, wigner_D_su2,
                  wigner_monomial, xi_weight)

#: unit-class multiplicity: each of the four diagonal-unit rows (0, u) gives
#: the leading constant term, and the zero-frequency term carries the same
#: factor
INDEX_GAMMA_INF = 4

#: target accuracy of the Bessel factors of the expansion; frequencies are
#: cut where the argument passes _frequency_cut(s)
BESSEL_TOL = 1e-12

#: rows per numpy pass of the coset row sum: a chunk's arrays stay a few
#: hundred kB, and larger chunks save little Python overhead while peak
#: memory grows with them
ROW_CHUNK = 4096

@dataclass(frozen=True)
class SeriesParams:
    index: SpectralIndex
    s: complex

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

def _norm_weight_table(m: int, s: complex, bound: int) -> np.ndarray:
    """W[n], n = 0..bound: the sum over canonical g (re > 0, im >= 0) with
    |g|^2 <= bound // n of mu(g) |g|^{-2(1+s)} (g/|g|)^{2m}, the factor that
    a row of norm n gains from its multiples g (c, d) in the coset row sum.
    One cumulative sum over lseries._canonical_mu_table; W[0] is unused."""
    re, im, norm, mu = _canonical_mu_table(bound)
    phase = ((re + 1j * im) / np.sqrt(norm)) ** (2 * m)
    cum = np.cumsum(mu * np.exp(-(1.0 + s) * np.log(norm)) * phase)
    n = np.arange(1, bound + 1)
    return np.append(0.0, cum[np.searchsorted(norm, bound // n,
                                              side="right") - 1])


def _height_form_min(z: complex, lam: float) -> float:
    """Least eigenvalue of the positive form (c,d) -> |cz+d|^2 + lam^2|c|^2,
    so that the form is >= mu * (|c|^2 + |d|^2) on every row."""
    tr = 1.0 + abs(z) ** 2 + lam * lam
    disc = sqrt(max(tr * tr - 4.0 * lam * lam, 0.0))
    return (tr - disc) / 2.0


def _row_sum(l: int, k: int, m: int, kinv: SU2Element, z: complex,
             lam: float, bound: int, s: complex) -> complex:
    """Sum of conj(D_{km}(kinv K)) * (row height)^{1+s} over the cosets of
    the unipotent subgroup, the coprime rows (c, d) with
    |c|^2 + |d|^2 <= bound, where K is the row's rotation and kinv the
    inverse rotation part of g: the value of the series at g.

    A unit u sends the row (c, d) to (uc, ud), which has the same height
    and the rotation K diag(u, conj u), so each class of four rows sums to
    sum_u u^{2m} (4 for even m, 0 for odd m) times one of its rows. The
    identity coset (0, 1) has rotation 1 and height lam; every other class
    has one row with c in the first quadrant (re > 0, im >= 0).

    Coprimality is opened up by Moebius inversion over the common divisor:
    the sum over the coprime rows with c != 0 is the sum over canonical g
    of mu(g) times the sum over all rows (c, d), c != 0, of the term at
    g (c, d). The row g (c, d) has the height h / |g|^2 and the rotation
    K diag(u, conj u), u = g/|g|, of the row (c, d) (height h, rotation K),
    and conj(D_{km}(kinv K diag(u, conj u))) = conj(D_{km}(kinv K)) u^{2m}.
    So the power weight factors by the row norm n = |c|^2 + |d|^2:

        sum over the coprime rows with c canonical = sum over c
        canonical, every d (d = 0 included), n <= bound, of
        conj(D_{km}(kinv K)) h^{1+s} W[n],

    with W = _norm_weight_table(m, s, bound), an exact rearrangement of
    the finite sum. One block per canonical c holds its rows in the order
    of _lattice_arrays, d = 0 first. The rows are walked in chunks of
    ROW_CHUNK rows, blocks straddling chunk ends, and each chunk gets one
    numpy pass: the weights and one Wigner entry per row. The row (c, d)
    has h = lam / v^2 and K = K[t / v, lam conj(c) / v], t = c z + d,
    v^2 = |t|^2 + lam^2 |c|^2; the entry is homogeneous of degree 2l in
    (alpha, beta), so it is taken at kinv (t, lam conj(c)), the product of
    SU2Element.__mul__ unnormalized, and v^{-2l} joins the weight. The
    rows are never all held at once: their memory is a few chunk-sized
    arrays at any bound.
    """
    units = _diagonal_unit_sum(m)
    if units == 0.0:
        return 0.0 + 0.0j
    lam_power = np.exp((1.0 + s) * np.log(lam))
    acc = wigner_monomial(2 * l, 2 * k, 2 * m, kinv.alpha,
                          kinv.beta).conjugate() * lam_power
    re, im, norm = _lattice_arrays(bound)
    d_lattice = np.append(0.0, re + 1j * im)  # leading entry: the d = 0 row
    d_norm = np.append(0, norm)
    canon = np.nonzero((re > 0) & (im >= 0))[0]
    c_norm = norm[canon]
    count = np.searchsorted(d_norm, bound - c_norm, side="right")
    ends = np.cumsum(count)
    starts = ends - count
    c_tab = re[canon] + 1j * im[canon]
    cz_tab = c_tab * z                    # per block: c z,
    shift_tab = lam * lam * c_norm        # lam^2 |c|^2,
    # and the parts of kinv (t, lam conj(c)) that do not depend on d:
    # (ka t - kb lam c, ka lam conj(c) + kb conj(t)) for kinv = K[ka, kb]
    ka, kb = kinv.alpha, kinv.beta
    alpha_tab = -kb * lam * c_tab
    beta_tab = ka * lam * c_tab.conjugate()
    weight = lam_power * _norm_weight_table(m, s, bound)
    n_rows = int(ends[-1])
    for r0 in range(0, n_rows, ROW_CHUNK):
        r1 = min(r0 + ROW_CHUNK, n_rows)
        b0, b1 = np.searchsorted(ends, [r0, r1 - 1], side="right")
        first_row = np.maximum(starts[b0:b1 + 1], r0)
        blk = np.repeat(np.arange(b0, b1 + 1),
                        np.minimum(ends[b0:b1 + 1], r1) - first_row)
        d_idx = np.arange(r0, r1) - starts[blk]
        t = cz_tab[blk] + d_lattice[d_idx]
        v2 = t.real ** 2 + t.imag ** 2 + shift_tab[blk]
        wig = wigner_monomial(2 * l, 2 * k, 2 * m, ka * t + alpha_tab[blk],
                              beta_tab[blk] + kb * t.conjugate())
        wvals = (np.exp(-(1.0 + s + l) * np.log(v2))
                 * weight[c_norm[blk] + d_norm[d_idx]])
        # sum_n conj(D_n) w_n, formed as the conjugate of sum_n D_n conj(w_n)
        acc += np.einsum("n,n->", wig, wvals.conjugate()).conjugate()
    return units * acc


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

def eisenstein_coset_sum(params: SeriesParams, g: GroupElementSL2C,
                         bound: int = 1000) -> SeriesValue:
    """Truncated coset sum of the series at g, Re(s) > 1 only: _row_sum
    (identity coset included), one Wigner entry per row taken at the
    product of the inverse rotation part of g with the row's rotation.
    Rows are cut at |c|^2 + |d|^2 <= bound, the one truncation of this
    route, and the discarded remainder is bounded by an integral
    comparison (rotation entries have modulus <= 1, row heights are
    <= lam / (mu * rownorm)). For odd m the unit classes cancel and the
    value is exactly 0."""
    s = complex(params.s)
    if s.real <= 1.0:
        raise ValueError("coset-sum route requires Re(s) > 1")
    if bound < 1:
        raise ValueError("the coset norm bound must be positive")
    l, k, m = params.lkm()
    co = iwasawa_decompose(g)
    z, lam = co.z, co.height
    value = _row_sum(l, k, m, co.k.inv(), z, lam, bound, s)
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


def _constant_terms(l: int, k: int, m: int, s: complex) -> tuple:
    b = b_factor(l, k, m)
    out = []
    if k == m:
        out.append(ConstantTermData(INDEX_GAMMA_INF * b, 1.0 + s))
    if k == -m:
        prod = 1.0 + 0.0j
        for j in range(abs(m) + 1, l + 1):
            prod *= (j - s)  # Gamma(1+l-s)/Gamma(1+|m|-s), pole-free form
        den = _l_denominator(s, m)
        lrat = l_function_continued(s, 2 * m) / den
        # the degenerate (zero-frequency) coefficient carries the same
        # unit-class multiplicity as the leading term: its L-ratio is the
        # per-ideal value of the exponential lattice sum, whose four
        # associate rows contribute equally (checked against the direct
        # lattice sum in test_lseries.py::TestUnitMultiplicity)
        coef = (INDEX_GAMMA_INF * (-1.0) ** (m + abs(m)) * pi * prod
                * gamma_complex(abs(m) + s) / gamma_complex(1.0 + l + s)
                * lrat * b)
        out.append(ConstantTermData(coef, 1.0 - s))
    return tuple(out)


def _l_denominator(s: complex, m: int) -> complex:
    """L(1+s, 2m); PoleError at its trivial zeros, s <= -1 - max(1, |m|)."""
    if s.imag == 0.0 and s.real == int(s.real) <= -1 - max(1, abs(m)):
        raise PoleError(f"L(1+s, {2 * m}) vanishes at s = {s}")
    return l_function_continued(1.0 + s, 2 * m)


def _u_data(l: int, k: int, m: int, s: complex) -> tuple:
    out = []
    for u in range(0, l - max(abs(k), abs(m)) + 1):
        xi = (-1.0) ** u * xi_weight(l, -m, -k, u)
        inv_gamma = 1.0 / gamma_complex(1.0 + l + s - u)
        out.append((xi, inv_gamma, s + l - abs(k + m) - u))
    return tuple(out)


def fourier_expansion_terms(params: SeriesParams, norm_bound: int):
    """The frequencies w of the expansion with |2w|^2 <= norm_bound and
    their coefficient data, for even m: the int64 arrays (re, im) of 2w in
    the order of _lattice_arrays, and the closed form of the exponential
    lattice series at -w, 16 sigma_twisted(2w, m/2, -s) / (4 L(1+s, 2m)).
    The divisor sum is associate-invariant, so it is computed once per
    associate class of 2w, at the class representative with re > 0,
    im >= 0. Bounds above MAX_NORM_BOUND are refused before anything is
    allocated."""
    s = complex(params.s)
    m = params.lkm()[2]
    l_den = 4.0 * _l_denominator(s, m)
    re, im, _ = _lattice_arrays(norm_bound)
    # multiply by -i until 2w lands in re > 0, im >= 0 (at most three turns)
    cre, cim = re.copy(), im.copy()
    for _ in range(3):
        turn = (cre <= 0) | (cim < 0)
        cre[turn], cim[turn] = cim[turn], -cre[turn]
    classes, cls_idx = np.unique(cre + 1j * cim, return_inverse=True)
    d_class = np.array([16.0 * sigma_twisted(GaussInt(int(c.real),
                                                      int(c.imag)),
                                             m // 2, -s) / l_den
                        for c in classes], dtype=complex)
    return re, im, d_class[cls_idx]


def _frequency_cut(s: complex) -> float:
    """Bessel argument past which the expansion drops a frequency. The
    leading terms carry K_nu with |Im nu| = |Im s|, of size
    exp(-pi |Im s| / 2), while a term at argument x is of size exp(-x): the
    cut sits pi |Im s| / 2 beyond -ln(BESSEL_TOL) + 20."""
    return -log(BESSEL_TOL) + 20.0 + pi * abs(s.imag) / 2.0


def _expansion(params: SeriesParams, rows, lam_min: float, re, im,
               d_values, constant: bool):
    """evaluate of fourier_evaluator over the frequencies 2w = re + i im
    with d-values d: row a is the constant terms (if `constant`) plus
    (-1)^{l+m} i^{-a-m} (2 pi)^s B sum_w d |w|^{s-1} (w/|w|)^{-a-m} sum_u
    xi_u K_{s+l-|a+m|-u}(x) (x/2)^{1+l-u}/Gamma(1+l+s-u), x = 2 pi |2w| lam."""
    s = complex(params.s)
    l, _, m = params.lkm()
    x_cut = _frequency_cut(s)
    norm = re * re + im * im
    wc = (re + 1j * im) / 2.0
    absw = np.abs(wc)
    dcoef = d_values * absw ** (s - 1.0)
    row_data = [(_constant_terms(l, a, m, s) if constant else (),
                 _u_data(l, a, m, s), dcoef * (wc / absw) ** (-a - m),
                 (-1.0) ** (l + m) * 1j ** (-a - m) * (2.0 * pi) ** s
                 * b_factor(l, a, m)) for a in rows]

    def evaluate(zs, lams) -> np.ndarray:
        za = np.asarray(zs, dtype=complex)
        la = np.asarray(lams, dtype=float)
        lam_lo = la.min()
        if lam_lo < lam_min:
            raise ValueError(f"height {lam_lo} below the evaluator floor "
                             f"{lam_min}")
        keep = 2.0 * pi * np.sqrt(norm) * lam_lo <= x_cut
        roots, n_inv = np.unique(np.sqrt(norm[keep]), return_inverse=True)
        bessel_arg = np.outer(2.0 * pi * roots, la)
        power_arg = np.outer(pi * roots, la)
        phase = np.exp(-4j * pi * np.real(np.outer(za, wc[keep])))
        kvals = {}
        out = np.empty((len(rows), za.size, la.size), dtype=complex)
        for i, (consts, udata, coef, pref) in enumerate(row_data):
            rad = np.zeros(bessel_arg.shape, dtype=complex)
            for u, (xi, ig, order) in enumerate(udata):
                if order not in kvals:
                    kvals[order] = bessel_k_complex_array(
                        order, bessel_arg.ravel(),
                        BESSEL_TOL).reshape(bessel_arg.shape)
                rad += (xi * ig) * power_arg ** (1 + l - u) * kvals[order]
            const = sum(ct.coefficient * la.ravel() ** ct.exponent
                        for ct in consts)
            # einsum, not a BLAS product: at these sizes BLAS worker threads
            # spin between calls and cost more CPU than they save
            out[i] = const + pref * np.einsum(
                "zj,jl->zl", phase * coef[keep], rad[n_inv])
        return out.reshape((len(rows),) + za.shape + la.shape)
    return evaluate


def fourier_evaluator(params: SeriesParams, rows, lam_min: float):
    """Vectorized evaluator of the Fourier-Bessel expansion of the series at
    the indices (l, a, m), a in rows, at heights lam >= lam_min.

    Returns evaluate(zs, lams): the expansion on the outer product of the
    points zs (complex) and the heights lams, of shape (len(rows),) +
    shape(zs) + shape(lams). Terms decay like exp(-2 pi |2w| lam), so a
    frequency enters only while 2 pi |2w| lam <= x_cut at the lowest height
    of the call. That cut is the only truncation of the expansion: the
    frequencies inside it at lam_min, |2w|^2 <= (x_cut / (2 pi lam_min))^2,
    get their coefficients once, and a height whose need exceeds
    MAX_NORM_BOUND is refused (ValueError) before anything is allocated.
    The values are separable in (z, lam): the phases are formed on the
    points and the Bessel factors on the heights, each distinct order once,
    shared across the rows. The series vanishes identically for odd m.
    """
    if params.lkm()[2] % 2:  # the series vanishes identically for odd m
        return lambda zs, lams: np.zeros(
            (len(rows),) + np.shape(zs) + np.shape(lams), dtype=complex)
    x_cut = _frequency_cut(complex(params.s))
    # compared before squaring: the square overflows at tiny heights
    if lam_min < x_cut / (2.0 * pi * sqrt(MAX_NORM_BOUND + 1)):
        raise ValueError(f"lattice norm bound (x_cut / (2 pi lam))^2 at "
                         f"height {lam_min} exceeds {MAX_NORM_BOUND}")
    return _expansion(params, rows, lam_min, *fourier_expansion_terms(
        params, int((x_cut / (2.0 * pi * lam_min)) ** 2)), True)


def fourier_mode(params: SeriesParams, a: int, two_w: tuple):
    """Height profile of the mode exp(-4 pi i Re(z w)) at the index (l, a, m):
    profile(lams) is the mean of E(z + lam j) exp(4 pi i Re(z w)) over the
    unit square, on heights of any shape: the constant term at 2w = 0, else
    the term of 2w in _expansion, from the frequencies up to |2w|^2."""
    s = complex(params.s)
    l, _, m = params.lkm()
    norm = two_w[0] ** 2 + two_w[1] ** 2
    if norm == 0 or m % 2:
        consts = () if m % 2 else _constant_terms(l, a, m, s)
        return lambda lams: sum(
            (ct.coefficient * np.asarray(lams, dtype=float) ** ct.exponent
             for ct in consts), np.zeros(np.shape(lams), dtype=complex))
    re, im, d_values = fourier_expansion_terms(params, norm)
    j = np.flatnonzero((re == two_w[0]) & (im == two_w[1]))
    ev = _expansion(params, [a], 0.0, re[j], im[j], d_values[j], False)
    return lambda lams: ev(0.0, lams)[0]


def eisenstein_fourier_group(params: SeriesParams,
                             g: GroupElementSL2C) -> complex:
    """Expansion route at a general group element: evaluate the a-vector at
    the Iwasawa point and contract with the rotation part."""
    l, k, _ = params.lkm()
    co = iwasawa_decompose(g)
    return _combine_rotation(
        l, k, co.k.inv(),
        lambda rows: fourier_evaluator(params, rows, co.height)(
            co.z, co.height))


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
