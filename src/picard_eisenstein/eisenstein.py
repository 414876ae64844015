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
from itertools import chain
from math import exp, log, pi, sqrt

import numpy as np

from .gaussian import GaussInt, canonical_associate, factor_gauss
from .h3 import GroupElementSL2C, H3Point, iwasawa_decompose
from .lseries import (MAX_NORM_BOUND, _lattice_arrays, l_function_continued,
                      sigma_twisted)
from .specfun import bessel_k_complex_array, gamma_complex
from .su2 import (SpectralIndex, b_factor, wigner_column, wigner_D_su2,
                  xi_weight)

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

    def __post_init__(self):
        if self.coset_norm_bound < 1 or self.lattice_norm_bound < 1:
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

def _squarefree_divisors(c: GaussInt) -> tuple[tuple[int, complex, int], ...]:
    """(moebius sign, complex value, norm) over the squarefree divisors of c
    (one associate each)."""
    _, fac = factor_gauss(c)
    out = [(1, 1.0 + 0.0j, 1)]
    for q in fac:
        qc, qn = complex(q.re, q.im), q.norm()
        out += [(-mu, val * qc, n * qn) for (mu, val, n) in out]
    return tuple(out)


@lru_cache(maxsize=4)
def _block_table(bound: int):
    """(c index, Moebius sign, g, |g|^2) arrays over the Moebius blocks of
    the coset row sum: the squarefree divisors g of every canonical c
    (re > 0, im >= 0) with |c|^2 <= bound, c indexing _lattice_arrays(bound).
    Cached per bound, so repeated row sums at one bound factor nothing."""
    re, im, _ = _lattice_arrays(bound)
    canon = np.nonzero((re > 0) & (im >= 0))[0]
    divisors = [_squarefree_divisors(GaussInt(int(re[i]), int(im[i])))
                for i in canon]
    c_idx = np.repeat(canon, [len(d) for d in divisors])
    mu, g, g_norm = map(np.array, zip(*chain.from_iterable(divisors)))
    return c_idx, mu, g, g_norm


def _height_form_min(z: complex, lam: float) -> float:
    """Least eigenvalue of the positive form (c,d) -> |cz+d|^2 + lam^2|c|^2,
    so that the form is >= mu * (|c|^2 + |d|^2) on every row."""
    tr = 1.0 + abs(z) ** 2 + lam * lam
    disc = sqrt(max(tr * tr - 4.0 * lam * lam, 0.0))
    return (tr - disc) / 2.0


def _row_sum_vector(l: int, m: int, z: complex, lam: float, bound: int,
                    hweight) -> np.ndarray:
    """Sum of conj(D_{am}(row rotation)) * hweight(row height) over the
    cosets of the unipotent subgroup, the coprime rows (c, d) with
    |c|^2 + |d|^2 <= bound, returned as a vector over a = -l..l.

    A unit u sends the row (c, d) to (uc, ud), which has the same height
    and the rotation K diag(u, conj u), so each class of four rows sums to
    sum_u u^{2m} (4 for even m, 0 for odd m) times one of its rows. The sum
    runs over one row per class, c in the first quadrant (re > 0, im >= 0)
    or the identity coset (0, 1) of rotation 1 and height lam, and is then
    multiplied by that unit sum. The coprimality condition is opened up by
    Moebius inversion over the squarefree divisors g of c (an exact
    rearrangement of the finite sum): the block of (c, g) holds the rows
    (c, g d) over the lattice points d with |g d|^2 <= bound - |c|^2, plus
    the row d = 0, which cancels over the divisors unless c is a unit.

    The blocks come from _block_table; their rows are walked in chunks
    of ROW_CHUNK rows, blocks straddling chunk ends, and each chunk gets
    one numpy pass: row heights, rotations, the weights (Moebius sign
    folded in) and all 2l+1 Wigner entries at once (su2.wigner_column).
    The rows are never all held at once: their memory is a few chunk-sized
    arrays at any bound (the block table still grows with the bound).
    """
    acc = np.zeros(2 * l + 1, dtype=complex)
    units = _diagonal_unit_sum(m)
    if units == 0.0:
        return acc
    acc[m + l] = hweight(lam)
    re, im, norm = _lattice_arrays(bound)
    d_lattice = np.append(re + 1j * im, 0.0)  # trailing entry: the d = 0 row
    c_idx, mu_tab, g_tab, g_norm = _block_table(bound)
    count = np.searchsorted(norm, (bound - norm[c_idx]) // g_norm,
                            side="right")
    ends = np.cumsum(count + 1)
    starts = ends - (count + 1)
    c_tab = re[c_idx] + 1j * im[c_idx]
    cz_tab = c_tab * z                    # per block: c z,
    beta_tab = lam * c_tab.conjugate()    # lam conj(c),
    shift_tab = lam * lam * norm[c_idx]   # and lam^2 |c|^2
    n_rows = int(ends[-1])
    for r0 in range(0, n_rows, ROW_CHUNK):
        r1 = min(r0 + ROW_CHUNK, n_rows)
        b0, b1 = np.searchsorted(ends, [r0, r1 - 1], side="right")
        first_row = np.maximum(starts[b0:b1 + 1], r0)
        blk = np.repeat(np.arange(b0, b1 + 1),
                        np.minimum(ends[b0:b1 + 1], r1) - first_row)
        offset = np.arange(r0, r1) - starts[blk]
        offset[offset == count[blk]] = len(d_lattice) - 1
        t = cz_tab[blk] + d_lattice[offset] * g_tab[blk]
        v2 = t.real ** 2 + t.imag ** 2 + shift_tab[blk]
        vroot = np.sqrt(v2)
        wig = wigner_column(2 * l, 2 * m, t / vroot, beta_tab[blk] / vroot)
        wvals = mu_tab[blk] * hweight(lam / v2)
        # sum_n conj(D_an) w_n, formed as the conjugate of sum_n D_an conj(w_n)
        acc += np.einsum("an,n->a", wig, wvals.conjugate()).conjugate()
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

def eisenstein_coset_sum(params: SeriesParams, g: GroupElementSL2C) -> SeriesValue:
    """Truncated coset sum of the series at g, Re(s) > 1 only: the row
    vector of _row_sum_vector (identity coset included, every entry
    a = -l..l from the same chunked pass over the rows) with the weight
    height^{1+s}, contracted with the rotation part of g. Rows are cut at
    |c|^2 + |d|^2 <= coset_norm_bound and the discarded remainder is
    bounded by an integral comparison (rotation entries have modulus <= 1,
    row heights are <= lam / (mu * rownorm)). For odd m the unit classes
    cancel and the value is exactly 0."""
    s = complex(params.s)
    if s.real <= 1.0:
        raise ValueError("coset-sum route requires Re(s) > 1")
    l, k, m = params.lkm()
    bound = params.truncation.coset_norm_bound
    co = iwasawa_decompose(g)
    z, lam = co.z, co.height
    vec = _row_sum_vector(l, m, z, lam, bound,
                          lambda h: np.exp((1.0 + s) * np.log(h)))
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


def _constant_terms(l: int, k: int, m: int, s: complex) -> tuple:
    b = b_factor(l, k, m)
    out = []
    if k == m:
        out.append(ConstantTermData(INDEX_GAMMA_INF * b, 1.0 + s))
    if k == -m:
        prod = 1.0 + 0.0j
        for j in range(abs(m) + 1, l + 1):
            prod *= (j - s)  # Gamma(1+l-s)/Gamma(1+|m|-s), pole-free form
        lrat = l_function_continued(s, 2 * m) \
            / l_function_continued(1.0 + s, 2 * m)
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


def fourier_expansion_terms(params: SeriesParams) -> FourierExpansionTerms:
    """Assembled coefficient data of the expansion: both constant-term
    coefficients and, for every frequency with |2w|^2 <= lattice_norm_bound,
    its exponential-sum value, angular factor, and Bessel/gamma data."""
    s = complex(params.s)
    l, k, m = params.lkm()
    consts = () if m % 2 else _constant_terms(l, k, m, s)
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


def _frequency_cut(s: complex) -> float:
    """Bessel argument past which the expansion drops a frequency. The
    leading terms carry K_nu with |Im nu| = |Im s|, of size
    exp(-pi |Im s| / 2), while a term at argument x is of size exp(-x): the
    cut sits pi |Im s| / 2 beyond -ln(BESSEL_TOL) + 20."""
    return -log(BESSEL_TOL) + 20.0 + pi * abs(s.imag) / 2.0


def fourier_evaluator(params: SeriesParams, rows, lam_min: float):
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
    x_cut = _frequency_cut(s)
    norm_cut = min(trunc.lattice_norm_bound,
                   int((x_cut / (2.0 * pi * lam_min)) ** 2))
    terms = fourier_expansion_terms(
        replace(params, truncation=replace(
            trunc, lattice_norm_bound=max(norm_cut, 1))))
    waves = terms.nonconstant_terms
    two_w = np.array(list(waves), dtype=float).reshape(-1, 2)
    norm = two_w[:, 0] ** 2 + two_w[:, 1] ** 2
    wc = np.array([wt.frequency for wt in waves.values()], dtype=complex)
    absw = np.abs(wc)
    dcoef = np.array([wt.d_value for wt in waves.values()],
                     dtype=complex) * absw ** (s - 1.0)
    row_data = [(_constant_terms(l, a, m, s),
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
                        BESSEL_TOL).reshape(bessel_arg.shape)
                rad += (xi * ig) * power_arg ** (1 + l - u) * kvals[order]
            const = sum(ct.coefficient * lam_u ** ct.exponent
                        for ct in consts)
            # einsum, not a BLAS product: at these sizes BLAS worker threads
            # spin between calls and cost more CPU than they save
            out[i] = const + pref * np.einsum(
                "zj,jl->zl", phase * coef[keep], rad[n_inv])
        return out[:, z_inv, lam_inv].reshape((len(rows),) + la.shape)
    return evaluate


def eisenstein_fourier(params: SeriesParams, p: H3Point) -> complex:
    """Value of the series at the point z + lam*j assembled from its
    Fourier-Bessel expansion; valid wherever the coefficient L-values are
    (everything but the excluded polar set), in particular on the critical
    line where it defines the continued series."""
    k = params.lkm()[1]
    ev = fourier_evaluator(params, [k], p.lam)
    return complex(ev(p.z, p.lam)[0])


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
        if bound > MAX_NORM_BOUND:
            raise ArithmeticError(
                f"support floor {h_lo:.3e} needs {bound} rows; lower the "
                "decay cutoff or move the test function up")
        vec = _row_sum_vector(l, b_idx, z, lam, bound,
                              lambda h: np.asarray(psi(h), dtype=complex))
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
                            params, rows, lam)(z, lam))
                    total += (wq * width / 2.0
                              * psi.mellin(complex(sigma0, tau)) * e_val)
        return total / (2.0 * pi)

    c_lo = contour_total(6)
    c_hi = contour_total(10)
    tail_term = abs(psi.mellin(complex(sigma0, t_cut))) * (abs(c_hi) + 1.0)
    return IncompleteSeriesResult(direct, c_hi, float(direct_tail),
                                  float(abs(c_hi - c_lo) + tail_term))
