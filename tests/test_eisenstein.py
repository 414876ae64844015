import time
import tracemalloc
from dataclasses import dataclass
from math import e, factorial, log, pi, sqrt

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from picard_eisenstein import eisenstein, gaussian, lseries
from picard_eisenstein.eisenstein import (
    SeriesParams, TestFunctionPsi, _combine_rotation, _constant_terms,
    _height_form_min, _row_sum,
    eisenstein_coset_sum, eisenstein_fourier_group, f_seed,
    fourier_evaluator, fourier_expansion_terms,
)
from picard_eisenstein.gaussian import GaussInt
from picard_eisenstein.h3 import GroupElementSL2C, H3Point, iwasawa_decompose
from picard_eisenstein.lseries import MAX_NORM_BOUND, _lattice_arrays
from picard_eisenstein.specfun import PoleError
from picard_eisenstein.su2 import (
    SU2_IDENTITY, SpectralIndex, SU2Element, b_factor, random_su2,
    wigner_D_su2, wigner_monomial, xi_weight,
)

RNG = np.random.default_rng(571204)

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


def point_group(p: H3Point) -> GroupElementSL2C:
    return (GroupElementSL2C.translation(p.z)
            * GroupElementSL2C.dilation(p.lam))


def eisenstein_fourier(params: SeriesParams, p: H3Point) -> complex:
    """Value of the series at the point z + lam*j from its Fourier-Bessel
    expansion (the evaluator's row k at one point)."""
    k = params.lkm()[1]
    ev = fourier_evaluator(params, [k], p.lam)
    return complex(ev(p.z, p.lam)[0])


def squarefree_divisors(c: GaussInt) -> tuple[tuple[int, complex, int], ...]:
    """(moebius sign, complex value, norm) over the squarefree divisors of c
    (one associate each)."""
    _, fac = gaussian.factor_gauss(c)
    out = [(1, 1.0 + 0.0j, 1)]
    for q in fac:
        qc, qn = complex(q.re, q.im), q.norm()
        out += [(-mu, val * qc, n * qn) for (mu, val, n) in out]
    return tuple(out)


def row_sum_four_units(l, m, z, lam, bound, hweight):
    """Reference coset row vector for any height weight: every c != 0 as
    (unit * c) for the four units, coprimality by Moebius inversion over the
    squarefree divisors g of c (the rows (c, g d), d = 0 included), then the
    four identity-class rows (0, u) added as one term."""
    acc = np.zeros(2 * l + 1, dtype=complex)
    re, im, norm = _lattice_arrays(bound)
    canon = np.nonzero((re > 0) & (im >= 0))[0]
    for idx in canon:
        nc = int(norm[idx])
        c0 = GaussInt(int(re[idx]), int(im[idx]))
        for mu_g, gval, gn in squarefree_divisors(c0):
            count = int(np.searchsorted(norm, (bound - nc) // gn,
                                        side="right"))
            d_arr = np.empty(count + 1, dtype=complex)
            d_arr[:count] = (re[:count] + 1j * im[:count]) * gval
            d_arr[count] = 0.0
            for unit in (1.0 + 0.0j, 1j, -1.0 + 0.0j, -1j):
                cu = unit * complex(c0.re, c0.im)
                t = cu * z + d_arr
                v2 = np.abs(t) ** 2 + lam * lam * nc
                alpha = t / np.sqrt(v2)
                beta = (lam * cu.conjugate()) / np.sqrt(v2)
                wvals = hweight(lam / v2)
                for a in range(-l, l + 1):
                    wig = wigner_monomial(2 * l, 2 * a, 2 * m, alpha, beta)
                    acc[a + l] += mu_g * complex(
                        np.sum(np.conjugate(wig) * wvals))
    acc[m + l] += (4.0 if m % 2 == 0 else 0.0) * hweight(lam)
    return acc


def contract(l, k, kinv, vec):
    """sum_a conj(D_{ka}(kinv)) vec[a + l]: a reference row vector's value
    at the index k and the inverse rotation kinv of g."""
    return sum(complex(wigner_D_su2(l, k, a, kinv)).conjugate() * vec[a + l]
               for a in range(-l, l + 1))


class TestSeedFunction:
    def test_identity_rotation_gives_delta(self):
        g = point_group(H3Point(0.4, -0.3, 1.7))
        for (l, k, m) in [(0, 0, 0), (1, 0, 0), (1, 1, 1), (2, 1, -1)]:
            got = f_seed(SpectralIndex.make(l, k, m), g, 2.5)
            want = (1.7 ** 3.5) if k == m else 0.0
            assert abs(got - want) < 1e-12

    def test_scalar_is_height_power(self):
        idx = SpectralIndex.make(0, 0, 0)
        for _ in range(20):
            g = point_group(H3Point(RNG.uniform(-2, 2), RNG.uniform(-2, 2),
                                    RNG.uniform(0.2, 4)))
            g = g * GroupElementSL2C.from_su2(random_su2(RNG))
            s = complex(RNG.uniform(1, 3), RNG.uniform(-1, 1))
            co_lam = abs(f_seed(idx, g, s))
            # |height^{1+s}| = height^{1+Re s}
            from picard_eisenstein.h3 import iwasawa_decompose
            h = iwasawa_decompose(g).height
            assert abs(co_lam - h ** (1 + s.real)) < 1e-12 * co_lam

    def test_right_translation_rule(self):
        # f(gB) expands through the representation matrix of B^{-1}
        for (l, k, m) in [(1, 0, 0), (2, 1, -1), (1, 1, 1)]:
            for _ in range(5):
                b = random_su2(RNG)
                g = (point_group(H3Point(0.3, 0.2, 1.3))
                     * GroupElementSL2C.from_su2(random_su2(RNG)))
                s = 1.7 + 0.4j
                lhs = f_seed(SpectralIndex.make(l, k, m),
                             g * GroupElementSL2C.from_su2(b), s)
                rhs = sum(
                    complex(wigner_D_su2(l, k, a, b.inv())).conjugate()
                    * f_seed(SpectralIndex.make(l, a, m), g, s)
                    for a in range(-l, l + 1))
                assert abs(lhs - rhs) < 1e-12


class TestCoefficients:
    def test_xi_values(self):
        assert xi_weight(1, 0, 0, 0) == 2.0
        assert xi_weight(1, 0, 0, 1) == 1.0

    def test_xi_out_of_range(self):
        with pytest.raises(ValueError):
            xi_weight(1, 0, 0, 2)
        with pytest.raises(ValueError):
            xi_weight(1, 1, 1, 1)
        with pytest.raises(ValueError):
            xi_weight(1, 2, 0, 0)

    def test_b_diagonal_is_one(self):
        for l in range(0, 5):
            for k in range(-l, l + 1):
                assert b_factor(l, k, k) == 1.0

    def test_b_example(self):
        assert abs(b_factor(1, 0, 1) - sqrt(2)) < 1e-15

    def test_b_matches_representation_module(self):
        # integer-index factorial formula as the reference
        for l in range(0, 4):
            for k in range(-l, l + 1):
                for m in range(-l, l + 1):
                    want = sqrt(factorial(l + m) * factorial(l - m)
                                / (factorial(l + k) * factorial(l - k)))
                    assert abs(want - b_factor(l, k, m)) < 1e-13


class TestWignerVectorized:
    def test_matches_scalar_evaluation(self):
        n = 40
        ang = RNG.uniform(0, 2 * pi, size=(n, 3))
        r = np.sqrt(RNG.uniform(0, 1, size=n))
        alpha = r * np.exp(1j * ang[:, 0])
        beta = np.sqrt(1 - r ** 2) * np.exp(1j * ang[:, 1])
        for l in range(0, 4):
            for k in range(-l, l + 1):
                for m in range(-l, l + 1):
                    vec = wigner_monomial(2 * l, 2 * k, 2 * m, alpha, beta)
                    for i in range(0, n, 7):
                        want = wigner_D_su2(
                            l, k, m, SU2Element(alpha[i], beta[i]))
                        assert abs(vec[i] - complex(want)) < 1e-12


class TestCosetSum:
    def test_requires_convergent_halfplane(self):
        params = SeriesParams(SpectralIndex.make(0, 0, 0), 1.0)
        with pytest.raises(ValueError):
            eisenstein_coset_sum(params, GroupElementSL2C.identity())

    def test_gamma_invariance_scalar(self):
        params = SeriesParams(SpectralIndex.make(0, 0, 0), 2.0)
        g = point_group(H3Point(0.13, 0.21, 1.1))
        base = eisenstein_coset_sum(params, g, 600)
        for gamma in GAMMA_GENERATORS:
            moved = eisenstein_coset_sum(params, gamma * g, 600)
            assert abs(moved.value - base.value) \
                <= 2 * (moved.tail_bound + base.tail_bound)

    def test_rotation_equivariance(self):
        # value at g*K contracts the point values through D(K^{-1})
        l, m, s = 1, 0, 2.0
        g = point_group(H3Point(0.2, -0.1, 0.9))
        kk = random_su2(RNG)
        gk = g * GroupElementSL2C.from_su2(kk)
        for k in (-1, 0, 1):
            lhs = eisenstein_coset_sum(
                SeriesParams(SpectralIndex.make(l, k, m), s), gk, 400).value
            rhs = sum(
                complex(wigner_D_su2(l, k, a, kk.inv())).conjugate()
                * eisenstein_coset_sum(
                    SeriesParams(SpectralIndex.make(l, a, m), s), g,
                    400).value
                for a in range(-l, l + 1))
            assert abs(lhs - rhs) < 1e-10

    def test_odd_column_index_vanishes(self):
        g = point_group(H3Point(0.31, 0.17, 0.8))
        for (l, k, m) in [(1, 1, 1), (2, 0, 1), (2, 2, -1)]:
            res = eisenstein_coset_sum(
                SeriesParams(SpectralIndex.make(l, k, m), 2.0), g, 200)
            assert abs(res.value) < 1e-10
            assert res.value == 0.0

    @pytest.mark.parametrize("s_re", [1.3, 1.8, 2.5])
    def test_tail_bound_covers_deeper_truncation(self, s_re):
        # the rows between bounds 100 and 1600 are part of the tail that
        # tail_bound bounds at 100; observed/bound ratios were 1.3e-5 to
        # 0.18, the largest at index (0, 0, 0) on the real axis
        points = (point_group(H3Point(0.31, 0.17, 0.8)),
                  point_group(H3Point(-0.2, 0.45, 1.3))
                  * GroupElementSL2C.from_su2(SU2Element(0.6 + 0.3j,
                                                         -0.2 + 0.5j)))
        for lkm, s_im in (((0, 0, 0), 0.0), ((2, 1, 0), 7.0),
                          ((3, -1, 2), 0.0)):
            index = SpectralIndex.make(*lkm)
            for g in points:
                short, deep = (eisenstein_coset_sum(SeriesParams(
                    index, complex(s_re, s_im)), g, bound)
                    for bound in (100, 1600))
                assert abs(short.value - deep.value) <= short.tail_bound

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(x=st.floats(-1.0, 1.0), y=st.floats(-1.0, 1.0),
           lam=st.floats(0.4, 2.5),
           rot=st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
               lambda v: sum(c * c for c in v) > 1e-2),
           lkm=st.sampled_from([(0, 0, 0), (1, 0, 0), (2, 1, 0), (2, -2, 2),
                                (3, -1, 2), (3, 2, -2)]),
           gen=st.integers(0, len(GAMMA_GENERATORS) - 1),
           s_re=st.floats(2.5, 3.5), s_im=st.floats(-10.0, 10.0))
    def test_gamma_invariance_at_random_points(self, x, y, lam, rot, lkm,
                                               gen, s_re, s_im):
        params = SeriesParams(SpectralIndex.make(*lkm), complex(s_re, s_im))
        g = (point_group(H3Point(x, y, lam)) * GroupElementSL2C.from_su2(
            SU2Element(complex(rot[0], rot[1]), complex(rot[2], rot[3]))))
        base = eisenstein_coset_sum(params, g, 200)
        moved = eisenstein_coset_sum(params, GAMMA_GENERATORS[gen] * g, 200)
        assert abs(moved.value - base.value) \
            <= moved.tail_bound + base.tail_bound


class TestRowSum:
    """The engine's row sum against the four-unit reference vector
    contracted with the rotation part of g; the reference opens up
    coprimality by a different Moebius inversion (over the divisors of c
    instead of the common divisor of the row) and takes all 2l+1 Wigner
    entries of each row at the row's own rotation."""
    POWER_S = 1.8 + 7j
    PSI = TestFunctionPsi(center=-0.5, width=1.0)
    Z, LAM = 0.31 + 0.17j, 0.8
    KINV = SU2Element(0.6 + 0.3j, -0.2 + 0.5j)

    def psi_row_sum(self, l, k, m, bound):
        """The psi-weighted row sum from power-weight row sums by Mellin
        inversion, psi(h) = (1/2 pi) int H(2 + i tau) h^{2 + i tau} dtau:
        a trapezoid over |tau| <= 12 (|H| < 1e-14 beyond), exact to about
        1e-14 relative at these sizes."""
        taus = np.arange(-12.0, 12.2, 0.4)
        return sum(self.PSI.mellin(2.0 + 1j * tau)
                   * _row_sum(l, k, m, self.KINV, self.Z, self.LAM, bound,
                              1.0 + 1j * tau)
                   for tau in taus) * 0.4 / (2.0 * pi)

    @pytest.mark.parametrize(
        "weight, l, m, bound",
        [pytest.param(weight, l, m, 300, id=f"{weight}-{l}-{m}")
         for weight in ("log-gaussian", "power")
         for l in range(4) for m in range(-l, l + 1)]
        + [pytest.param("power", 3, 2, 1000, id="power-3-2-bound1000")])
    def test_matches_four_unit_sum(self, weight, l, m, bound):
        # log-gaussian: the direct route of the incomplete series, which
        # has no height power to factor, against the engine by inversion,
        # at the one index k = -m; power: every k
        if weight == "power":
            ks = range(-l, l + 1)
            got = np.array([_row_sum(l, k, m, self.KINV, self.Z, self.LAM,
                                     bound, self.POWER_S) for k in ks])
            hweight = lambda h: h ** (1.0 + self.POWER_S)
        else:
            ks = [-m]
            got = np.array([self.psi_row_sum(l, -m, m, bound)])
            hweight = lambda h: np.asarray(self.PSI(h), dtype=complex)
        vec = row_sum_four_units(l, m, self.Z, self.LAM, bound, hweight)
        want = np.array([contract(l, k, self.KINV, vec) for k in ks])
        if m % 2:
            # the four unit rows of a class cancel: exactly in the engine,
            # to rounding in the reference
            assert np.all(got == 0.0)
            assert np.max(np.abs(vec)) <= 1e-12 * abs(hweight(self.LAM))
        else:
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(vec))

    @staticmethod
    def chunk_cuts(bound, chunk):
        """Position in its block (0: the block's d' = 0 row) of the first
        row of every chunk after the first, for the block layout of
        _row_sum: one block per canonical c', d' = 0 first."""
        re, im, norm = _lattice_arrays(bound)
        c_norm = norm[(re > 0) & (im >= 0)]
        count = np.searchsorted(np.append(0, norm), bound - c_norm,
                                side="right")
        ends = np.cumsum(count)
        cuts = np.arange(chunk, ends[-1], chunk)
        block = np.searchsorted(ends, cuts, side="right")
        return cuts - (ends - count)[block]

    @pytest.mark.parametrize("chunk", [1, 97, 10 ** 7])
    def test_chunk_boundaries(self, chunk, monkeypatch):
        # one row per chunk, blocks cut at odd places, one chunk for all;
        # bound 40 has 32 blocks of 1 to 121 rows (1,956 rows in all)
        bound = 40
        pos = self.chunk_cuts(bound, chunk)
        if chunk == 1:
            # cuts at a block start, right after a d' = 0 row, and deeper
            # inside a block
            assert {0, 1} <= set(pos) and pos.max() >= 2

        def row_sums():
            return np.array([_row_sum(2, k, 0, self.KINV, self.Z, self.LAM,
                                      bound, self.POWER_S)
                             for k in range(-2, 3)])
        want = row_sums()
        monkeypatch.setattr(eisenstein, "ROW_CHUNK", chunk)
        got = row_sums()
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(x=st.floats(0.0, 1.0), y=st.floats(0.0, 1.0),
           lam=st.floats(0.3, 3.0),
           lm=st.sampled_from([(l, m) for l in range(4)
                               for m in range(-l, l + 1) if m % 2 == 0]),
           s_re=st.floats(1.2, 3.0), s_im=st.floats(-20.0, 20.0))
    def test_matches_four_unit_sum_at_random_points(self, x, y, lam, lm,
                                                    s_re, s_im):
        # at the identity rotation the row sum at the index k is the
        # reference vector's entry k
        l, m = lm
        s = complex(s_re, s_im)
        got = np.array([_row_sum(l, k, m, SU2_IDENTITY, complex(x, y), lam,
                                 120, s) for k in range(-l, l + 1)])
        want = row_sum_four_units(l, m, complex(x, y), lam, 120,
                                  lambda h: h ** (1.0 + s))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(x=st.floats(0.0, 1.0), y=st.floats(0.0, 1.0),
           lam=st.floats(0.3, 3.0),
           rot=st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
               lambda v: sum(c * c for c in v) > 1e-2),
           lm=st.sampled_from([(l, m) for l in range(4)
                               for m in range(-l, l + 1)]),
           s_re=st.floats(1.2, 3.0), s_im=st.floats(-20.0, 20.0))
    def test_matches_contracted_four_unit_sum_at_random_points(
            self, x, y, lam, rot, lm, s_re, s_im):
        # every k at a random rotation: the one Wigner entry per row at the
        # product rotation against the contraction of all 2l+1 entries
        l, m = lm
        s = complex(s_re, s_im)
        kinv = SU2Element(complex(rot[0], rot[1]), complex(rot[2], rot[3]))
        got = np.array([_row_sum(l, k, m, kinv, complex(x, y), lam, 120, s)
                        for k in range(-l, l + 1)])
        vec = row_sum_four_units(l, m, complex(x, y), lam, 120,
                                 lambda h: h ** (1.0 + s))
        want = np.array([contract(l, k, kinv, vec)
                         for k in range(-l, l + 1)])
        if m % 2:
            # the unit classes cancel: exactly in the engine, to rounding
            # in the reference, against the identity coset's size
            assert np.all(got == 0.0)
            scale = abs(lam ** (1.0 + s))
        else:
            scale = np.max(np.abs(vec))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale

    def test_peak_memory_of_one_call(self):
        # the rows are walked in chunks, never held all at once; a larger
        # chunk would show up in the benchmark's peak RSS
        args = (3, 1, 2, self.KINV, self.Z, self.LAM, 1000, self.POWER_S)
        _row_sum(*args)  # fills the lattice and Moebius caches
        tracemalloc.start()
        try:
            _row_sum(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2 ** 20

    def test_row_sum_factors_nothing(self, monkeypatch):
        # the Moebius weights come from the norm sieve of the mu table, so
        # a row sum at a new bound factors no Gaussian integer
        calls = []
        factor = gaussian.factor_gauss
        for module in (gaussian, lseries):
            monkeypatch.setattr(module, "factor_gauss",
                                lambda c: calls.append(c) or factor(c))
        lseries._canonical_mu_table.cache_clear()
        got = _row_sum(2, 1, 2, self.KINV, self.Z, self.LAM, 301,
                       self.POWER_S)
        assert calls == []
        vec = row_sum_four_units(2, 2, self.Z, self.LAM, 301,
                                 lambda h: h ** (1.0 + self.POWER_S))
        want = contract(2, 1, self.KINV, vec)
        assert abs(got - want) <= 1e-12 * np.max(np.abs(vec))


class TestTwoRouteAgreement:
    POINT = H3Point(0.31, 0.17, 0.8)

    def test_four_indices_at_s2(self):
        g = point_group(self.POINT)
        for (l, k, m) in [(0, 0, 0), (1, 0, 0), (1, 1, 1), (2, 1, 0)]:
            params = SeriesParams(SpectralIndex.make(l, k, m), 2.0)
            cs = eisenstein_coset_sum(params, g)
            fo = eisenstein_fourier(params, self.POINT)
            if m % 2 == 1:
                assert abs(cs.value) < 1e-10 and abs(fo) < 1e-14
            else:
                dev = abs(cs.value - fo)
                assert dev <= max(1e-4 * abs(fo), 3 * cs.tail_bound)

    def test_other_exponents(self):
        g = point_group(self.POINT)
        for s in (1.5, 3.0):
            params = SeriesParams(SpectralIndex.make(0, 0, 0), s)
            cs = eisenstein_coset_sum(params, g)
            fo = eisenstein_fourier(params, self.POINT)
            assert abs(cs.value - fo) <= 3 * cs.tail_bound

    def test_oscillatory_order_rotated(self):
        # |Im s| > 12 sends every Bessel factor of the expansion through the
        # scaled-precision path; a rotated element mixes all five rows
        params = SeriesParams(SpectralIndex.make(2, 1, 0), 1.8 + 15j)
        g = (point_group(self.POINT)
             * GroupElementSL2C.from_su2(SU2Element(0.6 + 0.3j, -0.2 + 0.5j)))
        cs = eisenstein_coset_sum(params, g)
        fo = eisenstein_fourier_group(params, g)
        assert abs(cs.value - fo) <= max(1e-4 * abs(cs.value),
                                         3 * cs.tail_bound)

    def test_scalar_deep_truncation(self):
        # the slow pin: relative agreement 1e-4 at row-norm bound 10^4
        params = SeriesParams(SpectralIndex.make(0, 0, 0), 2.0)
        p = H3Point(0.0, 0.0, 1.0)
        cs = eisenstein_coset_sum(params, point_group(p), 10 ** 4)
        fo = eisenstein_fourier(params, p)
        assert abs(cs.value - fo) < 1e-4 * abs(fo)


class TestFourierExpansion:
    @pytest.mark.parametrize("lkm, s, n", [((0, 0, 0), -2.0, 0),
                                           ((2, -2, 2), -3.0, 4)])
    def test_vanishing_l_denominator_raises_pole_error(self, lkm, s, n):
        # at a trivial zero of L(1+s, 2m) both the degenerate constant term
        # and the frequency coefficients would divide by zero
        params = SeriesParams(SpectralIndex.make(*lkm), s)
        with pytest.raises(PoleError, match=rf"L\(1\+s, {n}\) vanishes"):
            _constant_terms(*lkm, complex(s))
        with pytest.raises(PoleError, match=rf"L\(1\+s, {n}\) vanishes"):
            fourier_expansion_terms(params, 4)

    def test_constant_terms_dominate_high_up(self):
        p = H3Point(0.1, -0.2, 20.0)
        params = SeriesParams(SpectralIndex.make(0, 0, 0), 2.0)
        const = sum(ct.coefficient * p.lam ** ct.exponent
                    for ct in _constant_terms(0, 0, 0, 2.0))
        full = eisenstein_fourier(params, p)
        assert abs(full - const) < 1e-10

    def test_gamma_invariance(self):
        p = H3Point(0.13, 0.21, 1.1)
        g = point_group(p)
        for (l, k, m) in [(0, 0, 0), (1, 0, 0), (2, 1, 0)]:
            params = SeriesParams(SpectralIndex.make(l, k, m), 2.0)
            base = eisenstein_fourier(params, p)
            for gamma in (GAMMA_GENERATORS[0], GAMMA_GENERATORS[2]):
                moved = eisenstein_fourier_group(params, gamma * g)
                assert abs(moved - base) < 1e-6 * max(1.0, abs(base))

    def test_critical_line_conjugate_symmetry(self):
        p = H3Point(0.2, 0.1, 1.3)
        for t in (0.7, 2.0):
            up = eisenstein_fourier(
                SeriesParams(SpectralIndex.make(0, 0, 0), 1j * t), p)
            down = eisenstein_fourier(
                SeriesParams(SpectralIndex.make(0, 0, 0), -1j * t), p)
            assert np.isfinite(abs(up))
            assert abs(down - up.conjugate()) < 1e-8 * max(1.0, abs(up))

    def test_odd_column_index_is_zero(self):
        p = H3Point(0.31, 0.17, 0.8)
        val = eisenstein_fourier(
            SeriesParams(SpectralIndex.make(1, 1, 1), 2.0), p)
        assert val == 0.0

    def test_terms_closed_under_negation(self):
        # the d-values are associate-invariant: equal at w, iw, -w, -iw,
        # and each is the divisor sum at the canonical associate
        s, m = 2.0 + 1.5j, 2
        params = SeriesParams(SpectralIndex.make(2, 0, m), s)
        re, im, d = fourier_expansion_terms(params, 25)
        assert len(d) > 0
        at = {(a, b): j for j, (a, b) in enumerate(zip(re.tolist(),
                                                       im.tolist()))}
        l_den = 4.0 * lseries.l_function_continued(1.0 + s, 2 * m)
        for (a, b), j in at.items():
            assert d[at[(-a, -b)]] == d[at[(-b, a)]] == d[j]
            cls = gaussian.canonical_associate(GaussInt(a, b))
            assert d[j] == 16.0 * lseries.sigma_twisted(cls, m // 2, -s) \
                / l_den

    def test_term_count_bounded_by_shells(self, monkeypatch):
        params = SeriesParams(SpectralIndex.make(1, 0, 0), 2.5)
        calls = []
        sigma = eisenstein.sigma_twisted

        def counted(w, p, nu):
            calls.append(w)
            return sigma(w, p, nu)
        monkeypatch.setattr(eisenstein, "sigma_twisted", counted)
        re, im, d = fourier_expansion_terms(params, 40)
        want_re, want_im, _ = _lattice_arrays(40)
        assert np.array_equal(re, want_re) and np.array_equal(im, want_im)
        assert len(d) == len(want_re)
        # one divisor sum per associate class, each at its canonical member
        assert len(calls) == len(d) // 4 == len(set(calls))
        assert all(w.re > 0 and w.im >= 0 for w in calls)

    def test_frequency_cut_scales_with_im_s(self, monkeypatch):
        # the leading terms are of size exp(-pi |Im s| / 2): moving the cut
        # 45 further out changes nothing at s = 1.8 + 15i
        p, s = H3Point(-0.31, 0.05, 0.95), 1.8 + 15j
        cut = eisenstein._frequency_cut
        params = [SeriesParams(SpectralIndex.make(*lkm), s)
                  for lkm in ((2, 1, 0), (3, -1, 2))]
        base = [eisenstein_fourier(par, p) for par in params]
        monkeypatch.setattr(eisenstein, "_frequency_cut",
                            lambda s: cut(s) + 45.0)
        for par, val in zip(params, base):
            wide = eisenstein_fourier(par, p)
            assert abs(val - wide) <= 1e-13 * abs(wide)

    @pytest.mark.parametrize("gen", range(len(GAMMA_GENERATORS)))
    @settings(derandomize=True, max_examples=3, deadline=None)
    @given(x=st.floats(-0.5, 0.0), y=st.floats(-0.5, 0.5),
           lam=st.floats(0.5, 1.2), t=st.floats(1.0, 60.0),
           lkm=st.integers(0, 3).flatmap(lambda l: st.tuples(
               st.just(l), st.integers(-l, l),
               st.integers(-(l // 2), l // 2).map(lambda h: 2 * h))))
    def test_gamma_invariance_on_the_critical_line(self, gen, x, y, lam, t,
                                                   lkm):
        # s = it, where the expansion is the only route; x <= 0 suffices
        # (the diagonal unit sends z to -z) and keeps the lower unit
        # translation's image at height >= 1/3
        params = SeriesParams(SpectralIndex.make(*lkm), 1j * t)
        g = point_group(H3Point(x, y, lam))
        try:
            base = eisenstein_fourier_group(params, g)
            moved = eisenstein_fourier_group(params,
                                             GAMMA_GENERATORS[gen] * g)
        except ArithmeticError as exc:
            # the refusal pinned by test_real_axis_bessel_refuses_below_12;
            # a refusal anywhere else fails
            assert t <= 12.0 and "did not stabilize" in str(exc)
            return
        assert abs(moved - base) <= 1e4 * eisenstein.BESSEL_TOL \
            * max(1.0, abs(base))

    @pytest.mark.xfail(raises=ArithmeticError, strict=True, reason=(
        "below |Im nu| = 12 the Bessel trapezoid runs on the real axis, "
        "where cancellation keeps it from BESSEL_TOL: the route refuses "
        "s = it for t in about [9.75, 12] at heights 0.5 to 1.2"))
    def test_real_axis_bessel_refuses_below_12(self):
        params = SeriesParams(SpectralIndex.make(0, 0, 0), 11.25j)
        g = GroupElementSL2C.dilation(1.2)
        base = eisenstein_fourier_group(params, g)
        moved = eisenstein_fourier_group(params, GAMMA_GENERATORS[2] * g)
        assert abs(moved - base) <= 1e4 * eisenstein.BESSEL_TOL * abs(base)

    @pytest.mark.parametrize("l", range(4))
    def test_axes_match_one_point_calls(self, l):
        # a z axis against a height axis gives the series on their outer
        # product; each entry is the one-point value at that point, for
        # every row a, so every index (l, a, m) is covered
        rng = np.random.default_rng(3140 + l)
        zs = rng.uniform(-0.9, 0.9, 3) + 1j * rng.uniform(-0.9, 0.9, 3)
        lams = rng.uniform(0.7, 1.6, 3)
        rows = list(range(-l, l + 1))
        for m in range(-l, l + 1):
            params = SeriesParams(SpectralIndex.make(l, 0, m), 1.7 + 3j)
            ev = fourier_evaluator(params, rows, lams.min())
            grid = ev(zs, lams)
            assert grid.shape == (2 * l + 1, 3, 3)
            assert ev(zs[:, None], lams[None, :]).shape == \
                (2 * l + 1, 3, 1, 1, 3)
            if m % 2 == 0:  # odd m: the series is 0 at every height
                with pytest.raises(ValueError, match="evaluator floor"):
                    ev(zs, np.append(lams, 0.99 * lams.min()))
            for i, z in enumerate(zs):
                for j, lam in enumerate(lams):
                    one = fourier_evaluator(params, rows, lam)(z, lam)
                    assert one.shape == (2 * l + 1,)
                    assert np.max(np.abs(grid[:, i, j] - one)) \
                        <= 1e-12 * np.max(np.abs(one))


class TestPsiAndMellin:
    def test_closed_form_example(self):
        psi = TestFunctionPsi()
        assert abs(psi.mellin(2.0) - sqrt(pi) * e) < 1e-14

    def test_closed_form_against_quadrature(self):
        psi = TestFunctionPsi(center=0.4, width=0.7)
        for s in (1.5, 2.0 + 1.3j, -0.5j):
            with mpmath.workdps(25):
                want = mpmath.quad(
                    lambda u: mpmath.e ** (-((u - 0.4) / 0.7) ** 2)
                    * mpmath.e ** (-mpmath.mpc(s) * u), [-8, 0.4, 8])
            assert abs(psi.mellin(s) - complex(want)) < 1e-10

    def test_bump_transform_against_quadrature(self):
        psi = TestFunctionPsi(kind="compact-bump", support=(1.0, 4.0))
        for s in (2.0, 1.0 + 2.0j):
            with mpmath.workdps(25):
                want = mpmath.quad(
                    lambda u: complex(psi(float(mpmath.e ** u)))
                    * mpmath.e ** (-mpmath.mpc(s) * u),
                    [0, mpmath.log(4)])
            assert abs(psi.mellin(s) - complex(want)) < 1e-8

    def test_inversion_round_trip(self):
        psi = TestFunctionPsi()
        taus = np.linspace(-15.0, 15.0, 6001)
        h = np.array([psi.mellin(1j * t) for t in taus])
        val = np.trapezoid(h * 2.0 ** (1j * taus), taus) / (2 * pi)
        assert abs(val - float(psi(2.0))) < 1e-8

    def test_bump_supported_inside_interval(self):
        psi = TestFunctionPsi(kind="compact-bump", support=(2.0, 5.0))
        lam = np.array([0.5, 1.9999, 2.0, 3.0, 5.0, 7.0])
        vals = psi(lam)
        assert vals[0] == vals[1] == vals[2] == 0.0
        assert vals[3] > 0.0
        assert vals[4] == vals[5] == 0.0

    def test_support_interval_log_gaussian(self):
        psi = TestFunctionPsi(center=1.0, width=0.5)
        lo, hi = psi.support_interval(1e-20)
        assert float(psi(lo)) < 1.5e-20 and float(psi(hi)) < 1.5e-20
        assert float(psi(1.1 * lo)) > 1e-20

    def test_validation(self):
        with pytest.raises(ValueError):
            TestFunctionPsi(kind="triangle")
        with pytest.raises(ValueError):
            TestFunctionPsi(width=0.0)
        with pytest.raises(ValueError):
            TestFunctionPsi(kind="compact-bump", support=(3.0, 2.0))


@dataclass(frozen=True)
class IncompleteSeriesResult:
    direct_value: complex
    contour_value: complex
    direct_tail: float
    contour_error: float


def incomplete_series(index: SpectralIndex, psi: TestFunctionPsi,
                      g: GroupElementSL2C,
                      sigma0: float = 3.0,
                      routes: str = "both") -> IncompleteSeriesResult:
    """The series smoothed over the height axis by psi, computed twice:
    directly (only rows whose height lands above the support floor of psi
    contribute, a finite set, summed by row_sum_four_units) and as the
    Mellin contour integral of H(sigma0 + i tau) against the expansion
    route at s = sigma0 - 1 + i tau.

    routes: "both" (default), "direct", or "contour"; a skipped route
    reports value None.
    """
    if routes not in ("both", "direct", "contour"):
        raise ValueError(f"unknown routes selector {routes!r}")
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
        vec = row_sum_four_units(l, b_idx, z, lam, bound,
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
                    params = SeriesParams(index, complex(sigma0 - 1.0, tau))
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


class TestIncompleteSeries:
    def test_two_routes_scalar(self):
        res = incomplete_series(SpectralIndex.make(0, 0, 0),
                                TestFunctionPsi(),
                                GroupElementSL2C.dilation(1.0))
        dev = abs(res.direct_value - res.contour_value)
        assert dev < 1e-3 * abs(res.direct_value)
        assert dev <= max(1e-6, 10 * (res.direct_tail + res.contour_error))

    def test_only_identity_class_contributes(self):
        # narrow weight centered at height 3: every nonzero-c row at this
        # point has height <= 1/3, below the support floor
        psi = TestFunctionPsi(center=log(3.0), width=0.1)
        g = GroupElementSL2C.dilation(3.0)
        for (l, a, b), want in [((0, 0, 0), 4.0), ((1, 1, 0), 0.0),
                                ((1, 1, 1), 0.0), ((1, 0, 0), 4.0)]:
            res = incomplete_series(SpectralIndex.make(l, a, b), psi, g,
                                    routes="direct")
            assert abs(res.direct_value - want) < 1e-12

    def test_bump_vanishes_below_support(self):
        psi = TestFunctionPsi(kind="compact-bump", support=(2.0, 5.0))
        res = incomplete_series(SpectralIndex.make(0, 0, 0), psi,
                                GroupElementSL2C.dilation(1.0),
                                routes="direct")
        assert res.direct_value == 0.0
        assert res.direct_tail == 0.0

    def test_rotation_equivariance(self):
        psi = TestFunctionPsi(center=log(2.0), width=0.3)
        g = point_group(H3Point(0.2, 0.1, 2.0))
        kk = random_su2(RNG)
        gk = g * GroupElementSL2C.from_su2(kk)
        l, b = 1, 0
        for a in (-1, 0, 1):
            lhs = incomplete_series(SpectralIndex.make(l, a, b), psi, gk,
                                    routes="direct").direct_value
            rhs = sum(
                complex(wigner_D_su2(l, a, r, kk.inv())).conjugate()
                * incomplete_series(SpectralIndex.make(l, r, b), psi, g,
                                    routes="direct").direct_value
                for r in range(-l, l + 1))
            assert abs(lhs - rhs) < 1e-10

    def test_oversized_row_bound_refused_at_once(self):
        # width 2.1 puts the support floor near 6.5e-7: about 1.5e6 rows
        assert MAX_NORM_BOUND < 1.5e6
        start = time.perf_counter()
        with pytest.raises(ArithmeticError, match="rows"):
            incomplete_series(SpectralIndex.make(0, 0, 0),
                              TestFunctionPsi(width=2.1),
                              GroupElementSL2C.dilation(1.0),
                              routes="direct")
        assert time.perf_counter() - start < 1.0

    def test_contour_tail_failure_reported(self):
        # the bump transform only decays polynomially-ish along the line;
        # the cutoff scan must refuse rather than truncate silently
        psi = TestFunctionPsi(kind="compact-bump", support=(1.0, 4.0))
        with pytest.raises(ArithmeticError):
            incomplete_series(SpectralIndex.make(0, 0, 0), psi,
                              GroupElementSL2C.dilation(1.0),
                              routes="contour")

    def test_routes_validation(self):
        with pytest.raises(ValueError):
            incomplete_series(SpectralIndex.make(0, 0, 0), TestFunctionPsi(),
                              GroupElementSL2C.identity(), routes="sideways")
