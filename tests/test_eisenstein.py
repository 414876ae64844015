import cmath
from math import e, exp, factorial, log, pi, sqrt

import mpmath
import numpy as np
import pytest

from picard_eisenstein.eisenstein import (
    GAMMA_GENERATORS, SeriesParams, SeriesValue, TestFunctionPsi,
    TruncationConfig, eisenstein_coset_sum, eisenstein_fourier,
    eisenstein_fourier_group, f_seed, fourier_expansion_terms,
    incomplete_series,
)
from picard_eisenstein.h3 import GroupElementSL2C, H3Point
from picard_eisenstein.su2 import (
    SpectralIndex, SU2Element, b_factor, random_su2, wigner_D_su2,
    wigner_monomial, xi_weight,
)

RNG = np.random.default_rng(571204)


def point_group(p: H3Point) -> GroupElementSL2C:
    return (GroupElementSL2C.translation(p.z)
            * GroupElementSL2C.dilation(p.lam))


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
        tr = TruncationConfig(coset_norm_bound=600)
        params = SeriesParams(SpectralIndex.make(0, 0, 0), 2.0, tr)
        g = point_group(H3Point(0.13, 0.21, 1.1))
        base = eisenstein_coset_sum(params, g)
        for gamma in GAMMA_GENERATORS:
            moved = eisenstein_coset_sum(params, gamma * g)
            assert abs(moved.value - base.value) \
                <= 2 * (moved.tail_bound + base.tail_bound)

    def test_rotation_equivariance(self):
        # value at g*K contracts the point values through D(K^{-1})
        tr = TruncationConfig(coset_norm_bound=400)
        l, m, s = 1, 0, 2.0
        g = point_group(H3Point(0.2, -0.1, 0.9))
        kk = random_su2(RNG)
        gk = g * GroupElementSL2C.from_su2(kk)
        for k in (-1, 0, 1):
            lhs = eisenstein_coset_sum(
                SeriesParams(SpectralIndex.make(l, k, m), s, tr), gk).value
            rhs = sum(
                complex(wigner_D_su2(l, k, a, kk.inv())).conjugate()
                * eisenstein_coset_sum(
                    SeriesParams(SpectralIndex.make(l, a, m), s, tr), g).value
                for a in range(-l, l + 1))
            assert abs(lhs - rhs) < 1e-10

    def test_odd_column_index_vanishes(self):
        tr = TruncationConfig(coset_norm_bound=200)
        g = point_group(H3Point(0.31, 0.17, 0.8))
        for (l, k, m) in [(1, 1, 1), (2, 0, 1), (2, 2, -1)]:
            res = eisenstein_coset_sum(
                SeriesParams(SpectralIndex.make(l, k, m), 2.0, tr), g)
            assert abs(res.value) < 1e-10


class TestTwoRouteAgreement:
    POINT = H3Point(0.31, 0.17, 0.8)

    def test_four_indices_at_s2(self):
        tr = TruncationConfig(coset_norm_bound=1000)
        g = point_group(self.POINT)
        for (l, k, m) in [(0, 0, 0), (1, 0, 0), (1, 1, 1), (2, 1, 0)]:
            params = SeriesParams(SpectralIndex.make(l, k, m), 2.0, tr)
            cs = eisenstein_coset_sum(params, g)
            fo = eisenstein_fourier(params, self.POINT)
            if m % 2 == 1:
                assert abs(cs.value) < 1e-10 and abs(fo) < 1e-14
            else:
                dev = abs(cs.value - fo)
                assert dev <= max(1e-4 * abs(fo), 3 * cs.tail_bound)

    def test_other_exponents(self):
        tr = TruncationConfig(coset_norm_bound=1000)
        g = point_group(self.POINT)
        for s in (1.5, 3.0):
            params = SeriesParams(SpectralIndex.make(0, 0, 0), s, tr)
            cs = eisenstein_coset_sum(params, g)
            fo = eisenstein_fourier(params, self.POINT)
            assert abs(cs.value - fo) <= 3 * cs.tail_bound

    def test_oscillatory_order_rotated(self):
        # |Im s| > 12 sends every Bessel factor of the expansion through the
        # scaled-precision path; a rotated element mixes all five rows
        tr = TruncationConfig(coset_norm_bound=1000)
        params = SeriesParams(SpectralIndex.make(2, 1, 0), 1.8 + 15j, tr)
        g = (point_group(self.POINT)
             * GroupElementSL2C.from_su2(SU2Element(0.6 + 0.3j, -0.2 + 0.5j)))
        cs = eisenstein_coset_sum(params, g)
        fo = eisenstein_fourier_group(params, g)
        assert abs(cs.value - fo) <= max(1e-4 * abs(cs.value),
                                         3 * cs.tail_bound)

    def test_scalar_deep_truncation(self):
        # the slow pin: relative agreement 1e-4 at row-norm bound 10^4
        tr = TruncationConfig(coset_norm_bound=10 ** 4)
        params = SeriesParams(SpectralIndex.make(0, 0, 0), 2.0, tr)
        p = H3Point(0.0, 0.0, 1.0)
        cs = eisenstein_coset_sum(params, point_group(p))
        fo = eisenstein_fourier(params, p)
        assert abs(cs.value - fo) < 1e-4 * abs(fo)


class TestFourierExpansion:
    def test_constant_terms_dominate_high_up(self):
        p = H3Point(0.1, -0.2, 20.0)
        params = SeriesParams(SpectralIndex.make(0, 0, 0), 2.0)
        terms = fourier_expansion_terms(params)
        const = sum(ct.coefficient * p.lam ** ct.exponent
                    for ct in terms.constant_terms)
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
        tr = TruncationConfig(lattice_norm_bound=25)
        params = SeriesParams(SpectralIndex.make(0, 0, 0), 2.0, tr)
        terms = fourier_expansion_terms(params)
        assert len(terms.nonconstant_terms) > 0
        for (a, b), data in terms.nonconstant_terms.items():
            mirror = terms.nonconstant_terms[(-a, -b)]
            assert abs(mirror.coefficient
                       - data.coefficient.conjugate()) < 1e-12
            # frequencies sit in the half-integer lattice
            assert data.frequency == complex(a, b) / 2.0

    def test_term_count_bounded_by_shells(self):
        tr = TruncationConfig(lattice_norm_bound=40)
        params = SeriesParams(SpectralIndex.make(1, 0, 0), 2.5, tr)
        terms = fourier_expansion_terms(params)
        from picard_eisenstein.lseries import _lattice_arrays
        assert len(terms.nonconstant_terms) == len(_lattice_arrays(40)[0])


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
