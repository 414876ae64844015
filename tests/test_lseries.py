from math import isqrt, log, pi

import mpmath
import numpy as np
import pytest

from picard_eisenstein.gaussian import (
    GaussInt, ONE, UNITS, divisors, gauss_gcd,
)
from picard_eisenstein.lseries import (
    HeckeCharacter, LSeriesParams, SyntheticCuspCoefficients, d_sum_closed,
    d_sum_direct, hecke_character, l_function, l_function_continued,
    l_function_values, lfc_identity_check, moebius_gauss,
    ramanujan_identity_check, sigma_twisted, zeta_K, zeta_K_continued,
    zeta_K_log_derivative,
)
from picard_eisenstein.specfun import PoleError

RNG = np.random.default_rng(771230)


def random_gauss(rng, lo=-9, hi=9):
    while True:
        w = GaussInt(int(rng.integers(lo, hi + 1)), int(rng.integers(lo, hi + 1)))
        if not w.is_zero():
            return w


class TestHeckeCharacter:
    def test_trivial(self):
        chi = HeckeCharacter(0)
        for _ in range(10):
            assert hecke_character(chi, random_gauss(RNG)) == 1.0

    def test_value_at_ramified_prime(self):
        # ((1+i)/sqrt 2)^4 = e^{i pi} = -1
        assert abs(hecke_character(HeckeCharacter(4), GaussInt(1, 1)) + 1) < 1e-14

    def test_associate_invariance_exact(self):
        chi = HeckeCharacter(8)
        for _ in range(50):
            w = random_gauss(RNG)
            vals = {hecke_character(chi, u * w) for u in UNITS}
            assert len(vals) == 1  # bit-identical

    def test_unit_modulus(self):
        chi = HeckeCharacter(-4)
        for _ in range(20):
            assert abs(abs(hecke_character(chi, random_gauss(RNG))) - 1) < 1e-14

    def test_invalid_exponent(self):
        with pytest.raises(ValueError):
            HeckeCharacter(2)

    def test_zero_argument(self):
        with pytest.raises(ValueError):
            hecke_character(HeckeCharacter(0), GaussInt(0, 0))


class TestLFunction:
    def test_zeta_at_2(self):
        res = l_function(LSeriesParams(2.0, HeckeCharacter(0), 10 ** 6))
        # reference value of the full series; the truncated sum must sit
        # within its own reported tail bound
        assert abs(res.value - 1.5067030) < 2 * res.tail_bound
        assert res.tail_bound < 1e-5

    def test_direct_vs_euler(self):
        for n in (0, 4):
            d = l_function(LSeriesParams(2.0, HeckeCharacter(n), 10 ** 6,
                                         "direct-sum")).value
            e = l_function(LSeriesParams(2.0, HeckeCharacter(n), 10 ** 6,
                                         "euler-product")).value
            if n == 0:
                # positive terms: both truncations lag the full value
                assert abs(d - e) < 2e-6
            else:
                assert abs(d - e) < 1e-8

    def test_direct_region_error(self):
        with pytest.raises(ValueError):
            l_function(LSeriesParams(0.9, HeckeCharacter(0), 10 ** 4))

    def test_continued_matches_direct(self):
        c = l_function_continued(2.0, 4)
        d = l_function(LSeriesParams(2.0, HeckeCharacter(4), 10 ** 6)).value
        assert abs(c - d) < 1e-9

    def test_continued_negative_exponent(self):
        a = l_function_continued(2.5 + 0.5j, -4)
        b = l_function(LSeriesParams(2.5 + 0.5j, HeckeCharacter(-4), 10 ** 6)).value
        assert abs(a - b) < 1e-9

    def test_zeta_continued(self):
        assert abs(zeta_K_continued(2.0) - zeta_K(2.0)) < 1e-5

    def test_residue_at_one(self):
        # (s-1) * zeta at s = 1.001 is close to pi/4
        val = 0.001 * zeta_K_continued(1.001)
        assert abs(val - pi / 4) < 1e-2

    def test_envelope_on_critical_line_shift(self):
        for t in (10.0, 50.0, 100.0, 200.0):
            v = abs(zeta_K_continued(1.0 + 1j * t))
            assert log(t) ** (-2) / 10 < v < 10 * log(t) ** 2


def zeta_K_mpmath(s, dps: int = 25):
    """Oracle: zeta(s) 4^{-s} (zeta(s, 1/4) - zeta(s, 3/4)) from mpmath's
    Hurwitz zeta at dps digits, returned as an mpmath number."""
    with mpmath.workdps(dps):
        sm = mpmath.mpc(s)
        beta = 4 ** (-sm) * (mpmath.zeta(sm, mpmath.mpf(1) / 4)
                             - mpmath.zeta(sm, mpmath.mpf(3) / 4))
        return mpmath.zeta(sm) * beta


def zeta_grid():
    rng = np.random.default_rng(20261018)
    taus = np.concatenate([rng.uniform(-400.0, 400.0, 14),
                           [-400.0, -3.7, 0.4, 25.0, 400.0]])
    return np.array([complex(sigma, tau)
                     for sigma in (-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0)
                     for tau in taus])


class TestZetaEngine:
    def test_matches_mpmath_oracle_on_grid(self):
        s = zeta_grid()
        want = np.array([complex(zeta_K_mpmath(v)) for v in s])
        batched = l_function_values(s, 0)
        scalar = np.array([zeta_K_continued(complex(v)) for v in s])
        for got in (batched, scalar):
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-10

    def test_near_the_pole(self):
        for s in (1.0 + 1e-3, 1.0 - 1e-3, 1.0 + 0.05j):
            want = complex(zeta_K_mpmath(s))
            assert abs(zeta_K_continued(s) - want) <= 1e-10 * abs(want)

    def test_pole_at_one(self):
        with pytest.raises(PoleError):
            zeta_K_continued(1.0 + 0.0j)
        with pytest.raises(PoleError):
            l_function_values([2.0, 1.0], 0)

    def test_no_mpmath_call(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("mpmath.zeta called")
        monkeypatch.setattr(mpmath, "zeta", refuse)
        zeta_K_continued.cache_clear()
        for s in (2.0, 0.5 + 123.25j, -1.5 + 40.0j, 1.0 - 200.0j):
            zeta_K_continued(complex(s))
            zeta_K_log_derivative(complex(s))

    def test_log_derivative_against_numerical_derivative(self):
        # mpmath.diff raises the working precision while it steps, so the
        # oracle runs at whatever precision is current
        f = lambda x: zeta_K_mpmath(x, mpmath.mp.dps)
        for s in (2.0, 1 + 20j, 1 - 20j, 1 + 80j, 1 - 80j, 1 + 200j,
                  1 - 200j):
            with mpmath.workdps(30):
                x = mpmath.mpc(s)
                want = complex(mpmath.diff(f, x) / f(x))
            got = zeta_K_log_derivative(s)
            assert abs(got - want) <= 1e-10 * abs(want)


class TestMoebius:
    def test_known_values(self):
        assert moebius_gauss(ONE) == 1
        assert moebius_gauss(GaussInt(1, 1)) == -1
        assert moebius_gauss(GaussInt(2, 0)) == 0      # ramified square
        assert moebius_gauss(GaussInt(3, 0)) == -1     # inert prime
        assert moebius_gauss(GaussInt(5, 0)) == 1      # split: two primes
        assert moebius_gauss(GaussInt(2, 1)) == -1

    def test_multiplicative_on_coprime(self):
        for _ in range(60):
            a, b = random_gauss(RNG), random_gauss(RNG)
            if not gauss_gcd(a, b).is_unit():
                continue
            assert moebius_gauss(a * b) == moebius_gauss(a) * moebius_gauss(b)


def sigma_by_divisors(w: GaussInt, p: int, nu: complex):
    """Reference: a quarter of the sum over every divisor, associates
    included. Returns the value and the sum of the term magnitudes."""
    chi = HeckeCharacter(4 * p)
    terms = [hecke_character(chi, d) * d.norm() ** complex(nu)
             for d in divisors(w)]
    return sum(terms) / 4.0, sum(abs(t) for t in terms) / 4.0


class TestSigmaTwisted:
    def test_product_form_matches_divisor_sum(self):
        rng = np.random.default_rng(40417)
        for _ in range(80):
            w = random_gauss(rng, -30, 30)
            p = int(rng.integers(0, 3))
            nu = complex(rng.uniform(-1.5, 1.5), rng.uniform(-3.0, 3.0))
            want, scale = sigma_by_divisors(w, p, nu)
            assert abs(sigma_twisted(w, p, nu) - want) <= 1e-13 * scale

    def test_unit_argument(self):
        assert abs(sigma_twisted(ONE, 0, 0.0) - 1.0) < 1e-15
        assert abs(sigma_twisted(ONE, 3, 1.5 + 1j) - 1.0) < 1e-15

    def test_twelve_divisors_of_two(self):
        assert abs(sigma_twisted(GaussInt(2, 0), 0, 0.0) - 3.0) < 1e-14

    def test_negation_symmetry(self):
        for _ in range(20):
            w = random_gauss(RNG)
            p = int(RNG.integers(-2, 3))
            nu = complex(RNG.uniform(-1, 1), RNG.uniform(-1, 1))
            assert abs(sigma_twisted(-w, p, nu) - sigma_twisted(w, p, nu)) < 1e-12

    def test_multiplicativity(self):
        checked = 0
        while checked < 50:
            a, b = random_gauss(RNG), random_gauss(RNG)
            if not gauss_gcd(a, b).is_unit():
                continue
            nu = complex(RNG.uniform(-0.5, 0.5), RNG.uniform(-0.5, 0.5))
            lhs = sigma_twisted(a * b, 1, nu)
            rhs = sigma_twisted(a, 1, nu) * sigma_twisted(b, 1, nu)
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))
            checked += 1

    def test_zero_error(self):
        with pytest.raises(ValueError):
            sigma_twisted(GaussInt(0, 0), 0, 0.0)


class TestDSum:
    def test_moebius_equals_bruteforce(self):
        for k, w in [(0, 0.5), (2, 0.5), (0, 0.5 + 0.5j), (2, 1.0), (0, 0.0)]:
            for s in (1.5, 2.0 + 0.5j):
                b = d_sum_direct(k, w, s, 60, method="bruteforce")
                m = d_sum_direct(k, w, s, 60, method="moebius")
                assert abs(b - m) < 1e-10 * max(1.0, abs(b))

    def test_odd_k_vanishes(self):
        b = d_sum_direct(1, 0.5, 1.5, 60, method="bruteforce")
        assert abs(b) < 1e-12
        assert d_sum_direct(1, 0.5, 1.5, 60) == 0

    def test_convergence_to_closed_form(self):
        w, k, s = 0.5 + 0.5j, 0, 2.0
        c = d_sum_closed(k, w, s)
        devs = [abs(d_sum_direct(k, w, s, b) - c) / abs(c)
                for b in (10 ** 2, 10 ** 3, 10 ** 4)]
        assert devs[-1] < 1e-6
        for a, b in zip(devs, devs[1:]):
            assert b <= a + 1e-12

    def test_closed_nontrivial_character(self):
        w, k, s = 1.0, 2, 1.5
        c = d_sum_closed(k, w, s)
        d = d_sum_direct(k, w, s, 10 ** 4)
        assert abs(d - c) / abs(c) < 1e-4

    def test_zero_frequency_branch(self):
        # continued-ratio value against an independently assembled oracle
        val = d_sum_closed(0, 0.0, 0.5)
        oracle = 4 * zeta_K_mpmath(0.5, 40) / zeta_K_mpmath(1.5, 40)
        assert abs(val - complex(oracle)) < 1e-10

    def test_region_errors(self):
        with pytest.raises(ValueError):
            d_sum_direct(0, 0.5, -0.5, 100)
        with pytest.raises(ValueError):
            d_sum_closed(0, 0.0, 1.5)   # zero branch needs Re(s) < 1
        with pytest.raises(ValueError):
            d_sum_closed(0, 0.5, -1.0)  # nonzero branch needs Re(s) > 0
        with pytest.raises(ValueError):
            d_sum_closed(1, 0.5, 1.5)   # stated for even k
        with pytest.raises(ValueError):
            d_sum_direct(0, 0.3, 1.5, 100)  # not a half-lattice point


class TestRamanujanIdentity:
    def test_untwisted(self):
        rep = ramanujan_identity_check(0, 0, 0, 0.0, 0.0, 3.0,
                                       truncation=2 * 10 ** 4)
        assert rep.rel_deviation < 1e-5

    def test_twisted(self):
        rep = ramanujan_identity_check(1, 0, 0, 0.5, -0.25, 4.0,
                                       truncation=2 * 10 ** 4)
        assert rep.rel_deviation < 1e-5

    def test_region_error(self):
        with pytest.raises(ValueError):
            ramanujan_identity_check(0, 0, 0, 2.5, 0.0, 3.0, truncation=100)


class TestSyntheticCoefficients:
    def test_prime_power_recursion(self):
        coeffs = SyntheticCuspCoefficients.seeded(100, 7)
        p = next(iter(coeffs.prime_values))
        cp = coeffs.prime_values[p]
        assert abs(coeffs.at_prime_power(p, 2) - (cp * cp - 1)) < 1e-14

    def test_multiplicative(self):
        coeffs = SyntheticCuspCoefficients.seeded(200, 7)
        a, b = GaussInt(1, 1), GaussInt(2, 1)
        assert abs(coeffs.coefficient(a * b)
                   - coeffs.coefficient(a) * coeffs.coefficient(b)) < 1e-14

    def test_bound_enforced(self):
        with pytest.raises(ValueError):
            SyntheticCuspCoefficients({GaussInt(1, 1): 2.5})


class TestConvolutionLemma:
    def test_trivial_coefficients(self):
        coeffs = SyntheticCuspCoefficients.trivial(2 * 10 ** 4)
        rep = lfc_identity_check(coeffs, -6.0, 0, 0.0, truncation=2 * 10 ** 4)
        assert rep.rel_deviation < 1e-5

    def test_seeded_coefficients(self):
        coeffs = SyntheticCuspCoefficients.seeded(2 * 10 ** 4, 20250823)
        rep = lfc_identity_check(coeffs, -8.0, 0, 0.5 + 0.25j,
                                 truncation=2 * 10 ** 4)
        assert rep.rel_deviation < 1e-5

    def test_twisted(self):
        coeffs = SyntheticCuspCoefficients.seeded(2 * 10 ** 4, 20250823)
        rep = lfc_identity_check(coeffs, -8.0, 4, 0.0, truncation=2 * 10 ** 4)
        assert rep.rel_deviation < 1e-4

    def test_region_error(self):
        coeffs = SyntheticCuspCoefficients.trivial(100)
        with pytest.raises(ValueError):
            lfc_identity_check(coeffs, -1.0, 0, 0.0, truncation=100)
        with pytest.raises(ValueError):
            lfc_identity_check(coeffs, -6.0, 2, 0.0, truncation=100)
