from math import cosh, exp, pi, sqrt

import mpmath
import numpy as np
import pytest

from picard_eisenstein import specfun
from picard_eisenstein.specfun import (
    ComplexOrder, PoleError, bessel_k_complex, bessel_k_complex_array,
    bessel_k_half, digamma, digamma_shift, digamma_shifted, gamma_complex,
    kk_mellin_integral,
)

RNG = np.random.default_rng(99173)


class TestGamma:
    def test_known_values(self):
        assert abs(gamma_complex(1.0) - 1.0) < 1e-15
        assert abs(gamma_complex(0.5) - sqrt(pi)) < 1e-14

    def test_reflection(self):
        z = 0.3 + 0.7j
        lhs = gamma_complex(z) * gamma_complex(1 - z)
        rhs = pi / np.sin(pi * z)
        assert abs(lhs - rhs) / abs(rhs) < 1e-12

    def test_stirling_envelope(self):
        # |Gamma(1+it)| ~ sqrt(2 pi) e^{-pi t/2} t^{1/2}
        t = 30.0
        ratio = abs(gamma_complex(1 + 1j * t)) / (
            sqrt(2 * pi) * exp(-pi * t / 2) * t ** 0.5)
        assert abs(ratio - 1) < 0.01

    def test_pole(self):
        with pytest.raises(PoleError):
            gamma_complex(-2.0)

    def test_against_mpmath(self):
        for _ in range(30):
            z = complex(RNG.uniform(-5, 8), RNG.uniform(-20, 20))
            if abs(z.imag) < 0.2 and z.real <= 0.5:
                continue
            ref = complex(mpmath.gamma(z))
            assert abs(gamma_complex(z) - ref) / abs(ref) < 1e-12


class TestDigamma:
    def test_trivial(self):
        assert abs(digamma_shift(1.0, 1) - 1.0) < 1e-15

    def test_rational_sum(self):
        val = digamma_shift(0.5, 3)
        assert abs(val - (1 / 0.5 + 1 / 1.5 + 1 / 2.5)) < 1e-14

    def test_recurrence_vs_mpmath(self):
        for _ in range(20):
            s = complex(RNG.uniform(0.1, 4), RNG.uniform(-6, 6))
            m = int(RNG.integers(1, 12))
            ref = complex(mpmath.digamma(m + s))
            assert abs(digamma_shifted(s, m) - ref) < 1e-12

    def test_log_growth(self):
        # Re digamma(1 - it) ~ ln t with O(1) envelope
        t = 100.0
        assert abs(digamma(1 - 1j * t).real - np.log(t)) < 1.0


class TestBesselK:
    def test_half_order_closed_form(self):
        x = 2.0
        assert abs(bessel_k_complex(0.5, x) - bessel_k_half(x)) < 1e-12

    def test_k0_reference(self):
        # ascending-series oracle value (30-digit arithmetic)
        ref = float(mpmath.besselk(0, 1))
        assert abs(bessel_k_complex(0.0, 1.0) - ref) < 1e-12

    def test_imaginary_order_real(self):
        val = bessel_k_complex(5j, 1.0)
        assert abs(val.imag) < 1e-12 * max(1.0, abs(val))

    def test_order_symmetry(self):
        for _ in range(10):
            nu = complex(RNG.uniform(-2, 2), RNG.uniform(-5, 5))
            x = RNG.uniform(0.3, 6)
            a = bessel_k_complex(nu, x)
            b = bessel_k_complex(-nu, x)
            assert abs(a - b) <= 1e-11 * max(1.0, abs(a))

    def test_derivative_identity(self):
        # d/dx K_0 = -K_1 by central differences
        for x in (0.5, 1.0, 2.0):
            h = 1e-5
            der = (bessel_k_complex(0, x + h) - bessel_k_complex(0, x - h)) / (2 * h)
            assert abs(der + bessel_k_complex(1.0, x)) < 1e-6

    def test_against_mpmath_complex_orders(self):
        for _ in range(15):
            nu = complex(RNG.uniform(-1.5, 1.5), RNG.uniform(-8, 8))
            x = RNG.uniform(0.2, 8)
            ref = complex(mpmath.besselk(nu, x))
            assert abs(bessel_k_complex(nu, x) - ref) / abs(ref) < 1e-9

    def test_large_imaginary_order(self):
        ref = complex(mpmath.besselk(mpmath.mpc(0, 40), 2))
        val = bessel_k_complex(40j, 2.0)
        assert abs(val - ref) / abs(ref) < 1e-9

    def test_invalid(self):
        with pytest.raises(ValueError):
            bessel_k_complex(1.0, -1.0)
        with pytest.raises(ValueError):
            bessel_k_complex(300j, 1.0)

    def test_complex_order_type(self):
        v1 = bessel_k_complex(ComplexOrder(0.5, 1.0), 2.0)
        v2 = bessel_k_complex(0.5 + 1j, 2.0)
        assert v1 == v2


def bessel_trap_mp(nu: complex, x: float,
                   target_rel: float = 1e-13) -> complex:
    """Trapezoid of int_0^inf exp(-x cosh u) cosh(nu u) du on the real axis
    in mpmath arithmetic, with a working precision that covers the
    exp(-pi |Im nu| / 2) cancellation plus the requested relative accuracy
    (the large-order path of bessel_k_complex before it moved to float64)."""
    t = abs(nu.imag)
    sr = abs(nu.real)
    cancel_digits = (pi * t / 2.0 + x) / 2.302585
    digits = int(25 + cancel_digits)
    with mpmath.workdps(digits):
        nu_m = mpmath.mpc(nu)
        x_m = mpmath.mpf(x)
        u_max = 1.0
        need = 2.302585 * (digits + 5)
        while x * (cosh(u_max) - 1.0) - sr * u_max < need:
            u_max += 0.5
        h = mpmath.mpf(min(0.1, 1.5 / (t + 1.0)))
        f = lambda u: mpmath.exp(-x_m * mpmath.cosh(u)) * mpmath.cosh(nu_m * u)
        n = int(u_max / h) + 1
        total = mpmath.mpf("0.5") * f(mpmath.mpf(0))
        total += mpmath.fsum(f(h * i) for i in range(1, n + 1))
        prev = h * total
        for _ in range(24):
            # refine: add midpoints only
            mid = mpmath.fsum(f(h * (i + mpmath.mpf("0.5")))
                              for i in range(0, 2 * n))
            h /= 2
            n *= 2
            total += mid
            cur = h * total
            if abs(cur - prev) <= mpmath.mpf(target_rel) * abs(cur):
                return complex(cur)
            prev = cur
    raise ArithmeticError("high-precision Bessel quadrature did not "
                          f"stabilize for nu={nu}, x={x}")


def besselk_mp(nu: complex, x: float) -> complex:
    with mpmath.workdps(40 + int(0.7 * abs(nu.imag))):
        return complex(mpmath.besselk(mpmath.mpc(nu.real, nu.imag), x))


def rotated_grid(n: int, seed: int):
    """Seeded orders with |Im nu| in [12, 200] of both signs and
    |Re nu| <= 7, each with a log-uniform argument in
    [1e-3, 48 + pi |Im nu| / 2]; a third of the orders are near the
    imaginary axis, where K oscillates in x below x = |Im nu|."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        t = rng.uniform(12.0, 20.0) if i % 2 else rng.uniform(12.0, 200.0)
        a = rng.uniform(-0.5, 0.5) if i % 3 == 0 else rng.uniform(-7.0, 7.0)
        x = exp(rng.uniform(np.log(1e-3), np.log(48.0 + pi * t / 2.0)))
        out.append((complex(a, t * rng.choice([-1.0, 1.0])), x))
    return out


class TestBesselKRotated:
    """The float64 trapezoid on the rotated path (|Im nu| > 12)."""

    def test_grid_against_besselk(self):
        worst = worst_low = 0.0
        for nu, x in rotated_grid(120, 20021):
            ref = besselk_mp(nu, x)
            err = abs(bessel_k_complex(nu, x) - ref) / abs(ref)
            worst = max(worst, err)
            if abs(nu.imag) <= 20.0 and x <= 80.0:
                worst_low = max(worst_low, err)
        assert worst <= 2e-11
        assert worst_low <= 1e-12

    def test_grid_against_trapezoid_oracle(self):
        for nu, x in rotated_grid(12, 55017):
            ref = bessel_trap_mp(nu, x)
            err = abs(bessel_k_complex(nu, x) - ref) / abs(ref)
            assert err <= (1e-12 if abs(nu.imag) <= 20.0 and x <= 80.0
                           else 2e-11)

    def test_array_matches_points(self):
        nu = complex(1.3, -15.2)
        xs = np.array([0.05, 2.0, 17.0, 60.0])
        arr = bessel_k_complex_array(nu, xs, 1e-12)
        for x, val in zip(xs, arr):
            ref = besselk_mp(nu, float(x))
            assert abs(val - ref) <= 1e-12 * abs(ref)

    def test_continuous_across_switch(self):
        # orders 12 - d and 12 + d take the two paths; K moves by O(d), and
        # the real-axis path keeps about ten digits at |Im nu| = 12, x >= 3
        d = 1e-12
        for a in (0.0, 1.5, -4.0, 7.0):
            for sign in (1.0, -1.0):
                for x in (3.0, 5.0, 20.0, 60.0):
                    below = bessel_k_complex(complex(a, sign * (12.0 - d)), x)
                    above = bessel_k_complex(complex(a, sign * (12.0 + d)), x)
                    assert abs(above - below) <= 1e-9 * abs(below)

    def test_work_arrays_sliced(self, monkeypatch):
        # tiny arguments need long paths: the (argument, node) work arrays
        # are cut to at most 2^20 entries however many arguments share them
        sizes = []
        real_exp = np.exp

        def recording_exp(arg, *a, **k):
            sizes.append(np.size(arg))
            return real_exp(arg, *a, **k)

        monkeypatch.setattr(specfun.np, "exp", recording_exp)
        xs = np.full(512, 1e-3)
        vals = bessel_k_complex_array(complex(7.0, 200.0), xs)
        monkeypatch.undo()
        assert max(sizes) <= 2 ** 20
        assert sum(sizes) > 2 ** 21
        ref = besselk_mp(complex(7.0, 200.0), 1e-3)
        assert np.all(np.abs(vals - ref) <= 2e-11 * abs(ref))


def quad_oracle(z, mu, nu):
    """Independent quadrature of the defining integral (mpmath)."""
    with mpmath.workdps(30):
        f = lambda x: x ** (-mpmath.mpc(z)) * mpmath.besselk(mu, x) * mpmath.besselk(nu, x)
        return complex(mpmath.quad(f, [0, 0.1, 1, 5, 15, 40]))


class TestKKMellin:
    def test_simple_value(self):
        # mu = nu = 0, z = -1: the gamma product collapses to 1/2
        assert abs(kk_mellin_integral(-1, 0, 0) - 0.5) < 1e-14

    def test_imaginary_orders(self):
        val = kk_mellin_integral(0.0, 2j, 2j)
        ref = quad_oracle(0.0, 2j, 2j)
        assert abs(val - ref) / abs(ref) < 1e-8

    def test_random_admissible(self):
        for _ in range(8):
            mu = complex(RNG.uniform(-0.4, 0.4), RNG.uniform(-2, 2))
            nu = complex(RNG.uniform(-0.4, 0.4), RNG.uniform(-2, 2))
            zmax = 1 - abs(mu.real) - abs(nu.real)
            z = complex(RNG.uniform(zmax - 1.5, zmax - 0.5), RNG.uniform(-1, 1))
            val = kk_mellin_integral(z, mu, nu)
            ref = quad_oracle(z, mu, nu)
            assert abs(val - ref) / abs(ref) < 1e-8

    def test_region_violation(self):
        with pytest.raises(ValueError):
            kk_mellin_integral(1.5, 0, 0)
