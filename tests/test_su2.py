from fractions import Fraction
from math import comb, cos, factorial, pi, sqrt

import mpmath
import numpy as np
import pytest

from picard_eisenstein.su2 import (
    SO3Matrix, SU2Element, SU2_IDENTITY, SpectralIndex, b_factor,
    euler_decompose, haar_grid, haar_integrate, phi_coeff, random_su2,
    rot_matrix, spin_cover, su2_from_euler, t_basis, t_modes,
    wigner_D_euler, wigner_D_su2, wigner_monomial,
    wigner_small_d, wigner_symmetries_check, _two,
)

RNG = np.random.default_rng(20240817)
HALF = Fraction(1, 2)


def indices(two_j_max):
    for tj in range(0, two_j_max + 1):
        for tk in range(-tj, tj + 1, 2):
            for tm in range(-tj, tj + 1, 2):
                yield Fraction(tj, 2), Fraction(tk, 2), Fraction(tm, 2)


class TestSpinCover:
    def test_identity_and_minus_identity(self):
        for a in (SU2Element(1, 0), SU2Element(-1, 0)):
            assert np.allclose(spin_cover(a).entries, np.eye(3), atol=1e-14)

    def test_homomorphism(self):
        for _ in range(200):
            a, b = random_su2(RNG), random_su2(RNG)
            lhs = spin_cover(a * b).entries
            rhs = spin_cover(a).entries @ spin_cover(b).entries
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_kernel_is_pm_identity(self):
        for _ in range(500):
            a = random_su2(RNG)
            r = spin_cover(a).entries
            if np.max(np.abs(r - np.eye(3))) < 1e-9:
                assert min(a.distance_to_identity(),
                           SU2Element(-a.alpha, -a.beta).distance_to_identity()) < 1e-9


class TestEuler:
    def test_identity(self):
        ang = euler_decompose(SO3Matrix(np.eye(3)))
        assert (ang.theta, ang.chi, ang.phi) == (0.0, 0.0, 0.0)

    def test_round_trip_fixed(self):
        ang = euler_decompose(rot_matrix(0.3, 0.7, -1.1))
        r = rot_matrix(ang.theta, ang.chi, ang.phi)
        assert np.max(np.abs(r.entries - rot_matrix(0.3, 0.7, -1.1).entries)) < 1e-12

    def test_round_trip_random(self):
        for _ in range(300):
            r = spin_cover(random_su2(RNG))
            ang = euler_decompose(r)
            assert np.max(np.abs(
                rot_matrix(ang.theta, ang.chi, ang.phi).entries - r.entries)) < 1e-11
            assert 0 <= ang.theta < 2 * pi and 0 <= ang.chi <= pi

    def test_gimbal_lock(self):
        ang = euler_decompose(rot_matrix(0.9, 0.0, 0.4))
        assert ang.theta == 0.0
        assert abs(ang.phi - 1.3) < 1e-12

    def test_su2_lift(self):
        for _ in range(50):
            th, ch, ph = RNG.uniform(0, 2 * pi), RNG.uniform(0, pi), RNG.uniform(-pi, pi)
            a = su2_from_euler(th, ch, ph)
            assert np.max(np.abs(spin_cover(a).entries
                                 - rot_matrix(th, ch, ph).entries)) < 1e-12


class TestSmallD:
    def test_half(self):
        assert abs(wigner_small_d(HALF, HALF, HALF, 0.8) - cos(0.4)) < 1e-13

    def test_one(self):
        assert abs(wigner_small_d(1, 0, 0, 1.2) - cos(1.2)) < 1e-13

    def test_identity_rotation(self):
        for j, k, m in indices(8):
            expect = 1.0 if k == m else 0.0
            assert abs(wigner_small_d(j, k, m, 0.0) - expect) < 1e-14

    def test_index_violation(self):
        with pytest.raises(ValueError):
            wigner_small_d(1, HALF, 0, 0.5)
        with pytest.raises(ValueError):
            wigner_small_d(1, 2, 0, 0.5)


class TestWignerD:
    def test_delta_at_identity(self):
        for j, k, m in indices(6):
            expect = 1.0 if k == m else 0.0
            assert abs(wigner_D_su2(j, k, m, SU2_IDENTITY) - expect) < 1e-14

    def test_euler_route_integer_j(self):
        for _ in range(40):
            a = random_su2(RNG)
            ang = euler_decompose(spin_cover(a))
            for j, k, m in indices(6):
                if Fraction(j).denominator != 1:
                    continue
                assert abs(wigner_D_su2(j, k, m, a)
                           - wigner_D_euler(j, k, m, ang)) < 1e-12

    def test_representation_property(self):
        for _ in range(25):
            a, b = random_su2(RNG), random_su2(RNG)
            for j, k, m in indices(6):
                tot = sum(
                    wigner_D_su2(j, k, Fraction(ta, 2), a)
                    * wigner_D_su2(j, Fraction(ta, 2), m, b)
                    for ta in range(-int(2 * j), int(2 * j) + 1, 2))
                assert abs(wigner_D_su2(j, k, m, a * b) - tot) < 1e-12

    def test_unitarity(self):
        for _ in range(25):
            a = random_su2(RNG)
            for tj in range(0, 9):
                j = Fraction(tj, 2)
                d = np.array([[wigner_D_su2(j, Fraction(tk, 2), Fraction(tm, 2), a)
                               for tm in range(-tj, tj + 1, 2)]
                              for tk in range(-tj, tj + 1, 2)])
                assert np.max(np.abs(d @ d.conj().T - np.eye(tj + 1))) < 1e-12


def wigner_column(tj, tm, alpha, beta):
    """Every D^j_{am}, a = -j..j, on K[alpha, beta], an oracle independent
    of the Horner sum of wigner_monomial: an array of shape
    (2j+1,) + shape(alpha) whose row a + j is the coefficient of
    x^{j+a} y^{j-a} in (p x + q y)^{j+m} (u x + v y)^{j-m}
    (p, q, u, v = conj(alpha), -beta, conj(beta), alpha), normalized, by
    convolving the two binomial expansions."""
    alpha = np.asarray(alpha, dtype=complex)
    beta = np.asarray(beta, dtype=complex)
    jm, jmm = (tj + tm) // 2, (tj - tm) // 2
    first = binomial_terms(alpha.conjugate(), -beta, jm)
    second = binomial_terms(beta.conjugate(), alpha, jmm)
    out = np.zeros((tj + 1,) + alpha.shape, dtype=complex)
    for t in range(len(second)):
        out[t:t + len(first)] += second[t] * first
    norm = [sqrt(factorial(jk) * factorial(tj - jk)
                 / (factorial(jm) * factorial(jmm))) for jk in range(tj + 1)]
    return out * np.reshape(norm, (tj + 1,) + (1,) * alpha.ndim)


def binomial_terms(x, y, n):
    """C(n, t) x^t y^{n-t} for t = 0..n, stacked along a new first axis."""
    return np.stack([comb(n, t) * x ** t * y ** (n - t)
                     for t in range(n + 1)])


def wigner_mpmath(tj, tk, tm, powers):
    """D^j_{km} as the term sum of wigner_monomial in mpmath arithmetic,
    from the lists of powers of p, q, u, v (see wigner_column)."""
    p, q, u, v = powers
    jm, jmm = (tj + tm) // 2, (tj - tm) // 2
    jk, jkm = (tj + tk) // 2, (tj - tk) // 2
    acc = mpmath.mpc(0)
    for t in range(max(0, jk - jmm), min(jm, jk) + 1):
        acc += (comb(jm, t) * comb(jmm, jk - t) * p[t] * q[jm - t]
                * u[jk - t] * v[jmm - jk + t])
    return acc * mpmath.sqrt(mpmath.mpf(factorial(jk) * factorial(jkm))
                             / (factorial(jm) * factorial(jmm)))


class TestWignerColumn:
    def test_matches_monomial_entries(self):
        # 50 seeded unit pairs, each entry against the one-entry evaluation
        rng = np.random.default_rng(880131)
        for _ in range(50):
            a = random_su2(rng)
            for tj in range(0, 8):
                for tm in range(-tj, tj + 1, 2):
                    col = wigner_column(tj, tm, a.alpha, a.beta)
                    assert col.shape == (tj + 1,)
                    for i, ta in enumerate(range(-tj, tj + 1, 2)):
                        want = wigner_monomial(tj, ta, tm, a.alpha, a.beta)
                        assert abs(col[i] - want) < 1e-13


class TestWignerMonomial:
    def test_array_shape_at_j0(self):
        alpha = np.full((3, 2), 0.6 + 0.0j)
        got = wigner_monomial(0, 0, 0, alpha, np.full((3, 2), 0.8j))
        assert got.shape == (3, 2) and np.all(got == 1.0)
        assert wigner_monomial(0, 0, 0, 0.6 + 0.0j, 0.8j) == 1.0

    @pytest.mark.parametrize("tj, tol", [(20, 1e-13), (40, 2e-11),
                                         (64, 5e-8)])
    def test_matches_mpmath(self, tj, tol):
        # 12 seeded unit pairs against the exact term sum at 60 digits, on
        # the float inputs themselves. At 2j = 20 every entry; above, the
        # rounding grows with the cancellation in the sum, largest at small
        # |k|, |m|, so |2k|, |2m| <= 12 and the four corners
        rng = np.random.default_rng(310577)
        pairs = [random_su2(rng) for _ in range(12)]
        alpha = np.array([a.alpha for a in pairs])
        beta = np.array([a.beta for a in pairs])
        two = [t for t in range(-tj, tj + 1, 2) if tj == 20 or abs(t) <= 12]
        cases = [(tk, tm) for tk in two for tm in two]
        if tj > 20:
            cases += [(tk, tm) for tk in (-tj, tj) for tm in (-tj, tj)]
        with mpmath.workdps(60):
            powers = []
            for a in pairs:
                al, be = mpmath.mpc(a.alpha), mpmath.mpc(a.beta)
                powers.append([[x ** n for n in range(tj + 1)]
                               for x in (mpmath.conj(al), -be,
                                         mpmath.conj(be), al)])
            worst = max(
                float(abs(wigner_mpmath(tj, tk, tm, pw) - got))
                for tk, tm in cases
                for pw, got in zip(powers,
                                   wigner_monomial(tj, tk, tm, alpha, beta)))
        assert worst <= tol


class TestPhiCoeff:
    def test_delta_at_identity(self):
        for j, k, m in indices(6):
            expect = 1.0 if k == m else 0.0
            assert abs(phi_coeff(j, k, m, SU2_IDENTITY) - expect) < 1e-14

    def test_half_alpha(self):
        for _ in range(20):
            a = random_su2(RNG)
            assert abs(phi_coeff(HALF, -HALF, -HALF, a) - a.alpha) < 1e-14

    def test_change_of_basis(self):
        diag = SU2Element(1j, 0)
        for _ in range(20):
            a = random_su2(RNG)
            conj = diag * a * diag.inv()
            for j, k, m in indices(6):
                lhs = phi_coeff(j, k, m, a)
                rhs = b_factor(j, k, m) * wigner_D_su2(j, k, m, conj)
                assert abs(lhs - rhs) < 1e-12


class TestSymmetries:
    def test_identity_element(self):
        for j, k, m in indices(4):
            assert wigner_symmetries_check(j, k, m, SU2_IDENTITY) < 1e-13

    def test_random(self):
        for _ in range(20):
            a = random_su2(RNG)
            for j, k, m in indices(6):
                assert wigner_symmetries_check(j, k, m, a) < 1e-12

    def test_diagonal_exact_phase(self):
        a = SU2Element(np.exp(0.77j), 0)
        for j, k, m in indices(6):
            assert wigner_symmetries_check(j, k, m, a) < 1e-14


class TestTBasis:
    def test_value_at_identity(self):
        for l in range(0, 4):
            for k, m in t_modes(l):
                val = t_basis(l, k, m, SU2_IDENTITY)
                expect = sqrt((l + 1) / (2 * pi ** 2)) if k == m else 0.0
                assert abs(val - expect) < 1e-13

    def test_rotation_rule(self):
        for _ in range(5):
            a, kel = random_su2(RNG), random_su2(RNG)
            for l in range(0, 4):
                for k, m in t_modes(l):
                    # R_{A^{-1}} T^l_{km} evaluated at K is T^l_{km}(A K)
                    lhs = t_basis(l, k, m, a * kel)
                    rhs = sum(
                        wigner_D_su2(Fraction(l, 2), m, Fraction(ta, 2), a)
                        * t_basis(l, k, Fraction(ta, 2), kel)
                        for ta in range(-l, l + 1, 2))
                    assert abs(lhs - rhs) < 1e-12


class TestOrthogonality:
    def test_phi_orthogonality(self):
        from math import factorial
        elements, weights = haar_grid(12, 20, 24)
        idx = list(indices(4))
        vals = np.array([[phi_coeff(j, k, m, a) for a in elements]
                         for j, k, m in idx])
        gram = (vals * weights) @ vals.conj().T
        for r, (j, k, m) in enumerate(idx):
            for c, (j2, k2, m2) in enumerate(idx):
                if (j, k, m) == (j2, k2, m2):
                    expect = (factorial(int(j + m)) * factorial(int(j - m))
                              / (factorial(int(j + k)) * factorial(int(j - k)))
                              / (2 * float(j) + 1))
                else:
                    expect = 0.0
                assert abs(gram[r, c] - expect) < 1e-6

    def test_t_basis_orthogonality(self):
        elements, weights = haar_grid(12, 20, 24)
        pairs = [(l, k, m) for l in range(3) for k, m in t_modes(l)]
        vals = np.array([[t_basis(l, k, m, a) for a in elements]
                         for l, k, m in pairs])
        gram = (vals * weights) @ vals.conj().T
        expect = np.eye(len(pairs)) / (2 * pi ** 2)
        assert np.max(np.abs(gram - expect)) < 1e-6


class TestSpectralIndex:
    def test_valid(self):
        SpectralIndex.make(2, 1, -1)
        SpectralIndex.make(HALF, HALF, -HALF)

    def test_invalid(self):
        with pytest.raises(ValueError):
            SpectralIndex.make(1, HALF, 0)
        with pytest.raises(ValueError):
            SpectralIndex.make(1, 2, 0)

    @pytest.mark.parametrize("x, two", [
        (0, 0), (3, 6), (-2, -4), (1.5, 3), (-0.5, -1), (HALF, 1),
        (Fraction(-7, 2), -7), (np.int64(4), 8), (np.float64(2.5), 5),
        (np.float32(-1.5), -3)])
    def test_doubled_encoding(self, x, two):
        got = _two(x)
        assert got == two and type(got) is int

    @pytest.mark.parametrize("x, error, match", [
        (0.25, ValueError, "0.25 is not a half-integer"),
        (Fraction(1, 3), ValueError, "1/3 is not a half-integer"),
        (np.float64(0.75), ValueError, "0.75 is not a half-integer"),
        (float("nan"), ValueError, "cannot convert NaN"),
        (float("inf"), OverflowError, "cannot convert Infinity"),
        (float("-inf"), OverflowError, "cannot convert Infinity")])
    def test_doubled_encoding_refuses(self, x, error, match):
        with pytest.raises(error, match=match):
            _two(x)
