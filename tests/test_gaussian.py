import math
import random

import pytest
import sympy
from hypothesis import given, strategies as st

from picard_eisenstein.gaussian import (
    CosetRep, GaussInt, ONE, UNITS, ZERO, _factor_int, _rational_primes,
    _sqrt_minus_one, canonical_associate, complete_to_sl2, divisors,
    enumerate_coset_reps, enumerate_shells, factor_gauss, gauss_divmod,
    gauss_gcd, gauss_xgcd, gaussian_primes, is_coprime, residues_mod,
    shell_key,
)

gints = st.builds(GaussInt, st.integers(-50, 50), st.integers(-50, 50))
nonzero = gints.filter(lambda w: not w.is_zero())


def brute_divisors(w):
    """Oracle: grid scan of all d with norm(d) <= norm(w) testing divisibility."""
    n = w.norm()
    out = []
    r = math.isqrt(n)
    for a in range(-r, r + 1):
        for b in range(-r, r + 1):
            d = GaussInt(a, b)
            if d.is_zero() or d.norm() > n:
                continue
            _, rem = gauss_divmod(w, d)
            if rem.is_zero():
                out.append(d)
    out.sort(key=shell_key)
    return out


class TestShells:
    def test_norm_one_is_units(self):
        assert set(enumerate_shells(1)) == set(UNITS)

    def test_norm_two_count(self):
        # oracle: brute-force grid scan
        assert len(enumerate_shells(2)) == 8

    def test_empty(self):
        assert enumerate_shells(0) == []

    def test_sorted_and_deterministic(self):
        a = enumerate_shells(40)
        assert a == enumerate_shells(40)
        keys = [shell_key(w) for w in a]
        assert keys == sorted(keys)
        assert len(set(a)) == len(a)


class TestDivmodGcd:
    @given(gints, nonzero)
    def test_divmod(self, a, b):
        q, r = gauss_divmod(a, b)
        assert q * b + r == a
        assert 2 * r.norm() <= b.norm()

    @given(gints, gints)
    def test_xgcd(self, a, b):
        if a.is_zero() and b.is_zero():
            return
        g, x, y = gauss_xgcd(a, b)
        assert x * a + y * b == g
        _, r1 = gauss_divmod(a, g)
        _, r2 = gauss_divmod(b, g)
        assert r1.is_zero() and r2.is_zero()


class TestDivisors:
    def test_unit(self):
        assert set(divisors(ONE)) == set(UNITS)

    def test_two(self):
        assert len(divisors(GaussInt(2, 0))) == 12

    def test_one_plus_i(self):
        assert len(divisors(GaussInt(1, 1))) == 8

    def test_zero_errors(self):
        with pytest.raises(ValueError):
            divisors(ZERO)

    # the oracle runs while the example is drawn, outside the timed body,
    # so the deadline times divisors alone
    @given(nonzero.map(lambda w: (w, brute_divisors(w))))
    def test_against_grid_oracle(self, case):
        w, want = case
        assert divisors(w) == want

    @given(nonzero)
    def test_count_mod_4(self, w):
        assert len(divisors(w)) % 4 == 0

    @given(nonzero)
    def test_factorization_roundtrip(self, w):
        u, f = factor_gauss(w)
        prod = u
        for p, e in f.items():
            for _ in range(e):
                prod = prod * p
        assert prod == w


class TestPrimes:
    def test_small(self):
        ps = gaussian_primes(10)
        assert GaussInt(1, 1) in ps
        assert GaussInt(3, 0) in ps
        assert GaussInt(2, 1) in ps and GaussInt(1, 2) in ps

    def test_norms_are_prime_powers(self):
        for p in gaussian_primes(200):
            n = p.norm()
            r = math.isqrt(n)
            assert (r * r == n and r > 1) or all(n % k for k in range(2, n))


class TestRationalPrimitives:
    """The rational factoring behind factor_gauss against sympy (a test-only
    oracle). The factor order matters as well: it fixes the order of the
    divisors, and with it the summation order of the coset row sum."""

    def test_factor_int(self):
        rng = random.Random(40127)
        ns = list(range(1, 20001)) + [rng.randint(1, 10 ** 6)
                                      for _ in range(2000)]
        for n in ns:
            assert list(_factor_int(n).items()) == \
                list(sympy.factorint(n).items())

    def test_rational_primes(self):
        for n in (0, 1, 2, 3, 4, 100, 10007):
            assert _rational_primes(n) == list(sympy.primerange(2, n + 1))

    def test_sqrt_minus_one(self):
        for p in sympy.primerange(5, 20000):
            if p % 4 == 1:
                assert _sqrt_minus_one(p) == sympy.sqrt_mod(-1, p)


class TestCosets:
    def test_row_norm_one(self):
        # exhaustive scan: the (0, unit) identity class and the (unit, 0)
        # inversion class both have row norm 1
        reps = enumerate_coset_reps(1)
        assert len(reps) == 2
        assert any(r.c == ZERO and r.d.is_unit() for r in reps)
        assert any(r.c.is_unit() and r.d == ZERO for r in reps)

    def test_row_norm_two(self):
        reps = enumerate_coset_reps(2)
        # classes: (0,1), (1,0), and (1,u) for each unit u
        assert len(reps) == 6
        units_d = [r.d for r in reps if r.c.is_unit() and r.d.is_unit()]
        assert len(units_d) == 4

    def test_all_coprime_and_no_associates(self):
        reps = enumerate_coset_reps(25)
        assert all(is_coprime(r.c, r.d) for r in reps)
        seen = set()
        for r in reps:
            for u in UNITS:
                assert (u * r.c, u * r.d) not in seen or u == ONE
            seen.add((r.c, r.d))

    def test_oracle_count(self):
        # oracle: exhaustive coprime-pair scan, grouped by associate class
        bound = 10
        classes = set()
        pool = [ZERO] + enumerate_shells(bound)
        for c in pool:
            for d in [ZERO] + enumerate_shells(bound):
                if c.norm() + d.norm() > bound or (c.is_zero() and d.is_zero()):
                    continue
                if not is_coprime(c, d):
                    continue
                classes.add(min(
                    ((u * c).re, (u * c).im, (u * d).re, (u * d).im)
                    for u in UNITS))
        assert len(enumerate_coset_reps(bound)) == len(classes)

    def test_noncoprime_rejected(self):
        with pytest.raises(ValueError):
            CosetRep(GaussInt(1, 1), GaussInt(1, 1))


class TestCompleteToSL2:
    def test_identity_row(self):
        a, b, c, d = complete_to_sl2(CosetRep(ZERO, ONE))
        assert (a, b, c, d) == (ONE, ZERO, ZERO, ONE)

    def test_inversion_row(self):
        a, b, c, d = complete_to_sl2(CosetRep(ONE, ZERO))
        assert (a, b) == (ZERO, GaussInt(-1, 0))

    def test_bezout_row(self):
        a, b, c, d = complete_to_sl2(CosetRep(GaussInt(1, 1), ONE))
        assert a * d - b * c == ONE

    @given(gints, gints)
    def test_det_one(self, c, d):
        if (c.is_zero() and d.is_zero()) or not is_coprime(c, d):
            return
        a, b, cc, dd = complete_to_sl2(CosetRep(c, d))
        assert a * dd - b * cc == ONE
        assert (cc, dd) == (c, d)


class TestResidues:
    @given(st.builds(GaussInt, st.integers(-5, 5), st.integers(-5, 5))
           .filter(lambda w: not w.is_zero()))
    def test_full_system(self, c):
        res = residues_mod(c)
        assert len(res) == c.norm()
        reduced = set()
        for d in res:
            q, r = gauss_divmod(d, c)
            # distinct residues: check pairwise differences not divisible
            reduced.add((r.re, r.im))
        # all residues distinct mod c
        seen = set()
        for d in res:
            t = d * c.conj()
            seen.add((t.re % c.norm(), t.im % c.norm()))
        assert len(seen) == c.norm()


class TestCanonicalAssociate:
    @given(nonzero)
    def test_quadrant(self, w):
        v = canonical_associate(w)
        assert v.re > 0 and v.im >= 0
        assert any(u * w == v for u in UNITS)
