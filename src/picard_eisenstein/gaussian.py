"""Exact arithmetic over the Gaussian integers Z[i].

Everything here is integer-exact (Python ints never overflow): norms, units,
Euclidean division, gcd/Bezout, divisor enumeration through factorization of
the norm, shell-ordered lattice enumeration, and enumeration of coprime
bottom rows (c, d) indexing unipotent cosets in SL(2, Z[i]).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from math import isqrt


@dataclass(frozen=True, order=True)
class GaussInt:
    re: int = 0
    im: int = 0

    def __post_init__(self):
        if not isinstance(self.re, int) or not isinstance(self.im, int):
            raise TypeError("GaussInt components must be ints")

    # -- basic ring structure ------------------------------------------------

    def __add__(self, other: "GaussInt") -> "GaussInt":
        return GaussInt(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussInt") -> "GaussInt":
        return GaussInt(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GaussInt") -> "GaussInt":
        return GaussInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self) -> "GaussInt":
        return GaussInt(-self.re, -self.im)

    def conj(self) -> "GaussInt":
        return GaussInt(self.re, -self.im)

    def norm(self) -> int:
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_unit(self) -> bool:
        return self.norm() == 1

    def __complex__(self) -> complex:
        return complex(self.re, self.im)

    def __str__(self) -> str:
        return f"{self.re}{self.im:+d}i"


ZERO = GaussInt(0, 0)
ONE = GaussInt(1, 0)
I = GaussInt(0, 1)
#: the unit group of Z[i], in the fixed order 1, i, -1, -i
UNITS = (ONE, I, GaussInt(-1, 0), GaussInt(0, -1))


def shell_key(w: GaussInt) -> tuple[int, int, int]:
    """Total order used everywhere enumeration order matters."""
    return (w.norm(), w.re, w.im)


def gauss_divmod(a: GaussInt, b: GaussInt) -> tuple[GaussInt, GaussInt]:
    """Euclidean division: a = q*b + r with norm(r) <= norm(b)/2."""
    if b.is_zero():
        raise ZeroDivisionError("division by zero Gaussian integer")
    n = b.norm()
    t = a * b.conj()
    # round-half-away-from-zero on each component keeps |r|^2 <= n/2
    def rnd(x: int) -> int:
        if x >= 0:
            return (2 * x + n) // (2 * n)
        return -((-2 * x + n) // (2 * n))
    q = GaussInt(rnd(t.re), rnd(t.im))
    return q, a - q * b


def gauss_gcd(a: GaussInt, b: GaussInt) -> GaussInt:
    while not b.is_zero():
        _, r = gauss_divmod(a, b)
        a, b = b, r
    return a


def gauss_xgcd(a: GaussInt, b: GaussInt) -> tuple[GaussInt, GaussInt, GaussInt]:
    """Return (g, x, y) with x*a + y*b = g = gcd(a, b)."""
    x0, x1 = ONE, ZERO
    y0, y1 = ZERO, ONE
    while not b.is_zero():
        q, r = gauss_divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def is_coprime(a: GaussInt, b: GaussInt) -> bool:
    return gauss_gcd(a, b).is_unit()


def unit_inverse(u: GaussInt) -> GaussInt:
    if not u.is_unit():
        raise ValueError(f"{u} is not a unit")
    return u.conj()


def canonical_associate(w: GaussInt) -> GaussInt:
    """The unique associate with re > 0, im >= 0 (w must be nonzero)."""
    if w.is_zero():
        raise ValueError("zero has no canonical associate")
    for u in UNITS:
        v = u * w
        if v.re > 0 and v.im >= 0:
            return v
    raise AssertionError("unreachable")


def enumerate_shells(max_norm: int) -> list[GaussInt]:
    """All nonzero w with norm(w) <= max_norm, sorted by (norm, re, im)."""
    if max_norm < 0:
        raise ValueError("max_norm must be >= 0")
    out = []
    r = isqrt(max_norm)
    for a in range(-r, r + 1):
        rem = max_norm - a * a
        if rem < 0:
            continue
        s = isqrt(rem)
        for b in range(-s, s + 1):
            if a == 0 and b == 0:
                continue
            out.append(GaussInt(a, b))
    out.sort(key=shell_key)
    return out


# -- factorization and divisors ---------------------------------------------

def _rational_primes(n: int) -> list[int]:
    """The rational primes <= n (sieve of Eratosthenes)."""
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = bytes(min(2, n + 1))
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return list(compress(range(n + 1), sieve))


def _factor_int(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of a positive int by trial division, in
    increasing p (the norms factored here stay far below 10^12)."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _sqrt_minus_one(p: int) -> int:
    """The square root of -1 mod a prime p = 1 mod 4 in [1, p/2]: the
    quarter power of the least quadratic non-residue."""
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    r = pow(z, (p - 1) // 4, p)
    return min(r, p - r)


@lru_cache(maxsize=None)
def gaussian_primes(max_norm: int) -> tuple[GaussInt, ...]:
    """Canonical Gaussian primes with norm <= max_norm, shell-ordered.

    One canonical generator (re > 0, im >= 0) per prime ideal; split rational
    primes contribute the two non-associate conjugate factors.
    """
    out: list[GaussInt] = []
    for p in _rational_primes(max_norm):
        if p == 2:
            out.append(GaussInt(1, 1))
        elif p % 4 == 1:
            a, b = _split_prime(p)
            out.append(canonical_associate(GaussInt(a, b)))
            out.append(canonical_associate(GaussInt(a, -b)))
        else:
            if p * p <= max_norm:
                out.append(GaussInt(p, 0))
    out.sort(key=shell_key)
    return tuple(out)


def _split_prime(p: int) -> tuple[int, int]:
    """Write a rational prime p = 1 mod 4 as a^2 + b^2 via gcd(p, x + i)."""
    g = gauss_gcd(GaussInt(p, 0), GaussInt(_sqrt_minus_one(p), 1))
    return abs(g.re), abs(g.im)


def factor_gauss(w: GaussInt) -> tuple[GaussInt, dict[GaussInt, int]]:
    """Factor w as unit * prod(p^e) over canonical Gaussian primes."""
    if w.is_zero():
        raise ValueError("cannot factor zero")
    factors: dict[GaussInt, int] = {}
    rest = w
    for p, e in _factor_int(w.norm()).items():
        if p == 2:
            pi = GaussInt(1, 1)
            for _ in range(e):
                q, r = gauss_divmod(rest, pi)
                assert r.is_zero()
                rest = q
            factors[pi] = e
        elif p % 4 == 3:
            pi = GaussInt(p, 0)
            assert e % 2 == 0
            for _ in range(e // 2):
                q, r = gauss_divmod(rest, pi)
                assert r.is_zero()
                rest = q
            factors[pi] = e // 2
        else:
            a, b = _split_prime(p)
            for pi in (canonical_associate(GaussInt(a, b)),
                       canonical_associate(GaussInt(a, -b))):
                cnt = 0
                while True:
                    q, r = gauss_divmod(rest, pi)
                    if not r.is_zero():
                        break
                    rest, cnt = q, cnt + 1
                if cnt:
                    factors[pi] = cnt
    assert rest.is_unit()
    return rest, factors


def divisors(w: GaussInt) -> list[GaussInt]:
    """All divisors of w, including all four unit associates of each class.

    The count is always divisible by 4. Errors on w = 0.
    """
    if w.is_zero():
        raise ValueError("divisor set of zero is undefined")
    _, factors = factor_gauss(w)
    classes = [ONE]
    for p, e in factors.items():
        grown = []
        for base in classes:
            pe = ONE
            for _ in range(e + 1):
                grown.append(base * pe)
                pe = pe * p
        classes = grown
    out = [u * d for d in classes for u in UNITS]
    out.sort(key=shell_key)
    return out


# -- coset rows ---------------------------------------------------------------

@dataclass(frozen=True)
class CosetRep:
    """A coprime bottom row (c, d) of a matrix in SL(2, Z[i]).

    Each such row indexes one left coset of the unipotent subgroup; the four
    unit multiples (u*c, u*d) are four distinct cosets forming one associate
    class. Enumeration stores one canonical row per class.
    """
    c: GaussInt
    d: GaussInt

    def __post_init__(self):
        if not is_coprime(self.c, self.d):
            raise ValueError(f"row ({self.c}, {self.d}) is not coprime")

    def row_norm(self) -> int:
        return self.c.norm() + self.d.norm()

    def canonical(self) -> "CosetRep":
        best = min(
            ((u * self.c, u * self.d) for u in UNITS),
            key=lambda cd: (cd[0].re, cd[0].im, cd[1].re, cd[1].im),
        )
        return CosetRep(*best)


def enumerate_coset_reps(max_row_norm: int) -> list[CosetRep]:
    """One canonical CosetRep per unit-associate class of coprime rows
    with |c|^2 + |d|^2 <= max_row_norm, sorted by (row norm, lex)."""
    if max_row_norm < 1:
        raise ValueError("max_row_norm must be >= 1")
    seen = set()
    out = []
    cs = [ZERO] + enumerate_shells(max_row_norm)
    for c in cs:
        rem = max_row_norm - c.norm()
        if rem < 0:
            continue
        if c.is_zero():
            ds = [d for d in enumerate_shells(rem) if d.is_unit()]
        else:
            ds = [ZERO] + enumerate_shells(rem)
        for d in ds:
            if not is_coprime(c, d):
                continue
            rep = CosetRep(c, d).canonical()
            key = (rep.c, rep.d)
            if key not in seen:
                seen.add(key)
                out.append(rep)
    out.sort(key=lambda r: (r.row_norm(), r.c.re, r.c.im, r.d.re, r.d.im))
    return out


def complete_to_sl2(rep: CosetRep) -> tuple[GaussInt, GaussInt, GaussInt, GaussInt]:
    """Complete a coprime row to (a, b, c, d) with a*d - b*c = 1.

    The unipotent ambiguity (a, b) -> (a + t*c, b + t*d) is fixed by choosing
    the candidate minimizing the shell key of a (for c != 0; of b when c = 0).
    """
    c, d = rep.c, rep.d
    g, x, y = gauss_xgcd(d, c)
    if not g.is_unit():
        raise ValueError("row is not coprime")
    gi = unit_inverse(g)
    a, b = x * gi, -(y * gi)
    assert (a * d - b * c) == ONE
    if c.is_zero():
        # b -> b + t*d with d a unit: minimal choice is b = 0
        return a, ZERO, c, d
    q, _ = gauss_divmod(a, c)
    a, b = a - q * c, b - q * d
    best = min(
        ((a + GaussInt(t, s) * c, b + GaussInt(t, s) * d)
         for t in (-2, -1, 0, 1, 2) for s in (-2, -1, 0, 1, 2)),
        key=lambda ab: shell_key(ab[0]),
    )
    a, b = best
    assert (a * d - b * c) == ONE
    return a, b, c, d


def residues_mod(c: GaussInt) -> list[GaussInt]:
    """A full residue system of Z[i]/(c): the integer points of the
    half-open parallelogram {alpha*c + beta*i*c : alpha, beta in [0,1)}."""
    if c.is_zero():
        raise ValueError("modulus must be nonzero")
    n = c.norm()
    pts = []
    bound = abs(c.re) + abs(c.im)
    for a in range(-2 * bound, 2 * bound + 1):
        for b in range(-2 * bound, 2 * bound + 1):
            d = GaussInt(a, b)
            t = d * c.conj()
            # d/c = t/n; in [0,1)^2 ?
            if 0 <= t.re < n and 0 <= t.im < n:
                pts.append(d)
    assert len(pts) == n, (c, len(pts), n)
    pts.sort(key=shell_key)
    return pts
