"""Complex gamma/digamma wrappers, modified Bessel K of complex order via
the cosh integral representation, and the closed-form Mellin integral of a
product of two K-Bessel factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cosh, exp, pi, sqrt

import mpmath
import numpy as np
from scipy import special as sp


@dataclass(frozen=True)
class ComplexOrder:
    sigma: float
    t: float

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and np.isfinite(self.t)):
            raise ValueError("order components must be finite")

    @property
    def value(self) -> complex:
        return complex(self.sigma, self.t)


class PoleError(ValueError):
    pass


def gamma_complex(z: complex) -> complex:
    """Gamma(z); errors near the poles at nonpositive integers."""
    z = complex(z)
    if abs(z.imag) < 1e-12 and z.real <= 0.5 and abs(z.real - round(z.real)) < 1e-12:
        raise PoleError(f"gamma pole proximity at z = {z}")
    return complex(sp.gamma(z))


def log_gamma(z: complex) -> complex:
    return complex(sp.loggamma(complex(z)))


def digamma(z: complex) -> complex:
    return complex(sp.digamma(complex(z)))


def digamma_shift(s: complex, m: int) -> complex:
    """The finite recurrence sum: digamma(m+s) - digamma(s) = sum 1/(s+k)."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    s = complex(s)
    acc = 0.0 + 0.0j
    for k in range(m):
        d = s + k
        if abs(d) < 1e-14:
            raise PoleError(f"digamma shift hits a pole at s + {k}")
        acc += 1.0 / d
    return acc


def digamma_shifted(s: complex, m: int) -> complex:
    """digamma(m + s) assembled from the recurrence plus the base value."""
    return digamma_shift(s, m) + digamma(s)


# -- modified Bessel K of complex order ----------------------------------------

def _bessel_trap_mp(nu: complex, x: float, target_rel: float = 1e-13) -> complex:
    """Same trapezoid scheme in mpmath arithmetic (for oscillatory orders
    whose cancellation exceeds float64). Working precision covers the
    e^{-pi |Im nu| / 2} cancellation plus the requested relative accuracy.
    """
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
    raise ArithmeticError(
        f"high-precision Bessel quadrature did not stabilize for nu={nu}, x={x}")


def bessel_k_complex(nu, x: float, tol: float = 1e-11) -> complex:
    """K_nu(x) for complex order by quadrature of the cosh representation.

    Supported range: x > 0 (intended x >= 1e-3), |Im nu| <= 200. For
    |Im nu| beyond ~12 the evaluation switches to scaled-precision
    arithmetic because K_{it}(x) ~ e^{-pi t / 2} drowns in cancellation.
    """
    if isinstance(nu, ComplexOrder):
        nu = nu.value
    nu = complex(nu)
    if x <= 0:
        raise ValueError("argument must be positive")
    if abs(nu.imag) > 200:
        raise ValueError("imaginary order beyond the documented limit 200")
    if abs(nu.imag) <= 12.0:
        return complex(bessel_k_complex_array(nu, [float(x)], tol)[0])
    return _bessel_trap_mp(nu, float(x))


def bessel_k_complex_array(nu, xs, tol: float = 1e-11) -> np.ndarray:
    """K_nu(x) for one complex order and an array of positive arguments.

    Trapezoid evaluation of int_0^inf exp(-x cosh u) cosh(nu u) du. The
    integrand extends evenly through u = 0, so the trapezoid rule converges
    exponentially; the step starts proportional to 1/|Im nu| to resolve the
    cos(t u) oscillation and is halved until every argument is stable. All
    arguments share one grid, whose length is set by the smallest x. Orders
    that need scaled-precision arithmetic fall back to pointwise evaluation.
    """
    if isinstance(nu, ComplexOrder):
        nu = nu.value
    nu = complex(nu)
    xs = np.asarray(xs, dtype=float)
    if xs.size == 0:
        return np.zeros(0, dtype=complex)
    if np.any(xs <= 0):
        raise ValueError("arguments must be positive")
    if abs(nu.imag) > 12.0:
        return np.array([bessel_k_complex(nu, float(x)) for x in xs])
    t, sr = abs(nu.imag), abs(nu.real)
    x_min = float(xs.min())
    # truncation point: exp(-x cosh U + sr U) < 1e-19 * exp(-x)
    u_max = 1.0
    while x_min * (cosh(u_max) - 1.0) - sr * u_max < 45.0:
        u_max += 0.5
        if u_max > 700:
            break
    h = min(0.25, 2.5 / (t + 1.0))
    prev = None
    for _ in range(14):
        n = int(u_max / h) + 1
        u = h * np.arange(n + 1)
        with np.errstate(under="ignore"):
            mat = np.exp(-np.outer(xs, np.cosh(u))) * np.cosh(nu * u)[None, :]
        mat[:, 0] *= 0.5
        cur = h * mat.sum(axis=1)
        if prev is not None:
            scale = np.maximum(np.abs(cur), 1e-300)
            if np.all(np.abs(cur - prev) <= tol * scale):
                return cur
        prev = cur
        h *= 0.5
    raise ArithmeticError(
        f"Bessel quadrature did not stabilize for nu={nu} over {xs.size} args")


def bessel_k_half(x: float) -> float:
    """Closed form K_{1/2}(x) = sqrt(pi/(2x)) e^{-x}."""
    return sqrt(pi / (2.0 * x)) * exp(-x)


def kk_mellin_integral(z: complex, mu: complex, nu: complex) -> complex:
    """int_0^inf x^{-z} K_mu(x) K_nu(x) dx in closed gamma-product form,
    valid for Re(z) < 1 - |Re mu| - |Re nu| (the terminating hypergeometric
    factor at argument 0 is identically 1)."""
    z, mu, nu = complex(z), complex(mu), complex(nu)
    if z.real >= 1.0 - abs(mu.real) - abs(nu.real):
        raise ValueError("parameters outside the convergence region")
    pref = 2.0 ** (-2.0 - z) / gamma_complex(1.0 - z)
    return pref * (
        gamma_complex((1 - z + mu + nu) / 2)
        * gamma_complex((1 - z - mu + nu) / 2)
        * gamma_complex((1 - z + mu - nu) / 2)
        * gamma_complex((1 - z - mu - nu) / 2))
