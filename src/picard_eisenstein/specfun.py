"""Complex gamma/digamma wrappers, modified Bessel K of complex order via
the cosh integral representation (on a rotated path at large imaginary
order), and the closed-form Mellin integral of a product of two K-Bessel
factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cosh, exp, pi, sqrt

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

#: orders with |Im nu| above this are integrated on the rotated contour
_ROTATE_ABOVE = 12.0

#: the rotation angle stays this far, times 1/|Im nu|, below pi/2 so that the
#: integrand still decays along the contour
_BACKOFF = 3.0

#: the contour is cut where the integrand has fallen by exp(-_DROP) below its
#: largest modulus
_DROP = 50.0

#: largest number of (argument, node) entries of one work array
_WORK_ENTRIES = 1 << 20


def bessel_k_complex(nu, x: float, tol: float = 1e-11) -> complex:
    """K_nu(x) for complex order: the one-argument call of
    bessel_k_complex_array (see there for the method).

    Supported range: x > 0 (intended x >= 1e-3), |Im nu| <= 200.
    """
    return complex(bessel_k_complex_array(nu, [float(x)], tol)[0])


def bessel_k_complex_array(nu, xs, tol: float = 1e-11) -> np.ndarray:
    """K_nu(x) for one complex order and an array of positive arguments,
    by the trapezoid rule on K_nu(x) = 1/2 int_R exp(-x cosh u - nu u) du.
    The step is halved until every argument is stable to tol relative.

    For |Im nu| <= 12 the path is the real axis: the trapezoid runs over
    int_0^inf exp(-x cosh u) cosh(nu u) du, whose integrand extends evenly
    through u = 0, so the rule converges exponentially; the step starts
    proportional to 1/|Im nu| to resolve the cos(t u) oscillation. All
    arguments share one grid, whose length is set by the smallest x.

    For larger |Im nu| the value K_nu(x) ~ exp(-pi |Im nu| / 2) would drown
    in the cancellation of that oscillation, so the path is moved to
    u = w - i sgn(Im nu) alpha(x), w real (Gil, Segura and Temme, J. Comput.
    Phys. 175 (2002) 398-411): alpha is the saddle angle
    arcsin(min(|Im nu|/x, 1)), backed off to at most pi/2 - 3/|Im nu|.
    Every alpha < pi/2 is admissible, since Re cosh(w - i alpha) =
    cosh(w) cos(alpha) > 0. On the rotated path the factor
    exp(-alpha |Im nu|) comes out in closed form and the remaining
    integrand barely oscillates near its peak, so the float64 sum keeps
    about twelve digits up to |Im nu| = 200.
    """
    if isinstance(nu, ComplexOrder):
        nu = nu.value
    nu = complex(nu)
    xs = np.asarray(xs, dtype=float)
    if xs.size == 0:
        return np.zeros(0, dtype=complex)
    if np.any(xs <= 0):
        raise ValueError("arguments must be positive")
    if abs(nu.imag) > 200:
        raise ValueError("imaginary order beyond the documented limit 200")
    if abs(nu.imag) > _ROTATE_ABOVE:
        return _bessel_k_rotated(nu, xs, tol)
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


def _bessel_k_rotated(nu: complex, xs: np.ndarray, tol: float) -> np.ndarray:
    """The trapezoid of bessel_k_complex_array on the rotated path
    u = w - i sgn(Im nu) alpha, for |Im nu| > _ROTATE_ABOVE.

    With a = Re nu, t = |Im nu| and q = x cos(alpha), the integrand is
    exp(-q cosh w - a w - t alpha) times the phase
    exp(i sgn(Im nu) (x sin(alpha) sinh w - t w + a alpha)). Its modulus
    peaks at w* = -asinh(a / q); the sums are taken relative to that peak,
    and the scale and the constant phase are restored at the end. Each
    halving adds only the midpoints, and the work arrays are sliced to at
    most _WORK_ENTRIES entries (tiny x needs very long paths).
    """
    t, a = abs(nu.imag), nu.real
    sign = 1.0 if nu.imag > 0 else -1.0
    alpha = np.minimum(np.arcsin(np.minimum(t / xs, 1.0)),
                       pi / 2 - _BACKOFF / t)
    q = xs * np.cos(alpha)
    freq = xs * np.sin(alpha)
    w_peak = -np.arcsinh(a / q)
    log_peak = -q * (np.cosh(w_peak) - 1.0) - a * w_peak

    def drop(w):  # fall of the log-modulus below its peak
        return q * (np.cosh(w) - np.cosh(w_peak)) + a * (w - w_peak)

    ends = []
    for side in (1.0, -1.0):
        # double the distance until the drop passes _DROP, then Newton steps,
        # which approach the crossing from outside and stay outside
        d = np.ones_like(xs)
        while np.any(short := drop(w_peak + side * d) < _DROP):
            d[short] *= 2.0
        w = w_peak + side * d
        for _ in range(6):
            w -= (drop(w) - _DROP) / (q * np.sinh(w) + a)
        ends.append(w)
    w_lo, w_hi = float(ends[1].min()), float(ends[0].max())

    def node_sum(w):
        # sum over the nodes w of the integrand relative to its peak
        out = np.zeros(xs.size, dtype=complex)
        rows = max(1, _WORK_ENTRIES // w.size)
        cols = _WORK_ENTRIES // rows
        for i in range(0, xs.size, rows):
            r = slice(i, i + rows)
            for j in range(0, w.size, cols):
                wj = w[j:j + cols]
                log_mod = (-np.outer(q[r], np.cosh(wj) - 1.0) - a * wj
                           - log_peak[r, None])
                phase = sign * (np.outer(freq[r], np.sinh(wj)) - t * wj)
                with np.errstate(under="ignore"):
                    out[r] += np.exp(log_mod + 1j * phase).sum(axis=1)
        return out

    h = min(0.25, 2.5 / (t + 1.0))
    n = int(np.ceil((w_hi - w_lo) / h)) + 1
    total = node_sum(w_lo + h * np.arange(n))
    prev = h * total
    for _ in range(14):
        h *= 0.5
        total += node_sum(w_lo + h * np.arange(1, 2 * n - 1, 2))
        n = 2 * n - 1
        cur = h * total
        if np.all(np.abs(cur - prev) <= tol * np.abs(cur)):
            return 0.5 * cur * np.exp(log_peak - q - t * alpha
                                      + 1j * sign * a * alpha)
        prev = cur
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
