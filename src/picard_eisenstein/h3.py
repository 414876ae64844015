"""Upper half-space model of hyperbolic 3-space: points z + lam*j, the
Moebius action of SL(2,C), Iwasawa coordinates, the frame-transport rotation
attached to a group element at a point, the closed fundamental domain of the
Gaussian modular group, and quadrature against dV = dx dy dlam / lam^3.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import acosh, inf, log, sqrt

import numpy as np

from .su2 import SU2Element


@dataclass(frozen=True)
class H3Point:
    x: float
    y: float
    lam: float

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError("height must be positive")

    @property
    def z(self) -> complex:
        return complex(self.x, self.y)


@dataclass(frozen=True)
class GroupElementSL2C:
    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if abs(det - 1.0) > 1e-12:
            raise ValueError(f"determinant {det} is not 1")

    def __mul__(self, other: "GroupElementSL2C") -> "GroupElementSL2C":
        return GroupElementSL2C(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inv(self) -> "GroupElementSL2C":
        return GroupElementSL2C(self.d, -self.b, -self.c, self.a)

    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=complex)

    @classmethod
    def identity(cls) -> "GroupElementSL2C":
        return cls(1.0, 0.0, 0.0, 1.0)

    @classmethod
    def translation(cls, z: complex) -> "GroupElementSL2C":
        """n[z]: upper unipotent, acting as z-translation on the boundary."""
        return cls(1.0, complex(z), 0.0, 1.0)

    @classmethod
    def dilation(cls, height: float) -> "GroupElementSL2C":
        """a[h]: diagonal element moving j to h*j."""
        if not height > 0:
            raise ValueError("height must be positive")
        r = sqrt(height)
        return cls(r, 0.0, 0.0, 1.0 / r)

    @classmethod
    def from_su2(cls, k: SU2Element) -> "GroupElementSL2C":
        return cls(k.alpha, k.beta, -k.beta.conjugate(), k.alpha.conjugate())


GROUP_IDENTITY = GroupElementSL2C.identity()


def mobius_act(g: GroupElementSL2C, p: H3Point) -> H3Point:
    """Action on z + lam*j: the boundary Moebius map extended isometrically."""
    z, lam = p.z, p.lam
    t = g.c * z + g.d
    den = abs(t) ** 2 + abs(g.c) ** 2 * lam ** 2
    znew = ((g.a * z + g.b) * t.conjugate()
            + g.a * g.c.conjugate() * lam ** 2) / den
    return H3Point(znew.real, znew.imag, lam / den)


def hyperbolic_distance(p: H3Point, q: H3Point) -> float:
    arg = 1.0 + (abs(p.z - q.z) ** 2 + (p.lam - q.lam) ** 2) / (2 * p.lam * q.lam)
    return acosh(arg)


@dataclass(frozen=True)
class IwasawaCoords:
    z: complex
    height: float
    k: SU2Element

    def recompose(self) -> GroupElementSL2C:
        return (GroupElementSL2C.translation(self.z)
                * GroupElementSL2C.dilation(self.height)
                * GroupElementSL2C.from_su2(self.k))


def iwasawa_decompose(g: GroupElementSL2C) -> IwasawaCoords:
    """g = n[z] a[h] K with h = 1/(|c|^2+|d|^2) = Im g(j) (geometric height)
    and K in SU(2)."""
    w = abs(g.c) ** 2 + abs(g.d) ** 2
    z = (g.a * g.c.conjugate() + g.b * g.d.conjugate()) / w
    r = sqrt(w)
    k = SU2Element(g.d.conjugate() / r, -g.c.conjugate() / r)
    return IwasawaCoords(z, 1.0 / w, k)


def frame_transport(gamma: GroupElementSL2C, p: H3Point) -> SU2Element:
    """The SU(2) rotation of the frame carried along gamma at the point p:
    the K-part of gamma * n[z] a[lam]. Satisfies the cocycle rule
    transport(g1 g2, p) = transport(g1, g2 p) * transport(g2, p)."""
    z, lam = p.z, p.lam
    t = gamma.c * z + gamma.d
    v = sqrt(lam ** 2 * abs(gamma.c) ** 2 + abs(t) ** 2)
    alpha = (gamma.c.conjugate() * z.conjugate() + gamma.d.conjugate()) / v
    beta = -lam * gamma.c.conjugate() / v
    return SU2Element(alpha, beta)


def in_fundamental_domain(p: H3Point, tol: float = 1e-12) -> bool:
    """Membership in the closed region |x|,|y| <= 1/2, |z|^2 + lam^2 >= 1."""
    if abs(p.x) > 0.5 + tol or abs(p.y) > 0.5 + tol:
        return False
    return p.x ** 2 + p.y ** 2 + p.lam ** 2 >= 1.0 - tol


# -- quadrature -------------------------------------------------------------------

@dataclass(frozen=True)
class QuadResult:
    value: complex
    error_estimate: float


@lru_cache(maxsize=32)
def _gl_nodes(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0  # on [0, 1]


def _as_vectorized(f, vectorized: bool):
    if vectorized:
        return f
    def fv(xs, ys, lams):
        xs, ys, lams = np.broadcast_arrays(xs, ys, lams)
        out = np.empty(xs.shape, dtype=complex)
        flat = out.ravel()
        for i, (x, y, lam) in enumerate(
                zip(xs.ravel(), ys.ravel(), lams.ravel())):
            flat[i] = f(H3Point(float(x), float(y), float(lam)))
        return out
    return fv


def _eval_once(fv, domain, n_xy: int, n_u: int, tol: float) -> complex:
    """One tensor pass: Gauss-Legendre in (x, y), unit log-height panels in
    lam = e^u swept outward until their contribution dies off. fv gets the
    grid axes of each panel, shaped as integrate_dV describes."""
    nodes, wts = _gl_nodes(n_xy)
    unodes, uwts = _gl_nodes(n_u)
    if domain == "fundamental":
        xs0, ys0 = np.meshgrid(nodes - 0.5, nodes - 0.5, indexing="ij")
        u_floor = 0.5 * np.log(np.maximum(1.0 - xs0 ** 2 - ys0 ** 2, 1e-300))
        directions = [(u_floor.reshape(-1, 1), +1, inf)]
    elif domain == "strip":
        xs0, ys0 = np.meshgrid(nodes, nodes, indexing="ij")
        directions = [(0.0, +1, inf), (0.0, -1, inf)]
    elif isinstance(domain, tuple) and len(domain) == 3 and domain[0] == "box":
        _, lam1, lam2 = domain
        if not (0 < lam1 < lam2):
            raise ValueError("box heights must satisfy 0 < lam1 < lam2")
        xs0, ys0 = np.meshgrid(nodes, nodes, indexing="ij")
        directions = [(log(lam1), +1, log(lam2) - log(lam1))]
    else:
        raise ValueError(f"unknown domain {domain!r}")

    xy_w = np.outer(wts, wts).ravel()
    xs, ys = xs0.reshape(-1, 1), ys0.reshape(-1, 1)
    total = 0.0 + 0.0j
    stop_eps = max(tol * 1e-2, 1e-15)
    for base, sign, extent in directions:
        quiet = 0
        offset = 0.0
        panels = 0
        while offset < extent:
            width = min(1.0, extent - offset)
            if sign > 0:
                u = base + offset + width * unodes[None, :]
            else:
                u = base - offset - width * unodes[None, :]
            with np.errstate(over="ignore", invalid="ignore"):
                lam = np.exp(u)
                vals = fv(xs, ys, lam)
                contrib = complex(
                    (xy_w[:, None] * vals * np.exp(-2.0 * u)
                     * (width * uwts)[None, :]).sum())
            if not np.isfinite(abs(contrib)):
                raise ArithmeticError(
                    "height integral overflowed while sweeping log-height "
                    f"panels (offset {offset:.1f}); the integrand looks "
                    "non-integrable")
            total += contrib
            offset += width
            panels += 1
            if offset >= extent:
                break
            if abs(contrib) < stop_eps * max(1.0, abs(total)):
                quiet += 1
                if quiet >= 2:
                    break
            else:
                quiet = 0
            if panels >= 300:
                raise ArithmeticError(
                    "height integral did not decay after 300 log-height "
                    f"panels (last panel {abs(contrib):.3e}, running total "
                    f"{abs(total):.3e}); the integrand looks non-integrable")
    return total


def integrate_dV(f, domain, tol: float = 1e-8,
                 vectorized: bool = False) -> QuadResult:
    """Integral of f against dx dy dlam / lam^3 over one of three regions:
    "fundamental" (the closed fundamental domain), "strip" (unit square times
    all heights), or ("box", lam1, lam2) (unit square, heights in the
    interval; lam2 = inf allowed as math.inf).

    The height axis is flattened by lam = e^u; both axes use fixed-order
    Gauss-Legendre with the order raised until two resolutions agree within
    tol. Raises if the refinement does not converge or the height panels
    never decay. With vectorized=True, f gets the axes of a grid of P
    points and Q heights: xs and ys of shape (P, 1), and lams of shape
    (1, Q) on boxes and the strip, or (P, Q) on the fundamental domain,
    whose floor moves with the point; f returns values that broadcast to
    (P, Q).
    """
    fv = _as_vectorized(f, vectorized)
    n_xy, n_u = 16, 16
    prev = None
    for _ in range(4):
        cur = _eval_once(fv, domain, n_xy, n_u, tol)
        if prev is not None:
            err = abs(cur - prev)
            if err <= tol:
                return QuadResult(cur, err)
        prev = cur
        n_xy = max(n_xy + n_xy // 2, n_xy + 4)
        n_u = max(n_u + n_u // 2, n_u + 4)
    raise ArithmeticError(
        f"quadrature did not reach tolerance {tol} after refinement "
        f"(last two values {prev} at orders up to {n_xy})")
