"""SU(2)/SO(3) group elements, the spin covering map, Euler angles, Wigner
matrix coefficients (integer and half-integer order; one monomial
evaluation serving both single elements and numpy arrays of them), and the
index weights B and xi that the series expansion and the pairings use.

Index arguments (j, k, m) are half-integers passed as ints, floats or
Fractions with 2j integral; they are converted to doubled integers
internally so all parity/range constraints are exact.

Conventions, fixed once and used everywhere:
  * K[alpha, beta] = [[alpha, beta], [-conj(beta), conj(alpha)]].
  * D^j_{km} is evaluated directly on the SU(2) element (single-valued for
    half-integer j) as the matrix coefficient of the monomial action
    f_m(x, y) -> f_m(K^{-1}(x, y)) on x^{j+m} y^{j-m} / sqrt((j+m)!(j-m)!);
    for integer j this coincides with the classical evaluation on the image
    rotation through Euler angles.
  * ROT(theta, chi, phi) is the z-y-z factorization with the row convention
    below; d^j_{km}(chi) = D^j_{km} of K[cos(chi/2), -sin(chi/2)].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import atan2, comb, cos, factorial, pi, sin, sqrt

import numpy as np

_TWO_PI = 2.0 * pi

MAX_TWO_J = 64  # factorial-sum evaluation degrades beyond this; refuse


def _two(x) -> int:
    """Doubled-integer encoding of a half-integer index."""
    t = 2 * Fraction(x)
    if t.denominator != 1:
        raise ValueError(f"{x} is not a half-integer")
    return int(t)


def check_index(j, k, m) -> tuple[int, int, int]:
    tj, tk, tm = _two(j), _two(k), _two(m)
    if tj < 0:
        raise ValueError("j must be >= 0")
    if tj > MAX_TWO_J:
        raise ValueError(f"j = {j} exceeds supported range")
    if abs(tk) > tj or abs(tm) > tj:
        raise ValueError(f"indices ({j},{k},{m}) out of range")
    if (tj - tk) % 2 or (tj - tm) % 2:
        raise ValueError(f"indices ({j},{k},{m}) violate the parity constraint")
    return tj, tk, tm


@dataclass(frozen=True)
class SpectralIndex:
    """The triple (l, k, m) in doubled-integer encoding."""
    two_l: int
    two_k: int
    two_m: int

    def __post_init__(self):
        check_index(Fraction(self.two_l, 2), Fraction(self.two_k, 2),
                    Fraction(self.two_m, 2))

    @classmethod
    def make(cls, l, k, m) -> "SpectralIndex":
        return cls(_two(l), _two(k), _two(m))

    @property
    def l(self) -> Fraction:
        return Fraction(self.two_l, 2)

    @property
    def k(self) -> Fraction:
        return Fraction(self.two_k, 2)

    @property
    def m(self) -> Fraction:
        return Fraction(self.two_m, 2)


@dataclass(frozen=True)
class SU2Element:
    alpha: complex
    beta: complex

    def __post_init__(self):
        n = sqrt(abs(self.alpha) ** 2 + abs(self.beta) ** 2)
        if n < 1e-8:
            raise ValueError("degenerate Cayley-Klein parameters")
        object.__setattr__(self, "alpha", complex(self.alpha) / n)
        object.__setattr__(self, "beta", complex(self.beta) / n)

    def __mul__(self, other: "SU2Element") -> "SU2Element":
        a1, b1, a2, b2 = self.alpha, self.beta, other.alpha, other.beta
        return SU2Element(a1 * a2 - b1 * b2.conjugate(),
                          a1 * b2 + b1 * a2.conjugate())

    def inv(self) -> "SU2Element":
        return SU2Element(self.alpha.conjugate(), -self.beta)

    def matrix(self) -> np.ndarray:
        return np.array([[self.alpha, self.beta],
                         [-self.beta.conjugate(), self.alpha.conjugate()]])

    def distance_to_identity(self) -> float:
        return sqrt(abs(self.alpha - 1.0) ** 2 + abs(self.beta) ** 2)


SU2_IDENTITY = SU2Element(1.0, 0.0)
#: the diagonal element diag(i, -i) used in the symmetry identities
SU2_DIAG_I = SU2Element(1j, 0.0)


@dataclass(frozen=True)
class SO3Matrix:
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        r = np.asarray(self.entries, dtype=float)
        if r.shape != (3, 3):
            raise ValueError("SO3Matrix needs a 3x3 array")
        if np.max(np.abs(r @ r.T - np.eye(3))) > 1e-10 or abs(np.linalg.det(r) - 1) > 1e-10:
            raise ValueError("matrix is not special orthogonal")
        object.__setattr__(self, "entries", r)

    def __matmul__(self, other: "SO3Matrix") -> "SO3Matrix":
        return SO3Matrix(self.entries @ other.entries)


@dataclass(frozen=True)
class EulerAngles:
    theta: float
    chi: float
    phi: float


def spin_cover(a: SU2Element) -> SO3Matrix:
    """The 2-to-1 covering homomorphism SU(2) -> SO(3), explicit matrix."""
    al, be = a.alpha, a.beta
    a2, b2 = al * al, be * be
    return SO3Matrix(np.array([
        [(a2 - b2).real, -(a2 + b2).imag, 2 * (al * be).real],
        [(a2 - b2).imag, (a2 + b2).real, 2 * (al * be).imag],
        [-2 * (al.conjugate() * be).real,
         2 * (al * be.conjugate()).imag,
         abs(al) ** 2 - abs(be) ** 2],
    ]))


def _mz(t: float) -> np.ndarray:
    c, s = cos(t), sin(t)
    return np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])


def _my(t: float) -> np.ndarray:
    c, s = cos(t), sin(t)
    return np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])


def rot_matrix(theta: float, chi: float, phi: float) -> SO3Matrix:
    return SO3Matrix(_mz(theta) @ _my(chi) @ _mz(phi))


def su2_from_euler(theta: float, chi: float, phi: float) -> SU2Element:
    """The canonical SU(2) lift of ROT(theta, chi, phi)."""
    kz1 = SU2Element(complex(cos(theta / 2), -sin(theta / 2)), 0.0)
    ky = SU2Element(cos(chi / 2), -sin(chi / 2))
    kz2 = SU2Element(complex(cos(phi / 2), -sin(phi / 2)), 0.0)
    return kz1 * ky * kz2


def euler_decompose(r: SO3Matrix) -> EulerAngles:
    """Angles with ROT(theta, chi, phi) = r; theta = 0 at gimbal lock."""
    m = r.entries
    c = min(1.0, max(-1.0, m[2, 2]))
    chi = float(np.arccos(c))
    if sin(chi) > 1e-9:
        phi = atan2(m[2, 1], m[2, 0])
        theta = atan2(m[1, 2], -m[0, 2])
    elif c > 0.0:  # chi ~ 0: pure z-rotation, convention theta = 0
        theta, phi = 0.0, atan2(m[0, 1], m[0, 0])
    else:          # chi ~ pi
        theta, phi = 0.0, atan2(-m[1, 0], m[1, 1])
    theta = theta % _TWO_PI
    return EulerAngles(theta, chi, phi)


# -- matrix coefficients -------------------------------------------------------

def wigner_D_su2(j, k, m, a: SU2Element) -> complex:
    """Matrix coefficient D^j_{km} evaluated on the SU(2) element.

    Coefficient of the orthonormal monomial basis under
    f_m(x,y) -> f_m(K^{-1}(x,y)); single-valued for half-integer j.
    """
    return wigner_monomial(*check_index(j, k, m), a.alpha, a.beta)


def wigner_monomial(tj: int, tk: int, tm: int, alpha, beta):
    """D^j_{km} on K[alpha, beta] from the doubled indices (2j, 2k, 2m),
    without index validation. alpha and beta are complex numbers or numpy
    arrays of them (evaluated entrywise), with |alpha|^2 + |beta|^2 = 1."""
    # K^{-1}(x, y) = (conj(alpha) x + conj(beta)... ) worked out explicitly:
    # with K = K[al, be], K^{-1} = K[conj(al), -be], acting on column (x, y):
    #   x' = conj(al) x - be y,  y' = conj(be) x + al y
    p, q = alpha.conjugate(), -beta       # x' = p x + q y
    u, v = beta.conjugate(), alpha        # y' = u x + v y
    jm, jmm = (tj + tm) // 2, (tj - tm) // 2   # j+m, j-m
    jk, jkm = (tj + tk) // 2, (tj - tk) // 2   # j+k, j-k
    # coefficient of x^{j+k} y^{j-k} in (p x + q y)^{j+m} (u x + v y)^{j-m}
    acc = 0.0 + 0.0j
    for t in range(max(0, jk - jmm), min(jm, jk) + 1):
        # x^t from the first factor, x^{jk-t} from the second
        term = comb(jm, t) * comb(jmm, jk - t)
        acc = acc + (term * p ** t * q ** (jm - t)
                     * u ** (jk - t) * v ** (jmm - jk + t))
    norm = sqrt(factorial(jk) * factorial(jkm)
                / (factorial(jm) * factorial(jmm)))
    return acc * norm


def _cpow(z: complex, n: int) -> complex:
    if n == 0:
        return 1.0 + 0.0j
    return z ** n


def wigner_small_d(j, k, m, chi: float) -> float:
    """Wigner small-d: the middle Euler factor, real-valued."""
    val = wigner_D_su2(j, k, m, SU2Element(cos(chi / 2), -sin(chi / 2)))
    return val.real


def wigner_D_euler(j, k, m, ang: EulerAngles) -> complex:
    """Euler-angle evaluation e^{ik theta} d^j_{km}(chi) e^{im phi}.

    Only meaningful for integer j when applied to a rotation matrix's
    angles (the half-integer lift is handled by wigner_D_su2)."""
    return (np.exp(1j * float(Fraction(k)) * ang.theta)
            * wigner_small_d(j, k, m, ang.chi)
            * np.exp(1j * float(Fraction(m)) * ang.phi))


def phi_coeff(l, k, m, a: SU2Element) -> complex:
    """Matrix coefficient of the polynomial action
    z^{l-m} -> (alpha z - conj(beta))^{l-m} (beta z + conj(alpha))^{l+m},
    normalized by 1/((l+k)!(l-k)!) against <z^{l-q}, z^{l-q}> = (l+q)!(l-q)!.

    Net effect: the coefficient of z^{l-k} in the expanded polynomial.
    """
    tl, tk, tm = check_index(l, k, m)
    al, be = a.alpha, a.beta
    lm, lmm = (tl + tm) // 2, (tl - tm) // 2
    lk, lkm = (tl + tk) // 2, (tl - tk) // 2
    # coefficient of z^{l-k} in (al z - conj(be))^{l-m} (be z + conj(al))^{l+m}
    acc = 0.0 + 0.0j
    for t in range(max(0, lkm - lm), min(lmm, lkm) + 1):
        term = comb(lmm, t) * comb(lm, lkm - t)
        acc += (term * _cpow(al, t) * _cpow(-be.conjugate(), lmm - t)
                * _cpow(be, lkm - t) * _cpow(al.conjugate(), lm - lkm + t))
    return acc


def b_factor(l, k, m) -> float:
    """sqrt((l+m)!(l-m)!) / sqrt((l+k)!(l-k)!)."""
    tl, tk, tm = check_index(l, k, m)
    lm, lmm = (tl + tm) // 2, (tl - tm) // 2
    lk, lkm = (tl + tk) // 2, (tl - tk) // 2
    return sqrt(factorial(lm) * factorial(lmm)
                / (factorial(lk) * factorial(lkm)))


def xi_weight(l, k, v, u: int) -> float:
    """The combinatorial weight
    u!(2l-u)!/((l+k)!(l-k)!) * C(l-(|v+k|+|v-k|)/2, u) * C(l-(|v+k|-|v-k|)/2, u)
    for integer or half-integer l, k, v (u stays a nonnegative integer).

    Doubled-integer arithmetic keeps every factorial argument an exact
    integer.
    """
    tl, tk, tv = _two(l), _two(k), _two(v)
    if abs(tk) > tl or abs(tv) > tl:
        raise ValueError("indices must satisfy |k|, |v| <= l")
    if (tl - tk) % 2 or (tl - tv) % 2:
        raise ValueError("indices violate the parity constraint")
    hi2 = abs(tv + tk) + abs(tv - tk)   # 4 * (|v+k|+|v-k|)/2
    lo2 = abs(tv + tk) - abs(tv - tk)
    n1 = (2 * tl - hi2) // 4
    n2 = (2 * tl - lo2) // 4
    if not 0 <= u <= n1:
        raise ValueError(f"u = {u} outside the summation range [0, {n1}]")
    num = factorial(u) * factorial(tl - u) * comb(n1, u) * comb(n2, u)
    den = factorial((tl + tk) // 2) * factorial((tl - tk) // 2)
    return num / den


def t_basis(l: int, k, m, a: SU2Element) -> complex:
    """Normalized basis element sqrt((l+1)/(2 pi^2)) * D^{l/2}_{mk}(A).

    Note the transposed index order (m, k) in the D factor."""
    if l != int(l) or l < 0:
        raise ValueError("l must be a nonnegative integer")
    l = int(l)
    return sqrt((l + 1) / (2 * pi ** 2)) * wigner_D_su2(
        Fraction(l, 2), m, k, a)


def t_modes(l: int):
    """Admissible (k, m) pairs for t_basis at integer l, as Fractions."""
    two = range(-l, l + 1, 2)
    return [(Fraction(tk, 2), Fraction(tm, 2)) for tk in two for tm in two]


def wigner_symmetries_check(j, k, m, a: SU2Element) -> float:
    """Max deviation over the conjugation, inversion and base-change
    identities at the given index and group element."""
    tj, tk, tm = check_index(j, k, m)
    sign = -1.0 if (tm - tk) % 4 else 1.0  # (-1)^{m-k}, m-k integral
    i_conj = SU2_DIAG_I * a * SU2_DIAG_I.inv()
    dev = abs(wigner_D_su2(j, k, m, i_conj) - sign * wigner_D_su2(j, k, m, a))
    dev = max(dev, abs(wigner_D_su2(j, k, m, a.inv())
                       - sign * wigner_D_su2(j, -m, -k, a)))
    dev = max(dev, abs(wigner_D_su2(j, k, m, a.inv())
                       - wigner_D_su2(j, m, k, a).conjugate()))
    # base change: Phi^j_{km}(K) = B * U^j_{km}(I K I^{-1})
    dev = max(dev, abs(phi_coeff(j, k, m, a)
                       - b_factor(j, k, m) * wigner_D_su2(j, k, m, i_conj)))
    return dev


# -- Haar quadrature -----------------------------------------------------------

def haar_grid(n_theta: int = 16, n_chi: int = 24, n_phi: int = 32):
    """Euler-angle product grid for normalized Haar measure on SU(2).

    Returns (elements, weights) with sum(weights) = 1: uniform periodic
    grids in theta over [0, 2pi) and phi over [0, 4pi), Gauss-Legendre in
    chi with the sin(chi) weight.
    """
    nodes, wts = np.polynomial.legendre.leggauss(n_chi)
    chis = 0.5 * pi * (nodes + 1.0)
    wchis = wts * 0.5 * pi * np.sin(chis)
    elements, weights = [], []
    for it in range(n_theta):
        th = _TWO_PI * it / n_theta
        for ic, (ch, wc) in enumerate(zip(chis, wchis)):
            for ip in range(n_phi):
                ph = 2 * _TWO_PI * ip / n_phi
                elements.append(su2_from_euler(th, ch, ph))
                # total mass: (2pi/n_theta) * 2 (chi) * (4pi/n_phi) -> 16 pi^2
                weights.append(wc * (_TWO_PI / n_theta)
                               * (2 * _TWO_PI / n_phi) / (16 * pi ** 2))
    return elements, np.array(weights)


def haar_integrate(fn, grid=None) -> complex:
    if grid is None:
        grid = haar_grid()
    elements, weights = grid
    vals = np.array([fn(a) for a in elements])
    return complex(np.dot(weights, vals))


def random_su2(rng: np.random.Generator) -> SU2Element:
    """Haar-uniform random element (normalized complex Gaussian pair)."""
    v = rng.normal(size=4)
    return SU2Element(complex(v[0], v[1]), complex(v[2], v[3]))
