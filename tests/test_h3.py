from math import exp, inf, log, pi, sqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from picard_eisenstein import h3
from picard_eisenstein.h3 import (
    GROUP_IDENTITY, GroupElementSL2C, H3Point, IwasawaCoords, QuadResult,
    frame_transport, hyperbolic_distance, in_fundamental_domain,
    integrate_dV, iwasawa_decompose, mobius_act,
)
from picard_eisenstein.su2 import SU2Element, SU2_IDENTITY, random_su2

RNG = np.random.default_rng(440091)


def random_group_element(rng, scale=2.0):
    while True:
        a = complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))
        if abs(a) < 0.2:
            continue
        b = complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))
        c = complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))
        return GroupElementSL2C(a, b, c, (1.0 + b * c) / a)


def random_point(rng):
    return H3Point(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.1, 4))


class TestMobius:
    def test_identity(self):
        p = H3Point(0.3, -0.2, 1.7)
        q = mobius_act(GROUP_IDENTITY, p)
        assert (q.x, q.y, q.lam) == (p.x, p.y, p.lam)

    def test_dilation_scales_height(self):
        q = mobius_act(GroupElementSL2C.dilation(4.0), H3Point(0, 0, 1))
        assert abs(q.lam - 4.0) < 1e-14 and abs(q.z) < 1e-14

    def test_translation(self):
        q = mobius_act(GroupElementSL2C.translation(1 + 2j), H3Point(0, 0, 1))
        assert abs(q.z - (1 + 2j)) < 1e-14 and abs(q.lam - 1) < 1e-14

    def test_isometry(self):
        for _ in range(100):
            g = random_group_element(RNG)
            p, q = random_point(RNG), random_point(RNG)
            d0 = hyperbolic_distance(p, q)
            d1 = hyperbolic_distance(mobius_act(g, p), mobius_act(g, q))
            assert abs(d0 - d1) < 1e-10 * max(1.0, d0)

    def test_composition(self):
        for _ in range(100):
            g1, g2 = random_group_element(RNG), random_group_element(RNG)
            p = random_point(RNG)
            lhs = mobius_act(g1 * g2, p)
            rhs = mobius_act(g1, mobius_act(g2, p))
            assert abs(lhs.z - rhs.z) + abs(lhs.lam - rhs.lam) < 1e-10

    def test_sign_kernel(self):
        for _ in range(20):
            g = random_group_element(RNG)
            m = GroupElementSL2C(-g.a, -g.b, -g.c, -g.d)
            p = random_point(RNG)
            q1, q2 = mobius_act(g, p), mobius_act(m, p)
            assert q1.z == q2.z and q1.lam == q2.lam

    def test_height_positive(self):
        for _ in range(50):
            q = mobius_act(random_group_element(RNG), random_point(RNG))
            assert q.lam > 0


class TestIwasawa:
    def test_identity(self):
        co = iwasawa_decompose(GROUP_IDENTITY)
        assert abs(co.z) < 1e-15 and abs(co.height - 1) < 1e-15
        assert co.k.distance_to_identity() < 1e-15

    def test_round_trip_from_coordinates(self):
        for _ in range(50):
            z = complex(RNG.uniform(-2, 2), RNG.uniform(-2, 2))
            h = RNG.uniform(0.2, 5.0)
            k = random_su2(RNG)
            g = IwasawaCoords(z, h, k).recompose()
            co = iwasawa_decompose(g)
            assert abs(co.z - z) < 1e-12
            assert abs(co.height - h) < 1e-12 * h
            # K is recovered up to nothing: exactly
            assert abs(co.k.alpha - k.alpha) + abs(co.k.beta - k.beta) < 1e-12

    def test_recomposition(self):
        for _ in range(1000):
            g = random_group_element(RNG, scale=5.0)
            back = iwasawa_decompose(g).recompose()
            err = np.max(np.abs(back.matrix() - g.matrix()))
            assert err < 1e-10

    def test_height_is_image_of_j(self):
        for _ in range(100):
            g = random_group_element(RNG)
            co = iwasawa_decompose(g)
            assert abs(mobius_act(g, H3Point(0, 0, 1)).lam - co.height) < 1e-10


class TestFrameTransport:
    def test_identity_element(self):
        k = frame_transport(GROUP_IDENTITY, H3Point(0.4, 0.1, 2.0))
        assert k.distance_to_identity() < 1e-14

    def test_translation_does_not_rotate(self):
        k = frame_transport(GroupElementSL2C.translation(3 - 1j),
                            H3Point(0.4, 0.1, 2.0))
        assert k.distance_to_identity() < 1e-14

    def test_matches_iwasawa_factor(self):
        for _ in range(100):
            gamma = random_group_element(RNG)
            p = random_point(RNG)
            g = gamma * (GroupElementSL2C.translation(p.z)
                         * GroupElementSL2C.dilation(p.lam))
            expect = iwasawa_decompose(g).k
            got = frame_transport(gamma, p)
            assert abs(got.alpha - expect.alpha) + abs(got.beta - expect.beta) < 1e-12

    def test_cocycle(self):
        for _ in range(100):
            g1, g2 = random_group_element(RNG), random_group_element(RNG)
            p = random_point(RNG)
            lhs = frame_transport(g1 * g2, p)
            rhs = frame_transport(g1, mobius_act(g2, p)) * frame_transport(g2, p)
            assert abs(lhs.alpha - rhs.alpha) + abs(lhs.beta - rhs.beta) < 1e-12


class TestFundamentalDomain:
    def test_high_point(self):
        assert in_fundamental_domain(H3Point(0, 0, 2))

    def test_low_interior_point(self):
        assert not in_fundamental_domain(H3Point(0.25, 0.25, 0.5))

    def test_side_face(self):
        assert in_fundamental_domain(H3Point(0.5, 0.5, 1.0))
        assert not in_fundamental_domain(H3Point(0.51, 0.0, 2.0))

    def test_sphere_boundary(self):
        assert in_fundamental_domain(H3Point(0.5, 0.0, sqrt(0.75)))
        assert not in_fundamental_domain(H3Point(0.5, 0.0, sqrt(0.75) - 1e-6))


class TestIntegrateDV:
    def test_box_tail(self):
        res = integrate_dV(lambda xs, ys, lams: np.ones(lams.shape),
                           ("box", 1.0, inf), vectorized=True)
        assert abs(res.value - 0.5) < 1e-10
        assert res.error_estimate < 1e-8

    def test_finite_box(self):
        res = integrate_dV(lambda xs, ys, lams: np.ones(lams.shape),
                           ("box", 1.0, 2.0), vectorized=True)
        assert abs(res.value - 3.0 / 8.0) < 1e-10

    def test_pointwise_interface(self):
        res = integrate_dV(lambda p: p.lam ** -1, ("box", 1.0, 4.0))
        # integral of lam^{-4} over (1, 4): (1 - 4^{-3})/3
        assert abs(res.value - (1 - 4.0 ** -3) / 3.0) < 1e-10

    def test_log_gaussian_on_strip(self):
        def f(xs, ys, lams):
            u = np.log(lams)
            return np.exp(-u * u) * lams ** 2
        res = integrate_dV(f, "strip", vectorized=True)
        assert abs(res.value - sqrt(pi)) < 1e-8

    def test_fundamental_domain_volume_sanity(self):
        # vol(F) for the Gaussian modular group is zeta_K(2)/(2 pi^2) * ... ;
        # here only a crude two-sided sanity envelope is asserted against
        # the containing box [−1/2,1/2]^2 × (lam_min, inf)
        res = integrate_dV(lambda xs, ys, lams: np.ones(lams.shape),
                           "fundamental", vectorized=True)
        assert 0.25 < res.value.real < 1.0
        assert abs(res.value.imag) < 1e-12

    def test_divergence_detected(self):
        with pytest.raises(ArithmeticError):
            integrate_dV(lambda xs, ys, lams: lams ** 3.0, "strip",
                         vectorized=True)

    def test_bad_domain(self):
        with pytest.raises(ValueError):
            integrate_dV(lambda p: 1.0, "nowhere")
        with pytest.raises(ValueError):
            integrate_dV(lambda p: 1.0, ("box", 2.0, 1.0))


def axis_integrand(shapes):
    """A smooth integrand decaying at both ends of the height axis, built
    from +, * and / only (correctly rounded, so every evaluation order of an
    entry gives the same bits), that records the shapes it is given."""
    def f(xs, ys, lams):
        shapes.append((np.shape(xs), np.shape(ys), np.shape(lams)))
        l2 = lams * lams
        return (1.0 + xs * ys + 0.5j * xs) * (l2 * l2) / (
            (1.0 + l2) * (1.0 + l2) * (1.0 + l2) * (1.0 + l2))
    return f


def on_full_grid(f):
    return lambda xs, ys, lams: f(*np.broadcast_arrays(xs, ys, lams))


class TestAxisContract:
    """integrate_dV passes the (x, y) points as (P, 1) columns and, where
    the heights do not depend on the point, the heights as a (1, Q) row."""

    def check(self, domain, heights_per_point=False):
        shapes = []
        axis = integrate_dV(axis_integrand(shapes), domain, vectorized=True)
        full = integrate_dV(on_full_grid(axis_integrand([])), domain,
                            vectorized=True)
        assert axis == full
        for xs, ys, lams in shapes:
            assert xs == ys == (xs[0], 1)
            assert lams == ((xs[0] if heights_per_point else 1), lams[1])

    def test_strip(self):
        self.check("strip")

    def test_fundamental_domain_heights_follow_the_floor(self):
        self.check("fundamental", heights_per_point=True)

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(lam1=st.floats(0.05, 5.0),
           ratio=st.one_of(st.floats(1.01, 50.0), st.just(inf)))
    def test_box(self, lam1, ratio):
        self.check(("box", lam1, lam1 * ratio))

    @pytest.mark.parametrize("domain", ["strip", "fundamental",
                                        ("box", 0.3, 2.0), ("box", 1.0, inf)])
    def test_pointwise_path_gives_the_same_values(self, domain):
        vec = axis_integrand([])

        def pointwise(p):
            return complex(vec(np.float64(p.x), np.float64(p.y),
                               np.float64(p.lam)))
        assert integrate_dV(pointwise, domain) == \
            integrate_dV(vec, domain, vectorized=True)

    def test_pointwise_path_broadcasts_the_axes(self):
        seen = []

        def f(p):
            seen.append(p)
            return p.x + p.lam
        fv = h3._as_vectorized(f, False)
        xs, ys = np.array([[0.1], [0.2]]), np.array([[0.3], [0.4]])
        vals = fv(xs, ys, np.array([[1.0, 2.0, 3.0]]))
        assert vals.shape == (2, 3) and len(seen) == 6
        assert vals[1, 2] == 0.2 + 3.0


class TestTypes:
    def test_height_validation(self):
        with pytest.raises(ValueError):
            H3Point(0, 0, 0.0)

    def test_determinant_validation(self):
        with pytest.raises(ValueError):
            GroupElementSL2C(1.0, 0.0, 0.0, 2.0)
