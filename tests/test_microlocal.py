import cmath
from math import comb, cos, exp, factorial, log, pi, sqrt

import mpmath
import numpy as np
import pytest

from picard_eisenstein import microlocal
from picard_eisenstein.eisenstein import TestFunctionPsi
from picard_eisenstein.h3 import (
    GroupElementSL2C, H3Point, frame_transport, mobius_act,
)
from picard_eisenstein.microlocal import (
    ZETA_K_CONSTANT_TERM, CuspFormSpec, FiberFunction, FiberMode, SeedMode,
    band_coefficient, cusp_pairing_formula, fiber_coefficients,
    gamma_factor_block, incomplete_pairing, invariant_fiber_function,
    main_term_coefficient, mellin_direct_result, mellin_eisenstein_result,
    mock_l_provider, reduce_to_fundamental, scan_t, verify_lemma_integral,
    verify_suma_es0,
)
from picard_eisenstein.lseries import l_function_continued
from picard_eisenstein.memo import ArrayMemo
from picard_eisenstein.microlocal import (_line_integrand,
                                          _mellin_log_derivative,
                                          _reduce_arrays)
from picard_eisenstein.specfun import PoleError, log_gamma
from picard_eisenstein.su2 import (
    SpectralIndex, haar_grid, random_su2, xi_weight,
)
from test_eisenstein import GAMMA_GENERATORS

RNG = np.random.default_rng(771002)

# band weight used throughout: high enough that the reduced band only meets
# its translates, narrow enough that the strip quadrature stays cheap
BAND_PSI = TestFunctionPsi(center=3.3, width=0.3)


def random_gamma(rng, length=6):
    g = GroupElementSL2C.identity()
    for _ in range(length):
        g = g * GAMMA_GENERATORS[rng.integers(0, len(GAMMA_GENERATORS))]
    return g


def xi_integer(l: int, k: int, v: int, u: int) -> float:
    """Reference: the weight written directly for integer indices."""
    n1 = l - (abs(v + k) + abs(v - k)) // 2
    n2 = l - (abs(v + k) - abs(v - k)) // 2
    return (factorial(u) * factorial(2 * l - u) * comb(n1, u) * comb(n2, u)
            / (factorial(l + k) * factorial(l - k)))


class TestXiWeight:
    def test_matches_integer_coefficients(self):
        for l in range(5):
            for k in range(-l, l + 1):
                for v in range(-l, l + 1):
                    top = l - (abs(v + k) + abs(v - k)) // 2
                    for u in range(top + 1):
                        assert xi_weight(l, k, v, u) == pytest.approx(
                            xi_integer(l, k, v, u), abs=1e-12)

    def test_low_order_values(self):
        assert xi_weight(0, 0, 0, 0) == 1.0
        assert xi_weight(1, 0, 0, 0) == 2.0
        assert xi_weight(1, 0, 0, 1) == 1.0
        assert xi_weight(2, 0, 0, 1) == 6.0


class TestFiberModes:
    def test_evaluate_sums_modes(self):
        f = FiberFunction((
            FiberMode(0, 0, 0, lambda p: p.lam),
            FiberMode(2, 2, 0, lambda p: 0.5),
        ))
        p = H3Point(0.1, -0.2, 2.0)
        a = random_su2(RNG)
        from picard_eisenstein.su2 import t_basis
        want = 2.0 * t_basis(0, 0, 0, a) + 0.5 * t_basis(2, 1, 0, a)
        assert abs(f.evaluate(p, a) - want) < 1e-14

    def test_coefficient_quadrature_cross_check(self):
        f = FiberFunction((
            FiberMode(0, 0, 0, lambda p: 1.3),
            FiberMode(2, 0, 2, lambda p: 0.7 - 0.2j),
            FiberMode(2, -2, 0, lambda p: 0.4j),
        ))
        p = H3Point(0.0, 0.0, 1.0)
        out = fiber_coefficients(f, p, cross_check=True, tol=1e-8)
        assert out[(2, 0, 1)] == pytest.approx(0.7 - 0.2j)

    def test_cross_check_catches_inconsistent_function(self):
        class Broken(FiberFunction):
            def evaluate(self, p, rotation=None):
                return 0.0 + 0.0j

        bad = Broken((FiberMode(2, 2, 2, lambda p: 1.0),))
        with pytest.raises(ArithmeticError):
            fiber_coefficients(bad, H3Point(0, 0, 1), cross_check=True,
                               grid=haar_grid(8, 12, 16), tol=1e-3)


class TestReduction:
    def test_reduced_point_in_domain(self):
        for _ in range(40):
            p = H3Point(RNG.uniform(-3, 3), RNG.uniform(-3, 3),
                        RNG.uniform(0.05, 3.0))
            q, gamma = reduce_to_fundamental(p)
            assert abs(q.x) <= 0.5 + 1e-12 and abs(q.y) <= 0.5 + 1e-12
            assert q.x * q.x + q.y * q.y + q.lam * q.lam >= 1.0 - 1e-12

    def test_gamma_maps_point_to_reduction(self):
        for _ in range(40):
            p = H3Point(RNG.uniform(-3, 3), RNG.uniform(-3, 3),
                        RNG.uniform(0.05, 3.0))
            q, gamma = reduce_to_fundamental(p)
            r = mobius_act(gamma, p)
            assert abs(r.x - q.x) < 1e-9
            assert abs(r.y - q.y) < 1e-9
            assert abs(r.lam - q.lam) < 1e-9

    def test_vectorized_matches_scalar(self):
        xs = RNG.uniform(-2, 2, 25)
        ys = RNG.uniform(-2, 2, 25)
        lams = RNG.uniform(0.1, 2.5, 25)
        x, y, lam, ta, tb = _reduce_arrays(xs, ys, lams)
        for i in range(25):
            p = H3Point(xs[i], ys[i], lams[i])
            q, gamma = reduce_to_fundamental(p)
            assert abs(x[i] - q.x) < 1e-9 and abs(lam[i] - q.lam) < 1e-9
            t0 = frame_transport(gamma, p)
            assert abs(ta[i] - t0.alpha) < 1e-9
            assert abs(tb[i] - t0.beta) < 1e-9

    def test_vectorized_matches_scalar_deep(self):
        # a dozen inversions per point; a rounding of the input moves the
        # reduced point and its rotation by that much times the stretch
        # lam_q / lam_p (up to 1e12 here), so the tolerance scales with it
        rng = np.random.default_rng(90412)
        xs = rng.uniform(-2, 2, 40)
        ys = rng.uniform(-2, 2, 40)
        lams = np.exp(rng.uniform(log(1e-12), log(1e-9), 40))
        x, y, lam, ta, tb = _reduce_arrays(xs, ys, lams)
        for i in range(40):
            p = H3Point(xs[i], ys[i], lams[i])
            q, gamma = reduce_to_fundamental(p)
            t0 = frame_transport(gamma, p)
            tol = 1e-14 * q.lam / p.lam
            assert abs(x[i] - q.x) < tol and abs(y[i] - q.y) < tol
            assert abs(lam[i] - q.lam) < tol
            assert abs(ta[i] - t0.alpha) < tol
            assert abs(tb[i] - t0.beta) < tol

    def test_inverting_call_is_memoized(self, monkeypatch):
        memo = ArrayMemo(microlocal.REDUCTION_MEMO_BYTES)
        monkeypatch.setattr(microlocal, "_REDUCTIONS", memo)
        rng = np.random.default_rng(5150)
        xs, ys = rng.uniform(-1, 1, (2, 64))
        lams = rng.uniform(1e-6, 0.5, 64)
        first = _reduce_arrays(xs, ys, lams)
        again = _reduce_arrays(xs.copy(), ys.copy(), lams.copy())
        assert len(memo) == 1 and again is first
        for a in first:
            assert not a.flags.writeable
        ys[7] = np.nextafter(ys[7], 1.0)
        moved = _reduce_arrays(xs, ys, lams)
        assert len(memo) == 2 and moved is not first
        monkeypatch.setattr(microlocal, "_REDUCTIONS",
                            ArrayMemo(microlocal.REDUCTION_MEMO_BYTES))
        cold = _reduce_arrays(xs, ys, lams)
        assert cold is not moved
        for a, b in zip(moved, cold):
            assert np.array_equal(a, b)

    def test_band_call_is_identity_and_not_stored(self, monkeypatch):
        memo = ArrayMemo(microlocal.REDUCTION_MEMO_BYTES)
        monkeypatch.setattr(microlocal, "_REDUCTIONS", memo)
        xs, ys = RNG.uniform(-2, 2, (2, 30))
        red = _reduce_arrays(xs, ys, np.full(30, 1.2))
        assert red.alpha is None and red.beta is None
        assert len(memo) == 0
        assert np.array_equal(red.x, xs - np.round(xs))

    def test_memo_is_bounded(self, monkeypatch):
        rng = np.random.default_rng(2718)
        grids = [rng.uniform(1e-3, 0.9, (3, 100)) for _ in range(3)]
        one = sum(a.nbytes for a in _reduce_arrays(*grids[0]))
        memo = ArrayMemo(2 * one)
        monkeypatch.setattr(microlocal, "_REDUCTIONS", memo)
        kept = [_reduce_arrays(*g) for g in grids]
        assert len(memo) == 2 and memo.nbytes <= 2 * one
        assert _reduce_arrays(*grids[2]) is kept[2]
        assert _reduce_arrays(*grids[0]) is not kept[0]


class TestInvariantFunction:
    def make(self):
        return invariant_fiber_function(
            [SeedMode(0, 0, 0, 1.0, (0, 0)),
             SeedMode(2, 0, 0, 0.5, (1, 1)),
             SeedMode(4, 4, 4, 0.6, (0, 0))], BAND_PSI)

    def test_band_must_clear_floor(self):
        with pytest.raises(ValueError):
            invariant_fiber_function([SeedMode(0, 0, 0)],
                                     TestFunctionPsi(center=0.0, width=1.0))

    def test_lattice_invariance(self):
        f = self.make()
        lo, hi = f.band
        for _ in range(12):
            p = H3Point(RNG.uniform(-2, 2), RNG.uniform(-2, 2),
                        exp(RNG.uniform(log(lo) + 0.2, log(hi) - 0.2)))
            k = random_su2(RNG)
            gamma = random_gamma(RNG)
            q = mobius_act(gamma, p)
            t0 = frame_transport(gamma, p)
            lhs = f.evaluate(q, t0 * k)
            rhs = f.evaluate(p, k)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_strip_values_match_pointwise(self):
        f = self.make()
        xs = RNG.uniform(-0.5, 0.5, 10)
        ys = RNG.uniform(-0.5, 0.5, 10)
        lams = np.exp(RNG.uniform(log(f.band[0]), log(f.band[1]), 10))
        vals = f.strip_values(xs, ys, lams)
        for i in range(10):
            want = f.evaluate(H3Point(xs[i], ys[i], lams[i]))
            assert abs(vals[i] - want) < 1e-12 * max(1.0, abs(want))

    def test_band_identity_path_matches_monomial(self, monkeypatch):
        # in the band no point is inverted and the Wigner factors are
        # skipped; the oracle hands the same reduction to wigner_monomial as
        # an explicit identity rotation
        f = invariant_fiber_function(
            [SeedMode(0, 0, 0, 1.0, (0, 0)), SeedMode(2, 2, 0, 0.7, (1, 0)),
             SeedMode(2, 0, 0, 0.5, (1, 1)), SeedMode(4, 4, 4, 0.6j, (0, 2)),
             SeedMode(4, -2, 4, 0.3, (0, 0))], BAND_PSI)
        xs, ys = RNG.uniform(-2, 2, (2, 4, 50))
        lams = np.exp(RNG.uniform(log(f.band[0]), log(f.band[1]), (4, 50)))
        assert _reduce_arrays(xs, ys, lams).alpha is None
        fast = f.strip_values(xs, ys, lams)

        def explicit_identity(*args):
            red = _reduce_arrays(*args)
            return red._replace(alpha=np.ones(red.x.shape, dtype=complex),
                                beta=np.zeros(red.x.shape, dtype=complex))
        monkeypatch.setattr(microlocal, "_reduce_arrays", explicit_identity)
        slow = f.strip_values(xs, ys, lams)
        assert fast.shape == slow.shape == (4, 50)
        assert np.array_equal(fast, slow)
        assert np.abs(fast).max() > 0.0

    @pytest.mark.parametrize("grid", ["band", "image"])
    def test_axes_equal_full_grid_bitwise(self, grid, monkeypatch):
        # the quadrature passes (P, 1), (P, 1), (1, Q) axes; the values are
        # those of the broadcast grid, bit for bit, and in the band no
        # reduction is run on the full grid
        monkeypatch.setattr(microlocal, "_REDUCTIONS",
                            ArrayMemo(microlocal.REDUCTION_MEMO_BYTES))
        f = invariant_fiber_function(
            [SeedMode(0, 0, 0, 1.0, (0, 0)), SeedMode(2, 2, 0, 0.7, (1, 0)),
             SeedMode(2, 0, 0, 0.5, (1, 1)), SeedMode(4, 4, 4, 0.6j, (0, 2)),
             SeedMode(4, -2, 4, 0.3, (0, 0))], BAND_PSI)
        rng = np.random.default_rng(6021)
        xs, ys = rng.uniform(-0.5, 0.5, (2, 40, 1))
        lo, hi = (log(f.band[0]), log(f.band[1])) if grid == "band" \
            else (log(1e-3), 0.0)
        lams = np.exp(rng.uniform(lo, hi, (1, 24)))
        full = np.broadcast_arrays(xs, ys, lams)
        red = _reduce_arrays(xs, ys, lams)
        assert (red.alpha is None) == (grid == "band")
        if grid == "band":
            assert red.x.shape == (40, 1) and red.lam.shape == (1, 24)
        got = f.strip_values(xs, ys, lams)
        want = f.strip_values(*full)
        assert got.shape == (40, 24)
        assert np.array_equal(got, want)
        assert np.abs(got).max() > 0.0

    def test_axis_keyed_memo_hit_equals_cold_reduction(self, monkeypatch):
        memo = ArrayMemo(microlocal.REDUCTION_MEMO_BYTES)
        monkeypatch.setattr(microlocal, "_REDUCTIONS", memo)
        rng = np.random.default_rng(6022)
        xs, ys = rng.uniform(-0.5, 0.5, (2, 30, 1))
        lams = rng.uniform(1e-4, 0.9, (1, 20))
        first = _reduce_arrays(xs, ys, lams)
        hit = _reduce_arrays(xs.copy(), ys.copy(), lams.copy())
        assert len(memo) == 1 and hit is first
        # the key holds the axes: the same points as full arrays are a
        # different call, reduced cold
        full = np.broadcast_arrays(xs, ys, lams)
        monkeypatch.setattr(microlocal, "_REDUCTIONS",
                            ArrayMemo(microlocal.REDUCTION_MEMO_BYTES))
        cold = _reduce_arrays(*(a.copy() for a in full))
        assert cold is not hit
        for a, b in zip(hit, cold):
            assert a.shape == (600,) and np.array_equal(a, b)


class TestMellinDirect:
    def test_single_plain_mode_closed_form(self):
        # plain (non-averaged) band mode at the trivial index: the strip
        # integral separates into the unit square times the height integral
        psi = TestFunctionPsi(center=1.0, width=0.5)
        f = FiberFunction((FiberMode(0, 0, 0, band_coefficient(psi)),))
        for s in (1.5, 2.0, 2.5):
            got = mellin_direct_result(f, s).value
            want = sqrt(1.0 / (2.0 * pi ** 2)) * complex(psi.mellin(1.0 - s))
            assert abs(got - want) < 1e-8 * abs(want)

    def test_cold_and_warm_memo_agree_bitwise(self, monkeypatch):
        monkeypatch.setattr(microlocal, "_REDUCTIONS",
                            ArrayMemo(microlocal.REDUCTION_MEMO_BYTES))
        f = invariant_fiber_function(
            [SeedMode(0, 0, 0), SeedMode(2, 0, 0, 0.5, (1, 1))],
            TestFunctionPsi(center=2.9, width=0.3))
        cold = mellin_direct_result(f, 1.8)
        assert len(microlocal._REDUCTIONS) > 0
        warm = mellin_direct_result(f, 1.8)
        assert warm.value == cold.value
        assert warm.error_estimate == cold.error_estimate

    def test_zero_function(self):
        f = FiberFunction((FiberMode(0, 0, 0, lambda p: 0.0),))
        assert abs(mellin_direct_result(f, 2.0).value) < 1e-12

    def test_requires_convergent_exponent(self):
        psi = TestFunctionPsi(center=1.0, width=0.5)
        f = FiberFunction((FiberMode(0, 0, 0, band_coefficient(psi)),))
        with pytest.raises(ValueError):
            mellin_direct_result(f, 0.5)


class TestTwoRouteMellin:
    def agree(self, f, s):
        d = mellin_direct_result(f, s)
        e = mellin_eisenstein_result(f, s)
        diff = abs(d.value - e.value)
        budget = max(1e-3, 3.0 * (d.error_estimate + e.error_estimate))
        assert diff <= budget, (s, d.value, e.value, diff, budget)

    def test_trivial_index_band(self):
        f = invariant_fiber_function([SeedMode(0, 0, 0)], BAND_PSI)
        self.agree(f, 1.5)
        self.agree(f, 2.0)

    def test_diagonal_higher_mode(self):
        f = invariant_fiber_function([SeedMode(4, 4, 4)], BAND_PSI)
        self.agree(f, 1.5)

    def test_mixed_seeds(self):
        f = invariant_fiber_function(
            [SeedMode(0, 0, 0, 1.0, (0, 0)),
             SeedMode(4, 4, 4, 0.6, (0, 0)),
             SeedMode(2, 0, 0, 0.5, (1, 1))], BAND_PSI)
        self.agree(f, 2.0)

    def test_odd_column_seed_pairs_to_zero(self):
        # odd k kills the series factor outright; the direct route sees the
        # same cancellation through the frame average
        f = invariant_fiber_function([SeedMode(2, 2, 0)], BAND_PSI)
        assert abs(mellin_eisenstein_result(f, 1.5).value) < 1e-12
        assert abs(mellin_direct_result(f, 1.5).value) < 1e-6


class TestCuspPairing:
    SPEC = CuspFormSpec(SpectralIndex.make(2, 0, 0), r=1.3)

    def test_gamma_block_decays_like_one_over_t(self):
        ts = np.geomspace(40.0, 160.0, 9)
        gs = np.array([gamma_factor_block(self.SPEC, t) for t in ts])
        slope = np.polyfit(np.log(ts), np.log(gs), 1)[0]
        assert abs(slope + 1.0) < 0.1

    def test_pairing_magnitude_decreases(self):
        vals = [abs(cusp_pairing_formula(self.SPEC, t, mock_l_provider))
                for t in (20.0, 40.0, 80.0)]
        assert vals[0] > vals[1] > vals[2]

    def test_unit_rotation_cancellation(self):
        spec = CuspFormSpec(SpectralIndex.make(2, 1, 1), r=1.0)
        assert cusp_pairing_formula(spec, 30.0, mock_l_provider) == 0.0

    def test_missing_provider_lists_requests(self):
        with pytest.raises(ValueError, match="L-values unavailable"):
            cusp_pairing_formula(self.SPEC, 30.0)

    @pytest.mark.parametrize("t, want", [
        (20.0, -0.006880867927100706 + 0.000340095713190193j),
        (77.0, 0.010971272213369656 - 0.006643084057433996j),
        (131.0, 0.007438573784034334 - 0.0027390104492661005j),
        (199.0, -5.2068341520753575e-05 + 0.00023199310019379467j)])
    def test_nonzero_character_matches_mpmath_era_values(self, t, want):
        # the mpmath theta split's values (perfbench/reference/cusp_scan.json)
        spec = CuspFormSpec(SpectralIndex.make(2, 2, 2), r=1.3)
        got = cusp_pairing_formula(spec, t, mock_l_provider)
        assert got == pytest.approx(want, rel=1e-9)


class TestIncompletePairing:
    PSI = TestFunctionPsi()

    def test_odd_index_vanishes(self):
        r = incomplete_pairing(SpectralIndex.make(2, 1, 0), self.PSI, 12.0)
        assert r.f1 == 0.0 and r.f2 == 0.0 and r.main_term == 0.0

    def test_off_diagonal_residue_is_zero(self):
        for (l, a, b) in ((2, 0, 2), (4, 2, 0)):
            r = incomplete_pairing(SpectralIndex.make(2 * l, 2 * a, 2 * b),
                                   self.PSI, 12.0, include_contour=False)
            assert r.residue_part == 0.0
            assert r.main_term == 0.0

    @pytest.mark.parametrize("psi", [
        TestFunctionPsi(), TestFunctionPsi(width=3.0),
        TestFunctionPsi(center=1.2, width=0.6)])
    def test_mellin_log_derivative_closed_form(self, psi):
        # H'/H at 2 from the defining integral of H in mpmath
        c, w = psi.center, psi.width
        with mpmath.workdps(30):
            def log_h(s):
                return mpmath.log(mpmath.quad(
                    lambda u: mpmath.exp(-((u - c) / w) ** 2 - s * u),
                    [-mpmath.inf, c, mpmath.inf]))
            want = float(mpmath.diff(log_h, 2))
        got = _mellin_log_derivative(psi)
        assert got == -c + w ** 2
        assert abs(got - want) <= 1e-14 * abs(want)

    def test_main_term_coefficient_trivial_index(self):
        # H(2)/(4 zeta_K(2)) with H(2) = sqrt(pi) * e for the default weight
        c = main_term_coefficient(SpectralIndex.make(0, 0, 0), self.PSI)
        assert c == pytest.approx(sqrt(pi) * exp(1.0) / (4.0 * 1.5067030),
                                  rel=1e-5)
        assert main_term_coefficient(SpectralIndex.make(2, 0, 0),
                                     self.PSI) == pytest.approx(0.0, abs=1e-13)
        assert main_term_coefficient(SpectralIndex.make(4, 2, 2),
                                     self.PSI) == 0.0

    def test_oscillating_constant_products_are_negligible(self):
        # the surviving f1 cross terms carry transform values at height
        # exponents shifted by +-2it, double-exponentially small in t
        r = incomplete_pairing(SpectralIndex.make(0, 0, 0), self.PSI, 12.0,
                               include_contour=False)
        assert abs(r.f1) < 1e-30

    def test_full_pairing_small_t(self):
        r = incomplete_pairing(SpectralIndex.make(0, 0, 0), self.PSI, 12.0)
        assert abs(r.value.imag) < 1e-8
        assert r.value.real > 0.0
        assert r.value == pytest.approx(r.f1 + r.f2)
        assert r.remainder == pytest.approx(r.value - r.main_term)

    def test_diagonal_nonzero_index_has_simple_pole_residue(self):
        r = incomplete_pairing(SpectralIndex.make(4, 4, 4), self.PSI, 12.0,
                               include_contour=False)
        assert r.residue_part != 0.0
        assert r.main_term == 0.0

    def test_antidiagonal_nonzero_index(self):
        r = incomplete_pairing(SpectralIndex.make(4, 4, -4), self.PSI, 12.0,
                               include_contour=False)
        assert r.residue_part != 0.0
        assert r.main_term == 0.0

    def test_zeta_constant_term_closed_form(self):
        # zeta_K(1 + h) - (pi/4)/h at 80 digits, h = 1e-30, against the
        # closed-form constant the double-pole residue uses
        with mpmath.workdps(80):
            h = mpmath.mpf("1e-30")
            s = 1 + h
            zk = mpmath.zeta(s) * 4 ** (-s) * (
                mpmath.zeta(s, mpmath.mpf(1) / 4)
                - mpmath.zeta(s, mpmath.mpf(3) / 4))
            want = float(zk - mpmath.pi / 4 / h)
        assert abs(ZETA_K_CONSTANT_TERM - want) <= 1e-15


def line_integrand_reference(l, a, b, t, psi, n_terms, h_floor, tau):
    """Reference: the integrand row at one node, one L-value call per
    factor (the per-node body the batched passes replaced)."""
    h2 = abs(a + b) // 2
    it = 1j * t
    lg_den = log_gamma(1.0 + it)
    out = np.zeros(n_terms, dtype=complex)
    s = complex(1.0, tau)
    hval = complex(psi.mellin(s))
    if abs(hval) <= h_floor:
        return out
    try:
        den = l_function_continued(s, 2 * b)
    except PoleError:
        return out
    ell = (l_function_continued(s / 2.0, a + b)
           * l_function_continued(s / 2.0 + it, a + b)
           * l_function_continued(s / 2.0 - it, b - a)
           * l_function_continued(s / 2.0, b - a))
    base = hval * ell / (cmath.exp(s * log(pi)) * den)
    for u in range(n_terms):
        lg = (log_gamma(s / 2.0 + l - u - h2)
              + log_gamma(s / 2.0 + h2 + it)
              + log_gamma(s / 2.0 + l - u - h2 - it)
              + log_gamma(s / 2.0 + h2)
              - log_gamma(s + l - u)
              - lg_den - log_gamma(1.0 + l - u - it))
        out[u] = base * cmath.exp(lg)
    return out


class TestLineIntegral:
    TAUS = (-3.1, -0.05, 0.0, 0.05, 2.7)

    @pytest.mark.parametrize("l, a, b, psi", [
        (0, 0, 0, TestFunctionPsi()),
        (0, 0, 0, TestFunctionPsi(kind="compact-bump", support=(1.0, 4.0))),
        (2, 2, 2, TestFunctionPsi()),
    ])
    def test_batched_rows_match_per_node_reference(self, l, a, b, psi):
        t = 12.0
        n_terms = l - (abs(b + a) + abs(b - a)) // 2 + 1
        h_floor = 1e-14 * abs(complex(psi.mellin(1.0)))
        rows = _line_integrand(l, a, b, t, psi, n_terms,
                               h_floor)(np.array(self.TAUS))
        assert rows.shape == (len(self.TAUS), n_terms)
        for tau, row in zip(self.TAUS, rows):
            want = line_integrand_reference(l, a, b, t, psi, n_terms,
                                            h_floor, tau)
            if tau == 0.0 and b == 0:
                assert np.all(row == 0.0) and np.all(want == 0.0)
                continue
            assert np.max(np.abs(row - want)) <= 1e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize("t, want", [(35.0, 82266.84512415189),
                                         (65.0, 106012.80377749284)])
    def test_pairing_matches_mpmath_era_values(self, t, want):
        # values of the per-node mpmath line integral at the same settings
        r = incomplete_pairing(SpectralIndex.make(0, 0, 0),
                               TestFunctionPsi(width=3.0), t)
        assert r.value == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("t, want", [
        (20.0, -3170.005514633811 + 1785.7342421038438j),
        (40.0, -3212.9025655925293 + 1707.2660005740245j)])
    def test_nonzero_index_pairing_matches_mpmath_era_values(self, t, want):
        # values with every Hecke L-value from the mpmath theta split
        r = incomplete_pairing(SpectralIndex.make(2, 2, 2),
                               TestFunctionPsi(width=3.0), t)
        assert r.value == pytest.approx(want, rel=1e-8)


class TestIdentities:
    def test_alternating_weight_sum_vanishes(self):
        assert verify_suma_es0(0) == 1.0
        for l in range(1, 9):
            assert verify_suma_es0(l) <= 1e-12

    def test_height_volume_identity(self):
        rep = verify_lemma_integral(TestFunctionPsi())
        assert rep.deviation <= 1e-8

    def test_height_volume_identity_shifted(self):
        rep = verify_lemma_integral(TestFunctionPsi(center=1.2, width=0.6))
        assert rep.deviation <= 1e-8


class TestScan:
    def test_incomplete_rows_sorted_and_consistent(self):
        rows = scan_t("incomplete", [30.0, 10.0, 20.0],
                      {"include_contour": False})
        assert [r.t for r in rows] == [10.0, 20.0, 30.0]
        for r in rows:
            assert r.value_over_lnt == pytest.approx(r.value.real / log(r.t))

    def test_cusp_rows(self):
        rows = scan_t("cusp", [20.0, 40.0])
        assert rows[0].main_term == 0.0
        assert abs(rows[0].value) > abs(rows[1].value)

    def test_rejects_bad_grid_and_task(self):
        with pytest.raises(ValueError):
            scan_t("incomplete", [0.5, 2.0])
        with pytest.raises(ValueError):
            scan_t("nope", [2.0])
