"""End-to-end acceptance checks, one class per numbered criterion."""

import os
import subprocess
import sys
from functools import lru_cache
from math import exp, log, pi, sqrt
from pathlib import Path

import mpmath
import numpy as np
import pytest

from picard_eisenstein import eisenstein
from picard_eisenstein.cli import RunConfig, _suite_wigner, main
from picard_eisenstein.eisenstein import (
    SeriesParams, TestFunctionPsi, eisenstein_coset_sum,
    eisenstein_fourier_group, f_seed,
)
from picard_eisenstein.h3 import GroupElementSL2C, H3Point
from picard_eisenstein.lseries import (
    SyntheticCuspCoefficients, d_sum_closed, d_sum_direct,
    lfc_identity_check, ramanujan_identity_check,
)
from picard_eisenstein.microlocal import (
    CuspFormSpec, SeedMode, cusp_pairing_formula, gamma_factor_block,
    incomplete_pairing, invariant_fiber_function, mellin_direct_result,
    mellin_eisenstein_result, mock_l_provider, verify_lemma_integral,
    verify_suma_es0,
)
from picard_eisenstein.specfun import (
    bessel_k_complex, bessel_k_half, digamma, digamma_shifted,
    kk_mellin_integral,
)
from picard_eisenstein.su2 import SpectralIndex, random_su2, wigner_D_su2

RNG_SEED = 20210


@lru_cache(maxsize=1)
def wigner_rows():
    return {name: (dev, tol)
            for name, dev, tol in _suite_wigner(RunConfig())}


class TestCriterion01Wigner:
    def test_matrix_identities(self):
        rows = wigner_rows()
        for name in ("unitarity", "representation-product",
                     "symmetries-and-base-change"):
            dev, _ = rows[name]
            assert dev <= 1e-12, (name, dev)


class TestCriterion02SpinCover:
    def test_cover_identities(self):
        rows = wigner_rows()
        for name in ("spin-cover-homomorphism", "spin-cover-kernel",
                     "euler-round-trip"):
            dev, _ = rows[name]
            assert dev <= 1e-12, (name, dev)


class TestCriterion03Orthogonality:
    def test_haar_gram_matrix(self):
        dev, _ = wigner_rows()["basis-orthogonality-l<=2"]
        assert dev <= 1e-6


class TestCriterion04ExponentialSums:
    def test_closed_form_and_truncation_decay(self):
        for w in (0.5, 0.5 + 0.5j, 1.0):
            for k in (0, 2):
                closed = d_sum_closed(k, w, 1.5)
                r1 = abs(d_sum_direct(k, w, 1.5, 10 ** 4)
                         - closed) / abs(closed)
                assert r1 <= 1e-4, (w, k, r1)
                r2 = abs(d_sum_direct(k, w, 1.5, 10 ** 5)
                         - closed) / abs(closed)
                assert r2 <= max(r1 / 2.0, 1e-10), (w, k, r1, r2)


class TestCriterion05BesselIdentities:
    def test_half_order_closed_form(self):
        for x in map(float, np.geomspace(0.05, 30.0, 25)):
            want = sqrt(pi / (2.0 * x)) * exp(-x)
            assert abs(bessel_k_half(x) - want) <= 1e-12 * max(1.0, want)
            assert abs(bessel_k_complex(0.5, float(x)) - want) <= 1e-12

    def test_product_transform_against_quadrature(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(20):
            mu = complex(rng.uniform(-0.4, 0.4), rng.uniform(-2, 2))
            nu = complex(rng.uniform(-0.4, 0.4), rng.uniform(-2, 2))
            zmax = 1.0 - abs(mu.real) - abs(nu.real)
            z = complex(rng.uniform(zmax - 1.5, zmax - 0.5),
                        rng.uniform(-1, 1))
            val = kk_mellin_integral(z, mu, nu)
            with mpmath.workdps(30):
                ref = complex(mpmath.quad(
                    lambda x: (x ** (-mpmath.mpc(z)) * mpmath.besselk(mu, x)
                               * mpmath.besselk(nu, x)),
                    [0, 0.1, 1, 5, 15, 40]))
            assert abs(val - ref) / abs(ref) <= 1e-8


SERIES_INDICES = ((0, 0, 0), (1, 0, 0), (1, 1, 1), (2, 1, 0))
SERIES_POINTS = (H3Point(0.13, 0.21, 1.1), H3Point(-0.31, 0.05, 0.95),
                 H3Point(0.02, -0.44, 1.6))


@lru_cache(maxsize=1)
def series_coset_values():
    out = {}
    for lkm in SERIES_INDICES:
        params = SeriesParams(SpectralIndex.make(*lkm), 2.0)
        for i, p in enumerate(SERIES_POINTS):
            g = (GroupElementSL2C.translation(p.z)
                 * GroupElementSL2C.dilation(p.lam))
            out[(lkm, i)] = (params, g, eisenstein_coset_sum(params, g))
    return out


class TestCriterion06TwoRouteSeries:
    def failures(self):
        bad = []
        for key, (params, g, cs) in series_coset_values().items():
            fv = eisenstein_fourier_group(params, g)
            budget = max(1e-4 * max(abs(cs.value), 1e-30),
                         3.0 * cs.tail_bound)
            if abs(cs.value - fv) > budget:
                bad.append(key)
        return bad

    def test_agreement_at_configured_constant(self):
        assert eisenstein.INDEX_GAMMA_INF == 4
        assert self.failures() == []

    def test_perturbed_constant_breaks_agreement(self, monkeypatch):
        for wrong in (3, 5):
            monkeypatch.setattr(eisenstein, "INDEX_GAMMA_INF", wrong)
            assert self.failures()


class TestCriterion07Appendix:
    def test_alternating_weight_sums(self):
        for l in range(1, 9):
            assert verify_suma_es0(l) <= 1e-12

    def test_digamma_recurrence(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(20):
            s = complex(rng.uniform(0.2, 3.0), rng.uniform(-20.0, 20.0))
            m = int(rng.integers(1, 12))
            assert abs(digamma_shifted(s, m) - digamma(s + m)) <= 1e-12

    def test_height_volume_integral(self):
        assert verify_lemma_integral(TestFunctionPsi()).deviation <= 1e-8

    def test_coefficient_convolution(self):
        coeffs = SyntheticCuspCoefficients.seeded(2 * 10 ** 4, RNG_SEED)
        rep = lfc_identity_check(coeffs, -8.0, 0, 0.5 + 0.25j,
                                 truncation=2 * 10 ** 4)
        assert rep.rel_deviation <= 1e-5

    def test_seed_rotation_equivariance(self):
        rng = np.random.default_rng(RNG_SEED)
        g = (GroupElementSL2C.translation(0.2 - 0.1j)
             * GroupElementSL2C.dilation(1.3))
        for _ in range(5):
            bb = random_su2(rng)
            gb = g * GroupElementSL2C.from_su2(bb)
            for k in (-1, 0, 1):
                lhs = f_seed(SpectralIndex.make(1, k, 0), gb, 2.0)
                rhs = sum(
                    complex(wigner_D_su2(1, k, a, bb.inv())).conjugate()
                    * f_seed(SpectralIndex.make(1, a, 0), g, 2.0)
                    for a in (-1, 0, 1))
                assert abs(lhs - rhs) <= 1e-12


class TestCriterion08ConvolutionIdentity:
    def test_both_parameter_points(self):
        r1 = ramanujan_identity_check(0, 0, 0, 0.0, 0.0, 3.0,
                                      truncation=10 ** 5)
        assert r1.rel_deviation <= 1e-4
        r2 = ramanujan_identity_check(1, 0, 0, 0.5, -0.25, 4.0,
                                      truncation=10 ** 5)
        assert r2.rel_deviation <= 1e-4


class TestCriterion09TwoRouteTransform:
    PSI = TestFunctionPsi(center=3.3, width=0.3)

    def families(self):
        return (
            invariant_fiber_function([SeedMode(0, 0, 0)], self.PSI),
            invariant_fiber_function([SeedMode(4, 4, 4)], self.PSI),
            invariant_fiber_function([SeedMode(4, -4, -4, 0.8)], self.PSI),
            invariant_fiber_function([SeedMode(0, 0, 0, 1.0, (1, 0))],
                                     self.PSI),
            invariant_fiber_function([SeedMode(0, 0, 0, 1.0, (0, 0)),
                                      SeedMode(4, 4, 4, 0.6, (0, 0)),
                                      SeedMode(2, 0, 0, 0.5, (1, 1))],
                                     self.PSI),
        )

    def test_direct_vs_series_assembly(self):
        for f in self.families():
            for s in (1.5, 2.0):
                d = mellin_direct_result(f, s)
                e = mellin_eisenstein_result(f, s)
                diff = abs(d.value - e.value)
                budget = max(1e-3,
                             3.0 * (d.error_estimate + e.error_estimate))
                assert diff <= budget, (f.seeds, s, diff, budget)


class TestCriterion10CuspDecay:
    SPEC = CuspFormSpec(SpectralIndex.make(2, 0, 0), r=1.3)

    def test_gamma_block_slope(self):
        ts = np.geomspace(40.0, 160.0, 9)
        gs = np.array([gamma_factor_block(self.SPEC, t) for t in ts])
        slope = np.polyfit(np.log(ts), np.log(gs), 1)[0]
        assert abs(slope + 1.0) <= 0.1

    def test_pairing_magnitude_decreasing(self):
        vals = [abs(cusp_pairing_formula(self.SPEC, t, mock_l_provider))
                for t in (20.0, 40.0, 80.0)]
        assert vals[0] > vals[1] > vals[2]


class TestCriterion11MainTerm:
    PSI = TestFunctionPsi()

    def test_logarithmic_growth_constant(self):
        target = sqrt(pi) * exp(1.0) / (4.0 * 1.5067030)
        r = incomplete_pairing(SpectralIndex.make(0, 0, 0), self.PSI, 200.0)
        ratio = r.value.real / log(200.0)
        assert abs(ratio - target) <= 0.15 * target, (ratio, target)

    def test_higher_degree_stays_bounded(self):
        idx = SpectralIndex.make(1, 0, 0)
        r50 = incomplete_pairing(idx, self.PSI, 50.0)
        r200 = incomplete_pairing(idx, self.PSI, 200.0)
        assert abs(r50.main_term) <= 1e-12 * log(50.0)
        assert abs(r200.value) <= 1.25 * abs(r50.value)

    def test_off_diagonal_residue_exactly_zero(self):
        for (l, a, b) in ((1, 0, 1), (2, 0, 2), (3, 1, -3)):
            r = incomplete_pairing(SpectralIndex.make(2 * l, 2 * a, 2 * b),
                                   self.PSI, 60.0, include_contour=False)
            assert r.residue_part == 0.0


class TestCriterion12Determinism:
    def run_twice(self, argv, tmp_path, tag):
        # the first run fills the process-wide caches, the second reads them
        outs = []
        for run in ("cold", "warm"):
            path = tmp_path / f"{tag}-{run}.out"
            code = main(argv + ["--out", str(path)])
            assert code == 0
            outs.append(path.read_bytes())
        return outs

    @pytest.mark.parametrize("suite", ["wigner", "lattice", "lfunctions",
                                       "eisenstein", "appendix", "mellin",
                                       "microlocal"])
    def test_verify_suites_byte_identical(self, suite, tmp_path):
        a, b = self.run_twice(["verify", suite, "--format", "json"],
                              tmp_path, suite)
        assert a == b

    def test_scan_byte_identical(self, tmp_path):
        a, b = self.run_twice(
            ["scan", "--task", "incomplete", "--t-min", "10", "--t-max",
             "40", "--steps", "4", "--no-contour"], tmp_path, "scan-inc")
        assert a == b
        a, b = self.run_twice(
            ["scan", "--task", "cusp", "--t-min", "20", "--t-max", "80",
             "--steps", "4", "--format", "json"], tmp_path, "scan-cusp")
        assert a == b

    def test_byte_identical_across_processes(self, tmp_path):
        # fresh interpreters with different string-hash seeds
        src = str(Path(eisenstein.__file__).resolve().parents[1])
        runs = {"lattice": ["verify", "lattice", "--format", "json"],
                "mellin": ["verify", "mellin", "--format", "json"],
                "cusp": ["scan", "--task", "cusp", "--t-min", "20",
                         "--t-max", "80", "--steps", "4", "--format",
                         "json"]}
        for tag, argv in runs.items():
            outs = []
            for hashseed in ("0", "1"):
                path = tmp_path / f"{tag}-{hashseed}.out"
                env = dict(os.environ, PYTHONHASHSEED=hashseed,
                           PYTHONPATH=os.pathsep.join(
                               filter(None, [src,
                                             os.environ.get("PYTHONPATH")])))
                subprocess.run([sys.executable, "-m", "picard_eisenstein.cli",
                                *argv, "--out", str(path)],
                               env=env, check=True, capture_output=True)
                outs.append(path.read_bytes())
            assert outs[0] == outs[1], tag
