"""End-to-end acceptance checks for the calibrated-equivalence suite.

Each test pins down one headline guarantee of the package: the
documented numerical table, exact pathwise agreement of the matched
rules across the whole problem catalogue, prior-independence of the
inverted critical value, bitwise power coincidence under common random
numbers, uniform dominance of the classical variance test over the
proper-prior rule, the structural property catalogue, series-versus-
quadrature integrity, and the minimally-favorable point-mass
comparison.
"""

import csv
import math
import os
import time

import numpy as np
from numpy.testing import assert_allclose
from scipy import stats

from bfequiv import bayes_factors as bf
from bfequiv.calibrate import calibrate, gamma_from_lambda, verify_equivalence
from bfequiv.cli import build_bf, main
from bfequiv.expfamily import normal_mean_model
from bfequiv.power import dominance_study, exact_power, johnson_comparison, mc_power
from bfequiv.priors import (
    PointMass,
    ScaledSymmetricPrior,
    SphericalPrior,
    standard_normal_log_h,
)
from bfequiv.problems import (
    GaussianMeanUnknownVar,
    OneSidedNormal,
    RegressionUnknownVar,
    SubjectiveVarianceEquality,
    SubsetSelection,
    TwoSampleMeansUnknownEqualVar,
    TwoSidedNormal,
    VarianceRatio,
)
from bfequiv.properties import run_catalogue
from bfequiv.rng import RngStream


def problem_catalogue():
    """The seven calibrated problems: (name, problem, of_stat, of_summary, grid)."""
    entries = []

    p = OneSidedNormal(n=4)
    g1 = lambda t: bf.bf_one_sided_normal_halfnormal(np.asarray(t, dtype=float), 4, 1.0)
    entries.append(("one_sided_normal", p, g1, lambda s: g1(s.t), np.linspace(0.0, 2.0, 21)))

    p = TwoSidedNormal(n=4)
    g2 = lambda t: bf.bf_two_sided_normal_conjugate(np.asarray(t, dtype=float), 4, 1.0)
    entries.append(("two_sided_normal", p, g2, lambda s: g2(s.t), np.linspace(-1.5, 1.5, 21)))

    # the CLI's production routes (Gaussian closed forms)
    p = GaussianMeanUnknownVar(n=12)
    pair = build_bf(p, {"kind": "gaussian_scale"})
    entries.append(("t_test", p, pair.of_stat, pair.of_summary, np.linspace(-1.0, 1.0, 21)))

    p = RegressionUnknownVar(p=2, n=20)
    pair = build_bf(p, {"kind": "gaussian_spherical", "precision": 1.0})
    entries.append(
        ("regression_f", p, pair.of_stat, pair.of_summary, np.linspace(0.0, 3.0, 21))
    )

    p = TwoSampleMeansUnknownEqualVar(n1=8, n2=10)
    eng = bf.TwoSampleTBf(8, 10, 1.0)
    entries.append(
        (
            "two_sample_t",
            p,
            eng.from_t,
            lambda s, e=eng: e(s.xbar1, s.xbar2, s.s1_sq, s.s2_sq),
            np.linspace(-1.5, 1.5, 21),
        )
    )

    p = VarianceRatio(n1=8, n2=10)
    eng = bf.VarianceRatioBf(PointMass(2.0), 8, 10)
    entries.append(("variance_ratio", p, eng, lambda s, e=eng: e(s.f), np.linspace(1.0, 5.0, 21)))

    p = SubsetSelection(n=20, p1=2, p2=3)
    eng = bf.SubsetSelectionBf(20, 3, 1.0)
    entries.append(
        ("subset_selection", p, eng.from_f, lambda s, e=eng: e(s.t_stat), np.linspace(0.0, 30.0, 21))
    )

    return entries


class TestSection6Reproduction:
    """Criterion 1: the documented Bayes-factor table and its sources."""

    def test_table_values_and_runtime(self, tmp_path):
        start = time.monotonic()
        out = str(tmp_path / "out")
        assert main(["reproduce-sec6", "--out", out]) == 0
        elapsed = time.monotonic() - start
        assert elapsed < 1.0

        with open(os.path.join(out, "reproduce_sec6.csv"), newline="") as fh:
            rows = {float(r["n_over_tau"]): r for r in csv.DictReader(fh)}

        for ratio, reference_value in ((10_000.0, 1.5), (100.0, 14.8)):
            # independent evaluation of the displayed closed form with
            # n xbar^2 = 10: B = (1+r)^{-1/2} exp(5 r / (1+r))
            exact = (1.0 + ratio) ** -0.5 * math.exp(5.0 * ratio / (1.0 + ratio))
            approx = (1.0 + ratio) ** -0.5 * math.exp(5.0)
            got_exact = float(rows[ratio]["B_exact"])
            got_approx = float(rows[ratio]["B_approx"])
            assert abs(got_exact - exact) <= 0.005 * exact
            assert abs(got_approx - reference_value) <= 0.05 * reference_value

        # the two reference magnitudes themselves
        assert abs(float(rows[10_000.0]["B_exact"]) - 1.483) < 0.005 * 1.483
        assert abs(float(rows[100.0]["B_exact"]) - 14.06) < 0.005 * 14.06


class TestExactDecisionAgreement:
    """Criterion 2: 100% pathwise agreement across all seven problems."""

    def test_full_agreement_each_problem(self):
        start = time.monotonic()
        for i, (name, problem, of_stat, of_summary, grid) in enumerate(problem_catalogue()):
            rule = calibrate(problem, 0.05, of_stat).rule
            report = verify_equivalence(
                problem, of_summary, rule, RngStream(100 + i), 100_000
            )
            assert report.n_total == 100_000, name
            assert report.n_mismatch == 0, (name, report.examples)
        assert time.monotonic() - start < 120.0


class TestPriorIndependence:
    """Criterion 3: three priors invert to the identical critical value."""

    def test_gamma_identical_across_priors(self):
        start = time.monotonic()
        problem = OneSidedNormal(n=4)
        model = normal_mean_model()
        engines = [
            lambda t: bf.bf_one_sided(model, PointMass(1.0), np.asarray(t, dtype=float), 4),
            lambda t: bf.bf_one_sided_normal_halfnormal(np.asarray(t, dtype=float), 4, 2.0),
            lambda t: bf.bf_one_sided_normal_exponential(np.asarray(t, dtype=float), 4, 1.0),
        ]
        gammas = []
        for g in engines:
            lam = calibrate(problem, 0.05, g).rule.lam
            region, implied = gamma_from_lambda(problem, g, lam)
            gammas.append(region.gamma)
            assert abs(implied - 0.05) < 1e-9
        for gamma in gammas:
            assert abs(gamma - 3.289707) < 1e-6
        assert abs(max(gammas) - min(gammas)) < 1e-9
        assert time.monotonic() - start < 1.0


class TestPowerCoincidence:
    """Criterion 4: bit-identical CRN power curves plus the exact oracle."""

    def test_crn_curves_identical_everywhere(self):
        for i, (name, problem, of_stat, of_summary, grid) in enumerate(problem_catalogue()):
            rule = calibrate(problem, 0.05, of_stat).rule
            classical, bayes, identical = mc_power(
                problem,
                rule,
                RngStream(200 + i),
                grid,
                100_000,
                bf_of_summary=of_summary,
            )
            assert identical, name
            assert np.array_equal(classical.power, bayes.power), name

    def test_exact_one_sided_power_value(self):
        problem = OneSidedNormal(n=4)
        rule = calibrate(
            problem,
            0.05,
            lambda t: bf.bf_one_sided_normal_halfnormal(np.asarray(t, dtype=float), 4, 1.0),
        ).rule
        curve = exact_power(problem, rule.region, [1.0], alpha=0.05)
        assert abs(curve.power[0] - 0.63876) <= 1e-5


class TestDominance:
    """Criterion 5: proper nuisance priors never beat the classical test."""

    def test_uniform_dominance_and_bridge(self):
        start = time.monotonic()
        problem = SubjectiveVarianceEquality(n1=10, n2=10, a=2.0, b=2.0)
        report = dominance_study(
            problem, 0.05, [1.5, 2.0, 3.0, 5.0], RngStream(43), 1_000_000
        )
        elapsed = time.monotonic() - start
        # both rules calibrated to size 0.05 within +-0.001
        assert abs(report.size_classical - 0.05) <= 1e-3
        assert abs(report.size_subjective_limit - 0.05) <= 1e-3
        # subjective power <= classical power within 3 combined se everywhere
        gaps = report.power_subjective - report.power_classical
        assert np.all(gaps <= 3.0 * report.se)
        assert report.verdict == "PASS"
        # threshold bridge: gamma <= matched Bayes bound, to 1e-9
        assert report.bridge_residual <= 1e-9
        assert elapsed < 300.0


class TestStructuralProperties:
    """Criterion 6: full property catalogue at 200 trials, default seed."""

    def test_catalogue_200_trials(self):
        start = time.monotonic()
        results, transcript = run_catalogue(RngStream(0), n_trials=200)
        assert len(results) >= 12
        failures = [r for r in results if not r.passed]
        assert not failures, transcript
        assert time.monotonic() - start < 600.0


class TestNumericalIntegrity:
    """Criterion 7: series vs quadrature on 50 randomized instances each."""

    def test_t_test_series_vs_quadrature(self):
        gen = np.random.default_rng(701)
        h = ScaledSymmetricPrior(standard_normal_log_h)
        for _ in range(50):
            n = int(gen.integers(3, 25))
            xbar = float(gen.normal(0.0, 1.0))
            extra = float(gen.uniform(0.5, 20.0))
            sum_sq = n * xbar**2 + extra
            engine = bf.TTestBf(h, n)
            b_series = float(engine(xbar, sum_sq))
            b_quad = bf.bf_t_test_quadrature(xbar, sum_sq, n, h)
            assert_allclose(b_series, b_quad, rtol=1e-6)

    def test_regression_f_series_vs_quadrature(self):
        gen = np.random.default_rng(702)
        for _ in range(50):
            p = int(gen.integers(1, 5))
            n = int(gen.integers(p + 2, p + 30))
            t_hat = float(gen.uniform(0.0, 0.85))
            engine = bf.RegressionUnknownVarBf(
                SphericalPrior.gaussian(p, float(gen.uniform(0.3, 3.0))), n
            )
            assert_allclose(
                float(engine.series(t_hat)), engine.quadrature(t_hat), rtol=1e-6
            )

    def test_regression_known_var_series_vs_quadrature(self):
        gen = np.random.default_rng(703)
        for _ in range(50):
            p = int(gen.integers(1, 6))
            t_abs = float(gen.uniform(0.0, 25.0))
            engine = bf.RegressionKnownVarBf(
                SphericalPrior.gaussian(p, float(gen.uniform(0.3, 3.0)))
            )
            assert_allclose(
                float(engine.series(t_abs)), engine.quadrature(t_abs), rtol=1e-6
            )


class TestMinimallyFavorablePointMass:
    """Criterion 8: the threshold-matched point mass and its recalibrated power."""

    def test_theta_star_against_grid_oracle(self):
        comp = johnson_comparison(
            10.0, 10, np.linspace(0.0, 1.2, 5), rng=RngStream(801), n_sims=10_000
        )
        # brute-force oracle: minimize (log lam + n theta^2/2)/theta on a grid
        thetas = np.linspace(1e-6, 3.0, 600_001)
        g = (math.log(10.0) + 10 * thetas**2 / 2.0) / thetas
        oracle = float(thetas[np.argmin(g)])
        assert abs(comp.theta_star - 0.6786) <= 1e-4
        assert abs(comp.theta_star - oracle) <= 1e-4

    def test_recalibrated_power_matches_classical(self):
        comp = johnson_comparison(
            10.0,
            10,
            np.linspace(0.0, 1.2, 21),
            alpha_matched=0.05,
            rng=RngStream(802),
            n_sims=100_000,
        )
        assert comp.verdict == "PASS"
        gap = np.abs(comp.power_point_mass - comp.power_classical)
        assert np.all(gap <= 3.0 * np.maximum(comp.se, 1e-12))
        # and the shared curve tracks the exact classical law
        mc_se = np.sqrt(np.maximum(comp.power_exact * (1 - comp.power_exact), 1e-9) / 100_000)
        assert np.all(np.abs(comp.power_classical - comp.power_exact) <= 3.0 * mc_se + 1e-12)
