import math

import numpy as np
from numpy.testing import assert_allclose
from scipy import stats

from bfequiv import bayes_factors as bf
from bfequiv.calibrate import calibrate, gamma_from_alpha
from bfequiv.expfamily import ExpFamilyModel
from bfequiv.power import (
    calibrate_lambda_mc,
    dominance_study,
    exact_power,
    johnson_comparison,
    mc_power,
)
from bfequiv.problems import (
    GaussianMeanUnknownVar,
    OneSidedNormal,
    SubjectiveVarianceEquality,
)
from bfequiv.rng import RngStream


class TestExactPower:
    def test_one_sided_normal_closed_form(self):
        p = OneSidedNormal(n=4)
        region = gamma_from_alpha(p, 0.05)
        curve = exact_power(p, region, [0.0, 1.0], alpha=0.05)
        # power(theta) = 1 - Phi(z_{0.95} - 2 theta)
        assert_allclose(curve.power[0], 0.05, atol=1e-12)
        expected = 1.0 - stats.norm.cdf(stats.norm.ppf(0.95) - 2.0)
        assert_allclose(curve.power[1], expected, rtol=1e-12)
        assert_allclose(curve.power[1], 0.63876003, atol=1e-8)
        assert np.all(curve.se == 0.0)

    def test_size_at_null_two_sided(self):
        p = GaussianMeanUnknownVar(n=9)
        region = gamma_from_alpha(p, 0.05)
        curve = exact_power(p, region, [0.0], alpha=0.05)
        assert_allclose(curve.power[0], 0.05, atol=1e-9)

    def test_power_increases_to_one(self):
        p = OneSidedNormal(n=4)
        region = gamma_from_alpha(p, 0.05)
        curve = exact_power(p, region, np.linspace(0, 4, 15), alpha=0.05)
        assert np.all(np.diff(curve.power) > 0)
        assert curve.power[-1] > 0.999


class TestMcPower:
    def test_matches_exact_within_3se(self):
        p = OneSidedNormal(n=4)
        g = lambda t: bf.bf_one_sided_normal_halfnormal(np.asarray(t), 4, 1.0)
        rule = calibrate(p, 0.05, g).rule
        thetas = np.linspace(0.0, 2.0, 5)
        classical, _, _ = mc_power(p, rule, RngStream(31), thetas, 100_000)
        exact = exact_power(p, rule.region, thetas, 0.05)
        assert np.all(
            np.abs(classical.power - exact.power)
            <= 3 * np.sqrt(exact.power * (1 - exact.power) / 100_000) + 1e-12
        )

    def test_crn_decisions_identical(self):
        p = OneSidedNormal(n=4)
        g = lambda t: bf.bf_one_sided_normal_exponential(np.asarray(t), 4, 2.0)
        rule = calibrate(p, 0.05, g).rule
        classical, bayes, identical = mc_power(
            p, rule, RngStream(32), [0.0, 0.5, 1.0], 20_000, bf_of_summary=lambda s: g(s.t)
        )
        assert identical
        assert_allclose(classical.power, bayes.power, rtol=0)

    def test_se_scaling(self):
        p = OneSidedNormal(n=4)
        g = lambda t: bf.bf_one_sided_normal_halfnormal(np.asarray(t), 4, 1.0)
        rule = calibrate(p, 0.05, g).rule
        small, _, _ = mc_power(p, rule, RngStream(33), [0.5], 10_000)
        large, _, _ = mc_power(p, rule, RngStream(33), [0.5], 20_000)
        ratio = small.se[0] / large.se[0]
        assert abs(ratio - math.sqrt(2)) < 0.05 * math.sqrt(2)


class TestCalibrateLambdaMc:
    def test_recovers_known_quantile(self):
        thr, size, se = calibrate_lambda_mc(
            lambda s, n: s.generator.normal(size=n), 0.05, RngStream(7), n_sims=200_000
        )
        assert abs(thr - stats.norm.ppf(0.95)) < 0.02
        assert abs(size - 0.05) <= 2 * se


class TestDominance:
    def test_study_verdict_and_bridge(self):
        p = SubjectiveVarianceEquality(n1=10, n2=10, a=2.0, b=2.0)
        rep = dominance_study(p, 0.05, [1.5, 2.0, 3.0, 5.0], RngStream(43), 100_000)
        assert rep.verdict == "PASS"
        assert rep.bridge_residual <= 1e-9
        assert rep.conditions_ok
        # classical MC curve tracks the exact noncentral law
        assert np.all(
            np.abs(rep.power_classical - rep.power_classical_exact)
            < 3 * np.sqrt(rep.power_classical_exact * (1 - rep.power_classical_exact) / 100_000)
            + 1e-12
        )
        # worst-case size over the nuisance attains alpha
        assert abs(rep.size_subjective_limit - 0.05) < 0.003
        # at any fixed nuisance scale the proper-prior rule is conservative
        assert rep.size_subjective_slice < 0.05

    def test_strict_dominance_away_from_null(self):
        p = SubjectiveVarianceEquality(n1=10, n2=10, a=2.0, b=2.0)
        rep = dominance_study(p, 0.05, [2.0, 5.0], RngStream(42), 100_000)
        assert np.all(rep.power_subjective < rep.power_classical)


class TestJohnsonComparison:
    def test_theta_star_and_implied_alpha(self):
        comp = johnson_comparison(
            10.0, 10, np.linspace(0, 1.2, 5), rng=RngStream(51), n_sims=20_000
        )
        assert_allclose(comp.theta_star, 0.6786140424, atol=1e-8)
        # implied size of {B > lambda} without recalibration:
        # P(T > g_min) with g_min = n theta*
        expected = 1.0 - stats.norm.cdf(10 * comp.theta_star / math.sqrt(10))
        assert_allclose(comp.implied_alpha, expected, rtol=1e-6)

    def test_verdict_fails_on_wrong_sign_bayes_factor(self, monkeypatch):
        # the point-mass rule is decided through log B; with B's sign
        # flipped it rejects on the wrong side and the verdict must say so
        log_ratio = ExpFamilyModel.log_ratio
        monkeypatch.setattr(
            ExpFamilyModel, "log_ratio", lambda self, *args: -log_ratio(self, *args)
        )
        comp = johnson_comparison(
            10.0, 10, np.linspace(0, 1.2, 5), rng=RngStream(52), n_sims=20_000
        )
        assert comp.verdict == "FAIL"

    def test_recalibrated_curves_match(self):
        comp = johnson_comparison(
            10.0, 10, np.linspace(0, 1.2, 7), rng=RngStream(52), n_sims=50_000
        )
        assert comp.verdict == "PASS"
        assert comp.max_gap == 0.0
        # and the MC curve tracks the exact one
        assert np.all(
            np.abs(comp.power_point_mass - comp.power_exact)
            < 3 * np.sqrt(np.maximum(comp.power_exact * (1 - comp.power_exact), 1e-9) / 50_000)
            + 1e-3
        )
