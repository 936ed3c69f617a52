import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from bfequiv import bayes_factors as bf
from bfequiv import power
from bfequiv.calibrate import calibrate, gamma_from_alpha
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
        power = exact_power(p, region, [0.0, 1.0])
        # power(theta) = 1 - Phi(z_{0.95} - 2 theta)
        assert isinstance(power, np.ndarray) and power.shape == (2,)
        assert_allclose(power[0], 0.05, atol=1e-12)
        expected = 1.0 - stats.norm.cdf(stats.norm.ppf(0.95) - 2.0)
        assert_allclose(power[1], expected, rtol=1e-12)
        assert_allclose(power[1], 0.63876003, atol=1e-8)

    def test_size_at_null_two_sided(self):
        p = GaussianMeanUnknownVar(n=9)
        region = gamma_from_alpha(p, 0.05)
        power = exact_power(p, region, [0.0])
        assert_allclose(power[0], 0.05, atol=1e-9)

    def test_power_increases_to_one(self):
        p = OneSidedNormal(n=4)
        region = gamma_from_alpha(p, 0.05)
        power = exact_power(p, region, np.linspace(0, 4, 15))
        assert np.all(np.diff(power) > 0)
        assert power[-1] > 0.999


class TestMcPower:
    def test_matches_exact_within_3se(self):
        p = OneSidedNormal(n=4)
        g = lambda t: bf.bf_one_sided_normal_halfnormal(np.asarray(t), 4, 1.0)
        rule = calibrate(p, 0.05, g)
        thetas = np.linspace(0.0, 2.0, 5)
        classical, _, _, _ = mc_power(p, rule, RngStream(31), thetas, 100_000, lambda s: g(s.t))
        exact = exact_power(p, rule.region, thetas)
        assert np.all(
            np.abs(classical.power - exact)
            <= 3 * np.sqrt(exact * (1 - exact) / 100_000) + 1e-12
        )

    def test_crn_decisions_identical(self):
        p = OneSidedNormal(n=4)
        g = lambda t: bf.bf_one_sided_normal_exponential(np.asarray(t), 4, 2.0)
        rule = calibrate(p, 0.05, g)
        classical, bayes, n_disagree, _ = mc_power(
            p, rule, RngStream(32), [0.0, 0.5, 1.0], 20_000, bf_of_summary=lambda s: g(s.t)
        )
        assert n_disagree == 0
        assert_allclose(classical.power, bayes.power, rtol=0)

    def test_se_scaling(self):
        p = OneSidedNormal(n=4)
        g = lambda t: bf.bf_one_sided_normal_halfnormal(np.asarray(t), 4, 1.0)
        rule = calibrate(p, 0.05, g)
        small, _, _, _ = mc_power(p, rule, RngStream(33), [0.5], 10_000, lambda s: g(s.t))
        large, _, _, _ = mc_power(p, rule, RngStream(33), [0.5], 20_000, lambda s: g(s.t))
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
        p = SubjectiveVarianceEquality(n1=10, n2=10, b=2.0)
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
        assert rep.n_proper_only == 0

    def test_verdict_fails_on_threshold_one_percent_low(self, monkeypatch):
        # lambda x 0.99: the proper rule rejects some draws that {T > gamma}
        # accepts, although its power stays within 3 se of the classical one
        from bfequiv import power

        bf_subjective = power.bf_subjective_variance
        monkeypatch.setattr(power, "bf_subjective_variance", lambda q, t: 0.99 * bf_subjective(q, t))
        p = SubjectiveVarianceEquality(n1=10, n2=10, b=2.0)
        rep = dominance_study(p, 0.05, [1.5, 2.0, 3.0, 5.0], RngStream(3), 200_000)
        assert rep.verdict == "FAIL"
        assert rep.n_proper_only > 0

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_correct_study_passes_at_20000_draws(self, seed):
        # the limiting size is held to 6 binomial se at n_sims draws, not to
        # a bound sized for 1e6 draws
        p = SubjectiveVarianceEquality(n1=10, n2=10, b=2.0)
        rep = dominance_study(p, 0.05, [1.5, 2.0, 3.0, 5.0], RngStream(seed), 20_000)
        assert rep.verdict == "PASS"

    def test_verdict_fails_at_unit_limit_scale(self, monkeypatch):
        # at nuisance scale 1 the proper rule's size is about 0.012, far
        # below alpha, so it is no limit
        monkeypatch.setattr(power, "LIMIT_SCALE", 1.0)
        p = SubjectiveVarianceEquality(n1=10, n2=10, b=2.0)
        rep = dominance_study(p, 0.05, [1.5, 2.0, 3.0, 5.0], RngStream(1), 20_000)
        assert rep.verdict == "FAIL"

    def test_strict_dominance_away_from_null(self):
        p = SubjectiveVarianceEquality(n1=10, n2=10, b=2.0)
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
        log_ratio = power.normal_log_ratio
        monkeypatch.setattr(power, "normal_log_ratio", lambda *args: -log_ratio(*args))
        comp = johnson_comparison(
            10.0, 10, np.linspace(0, 1.2, 5), rng=RngStream(52), n_sims=20_000
        )
        assert comp.verdict == "FAIL"

    def test_verdict_fails_on_threshold_a_tenth_of_a_percent_high(self, monkeypatch):
        # lambda_matched x 1.001 (the scalar log_ratio call is the
        # threshold; the draws go in as arrays), at the CLI's default grid
        # and N: some 200 of 2.1M draws fall between the two boundaries
        log_ratio = power.normal_log_ratio

        def shifted(t, *args):
            out = log_ratio(t, *args)
            return out + math.log(1.001) if np.ndim(t) == 0 else out

        monkeypatch.setattr(power, "normal_log_ratio", shifted)
        sd = math.sqrt(10)
        hi = (sd * stats.norm.ppf(0.95) - sd * stats.norm.ppf(0.01)) / 10
        comp = johnson_comparison(
            10.0, 10, np.linspace(0.0, hi, 21), rng=RngStream(53), n_sims=100_000
        )
        assert comp.verdict == "FAIL"
        assert comp.n_disagree > 0

    def test_recalibrated_curves_match(self):
        comp = johnson_comparison(
            10.0, 10, np.linspace(0, 1.2, 7), rng=RngStream(52), n_sims=50_000
        )
        assert comp.verdict == "PASS"
        assert comp.n_disagree == 0
        assert comp.max_gap == 0.0
        # and the MC curve tracks the exact one
        assert np.all(
            np.abs(comp.power_point_mass - comp.power_exact)
            < 3 * np.sqrt(np.maximum(comp.power_exact * (1 - comp.power_exact), 1e-9) / 50_000)
            + 1e-3
        )
