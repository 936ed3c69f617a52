import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from bfequiv import bayes_factors as bf
from bfequiv.calibrate import (
    ClassViolationError,
    CriticalRegion,
    DecisionRule,
    InfeasibleLambda,
    calibrate,
    gamma_from_alpha,
    gamma_from_lambda,
    lambda_from_gamma,
    verify_equivalence,
)
from bfequiv.priors import PointMass
from bfequiv.problems import (
    GaussianMeanUnknownVar,
    OneSidedNormal,
    TwoSidedNormal,
    VarianceRatio,
    normal_log_ratio,
)
from bfequiv.rng import RngStream


def test_submodule_import_binds_the_module():
    # the package re-exports no names, so none shadows a submodule
    import bfequiv.calibrate as m

    assert m.__name__ == "bfequiv.calibrate"


class TestCriticalRegion:
    def test_upper_contains(self):
        r = CriticalRegion("upper", None, 2.0)
        assert list(r.contains(np.array([1.0, 2.0, 3.0]))) == [False, False, True]

    def test_two_tail_contains(self):
        r = CriticalRegion("two_tail", -1.0, 2.0)
        assert list(r.contains(np.array([-2.0, 0.0, 3.0]))) == [True, False, True]

    def test_invalid_two_tail(self):
        with pytest.raises(ValueError):
            CriticalRegion("two_tail", 3.0, 2.0)


class TestGammaFromAlpha:
    def test_one_sided_normal_quantile(self):
        # n = 4: gamma = 2 * z_{0.95} = 3.2897072539...
        region = gamma_from_alpha(OneSidedNormal(n=4), 0.05)
        assert_allclose(region.upper, 2.0 * stats.norm.ppf(0.95), rtol=1e-12)
        assert_allclose(region.upper, 3.2897072539029444, rtol=1e-12)

    def test_equal_tails(self):
        p = GaussianMeanUnknownVar(n=8)
        region = gamma_from_alpha(p, 0.05)
        assert_allclose(region.lower, stats.t.ppf(0.025, 7), rtol=1e-12)
        assert_allclose(region.upper, stats.t.ppf(0.975, 7), rtol=1e-12)
        assert_allclose(region.size(p.null_law()), 0.05, rtol=1e-12)


class TestLambdaGammaRoundTrip:
    def test_lambda_from_gamma_one_sided(self):
        p = OneSidedNormal(n=4)
        prior = PointMass(1.0)
        g = lambda t: bf.bf_one_sided(prior, t, n=4)
        rule = calibrate(p, 0.05, g)
        # B(gamma) with theta1 = 1: exp(gamma - 2)
        assert_allclose(rule.lam, math.exp(3.2897072539029444 - 2.0), rtol=1e-12)

    def test_inversion_recovers_gamma(self):
        p = OneSidedNormal(n=4)
        g = lambda t: bf.bf_one_sided_normal_halfnormal(np.asarray(t), 4, 2.0)
        rule = calibrate(p, 0.05, g)
        region, implied = gamma_from_lambda(p, g, rule.lam)
        assert_allclose(region.upper, rule.region.upper, atol=1e-9)
        assert_allclose(implied, 0.05, atol=1e-10)

    def test_documented_inversion_example(self):
        # lambda = 3.632 under the point mass at 1 inverts to alpha = 0.05
        p = OneSidedNormal(n=4)
        g = lambda t: bf.bf_one_sided(PointMass(1.0), t, n=4)
        _, implied = gamma_from_lambda(p, g, 3.632)
        assert_allclose(implied, 0.05, atol=5e-5)

    def test_always_and_never_reject(self):
        p = OneSidedNormal(n=4)
        g = lambda t: bf.bf_one_sided_normal_halfnormal(np.asarray(t), 4, 1.0)
        with pytest.raises(InfeasibleLambda, match="^lambda = 1e\\+30 is never crossed by B on the statistic range$"):
            gamma_from_lambda(p, g, 1e30)
        with pytest.raises(InfeasibleLambda, match="^lambda = 0.0 is exceeded by B everywhere$"):
            gamma_from_lambda(p, g, 0.0)


class TestClassViolation:
    def test_asymmetric_prior_rejected_with_both_values(self):
        p = TwoSidedNormal(n=4)
        region = gamma_from_alpha(p, 0.05)
        g = lambda t: np.exp(normal_log_ratio(np.asarray(t, dtype=float), 0.7, 0.0, 4))
        with pytest.raises(ClassViolationError) as exc:
            lambda_from_gamma(region, g)
        msg = str(exc.value)
        b_lo = float(g(region.lower))
        b_up = float(g(region.upper))
        assert f"{b_lo:.12g}" in msg and f"{b_up:.12g}" in msg

    def test_symmetric_prior_accepted(self):
        p = TwoSidedNormal(n=4)
        g = lambda t: bf.bf_two_sided_normal_conjugate(np.asarray(t), 4, 1.0)
        rule = calibrate(p, 0.05, g)
        b_lo, b_up = g(rule.region.lower), g(rule.region.upper)
        assert_allclose(b_lo, b_up, rtol=1e-12)
        assert_allclose(rule.lam, 0.5 * (b_lo + b_up), rtol=1e-12)


class TestVerifyEquivalence:
    def test_one_sided_agreement(self):
        p = OneSidedNormal(n=4)
        g = lambda t: bf.bf_one_sided_normal_exponential(np.asarray(t), 4, 1.0)
        rule = calibrate(p, 0.05, g)
        report = verify_equivalence(
            p, lambda s: g(s.t), rule, RngStream(21), 50_000, thetas=(p.theta0, 0.5)
        )
        assert report.n_mismatch == 0
        assert report.n_total == 100_000

    def test_reproducible_for_fixed_seed(self):
        p = VarianceRatio(n1=6, n2=6)
        engine = bf.VarianceRatioBf(PointMass(2.0), 6, 6)
        rule = calibrate(p, 0.05, engine)
        kw = dict(thetas=(p.theta0, 2.0))
        a = verify_equivalence(p, lambda s: engine(s.f), rule, RngStream(5), 30_000, **kw)
        b = verify_equivalence(p, lambda s: engine(s.f), rule, RngStream(5), 30_000, **kw)
        assert (a.n_reject, a.n_mismatch) == (b.n_reject, b.n_mismatch)
        c = verify_equivalence(p, lambda s: engine(s.f), rule, RngStream(6), 30_000, **kw)
        assert c.n_reject != a.n_reject  # different seed, different draws

    def test_detects_mismatched_rule(self):
        # deliberately corrupt the threshold: mismatches must be reported
        p = OneSidedNormal(n=4)
        g = lambda t: bf.bf_one_sided_normal_halfnormal(np.asarray(t), 4, 1.0)
        rule = calibrate(p, 0.05, g)
        bad = DecisionRule(rule.region, rule.lam * 1.5)
        report = verify_equivalence(p, lambda s: g(s.t), bad, RngStream(3), 20_000, (p.theta0,))
        assert report.n_mismatch > 0
        assert report.examples
