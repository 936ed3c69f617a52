import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats
from scipy.integrate import quad as scipy_quad

from bfequiv import bayes_factors as bf
from bfequiv.expfamily import normal_mean_model
from bfequiv.priors import (
    DensityPrior,
    PointMass,
    ScaledSymmetricPrior,
    SphericalPrior,
    exponential_prior,
    half_normal_prior,
    standard_normal_log_h,
)
from bfequiv.rng import RngStream


def quadrature_one_sided(t, n, log_prior, support):
    """Independent oracle: direct integral of the likelihood ratio."""

    def integrand(th):
        return math.exp(t * th - n * th * th / 2.0 + log_prior(th))

    val, _ = scipy_quad(integrand, *support)
    return val


class TestOneSidedClosedForms:
    def test_point_mass(self):
        model = normal_mean_model()
        out = bf.bf_one_sided(model, PointMass(0.8), 2.5, n=4)
        assert_allclose(out, math.exp(0.8 * 2.5 - 4 * 0.64 / 2), rtol=1e-12)

    def test_conjugate_vs_quadrature(self):
        t, n, tau = 1.7, 4, 2.0
        closed = bf.bf_one_sided_normal_conjugate(t, n, tau)
        oracle = quadrature_one_sided(
            t, n, lambda th: stats.norm.logpdf(th, scale=1 / math.sqrt(tau)), (-20, 20)
        )
        assert_allclose(closed, oracle, rtol=1e-9)

    def test_halfnormal_vs_quadrature(self):
        t, n, tau = 2.2, 4, 1.5
        closed = bf.bf_one_sided_normal_halfnormal(t, n, tau)
        oracle = quadrature_one_sided(
            t,
            n,
            lambda th: math.log(2) + stats.norm.logpdf(th, scale=1 / math.sqrt(tau)),
            (0, 20),
        )
        assert_allclose(closed, oracle, rtol=1e-9)

    def test_exponential_vs_quadrature(self):
        t, n, rate = 3.0, 4, 1.2
        closed = bf.bf_one_sided_normal_exponential(t, n, rate)
        oracle = quadrature_one_sided(
            t, n, lambda th: math.log(rate) - rate * th, (0, 30)
        )
        assert_allclose(closed, oracle, rtol=1e-9)

    def test_generic_quadrature_path_agrees(self):
        model = normal_mean_model()
        prior = half_normal_prior(0.0, 1.5)
        t = np.array([0.5, 2.2, 4.0])
        generic = bf.bf_one_sided(model, prior, t, n=4)
        closed = bf.bf_one_sided_normal_halfnormal(t, 4, 1.5)
        assert_allclose(generic, closed, rtol=1e-8)

    def test_monotone_in_t(self):
        t = np.linspace(-3, 6, 200)
        vals = bf.bf_one_sided_normal_halfnormal(t, 4, 1.0)
        assert np.all(np.diff(vals) > 0)


class TestTwoSided:
    def test_conjugate_matches_one_sided_form(self):
        t = np.array([-2.0, 0.0, 3.0])
        assert_allclose(
            bf.bf_two_sided_normal_conjugate(t, 5, 2.0),
            np.sqrt(2.0 / 7.0) * np.exp(t**2 / 14.0),
            rtol=1e-12,
        )

    def test_paired_prior_equal_at_critical_pair(self):
        from bfequiv.priors import build_symmetric_class_member, solve_pairing

        model = normal_mean_model()
        # a pairable asymmetric pair needs the mirror side to carry the
        # larger peak, i.e. |g1| >= g2
        g1, g2 = -2.6, 2.1
        base = half_normal_prior(0.0, 1.0)
        paired = build_symmetric_class_member(
            0.0, base, lambda th: solve_pairing(model, g1, g2, th, n=1)
        )
        b1 = bf.bf_two_sided(model, paired, g1, n=1)
        b2 = bf.bf_two_sided(model, paired, g2, n=1)
        assert_allclose(b1, b2, rtol=1e-8)


class TestTTest:
    def test_series_vs_quadrature(self):
        engine = bf.TTestBf(ScaledSymmetricPrior(standard_normal_log_h), n=7)
        val = engine.crosscheck(0.4, 3.0, rtol=1e-8)
        oracle = bf.bf_t_test_quadrature(
            0.4, 3.0, 7, ScaledSymmetricPrior(standard_normal_log_h)
        )
        assert_allclose(val, oracle, rtol=1e-7)

    @pytest.mark.parametrize(
        "n, nu",
        [
            pytest.param(12, 0.9, id="0.9"),
            pytest.param(12, 0.95, id="0.95"),
            pytest.param(12, 0.999, id="0.999"),
            pytest.param(30, 0.99, id="30-0.99"),
            pytest.param(30, 0.999, id="30-0.999"),
            pytest.param(60, 0.99, id="60-0.99"),
            pytest.param(60, 0.999, id="60-0.999"),
        ],
    )
    def test_quadrature_at_strong_evidence(self, n, nu):
        # n * xbar^2 / sum_sq = nu: with h linear rather than log, the
        # inner peak search stopped where h underflows (a bare
        # OverflowError at n = 12), and at n = 30 the outer tail lost
        # 2.6e-3; the Gaussian h has the closed form below
        b = bf.bf_t_test_quadrature(
            math.sqrt(nu / n), 1.0, n, ScaledSymmetricPrior(standard_normal_log_h)
        )
        assert_allclose(b, (1 + n) ** -0.5 * (1 - n * nu / (n + 1)) ** (-n / 2), rtol=1e-10)

    def test_depends_on_t_only_through_t_squared(self):
        engine = bf.TTestBf(ScaledSymmetricPrior(standard_normal_log_h), n=5)
        t = 1.7
        assert_allclose(
            engine.from_t_squared(t**2), engine.from_t_squared((-t) ** 2), rtol=0
        )

    def test_from_t_squared_consistent_with_summary_route(self):
        engine = bf.TTestBf(ScaledSymmetricPrior(standard_normal_log_h), n=6)
        xbar, sum_sq = 0.5, 4.0
        ss_c = sum_sq - 6 * xbar**2
        t_sq = 6 * xbar**2 / (ss_c / 5)
        assert_allclose(engine(xbar, sum_sq), engine.from_t_squared(t_sq), rtol=1e-12)

    def test_increasing_in_t_squared(self):
        engine = bf.TTestBf(ScaledSymmetricPrior(standard_normal_log_h), n=8)
        t_sq = np.linspace(0.0, 30.0, 100)
        vals = np.array([engine.from_t_squared(v) for v in t_sq])
        assert np.all(np.diff(vals) > 0)


class TestRegressionKnownVar:
    def test_series_matches_gaussian_closed_form(self):
        # at |T| = 1500 the series needs radial moments up to k ~ 600
        for p, tau, t_abs in [(3, 2.0, 0.5), (3, 2.0, 2.0), (3, 2.0, 8.0), (2, 0.5, 600.0), (1, 1.0, 1500.0)]:
            engine = bf.RegressionKnownVarBf(SphericalPrior.gaussian(p, tau))
            assert_allclose(
                engine.series(t_abs),
                bf.bf_regression_known_var_gaussian(t_abs, p, tau),
                rtol=1e-9,
            )

    def test_series_vs_quadrature(self):
        engine = bf.RegressionKnownVarBf(SphericalPrior.gaussian(2, 1.0))
        for t_abs in [0.3, 3.0, 10.0]:
            assert_allclose(engine.series(t_abs), engine.quadrature(t_abs), rtol=1e-8)

    @pytest.mark.parametrize("p,tau", [(1, 1.0), (1, 4.0), (3, 1.0), (3, 4.0), (1, 0.5), (3, 0.5)])
    def test_radial_damped_moment_closed_form(self, p, tau):
        # int |s|^{2k} e^{-|s|^2/2} pi(s) ds for pi = N(0, I/tau); with only
        # the peak of r^q e^{-r^2/2} factored out, p = 1 lost 77 % at k = 45,
        # and without the split at the peak k = 400 lost e^-67
        prior = SphericalPrior.gaussian(p, tau)
        for k in list(range(81)) + [270, 400, 800]:
            exact = (
                0.5 * p * math.log(tau / (1 + tau))
                + k * math.log(2 / (1 + tau))
                + math.lgamma(p / 2 + k)
                - math.lgamma(p / 2)
            )
            tol = 1e-12 if k <= 80 else 1e-10
            assert abs(bf._log_radial_damped_moment(prior, k) - exact) < tol, k

    def test_quadrature_overflow_is_typed(self):
        # B = e^750 is past the float range; it once leaked OverflowError
        engine = bf.RegressionKnownVarBf(SphericalPrior.gaussian(1, 1.0))
        with pytest.raises(bf.NumericalIntegrityError):
            engine.quadrature(3000.0)

    def test_depends_on_t_vec_through_norm(self):
        engine = bf.RegressionKnownVarBf(SphericalPrior.gaussian(3, 1.0))
        v = np.array([1.0, -2.0, 0.5])
        g = RngStream(12).generator
        M = np.linalg.qr(g.normal(size=(3, 3)))[0]  # random rotation
        assert_allclose(
            engine(t_vec=v), engine(t_vec=M @ v), rtol=1e-10
        )


class TestRegressionUnknownVar:
    def test_series_vs_quadrature(self):
        engine = bf.RegressionUnknownVarBf(SphericalPrior.gaussian(2, 1.0), n=12)
        for t_hat in [0.05, 0.3, 0.7]:
            assert_allclose(engine.series(t_hat), engine.quadrature(t_hat), rtol=1e-7)

    def test_from_f_consistent(self):
        engine = bf.RegressionUnknownVarBf(SphericalPrior.gaussian(3, 1.0), n=15)
        f = 2.5
        f_raw = f * 3 / 12
        t_hat = f_raw / (1 + f_raw)
        assert_allclose(engine.from_f(f), engine.series(t_hat), rtol=1e-12)

    def test_monotone_in_f(self):
        engine = bf.RegressionUnknownVarBf(SphericalPrior.gaussian(2, 1.0), n=10)
        f = np.linspace(0.01, 20.0, 80)
        vals = np.array([engine.from_f(v) for v in f])
        assert np.all(np.diff(vals) > 0)


class TestTwoSample:
    def test_known_var_constants(self):
        engine = bf.TwoSampleKnownVarBf(3, 2, 1.0, 2.0, c=3.0)
        assert_allclose(engine.kappa, math.sqrt(3.0 / 4.0), rtol=1e-12)
        assert_allclose(engine.kappa_prime, 3 * 4 / (2 * 4 * 7), rtol=1e-12)

    def test_known_var_routes_agree(self):
        engine = bf.TwoSampleKnownVarBf(3, 2, 1.0, 2.0, c=1.0)
        assert_allclose(engine(2.0, 0.5), engine.from_t((2.0 - 0.5) ** 2), rtol=1e-12)

    def test_t_routes_agree(self):
        engine = bf.TwoSampleTBf(5, 8, c=1.0)
        xbar1, xbar2, s1, s2 = 0.2, 1.1, 1.3, 0.8
        d = xbar2 - xbar1
        t = d / math.sqrt(4 * s1 + 7 * s2)
        assert_allclose(engine(xbar1, xbar2, s1, s2), engine.from_t(t), rtol=1e-10)

    def test_decision_free_of_c(self):
        # B is monotone in T^2 for every c, so the ordering of datasets
        # (hence the calibrated decision) does not depend on c
        t = np.array([0.05, 0.1, 0.3])
        for c in [0.1, 1.0, 10.0]:
            vals = bf.TwoSampleTBf(4, 6, c=c).from_t(t)
            assert np.all(np.diff(vals) > 0)


class TestVarianceRatioBf:
    def test_point_mass_closed_form(self):
        engine = bf.VarianceRatioBf(PointMass(2.0), 4, 6)
        f = 1.3
        expected = 2.0 ** (6 / 2) * ((f + 1) / (f + 2.0)) ** (10 / 2)
        assert_allclose(engine(f), expected, rtol=1e-12)

    def test_density_prior_fixed_nodes_vs_adaptive(self):
        prior = DensityPrior(lambda th: -(th - 1.0), (1.0, np.inf))
        engine = bf.VarianceRatioBf(prior, 5, 5)
        for f in [0.5, 1.0, 4.0]:
            assert_allclose(engine(f), engine.adaptive(f), rtol=1e-9)

    def test_monotone_in_f(self):
        prior = DensityPrior(lambda th: -(th - 1.0), (1.0, np.inf))
        engine = bf.VarianceRatioBf(prior, 5, 7)
        f = np.linspace(0.05, 30.0, 200)
        vals = engine(f)
        assert np.all(np.diff(vals) > 0)

    def test_blocks_match_single_values(self):
        # 1 500 values span three row blocks of 512
        prior = DensityPrior(lambda th: -(th - 1.0), (1.0, np.inf))
        engine = bf.VarianceRatioBf(prior, 8, 10)
        f = np.linspace(0.01, 20.0, 1500)
        vals = engine(f)
        singles = np.array([engine(x) for x in f])
        assert_allclose(vals, singles, rtol=1e-15, atol=0)
        assert np.all(np.diff(vals) > 0)
        for edge in (512, 1024):
            assert vals[edge - 1] < vals[edge]

    @pytest.mark.parametrize("n1, n2", [(8, 10), (5, 6), (61, 60)])
    def test_batch_matches_adaptive(self, n1, n2):
        prior = DensityPrior(lambda th: -(th - 1.0), (1.0, np.inf))
        engine = bf.VarianceRatioBf(prior, n1, n2)
        f = np.array([0.2, 0.9, 1.0, 1.7, 3.5])
        assert_allclose(engine(f), [engine.adaptive(x) for x in f], rtol=1e-12)

    def test_batch_memory_is_blocked(self):
        # one 20 000 x 200 float64 matrix alone would be 32 MB
        import tracemalloc

        prior = DensityPrior(lambda th: -(th - 1.0), (1.0, np.inf))
        engine = bf.VarianceRatioBf(prior, 30, 30)
        f = RngStream(7).generator.f(30, 30, size=20_000)
        tracemalloc.start()
        try:
            engine(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


class TestSubsetSelection:
    def test_routes_agree(self):
        engine = bf.SubsetSelectionBf(12, 2, c=1.5)
        f = 0.8
        assert_allclose(engine.from_f(f), engine(f / (1 + f)), rtol=1e-12)

    def test_rejects_invalid_t(self):
        engine = bf.SubsetSelectionBf(10, 1, c=1.0)
        with pytest.raises(ValueError):
            engine(1.5)


class TestSubjective:
    def test_hand_algebra(self):
        q, t = 0.5, 0.2
        assert_allclose(
            bf.bf_subjective_variance(q, t), 1.0 / math.sqrt(1.0 - 0.2), rtol=1e-12
        )

    def test_decreasing_in_q_increasing_in_t(self):
        t = 0.1
        qs = np.linspace(0.0, 5.0, 50)
        vals = bf.bf_subjective_variance(qs, t)
        assert np.all(np.diff(vals) < 0)
        ts = np.linspace(-0.5, 0.24, 50)
        vals_t = bf.bf_subjective_variance(0.3, ts)
        assert np.all(np.diff(vals_t) > 0)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            bf.bf_subjective_variance(-0.1, 0.0)
        with pytest.raises(ValueError):
            bf.bf_subjective_variance(0.0, 0.3)


class TestJohnsonThreshold:
    def test_closed_form_normal(self):
        model = normal_mean_model()
        theta_star, g_min, prior = bf.johnson_umpbt_threshold(model, 10.0, 10)
        # the first-order condition is solved to rounding; a Brent search
        # on g itself once stopped 1.9e-11 short
        assert abs(theta_star - math.sqrt(2 * math.log(10.0) / 10)) <= 2e-15
        assert prior.theta1 == theta_star

    def test_grid_search_oracle(self):
        model = normal_mean_model()
        lam, n = 7.0, 6
        theta_star, _, _ = bf.johnson_umpbt_threshold(model, lam, n)
        grid = np.linspace(1e-6, 5.0, 400_001)
        g = (math.log(lam) + n * grid**2 / 2) / grid
        assert abs(theta_star - grid[np.argmin(g)]) < 1e-4

    def test_lambda_one_is_boundary(self):
        model = normal_mean_model()
        theta_star, _, _ = bf.johnson_umpbt_threshold(model, 1.0, 5)
        assert theta_star == 0.0
