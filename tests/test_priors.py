import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats
from scipy.integrate import quad as scipy_quad

from bfequiv.expfamily import normal_mean_model
from bfequiv.priors import (
    DensityPrior,
    NormalMeanPrec,
    PairingError,
    ScaledSymmetricPrior,
    SphericalPrior,
    build_symmetric_class_member,
    exponential_prior,
    half_normal_prior,
    solve_pairing,
    standard_normal_log_h,
)


class TestDensityPrior:
    def test_normalizes_unnormalized_density(self):
        # pass exp(-x) on (0, inf) scaled by an arbitrary constant
        prior = DensityPrior(lambda x: 3.7 - x, (0.0, np.inf))
        xs = np.array([0.1, 0.5, 2.0])
        assert_allclose(np.exp(prior.logpdf(xs)), np.exp(-xs), rtol=1e-8)

    def test_half_normal_density(self):
        tau = 2.0
        prior = half_normal_prior(0.0, tau)
        xs = np.array([0.2, 1.0, 2.5])
        expected = 2.0 * stats.norm.pdf(xs, scale=1.0 / math.sqrt(tau))
        assert_allclose(np.exp(prior.logpdf(xs)), expected, rtol=1e-8)

    def test_exponential_density(self):
        prior = exponential_prior(0.0, 1.5)
        xs = np.array([0.3, 1.0, 3.0])
        assert_allclose(np.exp(prior.logpdf(xs)), stats.expon.pdf(xs, scale=1 / 1.5), rtol=1e-8)


class TestScaledSymmetricPrior:
    def test_gaussian_even_moments_closed_form(self):
        # for h standard normal, the damped even moment has a closed form:
        # E[s^{2k} e^{-d s^2 / 2}] = (2k-1)!! / ((1+d)^{k + 1/2})
        h = ScaledSymmetricPrior(standard_normal_log_h)
        for k, d in [(0, 2.0), (1, 2.0), (3, 5.0), (6, 1.0)]:
            dd = 1.0 + d
            expected = math.prod(range(1, 2 * k, 2)) / dd**k / math.sqrt(dd)
            assert_allclose(h.even_moment(k, d), expected, rtol=1e-9)

    def test_log_moment_handles_high_order(self):
        h = ScaledSymmetricPrior(standard_normal_log_h)
        val = h.log_even_moment(300, 0.5)
        assert np.isfinite(val)

    @pytest.mark.parametrize("k, d", [(800, 30.0), (40, 1.0)])
    def test_log_moment_closed_form_at_high_order(self, k, d):
        # at (800, 30) the integrand's peak (s ~ 7.2) is ~0.18 wide
        h = ScaledSymmetricPrior(standard_normal_log_h)
        expected = (
            -0.5 * math.log1p(d)
            - k * math.log1p(d)
            + k * math.log(2.0)
            + math.lgamma(k + 0.5)
            - 0.5 * math.log(math.pi)
        )
        assert abs(h.log_even_moment(k, d) - expected) <= 1e-10


class TestSphericalPrior:
    def test_gaussian_mass_integrates_to_one(self):
        # radial_density is the point density; total mass needs the
        # surface-area factor and the r^{p-1} Jacobian
        prior = SphericalPrior.gaussian(3, precision=2.0)
        total, _ = scipy_quad(
            lambda r: prior.surface * r**2 * prior.radial_density(r), 0, np.inf
        )
        assert_allclose(total, 1.0, rtol=1e-8)

    def test_gaussian_radius_law_is_chi(self):
        # radius of a p-dim Gaussian with precision tau is chi(p)/sqrt(tau)
        p, tau = 4, 3.0
        prior = SphericalPrior.gaussian(p, precision=tau)
        rs = np.array([0.3, 1.0, 2.0])
        radius_pdf = prior.surface * rs ** (p - 1) * np.array(
            [prior.radial_density(r) for r in rs]
        )
        expected = stats.chi.pdf(rs * math.sqrt(tau), p) * math.sqrt(tau)
        assert_allclose(radius_pdf, expected, rtol=1e-8)


class TestPairing:
    def test_symmetric_region_gives_mirror_point(self):
        model = normal_mean_model()
        for theta in [0.2, 1.3, 2.0, 5.0]:
            r = solve_pairing(model, -1.96, 1.96, theta, n=1)
            assert_allclose(r, -theta, atol=1e-9)

    def test_pairing_equalizes_ratio_sum(self):
        model = normal_mean_model()
        g1, g2 = -4.2, 3.919928
        theta = 0.5
        r = solve_pairing(model, g1, g2, theta, n=1)
        lhs = model.pair_sum(g1, theta, r, 0.0, 1)
        rhs = model.pair_sum(g2, theta, r, 0.0, 1)
        assert_allclose(lhs, rhs, rtol=1e-9)

    def test_unpairable_point_raises(self):
        model = normal_mean_model()
        # strongly asymmetric pair: the required value exceeds the peak of
        # the mirror function, so no pairing point exists
        with pytest.raises(PairingError):
            solve_pairing(model, -1.9, 2.5, 1.0, n=1)

    def test_paired_prior_is_proper(self):
        model = normal_mean_model()
        base = half_normal_prior(0.0, 1.0)
        g1, g2 = -1.96, 1.96
        paired = build_symmetric_class_member(
            0.0, base, lambda th: solve_pairing(model, g1, g2, th, n=1)
        )
        total, _ = scipy_quad(lambda x: math.exp(paired.logpdf(x)), -np.inf, np.inf)
        assert_allclose(total, 1.0, rtol=1e-6)


class TestSimplePriors:
    def test_normal_mean_prec_density(self):
        prior = NormalMeanPrec(0.0, 4.0)
        xs = np.array([-1.0, 0.0, 0.5])
        assert_allclose(
            np.exp(prior.logpdf(xs)), stats.norm.pdf(xs, scale=0.5), rtol=1e-12
        )
