import math

import numpy as np
import pytest
import scipy
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats

from bfequiv import bayes_factors as bf
from bfequiv import distributions as dist
from bfequiv.distributions import DistSpec
from bfequiv.problems import GaussianMeanUnknownVar, TwoSampleMeansUnknownEqualVar
from bfequiv.rng import RngStream


class TestDistSpec:
    def test_normal_matches_scipy(self):
        spec = DistSpec.normal(1.5, 2.0)
        x = np.linspace(-4, 8, 11)
        assert_allclose(dist.cdf(spec, x), stats.norm.cdf(x, 1.5, 2.0), rtol=1e-12)
        assert_allclose(dist.pdf(spec, x), stats.norm.pdf(x, 1.5, 2.0), rtol=1e-12)

    def test_quantile_inverts_cdf(self):
        for spec in [
            DistSpec.normal(0.0, 1.0),
            DistSpec.chi_square(4),
            DistSpec.student_t(7),
            DistSpec.fisher_f(3, 9),
        ]:
            q = np.array([0.01, 0.1, 0.5, 0.9, 0.99])
            x = dist.quantile(spec, q)
            assert_allclose(dist.cdf(spec, x), q, rtol=1e-10)

    def test_scale_parameter(self):
        base = DistSpec.noncentral_chi_square(3, 0.0)
        scaled = DistSpec.noncentral_chi_square(3, 0.0, scale=2.5)
        x = np.array([0.5, 1.0, 4.0])
        assert_allclose(dist.cdf(scaled, x), dist.cdf(base, x / 2.5), rtol=1e-12)
        # density picks up the Jacobian
        assert_allclose(dist.pdf(scaled, x), dist.pdf(base, x / 2.5) / 2.5, rtol=1e-12)

    def test_noncentral_reduces_to_central(self):
        x = np.array([0.5, 2.0, 5.0])
        nc_chi = DistSpec.noncentral_chi_square(3, 0.0)
        assert_allclose(dist.cdf(nc_chi, x), stats.chi2.cdf(x, 3), rtol=1e-10)
        nc_f = DistSpec.noncentral_f(2, 8, 0.0)
        assert_allclose(dist.cdf(nc_f, x), stats.f.cdf(x, 2, 8), rtol=1e-10)

    def test_noncentral_f_matches_scipy(self):
        spec = DistSpec.noncentral_f(3, 12, 2.5)
        x = np.array([0.5, 1.5, 4.0])
        assert_allclose(dist.cdf(spec, x), stats.ncf.cdf(x, 3, 12, 2.5), rtol=1e-10)

    def test_sampling_matches_cdf(self):
        spec = DistSpec.fisher_f(4, 10, scale=1.7)
        x = dist.sample(spec, RngStream(123), 200_000)
        # Kolmogorov-Smirnov against the claimed law
        stat = stats.kstest(x, lambda v: dist.cdf(spec, v)).statistic
        assert stat < 0.005


# Each family with the scipy.stats law its kernels must reproduce exactly.
SCIPY_LAWS = [
    (DistSpec.normal(1.5, 2.0), stats.norm(loc=1.5, scale=2.0)),
    (DistSpec.chi_square(4), stats.chi2(4)),
    (DistSpec.student_t(7), stats.t(7)),
    (DistSpec.fisher_f(3, 9), stats.f(3, 9)),
    (DistSpec.noncentral_f(3, 12, 2.5), stats.ncf(3, 12, 2.5)),
    (DistSpec.noncentral_chi_square(3, 1.7), stats.ncx2(3, 1.7)),
]
POSITIVE_SUPPORT = {
    dist.Family.CHI_SQUARE,
    dist.Family.FISHER_F,
    dist.Family.NONCENTRAL_F,
    dist.Family.NONCENTRAL_CHI_SQUARE,
}


@pytest.mark.skipif(scipy.__version__ != "1.17.1", reason="kernels pinned to scipy 1.17.1")
class TestBitForBitScipy:
    """cdf, quantile and sample equal scipy.stats exactly, not within a tolerance."""

    @pytest.mark.parametrize("scale", [1.0, 2.5])
    @pytest.mark.parametrize("spec,law", SCIPY_LAWS, ids=lambda v: getattr(v, "family", ""))
    def test_cdf_quantile_sample(self, spec, law, scale):
        spec = DistSpec(spec.family, spec.params, scale)
        x = np.array([-7.0, -1.0, -1e-300, 0.0, 1e-300, 0.3, 1.0, 2.7, 11.0, 1e6, -np.inf])
        if spec.family in POSITIVE_SUPPORT:
            x = np.concatenate([x, [-0.0, np.inf, np.nan]])
        assert_array_equal(dist.cdf(spec, x), law.cdf(x / scale))
        for xi in x:
            got = dist.cdf(spec, xi)
            assert np.ndim(got) == 0
            assert_array_equal(got, law.cdf(xi / scale))
        q = np.array([1e-12, 0.01, 0.3, 0.5, 0.9, 1 - 1e-12])
        assert_array_equal(dist.quantile(spec, q), scale * law.ppf(q))
        assert_array_equal(dist.quantile(spec, np.float64(0.3)), scale * law.ppf(0.3))
        assert_array_equal(
            dist.sample(spec, RngStream(5), 1000),
            scale * law.rvs(size=1000, random_state=RngStream(5).generator),
        )

    @pytest.mark.parametrize(
        "problem,df,ncp",
        [
            (GaussianMeanUnknownVar(n=12), 11, lambda th: math.sqrt(12) * th),
            (TwoSampleMeansUnknownEqualVar(n1=5, n2=8), 11, lambda th: th / math.sqrt(1 / 5 + 1 / 8)),
        ],
    )
    def test_alt_cdf_matches_nct(self, problem, df, ncp):
        scale = getattr(problem, "stat_scale", 1.0)
        x = np.array([-np.inf, -3.0, 0.0, 0.7, 2.2, 40.0, np.inf, np.nan])
        for theta in (0.0, 0.4, 1.3):
            law = stats.nct(df, ncp(theta))
            assert_array_equal(problem.alt_cdf(theta, x), law.cdf(x / scale))
            got = problem.alt_cdf(theta, 2.2)
            assert np.ndim(got) == 0
            assert_array_equal(got, law.cdf(2.2 / scale))

    def test_one_sided_closed_forms_match_norm_cdf(self):
        t = np.array([-40.0, -3.0, 0.0, 0.5, 2.0, 6.0])
        n, tau, rate = 5, 2.0, 1.5
        s = n + tau
        halfnormal = 2.0 * np.sqrt(tau / s) * np.exp(t**2 / (2.0 * s)) * stats.norm.cdf(
            t / np.sqrt(s)
        )
        b = t - rate
        exponential = (
            rate * np.sqrt(2.0 * np.pi / n) * np.exp(b**2 / (2.0 * n)) * stats.norm.cdf(b / np.sqrt(n))
        )
        assert_array_equal(bf.bf_one_sided_normal_halfnormal(t, n, tau), halfnormal)
        assert_array_equal(bf.bf_one_sided_normal_exponential(t, n, rate), exponential)
        for i in range(t.size):
            assert_array_equal(bf.bf_one_sided_normal_halfnormal(t[i], n, tau), halfnormal[i])
            assert_array_equal(bf.bf_one_sided_normal_exponential(t[i], n, rate), exponential[i])


class TestValidation:
    def test_bad_params_raise(self):
        with pytest.raises(ValueError):
            DistSpec.normal(0.0, -1.0)
        with pytest.raises(ValueError):
            DistSpec.chi_square(0)
        with pytest.raises(ValueError):
            DistSpec.fisher_f(2, 3, scale=0.0)
