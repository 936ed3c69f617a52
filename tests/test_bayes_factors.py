import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from oracles import (
    one_sided_exponential_log_b,
    one_sided_half_normal_log_b,
    variance_ratio_point_mass_log_b,
    variance_ratio_shifted_exponential_log_b,
)
from scipy import stats
from scipy.integrate import quad as scipy_quad

from bfequiv import bayes_factors as bf
from bfequiv.calibrate import calibrate
from bfequiv.cli import RunConfig, build_bf, build_problem
from bfequiv.priors import (
    DensityPrior,
    PointMass,
    ScaledSymmetricPrior,
    SphericalPrior,
    exponential_prior,
    half_normal_prior,
    standard_normal_log_h,
)
from bfequiv.problems import SufficientSummary
from bfequiv.rng import RngStream


def quadrature_one_sided(t, n, log_prior, support):
    """Independent oracle: direct integral of the likelihood ratio."""

    def integrand(th):
        return math.exp(t * th - n * th * th / 2.0 + log_prior(th))

    val, _ = scipy_quad(integrand, *support)
    return val


class TestOneSidedClosedForms:
    def test_point_mass(self):
        out = bf.bf_one_sided(PointMass(0.8), 2.5, n=4)
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

    @pytest.mark.parametrize(
        "closed, oracle, hyper",
        [
            (bf.bf_one_sided_normal_halfnormal, one_sided_half_normal_log_b, 1.5),
            (bf.bf_one_sided_normal_exponential, one_sided_exponential_log_b, 1.2),
        ],
        ids=["half_normal", "exponential"],
    )
    def test_closed_form_matches_mpmath(self, closed, oracle, hyper):
        # at n = 4, t = -100 puts z below -37.6, the erfcx fallback of both
        # forms, and t = 60 is strong evidence (B = 1.4e142, half-normal)
        t = np.array([-100.0, -40.0, -5.0, 0.0, 2.2, 10.0, 60.0])
        for n in (4, 12):
            values = closed(t, n, hyper)
            for ti, b in zip(t.tolist(), values.tolist()):
                log_b = oracle(n, hyper, ti)
                assert abs(mpmath.mpf(b) / mpmath.exp(log_b) - 1) <= 1e-10, f"n = {n}, t = {ti}"

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

        # a pairable asymmetric pair needs the mirror side to carry the
        # larger peak, i.e. |g1| >= g2
        g1, g2 = -2.6, 2.1
        base = half_normal_prior(0.0, 1.0)
        paired = build_symmetric_class_member(
            0.0, base, lambda th: solve_pairing(g1, g2, th, n=1)
        )
        b1 = bf.bf_two_sided(paired, g1, n=1)
        b2 = bf.bf_two_sided(paired, g2, n=1)
        assert_allclose(b1, b2, rtol=1e-8)

    def test_mirror_prior_matches_conjugate_form(self):
        # the half-normal mirrored through r(theta) = -theta is N(0, 1/tau);
        # at t = 40, B = 3.7e173 lies past the linear-space integrand's range
        from bfequiv.priors import build_symmetric_class_member

        tau = 1.0
        mirror = build_symmetric_class_member(0.0, half_normal_prior(0.0, tau), lambda th: -th)
        for t in (0.5, 5.0, 40.0):
            assert_allclose(
                bf.bf_two_sided(mirror, t, n=1),
                bf.bf_two_sided_normal_conjugate(t, 1, tau),
                rtol=1e-9,
            )
        with pytest.raises(bf.NumericalIntegrityError):
            bf.bf_two_sided(mirror, 2000.0, n=1)

    def test_logaddexp_is_numpys(self):
        g = np.random.default_rng(3)
        x = np.concatenate([g.normal(0, 1, 20_000), g.normal(0, 300, 20_000)])
        y = x + np.concatenate([g.normal(0, 1, 20_000), g.normal(0, 40, 20_000)])
        x = np.concatenate([x, [3.0, -np.inf, np.inf, -np.inf, np.inf]])
        y = np.concatenate([y, [3.0, -np.inf, np.inf, 1.0, 1.0]])
        floats = [bf._logaddexp(a, b) for a, b in zip(x.tolist(), y.tolist())]
        assert np.array_equal(floats, np.logaddexp(x, y))

    def test_float_integrand_matches_numpy_integrand(self):
        # the integrand as numpy evaluates it: normal_log_ratio and
        # np.logaddexp on 0-d arrays
        from bfequiv.integrate import log_quad, peak_bracket
        from bfequiv.priors import build_symmetric_class_member
        from bfequiv.problems import normal_log_ratio

        for base, r, n in (
            (half_normal_prior(0.0, 1.5), lambda th: -th, 3),
            (exponential_prior(0.5, 2.0), lambda th: 0.5 - 2.0 * (th - 0.5), 7),
        ):
            paired = build_symmetric_class_member(base.support[0], base, r)
            lo, hi = paired.theta0, base.support[1]
            for t in (-4.0, 0.3, 2.5):

                def log_f(th):
                    pair = np.logaddexp(
                        normal_log_ratio(t, th, lo, n), normal_log_ratio(t, r(th), lo, n)
                    )
                    return float(pair) + float(paired.half_weight_log(np.asarray(th)))

                expected = math.exp(log_quad(log_f, lo, hi, peak_bracket(log_f, lo, hi)))
                assert bf.bf_two_sided(paired, t, n) == expected


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


@pytest.mark.parametrize(
    "build, args",
    [
        pytest.param(
            lambda: bf.TTestBf(ScaledSymmetricPrior(standard_normal_log_h), n=7), (0.4, 3.0), id="t_test"
        ),
        pytest.param(lambda: bf.RegressionKnownVarBf(SphericalPrior.gaussian(2, 1.0)), (3.0,), id="known_var"),
        pytest.param(
            lambda: bf.RegressionUnknownVarBf(SphericalPrior.gaussian(2, 1.0), n=12), (0.3,), id="unknown_var"
        ),
    ],
)
def test_crosscheck_raises_when_quadrature_disagrees(monkeypatch, build, args):
    # every oracle quadrature mixes psi's radial integral, so psi x (1 + 1e-4)
    # puts each quadrature B off by 1e-4, ten times what crosscheck allows
    engine = build()
    engine.crosscheck(*args)
    log_psi = bf.RegressionKnownVarBf.log_quadrature
    monkeypatch.setattr(
        bf.RegressionKnownVarBf, "log_quadrature", lambda self, t: log_psi(self, t) + math.log1p(1e-4)
    )
    with pytest.raises(bf.NumericalIntegrityError, match="series .* vs quadrature"):
        engine.crosscheck(*args)


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
        assert_allclose(engine(2.0 - 0.5), engine.from_t((2.0 - 0.5) ** 2), rtol=1e-12)

    def test_t_routes_agree(self):
        engine = bf.TwoSampleTBf(5, 8, c=1.0)
        xbar1, xbar2, s1, s2 = 0.2, 1.1, 1.3, 0.8
        d, pooled = xbar2 - xbar1, 4 * s1 + 7 * s2
        assert_allclose(engine(d, pooled), engine.from_t(d / math.sqrt(pooled)), rtol=1e-10)

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
        prior = DensityPrior(lambda th: -(th - 1.0), (1.0, np.inf), log_z=0.0)
        engine = bf.VarianceRatioBf(prior, 5, 5)
        for f in [0.5, 1.0, 4.0]:
            assert_allclose(engine(f), engine.adaptive(f), rtol=1e-9)

    def test_monotone_in_f(self):
        prior = DensityPrior(lambda th: -(th - 1.0), (1.0, np.inf), log_z=0.0)
        engine = bf.VarianceRatioBf(prior, 5, 7)
        f = np.linspace(0.05, 30.0, 200)
        vals = engine(f)
        assert np.all(np.diff(vals) > 0)

    def test_blocks_match_single_values(self):
        # 1 500 values span three row blocks of 512
        prior = DensityPrior(lambda th: -(th - 1.0), (1.0, np.inf), log_z=0.0)
        engine = bf.VarianceRatioBf(prior, 8, 10)
        f = np.linspace(0.01, 20.0, 1500)
        vals = engine(f)
        singles = np.array([engine(x) for x in f])
        assert_allclose(vals, singles, rtol=1e-15, atol=0)
        assert np.all(np.diff(vals) > 0)
        for edge in (512, 1024):
            assert vals[edge - 1] < vals[edge]

    @pytest.mark.parametrize("n1, n2", [(8, 10), (5, 6)])
    def test_batch_equals_scalar_bit_for_bit(self, n1, n2):
        # lambda = B(gamma) is a scalar call and the draws go through the
        # blocked batch: a draw at gamma must not flip on summation order
        # the CLI's shifted_exponential at rate 1
        prior = DensityPrior(lambda th: -(th - 1.0), (1.0, np.inf), log_z=0.0)
        engine = bf.VarianceRatioBf(prior, n1, n2)
        f = RngStream(11).generator.f(n1, n2, size=5_000)
        batch = engine(f)
        scalar = np.array([engine(x) for x in f.tolist()])
        assert np.array_equal(batch, scalar)

    @pytest.mark.parametrize("n1, n2", [(8, 10), (5, 6), (61, 60)])
    def test_batch_matches_adaptive(self, n1, n2):
        prior = DensityPrior(lambda th: -(th - 1.0), (1.0, np.inf), log_z=0.0)
        engine = bf.VarianceRatioBf(prior, n1, n2)
        f = np.array([0.2, 0.9, 1.0, 1.7, 3.5])
        assert_allclose(engine(f), [engine.adaptive(x) for x in f], rtol=1e-12)

    def test_adaptive_overflow_is_typed(self):
        # log B is about 9 500 at F = 1e6 with n2 = 3000
        prior = DensityPrior(lambda th: -(th - 1.0), (1.0, np.inf), log_z=0.0)
        engine = bf.VarianceRatioBf(prior, 10, 3000)
        with pytest.raises(bf.NumericalIntegrityError):
            engine.adaptive(1e6)

    def test_batch_overflow_is_typed(self):
        # with n2 = 3000, B is past the float range from about F = 0.7 on:
        # the batch route raises instead of returning inf
        prior = DensityPrior(lambda th: -(th - 1.0), (1.0, np.inf), log_z=0.0)
        engine = bf.VarianceRatioBf(prior, 10, 3000)
        with pytest.raises(bf.NumericalIntegrityError):
            engine(np.array([1.0, 1e6]))

    def test_batch_memory_is_blocked(self):
        # one 20 000 x 200 float64 matrix alone would be 32 MB
        import tracemalloc

        prior = DensityPrior(lambda th: -(th - 1.0), (1.0, np.inf), log_z=0.0)
        engine = bf.VarianceRatioBf(prior, 30, 30)
        f = RngStream(7).generator.f(30, 30, size=20_000)
        tracemalloc.start()
        try:
            engine(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


# F from 1e-3 to 1e8: half decades off the certificate's quarter-decade
# probes, both ends, and F = 1e4, where 200 fixed nodes were 2e-4 off at
# (5, 200, 1)
SWEEP_F = np.unique(np.concatenate(([1e-3, 1e4, 1e8], 10.0 ** (np.arange(-3.0, 8.0, 0.5) + 0.125))))
LOG_FLOAT_RANGE = (math.log(np.finfo(float).tiny), math.log(np.finfo(float).max))


def _cli_pair(kind, n1, n2, prior):
    """The CLI's (problem, B) for a two-sample ``kind`` with the given
    prior.* keys."""
    cfg = RunConfig({"problem.kind": kind, "problem.n1": n1, "problem.n2": n2, **prior})
    problem = build_problem(cfg)
    return problem, build_bf(problem, cfg)


# the oracle of each variance-ratio pair, and the prior key it reads
VARIANCE_RATIO_ORACLES = {
    "shifted_exponential": ("prior.rate", variance_ratio_shifted_exponential_log_b),
    "point_mass": ("prior.theta1", variance_ratio_point_mass_log_b),
}


@pytest.mark.parametrize(
    "kind, n1, n2, value",
    [
        ("shifted_exponential", *row)
        for row in [(8, 10, 1.0), (8, 10, 0.05), (5, 200, 1.0), (200, 5, 1.0), (10, 600, 1.0), (10, 3000, 1.0)]
    ]
    + [
        ("point_mass", *row)
        for row in [(8, 10, 2.0), (8, 10, 20.0), (5, 200, 2.0), (200, 5, 2.0), (10, 600, 2.0), (10, 3000, 2.0)]
    ],
)
def test_variance_ratio_matches_mpmath(kind, n1, n2, value):
    # each B is within the stated error of the 30-digit oracle, or raises
    # where B is not a normal float
    key, oracle = VARIANCE_RATIO_ORACLES[kind]
    _, pair = _cli_pair("variance_ratio", n1, n2, {"prior.kind": kind, key: value})
    for f in SWEEP_F:
        log_b = oracle(n1, n2, value, f)
        try:
            b = float(pair.of_stat(f))
        except bf.NumericalIntegrityError:
            assert not LOG_FLOAT_RANGE[0] < log_b < LOG_FLOAT_RANGE[1], f"raised at F = {f}"
            continue
        assert abs(mpmath.mpf(b) / mpmath.exp(log_b) - 1) <= bf.VARIANCE_RATIO_RTOL, f"F = {f}"


@pytest.mark.parametrize("n1, n2, rate", [(8, 10, 1.0), (5, 6, 1.5)], ids=["bench", "golden"])
def test_variance_ratio_decision_boundary(n1, n2, rate):
    # {B > lambda} and {F > gamma} may disagree only in a window of a few
    # floats above gamma, where B(F) still rounds to lambda = B(gamma)
    problem, pair = _cli_pair("variance_ratio", n1, n2, {"prior.kind": "shifted_exponential", "prior.rate": rate})
    rule = calibrate(problem, 0.05, pair.of_stat)
    gamma = rule.region.upper
    # the smallest float F with B(F) > lambda, by bisection on floats
    below, above = gamma / 2.0, 2.0 * gamma
    assert not pair.of_stat(below) > rule.lam and pair.of_stat(above) > rule.lam
    while np.nextafter(below, above) < above:
        mid = 0.5 * (below + above)
        below, above = (below, mid) if pair.of_stat(mid) > rule.lam else (mid, above)
    assert gamma <= above <= gamma + 4 * np.spacing(gamma)
    # no second crossing
    grid = np.geomspace(gamma / 1e3, gamma * 1e3, 10_000)
    assert np.array_equal(rule.bayes(pair.of_stat(grid)), rule.classical(grid))


def _first_float(pred, hi: float) -> int:
    """The bit pattern of the smallest positive float x <= hi with pred(x),
    by bisection over the bit patterns of positive floats; pred is false at
    0 and true at hi.  Adjacent floats have adjacent patterns, so two
    results differ by their distance in ulp."""
    assert pred(hi) and not pred(0.0)
    below, above = 0, int(np.float64(hi).view(np.int64))
    while above - below > 1:
        mid = (below + above) // 2
        below, above = (below, mid) if pred(float(np.int64(mid).view(np.float64))) else (mid, above)
    return above


@pytest.mark.parametrize("n1, n2, c", [(12, 15, 1.0), (6, 8, 2.0), (2, 2, 1.0)], ids=["bench", "golden", "smallest"])
def test_two_sample_t_decision_boundary(n1, n2, c):
    # at each pooled and in each tail, the first |d| where B(d, pooled) > lambda
    # lies within 16 floats of the first where derive's T enters the region
    problem, pair = _cli_pair("two_sample_t", n1, n2, {"prior.kind": "conjugate", "prior.c": c})
    rule = calibrate(problem, 0.05, pair.of_stat)

    def decisions(d, pooled):
        s = problem.derive(SufficientSummary(d=d, pooled=np.full_like(d, pooled)))
        return rule.classical(problem.decision_stat(s)), rule.bayes(pair.of_summary(s))

    for pooled in (0.3, 1.0, 7.0, 25.0, 1e3, 1e5):
        edge = rule.region.upper * math.sqrt(pooled)
        for sign in (1.0, -1.0):
            classical_first, bayes_first = (
                _first_float(lambda x: decisions(np.array([sign * x]), pooled)[i][0], 4.0 * edge) for i in (0, 1)
            )
            assert abs(classical_first - bayes_first) <= 16, f"pooled = {pooled}, sign = {sign}"
        # no second crossing: both rules agree over six decades of |d|
        grid = edge * np.geomspace(1e-3, 1e3, 5_000)
        classical, bayes = decisions(np.concatenate([-grid[::-1], grid]), pooled)
        assert np.array_equal(classical, bayes) and np.count_nonzero(np.diff(bayes)) == 2


# (problem.kind, problem keys, prior keys) of the closed-form routes whose
# Monte Carlo draws are mapped across theta: the bench config and one more
CLOSED_FORM_BOUNDARIES = {
    "subset_selection_bench": ("subset_selection", {"problem.n": 40, "problem.p1": 2, "problem.p2": 3},
                               {"prior.kind": "conjugate", "prior.c": 1.0}),
    "subset_selection_golden": ("subset_selection", {"problem.n": 20, "problem.p1": 2, "problem.p2": 3},
                                {"prior.kind": "conjugate", "prior.c": 0.5}),
    "subset_selection_smallest": ("subset_selection", {"problem.n": 2, "problem.p1": 0, "problem.p2": 1},
                                  {"prior.kind": "conjugate", "prior.c": 2.0}),
    "half_normal_bench": ("one_sided_normal", {"problem.n": 4}, {"prior.kind": "half_normal", "prior.precision": 2.0}),
    "half_normal_diffuse": ("one_sided_normal", {"problem.n": 25}, {"prior.kind": "half_normal", "prior.precision": 0.05}),
    "two_sided_conjugate_bench": ("two_sided_normal", {"problem.n": 4}, {"prior.kind": "normal", "prior.precision": 2.0}),
    "two_sided_conjugate_diffuse": ("two_sided_normal", {"problem.n": 25}, {"prior.kind": "normal", "prior.precision": 0.05}),
}


@pytest.mark.parametrize("config", sorted(CLOSED_FORM_BOUNDARIES))
def test_closed_form_decision_boundary(config):
    # in each tail of the region, the rules may disagree only between the
    # first float statistic that enters the region and the first where
    # B(summary) > lambda, and B moves across that window by at most 32
    # eps: the window is B's own rounding (the power n/2 of the conjugate
    # forms scales the rounding of F/(1+F) by up to 20 at n = 40), not a
    # misplaced lambda.  The window is measured in B because B can be
    # nearly flat at gamma: 82 floats of F move B by one ulp at
    # (n, p1, p2) = (2, 0, 1), where gamma = 161
    kind, keys, prior = CLOSED_FORM_BOUNDARIES[config]
    cfg = RunConfig({"problem.kind": kind, **keys, **prior})
    problem = build_problem(cfg)
    pair = build_bf(problem, cfg)
    rule = calibrate(problem, 0.05, pair.of_stat)

    def decisions(stat):
        s = problem.derive(SufficientSummary({problem.stat: np.asarray(stat, dtype=float)}))
        return rule.classical(problem.decision_stat(s)), rule.bayes(pair.of_summary(s))

    edges = [(1.0, rule.region.upper)]
    if rule.region.shape == "two_tail":
        edges.append((-1.0, -rule.region.lower))
    for sign, edge in edges:
        b_classical, b_bayes = (
            float(pair.of_stat(sign * float(np.int64(bits).view(np.float64))))
            for bits in (_first_float(lambda x: decisions([sign * x])[i][0], 4.0 * edge) for i in (0, 1))
        )
        assert abs(b_bayes / b_classical - 1.0) <= 32 * np.finfo(float).eps, f"sign = {sign}"
    # no second crossing: both rules agree over three decades of the
    # statistic around the region's edge (the conjugate B overflows to inf
    # not far beyond)
    upper = rule.region.upper
    grid = upper * np.geomspace(1e-2, 1e1, 5_000)
    if rule.region.shape == "two_tail":
        grid = np.concatenate([-grid[::-1], grid])
    classical, bayes = decisions(grid)
    assert np.array_equal(classical, bayes) and np.count_nonzero(np.diff(bayes)) == len(edges)


def test_two_sample_known_var_summary_and_statistic_routes_are_one_float():
    problem, pair = _cli_pair("two_sample_known_var", 12, 15, {"prior.kind": "conjugate", "prior.c": 1.0})
    d = RngStream(31).generator.normal(0.0, 3.0 * math.sqrt(problem.diff_var), 10_000)
    engine = bf.TwoSampleKnownVarBf(12, 15, 1.0, 1.0, 1.0)
    assert np.array_equal(engine(d), engine.from_t(d**2))
    s = problem.derive(SufficientSummary(d=d))
    assert np.array_equal(pair.of_summary(s), pair.of_stat(problem.decision_stat(s)))


class TestSubsetSelection:
    def test_routes_agree(self):
        engine = bf.SubsetSelectionBf(12, 2, c=1.5)
        f = 0.8
        assert_allclose(engine.from_f(f), engine(f / (1 + f)), rtol=1e-12)

    def test_rejects_invalid_t(self):
        engine = bf.SubsetSelectionBf(10, 1, c=1.0)
        with pytest.raises(ValueError):
            engine(1.5)

    def test_t_at_one_is_the_f_to_infinity_limit(self):
        # T = F/(1+F) rounds to 1 once F passes about 9e15; B is finite
        # there, kappa ((1+c)/c)^{n/2}, and the limit of B as F grows
        n, p2, c = 10, 2, 0.5
        engine = bf.SubsetSelectionBf(n, p2, c)
        limit = (c / (1 + c)) ** (p2 / 2) * ((1 + c) / c) ** (n / 2)
        assert engine.from_f(1e16) == engine(1.0)
        assert_allclose(engine(1.0), limit, rtol=1e-14)
        assert_allclose(engine.from_f(1e12), limit, rtol=1e-10)
        with pytest.raises(ValueError):
            engine(-0.1)


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
        theta_star, g_min, prior = bf.johnson_umpbt_threshold(10.0, 10)
        # the first-order condition is solved to rounding; a Brent search
        # on g itself once stopped 1.9e-11 short
        assert abs(theta_star - math.sqrt(2 * math.log(10.0) / 10)) <= 2e-15
        assert prior.theta1 == theta_star

    def test_grid_search_oracle(self):
        lam, n = 7.0, 6
        theta_star, _, _ = bf.johnson_umpbt_threshold(lam, n)
        grid = np.linspace(1e-6, 5.0, 400_001)
        g = (math.log(lam) + n * grid**2 / 2) / grid
        assert abs(theta_star - grid[np.argmin(g)]) < 1e-4

    def test_lambda_one_is_boundary(self):
        theta_star, _, _ = bf.johnson_umpbt_threshold(1.0, 5)
        assert theta_star == 0.0
