import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from bfequiv import distributions as dist
from bfequiv.calibrate import calibrate
from bfequiv.cli import RunConfig, _default_grid, build_bf, build_problem
from bfequiv.power import exact_power, mc_power
from bfequiv.problems import (
    DegenerateDataError,
    GaussianMeanUnknownVar,
    OneSidedNormal,
    RegressionKnownVar,
    RegressionUnknownVar,
    SubjectiveVarianceEquality,
    SubsetSelection,
    TwoSampleMeansKnownVar,
    TwoSampleMeansUnknownEqualVar,
    TwoSidedNormal,
    VarianceRatio,
    orthonormalize,
)
from bfequiv.rng import RngStream


def simulate(problem, seed, theta, size, **kw):
    """`size` simulated summaries at theta: the standard draws of one
    seeded stream mapped to theta."""
    return problem.at(problem.draw_base(RngStream(seed), size), theta, **kw)


class TestOrthonormalize:
    def test_postconditions(self):
        g = RngStream(1).generator
        X = g.normal(size=(20, 4))
        Z, Q = orthonormalize(X)
        assert_allclose(Z.T @ Z, np.eye(4), atol=1e-12)
        assert_allclose(X @ Q, Z, atol=1e-12)

    def test_span_preserved(self):
        g = RngStream(2).generator
        X = g.normal(size=(15, 3))
        Z, _ = orthonormalize(X)
        # projections onto the two column spaces coincide
        P_x = X @ np.linalg.solve(X.T @ X, X.T)
        assert_allclose(Z @ Z.T, P_x, atol=1e-10)

    def test_rank_deficient_raises(self):
        X = np.ones((10, 2))
        with pytest.raises(np.linalg.LinAlgError):
            orthonormalize(X)


class TestOneSidedNormal:
    def test_summary_is_sum(self):
        p = OneSidedNormal(n=3)
        s = p.summarize([1.0, 2.0, 3.0])
        assert s.t == 6.0

    def test_null_law(self):
        p = OneSidedNormal(n=4)
        assert_allclose(
            dist.quantile(p.null_law(), 0.95), 2.0 * stats.norm.ppf(0.95), rtol=1e-12
        )

    def test_simulated_stat_matches_law(self):
        p = OneSidedNormal(n=4, theta0=0.5)
        s = simulate(p, 3, 1.0, 100_000)
        law = p.alt_law(1.0)
        assert stats.kstest(s.t, lambda v: dist.cdf(law, v)).statistic < 0.006


class TestGaussianMeanUnknownVar:
    def test_hand_computed_t(self):
        # data (1, 2, 3): xbar = 2, s = 1, t = sqrt(3)*2 = 3.4641
        p = GaussianMeanUnknownVar(n=3)
        s = p.summarize([1.0, 2.0, 3.0])
        assert_allclose(s.t, 2.0 * math.sqrt(3.0), rtol=1e-12)
        assert_allclose(s.xbar, 2.0)
        assert_allclose(s.sum_sq, 14.0)

    def test_constant_data_degenerate(self):
        p = GaussianMeanUnknownVar(n=3)
        with pytest.raises(DegenerateDataError):
            p.summarize([2.0, 2.0, 2.0])

    def test_simulated_t_is_student(self):
        p = GaussianMeanUnknownVar(n=6)
        s = p.derive(simulate(p, 4, 0.0, 100_000))
        assert stats.kstest(s.t, lambda v: stats.t.cdf(v, 5)).statistic < 0.006

    def test_alt_cdf_is_noncentral_t(self):
        p = GaussianMeanUnknownVar(n=9)
        x = np.array([-1.0, 0.5, 2.0])
        assert_allclose(
            p.alt_cdf(0.4, x), stats.nct.cdf(x, 8, 3 * 0.4), rtol=1e-12
        )


class TestRegression:
    def test_t_abs_invariant_to_basis(self):
        # T'T is the same whether computed from X or its orthonormalization
        g = RngStream(5).generator
        X = g.normal(size=(12, 3))
        y = g.normal(size=12)
        p = RegressionKnownVar(p=3, n=12)
        s = p.summarize(y, X)
        P_x = X @ np.linalg.solve(X.T @ X, X.T)
        assert_allclose(s.t_abs, y @ P_x @ y, rtol=1e-10)

    def test_f_statistic_from_projections(self):
        g = RngStream(6).generator
        X = g.normal(size=(15, 2))
        y = g.normal(size=15)
        p = RegressionUnknownVar(p=2, n=15)
        s = p.summarize(y, X)
        P_x = X @ np.linalg.solve(X.T @ X, X.T)
        num = (y @ P_x @ y) / 2
        den = (y @ (np.eye(15) - P_x) @ y) / 13
        assert_allclose(s.f, num / den, rtol=1e-10)
        assert_allclose(s.yy, s.yHy + s.rss2, rtol=1e-12)

    def test_null_laws(self):
        assert_allclose(
            dist.quantile(RegressionKnownVar(p=3, n=10).null_law(), 0.9),
            stats.chi2.ppf(0.9, 3),
            rtol=1e-12,
        )
        assert_allclose(
            dist.quantile(RegressionUnknownVar(p=3, n=10).null_law(), 0.9),
            stats.f.ppf(0.9, 3, 7),
            rtol=1e-12,
        )


class TestTwoSample:
    def test_known_var_stat(self):
        p = TwoSampleMeansKnownVar(n1=3, n2=2, tau1=1.0, tau2=2.0)
        s = p.summarize([1.0, 2.0, 3.0], [0.0, 1.0])
        assert s.d == 2.0 - 0.5 and s.t == (2.0 - 0.5) ** 2

    def test_t_statistic_scaled_student_null(self):
        p = TwoSampleMeansUnknownEqualVar(n1=5, n2=7)
        s = p.derive(simulate(p, 7, 0.0, 100_000))
        law = p.null_law()
        assert stats.kstest(s.t, lambda v: dist.cdf(law, v)).statistic < 0.006

    @pytest.mark.parametrize("theta", [0.0, 0.7])
    def test_draws_have_the_laws_of_d_and_pooled(self, theta):
        # d ~ N(theta, 1/n1 + 1/n2) and pooled ~ chi-square(n - 2): the first
        # two moments of the draws lie within 5 se of the exact ones
        p, size = TwoSampleMeansUnknownEqualVar(n1=12, n2=15), 200_000
        s = simulate(p, 21, theta, size)
        v, k = 1 / 12 + 1 / 15, p.n - 2
        moments = [
            (np.mean(s.d), theta, math.sqrt(v / size)),
            (np.var(s.d, ddof=1), v, v * math.sqrt(2 / (size - 1))),
            (np.mean(s.pooled), k, math.sqrt(2 * k / size)),
            # the fourth central moment of chi-square(k) is 12 k^2 + 48 k
            (np.var(s.pooled, ddof=1), 2 * k, math.sqrt((8 * k**2 + 48 * k) / size)),
        ]
        for got, exact, se in moments:
            assert abs(got - exact) < 5 * se, (got, exact, se)

    def test_t_statistic_two_ways(self):
        # T relates to the standard two-sample t statistic by a constant
        g = RngStream(8).generator
        x1, x2 = g.normal(size=5), g.normal(size=8)
        p = TwoSampleMeansUnknownEqualVar(n1=5, n2=8)
        s = p.summarize(x1, x2)
        t_std = stats.ttest_ind(x2, x1, equal_var=True).statistic
        assert_allclose(s.t, t_std * p.stat_scale, rtol=1e-10)


class TestVarianceRatio:
    def test_null_is_scaled_f(self):
        p = VarianceRatio(n1=6, n2=11)
        s = simulate(p, 9, 1.0, 100_000)
        # F = S1^2/S2^2 ~ (5/10) F(5, 10)
        assert (
            stats.kstest(s.f * 10 / 5, lambda v: stats.f.cdf(v, 5, 10)).statistic
            < 0.006
        )

    def test_alt_scaling(self):
        p = VarianceRatio(n1=4, n2=4)
        x = np.array([0.5, 1.0, 3.0])
        assert_allclose(p.alt_cdf(2.0, x), p.alt_cdf(1.0, x / 2.0), rtol=1e-12)


class TestSubsetSelection:
    def test_hand_computed_f(self):
        # y = (1, -1), augmented here to n=3 with an orthogonal design
        y = np.array([1.0, 2.0, 2.0])
        X1 = np.array([[1.0], [1.0], [1.0]])
        X2 = np.array([[1.0], [-1.0], [0.0]])
        p = SubsetSelection(n=3, p1=1, p2=1)
        s = p.summarize(y, X1, X2)
        H1 = X1 @ np.linalg.solve(X1.T @ X1, X1.T)
        X = np.hstack([X1, X2])
        H = X @ np.linalg.solve(X.T @ X, X.T)
        expected = (y @ (H - H1) @ y) / (y @ (np.eye(3) - H) @ y)
        assert_allclose(s.f, expected, rtol=1e-12)

    def test_summary_memory_grows_with_n_not_n_squared(self):
        # two n x n hat matrices at n = 2 000 would hold 64 MB
        g = RngStream(12).generator
        n = 2_000
        y, X1, X2 = g.normal(size=n), g.normal(size=(n, 2)), g.normal(size=(n, 3))
        tracemalloc.start()
        try:
            s = SubsetSelection(n=n, p1=2, p2=3).summarize(y, X1, X2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000
        X = np.hstack([X1, X2])
        fit = lambda A: y - A @ np.linalg.lstsq(A, y, rcond=None)[0]
        rss1, rss = float(fit(X1) @ fit(X1)), float(fit(X) @ fit(X))
        assert_allclose(s.f, (rss1 - rss) / rss, rtol=1e-10)
        assert_allclose(s.rss_null, rss1, rtol=1e-10)

    def test_null_law_is_scaled_f(self):
        p = SubsetSelection(n=10, p1=2, p2=3)
        s = simulate(p, 10, 0.0, 100_000)
        law = p.null_law()
        assert stats.kstest(s.f, lambda v: dist.cdf(law, v)).statistic < 0.006


class TestSubjectiveVariance:
    def test_summary_fields(self):
        p = SubjectiveVarianceEquality(n1=2, n2=2, b=3.0)
        s = p.summarize([1.0, 1.0], [1.0, 0.0])
        assert_allclose(s.f, 2.0)
        assert_allclose(s.q, 1.0)  # b / (S1^2 + S2^2) = 3/3
        assert_allclose(s.t_sub, 0.25 - 2.0 / 9.0)

    def test_t_invariant_under_reciprocal_f(self):
        p = SubjectiveVarianceEquality(n1=5, n2=5)
        s = p.derive(simulate(p, 11, 1.0, 1000))
        t_flip = 0.25 - (1.0 / s.f) / (1.0 + 1.0 / s.f) ** 2
        assert_allclose(s.t_sub, t_flip, atol=1e-12)

    def test_permutation_invariance_of_sums(self):
        p = SubjectiveVarianceEquality(n1=3, n2=3)
        a = p.summarize([1.0, 2.0, 3.0], [0.5, -1.0, 2.0])
        b = p.summarize([3.0, 1.0, 2.0], [2.0, 0.5, -1.0])
        assert a == b


class TestRegionShapes:
    def test_shapes(self):
        assert OneSidedNormal().region_shape == "upper"
        assert TwoSidedNormal().region_shape == "two_tail"
        assert GaussianMeanUnknownVar(n=3).region_shape == "two_tail"
        assert RegressionUnknownVar(p=1, n=5).region_shape == "upper"
        assert VarianceRatio().region_shape == "upper"
        assert SubjectiveVarianceEquality().region_shape == "two_tail"


# (problem, theta, keywords of `at`): theta0 and two alternatives of every
# problem, with p = 1 (no chi-square term) and delta = 0 among them
LAW_CASES = [
    (p, theta, kw)
    for p, thetas, kw in [
        (OneSidedNormal(n=4), (0.0, 0.5, 1.5), {}),
        (TwoSidedNormal(n=4), (0.0, -0.7, 1.2), {}),
        (GaussianMeanUnknownVar(n=6), (0.0, 0.4, -1.0), {}),
        (RegressionKnownVar(p=1, n=5), (0.0, 2.0, 9.0), {}),
        (RegressionKnownVar(p=3, n=12), (0.0, 2.0, 9.0), {}),
        (RegressionUnknownVar(p=1, n=6), (0.0, 2.0, 9.0), {}),
        (RegressionUnknownVar(p=2, n=12), (0.0, 3.0, 12.0), {}),
        (TwoSampleMeansKnownVar(n1=8, n2=12, tau1=1.0, tau2=2.0), (0.0, 0.5, -1.0), {}),
        (TwoSampleMeansUnknownEqualVar(n1=12, n2=15), (0.0, 0.7, -1.5), {}),
        (VarianceRatio(n1=6, n2=11), (1.0, 2.0, 5.0), {}),
        (SubsetSelection(n=10, p1=2, p2=1), (0.0, 2.0, 8.0), {}),
        (SubsetSelection(n=10, p1=2, p2=3), (0.0, 3.0, 10.0), {}),
        (SubjectiveVarianceEquality(n1=7, n2=7), (1.0, 2.0, 0.5), {}),
        (SubjectiveVarianceEquality(n1=7, n2=7), (1.0, 3.0), {"scale2": 1e8}),
    ]
    for theta in thetas
]


@pytest.mark.parametrize(
    "problem, theta, kw", LAW_CASES, ids=[f"{p!r}-{th}" + (f"-{kw}" if kw else "") for p, th, kw in LAW_CASES]
)
def test_at_of_draw_base_has_the_exact_law(problem, theta, kw):
    # the decision statistic of 100 000 mapped draws against the exact
    # alternative law at theta (Kolmogorov-Smirnov)
    s = problem.derive(problem.at(problem.draw_base(RngStream(23), 100_000), theta, **kw))
    stat = np.asarray(problem.decision_stat(s))
    assert stats.kstest(stat, lambda x: problem.alt_cdf(theta, x)).pvalue > 1e-4


def test_at_leaves_the_base_unchanged():
    # every theta reads the same base, so `at` must not write to it
    for problem, theta, kw in LAW_CASES:
        base = problem.draw_base(RngStream(24), 1000)
        before = {k: v.copy() for k, v in base.items()}
        problem.derive(problem.at(base, theta, **kw))
        assert all(np.array_equal(base[k], before[k]) for k in before)


# one CLI config per problem kind: (problem keys, prior keys)
CLI_PROBLEMS = {
    "one_sided_normal": ({"problem.n": 4}, {"prior.kind": "half_normal", "prior.precision": 2.0}),
    "two_sided_normal": ({"problem.n": 4}, {"prior.kind": "normal", "prior.precision": 2.0}),
    "t_test": ({"problem.n": 10}, {"prior.kind": "gaussian_scale"}),
    "regression_known_var": ({"problem.p": 3, "problem.n": 12}, {"prior.kind": "gaussian_spherical", "prior.precision": 0.5}),
    "regression_unknown_var": ({"problem.p": 2, "problem.n": 12}, {"prior.kind": "gaussian_spherical", "prior.precision": 0.5}),
    "two_sample_known_var": ({"problem.n1": 12, "problem.n2": 15}, {"prior.kind": "conjugate"}),
    "two_sample_t": ({"problem.n1": 12, "problem.n2": 15}, {"prior.kind": "conjugate"}),
    "variance_ratio": ({"problem.n1": 8, "problem.n2": 10}, {"prior.kind": "shifted_exponential", "prior.rate": 1.0}),
    "subset_selection": ({"problem.n": 40, "problem.p1": 2, "problem.p2": 3}, {"prior.kind": "conjugate"}),
    "subjective_variance": ({"problem.n1": 10, "problem.n2": 10}, {"prior.kind": "gamma"}),
}


def cli_rule(kind):
    """The CLI's problem, B and size-0.05 rule for `kind`."""
    keys, prior = CLI_PROBLEMS[kind]
    cfg = RunConfig({"problem.kind": kind, **keys, **prior})
    problem = build_problem(cfg)
    pair = build_bf(problem, cfg)
    return problem, pair, calibrate(problem, 0.05, pair.of_stat)


@pytest.mark.parametrize("kind", sorted(CLI_PROBLEMS))
def test_mc_power_matches_exact_power(kind):
    # on the CLI's default 21-point grid, the Monte Carlo power of the
    # classical rule lies within 5 se of the exact power at every point,
    # and the Bayes rule decides every draw the same way (but for the
    # proper-prior subjective rule, which `dominance_study` shows is not)
    problem, pair, rule = cli_rule(kind)
    thetas, n_sims = _default_grid(problem, rule.region, 0.05), 20_000
    classical, _, n_disagree, _ = mc_power(problem, rule, RngStream(22), thetas, n_sims, pair.of_summary)
    exact = exact_power(problem, rule.region, thetas)
    assert (n_disagree == 0) == (kind != "subjective_variance")
    assert np.all(np.abs(classical.power - exact) < 5 * np.sqrt(exact * (1 - exact) / n_sims))


@pytest.mark.parametrize("kind", ["one_sided_normal", "variance_ratio"])
def test_rejections_never_fall_as_theta_rises(kind):
    # each draw's statistic is increasing in theta (t = n theta + sqrt(n) z,
    # F = theta chi-square ratio) and every theta maps the same draws, so
    # on a fine grid no rejection count falls, not even by noise
    problem, pair, rule = cli_rule(kind)
    thetas = problem.theta0 + np.linspace(0.0, 0.3, 61)
    n_sims = 20_000
    classical, bayes, n_disagree, _ = mc_power(problem, rule, RngStream(25), thetas, n_sims, pair.of_summary)
    assert n_disagree == 0
    for curve in (classical, bayes):
        hits = np.rint(curve.power * n_sims)
        assert np.all(np.diff(hits) >= 0) and hits[-1] > hits[0]


@pytest.mark.parametrize(
    "problem, theta",
    [(TwoSampleMeansUnknownEqualVar(n1=12, n2=15), 2.0), (TwoSampleMeansUnknownEqualVar(n1=12, n2=15), -2.0),
     (GaussianMeanUnknownVar(n=10), 2.0), (GaussianMeanUnknownVar(n=10), -2.0)],
)
def test_noncentral_t_alt_cdf_is_a_cdf_in_both_tails(problem, theta):
    # scipy's nctdtr is nan at many points deep in a tail (nctdtr(25, 5.16,
    # -5.0), which the two-sample problem reads at theta = 2); alt_cdf
    # gives its limit there, so the CDF is finite and non-decreasing
    x = np.linspace(-40.0, 40.0, 801)
    cdf = problem.alt_cdf(theta, x)
    assert np.all((cdf >= 0) & (cdf <= 1)) and np.all(np.diff(cdf) >= -1e-15)
    # the point named above, whose CDF is about 1e-20
    if isinstance(problem, TwoSampleMeansUnknownEqualVar) and theta > 0:
        assert problem.alt_cdf(theta, -5.0 * problem.stat_scale) < 1e-15

