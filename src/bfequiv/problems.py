"""Catalogue of testing problems.

Each problem exposes: the sufficient summary computed from raw data, the
decision statistic and the shape of its critical region, the exact null
law of that statistic, the exact alternative CDF where one exists, and a
fast sampler for the sufficient summary (used by the Monte Carlo
studies; it draws the summary from its exact sampling distribution
rather than the raw observations).  The sampler has two halves:
`draw_base` draws the standard variates, which do not depend on theta,
and `at` maps them to the summary at any theta through an exact law
identity, so one block of draws serves a whole theta grid.  A simulated
summary holds only its draws and their exact reductions; `derive` forms
the fields built from them, per block of draws (`rng.ROW_BLOCK`) where a
Monte Carlo loop reads them, and for observed data in `summarize`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import distributions as dist
from .distributions import DistSpec

__all__ = [
    "SufficientSummary",
    "DegenerateDataError",
    "orthonormalize",
    "TestProblem",
    "normal_log_ratio",
    "OneSidedNormal",
    "TwoSidedNormal",
    "GaussianMeanUnknownVar",
    "RegressionKnownVar",
    "RegressionUnknownVar",
    "TwoSampleMeansKnownVar",
    "TwoSampleMeansUnknownEqualVar",
    "VarianceRatio",
    "SubsetSelection",
    "SubjectiveVarianceEquality",
    "subjective_t",
]


class SufficientSummary(dict):
    """Problem-dependent bag of sufficient statistics (attribute access)."""

    def __getattr__(self, name):
        try:
            return self[name]
        except KeyError as exc:
            raise AttributeError(name) from exc


class DegenerateDataError(ValueError):
    """Raised when a required variance or sum of squares is zero."""


def orthonormalize(X: np.ndarray):
    """Modified Gram-Schmidt with one re-orthogonalization pass.

    Returns (Z, Q) with Z = X Q and Z'Z = I.  Raises on rank deficiency
    (column norm ratio below 1e-10).
    """
    X = np.asarray(X, dtype=float)
    n, p = X.shape
    Z = X.copy()
    R = np.zeros((p, p))
    norms0 = np.linalg.norm(X, axis=0)
    for j in range(p):
        for _ in range(2):  # re-orthogonalization pass
            for i in range(j):
                c = Z[:, i] @ Z[:, j]
                R[i, j] += c
                Z[:, j] -= c * Z[:, i]
        nrm = np.linalg.norm(Z[:, j])
        if nrm < 1e-10 * max(1.0, norms0[j]):
            raise np.linalg.LinAlgError(
                f"design matrix is rank deficient (estimated rank {j} of {p})"
            )
        R[j, j] = nrm
        Z[:, j] /= nrm
    Q = np.linalg.solve(R, np.eye(p))
    return Z, Q


class TestProblem:
    """Base: a hypothesis-testing instance with a classical statistic."""

    #: "upper" (reject if stat > gamma) or "two_tail" (stat < g1 or > g2)
    region_shape = "upper"
    theta0 = 0.0
    #: the values theta may take, in the config reader's bounds vocabulary
    #: ("> 0", ">= 0"; "" for every finite number)
    theta_domain = ""
    #: the summary field that holds the decision statistic
    stat = "t"

    def summarize(self, *data) -> SufficientSummary:
        raise NotImplementedError

    def derive(self, summary: SufficientSummary) -> SufficientSummary:
        """The summary with the fields formed from its stored reductions
        added: the one formula for observed data and for simulated blocks.
        The base summary stores every field."""
        return summary

    def decision_stat(self, summary: SufficientSummary):
        """The statistic of a derived summary (see `derive`)."""
        return summary[self.stat]

    def null_law(self) -> DistSpec:
        """Law of the decision statistic under H0: the alternative law at
        theta0."""
        return self.alt_law(self.theta0)

    def alt_cdf(self, theta, x):
        """CDF of the decision statistic under the alternative theta."""
        return dist.cdf(self.alt_law(theta), x)

    def alt_law(self, theta) -> DistSpec:
        raise NotImplementedError

    def draw_base(self, rng, size: int) -> SufficientSummary:
        """The standard variates of `size` datasets, free of theta."""
        raise NotImplementedError

    def at(self, base: SufficientSummary, theta, **kw) -> SufficientSummary:
        """The simulated summary at theta of the datasets whose standard
        variates are `base`: the reductions that `derive` turns into the
        decision statistic and the Bayes factor's inputs.  `base` is read,
        never written, so the same draws serve every theta."""
        raise NotImplementedError


def _draw_chi_square_parts(g, df: int, size: int) -> dict:
    """z ~ N(0, 1) and, for df > 1, rest ~ chi-square(df - 1): the parts
    of a noncentral chi-square(df, ncp) = (z + sqrt(ncp))^2 + rest."""
    parts = {"z": g.standard_normal(size)}
    if df > 1:
        parts["rest"] = g.chisquare(df - 1, size)
    return parts


def _noncentral_chi_square(base, ncp):
    """(z + sqrt(ncp))^2 + rest from the parts `_draw_chi_square_parts`
    drew; ncp = 0 gives a central chi-square(df)."""
    out = base.z + math.sqrt(ncp)
    np.square(out, out=out)
    if "rest" in base:
        out += base.rest
    return out


def _noncentral_t_cdf(df, ncp, x):
    """scipy's noncentral t CDF, which returns nan deep in a tail of some
    laws (nctdtr(25, 5.16, -5.0)); there the CDF is within 1e-17 of its
    limit, 0 below ncp and 1 above it, and the limit is returned."""
    x = np.asarray(x, dtype=float)
    p = special.nctdtr(df, ncp, x)
    return np.where(np.isnan(p) & ~np.isnan(x), np.where(x < ncp, 0.0, 1.0), p)[()]


# ---------------------------------------------------------------------------
# One-parameter normal problems (known variance 1), statistic T = sum(x_i)


def normal_log_ratio(t, theta, theta0, n: int):
    """log f(x | theta) / f(x | theta0) for n unit-variance normal draws
    with sum t; increasing in t whenever theta > theta0."""
    t = np.asarray(t, dtype=float)
    return t * (theta - theta0) - n * (np.square(theta) / 2.0 - np.square(theta0) / 2.0)


@dataclass(frozen=True)
class OneSidedNormal(TestProblem):
    """X_i ~ N(theta, 1); H0: theta = theta0 vs H1: theta > theta0."""

    n: int = 1
    theta0: float = 0.0

    region_shape = "upper"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need n >= 1")

    def summarize(self, x):
        x = np.asarray(x, dtype=float)
        if x.size != self.n:
            raise ValueError(f"expected {self.n} observations, got {x.size}")
        return SufficientSummary(t=float(np.sum(x)))

    def alt_law(self, theta):
        return DistSpec.normal(self.n * theta, math.sqrt(self.n))

    def draw_base(self, rng, size):
        return SufficientSummary(z=rng.generator.standard_normal(size))

    def at(self, base, theta):
        # t = n theta + sqrt(n) z ~ N(n theta, n)
        t = base.z * math.sqrt(self.n)
        t += self.n * theta
        return SufficientSummary(t=t)


@dataclass(frozen=True)
class TwoSidedNormal(OneSidedNormal):
    """Same model, two-sided alternative theta != theta0."""

    region_shape = "two_tail"


# ---------------------------------------------------------------------------
# Gaussian mean, unknown variance (one-sample t-test)


@dataclass(frozen=True)
class GaussianMeanUnknownVar(TestProblem):
    """X_i ~ N(theta, 1/phi), phi unknown; H0: theta = 0, two-sided.

    Decision statistic is the t-statistic sqrt(n)*xbar/S, which `derive`
    forms from xbar and the centred sum of squares SS = (n-1) S^2.  The
    Bayes factor consumes (xbar, sum of squares, n).
    """

    n: int = 2
    region_shape = "two_tail"

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need n >= 2")

    def summarize(self, x):
        x = np.asarray(x, dtype=float)
        xbar = float(np.mean(x))
        ss_centered = float(np.sum((x - xbar) ** 2))
        if ss_centered == 0.0:
            raise DegenerateDataError("zero sample variance")
        summary = SufficientSummary(xbar=xbar, ss_centered=ss_centered, sum_sq=float(np.sum(x**2)))
        return self.derive(summary)

    def derive(self, summary):
        s = np.sqrt(summary.ss_centered / (self.n - 1))
        return SufficientSummary(summary, t=math.sqrt(self.n) * summary.xbar / s)

    def null_law(self):
        return DistSpec.student_t(self.n - 1)

    def alt_cdf(self, theta, x):
        return _noncentral_t_cdf(self.n - 1, math.sqrt(self.n) * theta, x)

    def draw_base(self, rng, size):
        g = rng.generator
        return SufficientSummary(z=g.standard_normal(size), ss_centered=g.chisquare(self.n - 1, size))

    def at(self, base, theta):
        # xbar = theta + z / sqrt(n) ~ N(theta, 1/n); SS ~ chi-square(n - 1)
        # is free of theta and shared
        xbar = base.z * (1.0 / math.sqrt(self.n))
        xbar += theta
        ss_centered = base.ss_centered
        return SufficientSummary(
            xbar=xbar, ss_centered=ss_centered, sum_sq=ss_centered + self.n * xbar**2
        )


# ---------------------------------------------------------------------------
# Regression with orthonormalized design


@dataclass(frozen=True)
class RegressionKnownVar(TestProblem):
    """y = Z delta + eps, sigma = 1, Z'Z = I; H0: delta = 0.

    Decision statistic |T| = sum_j T_j^2 with T_j = sum_i y_i z_ij;
    chi-square(p) under the null, noncentral with ncp = |delta| under the
    alternative (|.| is the squared Euclidean norm throughout).
    """

    p: int = 1
    n: int = 2
    region_shape = "upper"
    theta_domain = ">= 0"  # the noncentrality |delta|
    stat = "t_abs"

    def __post_init__(self):
        if not 1 <= self.p <= self.n:
            raise ValueError("need 1 <= p <= n")

    def summarize(self, y, X):
        y = np.asarray(y, dtype=float)
        Z, Q = orthonormalize(np.asarray(X, dtype=float))
        t_vec = Z.T @ y
        return SufficientSummary(t_vec=t_vec, t_abs=float(t_vec @ t_vec))

    def alt_law(self, delta_norm_sq):
        return DistSpec.noncentral_chi_square(self.p, delta_norm_sq)

    def draw_base(self, rng, size):
        return SufficientSummary(_draw_chi_square_parts(rng.generator, self.p, size))

    def at(self, base, delta_norm_sq):
        return SufficientSummary(t_abs=_noncentral_chi_square(base, delta_norm_sq))


@dataclass(frozen=True)
class RegressionUnknownVar(TestProblem):
    """y = Z delta + sigma*eps, sigma unknown; H0: delta = 0 (global F-test).

    F = ((RSS1 - RSS2)/p) / (RSS2/(n - p)) with RSS1 = y'y (the null
    model has no free parameters) and RSS2 the residual from the full fit;
    `derive` forms it from yHy = RSS1 - RSS2 and rss2 = RSS2.
    """

    p: int = 1
    n: int = 2
    region_shape = "upper"
    theta_domain = ">= 0"  # the noncentrality |delta|
    stat = "f"

    def __post_init__(self):
        if not 1 <= self.p < self.n:
            raise ValueError("need 1 <= p < n")

    def summarize(self, y, X):
        y = np.asarray(y, dtype=float)
        Z, _ = orthonormalize(np.asarray(X, dtype=float))
        yy = float(y @ y)
        ty = Z.T @ y
        yHy = float(ty @ ty)
        rss2 = yy - yHy
        if rss2 <= 0.0:
            raise DegenerateDataError("zero residual sum of squares")
        return self.derive(SufficientSummary(rss2=rss2, yHy=yHy, yy=yy))

    def derive(self, summary):
        f = (summary.yHy / self.p) / (summary.rss2 / (self.n - self.p))
        return SufficientSummary(summary, f=f)

    def alt_law(self, delta_norm_sq):
        return DistSpec.noncentral_f(self.p, self.n - self.p, delta_norm_sq)

    def draw_base(self, rng, size):
        g = rng.generator
        base = SufficientSummary(_draw_chi_square_parts(g, self.p, size))
        base["rss2"] = g.chisquare(self.n - self.p, size)
        return base

    def at(self, base, delta_norm_sq):
        # the residual sum of squares rss2 ~ chi-square(n - p) is shared
        yHy = _noncentral_chi_square(base, delta_norm_sq)
        return SufficientSummary(yHy=yHy, yy=yHy + base.rss2, rss2=base.rss2)


# ---------------------------------------------------------------------------
# Two-sample problems


@dataclass(frozen=True)
class TwoSampleMeansKnownVar(TestProblem):
    """Two normal samples, known precisions tau1, tau2; H0: means equal.

    Summary d = xbar1 - xbar2, from which `derive` forms the decision
    statistic T = d^2, a scaled chi-square(1).
    """

    n1: int = 1
    n2: int = 1
    tau1: float = 1.0
    tau2: float = 1.0
    region_shape = "upper"

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1 or not (self.tau1 > 0 and self.tau2 > 0):
            raise ValueError("need n1, n2 >= 1 and tau1, tau2 > 0")

    @property
    def diff_var(self):
        return 1.0 / (self.n1 * self.tau1) + 1.0 / (self.n2 * self.tau2)

    def summarize(self, x1, x2):
        x1, x2 = np.asarray(x1, dtype=float), np.asarray(x2, dtype=float)
        return self.derive(SufficientSummary(d=float(np.mean(x1)) - float(np.mean(x2))))

    def derive(self, summary):
        return SufficientSummary(summary, t=summary.d**2)

    def alt_law(self, mean_diff):
        ncp = mean_diff**2 / self.diff_var
        return DistSpec.noncentral_chi_square(1.0, ncp, self.diff_var)

    def draw_base(self, rng, size):
        return SufficientSummary(z=rng.generator.standard_normal(size))

    def at(self, base, mean_diff):
        # d = mean_diff + sigma z ~ N(mean_diff, diff_var)
        d = base.z * math.sqrt(self.diff_var)
        d += mean_diff
        return SufficientSummary(d=d)


@dataclass(frozen=True)
class TwoSampleMeansUnknownEqualVar(TestProblem):
    """Two-sample t-test with equal unknown variance; H0: means equal.

    Summary d = xbar2 - xbar1 and pooled = (n1-1)S1^2 + (n2-1)S2^2.
    Decision statistic T = d/sqrt(pooled), a scaled Student-t(n-2).
    """

    n1: int = 2
    n2: int = 2
    region_shape = "two_tail"

    def __post_init__(self):
        if self.n1 < 2 or self.n2 < 2:
            raise ValueError("need n1, n2 >= 2")

    @property
    def n(self):
        return self.n1 + self.n2

    @property
    def stat_scale(self):
        # T = scale * (standard two-sample t statistic)
        return math.sqrt((1.0 / self.n1 + 1.0 / self.n2) / (self.n - 2))

    def summarize(self, x1, x2):
        x1, x2 = np.asarray(x1, dtype=float), np.asarray(x2, dtype=float)
        xbar1, xbar2 = float(np.mean(x1)), float(np.mean(x2))
        s1_sq = float(np.var(x1, ddof=1))
        s2_sq = float(np.var(x2, ddof=1))
        pooled = (self.n1 - 1) * s1_sq + (self.n2 - 1) * s2_sq
        if pooled <= 0.0:
            raise DegenerateDataError("zero pooled variance")
        return self.derive(SufficientSummary(d=xbar2 - xbar1, pooled=pooled))

    def derive(self, summary):
        return SufficientSummary(summary, t=summary.d / np.sqrt(summary.pooled))

    def null_law(self):
        return DistSpec.student_t(self.n - 2, self.stat_scale)

    def alt_cdf(self, theta, x):
        ncp = theta / math.sqrt(1.0 / self.n1 + 1.0 / self.n2)
        return _noncentral_t_cdf(self.n - 2, ncp, np.asarray(x, dtype=float) / self.stat_scale)

    def draw_base(self, rng, size):
        # d = theta + sigma z and pooled ~ chi-square(n - 2) are independent:
        # two variates per dataset are all the decision reads
        g = rng.generator
        return SufficientSummary(z=g.standard_normal(size), pooled=g.chisquare(self.n - 2, size))

    def at(self, base, theta):
        # d = theta + sigma z; pooled is free of theta and shared
        d = base.z * math.sqrt(1.0 / self.n1 + 1.0 / self.n2)
        d += theta
        return SufficientSummary(d=d, pooled=base.pooled)


@dataclass(frozen=True)
class VarianceRatio(TestProblem):
    """Equality of variances, one-sided H1: var1/var2 > 1.

    F = S1^2/S2^2 with S_j^2 the centered sums of squares; under the
    variance ratio theta, F is distributed theta*(n1-1)/(n2-1) times a
    central F(n1-1, n2-1).
    """

    n1: int = 2
    n2: int = 2
    region_shape = "upper"
    theta0 = 1.0
    theta_domain = "> 0"
    stat = "f"

    def __post_init__(self):
        if self.n1 < 2 or self.n2 < 2:
            raise ValueError("need n1, n2 >= 2")

    def summarize(self, x1, x2):
        x1, x2 = np.asarray(x1, dtype=float), np.asarray(x2, dtype=float)
        s1_sq = float(np.sum((x1 - np.mean(x1)) ** 2))
        s2_sq = float(np.sum((x2 - np.mean(x2)) ** 2))
        if s2_sq == 0.0:
            raise DegenerateDataError("zero sum of squares in sample 2")
        return SufficientSummary(s1_sq=s1_sq, s2_sq=s2_sq, f=s1_sq / s2_sq)

    def alt_law(self, theta):
        scale = theta * (self.n1 - 1) / (self.n2 - 1)
        return DistSpec.fisher_f(self.n1 - 1, self.n2 - 1, scale)

    def draw_base(self, rng, size):
        # F at theta = 1: chi-square(n1 - 1) / chi-square(n2 - 1)
        g = rng.generator
        ratio = g.chisquare(self.n1 - 1, size)
        ratio /= g.chisquare(self.n2 - 1, size)
        return SufficientSummary(ratio=ratio)

    def at(self, base, theta):
        return SufficientSummary(f=base.ratio * theta)


@dataclass(frozen=True)
class SubsetSelection(TestProblem):
    """Linear model y = X1 b1 + X2 b2 + sigma*eps; H0: b2 = 0.

    Decision statistic F = y'(H - H1)y / y'(I - H)y (no degrees-of-freedom
    normalization), a scaled F(p2, n - p1 - p2) under the null.
    """

    n: int = 3
    p1: int = 1
    p2: int = 1
    region_shape = "upper"
    theta_domain = ">= 0"  # the noncentrality
    stat = "f"

    def __post_init__(self):
        if self.p1 < 0 or self.p2 < 1 or self.n <= self.p1 + self.p2:
            raise ValueError("need p1 >= 0, p2 >= 1 and n > p1 + p2")

    @property
    def resid_df(self):
        return self.n - self.p1 - self.p2

    def summarize(self, y, X1, X2):
        y = np.asarray(y, dtype=float)
        # Gram-Schmidt keeps the column order, so the first p1 columns of Z
        # span X1: a[:p1] projects y on the null model, a[p1:] on what X2 adds
        Z, _ = orthonormalize(np.hstack([np.asarray(X1, dtype=float), np.asarray(X2, dtype=float)]))
        a = Z.T @ y
        rss_null = float(y @ y) - float(a[: self.p1] @ a[: self.p1])
        num = float(a[self.p1 :] @ a[self.p1 :])
        if rss_null - num <= 0.0:
            raise DegenerateDataError("zero residual sum of squares")
        return SufficientSummary(f=num / (rss_null - num), rss_null=rss_null)

    def alt_law(self, ncp):
        # ncp = b2' X'X b2 / sigma^2 with X = (I - H1) X2
        scale = self.p2 / self.resid_df
        return DistSpec.noncentral_f(self.p2, self.resid_df, ncp, scale)

    def draw_base(self, rng, size):
        g = rng.generator
        base = SufficientSummary(_draw_chi_square_parts(g, self.p2, size))
        base["resid"] = g.chisquare(self.resid_df, size)
        return base

    def at(self, base, ncp):
        # F = chi-square(p2, ncp) / chi-square(n - p1 - p2), the denominator
        # shared
        f = _noncentral_chi_square(base, ncp)
        f /= base.resid
        return SufficientSummary(f=f)


@dataclass(frozen=True)
class SubjectiveVarianceEquality(TestProblem):
    """Equality of variances with known means 0 and proper Gamma priors.

    Sufficient summary: S1^2 = sum x1^2 and S2^2 = sum x2^2, from which
    `derive` forms F = S1^2/S2^2, Q = b/(S1^2 + S2^2) and
    T = 1/4 - F/(1+F)^2.  The classical region is two-tailed in F,
    equivalently one-sided {T > gamma}.
    """

    n1: int = 2
    n2: int = 2
    b: float = 2.0
    region_shape = "two_tail"
    theta0 = 1.0
    theta_domain = "> 0"
    stat = "f"

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1 or not self.b > 0:
            raise ValueError("need n1, n2 >= 1 and b > 0")

    def summarize(self, x1, x2):
        x1, x2 = np.asarray(x1, dtype=float), np.asarray(x2, dtype=float)
        s1_sq = float(np.sum(x1**2))
        s2_sq = float(np.sum(x2**2))
        if s1_sq == 0.0 or s2_sq == 0.0:
            raise DegenerateDataError("zero sum of squares")
        return self.derive(SufficientSummary(s1_sq=s1_sq, s2_sq=s2_sq))

    def derive(self, summary):
        s1_sq, s2_sq = summary.s1_sq, summary.s2_sq
        f = s1_sq / s2_sq
        return SufficientSummary(summary, f=f, q=self.b / (s1_sq + s2_sq), t_sub=subjective_t(f))

    def alt_law(self, theta):
        scale = theta * self.n1 / self.n2
        return DistSpec.fisher_f(self.n1, self.n2, scale)

    def draw_base(self, rng, size):
        g = rng.generator
        return SufficientSummary(c1=g.chisquare(self.n1, size), c2=g.chisquare(self.n2, size))

    def at(self, base, theta, scale2: float = 1.0):
        # theta = var1/var2; scale2 = var2 (the nuisance slice held fixed)
        return SufficientSummary(s1_sq=base.c1 * (theta * scale2), s2_sq=base.c2 * scale2)


def subjective_t(f):
    """T = 1/4 - F/(1+F)^2 of `SubjectiveVarianceEquality`, at a float or
    elementwise; invariant under F -> 1/F."""
    # ** squares an array as np.square does, and a float by pow
    return 0.25 - f / (f + 1.0) ** 2
