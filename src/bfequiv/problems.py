"""Catalogue of testing problems.

Each problem exposes: the sufficient summary computed from raw data, the
decision statistic and the shape of its critical region, the exact null
law of that statistic, the exact alternative CDF where one exists, and
fast samplers for the sufficient summary (used by the Monte Carlo
studies; they draw the summary directly from its exact sampling
distribution rather than the raw observations).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from . import distributions as dist
from .distributions import DistSpec
from .expfamily import ExpFamilyModel, normal_mean_model

__all__ = [
    "SufficientSummary",
    "DegenerateDataError",
    "UnsupportedExactLaw",
    "orthonormalize",
    "TestProblem",
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


class UnsupportedExactLaw(NotImplementedError):
    """No closed-form law available; caller should fall back to MC."""


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

    def summarize(self, *data) -> SufficientSummary:
        raise NotImplementedError

    def decision_stat(self, summary: SufficientSummary):
        raise NotImplementedError

    def null_law(self) -> DistSpec:
        raise NotImplementedError

    def alt_cdf(self, theta, x):
        """CDF of the decision statistic under the alternative theta."""
        return dist.cdf(self.alt_law(theta), x)

    def alt_law(self, theta) -> DistSpec:
        raise UnsupportedExactLaw(type(self).__name__)

    def simulate_summary(self, rng, theta, size: int) -> SufficientSummary:
        raise NotImplementedError

    def simulate_chunks(self, stream, theta, n_sims: int, chunk_size: int, **sim_kwargs):
        """Yield summaries of n_sims draws at theta, at most chunk_size at a time.

        Chunk i is drawn from stream.substream(i), so the draws depend on
        (stream, chunk_size) and not on how the caller consumes them.
        """
        for piece, done in enumerate(range(0, n_sims, chunk_size)):
            m = min(chunk_size, n_sims - done)
            yield self.simulate_summary(stream.substream(piece), theta, m, **sim_kwargs)


# ---------------------------------------------------------------------------
# One-parameter normal problems (known variance 1), statistic T = sum(x_i)


@dataclass(frozen=True)
class OneSidedNormal(TestProblem):
    """X_i ~ N(theta, 1); H0: theta = theta0 vs H1: theta > theta0."""

    n: int = 1
    theta0: float = 0.0
    model: ExpFamilyModel = field(default_factory=normal_mean_model, repr=False)

    region_shape = "upper"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need n >= 1")

    def summarize(self, x):
        x = np.asarray(x, dtype=float)
        if x.size != self.n:
            raise ValueError(f"expected {self.n} observations, got {x.size}")
        return SufficientSummary(t=float(np.sum(x)), n=self.n)

    def decision_stat(self, summary):
        return summary["t"]

    def null_law(self):
        return DistSpec.normal(self.n * self.theta0, math.sqrt(self.n))

    def alt_law(self, theta):
        return DistSpec.normal(self.n * theta, math.sqrt(self.n))

    def simulate_summary(self, rng, theta, size):
        t = rng.generator.normal(self.n * theta, math.sqrt(self.n), size=size)
        return SufficientSummary(t=t, n=self.n)


@dataclass(frozen=True)
class TwoSidedNormal(OneSidedNormal):
    """Same model, two-sided alternative theta != theta0."""

    region_shape = "two_tail"


# ---------------------------------------------------------------------------
# Gaussian mean, unknown variance (one-sample t-test)


@dataclass(frozen=True)
class GaussianMeanUnknownVar(TestProblem):
    """X_i ~ N(theta, 1/phi), phi unknown; H0: theta = 0, two-sided.

    Decision statistic is the t-statistic sqrt(n)*xbar/S.  The Bayes
    factor consumes (xbar, sum of squares, n).
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
        s = math.sqrt(ss_centered / (self.n - 1))
        return SufficientSummary(
            xbar=xbar,
            sum_sq=float(np.sum(x**2)),
            t=math.sqrt(self.n) * xbar / s,
            n=self.n,
        )

    def decision_stat(self, summary):
        return summary["t"]

    def null_law(self):
        return DistSpec.student_t(self.n - 1)

    def alt_cdf(self, theta, x, phi: float = 1.0):
        ncp = math.sqrt(self.n) * theta * math.sqrt(phi)
        return special.nctdtr(self.n - 1, ncp, np.asarray(x, dtype=float))

    def simulate_summary(self, rng, theta, size, phi: float = 1.0):
        g = rng.generator
        sd = 1.0 / math.sqrt(phi)
        xbar = g.normal(theta, sd / math.sqrt(self.n), size=size)
        ss_centered = sd**2 * g.chisquare(self.n - 1, size=size)
        s = np.sqrt(ss_centered / (self.n - 1))
        return SufficientSummary(
            xbar=xbar,
            sum_sq=ss_centered + self.n * xbar**2,
            t=math.sqrt(self.n) * xbar / s,
            n=self.n,
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

    def __post_init__(self):
        if not 1 <= self.p <= self.n:
            raise ValueError("need 1 <= p <= n")

    def summarize(self, y, X):
        y = np.asarray(y, dtype=float)
        Z, Q = orthonormalize(np.asarray(X, dtype=float))
        t_vec = Z.T @ y
        return SufficientSummary(
            t_vec=t_vec, t_abs=float(t_vec @ t_vec), p=self.p, n=self.n
        )

    def decision_stat(self, summary):
        return summary["t_abs"]

    def null_law(self):
        return DistSpec.chi_square(self.p)

    def alt_law(self, delta_norm_sq):
        return DistSpec.noncentral_chi_square(self.p, delta_norm_sq)

    def simulate_summary(self, rng, delta_norm_sq, size):
        g = rng.generator
        if delta_norm_sq == 0:
            t_abs = g.chisquare(self.p, size=size)
        else:
            t_abs = g.noncentral_chisquare(self.p, delta_norm_sq, size=size)
        return SufficientSummary(t_abs=t_abs, p=self.p, n=self.n)


@dataclass(frozen=True)
class RegressionUnknownVar(TestProblem):
    """y = Z delta + sigma*eps, sigma unknown; H0: delta = 0 (global F-test).

    F = ((RSS1 - RSS2)/p) / (RSS2/(n - p)) with RSS1 = y'y (the null
    model has no free parameters) and RSS2 the residual from the full fit.
    """

    p: int = 1
    n: int = 2
    region_shape = "upper"

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
        f = (yHy / self.p) / (rss2 / (self.n - self.p))
        return SufficientSummary(
            rss1=yy, rss2=rss2, yHy=yHy, yy=yy, f=f, p=self.p, n=self.n
        )

    def decision_stat(self, summary):
        return summary["f"]

    def null_law(self):
        return DistSpec.fisher_f(self.p, self.n - self.p)

    def alt_law(self, delta_norm_sq, phi: float = 1.0):
        return DistSpec.noncentral_f(self.p, self.n - self.p, delta_norm_sq * phi)

    def simulate_summary(self, rng, delta_norm_sq, size, phi: float = 1.0):
        g = rng.generator
        sd = 1.0 / math.sqrt(phi)
        if delta_norm_sq == 0:
            yHy = sd**2 * g.chisquare(self.p, size=size)
        else:
            yHy = sd**2 * g.noncentral_chisquare(self.p, delta_norm_sq * phi, size=size)
        rss2 = sd**2 * g.chisquare(self.n - self.p, size=size)
        yy = yHy + rss2
        f = (yHy / self.p) / (rss2 / (self.n - self.p))
        return SufficientSummary(
            rss1=yy, rss2=rss2, yHy=yHy, yy=yy, f=f, p=self.p, n=self.n
        )


# ---------------------------------------------------------------------------
# Two-sample problems


@dataclass(frozen=True)
class TwoSampleMeansKnownVar(TestProblem):
    """Two normal samples, known precisions tau1, tau2; H0: means equal.

    Decision statistic T = (xbar1 - xbar2)^2, a scaled chi-square(1).
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
        xbar1, xbar2 = float(np.mean(x1)), float(np.mean(x2))
        return SufficientSummary(
            xbar1=xbar1, xbar2=xbar2, t=(xbar1 - xbar2) ** 2, n1=self.n1, n2=self.n2
        )

    def decision_stat(self, summary):
        return summary["t"]

    def null_law(self):
        return DistSpec.noncentral_chi_square(1.0, 0.0, self.diff_var)

    def alt_law(self, mean_diff):
        ncp = mean_diff**2 / self.diff_var
        return DistSpec.noncentral_chi_square(1.0, ncp, self.diff_var)

    def simulate_summary(self, rng, mean_diff, size):
        g = rng.generator
        d = g.normal(mean_diff, math.sqrt(self.diff_var), size=size)
        xbar2 = g.normal(0.0, 1.0 / math.sqrt(self.n2 * self.tau2), size=size)
        xbar1 = xbar2 + d
        return SufficientSummary(xbar1=xbar1, xbar2=xbar2, t=d**2, n1=self.n1, n2=self.n2)


@dataclass(frozen=True)
class TwoSampleMeansUnknownEqualVar(TestProblem):
    """Two-sample t-test with equal unknown variance; H0: means equal.

    Decision statistic T = (xbar2 - xbar1)/sqrt((n1-1)S1^2 + (n2-1)S2^2),
    a scaled Student-t(n-2).
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
        return SufficientSummary(
            xbar1=xbar1,
            xbar2=xbar2,
            s1_sq=s1_sq,
            s2_sq=s2_sq,
            t=(xbar2 - xbar1) / math.sqrt(pooled),
            n1=self.n1,
            n2=self.n2,
        )

    def decision_stat(self, summary):
        return summary["t"]

    def null_law(self):
        return DistSpec.student_t(self.n - 2, self.stat_scale)

    def alt_cdf(self, theta, x, phi: float = 1.0):
        ncp = theta * math.sqrt(phi) / math.sqrt(1.0 / self.n1 + 1.0 / self.n2)
        return special.nctdtr(self.n - 2, ncp, np.asarray(x, dtype=float) / self.stat_scale)

    def simulate_summary(self, rng, theta, size, phi: float = 1.0):
        g = rng.generator
        sd = 1.0 / math.sqrt(phi)
        xbar1 = g.normal(0.0, sd / math.sqrt(self.n1), size=size)
        xbar2 = g.normal(theta, sd / math.sqrt(self.n2), size=size)
        s1_sq = sd**2 * g.chisquare(self.n1 - 1, size=size) / (self.n1 - 1)
        s2_sq = sd**2 * g.chisquare(self.n2 - 1, size=size) / (self.n2 - 1)
        pooled = (self.n1 - 1) * s1_sq + (self.n2 - 1) * s2_sq
        return SufficientSummary(
            xbar1=xbar1,
            xbar2=xbar2,
            s1_sq=s1_sq,
            s2_sq=s2_sq,
            t=(xbar2 - xbar1) / np.sqrt(pooled),
            n1=self.n1,
            n2=self.n2,
        )


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

    def __post_init__(self):
        if self.n1 < 2 or self.n2 < 2:
            raise ValueError("need n1, n2 >= 2")

    @property
    def n(self):
        return self.n1 + self.n2

    def summarize(self, x1, x2):
        x1, x2 = np.asarray(x1, dtype=float), np.asarray(x2, dtype=float)
        s1_sq = float(np.sum((x1 - np.mean(x1)) ** 2))
        s2_sq = float(np.sum((x2 - np.mean(x2)) ** 2))
        if s2_sq == 0.0:
            raise DegenerateDataError("zero sum of squares in sample 2")
        return SufficientSummary(
            s1_sq=s1_sq, s2_sq=s2_sq, f=s1_sq / s2_sq, n1=self.n1, n2=self.n2
        )

    def decision_stat(self, summary):
        return summary["f"]

    def null_law(self):
        scale = (self.n1 - 1) / (self.n2 - 1)
        return DistSpec.fisher_f(self.n1 - 1, self.n2 - 1, scale)

    def alt_law(self, theta):
        scale = theta * (self.n1 - 1) / (self.n2 - 1)
        return DistSpec.fisher_f(self.n1 - 1, self.n2 - 1, scale)

    def simulate_summary(self, rng, theta, size):
        g = rng.generator
        s1_sq = theta * g.chisquare(self.n1 - 1, size=size)
        s2_sq = g.chisquare(self.n2 - 1, size=size)
        return SufficientSummary(
            s1_sq=s1_sq, s2_sq=s2_sq, f=s1_sq / s2_sq, n1=self.n1, n2=self.n2
        )


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

    def __post_init__(self):
        if self.p1 < 0 or self.p2 < 1 or self.n <= self.p1 + self.p2:
            raise ValueError("need p1 >= 0, p2 >= 1 and n > p1 + p2")

    @property
    def resid_df(self):
        return self.n - self.p1 - self.p2

    def summarize(self, y, X1, X2):
        y = np.asarray(y, dtype=float)
        X1 = np.asarray(X1, dtype=float)
        X2 = np.asarray(X2, dtype=float)
        Xfull = np.hstack([X1, X2])
        H1 = X1 @ np.linalg.solve(X1.T @ X1, X1.T)
        H = Xfull @ np.linalg.solve(Xfull.T @ Xfull, Xfull.T)
        num = float(y @ (H - H1) @ y)
        den = float(y @ (np.eye(self.n) - H) @ y)
        if den <= 0.0:
            raise DegenerateDataError("zero residual sum of squares")
        f = num / den
        return SufficientSummary(
            f=f,
            t_stat=f / (1.0 + f),
            rss_null=float(y @ (np.eye(self.n) - H1) @ y),
            n=self.n,
            p1=self.p1,
            p2=self.p2,
        )

    def decision_stat(self, summary):
        return summary["f"]

    def null_law(self):
        scale = self.p2 / self.resid_df
        return DistSpec.fisher_f(self.p2, self.resid_df, scale)

    def alt_law(self, ncp, phi: float = 1.0):
        # ncp = phi * b2' X'X b2 with X = (I - H1) X2
        scale = self.p2 / self.resid_df
        return DistSpec.noncentral_f(self.p2, self.resid_df, ncp * phi, scale)

    def simulate_summary(self, rng, ncp, size, phi: float = 1.0):
        g = rng.generator
        if ncp == 0:
            num = g.chisquare(self.p2, size=size)
        else:
            num = g.noncentral_chisquare(self.p2, ncp * phi, size=size)
        den = g.chisquare(self.resid_df, size=size)
        f = num / den
        return SufficientSummary(
            f=f, t_stat=f / (1.0 + f), n=self.n, p1=self.p1, p2=self.p2
        )


@dataclass(frozen=True)
class SubjectiveVarianceEquality(TestProblem):
    """Equality of variances with known means 0 and proper Gamma priors.

    Sufficient summary: S1^2 = sum x1^2, S2^2 = sum x2^2, F = S1^2/S2^2,
    Q = b/(S1^2 + S2^2), T = 1/4 - F/(1+F)^2.  The classical region is
    two-tailed in F, equivalently one-sided {T > gamma}.
    """

    n1: int = 2
    n2: int = 2
    a: float = 2.0
    b: float = 2.0
    region_shape = "two_tail"
    theta0 = 1.0

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1 or not (self.a > 0 and self.b > 0):
            raise ValueError("need n1, n2 >= 1 and a, b > 0")

    def summarize(self, x1, x2):
        x1, x2 = np.asarray(x1, dtype=float), np.asarray(x2, dtype=float)
        s1_sq = float(np.sum(x1**2))
        s2_sq = float(np.sum(x2**2))
        if s1_sq == 0.0 or s2_sq == 0.0:
            raise DegenerateDataError("zero sum of squares")
        f = s1_sq / s2_sq
        total = s1_sq + s2_sq
        return SufficientSummary(
            s1_sq=s1_sq,
            s2_sq=s2_sq,
            f=f,
            q=self.b / total,
            t_sub=0.25 - f / (1.0 + f) ** 2,
            n1=self.n1,
            n2=self.n2,
        )

    def decision_stat(self, summary):
        return summary["f"]

    def null_law(self):
        scale = self.n1 / self.n2
        return DistSpec.fisher_f(self.n1, self.n2, scale)

    def alt_law(self, theta):
        scale = theta * self.n1 / self.n2
        return DistSpec.fisher_f(self.n1, self.n2, scale)

    def simulate_summary(self, rng, theta, size, scale2: float = 1.0):
        # theta = var1/var2; scale2 = var2 (the nuisance slice held fixed)
        g = rng.generator
        s1_sq = theta * scale2 * g.chisquare(self.n1, size=size)
        s2_sq = scale2 * g.chisquare(self.n2, size=size)
        f = s1_sq / s2_sq
        return SufficientSummary(
            s1_sq=s1_sq,
            s2_sq=s2_sq,
            f=f,
            q=self.b / (s1_sq + s2_sq),
            t_sub=0.25 - f / (1.0 + f) ** 2,
            n1=self.n1,
            n2=self.n2,
        )
