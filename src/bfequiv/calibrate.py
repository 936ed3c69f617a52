"""Calibration between classical critical regions and Bayes thresholds.

The central identity: when the Bayes factor is a monotone (one-sided) or
convex (two-sided) function of the classical statistic, the rejection
rule {B > lambda} coincides with {T in C_gamma} once lambda = B(gamma).
This module computes gamma from a size alpha, lambda from gamma, gamma
back from lambda, and verifies the coincidence by direct Monte Carlo.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import distributions as dist
from .integrate import brentq
from .problems import SufficientSummary, TestProblem
from .rng import RngStream, sweep

__all__ = [
    "ClassViolationError",
    "CriticalRegion",
    "DecisionRule",
    "InfeasibleLambda",
    "gamma_from_alpha",
    "lambda_from_gamma",
    "gamma_from_lambda",
    "EquivalenceReport",
    "decide",
    "verify_equivalence",
]

TWO_SIDED_MATCH_RTOL = 1e-8
# disagreeing draws kept in EquivalenceReport.examples
MAX_EXAMPLES = 5


class ClassViolationError(ValueError):
    """The prior does not give equal Bayes-factor values at the two
    critical points, so no single lambda reproduces the two-tailed rule."""


class InfeasibleLambda(Exception):
    """B never crosses the requested lambda on the statistic range, so no
    critical region matches it."""


@dataclass(frozen=True)
class CriticalRegion:
    """Classical rejection region for the decision statistic."""

    shape: str  # "upper" or "two_tail"
    lower: Optional[float]  # None for pure upper regions
    upper: float

    def __post_init__(self):
        if self.shape not in ("upper", "two_tail"):
            raise ValueError(f"unknown region shape {self.shape!r}")
        if self.shape == "two_tail":
            if self.lower is None or not self.lower < self.upper:
                raise ValueError("two-tailed region needs lower < upper")

    def contains(self, stat):
        stat = np.asarray(stat, dtype=float)
        if self.shape == "upper":
            return stat > self.upper
        return (stat < self.lower) | (stat > self.upper)

    def mass(self, cdf: Callable) -> float:
        """Probability of the region under the law with distribution function cdf."""
        upper_mass = 1.0 - cdf(self.upper)
        if self.shape == "upper":
            return float(upper_mass)
        return float(upper_mass + cdf(self.lower))

    def size(self, null_law) -> float:
        """Null rejection probability of the region."""
        return self.mass(lambda x: dist.cdf(null_law, x))


@dataclass(frozen=True)
class DecisionRule:
    """Matched pair of rules: classical region and Bayes threshold."""

    region: CriticalRegion
    lam: float

    def classical(self, stat):
        return self.region.contains(stat)

    def bayes(self, bf_values):
        return np.asarray(bf_values, dtype=float) > self.lam


def gamma_from_alpha(problem: TestProblem, alpha: float) -> CriticalRegion:
    """Equal-tailed critical region of exact size alpha for the problem."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    law = problem.null_law()
    if problem.region_shape == "upper":
        return CriticalRegion("upper", None, dist.quantile(law, 1.0 - alpha))
    return CriticalRegion(
        "two_tail",
        dist.quantile(law, alpha / 2.0),
        dist.quantile(law, 1.0 - alpha / 2.0),
    )


def lambda_from_gamma(region: CriticalRegion, bf_of_stat: Callable) -> float:
    """lambda = B(gamma); for two-tailed regions B must agree at both ends,
    and lambda is the mean of the two, and B must fall below lambda at the
    midpoint of the two, or {B > lambda} is not the two-tailed test.

    bf_of_stat maps the decision statistic to the Bayes factor.
    """
    def b(stat):
        return float(np.asarray(bf_of_stat(stat), dtype=float))

    b_up = b(region.upper)
    if region.shape == "upper":
        return b_up
    b_lo = b(region.lower)
    if abs(b_lo - b_up) > TWO_SIDED_MATCH_RTOL * max(abs(b_lo), abs(b_up)):
        raise ClassViolationError(
            f"B({region.lower:.6g}) = {b_lo:.12g} but B({region.upper:.6g}) = {b_up:.12g}; "
            "the prior is outside the calibrated two-sided class"
        )
    lam = 0.5 * (b_lo + b_up)
    mid = 0.5 * (region.lower + region.upper)
    if not (b_mid := b(mid)) < lam:
        # a point mass at theta0 gives B = 1 at every statistic
        raise ClassViolationError(
            f"B({mid:.6g}) = {b_mid:.12g} is not below B at the critical values, {lam:.12g}: B is "
            "constant between them, or not convex, so {B > lambda} is not the two-tailed test; "
            "the prior is outside the calibrated two-sided class"
        )
    return lam


def calibrate(problem: TestProblem, alpha: float, bf_of_stat: Callable) -> DecisionRule:
    """The matched decision rule at size alpha."""
    region = gamma_from_alpha(problem, alpha)
    return DecisionRule(region, lambda_from_gamma(region, bf_of_stat))


def gamma_from_lambda(problem: TestProblem, bf_of_stat: Callable, lam: float) -> tuple:
    """Invert lambda to the critical value of a monotone one-sided test.

    The search runs between the null law's 1e-12 and 1 - 1e-12 quantiles.
    Returns (region, implied_alpha); InfeasibleLambda when B exceeds lambda
    everywhere on the bracket (always reject) or nowhere (never reject).
    """
    if problem.region_shape != "upper":
        raise ValueError("inversion is defined for one-sided (upper) regions")
    law = problem.null_law()
    lo = dist.quantile(law, 1e-12)
    hi = dist.quantile(law, 1.0 - 1e-12)
    f_lo = float(np.asarray(bf_of_stat(lo))) - lam
    f_hi = float(np.asarray(bf_of_stat(hi))) - lam
    if f_lo > 0 and f_hi > 0:
        raise InfeasibleLambda(f"lambda = {lam} is exceeded by B everywhere")
    if f_lo < 0 and f_hi < 0:
        raise InfeasibleLambda(f"lambda = {lam} is never crossed by B on the statistic range")
    gamma = brentq(lambda s: float(np.asarray(bf_of_stat(s))) - lam, lo, hi, xtol=1e-13)
    region = CriticalRegion("upper", None, float(gamma))
    return region, region.size(law)


# ---------------------------------------------------------------------------
# Monte Carlo verification of decision agreement


@dataclass
class EquivalenceReport:
    problem: str
    n_total: int = 0
    n_reject: int = 0
    n_mismatch: int = 0
    examples: list = field(default_factory=list)

    @property
    def agreement(self) -> float:
        return 1.0 - self.n_mismatch / self.n_total if self.n_total else float("nan")


def decide(problem: TestProblem, rule: DecisionRule, bf_of_summary, thetas: Sequence, rng: RngStream,
           n_sims: int) -> list:
    """Per theta of thetas: (classical rejections, Bayes rejections,
    disagreements, statistics of the first MAX_EXAMPLES disagreeing draws)
    over n_sims draws of the problem.

    Every theta reads the same draws (`rng.sweep`: blocks of them from
    numbered substreams, with a helper thread while it pays), each block
    derived (`TestProblem.derive`) before it is read, so the counts are
    reproducible for a fixed seed and n_sims.
    """
    def count(j, base):
        block = problem.derive(problem.at(base, thetas[j]))
        stat = np.asarray(problem.decision_stat(block), dtype=float)
        classical = rule.classical(stat)
        bayes = rule.bayes(bf_of_summary(block))
        bad = classical != bayes
        return (
            int(np.count_nonzero(classical)),
            int(np.count_nonzero(bayes)),
            int(np.count_nonzero(bad)),
            [float(x) for x in stat[bad][:MAX_EXAMPLES]],
        )

    sums = sweep(problem.draw_base, count, len(thetas), rng, n_sims)
    return [(c, b, d, stats[:MAX_EXAMPLES]) for c, b, d, stats in sums]


def verify_equivalence(
    problem: TestProblem,
    bf_of_summary: Callable[[SufficientSummary], np.ndarray],
    rule: DecisionRule,
    rng: RngStream,
    n_sims: int,
    thetas: Sequence,
) -> EquivalenceReport:
    """Draw summaries at each of thetas, apply both rules, count
    disagreements (`decide`).  The examples are the first MAX_EXAMPLES
    disagreeing draws, theta by theta.
    """
    counts = decide(problem, rule, bf_of_summary, thetas, rng, n_sims)
    return EquivalenceReport(
        problem=type(problem).__name__,
        n_total=n_sims * len(thetas),
        n_reject=sum(c[0] for c in counts),
        n_mismatch=sum(c[2] for c in counts),
        examples=[{"theta": th, "stat": x} for th, c in zip(thetas, counts) for x in c[3]][:MAX_EXAMPLES],
    )
