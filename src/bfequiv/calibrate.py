"""Calibration between classical critical regions and Bayes thresholds.

The central identity: when the Bayes factor is a monotone (one-sided) or
convex (two-sided) function of the classical statistic, the rejection
rule {B > lambda} coincides with {T in C_gamma} once lambda = B(gamma).
This module computes gamma from a size alpha, lambda from gamma, gamma
back from lambda, and verifies the coincidence by direct Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.optimize import brentq

from . import distributions as dist
from .problems import SufficientSummary, TestProblem
from .rng import RngStream

__all__ = [
    "ClassViolationError",
    "CriticalRegion",
    "DecisionRule",
    "CalibrationResult",
    "gamma_from_alpha",
    "lambda_from_gamma",
    "gamma_from_lambda",
    "EquivalenceReport",
    "verify_equivalence",
]

TWO_SIDED_MATCH_RTOL = 1e-8
# disagreeing draws kept in EquivalenceReport.examples
MAX_EXAMPLES = 5


class ClassViolationError(ValueError):
    """The prior does not give equal Bayes-factor values at the two
    critical points, so no single lambda reproduces the two-tailed rule."""


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

    @property
    def gamma(self) -> float:
        """The (upper) critical value."""
        return self.upper

    def contains(self, stat):
        stat = np.asarray(stat, dtype=float)
        if self.shape == "upper":
            return stat > self.upper
        return (stat < self.lower) | (stat > self.upper)

    def size(self, null_law) -> float:
        """Null rejection probability of the region."""
        upper_mass = 1.0 - dist.cdf(null_law, self.upper)
        if self.shape == "upper":
            return float(upper_mass)
        return float(upper_mass + dist.cdf(null_law, self.lower))


@dataclass(frozen=True)
class DecisionRule:
    """Matched pair of rules: classical region and Bayes threshold."""

    region: CriticalRegion
    lam: float

    def classical(self, stat):
        return self.region.contains(stat)

    def bayes(self, bf_values):
        return np.asarray(bf_values, dtype=float) > self.lam


@dataclass(frozen=True)
class CalibrationResult:
    rule: DecisionRule
    alpha: float
    lam_values: tuple  # B at each critical point (1 or 2 entries)


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


def lambda_from_gamma(region: CriticalRegion, bf_of_stat: Callable) -> tuple:
    """lambda = B(gamma); for two-tailed regions B must agree at both ends.

    bf_of_stat maps the decision statistic to the Bayes factor.  Returns
    (lam, lam_values).
    """
    b_up = float(np.asarray(bf_of_stat(region.upper), dtype=float))
    if region.shape == "upper":
        return b_up, (b_up,)
    b_lo = float(np.asarray(bf_of_stat(region.lower), dtype=float))
    if abs(b_lo - b_up) > TWO_SIDED_MATCH_RTOL * max(abs(b_lo), abs(b_up)):
        raise ClassViolationError(
            f"B({region.lower:.6g}) = {b_lo:.12g} but B({region.upper:.6g}) = {b_up:.12g}; "
            "the prior is outside the calibrated two-sided class"
        )
    lam = 0.5 * (b_lo + b_up)
    return lam, (b_lo, b_up)


def calibrate(
    problem: TestProblem, alpha: float, bf_of_stat: Callable
) -> CalibrationResult:
    """Build the matched decision rule at size alpha."""
    region = gamma_from_alpha(problem, alpha)
    lam, values = lambda_from_gamma(region, bf_of_stat)
    return CalibrationResult(DecisionRule(region, lam), alpha, values)


def gamma_from_lambda(problem: TestProblem, bf_of_stat: Callable, lam: float) -> tuple:
    """Invert lambda to the critical value of a monotone one-sided test.

    The search runs between the null law's 1e-12 and 1 - 1e-12 quantiles.
    Returns (region, implied_alpha).  implied_alpha is 1.0 when B exceeds
    lambda everywhere on the bracket (always reject) and 0.0 when it
    never does.
    """
    if problem.region_shape != "upper":
        raise ValueError("inversion is defined for one-sided (upper) regions")
    law = problem.null_law()
    lo = dist.quantile(law, 1e-12)
    hi = dist.quantile(law, 1.0 - 1e-12)
    f_lo = float(np.asarray(bf_of_stat(lo))) - lam
    f_hi = float(np.asarray(bf_of_stat(hi))) - lam
    if f_lo > 0 and f_hi > 0:
        region = CriticalRegion("upper", None, lo)
        return region, 1.0
    if f_lo < 0 and f_hi < 0:
        region = CriticalRegion("upper", None, hi)
        return region, 0.0
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


def verify_equivalence(
    problem: TestProblem,
    bf_of_summary: Callable[[SufficientSummary], np.ndarray],
    rule: DecisionRule,
    rng: RngStream,
    n_sims: int,
    thetas: Sequence = (None,),
    chunk_size: int = 100_000,
    **sim_kwargs,
) -> EquivalenceReport:
    """Draw summaries, apply both rules, count disagreements.

    thetas entries of None mean the null.  Work is split over numbered
    substreams, one per chunk, so results are reproducible for a fixed
    (seed, chunk_size) pair and chunks can be processed in any order.
    """
    report = EquivalenceReport(problem=type(problem).__name__)
    null_theta = getattr(problem, "theta0", 0.0)
    for j, theta in enumerate(thetas):
        theta_val = null_theta if theta is None else theta
        chunks = problem.simulate_chunks(rng.substream(j), theta_val, n_sims, chunk_size, **sim_kwargs)
        for summary in chunks:
            stat = np.asarray(problem.decision_stat(summary), dtype=float)
            classical = rule.classical(stat)
            bayes = rule.bayes(bf_of_summary(summary))
            bad = classical != bayes
            report.n_reject += int(np.count_nonzero(classical))
            if np.any(bad):
                report.n_mismatch += int(np.count_nonzero(bad))
                idx = np.flatnonzero(bad)[: max(0, MAX_EXAMPLES - len(report.examples))]
                for i in idx:
                    report.examples.append(
                        {"theta": theta_val, "stat": float(stat[i])}
                    )
        report.n_total += n_sims
    return report
