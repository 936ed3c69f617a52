"""Power computation: exact where a closed alternative law exists,
Monte Carlo otherwise, always with common random numbers when two rules
are compared.

Includes the proper-vs-improper nuisance-prior power study for the
variance-equality problem: with the threshold bridge lam = psi(0, gamma)
the proper-prior rejection event is a pathwise subset of the classical
one, so its power function is uniformly dominated while its worst-case
size over the nuisance axis still equals alpha (attained in the Q -> 0
regime).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import special

from .bayes_factors import NumericalIntegrityError, bf_subjective_variance, johnson_umpbt_threshold
from .calibrate import MAX_EXAMPLES, CriticalRegion, DecisionRule, decide, gamma_from_alpha
from .problems import (OneSidedNormal, SubjectiveVarianceEquality, TestProblem, normal_log_ratio,
                       subjective_t)
from .rng import RngStream, sweep

__all__ = [
    "PowerCurve",
    "exact_power",
    "mc_power",
    "calibrate_lambda_mc",
    "DominanceReport",
    "dominance_study",
    "JohnsonComparison",
    "johnson_comparison",
]


@dataclass(frozen=True)
class PowerCurve:
    thetas: np.ndarray
    power: np.ndarray
    # each Monte Carlo point's own binomial se.  The points of one curve
    # share their draws, so their errors are positively correlated:
    # neighbouring points err together, and the curve is smoother than
    # independent points would make it
    se: np.ndarray


def _curve(thetas, power, n_sims):
    """The Monte Carlo curve of `power` at thetas over n_sims draws."""
    return PowerCurve(thetas, power, np.sqrt(power * (1.0 - power) / n_sims))


def exact_power(problem: TestProblem, region: CriticalRegion, thetas) -> np.ndarray:
    """Rejection probability at each of thetas from the exact alternative law."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    out = np.empty(thetas.shape)
    for i, th in enumerate(thetas):
        out[i] = region.mass(lambda x: problem.alt_cdf(th, x))
        if not math.isfinite(out[i]):
            raise NumericalIntegrityError(f"the exact power at theta = {th!r} is not a number")
    return out


def mc_power(
    problem: TestProblem,
    rule: DecisionRule,
    rng: RngStream,
    thetas,
    n_sims: int,
    bf_of_summary: Callable,
):
    """Monte Carlo power for the classical rule and the Bayes rule,
    evaluated on the same simulated summaries (`calibrate.decide`).

    Returns (classical_curve, bayes_curve, n_disagree, examples):
    n_disagree counts the draws, over every theta, on which the two rules
    decided differently, and examples holds the first MAX_EXAMPLES of them
    as {"theta", "stat"}, theta by theta.  Every theta maps the same
    standard draws, so each point keeps its exact marginal law and its own
    binomial se, while the points of the curve are positively correlated.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    counts = decide(problem, rule, bf_of_summary, thetas, rng, n_sims)
    hits = np.array([c[:3] for c in counts])
    return (
        _curve(thetas, hits[:, 0] / n_sims, n_sims),
        _curve(thetas, hits[:, 1] / n_sims, n_sims),
        int(hits[:, 2].sum()),
        [{"theta": th, "stat": x} for th, c in zip(thetas, counts) for x in c[3]][:MAX_EXAMPLES],
    )


def calibrate_lambda_mc(
    score_sampler: Callable[[RngStream, int], np.ndarray],
    alpha: float,
    rng: RngStream,
    n_sims: int = 1_000_000,
    max_probes: int = 20,
) -> tuple:
    """Stochastic bisection on the threshold of a scalar rejection score.

    score_sampler draws null scores; returns (threshold, size_hat, se).
    Each probe reuses a fresh substream, so the result is reproducible.
    Used when the null law of the score has no closed form.
    """
    scores = score_sampler(rng.substream(0), n_sims)
    lo, hi = float(np.min(scores)), float(np.max(scores))
    thr = float(np.quantile(scores, 1.0 - alpha))
    for probe in range(1, max_probes):
        scores = score_sampler(rng.substream(probe), n_sims)
        size = float(np.mean(scores > thr))
        se = math.sqrt(size * (1.0 - size) / n_sims)
        if abs(size - alpha) <= 2.0 * se:
            return thr, size, se
        if size > alpha:
            lo = thr
        else:
            hi = thr
        thr = 0.5 * (lo + hi)
    size = float(np.mean(scores > thr))
    return thr, size, math.sqrt(size * (1.0 - size) / n_sims)


# ---------------------------------------------------------------------------
# Proper vs improper nuisance priors for the variance-equality problem


@dataclass
class DominanceReport:
    thetas: np.ndarray
    power_subjective: np.ndarray
    power_classical: np.ndarray  # MC, same draws as power_subjective
    power_classical_exact: np.ndarray
    max_violation: float
    verdict: str  # PASS when every condition of `dominance_study` holds
    size_classical: float  # exact, nuisance-free
    size_subjective_limit: float  # MC size in the Q -> 0 regime (sup size)
    size_subjective_slice: float  # MC size at unit nuisance scale
    se: np.ndarray
    gamma_t: float  # critical value in the T = 1/4 - F/(1+F)^2 coordinate
    lam: float  # shared Bayes threshold, B*(0, gamma_t)
    lam_tilde: float  # bridge point, psi(0, lam_tilde) = lam
    bridge_residual: float  # |lam_tilde - gamma_t|
    n_sims: int = 0
    conditions_ok: bool = True  # psi(Q,T) <= psi(0,T) and increasing in T
    # draws, over every run of the study, that the proper-prior rule
    # rejects and {T > gamma_t} accepts
    n_proper_only: int = 0


def _proper_rejects(summary, lam: float):
    """Rejection indicator of the proper-prior rule {B*(Q, T) > lam}.

    Equivalent to T > (Q + 1/2)^2 (1 - 1/lam^2), a Q-dependent cutoff
    that is never below its Q = 0 limit.
    """
    cutoff = (summary.q + 0.5) ** 2 * (1.0 - 1.0 / lam**2)
    return summary.t_sub > cutoff


def _check_psi_conditions() -> bool:
    """Numerically verify the two dominance hypotheses on a grid:
    B*(Q,T) <= B*(0,T) for all T, and B* increasing in T for all Q."""
    grid_t = np.linspace(1e-6, 0.2499, 101)
    for q in np.linspace(0.0, 10.0, 41):
        vals = np.asarray(bf_subjective_variance(q, grid_t))
        if np.any(np.diff(vals) <= 0):
            return False
        if np.any(vals > np.asarray(bf_subjective_variance(0.0, grid_t)) * (1 + 1e-12)):
            return False
    return True


# nuisance scale at which the proper-prior rule's size is taken as its
# Q -> 0 limit, the worst case over the composite null
LIMIT_SCALE = 1e8
# the verdict's bound on |lam_tilde - gamma_t|, and on |limiting size - alpha|
# in binomial standard errors of a size alpha at n_sims draws
BRIDGE_TOL = 1e-9
LIMIT_SIZE_SE = 6.0


def dominance_study(
    problem: SubjectiveVarianceEquality,
    alpha: float,
    thetas: Sequence[float],
    rng: RngStream,
    n_sims: int,
) -> DominanceReport:
    """Size-matched power comparison on the variance-equality problem.

    The improper-prior Bayes rule is a monotone function of
    T = 1/4 - F/(1+F)^2 and reproduces the classical equal-tailed F test
    exactly (checked through the threshold bridge).  The proper-prior
    rule shares the same threshold lam = B*(0, gamma).  Its rejection
    event is then a pathwise subset of {T > gamma}: the null is
    composite in the common scale, the rule's size increases toward the
    Q -> 0 regime where it attains alpha, and at every finite nuisance
    scale both size and power sit strictly below the classical curve.
    The verdict is PASS when the bridge identity holds to BRIDGE_TOL, the
    two monotonicity hypotheses hold, the limiting size is within
    LIMIT_SIZE_SE binomial standard errors sqrt(alpha (1 - alpha) / n_sims)
    of alpha, and the subset relation holds draw by draw on every run.
    The runs (unit-scale size, limiting size, one per theta)
    map the same standard draws (`rng.sweep`: block i from
    rng.substream(i), with a helper thread while it pays).
    """
    if problem.n1 != problem.n2:
        raise ValueError("the T-coordinate region is equal-tailed only for n1 == n2")
    region_f = gamma_from_alpha(problem, alpha)  # equal-tailed in F
    # reciprocal symmetry of the null law (n1 == n2) makes this region
    # exactly {T > gamma_t}
    gamma_t = subjective_t(region_f.upper)
    lam = float(bf_subjective_variance(0.0, gamma_t))
    lam_tilde = 0.25 - 1.0 / (4.0 * lam**2)  # solves psi(0, x) = lam
    bridge_residual = abs(lam_tilde - gamma_t)
    size_classical = region_f.size(problem.null_law())

    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    runs = [(1.0, 1.0), (1.0, LIMIT_SCALE)] + [(th, 1.0) for th in thetas]  # (theta, scale2)

    def count(k, base):
        block = problem.derive(problem.at(base, runs[k][0], scale2=runs[k][1]))
        proper = _proper_rejects(block, lam)
        classical = block.t_sub > gamma_t
        return (
            int(np.count_nonzero(proper)),
            int(np.count_nonzero(classical)),
            int(np.count_nonzero(proper > classical)),
        )

    hits = np.array(sweep(problem.draw_base, count, len(runs), rng, n_sims))
    rates = hits[:, :2] / n_sims
    size_slice, size_limit = float(rates[0, 0]), float(rates[1, 0])
    power_subjective, power_classical = rates[2:, 0], rates[2:, 1]
    n_proper_only = int(hits[:, 2].sum())

    se = np.sqrt(
        power_subjective * (1 - power_subjective) / n_sims
        + power_classical * (1 - power_classical) / n_sims
    )
    max_violation = float(np.max(power_subjective - power_classical))
    conditions_ok = _check_psi_conditions()
    passed = (
        n_proper_only == 0
        and bridge_residual <= BRIDGE_TOL
        and conditions_ok
        and abs(size_limit - alpha) < LIMIT_SIZE_SE * math.sqrt(alpha * (1.0 - alpha) / n_sims)
    )

    return DominanceReport(
        thetas=thetas,
        power_subjective=power_subjective,
        power_classical=power_classical,
        power_classical_exact=exact_power(problem, region_f, thetas),
        max_violation=max_violation,
        verdict="PASS" if passed else "FAIL",
        size_classical=size_classical,
        size_subjective_limit=size_limit,
        size_subjective_slice=size_slice,
        se=se,
        gamma_t=gamma_t,
        lam=lam,
        lam_tilde=lam_tilde,
        bridge_residual=bridge_residual,
        n_sims=n_sims,
        conditions_ok=conditions_ok,
        n_proper_only=n_proper_only,
    )


# ---------------------------------------------------------------------------
# Point-mass threshold prior: matched rejection regions


@dataclass(frozen=True)
class JohnsonComparison:
    theta_star: float
    implied_alpha: float  # size of the un-recalibrated rule {B > lam}
    alpha_matched: float
    gamma_matched: float  # boundary after recalibration to alpha_matched
    thetas: np.ndarray
    power_point_mass: np.ndarray  # MC, recalibrated point-mass rule
    power_classical: np.ndarray  # MC, classical rule, same draws
    power_exact: np.ndarray
    se: np.ndarray
    max_gap: float
    verdict: str  # PASS when n_disagree == 0
    n_disagree: int  # draws on which the two rules decided differently
    # theta points where power_point_mass is more than 3 standard errors
    # from power_exact: a check on the sampler that does not gate the
    # verdict.  Each point has probability 0.0027 to count, so over 21
    # points at most about one run in twenty counts any; the points share
    # their draws, so such runs tend to count several neighbours at once
    sampler_points_beyond_3se: int


def johnson_comparison(
    lam: float,
    n: int,
    thetas,
    rng: RngStream,
    alpha_matched: float = 0.05,
    n_sims: int = 100_000,
) -> JohnsonComparison:
    """Point-mass prior at the threshold-minimizing alternative, normal
    model, H0: theta = 0.

    For a point mass at theta1 the rule {B > lam} is {T > g(theta1)};
    minimizing g over theta1 maximizes the rejection region.  After
    recalibrating to a common size the point-mass rule and the classical
    rule share the same rejection boundary, so they reject on the same
    datasets.  The Monte Carlo comparison evaluates both rules on common
    random numbers, the point-mass rule through its own Bayes factor, and
    passes only when no draw is decided differently (`mc_power`).  thetas
    None means 21 points from 0 to where the classical power reaches 0.99.
    """
    problem = OneSidedNormal(n)
    theta_star, g_min, _ = johnson_umpbt_threshold(lam, n)
    implied_alpha = CriticalRegion("upper", None, g_min).size(problem.null_law())
    region = gamma_from_alpha(problem, alpha_matched)
    if thetas is None:
        thetas = np.linspace(0.0, (region.upper - math.sqrt(n) * special.ndtri(0.01)) / n, 21)
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    power_exact = exact_power(problem, region, thetas)

    # the point-mass rule {B > lam_matched}, decided through its own
    # Bayes factor in log space; lam_matched = B(gamma_matched)
    rule = DecisionRule(region, normal_log_ratio(region.upper, theta_star, 0.0, n))
    classical, point_mass, n_disagree, _ = mc_power(
        problem, rule, rng, thetas, n_sims, lambda s: normal_log_ratio(s.t, theta_star, 0.0, n)
    )
    power_classical, power_point_mass = classical.power, point_mass.power
    se = np.sqrt(
        power_point_mass * (1 - power_point_mass) / n_sims
        + power_classical * (1 - power_classical) / n_sims
    )
    gaps = np.abs(power_point_mass - power_classical)
    se_exact = np.sqrt(power_exact * (1 - power_exact) / n_sims)
    beyond = np.abs(power_point_mass - power_exact) > np.maximum(3.0 * se_exact, 1e-12)
    return JohnsonComparison(
        theta_star=theta_star,
        implied_alpha=implied_alpha,
        alpha_matched=alpha_matched,
        gamma_matched=float(region.upper),
        thetas=thetas,
        power_point_mass=power_point_mass,
        power_classical=power_classical,
        power_exact=power_exact,
        se=se,
        max_gap=float(np.max(gaps)),
        verdict="PASS" if n_disagree == 0 else "FAIL",
        n_disagree=n_disagree,
        sampler_points_beyond_3se=int(np.count_nonzero(beyond)),
    )
