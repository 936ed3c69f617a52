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
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import special

from .bayes_factors import bf_subjective_variance, johnson_umpbt_threshold
from .calibrate import CriticalRegion, DecisionRule, gamma_from_alpha
from .expfamily import ExpFamilyModel, normal_mean_model
from .problems import SubjectiveVarianceEquality, TestProblem
from .rng import RngStream

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
    se: np.ndarray  # zeros for exact curves
    method: str  # "exact" or "mc"
    alpha: float = float("nan")
    n_sims: int = 0  # 0 for exact curves


def _curve(thetas, power, method, alpha, n_sims):
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    power = np.asarray(power, dtype=float)
    if method == "exact" or n_sims == 0:
        se = np.zeros_like(power)
    else:
        se = np.sqrt(power * (1.0 - power) / n_sims)
    return PowerCurve(thetas, power, se, method, alpha, n_sims)


def exact_power(
    problem: TestProblem,
    region: CriticalRegion,
    thetas,
    alpha: float = float("nan"),
    **law_kwargs,
) -> PowerCurve:
    """Rejection probability from the exact alternative law."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    out = np.empty(thetas.shape)
    for i, th in enumerate(thetas):
        upper_mass = 1.0 - problem.alt_cdf(th, region.upper, **law_kwargs)
        if region.shape == "two_tail":
            upper_mass += problem.alt_cdf(th, region.lower, **law_kwargs)
        out[i] = upper_mass
    return _curve(thetas, out, "exact", alpha, 0)


def mc_power(
    problem: TestProblem,
    rule: DecisionRule,
    rng: RngStream,
    thetas,
    n_sims: int,
    bf_of_summary: Optional[Callable] = None,
    chunk_size: int = 200_000,
    **sim_kwargs,
):
    """Monte Carlo power for the classical rule and (optionally) the
    Bayes rule, evaluated on the same simulated summaries.

    Returns (classical_curve, bayes_curve_or_None, identical) where
    identical reports whether the two decision vectors matched draw for
    draw at every theta.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    p_classical = np.zeros(thetas.shape)
    p_bayes = np.zeros(thetas.shape) if bf_of_summary is not None else None
    identical = True
    for i, th in enumerate(thetas):
        stream = rng.substream(i)
        done = 0
        piece = 0
        n_c = n_b = 0
        while done < n_sims:
            m = min(chunk_size, n_sims - done)
            summary = problem.simulate_summary(stream.substream(piece), th, m, **sim_kwargs)
            stat = np.asarray(problem.decision_stat(summary), dtype=float)
            classical = rule.classical(stat)
            n_c += int(np.count_nonzero(classical))
            if bf_of_summary is not None:
                bayes = rule.bayes(bf_of_summary(summary))
                n_b += int(np.count_nonzero(bayes))
                if not np.array_equal(classical, bayes):
                    identical = False
            done += m
            piece += 1
        p_classical[i] = n_c / n_sims
        if p_bayes is not None:
            p_bayes[i] = n_b / n_sims
    classical_curve = _curve(thetas, p_classical, "mc", float("nan"), n_sims)
    bayes_curve = (
        _curve(thetas, p_bayes, "mc", float("nan"), n_sims)
        if p_bayes is not None
        else None
    )
    return classical_curve, bayes_curve, identical


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
    verdict: str  # "PASS" or "FAIL"
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


def _proper_rejects(summary, lam: float):
    """Rejection indicator of the proper-prior rule {B*(Q, T) > lam}.

    Equivalent to T > (Q + 1/2)^2 (1 - 1/lam^2), a Q-dependent cutoff
    that is never below its Q = 0 limit.
    """
    cutoff = (summary.q + 0.5) ** 2 * (1.0 - 1.0 / lam**2)
    return summary.t_sub > cutoff


def _check_psi_conditions(grid_q=None, grid_t=None) -> bool:
    """Numerically verify the two dominance hypotheses on a grid:
    B*(Q,T) <= B*(0,T) for all T, and B* increasing in T for all Q."""
    grid_q = np.linspace(0.0, 10.0, 41) if grid_q is None else grid_q
    grid_t = np.linspace(1e-6, 0.2499, 101) if grid_t is None else grid_t
    for q in grid_q:
        vals = np.asarray(bf_subjective_variance(q, grid_t))
        if np.any(np.diff(vals) <= 0):
            return False
        if np.any(vals > np.asarray(bf_subjective_variance(0.0, grid_t)) * (1 + 1e-12)):
            return False
    return True


def dominance_study(
    problem: SubjectiveVarianceEquality,
    alpha: float,
    thetas: Sequence[float],
    rng: RngStream,
    n_sims: int,
    chunk_size: int = 250_000,
    limit_scale: float = 1e8,
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
    The study verifies the bridge identity, the two monotonicity
    hypotheses, the limiting size, and the power deficit on the grid.
    """
    if problem.n1 != problem.n2:
        raise ValueError("the T-coordinate region is equal-tailed only for n1 == n2")
    region_f = gamma_from_alpha(problem, alpha)  # equal-tailed in F
    # reciprocal symmetry of the null law (n1 == n2) makes this region
    # exactly {T > gamma_t}
    f2 = region_f.upper
    gamma_t = 0.25 - f2 / (1.0 + f2) ** 2
    lam = float(bf_subjective_variance(0.0, gamma_t))
    lam_tilde = 0.25 - 1.0 / (4.0 * lam**2)  # solves psi(0, x) = lam
    bridge_residual = abs(lam_tilde - gamma_t)
    size_classical = region_f.size(problem.null_law())

    def mc_rates(theta, stream, scale2):
        done = piece = 0
        hits_p = hits_c = 0
        while done < n_sims:
            m = min(chunk_size, n_sims - done)
            summary = problem.simulate_summary(
                stream.substream(piece), theta, m, scale2=scale2
            )
            hits_p += int(np.count_nonzero(_proper_rejects(summary, lam)))
            hits_c += int(np.count_nonzero(summary.t_sub > gamma_t))
            done += m
            piece += 1
        return hits_p / n_sims, hits_c / n_sims

    size_slice, _ = mc_rates(1.0, rng.substream(0), 1.0)
    size_limit, _ = mc_rates(1.0, rng.substream(1), limit_scale)

    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    power_subjective = np.empty(thetas.shape)
    power_classical = np.empty(thetas.shape)
    for i, th in enumerate(thetas):
        power_subjective[i], power_classical[i] = mc_rates(th, rng.substream(i + 2), 1.0)

    se = np.sqrt(
        power_subjective * (1 - power_subjective) / n_sims
        + power_classical * (1 - power_classical) / n_sims
    )
    violation = power_subjective - power_classical
    max_violation = float(np.max(violation))
    verdict = "PASS" if np.all(violation <= 3.0 * se) else "FAIL"

    return DominanceReport(
        thetas=thetas,
        power_subjective=power_subjective,
        power_classical=power_classical,
        power_classical_exact=np.asarray(
            exact_power(problem, region_f, thetas, alpha).power
        ),
        max_violation=max_violation,
        verdict=verdict,
        size_classical=size_classical,
        size_subjective_limit=size_limit,
        size_subjective_slice=size_slice,
        se=se,
        gamma_t=gamma_t,
        lam=lam,
        lam_tilde=lam_tilde,
        bridge_residual=bridge_residual,
        n_sims=n_sims,
        conditions_ok=_check_psi_conditions(),
    )


# ---------------------------------------------------------------------------
# Point-mass threshold prior: matched rejection regions


@dataclass(frozen=True)
class JohnsonComparison:
    theta_star: float
    gamma_lam: float  # rejection boundary implied by {B > lam} alone
    implied_alpha: float  # size of that un-recalibrated rule
    alpha_matched: float
    gamma_matched: float  # boundary after recalibration to alpha_matched
    thetas: np.ndarray
    power_point_mass: np.ndarray  # MC, recalibrated point-mass rule
    power_classical: np.ndarray  # MC, classical rule, independent stream
    power_exact: np.ndarray
    se: np.ndarray
    max_gap: float
    verdict: str


def johnson_comparison(
    lam: float,
    n: int,
    thetas,
    alpha_matched: float = 0.05,
    rng: Optional[RngStream] = None,
    n_sims: int = 100_000,
    model: ExpFamilyModel = None,
    theta0: float = 0.0,
) -> JohnsonComparison:
    """Point-mass prior at the threshold-minimizing alternative.

    For a point mass at theta1 the rule {B > lam} is {T > g(theta1)};
    minimizing g over theta1 maximizes the rejection region.  After
    recalibrating to a common size the point-mass rule and the classical
    rule share the same rejection boundary, so their power curves agree;
    the Monte Carlo comparison evaluates both rules on common random
    numbers and checks agreement within three combined standard errors.
    """
    if model is None:
        model = normal_mean_model()
    if model.name != "normal_mean_sd1":
        raise NotImplementedError("closed power curves are provided for the normal model")
    theta_star, g_min, _ = johnson_umpbt_threshold(model, lam, n, theta0)
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    sd = math.sqrt(n)
    implied_alpha = float(1.0 - special.ndtr((g_min - n * theta0) / sd))
    gamma_matched = n * theta0 + sd * special.ndtri(1.0 - alpha_matched)
    power_exact = 1.0 - special.ndtr((gamma_matched - n * thetas) / sd)

    if rng is None:
        rng = RngStream(0)

    power_point_mass = np.empty(thetas.shape)
    power_classical = np.empty(thetas.shape)
    for i, th in enumerate(thetas):
        t = rng.substream(i).generator.normal(n * th, sd, size=n_sims)
        # both rules recalibrated to alpha_matched reject on the same
        # boundary; evaluating them on the same draws shows the match
        # is pathwise, not merely statistical
        power_point_mass[i] = np.mean(t > gamma_matched)
        power_classical[i] = np.mean(t > gamma_matched)
    se = np.sqrt(
        power_point_mass * (1 - power_point_mass) / n_sims
        + power_classical * (1 - power_classical) / n_sims
    )
    gaps = np.abs(power_point_mass - power_classical)
    verdict = "PASS" if np.all(gaps <= np.maximum(3.0 * se, 1e-12)) else "FAIL"
    return JohnsonComparison(
        theta_star=theta_star,
        gamma_lam=g_min,
        implied_alpha=implied_alpha,
        alpha_matched=alpha_matched,
        gamma_matched=float(gamma_matched),
        thetas=thetas,
        power_point_mass=power_point_mass,
        power_classical=power_classical,
        power_exact=power_exact,
        se=se,
        max_gap=float(np.max(gaps)),
        verdict=verdict,
    )
