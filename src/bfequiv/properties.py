"""Randomized property checks for the claims the calibration machinery
relies on: the paper's identity, that the calibrated rule {B > lambda} is
the classical test, on every pair the CLI calibrates, and the invariances
and identities of the summaries that B reads.

Each property draws random instances from a seeded stream, so a given
seed yields a byte-identical transcript.  A property fails when its check
returns a message or raises, and the first failing instance is reported
as its counterexample.  Every property that evaluates a
Bayes factor gets it from `cli.build_bf`, so the catalogue certifies only
the routes the CLI decides with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import distributions as dist
from . import problems as prob
from .calibrate import calibrate, gamma_from_lambda
from .problems import SufficientSummary
from .rng import RngStream

__all__ = ["PropertySpec", "PropertyResult", "run_property", "catalogue", "run_catalogue"]


@dataclass(frozen=True)
class PropertySpec:
    name: str
    claim: str
    draw: Callable[[RngStream], dict]
    test: Callable[[dict], Optional[str]]  # None = pass, else failure message


@dataclass
class PropertyResult:
    name: str
    claim: str
    n_trials: int
    passed: bool
    counterexample: Optional[dict] = None
    message: Optional[str] = None

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = f"{status} {self.name} ({self.n_trials} trials): {self.claim}"
        if not self.passed:
            out += f"\n     counterexample: {self.counterexample}\n     {self.message}"
        return out


def _failure(spec: PropertySpec, case: dict) -> Optional[str]:
    """Why ``case`` fails the property, or None when it holds: the test's
    message, or ``"<Type>: <message>"`` of what it raised."""
    try:
        return spec.test(case)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def run_property(spec: PropertySpec, rng: RngStream, n_trials: int = 200) -> PropertyResult:
    for i in range(n_trials):
        case = spec.draw(rng.substream(i))
        message = _failure(spec, case)
        if message is not None:
            return PropertyResult(spec.name, spec.claim, i + 1, False, case, message)
    return PropertyResult(spec.name, spec.claim, n_trials, True)


# ---------------------------------------------------------------------------
# The catalogue


def _u(g, lo, hi):
    return float(g.generator.uniform(lo, hi))


def _production_bf(problem, prior_kind: str, **params):
    """The CLI's Bayes factor for the problem, so the catalogue certifies
    the route the CLI decides with."""
    from .cli import RunConfig, build_bf  # cli imports this module

    prior = {"prior.kind": prior_kind, **{f"prior.{key}": v for key, v in params.items()}}
    return build_bf(problem, RunConfig(prior))


def _drawn(rng, kind: type, bounds: str):
    """A value for a config key: an integer in [1, 30], else a number
    log-uniform in (0.2, 5) above the key's lower bound (0 when it has none)."""
    if kind is int:
        return int(rng.generator.integers(1, 31))
    lower = float(bounds.split()[1]) if bounds.startswith(">") else 0.0
    return lower + math.exp(_u(rng, math.log(0.2), math.log(5.0)))


def _p01_classical_draw(rng):
    # trial i takes pair i mod 13 of cli.KINDS: every pair but the two-sided
    # point mass, which is outside the two-sided class (calibrate exits 3)
    from .cli import KINDS, ConfigError, RunConfig, build_bf, build_problem

    pairs = [(kind, prior) for kind in KINDS for prior in KINDS[kind].priors
             if (kind, prior) != ("two_sided_normal", "point_mass")]
    kinds = dict(zip(("problem.kind", "prior.kind"), pairs[rng.path[-1] % len(pairs)]))
    cfg = RunConfig()

    def get(key, kind=float, default=None, bounds=""):
        # RunConfig.get of a config that draws (`_drawn`) each key it lacks
        if key not in cfg.values:
            cfg.values[key] = _drawn(rng, kind, bounds)
        return RunConfig.get(cfg, key, kind, bounds=bounds)

    cfg.get = get
    for _ in range(1000):  # after which the test reports the ConfigError
        cfg.values = dict(kinds)
        try:
            build_bf(build_problem(cfg), cfg)
        except ConfigError:
            continue  # say n <= p, or n1 != n2 for subjective_variance
        except Exception:
            pass  # the test builds the same B and reports what it raises
        break
    return {
        "config": cfg.values,
        "alpha": _u(rng, 0.005, 0.3),
        "q": _u(rng, 1e-6, 1.0 - 1e-6),
        "r": [math.exp(_u(rng, math.log(1e-6), math.log(1e-1))) for _ in range(2)],
    }


def _p01_classical_test(c):
    from .cli import RunConfig, build_bf, build_problem

    cfg = RunConfig(dict(c["config"]))
    problem = build_problem(cfg)
    b = build_bf(problem, cfg).of_stat
    rule = calibrate(problem, c["alpha"], b)
    region = rule.region
    gammas = [g for g in (region.lower, region.upper) if g is not None]
    # the null quantile q, and gamma -/+ r |gamma| at each critical value gamma
    stats = [float(dist.quantile(problem.null_law(), c["q"]))]
    stats += [g + side * r * abs(g) for g, r in zip(gammas, c["r"]) for side in (-1.0, 1.0)]
    for s in stats:
        if bool(rule.bayes(b(s))) != bool(rule.classical(s)):
            return f"decisions differ at statistic {s!r}: B = {float(b(s))!r}, lambda = {rule.lam!r}"
    if region.shape == "upper":
        region2, alpha2 = gamma_from_lambda(problem, b, rule.lam)
        if (abs(region2.upper - region.upper) > 1e-8 * max(1.0, abs(region.upper))
                or abs(alpha2 - c["alpha"]) > 1e-8):
            return f"round trip: gamma {region.upper} -> {region2.upper}, alpha {c['alpha']} -> {alpha2}"
    return None


def _p04_tsq_draw(rng):
    n = int(rng.generator.integers(3, 20))
    xbar = _u(rng, 0.01, 1.0)
    ss_c = _u(rng, 1.0, 10.0)
    return {"n": n, "xbar": xbar, "ss_centered": ss_c, "sum_sq": ss_c + n * xbar**2}


def _p04_tsq_test(c):
    problem = prob.GaussianMeanUnknownVar(n=c["n"])
    pair = _production_bf(problem, "gaussian_scale")
    pos, neg = (
        problem.derive(SufficientSummary(xbar=xbar, ss_centered=c["ss_centered"], sum_sq=c["sum_sq"]))
        for xbar in (c["xbar"], -c["xbar"])
    )
    b_pos, b_neg = float(pair.of_summary(pos)), float(pair.of_summary(neg))
    b_t = float(pair.of_stat(pos.t))
    if abs(b_pos - b_neg) > 1e-12 * b_pos or abs(b_pos - b_t) > 1e-9 * b_pos:
        return f"B at xbar, -xbar and t: {b_pos}, {b_neg}, {b_t}"
    return None


def _p05_rotation_draw(rng):
    g = rng.generator
    p = int(g.integers(2, 5))
    return {"p": p, "tau": _u(rng, 0.3, 3.0), "t_vec": g.normal(size=p), "seed_q": int(g.integers(1 << 30))}


def _p05_rotation_test(c):
    # with the identity design the response is the statistic vector T
    p = c["p"]
    problem = prob.RegressionKnownVar(p=p, n=p)
    pair = _production_bf(problem, "gaussian_spherical", precision=c["tau"])
    q, _ = np.linalg.qr(np.random.default_rng(c["seed_q"]).normal(size=(p, p)))
    b0 = float(pair.of_summary(problem.summarize(c["t_vec"], np.eye(p))))
    b1 = float(pair.of_summary(problem.summarize(q @ c["t_vec"], np.eye(p))))
    if abs(b0 - b1) > 1e-10 * b0:
        return f"rotation changed B: {b0} vs {b1}"
    return None


def _p11_bstar_draw(rng):
    return {
        "q": _u(rng, 1e-6, 5.0),
        "t": _u(rng, 1e-4, 0.2499),
        "dt": _u(rng, 1e-6, 0.05),
    }


def _p11_bstar_test(c):
    # B*(Q, T) is the CLI's B of the summary (Q, T), whatever n1 and n2
    q, t = c["q"], c["t"]
    pair = _production_bf(prob.SubjectiveVarianceEquality(), "gamma")
    b_star = lambda at_q, at_t: float(pair.of_summary(SufficientSummary(q=at_q, t_sub=at_t)))
    b_q, b_0 = b_star(q, t), b_star(0.0, t)
    if b_q > b_0:
        return f"B*({q},{t}) = {b_q} above the diffuse limit {b_0}"
    t2 = t + min(c["dt"], 0.2499999 - t)
    if not (b_2 := b_star(q, t2)) > b_q:
        return f"B*({q},{t2}) = {b_2} not above B*({q},{t}) = {b_q}"
    return None


def _p14_ssdecomp_draw(rng):
    g = rng.generator
    n1, n2 = int(g.integers(2, 20)), int(g.integers(2, 20))
    return {"x1": g.normal(size=n1) * 2.0, "x2": g.normal(1.0, 2.0, size=n2)}


def _p14_ssdecomp_test(c):
    # B of the summary (means and S1^2, S2^2) equals B of a T built from the
    # total sum of squares only if (n-1)S^2 = (n1-1)S1^2 + (n2-1)S2^2 + m d^2
    x1, x2 = np.asarray(c["x1"]), np.asarray(c["x2"])
    problem = prob.TwoSampleMeansUnknownEqualVar(len(x1), len(x2))
    pair = _production_bf(problem, "conjugate")
    grand = np.concatenate([x1, x2])
    d, m = x2.mean() - x1.mean(), len(x1) * len(x2) / len(grand)
    t = d / math.sqrt(float(np.sum((grand - grand.mean()) ** 2)) - m * d**2)
    b_summary = float(pair.of_summary(problem.summarize(x1, x2)))
    b_stat = float(pair.of_stat(t))
    if abs(b_summary - b_stat) > 1e-9 * b_stat:
        return f"sum-of-squares decomposition off: B of the summary {b_summary} vs of T {b_stat}"
    return None


def _p15_hat_draw(rng):
    g = rng.generator
    p1, p2 = int(g.integers(1, 3)), int(g.integers(1, 3))
    n = int(g.integers(p1 + p2 + 2, p1 + p2 + 15))
    return {
        "n": n,
        "p1": p1,
        "p2": p2,
        "y": g.normal(size=n),
        "X1": g.normal(size=(n, p1)),
        "X2": g.normal(size=(n, p2)),
    }


def _p15_hat_test(c):
    # explicit hat matrices: a reference independent of summarize's projection
    problem = prob.SubsetSelection(n=c["n"], p1=c["p1"], p2=c["p2"])
    s = problem.summarize(c["y"], c["X1"], c["X2"])
    y = np.asarray(c["y"], dtype=float)
    X1 = np.asarray(c["X1"], dtype=float)
    Xf = np.hstack([X1, np.asarray(c["X2"], dtype=float)])
    H1 = X1 @ np.linalg.solve(X1.T @ X1, X1.T)
    H = Xf @ np.linalg.solve(Xf.T @ Xf, Xf.T)
    mid = float(y @ (H - H1) @ y)
    resid = float(y @ (np.eye(c["n"]) - H) @ y)
    f = mid / resid
    reference = (mid + resid, f)
    if (mid < -1e-10 or abs(s.rss_null - reference[0]) > 1e-8 * max(1.0, s.rss_null)
            or abs(s.f - f) > 1e-9 * max(1.0, abs(f))):
        return f"summary (rss_null, F) = ({s.rss_null}, {s.f}) vs {reference}"
    return None


def catalogue() -> list:
    """The standing property catalogue (order is stable)."""
    return [
        PropertySpec(
            "calibrated_rule_is_classical",
            "once lambda = B(gamma), {B > lambda} is the classical test on every pair the CLI calibrates",
            _p01_classical_draw, _p01_classical_test,
        ),
        PropertySpec(
            "t_test_statistic_function", "the t-test Bayes factor depends on data only through t^2",
            _p04_tsq_draw, _p04_tsq_test,
        ),
        PropertySpec(
            "radial_rotation_invariant", "spherical-prior regression Bayes factor is rotation invariant",
            _p05_rotation_draw, _p05_rotation_test,
        ),
        PropertySpec(
            "subjective_score_bounds", "B*(Q,T) never exceeds its diffuse limit B*(0,T) and increases in T",
            _p11_bstar_draw, _p11_bstar_test,
        ),
        PropertySpec(
            "pooled_ss_decomposition", "total sum of squares splits into within plus scaled between",
            _p14_ssdecomp_draw, _p14_ssdecomp_test,
        ),
        PropertySpec(
            "hat_matrix_split", "the null residual splits across the nested projections",
            _p15_hat_draw, _p15_hat_test,
        ),
    ]


def run_catalogue(rng: RngStream, n_trials: int = 200):
    """Run every property; returns (results, transcript string)."""
    results = []
    for j, spec in enumerate(catalogue()):
        results.append(run_property(spec, rng.substream(j), n_trials))
    transcript = "\n".join(r.line() for r in results) + "\n"
    return results, transcript
