"""Randomized property checks for the structural claims the calibration
machinery relies on: monotonicity, convexity, invariances, and the
threshold identities.

Each property draws random instances from a seeded stream, so a given
seed yields a byte-identical transcript.  A property fails when its check
returns a message or raises; the counterexample is then shrunk toward a
baseline instance before reporting.  Every property that evaluates a
Bayes factor gets it from `cli.build_bf`, so the catalogue certifies only
the routes the CLI decides with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import problems as prob
from .calibrate import gamma_from_alpha, gamma_from_lambda, lambda_from_gamma
from .problems import SufficientSummary
from .rng import RngStream

__all__ = ["PropertySpec", "PropertyResult", "run_property", "catalogue", "run_catalogue"]


@dataclass(frozen=True)
class PropertySpec:
    name: str
    claim: str
    draw: Callable[[RngStream], dict]
    test: Callable[[dict], Optional[str]]  # None = pass, else failure message
    shrink_keys: tuple = ()
    baseline: dict = field(default_factory=dict)


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


def _shrink(spec: PropertySpec, case: dict) -> dict:
    """Halve each shrinkable value toward its baseline while still failing,
    at most 50 rounds."""
    current = dict(case)
    for _ in range(50):
        moved = False
        for key in spec.shrink_keys:
            base = spec.baseline.get(key, 0.0)
            candidate = dict(current)
            candidate[key] = base + 0.5 * (current[key] - base)
            if candidate[key] != current[key] and _failure(spec, candidate) is not None:
                current = candidate
                moved = True
        if not moved:
            break
    return current


def run_property(spec: PropertySpec, rng: RngStream, n_trials: int = 200) -> PropertyResult:
    for i in range(n_trials):
        case = spec.draw(rng.substream(i))
        message = _failure(spec, case)
        if message is not None:
            shrunk = _shrink(spec, case)
            return PropertyResult(
                spec.name, spec.claim, i + 1, False, shrunk, _failure(spec, shrunk) or message
            )
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


def _increasing(b, x: float, dx: float) -> Optional[str]:
    """The shared monotonicity check: B(x + dx) > B(x)."""
    b1, b2 = float(b(x)), float(b(x + dx))
    if not b2 > b1:
        return f"B({x + dx}) = {b2} not above B({x}) = {b1}"
    return None


def _c_free(problem, c: dict, stat: float, gamma: float) -> Optional[str]:
    """The shared check of the prior-scale properties: the CLI's B at each
    scale c1 and c2, thresholded at its own B(gamma), rejects at ``stat``
    exactly when the classical rule |stat| > gamma does (the upper region
    of a nonnegative statistic, or the symmetric two-tailed one)."""
    decisions = []
    for scale in (c["c1"], c["c2"]):
        b = _production_bf(problem, "conjugate", c=scale).of_stat
        decisions.append(bool(float(b(stat)) > float(b(gamma))))
    classical = abs(stat) > gamma
    if decisions != [classical, classical]:
        return f"decisions {decisions} vs classical {classical}"
    return None


def _p01_monotone_draw(rng):
    g = rng
    kind = "half_normal" if g.generator.uniform() < 0.5 else "exponential"
    return {
        "kind": kind,
        "tau": _u(g, 0.2, 5.0),
        "n": int(g.generator.integers(1, 30)),
        "t1": _u(g, -6.0, 5.0),
        "dt": _u(g, 1e-3, 4.0),
    }


def _p01_monotone_test(c):
    hyper = "precision" if c["kind"] == "half_normal" else "rate"
    pair = _production_bf(prob.OneSidedNormal(n=c["n"]), c["kind"], **{hyper: c["tau"]})
    return _increasing(pair.of_stat, c["t1"], c["dt"])


def _p02_convex_draw(rng):
    return {
        "tau": _u(rng, 0.2, 5.0),
        "n": int(rng.generator.integers(1, 30)),
        "t1": _u(rng, -8.0, 6.0),
        "dt": _u(rng, 0.1, 4.0),
        "w": _u(rng, 0.05, 0.95),
    }


def _p02_convex_test(c):
    t1, t2, w = c["t1"], c["t1"] + c["dt"], c["w"]
    b = _production_bf(prob.TwoSidedNormal(n=c["n"]), "normal", precision=c["tau"]).of_stat
    f = lambda t: float(b(t))
    mid = f(w * t1 + (1 - w) * t2)
    chord = w * f(t1) + (1 - w) * f(t2)
    if mid > chord * (1 + 1e-12):
        return f"B at interpolant {mid} exceeds chord {chord}"
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


def _p06_fmono_draw(rng):
    g = rng.generator
    p = int(g.integers(1, 4))
    n = int(g.integers(p + 2, p + 20))
    return {"p": p, "n": n, "tau": _u(rng, 0.3, 3.0), "f1": _u(rng, 0.0, 6.0), "df": _u(rng, 1e-3, 4.0)}


def _p06_fmono_test(c):
    problem = prob.RegressionUnknownVar(p=c["p"], n=c["n"])
    pair = _production_bf(problem, "gaussian_spherical", precision=c["tau"])
    return _increasing(pair.of_stat, c["f1"], c["df"])


def _p07_2skv_cindep_draw(rng):
    g = rng.generator
    return {
        "n1": int(g.integers(2, 20)),
        "n2": int(g.integers(2, 20)),
        "tau1": _u(rng, 0.3, 3.0),
        "tau2": _u(rng, 0.3, 3.0),
        "c1": _u(rng, 0.1, 10.0),
        "c2": _u(rng, 0.1, 10.0),
        "gamma": _u(rng, 0.2, 4.0),
        "t": _u(rng, 0.0, 8.0),
    }


def _p07_2skv_cindep_test(c):
    problem = prob.TwoSampleMeansKnownVar(c["n1"], c["n2"], c["tau1"], c["tau2"])
    return _c_free(problem, c, c["t"], c["gamma"])


def _p08_2st_cindep_draw(rng):
    g = rng.generator
    return {
        "n1": int(g.integers(2, 15)),
        "n2": int(g.integers(2, 15)),
        "c1": _u(rng, 0.1, 10.0),
        "c2": _u(rng, 0.1, 10.0),
        "gamma": _u(rng, 0.05, 1.5),
        "t": _u(rng, -2.0, 2.0),
    }


def _p08_2st_cindep_test(c):
    problem = prob.TwoSampleMeansUnknownEqualVar(c["n1"], c["n2"])
    return _c_free(problem, c, c["t"], c["gamma"])


def _p09_subset_cindep_draw(rng):
    g = rng.generator
    p1, p2 = int(g.integers(1, 4)), int(g.integers(1, 4))
    n = int(g.integers(p1 + p2 + 2, p1 + p2 + 25))
    return {
        "n": n,
        "p1": p1,
        "p2": p2,
        "c1": _u(rng, 0.1, 10.0),
        "c2": _u(rng, 0.1, 10.0),
        "gamma_t": _u(rng, 0.05, 0.9),
        "t": _u(rng, 0.0, 0.99),
    }


def _p09_subset_cindep_test(c):
    # drawn on the scale of T = F/(1+F); the CLI's B reads F = T/(1-T)
    problem = prob.SubsetSelection(c["n"], c["p1"], c["p2"])
    f_of = lambda t: t / (1.0 - t)
    return _c_free(problem, c, f_of(c["t"]), f_of(c["gamma_t"]))


def _p10_vr_mono_draw(rng):
    g = rng.generator
    kind = "point" if g.uniform() < 0.5 else "density"
    return {
        "kind": kind,
        "theta1": _u(rng, 1.0, 6.0),
        "rate": _u(rng, 0.3, 3.0),
        "n1": int(g.integers(2, 15)),
        "n2": int(g.integers(2, 15)),
        "f1": _u(rng, 0.05, 8.0),
        "df": _u(rng, 1e-3, 4.0),
    }


def _p10_vr_mono_test(c):
    problem = prob.VarianceRatio(c["n1"], c["n2"])
    if c["kind"] == "point":
        pair = _production_bf(problem, "point_mass", theta1=c["theta1"])
    else:
        pair = _production_bf(problem, "shifted_exponential", rate=c["rate"])
    return _increasing(pair.of_stat, c["f1"], c["df"])


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
    return _increasing(lambda x: b_star(q, x), t, min(c["dt"], 0.2499999 - t))


def _p13_roundtrip_draw(rng):
    return {
        "n": int(rng.generator.integers(1, 20)),
        "tau": _u(rng, 0.3, 4.0),
        "alpha": _u(rng, 0.005, 0.3),
    }


def _p13_roundtrip_test(c):
    problem = prob.OneSidedNormal(n=c["n"])
    bf_of_stat = _production_bf(problem, "half_normal", precision=c["tau"]).of_stat
    region = gamma_from_alpha(problem, c["alpha"])
    lam = lambda_from_gamma(region, bf_of_stat)
    region2, alpha2 = gamma_from_lambda(problem, bf_of_stat, lam)
    if (abs(region2.upper - region.upper) > 1e-8 * max(1.0, abs(region.upper))
            or abs(alpha2 - c["alpha"]) > 1e-8):
        return f"round trip: gamma {region.upper} -> {region2.upper}, alpha {c['alpha']} -> {alpha2}"
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
            "one_sided_monotone",
            "one-sided Bayes factors increase strictly in the statistic",
            _p01_monotone_draw,
            _p01_monotone_test,
            ("dt",),
            {"dt": 1e-3},
        ),
        PropertySpec(
            "two_sided_convex",
            "two-sided conjugate Bayes factor is convex in the statistic",
            _p02_convex_draw,
            _p02_convex_test,
            ("dt",),
            {"dt": 0.1},
        ),
        PropertySpec(
            "t_test_statistic_function",
            "the t-test Bayes factor depends on data only through t^2",
            _p04_tsq_draw,
            _p04_tsq_test,
        ),
        PropertySpec(
            "radial_rotation_invariant",
            "spherical-prior regression Bayes factor is rotation invariant",
            _p05_rotation_draw,
            _p05_rotation_test,
        ),
        PropertySpec(
            "f_test_monotone",
            "unknown-variance regression Bayes factor increases in F",
            _p06_fmono_draw,
            _p06_fmono_test,
            ("df",),
            {"df": 1e-3},
        ),
        PropertySpec(
            "two_sample_known_var_c_free",
            "two-sample known-variance decisions do not depend on the prior scale c",
            _p07_2skv_cindep_draw,
            _p07_2skv_cindep_test,
        ),
        PropertySpec(
            "two_sample_t_c_free",
            "two-sample t-test decisions do not depend on the prior scale c",
            _p08_2st_cindep_draw,
            _p08_2st_cindep_test,
        ),
        PropertySpec(
            "subset_selection_c_free",
            "subset-selection decisions do not depend on the prior scale c",
            _p09_subset_cindep_draw,
            _p09_subset_cindep_test,
        ),
        PropertySpec(
            "variance_ratio_monotone",
            "variance-ratio Bayes factor increases in F for priors on theta > 1",
            _p10_vr_mono_draw,
            _p10_vr_mono_test,
            ("df",),
            {"df": 1e-3},
        ),
        PropertySpec(
            "subjective_score_bounds",
            "B*(Q,T) never exceeds its diffuse limit B*(0,T) and increases in T",
            _p11_bstar_draw,
            _p11_bstar_test,
        ),
        PropertySpec(
            "calibration_round_trip",
            "gamma -> lambda -> gamma round trip is the identity",
            _p13_roundtrip_draw,
            _p13_roundtrip_test,
        ),
        PropertySpec(
            "pooled_ss_decomposition",
            "total sum of squares splits into within plus scaled between",
            _p14_ssdecomp_draw,
            _p14_ssdecomp_test,
        ),
        PropertySpec(
            "hat_matrix_split",
            "the null residual splits across the nested projections",
            _p15_hat_draw,
            _p15_hat_test,
        ),
    ]


def run_catalogue(rng: RngStream, n_trials: int = 200):
    """Run every property; returns (results, transcript string)."""
    results = []
    for j, spec in enumerate(catalogue()):
        results.append(run_property(spec, rng.substream(j), n_trials))
    transcript = "\n".join(r.line() for r in results) + "\n"
    return results, transcript
