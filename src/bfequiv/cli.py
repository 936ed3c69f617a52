"""Command-line front end.

Problems and priors are declared in a flat key=value config file with
dotted section prefixes (problem.kind=..., prior.kind=..., run.alpha=...),
one pair per line, '#' comments.  Subcommands: calibrate, power, verify,
dominance, johnson, props, reproduce-sec6.  All file outputs are CSV
(12 significant digits) or SVG, written atomically; identical config and
seed give byte-identical CSV outputs.

Exit codes: calibrate returns 0 on success, 2 when the requested Bayes
threshold cannot be inverted to a critical region, 3 when the prior
violates the calibrated two-sided class; malformed configs exit 1 with a
line-numbered message; other subcommands exit nonzero iff their verdict
fails; missing data files exit 1.
"""

from __future__ import annotations

import argparse
import csv
import logging
import math
import os
import sys
from dataclasses import dataclass, field as dc_field, fields
from typing import Callable, Optional

import numpy as np
from scipy import special

from . import bayes_factors as bf
from . import problems as prob
from .calibrate import (
    ClassViolationError,
    DecisionRule,
    calibrate,
    gamma_from_lambda,
    verify_equivalence,
)
from .expfamily import normal_mean_model
from .power import dominance_study, exact_power, johnson_comparison, mc_power
from .priors import DensityPrior, PointMass
from .properties import run_catalogue
from .reports import format_float, write_csv, write_svg_lines, write_text
from .rng import RngStream

log = logging.getLogger("bfequiv")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE_LAMBDA = 2
EXIT_CLASS_VIOLATION = 3


class ConfigError(Exception):
    """Malformed configuration; message carries the offending line number."""


@dataclass
class RunConfig:
    problem: dict = dc_field(default_factory=dict)
    prior: dict = dc_field(default_factory=dict)
    run: dict = dc_field(default_factory=dict)
    path: str = ""
    lines: dict = dc_field(default_factory=dict)  # dotted key -> line number

    def where(self, key: str) -> str:
        """``path:line: key`` of a dotted key, to start an error message."""
        return f"{self.path}:{self.lines[key]}: {key}" if key in self.lines else key


def _parse_value(raw: str):
    raw = raw.strip()
    if "," in raw:
        return [_parse_value(part) for part in raw.split(",")]
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def parse_config(path: str) -> RunConfig:
    """Parse the flat dotted key=value format, '#' comments allowed."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    cfg = RunConfig(path=path)
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {text!r}")
            key, raw = text.split("=", 1)
            key = key.strip()
            if "." not in key:
                raise ConfigError(
                    f"{path}:{lineno}: key {key!r} missing a section prefix "
                    "(problem., prior., run.)"
                )
            section, name = key.split(".", 1)
            if section not in ("problem", "prior", "run"):
                raise ConfigError(f"{path}:{lineno}: unknown section {section!r}")
            if not name:
                raise ConfigError(f"{path}:{lineno}: empty key name in {key!r}")
            getattr(cfg, section)[name] = _parse_value(raw)
            cfg.lines[key] = lineno
    return cfg


def _require(section: dict, name: str, where: str):
    if name not in section:
        raise ConfigError(f"missing required key {where}.{name}")
    return section[name]


def _check_number(value, where: str, integer: bool = False):
    """value itself if it is a finite number (an integer when asked), else
    a ConfigError that starts with ``where``."""
    if isinstance(value, int) or (isinstance(value, float) and not integer and math.isfinite(value)):
        return value
    kind = "an integer" if integer else "a finite number"
    raise ConfigError(f"{where} must be {kind}, got {value!r}")


# ---------------------------------------------------------------------------
# Problem kinds: one table entry per problem.kind


@dataclass
class BfPair:
    """Bayes factor as a function of the decision statistic and of the
    sufficient summary (the two must agree on every dataset)."""

    of_stat: Callable
    of_summary: Callable


def _stat_pair(g: Callable, field: str = "t") -> BfPair:
    """Pair for the problems whose summary holds the statistic as `field`."""
    return BfPair(g, lambda s: g(s[field]))


_MODEL = normal_mean_model()


def _positive(prcfg: dict, name: str, default: Optional[float] = None) -> float:
    """prior.<name>, required unless a default is given; must be > 0."""
    value = _require(prcfg, name, "prior") if default is None else prcfg.get(name, default)
    if not value > 0:
        raise ValueError(f"prior.{name} must be > 0, got {value!r}")
    return value


def _point_mass(problem, prcfg):
    prior, n, theta0 = PointMass(_require(prcfg, "theta1", "prior")), problem.n, problem.theta0
    return _stat_pair(lambda t: bf.bf_one_sided(_MODEL, prior, t, n, theta0))


def _half_normal(problem, prcfg):
    tau, n, shift = _positive(prcfg, "precision"), problem.n, problem.n * problem.theta0
    return _stat_pair(lambda t: bf.bf_one_sided_normal_halfnormal(np.asarray(t) - shift, n, tau))


def _exponential(problem, prcfg):
    rate, n, shift = _positive(prcfg, "rate"), problem.n, problem.n * problem.theta0
    return _stat_pair(lambda t: bf.bf_one_sided_normal_exponential(np.asarray(t) - shift, n, rate))


def _normal(problem, prcfg):
    tau, n, shift = _positive(prcfg, "precision"), problem.n, problem.n * problem.theta0
    return _stat_pair(lambda t: bf.bf_two_sided_normal_conjugate(np.asarray(t) - shift, n, tau))


def _t_test_gaussian(problem, prcfg):
    # The N(0, sigma^2) prior on the mean is Zellner's g-prior with g = n,
    # so B is the subset-selection form with p2 = 1 and c = 1/n at
    # T = n xbar^2 / sum(x^2) = t^2 / ((n-1) + t^2).
    n = problem.n
    engine = bf.SubsetSelectionBf(n, 1, 1.0 / n)
    return BfPair(
        lambda t: engine(np.square(t) / ((n - 1) + np.square(t))),
        lambda s: engine(n * s.xbar**2 / s.sum_sq),
    )


def _regression_unknown_var_gaussian(problem, prcfg):
    # B = (tau/(1+tau))^{p/2} (1 - T/(1+tau))^{-n/2} at T = y'Hy / y'y:
    # the subset-selection form with c = tau.
    engine = bf.SubsetSelectionBf(problem.n, problem.p, prcfg.get("precision", 1.0))
    df_ratio = problem.p / (problem.n - problem.p)
    return BfPair(lambda f: engine.from_f(np.asarray(f) * df_ratio), lambda s: engine(s.yHy / s.yy))


def _regression_known_var_gaussian(problem, prcfg):
    tau, p = _positive(prcfg, "precision", 1.0), problem.p
    return _stat_pair(lambda t_abs: bf.bf_regression_known_var_gaussian(t_abs, p, tau), "t_abs")


def _two_sample_known_var(problem, prcfg):
    c = prcfg.get("c", 1.0)
    engine = bf.TwoSampleKnownVarBf(problem.n1, problem.n2, problem.tau1, problem.tau2, c)
    return BfPair(engine.from_t, lambda s: engine(s.xbar1, s.xbar2))


def _two_sample_t(problem, prcfg):
    engine = bf.TwoSampleTBf(problem.n1, problem.n2, prcfg.get("c", 1.0))
    return BfPair(engine.from_t, lambda s: engine(s.xbar1, s.xbar2, s.s1_sq, s.s2_sq))


def _variance_ratio_point_mass(problem, prcfg):
    prior = PointMass(_require(prcfg, "theta1", "prior"))
    return _stat_pair(bf.VarianceRatioBf(prior, problem.n1, problem.n2), "f")


def _variance_ratio_shifted_exponential(problem, prcfg):
    rate = prcfg.get("rate", 1.0)
    prior = DensityPrior(lambda th: math.log(rate) - rate * (th - 1.0), (1.0, math.inf))
    return _stat_pair(bf.VarianceRatioBf(prior, problem.n1, problem.n2), "f")


def _subset_selection(problem, prcfg):
    engine = bf.SubsetSelectionBf(problem.n, problem.p2, prcfg.get("c", 1.0))
    return BfPair(engine.from_f, lambda s: engine(s.t_stat))


def _subjective(problem, prcfg):
    return BfPair(
        lambda f: bf.bf_subjective_variance(0.0, bf.subjective_t_from_f(f)),
        lambda s: bf.bf_subjective_variance(s.q, s.t_sub),
    )


class DataError(Exception):
    pass


def load_columns(path: str, base_dir: str) -> dict:
    """Columns of a CSV data file (header row, one column per variable)."""
    full = path if os.path.isabs(path) else os.path.join(base_dir, path)
    if not os.path.exists(full):
        raise DataError(f"data file not found: {full}")
    with open(full, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"empty data file: {full}") from None
        rows = [row for row in reader if row]
    cols = {}
    for j, name in enumerate(header):
        try:
            cols[name.strip()] = np.array([float(r[j]) for r in rows])
        except (ValueError, IndexError) as exc:
            raise DataError(f"bad value in column {name!r} of {full}: {exc}") from exc
    return cols


def _column(cols: dict, name: str, path: str) -> np.ndarray:
    if name not in cols:
        raise DataError(f"column {name!r} missing from {path}")
    return cols[name]


def _matrix(cols: dict, stem: str, count: int, path: str) -> np.ndarray:
    return np.column_stack([_column(cols, f"{stem}{i}", path) for i in range(1, count + 1)])


def _load_x(problem, pcfg, base_dir):
    if "data" not in pcfg:
        return None
    return problem.summarize(_column(load_columns(pcfg["data"], base_dir), "x", pcfg["data"]))


def _load_regression(problem, pcfg, base_dir):
    if "data" not in pcfg:
        return None
    path = pcfg["data"]
    cols = load_columns(path, base_dir)
    return problem.summarize(_column(cols, "y", path), _matrix(cols, "x", problem.p, path))


def _load_subset(problem, pcfg, base_dir):
    if "data" not in pcfg:
        return None
    path = pcfg["data"]
    cols = load_columns(path, base_dir)
    return problem.summarize(
        _column(cols, "y", path),
        _matrix(cols, "x", problem.p1, path),
        _matrix(cols, "z", problem.p2, path),
    )


def _load_two_samples(problem, pcfg, base_dir):
    if "data1" not in pcfg and "data2" not in pcfg:
        return None
    for key in ("data1", "data2"):
        if key not in pcfg:
            raise DataError(f"problem.{key} required when the other is given")
    paths = (pcfg["data1"], pcfg["data2"])
    return problem.summarize(*(_column(load_columns(p, base_dir), "x", p) for p in paths))


@dataclass(frozen=True)
class ProblemKind:
    """What the CLI knows about one problem.kind.

    The problem is ``problem(**args)`` with ``args`` read from the problem
    section: every key in ``required``, and the keys of ``optional`` with
    those defaults.  ``load(problem, problem section, base dir)`` returns
    the observed summary from the data files the section names, or None.
    ``priors`` maps each allowed prior.kind to its factory
    ``(problem, prior section) -> BfPair``.
    """

    problem: type
    required: tuple
    optional: dict
    load: Callable
    priors: dict


# Each entry: problem class, required and optional keys, data loader on
# the first line; the allowed prior kinds and their factories below it.
KINDS = {
    "one_sided_normal": ProblemKind(
        prob.OneSidedNormal, (), {"n": 1, "theta0": 0.0}, _load_x,
        {"point_mass": _point_mass, "half_normal": _half_normal, "exponential": _exponential},
    ),
    "two_sided_normal": ProblemKind(
        prob.TwoSidedNormal, (), {"n": 1, "theta0": 0.0}, _load_x,
        {"normal": _normal, "point_mass": _point_mass},
    ),
    "t_test": ProblemKind(
        prob.GaussianMeanUnknownVar, ("n",), {}, _load_x,
        {"gaussian_scale": _t_test_gaussian},
    ),
    "regression_known_var": ProblemKind(
        prob.RegressionKnownVar, ("p", "n"), {}, _load_regression,
        {"gaussian_spherical": _regression_known_var_gaussian},
    ),
    "regression_unknown_var": ProblemKind(
        prob.RegressionUnknownVar, ("p", "n"), {}, _load_regression,
        {"gaussian_spherical": _regression_unknown_var_gaussian},
    ),
    "two_sample_known_var": ProblemKind(
        prob.TwoSampleMeansKnownVar, ("n1", "n2"), {"tau1": 1.0, "tau2": 1.0}, _load_two_samples,
        {"conjugate": _two_sample_known_var},
    ),
    "two_sample_t": ProblemKind(
        prob.TwoSampleMeansUnknownEqualVar, ("n1", "n2"), {}, _load_two_samples,
        {"conjugate": _two_sample_t},
    ),
    "variance_ratio": ProblemKind(
        prob.VarianceRatio, ("n1", "n2"), {}, _load_two_samples,
        {
            "point_mass": _variance_ratio_point_mass,
            "shifted_exponential": _variance_ratio_shifted_exponential,
        },
    ),
    "subset_selection": ProblemKind(
        prob.SubsetSelection, ("n", "p1", "p2"), {}, _load_subset,
        {"conjugate": _subset_selection},
    ),
    "subjective_variance": ProblemKind(
        prob.SubjectiveVarianceEquality, ("n1", "n2"), {"a": 2.0, "b": 2.0}, _load_two_samples,
        {"gamma": _subjective, "": _subjective},
    ),
}
_KIND_OF = {entry.problem: name for name, entry in KINDS.items()}


def build_problem(pcfg: dict, where: Callable[[str], str] = str) -> prob.TestProblem:
    """The problem a problem section declares.  ``where`` maps a dotted
    key to the start of an error message (``RunConfig.where`` gives its
    path:line)."""
    kind = _require(pcfg, "kind", "problem")
    if kind not in KINDS:
        raise ConfigError(f"{where('problem.kind')} {kind!r} is not a known problem kind")
    entry = KINDS[kind]
    args = {key: _require(pcfg, key, "problem") for key in entry.required}
    args.update((key, pcfg.get(key, default)) for key, default in entry.optional.items())
    types = {f.name: f.type for f in fields(entry.problem)}
    for key, value in args.items():
        _check_number(value, where(f"problem.{key}"), integer=types[key] in (int, "int"))
    try:
        return entry.problem(**args)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where('problem.kind')} {kind!r}: invalid parameters: {exc}") from exc


def build_bf(problem: prob.TestProblem, prcfg: dict, where: Callable[[str], str] = str) -> BfPair:
    """The Bayes factor a prior section declares for ``problem``;
    ``where`` as in `build_problem`."""
    kind = _require(prcfg, "kind", "prior")
    name = _KIND_OF[type(problem)]
    factory = KINDS[name].priors.get(kind)
    if factory is None:
        raise ConfigError(f"{where('prior.kind')} {kind!r} is unsupported for {name}")
    for key, value in prcfg.items():
        if key != "kind":
            _check_number(value, where(f"prior.{key}"))
    try:
        return factory(problem, prcfg)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where('prior.kind')} {kind!r}: invalid parameters: {exc}") from exc


def load_observed_summary(problem: prob.TestProblem, pcfg: dict, base_dir: str):
    """Compute the sufficient summary from declared data files, if any."""
    return KINDS[_KIND_OF[type(problem)]].load(problem, pcfg, base_dir)


# ---------------------------------------------------------------------------
# Shared plumbing


def _out_dir(args, cfg: Optional[RunConfig]) -> str:
    out = args.out or (cfg.run.get("out") if cfg else None) or "."
    os.makedirs(out, exist_ok=True)
    return out


def _seed(args, cfg: RunConfig, required: bool) -> Optional[int]:
    seed = args.seed if args.seed is not None else cfg.run.get("seed")
    if seed is None:
        if required:
            raise ConfigError("run.seed (or --seed) is mandatory for this subcommand")
        return None
    if not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")
    return seed


def _count(cfg: RunConfig, key: str, default: int) -> int:
    """run.<key>, a number of simulated datasets or trials; a verdict
    needs at least one."""
    value = cfg.run.get(key, default)
    if not isinstance(value, (int, float)) or not value >= 1:
        raise ConfigError(f"{cfg.where('run.' + key)} must be at least 1, got {value!r}")
    return int(value)


def _alpha(cfg: RunConfig, default=None) -> float:
    """run.alpha, a size strictly between 0 and 1."""
    alpha = cfg.run.get("alpha", default)
    if not isinstance(alpha, (int, float)) or not 0 < alpha < 1:
        raise ConfigError(f"{cfg.where('run.alpha')} must lie in (0, 1), got {alpha!r}")
    return alpha


def _lambda(cfg: RunConfig) -> float:
    """run.lambda, a Bayes-factor threshold."""
    lam = cfg.run["lambda"]
    if not isinstance(lam, (int, float)):
        raise ConfigError(f"{cfg.where('run.lambda')} must be a number, got {lam!r}")
    return lam


def _theta_grid(cfg: RunConfig, default=None) -> Optional[np.ndarray]:
    grid = cfg.run.get("theta_grid", default)
    if grid is None:
        return None
    if not isinstance(grid, list):
        grid = [grid]
    if not all(isinstance(v, (int, float)) for v in grid):
        raise ConfigError(f"{cfg.where('run.theta_grid')} must be numbers, got {grid!r}")
    return np.asarray([float(v) for v in grid])


def _build_rule(problem, pair: BfPair, cfg: RunConfig):
    """Decision rule from either run.alpha or run.lambda."""
    if ("alpha" in cfg.run) == ("lambda" in cfg.run):
        raise ConfigError("exactly one of run.alpha or run.lambda must be set")
    if "alpha" in cfg.run:
        result = calibrate(problem, _alpha(cfg), pair.of_stat)
        return result.rule, result.alpha
    lam = _lambda(cfg)
    if problem.region_shape != "upper":
        raise ConfigError(
            f"{cfg.where('run.lambda')} needs a one-sided test; "
            f"{_KIND_OF[type(problem)]} is two-sided, so set run.alpha instead"
        )
    region, implied = gamma_from_lambda(problem, pair.of_stat, lam)
    if implied in (0.0, 1.0):
        raise InfeasibleLambda(
            f"lambda = {lam} is never crossed by B on the statistic range"
            if implied == 0.0
            else f"lambda = {lam} is exceeded by B everywhere"
        )
    return DecisionRule(region, lam), implied


class InfeasibleLambda(Exception):
    pass


def _default_grid(problem, region, alpha, points=21):
    """Equally spaced theta grid covering classical power 0.05 -> 0.99."""
    from scipy.optimize import brentq

    def power_at(th):
        return float(exact_power(problem, region, [th], alpha).power[0])

    theta0 = getattr(problem, "theta0", 0.0)
    hi = theta0 + 1.0
    while power_at(hi) < 0.99 and hi < theta0 + 1e3:
        hi = theta0 + (hi - theta0) * 2.0
    lo_target, hi_target = max(alpha, 0.05), 0.99
    th_hi = brentq(lambda th: power_at(th) - hi_target, theta0, hi)
    try:
        th_lo = brentq(lambda th: power_at(th) - lo_target, theta0, th_hi)
    except ValueError:
        th_lo = theta0
    return np.linspace(th_lo, th_hi, points)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_calibrate(args) -> int:
    cfg = parse_config(args.config)
    out = _out_dir(args, cfg)
    problem = build_problem(cfg.problem, cfg.where)
    pair = build_bf(problem, cfg.prior, cfg.where)
    rule, implied_alpha = _build_rule(problem, pair, cfg)
    region, lam = rule.region, rule.lam
    base_dir = os.path.dirname(os.path.abspath(cfg.path))

    header = ["alpha", "lambda", "gamma_lower", "gamma_upper"]
    row = [
        implied_alpha,
        lam,
        region.lower if region.lower is not None else "",
        region.upper,
    ]
    summary = load_observed_summary(problem, cfg.problem, base_dir)
    if summary is not None:
        stat = float(np.asarray(problem.decision_stat(summary)))
        b_obs = float(np.asarray(pair.of_summary(summary)))
        header += ["stat", "bayes_factor", "reject"]
        row += [stat, b_obs, int(b_obs > lam)]
    write_csv(os.path.join(out, "calibration.csv"), header, [row])
    log.info("calibration written to %s", os.path.join(out, "calibration.csv"))
    print(
        f"gamma = {format_float(region.upper)}  lambda = {format_float(lam)}  "
        f"alpha = {format_float(implied_alpha)}"
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = parse_config(args.config)
    out = _out_dir(args, cfg)
    seed = _seed(args, cfg, required=True)
    problem = build_problem(cfg.problem, cfg.where)
    pair = build_bf(problem, cfg.prior, cfg.where)
    rule, alpha = _build_rule(problem, pair, cfg)
    n_sims = _count(cfg, "n_sims", 100_000)
    thetas = _theta_grid(cfg)
    theta_list = (None,) if thetas is None else tuple(thetas)
    report = verify_equivalence(
        problem, pair.of_summary, rule, RngStream(seed), n_sims, thetas=theta_list
    )
    write_csv(
        os.path.join(out, "verify.csv"),
        ["problem", "n_total", "n_reject", "n_mismatch", "agreement"],
        [[report.problem, report.n_total, report.n_reject, report.n_mismatch, report.agreement]],
    )
    ok = report.n_mismatch == 0
    print(
        f"agreement {report.n_total - report.n_mismatch}/{report.n_total}"
        + ("" if ok else f"  ({report.n_mismatch} mismatches)")
    )
    return EXIT_OK if ok else EXIT_ERROR


def cmd_power(args) -> int:
    cfg = parse_config(args.config)
    out = _out_dir(args, cfg)
    seed = _seed(args, cfg, required=True)
    problem = build_problem(cfg.problem, cfg.where)
    pair = build_bf(problem, cfg.prior, cfg.where)
    rule, alpha = _build_rule(problem, pair, cfg)
    n_sims = _count(cfg, "n_sims", 100_000)
    thetas = _theta_grid(cfg)
    if thetas is None:
        thetas = _default_grid(problem, rule.region, alpha)
    classical, bayes, identical = mc_power(
        problem, rule, RngStream(seed), thetas, n_sims, bf_of_summary=pair.of_summary
    )
    rows = []
    try:
        exact = exact_power(problem, rule.region, thetas, alpha)
        for th, pw in zip(exact.thetas, exact.power):
            rows.append([th, pw, 0.0, "exact", alpha, 0])
    except prob.UnsupportedExactLaw:
        exact = None
    for th, pw, se in zip(classical.thetas, classical.power, classical.se):
        rows.append([th, pw, se, "mc_classical", alpha, n_sims])
    for th, pw, se in zip(bayes.thetas, bayes.power, bayes.se):
        rows.append([th, pw, se, "mc_bayes", alpha, n_sims])
    write_csv(
        os.path.join(out, "power.csv"),
        ["theta", "power", "se", "method", "alpha", "N"],
        rows,
    )
    series = {"classical (MC)": classical.power, "Bayes (MC)": bayes.power}
    if exact is not None:
        series["exact"] = exact.power
    write_svg_lines(os.path.join(out, "power.svg"), thetas, series, title="power")
    print(
        "decision vectors identical under common random numbers"
        if identical
        else "WARNING: Bayes and classical decisions diverged"
    )
    return EXIT_OK if identical else EXIT_ERROR


def cmd_dominance(args) -> int:
    cfg = parse_config(args.config)
    out = _out_dir(args, cfg)
    seed = _seed(args, cfg, required=True)
    problem = build_problem(cfg.problem, cfg.where)
    if not isinstance(problem, prob.SubjectiveVarianceEquality):
        raise ConfigError("dominance requires problem.kind=subjective_variance")
    alpha = _alpha(cfg, 0.05)
    n_sims = _count(cfg, "n_sims", 1_000_000)
    thetas = _theta_grid(cfg, default=[1.5, 2.0, 3.0, 5.0])
    rep = dominance_study(problem, alpha, thetas, RngStream(seed), n_sims)
    rows = [
        [th, ps, pc, pe, se]
        for th, ps, pc, pe, se in zip(
            rep.thetas,
            rep.power_subjective,
            rep.power_classical,
            rep.power_classical_exact,
            rep.se,
        )
    ]
    write_csv(
        os.path.join(out, "dominance.csv"),
        ["theta", "power_subjective", "power_classical", "power_classical_exact", "se"],
        rows,
    )
    lines = [
        f"verdict: {rep.verdict}",
        f"max_violation: {format_float(rep.max_violation)}",
        f"size_classical: {format_float(rep.size_classical)}",
        f"size_subjective_worst_case: {format_float(rep.size_subjective_limit)}",
        f"size_subjective_at_unit_scale: {format_float(rep.size_subjective_slice)}",
        f"gamma: {format_float(rep.gamma_t)}",
        f"lambda: {format_float(rep.lam)}",
        f"lambda_tilde: {format_float(rep.lam_tilde)}",
        f"bridge_residual: {format_float(rep.bridge_residual)}",
        f"threshold_conditions_hold: {rep.conditions_ok}",
        f"N: {rep.n_sims}",
    ]
    write_text(os.path.join(out, "dominance.txt"), "\n".join(lines) + "\n")
    write_svg_lines(
        os.path.join(out, "dominance.svg"),
        rep.thetas,
        {"subjective": rep.power_subjective, "classical": rep.power_classical},
        title="power under proper vs improper nuisance priors",
    )
    ok = (
        rep.verdict == "PASS"
        and rep.bridge_residual <= 1e-9
        and rep.conditions_ok
        and abs(rep.size_subjective_limit - alpha) < 1e-3 + 3e-4
    )
    print(f"dominance verdict: {rep.verdict} (max violation {rep.max_violation:.3g})")
    return EXIT_OK if ok else EXIT_ERROR


def cmd_johnson(args) -> int:
    cfg = parse_config(args.config)
    out = _out_dir(args, cfg)
    seed = _seed(args, cfg, required=True)
    if "lambda" not in cfg.run:
        raise ConfigError("run.lambda is required for the johnson subcommand")
    lam = float(_lambda(cfg))
    n = _check_number(_require(cfg.problem, "n", "problem"), cfg.where("problem.n"), integer=True)
    alpha = _alpha(cfg, 0.05)
    n_sims = _count(cfg, "n_sims", 100_000)
    thetas = _theta_grid(cfg)
    if thetas is None:
        sd = math.sqrt(n)
        gamma = sd * special.ndtri(1 - alpha)
        hi = (gamma - sd * special.ndtri(0.01)) / n
        thetas = np.linspace(0.0, hi, 21)
    comp = johnson_comparison(
        lam, n, thetas, alpha_matched=alpha, rng=RngStream(seed), n_sims=n_sims
    )
    rows = [
        [th, pb, pc, pe, se]
        for th, pb, pc, pe, se in zip(
            comp.thetas, comp.power_point_mass, comp.power_classical, comp.power_exact, comp.se
        )
    ]
    write_csv(
        os.path.join(out, "johnson.csv"),
        ["theta", "power_point_mass", "power_classical", "power_exact", "se"],
        rows,
    )
    write_text(
        os.path.join(out, "johnson.txt"),
        "\n".join(
            [
                f"theta_star: {format_float(comp.theta_star)}",
                f"implied_alpha_without_recalibration: {format_float(comp.implied_alpha)}",
                f"alpha_matched: {format_float(comp.alpha_matched)}",
                f"gamma_matched: {format_float(comp.gamma_matched)}",
                f"max_gap: {format_float(comp.max_gap)}",
                f"verdict: {comp.verdict}",
            ]
        )
        + "\n",
    )
    print(
        f"theta* = {comp.theta_star:.6f}, implied alpha = {comp.implied_alpha:.6f}, "
        f"verdict {comp.verdict}"
    )
    return EXIT_OK if comp.verdict == "PASS" else EXIT_ERROR


def cmd_props(args) -> int:
    cfg = parse_config(args.config) if args.config else RunConfig()
    out = _out_dir(args, cfg if args.config else None)
    seed = _seed(args, cfg, required=False)
    seed = 0 if seed is None else seed
    n_trials = _count(cfg, "n_trials", 200)
    results, transcript = run_catalogue(RngStream(seed), n_trials=n_trials)
    write_text(os.path.join(out, "props.txt"), transcript)
    write_csv(
        os.path.join(out, "props.csv"),
        ["name", "status", "trials", "claim"],
        [
            [r.name, "PASS" if r.passed else "FAIL", r.n_trials, r.claim]
            for r in results
        ],
    )
    n_fail = sum(1 for r in results if not r.passed)
    print(transcript, end="")
    print(f"{len(results) - n_fail}/{len(results)} properties passed")
    return EXIT_OK if n_fail == 0 else EXIT_ERROR


def cmd_reproduce_sec6(args) -> int:
    out = _out_dir(args, None)
    # one-sample normal mean, n*xbar^2 = 10, standard-normal-slab prior with
    # precision tau; exact marginal-ratio value vs the large-n/(n+tau)
    # simplification that keeps only the sqrt prefactor
    reference = {10_000.0: 1.5, 100.0: 14.8}
    rows = []
    for ratio in (100.0, 10_000.0):
        b_exact = (1.0 + ratio) ** -0.5 * math.exp(5.0 * ratio / (1.0 + ratio))
        b_approx = (1.0 + ratio) ** -0.5 * math.exp(5.0)
        rows.append([ratio, b_exact, b_approx, reference[ratio]])
    write_csv(
        os.path.join(out, "reproduce_sec6.csv"),
        ["n_over_tau", "B_exact", "B_approx", "reference_value"],
        rows,
    )

    # threshold scaling: with the classical size held fixed the matched
    # Bayes threshold lambda = B(gamma_n) decays like c / sqrt(n); the
    # scaling is asymptotic in n >> tau, so a small prior precision keeps
    # the fitted slope clean already at n = 10
    tau = 0.1
    z = special.ndtri(0.95)
    ns = np.array([10.0, 100.0, 1000.0, 10_000.0])
    lams = np.array(
        [float(bf.bf_one_sided_normal_conjugate(math.sqrt(n) * z, int(n), tau)) for n in ns]
    )
    slope = float(np.polyfit(np.log(ns), np.log(lams), 1)[0])
    write_csv(
        os.path.join(out, "lambda_scaling.csv"),
        ["n", "lambda", "fitted_slope"],
        [[n, lam, slope] for n, lam in zip(ns, lams)],
    )
    lines = ["n_over_tau  B_exact      B_approx     reference"]
    for ratio, b_exact, b_approx, ref in rows:
        lines.append(
            f"{ratio:>10g}  {b_exact:<11.6g}  {b_approx:<11.6g}  {ref:g}"
        )
    lines.append("")
    lines.append(
        f"threshold scaling: log-log slope of lambda(n) at fixed size = {slope:.4f} "
        "(expected -0.5)"
    )
    text = "\n".join(lines) + "\n"
    write_text(os.path.join(out, "reproduce_sec6.txt"), text)
    print(text, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bfequiv",
        description="Calibrate Bayes-factor thresholds against classical tests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "calibrate": (cmd_calibrate, True),
        "power": (cmd_power, True),
        "verify": (cmd_verify, True),
        "dominance": (cmd_dominance, True),
        "johnson": (cmd_johnson, True),
        "props": (cmd_props, False),
        "reproduce-sec6": (cmd_reproduce_sec6, False),
    }
    for name, (handler, config_required) in specs.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=config_required)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.set_defaults(handler=handler)
    return parser


def _setup_logging() -> None:
    level = os.environ.get("BFEQUIV_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=levels.get(level, logging.ERROR), format="%(message)s")


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except ClassViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CLASS_VIOLATION
    except InfeasibleLambda as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE_LAMBDA


if __name__ == "__main__":
    sys.exit(main())
