"""Command-line front end.

Problems and priors are declared in a flat key=value config file with
dotted section prefixes (problem.kind=..., prior.kind=..., run.alpha=...),
one pair per line, '#' comments.  Subcommands: calibrate, power, verify,
dominance, johnson, props, reproduce-sec6.  All file outputs are CSV
(12 significant digits) or SVG, written atomically; identical config and
seed give byte-identical CSV outputs.

Every value is checked before any work starts, by one reader,
`RunConfig.get`: numbers are finite, counts and seeds integers (100000,
not 1e5), file names text; run.seed >= 0, run.n_sims and run.n_trials
>= 1, 0 < run.alpha < 1 with 1 - run.alpha (1 - run.alpha/2 when
two-tailed) below 1, prior precisions, rates and c > 0, a one-sided
point mass above the null, and for johnson run.lambda > 1 and
problem.n >= 1; data cells and the observed statistic are finite.  A
key that nothing reads is an error: after its reads, and before any
calibration or draw, each subcommand calls `RunConfig.check_read`, which
names the first key that no `get` looked up.  calibrate, verify and
power read the same keys (`_setup`), so one config serves all three.

Exit codes: calibrate returns 0 on success, 2 when the requested Bayes
threshold cannot be inverted to a critical region, 3 when the prior
violates the calibrated two-sided class (1, naming run.alpha, when a
two-tailed run.alpha is too small for its two critical values to be
mirror images; see `_calibrate`); malformed configs exit 1 with a
message that starts with the path:line of the offending key (the path
alone when a required key is absent); other subcommands exit nonzero iff
their verdict fails; bad or missing data files, usage errors and an
output directory that cannot be made exit 1; a numerical failure exits 4.
A run that fails before it writes leaves behind no directory it made.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import operator
import os
import sys
from dataclasses import dataclass, field as dc_field, fields
from functools import cache
from typing import Callable

import numpy as np
from scipy import special

from . import bayes_factors as bf
from . import problems as prob
from .calibrate import (
    TWO_SIDED_MATCH_RTOL,
    ClassViolationError,
    DecisionRule,
    InfeasibleLambda,
    calibrate,
    gamma_from_lambda,
    verify_equivalence,
)
from .integrate import QuadratureError, brentq
from .power import dominance_study, exact_power, johnson_comparison, mc_power
from .priors import DensityPrior, PointMass
from .properties import run_catalogue
from .reports import format_float, write_csv, write_svg_lines, write_text
from .rng import RngStream, keep_heap

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE_LAMBDA = 2
EXIT_CLASS_VIOLATION = 3
EXIT_NUMERICAL = 4


class ConfigError(Exception):
    """Malformed configuration; message carries the offending line number."""


_REQUIRED = object()  # the default of a key that must be set


@dataclass
class RunConfig:
    """A parsed config: ``values`` and ``lines`` map each dotted key to its
    value and line number; ``read`` holds every key that `get` looked up."""

    values: dict = dc_field(default_factory=dict)
    path: str = ""
    lines: dict = dc_field(default_factory=dict)
    read: set = dc_field(default_factory=set, init=False)

    def where(self, key: str) -> str:
        """``path:line: key`` of a dotted key (``path: key`` when the key is
        absent), to start an error message."""
        line = f":{self.lines[key]}" if key in self.lines else ""
        return f"{self.path}{line}: {key}" if self.path else key

    def get(self, key: str, kind: type = float, default=_REQUIRED, bounds: str = ""):
        """The value of the dotted ``key`` checked by `_check`, or
        ``default`` when the key is absent; records the key as read."""
        self.read.add(key)
        if key not in self.values:
            if default is _REQUIRED:
                raise ConfigError(f"{self.where(key)} is required")
            return default
        return _check(self.values[key], self.where(key), kind, bounds)

    def check_read(self, command: str) -> None:
        """ConfigError at the first key that no `get` looked up."""
        for key in sorted(self.lines, key=self.lines.get):
            if key not in self.read:
                raise ConfigError(f"{self.where(key)} is not read by {command}")


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
            if key in cfg.lines:
                raise ConfigError(f"{path}:{lineno}: {key} already set on line {cfg.lines[key]}")
            cfg.values[key] = _parse_value(raw)
            cfg.lines[key] = lineno
    return cfg


def _finite(value) -> bool:
    return isinstance(value, int) or (isinstance(value, float) and math.isfinite(value))


# kind -> (what a value of that kind is, its test)
_KINDS = {
    float: ("a finite number", _finite),
    int: ("an integer", lambda value: isinstance(value, int)),
    str: ("text", lambda value: isinstance(value, str)),
    list: ("finite numbers", lambda values: all(map(_finite, values))),
}
_COMPARE = {">": operator.gt, ">=": operator.ge, "<": operator.lt}


def _check(value, label: str, kind: type, bounds: str):
    """``value`` if it is of ``kind``: float (a finite number), int, str, or
    list (one finite number or a comma-separated list of them, returned as
    a list), and meets (each entry of a list) each comparison of ``bounds``
    ("> 0", ">= 1", "> 0 and < 1"); else a ConfigError that starts with
    ``label``."""
    checked = [value] if kind is list and not isinstance(value, list) else value
    text, valid = _KINDS[kind]
    if not valid(checked):
        raise ConfigError(f"{label} must be {text}, got {value!r}")
    for bound in bounds.split(" and ") if bounds else ():
        op, limit = bound.split()
        for entry in checked if kind is list else [checked]:
            if not _COMPARE[op](entry, float(limit)):
                raise ConfigError(f"{label} must be {bounds}, got {entry!r}")
    return checked


# ---------------------------------------------------------------------------
# Problem kinds: one table entry per problem.kind


@dataclass
class BfPair:
    """Bayes factor as a function of the decision statistic and of the
    sufficient summary (the two must agree on every dataset)."""

    of_stat: Callable
    of_summary: Callable


def _stat_pair(problem: prob.TestProblem, g: Callable) -> BfPair:
    """Pair for a Bayes factor that reads the summary only through the
    problem's decision statistic."""
    return BfPair(g, lambda s: g(problem.decision_stat(s)))


def _point_mass(problem, get):
    # a one-sided B is increasing in the statistic only for a point mass
    # above the null; the two-sided class check judges the other case
    bounds = f"> {problem.theta0!r}" if problem.region_shape == "upper" else ""
    prior, n, theta0 = PointMass(get("prior.theta1", bounds=bounds)), problem.n, problem.theta0
    return _stat_pair(problem, lambda t: bf.bf_one_sided(prior, t, n, theta0))


def _shifted_normal_mean(closed_form: str, hyper: str):
    """Factory for a normal-mean prior whose B is
    ``bayes_factors.<closed_form>(t - n theta0, n, prior.<hyper>)``.  The
    form is looked up by name when B is built, so a wrapper installed on
    the module after import is the one called."""

    def factory(problem, get):
        form, value = getattr(bf, closed_form), get(f"prior.{hyper}", bounds="> 0")
        n, shift = problem.n, problem.n * problem.theta0
        return _stat_pair(problem, lambda t: form(np.asarray(t) - shift, n, value))

    return factory


def _t_test_gaussian(problem, get):
    # The N(0, sigma^2) prior on the mean is Zellner's g-prior with g = n,
    # so B is the subset-selection form with p2 = 1 and c = 1/n at
    # T = n xbar^2 / sum(x^2), which is F/(1+F) at F = t^2 / (n-1).
    n = problem.n
    engine = bf.SubsetSelectionBf(n, 1, 1.0 / n)
    return BfPair(
        lambda t: engine.from_f(np.square(t) / (n - 1)),
        lambda s: engine(n * s.xbar**2 / s.sum_sq),
    )


def _regression_unknown_var_gaussian(problem, get):
    # B = (tau/(1+tau))^{p/2} (1 - T/(1+tau))^{-n/2} at T = y'Hy / y'y:
    # the subset-selection form with c = tau.
    tau = get("prior.precision", default=1.0, bounds="> 0")
    engine = bf.SubsetSelectionBf(problem.n, problem.p, tau)
    df_ratio = problem.p / (problem.n - problem.p)
    return BfPair(lambda f: engine.from_f(np.asarray(f) * df_ratio), lambda s: engine(s.yHy / s.yy))


def _regression_known_var_gaussian(problem, get):
    tau, p = get("prior.precision", default=1.0, bounds="> 0"), problem.p
    return _stat_pair(problem, lambda t_abs: bf.bf_regression_known_var_gaussian(t_abs, p, tau))


def _two_sample_known_var(problem, get):
    c = get("prior.c", default=1.0, bounds="> 0")
    engine = bf.TwoSampleKnownVarBf(problem.n1, problem.n2, problem.tau1, problem.tau2, c)
    return BfPair(engine.from_t, lambda s: engine(s.d))


def _two_sample_t(problem, get):
    engine = bf.TwoSampleTBf(problem.n1, problem.n2, get("prior.c", default=1.0, bounds="> 0"))
    return BfPair(engine.from_t, lambda s: engine(s.d, s.pooled))


def _with_remedy(remedy: str, call: Callable, *args):
    """call(*args), with ``remedy`` added to a NumericalIntegrityError it raises."""
    try:
        return call(*args)
    except bf.NumericalIntegrityError as exc:
        raise bf.NumericalIntegrityError(f"{exc}; {remedy}") from None


def _variance_ratio(problem, prior, remedy: str) -> BfPair:
    """The pair of VarianceRatioBf; its errors, the node rule's cap and a B
    past the float range, come with a large n2 and a prior far from
    theta = 1, so they name the config keys that set those."""
    engine = _with_remedy(remedy, bf.VarianceRatioBf, prior, problem.n1, problem.n2)
    return _stat_pair(problem, lambda f: _with_remedy(remedy, engine, f))


def _variance_ratio_point_mass(problem, get):
    prior = PointMass(get("prior.theta1", bounds="> 1"))  # B is constant at theta1 = 1
    return _variance_ratio(problem, prior, "lower problem.n2 or prior.theta1")


def _variance_ratio_shifted_exponential(problem, get):
    rate = get("prior.rate", default=1.0, bounds="> 0")
    # rate * exp(-rate (theta - 1)) integrates to 1 over (1, inf)
    prior = DensityPrior(lambda th: math.log(rate) - rate * (th - 1.0), (1.0, math.inf), log_z=0.0)
    return _variance_ratio(problem, prior, "lower problem.n2 or raise prior.rate")


def _subset_selection(problem, get):
    c = get("prior.c", default=1.0, bounds="> 0")
    return _stat_pair(problem, bf.SubsetSelectionBf(problem.n, problem.p2, c).from_f)


def _subjective(problem, get):
    return BfPair(
        lambda f: bf.bf_subjective_variance(0.0, prob.subjective_t(f)),
        lambda s: bf.bf_subjective_variance(s.q, s.t_sub),
    )


class DataError(Exception):
    pass


def load_columns(path: str, base_dir: str) -> dict:
    """Columns of a CSV data file (header row, one column per variable),
    every cell a finite number."""
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
            values = [float(r[j]) for r in rows]
        except (ValueError, IndexError) as exc:
            raise DataError(f"bad value in column {name!r} of {full}: {exc}") from exc
        if not all(map(math.isfinite, values)):
            raise DataError(f"column {name!r} of {full} holds a value that is not finite")
        cols[name.strip()] = np.array(values)
    return cols


def _column(cols: dict, name: str, path: str) -> np.ndarray:
    if name not in cols:
        raise DataError(f"column {name!r} missing from {path}")
    return cols[name]


def _matrix(cols: dict, stem: str, count: int, path: str, rows: int) -> np.ndarray:
    """Columns <stem>1 .. <stem><count>; ``rows`` x 0 when count is 0."""
    if not count:
        return np.empty((rows, 0))
    return np.column_stack([_column(cols, f"{stem}{i}", path) for i in range(1, count + 1)])


@dataclass(frozen=True)
class ProblemKind:
    """What the CLI knows about one problem.kind.

    The problem is ``problem(**args)`` with ``args`` read from the problem
    section, one key per dataclass field of ``problem``: a field named in
    ``required`` must be set, any other defaults to the field's own
    default.  ``data`` maps each data-file key of the section to the
    columns its file gives the problem's ``summarize``, file after file: a
    stem ``"y"`` is column y, a pair ``("x", "p")`` the matrix of columns
    x1 .. x<problem.p>.  ``priors`` maps each allowed prior.kind to its
    factory ``(problem, get) -> BfPair``, where ``get`` is `RunConfig.get`.
    """

    problem: type
    required: tuple
    data: dict
    priors: dict


_TWO_SAMPLES = {"data1": ("x",), "data2": ("x",)}


# Each entry: problem class, required keys and data files on the first
# line; the allowed prior kinds and their factories below it.
KINDS = {
    "one_sided_normal": ProblemKind(
        prob.OneSidedNormal, (), {"data": ("x",)},
        {
            "point_mass": _point_mass,
            "half_normal": _shifted_normal_mean("bf_one_sided_normal_halfnormal", "precision"),
            "exponential": _shifted_normal_mean("bf_one_sided_normal_exponential", "rate"),
        },
    ),
    "two_sided_normal": ProblemKind(
        prob.TwoSidedNormal, (), {"data": ("x",)},
        {
            "normal": _shifted_normal_mean("bf_two_sided_normal_conjugate", "precision"),
            "point_mass": _point_mass,
        },
    ),
    "t_test": ProblemKind(
        prob.GaussianMeanUnknownVar, ("n",), {"data": ("x",)},
        {"gaussian_scale": _t_test_gaussian},
    ),
    "regression_known_var": ProblemKind(
        prob.RegressionKnownVar, ("p", "n"), {"data": ("y", ("x", "p"))},
        {"gaussian_spherical": _regression_known_var_gaussian},
    ),
    "regression_unknown_var": ProblemKind(
        prob.RegressionUnknownVar, ("p", "n"), {"data": ("y", ("x", "p"))},
        {"gaussian_spherical": _regression_unknown_var_gaussian},
    ),
    "two_sample_known_var": ProblemKind(
        prob.TwoSampleMeansKnownVar, ("n1", "n2"), _TWO_SAMPLES,
        {"conjugate": _two_sample_known_var},
    ),
    "two_sample_t": ProblemKind(
        prob.TwoSampleMeansUnknownEqualVar, ("n1", "n2"), _TWO_SAMPLES,
        {"conjugate": _two_sample_t},
    ),
    "variance_ratio": ProblemKind(
        prob.VarianceRatio, ("n1", "n2"), _TWO_SAMPLES,
        {
            "point_mass": _variance_ratio_point_mass,
            "shifted_exponential": _variance_ratio_shifted_exponential,
        },
    ),
    "subset_selection": ProblemKind(
        prob.SubsetSelection, ("n", "p1", "p2"), {"data": ("y", ("x", "p1"), ("z", "p2"))},
        {"conjugate": _subset_selection},
    ),
    "subjective_variance": ProblemKind(
        prob.SubjectiveVarianceEquality, ("n1", "n2"), _TWO_SAMPLES,
        {"gamma": _subjective},
    ),
}
_KIND_OF = {entry.problem: name for name, entry in KINDS.items()}


def build_problem(cfg: RunConfig) -> prob.TestProblem:
    """The problem that the config's problem.* keys declare; every
    subcommand that reads one needs n1 = n2 for subjective_variance."""
    kind = cfg.get("problem.kind", str)
    if kind not in KINDS:
        raise ConfigError(f"{cfg.where('problem.kind')} {kind!r} is not a known problem kind")
    entry = KINDS[kind]
    args = {
        f.name: cfg.get(
            f"problem.{f.name}",
            int if f.type in (int, "int") else float,
            _REQUIRED if f.name in entry.required else f.default,
        )
        for f in fields(entry.problem)
    }
    try:
        problem = entry.problem(**args)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{cfg.where('problem.kind')} {kind!r}: invalid parameters: {exc}") from exc
    # {T > gamma} is the equal-tailed F test only for equal samples
    if isinstance(problem, prob.SubjectiveVarianceEquality) and problem.n1 != problem.n2:
        raise ConfigError(f"{cfg.where('problem.n2')} must equal problem.n1 for subjective_variance")
    return problem


def build_bf(problem: prob.TestProblem, cfg: RunConfig) -> BfPair:
    """The Bayes factor that the config's prior.* keys declare for
    ``problem``."""
    kind = cfg.get("prior.kind", str)
    name = _KIND_OF[type(problem)]
    factory = KINDS[name].priors.get(kind)
    if factory is None:
        raise ConfigError(f"{cfg.where('prior.kind')} {kind!r} is unsupported for {name}")
    try:
        return factory(problem, cfg.get)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{cfg.where('prior.kind')} {kind!r}: invalid parameters: {exc}") from exc


# the problem field that declares the row count of each data file
_ROWS = {"data": "n", "data1": "n1", "data2": "n2"}


def load_observed_summary(problem: prob.TestProblem, cfg: RunConfig):
    """The sufficient summary of the data files that the config's problem.*
    keys name, or None when they name none (naming one requires them all).
    Each file must hold as many rows as its declared size (`_ROWS`), and the
    decision statistic of the summary must be finite.  A file that fails,
    or data that ``summarize`` rejects, raises a DataError that starts with
    the path:line of the data key."""
    files = KINDS[_KIND_OF[type(problem)]].data
    if not any(f"problem.{key}" in cfg.values for key in files):
        return None
    base_dir = os.path.dirname(os.path.abspath(cfg.path))
    columns = []
    try:
        for key, stems in files.items():
            where, path = cfg.where(f"problem.{key}"), cfg.get(f"problem.{key}", str)
            cols, size = load_columns(path, base_dir), getattr(problem, _ROWS[key])
            for stem in stems:
                col = (_column(cols, stem, path) if isinstance(stem, str)
                       else _matrix(cols, stem[0], getattr(problem, stem[1]), path, size))
                if len(col) != size:
                    raise DataError(f"{path} has {len(col)} rows, not problem.{_ROWS[key]} = {size}")
                columns.append(col)
        where = cfg.where(f"problem.{next(iter(files))}")
        # finite cells can still overflow the sums; the check below names that
        with np.errstate(over="ignore", invalid="ignore"):
            summary = problem.summarize(*columns)
            stat = problem.decision_stat(summary)
        if not math.isfinite(stat):
            raise DataError(f"the decision statistic of the data is {float(stat)}, not a finite number")
        return summary
    except (DataError, ValueError, np.linalg.LinAlgError) as exc:
        raise DataError(f"{where}: {exc}") from exc


# ---------------------------------------------------------------------------
# Shared plumbing


def _out_dir(args, cfg: RunConfig) -> str:
    """--out, else run.out (checked even when --out is given), else ".".
    Each subcommand makes it (`_make_dir`) once its config has passed
    check_read, and before any Monte Carlo work."""
    out = cfg.get("run.out", str, "")
    return args.out or out or "."


def _make_dir(out: str, args, cfg: RunConfig) -> None:
    """Make the output directory ``out``; one that cannot be made is a
    ConfigError that names --out or the path:line of run.out.  The
    directories it makes are kept in ``args.made_dirs``, deepest first, so
    that `main` can take them out again if the run writes nothing."""
    made, path = [], os.path.abspath(out)
    while not os.path.exists(path):
        made.append(path)
        path = os.path.dirname(path)
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        source = "--out" if args.out else cfg.where("run.out")
        raise ConfigError(f"{source}: cannot make directory {out!r}: {exc.strerror}") from exc
    args.made_dirs = made


def _seed(args, cfg: RunConfig, default=_REQUIRED) -> int:
    """--seed, else run.seed (checked even when --seed is given), else
    ``default``: an integer >= 0."""
    seed = cfg.get("run.seed", int, None, ">= 0")
    if args.seed is not None:
        return _check(args.seed, "--seed", int, ">= 0")
    if seed is None and default is _REQUIRED:
        raise ConfigError(f"{cfg.where('run.seed')} (or --seed) is required")
    return default if seed is None else seed


def _theta_grid(cfg: RunConfig, problem, default=None):
    """run.theta_grid, else ``default``: values in the problem's
    `theta_domain`."""
    grid = cfg.get("run.theta_grid", list, default, problem.theta_domain)
    return None if grid is None else np.asarray(grid, dtype=float)


def _alpha(cfg: RunConfig, shape: str, default=None):
    """run.alpha, else ``default``: 0 < alpha < 1, and large enough that
    1 - alpha (1 - alpha/2 for a ``two_tail`` region) is below 1 in floating
    point, so that the critical value is a quantile below 1."""
    alpha = cfg.get("run.alpha", float, default, "> 0 and < 1")
    two_tailed = shape == "two_tail"
    if alpha is not None and 1.0 - (alpha / 2.0 if two_tailed else alpha) == 1.0:
        tail = "alpha/2" if two_tailed else "alpha"
        raise ConfigError(f"{cfg.where('run.alpha')} is too small: 1 - {tail} rounds to 1, got {alpha!r}")
    return alpha


def _mirror_error(alpha: float) -> float:
    """Relative error of the upper tail 1 - fl(1 - alpha/2) of a two-tailed
    region as alpha/2, the lower tail: how far the upper critical value is
    from the mirror image of the lower one in probability."""
    half = alpha / 2.0
    return abs((1.0 - (1.0 - half)) - half) / half


def _calibrate(cfg: RunConfig, problem, alpha: float, of_stat: Callable):
    """`calibrate`, except that a two-tailed region whose rounded
    1 - alpha/2 breaks the mirror of the lower quantile by more than the
    class check's tolerance is blamed on run.alpha, not on the prior.  The
    test runs only once the class check has failed, so every alpha that
    calibrates gives the same rule."""
    try:
        return calibrate(problem, alpha, of_stat)
    except ClassViolationError as exc:
        if problem.region_shape == "two_tail" and _mirror_error(alpha) > TWO_SIDED_MATCH_RTOL:
            raise ConfigError(
                f"{cfg.where('run.alpha')} is too small: 1 - alpha/2 rounds to {1.0 - alpha / 2.0!r}, "
                f"whose upper tail {1.0 - (1.0 - alpha / 2.0)!r} is not alpha/2 = {alpha / 2.0!r}, "
                "so the two critical values are not mirror images"
            ) from exc
        raise


def _setup(args, default_grid: bool = False):
    """Read the keys that calibrate, verify and power share, so one config
    serves all three: run = (seed, n_sims, thetas or None), where calibrate
    needs no seed; the problem and the summary of its data files (None
    without any); B; and run.alpha or run.lambda.  Then check that every
    key was read, and only then calibrate the decision rule.  verify and
    power refuse subjective_variance, whose study is dominance.  With
    default_grid, a run without run.theta_grid gets `_default_grid`.  The
    output directory is made last, so a run that fails to calibrate or to
    build its grid leaves none behind.  Returns (output directory,
    problem, B, rule, size, run, summary)."""
    cfg = parse_config(args.config)
    out = _out_dir(args, cfg)
    seed = _seed(args, cfg, None if args.command == "calibrate" else _REQUIRED)
    n_sims = cfg.get("run.n_sims", int, 100_000, ">= 1")
    problem = build_problem(cfg)
    run = seed, n_sims, _theta_grid(cfg, problem)
    # the proper nuisance prior rejects on a strict subset of {T > gamma},
    # so the two rules cannot agree draw by draw
    if args.command in ("verify", "power") and isinstance(problem, prob.SubjectiveVarianceEquality):
        raise ConfigError(
            f"{cfg.where('problem.kind')} subjective_variance cannot pass {args.command}: its proper "
            "nuisance prior rejects on a strict subset of {T > gamma}; run dominance instead"
        )
    summary = load_observed_summary(problem, cfg)
    pair = build_bf(problem, cfg)
    alpha = _alpha(cfg, problem.region_shape)
    lam = cfg.get("run.lambda", float, None)
    if (alpha is None) == (lam is None):
        raise ConfigError(f"{cfg.where('run.lambda')}: set exactly one of run.alpha or run.lambda")
    if lam is not None and problem.region_shape != "upper":
        raise ConfigError(
            f"{cfg.where('run.lambda')} needs a one-sided test; "
            f"{_KIND_OF[type(problem)]} is two-sided, so set run.alpha instead"
        )
    cfg.check_read(args.command)
    if alpha is not None:
        rule, size = _calibrate(cfg, problem, alpha, pair.of_stat), alpha
    else:
        region, size = gamma_from_lambda(problem, pair.of_stat, lam)
        rule = DecisionRule(region, lam)
    if default_grid and run[2] is None:
        run = seed, run[1], _default_grid(problem, rule.region, size)
    _make_dir(out, args, cfg)
    return out, problem, pair, rule, size, run, summary


def _write_fields(path: str, values: dict) -> None:
    """A ``key: value`` line per entry; numbers go through format_float."""
    write_text(path, "".join(
        f"{key}: {format_float(v) if isinstance(v, (int, float)) and not isinstance(v, bool) else v}\n"
        for key, v in values.items()
    ))


def _default_grid(problem, region, alpha):
    """21 equally spaced thetas from classical power max(alpha, 0.05) to
    max(0.99, (1 + alpha)/2), which stays above alpha when alpha > 0.98, or
    to theta0 + 1024 where that power is out of reach."""
    def power_at(th):
        return float(exact_power(problem, region, [th])[0])

    theta0 = problem.theta0
    lo_target, hi_target = max(alpha, 0.05), max(0.99, (1.0 + alpha) / 2.0)
    hi = theta0 + 1.0
    while (power_hi := power_at(hi)) < hi_target and hi < theta0 + 1e3:
        hi = theta0 + (hi - theta0) * 2.0
    # with few degrees of freedom the power can stay below 0.99 out to the
    # cap (0.76 at theta0 + 1024 for variance_ratio, n1 = n2 = 2)
    th_hi = hi if power_hi < hi_target else brentq(lambda th: power_at(th) - hi_target, theta0, hi)
    try:
        th_lo = brentq(lambda th: power_at(th) - lo_target, theta0, th_hi)
    except ValueError:
        th_lo = theta0
    return np.linspace(th_lo, th_hi, 21)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_calibrate(args) -> int:
    out, problem, pair, rule, implied_alpha, _, summary = _setup(args)
    region, lam = rule.region, rule.lam

    header = ["alpha", "lambda", "gamma_lower", "gamma_upper"]
    row = [
        implied_alpha,
        lam,
        region.lower if region.lower is not None else "",
        region.upper,
    ]
    if summary is not None:
        stat = float(np.asarray(problem.decision_stat(summary)))
        b_obs = float(np.asarray(pair.of_summary(summary)))
        header += ["stat", "bayes_factor", "reject"]
        row += [stat, b_obs, int(b_obs > lam)]
    write_csv(os.path.join(out, "calibration.csv"), header, [row])
    print(
        f"gamma = {format_float(region.upper)}  lambda = {format_float(lam)}  "
        f"alpha = {format_float(implied_alpha)}"
    )
    return EXIT_OK


def _print_mismatches(examples) -> None:
    """A line per disagreeing draw (at most MAX_EXAMPLES), theta by theta."""
    for e in examples:
        print(f"  mismatch at theta = {format_float(e['theta'])}: statistic {format_float(e['stat'])}")


def cmd_verify(args) -> int:
    out, problem, pair, rule, _, (seed, n_sims, thetas), _ = _setup(args)
    theta_list = (problem.theta0,) if thetas is None else tuple(thetas)
    report = verify_equivalence(problem, pair.of_summary, rule, RngStream(seed), n_sims, theta_list)
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
    _print_mismatches(report.examples)
    return EXIT_OK if ok else EXIT_ERROR


def cmd_power(args) -> int:
    out, problem, pair, rule, alpha, (seed, n_sims, thetas), _ = _setup(args, default_grid=True)
    classical, bayes, n_disagree, examples = mc_power(
        problem, rule, RngStream(seed), thetas, n_sims, bf_of_summary=pair.of_summary
    )
    exact = exact_power(problem, rule.region, thetas)
    rows = [[th, pw, 0.0, "exact", alpha, 0] for th, pw in zip(classical.thetas, exact)]
    for th, pw, se in zip(classical.thetas, classical.power, classical.se):
        rows.append([th, pw, se, "mc_classical", alpha, n_sims])
    for th, pw, se in zip(bayes.thetas, bayes.power, bayes.se):
        rows.append([th, pw, se, "mc_bayes", alpha, n_sims])
    write_csv(
        os.path.join(out, "power.csv"),
        ["theta", "power", "se", "method", "alpha", "N"],
        rows,
    )
    series = {"classical (MC)": classical.power, "Bayes (MC)": bayes.power, "exact": exact}
    write_svg_lines(os.path.join(out, "power.svg"), thetas, series, title="power")
    ok = n_disagree == 0
    print(
        "decision vectors identical under common random numbers"
        if ok
        else "WARNING: Bayes and classical decisions diverged"
    )
    _print_mismatches(examples)
    return EXIT_OK if ok else EXIT_ERROR


def cmd_dominance(args) -> int:
    cfg = parse_config(args.config)
    out = _out_dir(args, cfg)
    seed = _seed(args, cfg)
    problem = build_problem(cfg)
    if not isinstance(problem, prob.SubjectiveVarianceEquality):
        raise ConfigError(f"{cfg.where('problem.kind')} must be subjective_variance for dominance")
    # the study builds its own priors, which prior.kind = gamma names
    if cfg.get("prior.kind", str, "gamma") != "gamma":
        raise ConfigError(f"{cfg.where('prior.kind')} must be gamma for dominance")
    alpha = _alpha(cfg, problem.region_shape, 0.05)
    n_sims = cfg.get("run.n_sims", int, 1_000_000, ">= 1")
    thetas = _theta_grid(cfg, problem, default=[1.5, 2.0, 3.0, 5.0])
    cfg.check_read("dominance")
    _make_dir(out, args, cfg)
    rep = dominance_study(problem, alpha, thetas, RngStream(seed), n_sims)
    write_csv(
        os.path.join(out, "dominance.csv"),
        ["theta", "power_subjective", "power_classical", "power_classical_exact", "se"],
        zip(rep.thetas, rep.power_subjective, rep.power_classical, rep.power_classical_exact, rep.se),
    )
    _write_fields(os.path.join(out, "dominance.txt"), {
        "verdict": rep.verdict,
        "max_violation": rep.max_violation,
        "size_classical": rep.size_classical,
        "size_subjective_worst_case": rep.size_subjective_limit,
        "size_subjective_at_unit_scale": rep.size_subjective_slice,
        "gamma": rep.gamma_t,
        "lambda": rep.lam,
        "lambda_tilde": rep.lam_tilde,
        "bridge_residual": rep.bridge_residual,
        "threshold_conditions_hold": rep.conditions_ok,
        "N": rep.n_sims,
        "proper_only_rejections": rep.n_proper_only,
    })
    write_svg_lines(
        os.path.join(out, "dominance.svg"),
        rep.thetas,
        {"subjective": rep.power_subjective, "classical": rep.power_classical},
        title="power under proper vs improper nuisance priors",
    )
    print(f"dominance verdict: {rep.verdict} (max violation {rep.max_violation:.3g})")
    return EXIT_OK if rep.verdict == "PASS" else EXIT_ERROR


def cmd_johnson(args) -> int:
    cfg = parse_config(args.config)
    out = _out_dir(args, cfg)
    seed = _seed(args, cfg)
    # at lambda = 1 the threshold-minimizing point mass sits on the null
    lam = float(cfg.get("run.lambda", bounds="> 1"))
    n = cfg.get("problem.n", int, bounds=">= 1")
    alpha = _alpha(cfg, prob.OneSidedNormal.region_shape, 0.05)
    n_sims = cfg.get("run.n_sims", int, 100_000, ">= 1")
    thetas = _theta_grid(cfg, prob.OneSidedNormal)
    if cfg.get("problem.kind", str) != "one_sided_normal":
        raise ConfigError(f"{cfg.where('problem.kind')} must be one_sided_normal for johnson")
    cfg.check_read("johnson")  # it builds its own point mass, so no prior.* key
    _make_dir(out, args, cfg)
    comp = johnson_comparison(
        lam, n, thetas, alpha_matched=alpha, rng=RngStream(seed), n_sims=n_sims
    )
    write_csv(
        os.path.join(out, "johnson.csv"),
        ["theta", "power_point_mass", "power_classical", "power_exact", "se"],
        zip(comp.thetas, comp.power_point_mass, comp.power_classical, comp.power_exact, comp.se),
    )
    _write_fields(os.path.join(out, "johnson.txt"), {
        "theta_star": comp.theta_star,
        "implied_alpha_without_recalibration": comp.implied_alpha,
        "alpha_matched": comp.alpha_matched,
        "gamma_matched": comp.gamma_matched,
        "max_gap": comp.max_gap,
        "verdict": comp.verdict,
        "disagreements": comp.n_disagree,
        "sampler_points_beyond_3se": comp.sampler_points_beyond_3se,
    })
    print(
        f"theta* = {comp.theta_star:.6f}, implied alpha = {comp.implied_alpha:.6f}, "
        f"verdict {comp.verdict}"
    )
    return EXIT_OK if comp.verdict == "PASS" else EXIT_ERROR


def cmd_props(args) -> int:
    cfg = parse_config(args.config) if args.config else RunConfig()
    out = _out_dir(args, cfg)
    seed = _seed(args, cfg, default=0)
    n_trials = cfg.get("run.n_trials", int, 200, ">= 1")
    cfg.check_read("props")
    _make_dir(out, args, cfg)
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


# how far the fitted log-log slope of lambda(n) may sit from -1/2
SEC6_SLOPE_TOL = 0.01


def cmd_reproduce_sec6(args) -> int:
    cfg = RunConfig()
    out = _out_dir(args, cfg)
    _make_dir(out, args, cfg)
    # one-sample normal mean, n*xbar^2 = 10, standard-normal-slab prior with
    # precision tau; exact conjugate value (n = 1, t = sqrt(10), tau =
    # 1/ratio) vs the large-n/(n+tau) simplification that keeps only the
    # sqrt prefactor
    reference = {10_000.0: 1.5, 100.0: 14.8}
    rows = []
    for ratio in (100.0, 10_000.0):
        b_exact = float(bf.bf_one_sided_normal_conjugate(math.sqrt(10.0), 1, 1.0 / ratio))
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
    # the paper prints both B values to one decimal
    passed = abs(slope + 0.5) < SEC6_SLOPE_TOL and all(
        round(b_approx, 1) == ref for _, _, b_approx, ref in rows
    )
    verdict = "PASS" if passed else "FAIL"
    lines.append(f"verdict: {verdict}")
    text = "\n".join(lines) + "\n"
    write_text(os.path.join(out, "reproduce_sec6.txt"), text)
    print(text, end="")
    return EXIT_OK if passed else EXIT_ERROR


# ---------------------------------------------------------------------------
# Entry point


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ConfigError, so that it exits 1 like any
    other malformed input, not 2, the code of an infeasible lambda."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


@cache  # built once per process, on the first call of main
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bfequiv",
        description="Calibrate Bayes-factor thresholds against classical tests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # subcommand -> (handler, whether --config is required; None: not taken)
    specs = {
        "calibrate": (cmd_calibrate, True),
        "power": (cmd_power, True),
        "verify": (cmd_verify, True),
        "dominance": (cmd_dominance, True),
        "johnson": (cmd_johnson, True),
        "props": (cmd_props, False),
        "reproduce-sec6": (cmd_reproduce_sec6, None),
    }
    for name, (handler, config_required) in specs.items():
        p = sub.add_parser(name)
        if config_required is not None:
            p.add_argument("--config", required=config_required)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.set_defaults(handler=handler)
    return parser


# each error that ends a run with one "error:" line, and its exit code
_EXIT_CODES = {
    ConfigError: EXIT_ERROR,
    DataError: EXIT_ERROR,
    InfeasibleLambda: EXIT_INFEASIBLE_LAMBDA,
    ClassViolationError: EXIT_CLASS_VIOLATION,
    bf.NumericalIntegrityError: EXIT_NUMERICAL,
    QuadratureError: EXIT_NUMERICAL,
}


def main(argv=None) -> int:
    keep_heap()
    args = None
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
    finally:
        # a run that wrote nothing takes out the directories it made; rmdir
        # fails on the first that is not empty, and one that existed is not listed
        with contextlib.suppress(OSError):
            for path in getattr(args, "made_dirs", ()):
                os.rmdir(path)


if __name__ == "__main__":
    sys.exit(main())
