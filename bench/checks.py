"""Output checks for every benchmark op, with independent references.

An op passes when the CLI exited 0 and its outputs hold up against
references computed here with NumPy and SciPy alone, never through
bfequiv:

* ``calibrate`` -- lambda = B(gamma) and, with observed data, the
  statistic and B(stat), against closed forms of B (adaptive quadrature
  for the shifted-exponential variance-ratio prior), to the package's
  1e-6 integrity tolerance;
* ``verify`` -- zero mismatches over the configured number of draws;
* ``power`` -- every Monte Carlo power within POWER_Z standard errors of
  the exact power, wherever the CSV carries an exact curve;
* ``dominance`` / ``johnson`` / ``props`` -- the reported verdicts pass.

`check_op` also returns the number of simulated datasets the op decided.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np
from scipy import integrate, stats

RTOL = 1e-6  # the package's series-vs-quadrature integrity tolerance
STAT_RTOL = 1e-9
# 5 standard errors: the power check compares about 84 (theta, rule)
# points per workload, so the chance that a correct program trips it on
# some seed stays near 5e-5 (at 4 se it would be about 0.5 %).
POWER_Z = 5.0


def read_config(path: str) -> dict:
    cfg = {}
    with open(path) as fh:
        for line in fh:
            text = line.split("#", 1)[0].strip()
            if text:
                key, value = text.split("=", 1)
                cfg[key.strip()] = value.strip()
    return cfg


def _rows(path: str) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _num(cfg, key, default=None):
    return float(cfg[key]) if key in cfg else default


# ---------------------------------------------------------------------------
# Closed forms of B as a function of the decision statistic


def _variance_ratio_shifted_exponential(f, n1, n2, rate):
    n = n1 + n2

    def integrand(theta):
        return (
            theta ** (n2 / 2)
            * ((f + 1.0) / (f + theta)) ** (n / 2)
            * rate
            * math.exp(-rate * (theta - 1.0))
        )

    val, _ = integrate.quad(integrand, 1.0, np.inf, epsabs=0.0, epsrel=1e-12, limit=500)
    return val


def reference_bf(cfg: dict, stat: float):
    """B at the decision statistic, or None when no reference exists."""
    value = _closed_form(cfg, stat)
    return None if value is None else float(value)


def _closed_form(cfg, stat):
    kind, prior = cfg["problem.kind"], cfg.get("prior.kind")
    if kind in ("one_sided_normal", "two_sided_normal"):
        n = _num(cfg, "problem.n", 1)
        theta0 = _num(cfg, "problem.theta0", 0.0)
        t = stat - n * theta0
        if prior == "point_mass":
            th1 = _num(cfg, "prior.theta1")
            return math.exp(stat * (th1 - theta0) - n * (th1**2 - theta0**2) / 2)
        if prior == "half_normal":
            tau = _num(cfg, "prior.precision")
            s = n + tau
            phi = stats.norm.cdf(t / math.sqrt(s))
            return 2 * math.sqrt(tau / s) * math.exp(t * t / (2 * s)) * phi
        if prior == "exponential":
            rate = _num(cfg, "prior.rate")
            b = t - rate
            phi = stats.norm.cdf(b / math.sqrt(n))
            return rate * math.sqrt(2 * math.pi / n) * math.exp(b * b / (2 * n)) * phi
        if prior == "normal":
            tau = _num(cfg, "prior.precision")
            return math.sqrt(tau / (tau + n)) * math.exp(t * t / (2 * (n + tau)))
    if kind == "t_test":
        # Gaussian h: B = (1+n)^(-1/2) (1 - n^2 u/(n+1))^(-n/2), u = xbar^2/sum x^2
        n = _num(cfg, "problem.n")
        u = stat**2 / (n * ((n - 1) + stat**2))
        return (1 + n) ** -0.5 * (1 - n * n * u / (n + 1)) ** (-n / 2)
    if kind == "regression_known_var":
        p, tau = _num(cfg, "problem.p"), _num(cfg, "prior.precision", 1.0)
        return (tau / (1 + tau)) ** (p / 2) * math.exp(stat / (2 * (1 + tau)))
    if kind == "regression_unknown_var":
        # B = (tau/(1+tau))^(p/2) (1 - T/(1+tau))^(-n/2), T = y'Hy/y'y
        p, n = _num(cfg, "problem.p"), _num(cfg, "problem.n")
        tau = _num(cfg, "prior.precision", 1.0)
        f_raw = stat * p / (n - p)
        big_t = f_raw / (1 + f_raw)
        return (tau / (1 + tau)) ** (p / 2) * (1 - big_t / (1 + tau)) ** (-n / 2)
    if kind == "two_sample_known_var":
        a = _num(cfg, "problem.n1") * _num(cfg, "problem.tau1", 1.0)
        b = _num(cfg, "problem.n2") * _num(cfg, "problem.tau2", 1.0)
        c = _num(cfg, "prior.c", 1.0)
        return math.sqrt(c / (1 + c)) * math.exp(a * b / (2 * (1 + c) * (a + b)) * stat)
    if kind == "two_sample_t":
        n1, n2, c = _num(cfg, "problem.n1"), _num(cfg, "problem.n2"), _num(cfg, "prior.c", 1.0)
        n, m = n1 + n2, n1 * n2 / (n1 + n2)
        tt = stat**2 / (1 + stat**2 * m)
        return math.sqrt(c / (m + c)) * (1 - m * m / (m + c) * tt) ** (-n / 2)
    if kind == "variance_ratio":
        n1, n2 = _num(cfg, "problem.n1"), _num(cfg, "problem.n2")
        if prior == "point_mass":
            th1 = _num(cfg, "prior.theta1")
            return th1 ** (n2 / 2) * ((stat + 1) / (stat + th1)) ** ((n1 + n2) / 2)
        if prior == "shifted_exponential":
            return _variance_ratio_shifted_exponential(stat, n1, n2, _num(cfg, "prior.rate", 1.0))
    if kind == "subset_selection":
        n, p2, c = _num(cfg, "problem.n"), _num(cfg, "problem.p2"), _num(cfg, "prior.c", 1.0)
        big_t = stat / (1 + stat)
        return (c / (1 + c)) ** (p2 / 2) * (1 - big_t / (1 + c)) ** (-n / 2)
    if kind == "subjective_variance":
        return 0.5 * (1 + stat) / math.sqrt(stat)
    return None


def reference_stat(cfg: dict, config_dir: str):
    """Decision statistic recomputed from the observed-data file."""
    path = os.path.join(config_dir, cfg["problem.data"])
    data = np.genfromtxt(path, delimiter=",", names=True)
    kind = cfg["problem.kind"]
    n = int(_num(cfg, "problem.n"))
    if kind == "t_test":
        x = data["x"]
        return math.sqrt(n) * x.mean() / x.std(ddof=1)
    p = int(_num(cfg, "problem.p"))
    X = np.column_stack([data[f"x{j + 1}"] for j in range(p)])
    y = data["y"]
    q, _ = np.linalg.qr(X)
    yhy = float(np.sum((q.T @ y) ** 2))
    if kind == "regression_known_var":
        return yhy
    return (yhy / p) / ((float(y @ y) - yhy) / (n - p))


def _close(value, ref, rtol):
    return abs(value - ref) <= rtol * abs(ref)


# ---------------------------------------------------------------------------
# Per-subcommand checks; each returns (problems, draws)


def _check_calibrate(cfg, config_dir, out):
    row = _rows(os.path.join(out, "calibration.csv"))[0]
    problems = []
    lam = float(row["lambda"])
    alpha = float(row["alpha"])
    if "run.alpha" in cfg and not _close(alpha, float(cfg["run.alpha"]), 1e-12):
        problems.append(f"alpha {alpha} != configured {cfg['run.alpha']}")
    if "run.lambda" in cfg and not 0.0 < alpha < 1.0:
        problems.append(f"implied alpha {alpha} outside (0, 1)")
    ends = [float(row["gamma_upper"])]
    if row["gamma_lower"]:
        ends.append(float(row["gamma_lower"]))
    for gamma in ends:
        ref = reference_bf(cfg, gamma)
        if ref is not None and not _close(lam, ref, RTOL):
            problems.append(f"lambda {lam!r} vs reference B({gamma!r}) = {ref!r}")
    if "stat" in row:
        stat, b_obs = float(row["stat"]), float(row["bayes_factor"])
        ref_stat = reference_stat(cfg, config_dir)
        if not _close(stat, ref_stat, STAT_RTOL):
            problems.append(f"statistic {stat!r} vs reference {ref_stat!r}")
        ref = reference_bf(cfg, ref_stat)
        if ref is not None and not _close(b_obs, ref, RTOL):
            problems.append(
                f"B(stat) {b_obs!r} vs closed form {ref!r} (rel. error {b_obs / ref - 1:+.3e})"
            )
        if int(row["reject"]) != int(b_obs > lam):
            problems.append("reject flag disagrees with B > lambda")
    return problems, 0


def _check_verify(cfg, config_dir, out):
    row = _rows(os.path.join(out, "verify.csv"))[0]
    n_sims = int(float(cfg.get("run.n_sims", 100_000)))
    problems = []
    if int(row["n_mismatch"]) != 0:
        problems.append(f"{row['n_mismatch']} mismatches")
    if int(row["n_total"]) != n_sims:
        problems.append(f"n_total {row['n_total']} != {n_sims}")
    return problems, int(row["n_total"])


def _check_power(cfg, config_dir, out):
    rows = _rows(os.path.join(out, "power.csv"))
    exact = {r["theta"]: float(r["power"]) for r in rows if r["method"] == "exact"}
    problems = []
    draws = 0
    for r in rows:
        if r["method"] == "exact":
            continue
        n = int(r["N"])
        if r["method"] == "mc_classical":
            draws += n
        if r["theta"] not in exact:
            continue
        p = exact[r["theta"]]
        se = math.sqrt(max(p * (1 - p), 1.0 / n) / n)
        if abs(float(r["power"]) - p) > POWER_Z * se:
            problems.append(
                f"{r['method']} power {r['power']} at theta {r['theta']} is "
                f"{abs(float(r['power']) - p) / se:.1f} se from exact {p!r}"
            )
    return problems, draws


def _text_fields(path):
    with open(path) as fh:
        return dict(line.split(": ", 1) for line in fh.read().splitlines() if ": " in line)


def _check_dominance(cfg, config_dir, out):
    fields = _text_fields(os.path.join(out, "dominance.txt"))
    rows = _rows(os.path.join(out, "dominance.csv"))
    problems = [] if fields["verdict"] == "PASS" else [f"verdict {fields['verdict']}"]
    # two size passes plus one pass per theta
    return problems, int(fields["N"]) * (len(rows) + 2)


def _check_johnson(cfg, config_dir, out):
    fields = _text_fields(os.path.join(out, "johnson.txt"))
    rows = _rows(os.path.join(out, "johnson.csv"))
    problems = [] if fields["verdict"] == "PASS" else [f"verdict {fields['verdict']}"]
    return problems, int(float(cfg.get("run.n_sims", 100_000))) * len(rows)


def _check_props(cfg, config_dir, out):
    rows = _rows(os.path.join(out, "props.csv"))
    failed = [r["name"] for r in rows if r["status"] != "PASS"]
    return ([f"properties failed: {failed}"] if failed else []), 0


def _check_reproduce_sec6(cfg, config_dir, out):
    rows = _rows(os.path.join(out, "lambda_scaling.csv"))
    slope = float(rows[0]["fitted_slope"])
    problems = [] if abs(slope + 0.5) < 0.01 else [f"lambda(n) slope {slope} is not -1/2"]
    return problems, 0


_CHECKS = {
    "calibrate": _check_calibrate,
    "verify": _check_verify,
    "power": _check_power,
    "dominance": _check_dominance,
    "johnson": _check_johnson,
    "props": _check_props,
    "reproduce-sec6": _check_reproduce_sec6,
}


def check_op(command: str, config: str | None, out: str, exit_code) -> tuple:
    """(problems, draws) for one finished op; no problems means it passed."""
    if exit_code != 0:
        return [f"exit code {exit_code}"], 0
    cfg = read_config(config) if config else {}
    config_dir = os.path.dirname(config) if config else ""
    try:
        return _CHECKS[command](cfg, config_dir, out)
    except (OSError, KeyError, ValueError, IndexError, ZeroDivisionError, OverflowError) as exc:
        return [f"unreadable output: {exc!r}"], 0
