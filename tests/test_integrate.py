import glob
import math
import os
import random

import numpy as np
import pytest
from scipy import integrate as scipy_integrate
from scipy import optimize as scipy_optimize

from bfequiv import calibrate, cli, integrate, priors
from bfequiv.integrate import LIMIT, QuadratureError, brentq, log_quad, minimize_bounded, quad
from bfequiv.priors import SphericalPrior, build_symmetric_class_member, half_normal_prior, solve_pairing

BENCH_CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "configs")


def scipy_quad(f, a, b, tol=integrate.DEFAULT_TOL):
    """QUADPACK through scipy, with the tolerances `quad` is given."""
    return scipy_integrate.quad(f, a, b, epsabs=tol, epsrel=tol, limit=LIMIT)


def scipy_minimize_bounded(func, bounds, xatol=1e-5):
    options = {"xatol": xatol, "maxiter": integrate.MINIMIZE_MAXITER}
    return float(scipy_optimize.minimize_scalar(func, bounds=bounds, method="bounded", options=options).x)


def test_log_quad_matches_gaussian_integral():
    # log int exp(-(x - 3)^2 / 2) dx = log sqrt(2 pi), at any height
    for shift in (-2000.0, 0.0, 2000.0):
        val = log_quad(lambda x: shift - 0.5 * (x - 3.0) ** 2, -np.inf, np.inf, (-10.0, 10.0))
        assert abs(val - shift - 0.5 * math.log(2 * math.pi)) < 1e-12


def test_log_quad_raises_on_zero_integrand():
    with pytest.raises(QuadratureError):
        log_quad(lambda x: -np.inf, 0.0, np.inf, (0.0, 10.0))


# ---------------------------------------------------------------------------
# brentq and minimize_bounded return scipy's floats bit for bit


def _root_case(rng):
    """A function with one sign change, a bracket around it in either
    order, and tolerances: (f, a, b, keywords)."""
    kind, c, s = rng.randrange(4), rng.uniform(-5, 5), rng.uniform(0.1, 3)
    p = rng.choice((1, 3, 5))
    f = (
        lambda x: math.tanh(s * (x - c)),
        lambda x: (x - c) ** p + s * (x - c),
        lambda x: math.expm1(s * (x - c)),
        lambda x: math.atan(x - c) + 0.1 * s * (x - c) ** 3,
    )[kind]
    a, b = c - rng.uniform(0.01, 10), c + rng.uniform(0.01, 10)
    if rng.random() < 0.5:
        a, b = b, a
    keywords = {}
    if rng.random() < 0.5:
        keywords = {"xtol": rng.choice((1e-14, 1e-13, 1e-6)), "rtol": rng.choice((8.9e-16, 1e-10))}
    return f, a, b, keywords


def test_brentq_is_scipys_brentq():
    rng = random.Random(20130101)
    for _ in range(1500):
        f, a, b, keywords = _root_case(rng)
        assert brentq(f, a, b, **keywords) == scipy_optimize.brentq(f, a, b, **keywords)


@pytest.mark.parametrize("c", [math.exp(-300.0), 1e-130])
def test_brentq_bisects_where_f_is_flat(c):
    # exp(5t - 420) underflows to 0 below t = -65, so f = -c at two points
    # of the bracket and the extrapolation step divides by fblk - fpre = 0
    f = lambda t: math.exp(5.0 * t - 420.0) - c
    assert brentq(f, -20.0, 50.0, xtol=1e-13) == scipy_optimize.brentq(f, -20.0, 50.0, xtol=1e-13)


def test_brentq_errors(monkeypatch):
    with pytest.raises(ValueError, match="different signs"):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(ValueError, match="NaN"):
        brentq(lambda x: math.nan if x > 0 else -1.0, -1.0, 1.0)
    assert brentq(lambda x: x, 0.0, 1.0) == 0.0
    monkeypatch.setattr(integrate, "BRENTQ_MAXITER", 3)
    with pytest.raises(RuntimeError, match="converge"):
        brentq(lambda x: (x - 0.3) ** 9, 0.0, 1.0)


def test_minimize_bounded_is_scipys_bounded_minimiser():
    rng = random.Random(19731)
    for _ in range(1500):
        kind, c, s = rng.randrange(4), rng.uniform(-5, 5), rng.uniform(0.1, 3)
        func = (
            lambda x: s * (x - c) ** 2,
            lambda x: -math.exp(-s * (x - c) ** 2) + 0.01 * x,
            lambda x: abs(x - c) ** 1.5 + math.sin(3 * x),
            lambda x: math.cosh(s * (x - c)),
        )[kind]
        bounds = (c - rng.uniform(0.1, 10), c + rng.uniform(-0.05, 10))
        xatol = rng.choice((1e-5, 1e-8, 1e-12))
        assert minimize_bounded(func, bounds, xatol=xatol) == scipy_minimize_bounded(func, bounds, xatol)


@pytest.mark.parametrize(
    "path",
    sorted(glob.glob(os.path.join(BENCH_CONFIGS, "*", "lambda_*.ini"))),
    ids=os.path.basename,
)
def test_gamma_from_lambda_is_unchanged(path, monkeypatch):
    cfg = cli.parse_config(path)
    problem = cli.build_problem(cfg)
    pair = cli.build_bf(problem, cfg)
    lam = cfg.get("run.lambda")
    region, size = calibrate.gamma_from_lambda(problem, pair.of_stat, lam)
    monkeypatch.setattr(calibrate, "brentq", scipy_optimize.brentq)
    expected_region, expected_size = calibrate.gamma_from_lambda(problem, pair.of_stat, lam)
    assert (region.upper, size) == (expected_region.upper, expected_size)


def test_default_power_grid_is_unchanged(monkeypatch):
    cfg = cli.parse_config(os.path.join(BENCH_CONFIGS, "closed", "lambda_one_sided_normal.ini"))
    problem = cli.build_problem(cfg)
    rule = calibrate.calibrate(problem, 0.05, cli.build_bf(problem, cfg).of_stat)
    grid = cli._default_grid(problem, rule.region, 0.05)
    monkeypatch.setattr(cli, "brentq", scipy_optimize.brentq)
    assert np.array_equal(grid, cli._default_grid(problem, rule.region, 0.05))


def test_solve_pairing_is_unchanged(monkeypatch):
    # pairable pairs: the mirror side carries the larger peak, |g1| >= g2
    cases = [(-1.96, 1.96, 0.5), (-2.6, 2.1, 0.01), (-2.6, 2.1, 1.0), (-2.6, 2.1, 6.0), (-3.0, 1.8, 2.5)]
    roots = [solve_pairing(g1, g2, theta, n=1) for g1, g2, theta in cases]
    monkeypatch.setattr(priors, "brentq", scipy_optimize.brentq)
    monkeypatch.setattr(priors, "minimize_bounded", scipy_minimize_bounded)
    assert roots == [solve_pairing(g1, g2, theta, n=1) for g1, g2, theta in cases]


# ---------------------------------------------------------------------------
# quad agrees with QUADPACK on every kind of integrand the package integrates


def _with_scipy_quad(monkeypatch, build):
    """build() under this package's quad, then under scipy's."""
    ours = build()
    monkeypatch.setattr(priors, "quad", scipy_quad)
    monkeypatch.setattr(integrate, "quad", scipy_quad)
    return ours, build()


@pytest.mark.parametrize(
    "log_density, support",
    [
        (lambda x: -x * x, (0.0, np.inf)),
        (lambda x: -1.5 * x, (0.0, np.inf)),
        (lambda x: 3.7 - x, (0.0, np.inf)),
        (lambda x: 2.0 * np.log(x) + 3.0 * np.log1p(-x), (0.0, 1.0)),
        (lambda x: x - 0.5 * x * x, (-np.inf, 0.5)),
        (lambda x: -0.5 * (x - 2.0) ** 2, (-np.inf, np.inf)),
        (lambda x: -0.5 * np.log(x) + np.log1p(-x), (0.0, 1.0)),
        (lambda x: np.log(-np.log(x)), (0.0, 1.0)),
    ],
    ids=[
        "half_normal", "exponential", "shifted_exponential", "finite_support", "lower_half_line", "whole_line",
        "power_singular_at_zero", "log_singular_at_zero",
    ],
)
def test_density_prior_normaliser_matches_quadpack(log_density, support):
    # the log-normaliser of each prior density, as `quad` and QUADPACK
    # integrate it at MASS_TOL
    density = lambda x: math.exp(log_density(x))
    ours, _ = quad(density, *support, tol=priors.MASS_TOL)
    theirs, _ = scipy_quad(density, *support, tol=priors.MASS_TOL)
    assert abs(math.log(ours) - math.log(theirs)) <= priors.MASS_TOL


@pytest.mark.parametrize("p, precision", [(1, 1.0), (3, 0.5), (6, 4.0)])
def test_spherical_normaliser_matches_quadpack(p, precision, monkeypatch):
    # the Gaussian radial density without its known normaliser, so each
    # build runs its quadrature
    build = lambda: SphericalPrior(p, lambda r: -0.5 * precision * r * r)
    ours, theirs = _with_scipy_quad(monkeypatch, build)
    assert abs(ours.log_radial_density(1.0) - theirs.log_radial_density(1.0)) <= priors.MASS_TOL


def test_symmetric_paired_mass_matches_quadpack(monkeypatch):
    def build():
        base = half_normal_prior(0.0, 1.0)
        return build_symmetric_class_member(0.0, base, lambda th: solve_pairing(-2.6, 2.1, th, n=1))

    ours, theirs = _with_scipy_quad(monkeypatch, build)
    assert abs(ours.half_weight_log(0.7) - theirs.half_weight_log(0.7)) <= priors.MASS_TOL


@pytest.mark.parametrize("height", [-2000.0, 2000.0])
def test_log_quad_whole_line_matches_quadpack(height, monkeypatch):
    tol = integrate.DEFAULT_TOL
    ours, theirs = _with_scipy_quad(
        monkeypatch,
        lambda: log_quad(lambda x: height - 0.5 * (x - 3.0) ** 2 / 0.3, -np.inf, np.inf, (-10.0, 10.0), tol),
    )
    assert abs(ours - theirs) <= tol


@pytest.mark.parametrize(
    "f, a, b, expected",
    [
        (math.exp, -np.inf, 1.0, math.e),
        (lambda x: math.exp(-x), 2.0, np.inf, math.exp(-2.0)),
        (lambda x: 1.0 / (1.0 + x * x), -np.inf, np.inf, math.pi),
        (math.cos, 1.0, 1.0, 0.0),
    ],
    ids=["lower_half_line", "upper_half_line", "whole_line", "empty"],
)
def test_quad_closed_forms(f, a, b, expected):
    value, err = quad(f, a, b)
    assert abs(value - expected) <= 10 * integrate.DEFAULT_TOL * max(1.0, abs(expected))
    assert err <= 10 * integrate.DEFAULT_TOL * max(1.0, abs(expected))


@pytest.mark.parametrize(
    "log_density, support",
    [
        (lambda x: -0.5 * np.log(x) - 0.5 * np.log1p(-x), (0.0, 1.0)),
        (lambda x: -0.9 * np.log(x), (0.0, 1.0)),
        (lambda x: -0.5 * np.log(x) - x, (0.0, np.inf)),
        (lambda x: -1.1 * np.log(x), (1.0, np.inf)),
    ],
    ids=["beta_half_half", "power_-0.9_at_zero", "gamma_half", "tail_power_-1.1"],
)
def test_quad_raises_on_strong_end_singularities(log_density, support):
    # without epsilon extrapolation, bisection cannot reach MASS_TOL on
    # these (scipy's QUADPACK can): a typed error, not a wrong number
    with pytest.raises(QuadratureError):
        quad(lambda x: math.exp(log_density(x)), *support, tol=priors.MASS_TOL)


def test_quad_stops_before_a_node_reaches_an_end():
    # bisecting towards x = 1 would evaluate (1 - x)**-0.5 at x = 1.0
    with pytest.raises(QuadratureError):
        quad(lambda x: (1.0 - x) ** -0.5, 0.0, 1.0, tol=priors.MASS_TOL)


def test_quad_raises_past_limit_panels():
    # ~1.6e7 oscillations: LIMIT panels cannot resolve them
    with pytest.raises(QuadratureError) as info:
        quad(lambda x: math.sin(1e6 * x), 0.0, 100.0, tol=1e-10)
    assert info.value.error > 1e-9


def test_gauss_legendre_rule_is_built_once_per_process(tmp_path, monkeypatch):
    # every VarianceRatioBf takes each rung of its node ladder from one
    # eigen-solve; these runs climb to 64 nodes
    calls = []
    leggauss = np.polynomial.legendre.leggauss

    def counted(n):
        calls.append(n)
        return leggauss(n)

    integrate._leggauss.cache_clear()
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
    cfg = tmp_path / "vr.cfg"
    cfg.write_text(
        "problem.kind = variance_ratio\nproblem.n1 = 8\nproblem.n2 = 10\n"
        "prior.kind = shifted_exponential\nprior.rate = 1.0\nrun.alpha = 0.05\n"
        "run.seed = 1\nrun.n_sims = 600\n"
    )
    props_cfg = tmp_path / "props.cfg"
    props_cfg.write_text("run.n_trials = 20\n")
    runs = (("calibrate", cfg), ("verify", cfg), ("power", cfg), ("props", props_cfg))
    for command, config in runs:
        assert cli.main([command, "--config", str(config), "--out", str(tmp_path / command)]) == 0
    assert calls == [32, 48, 64]

    x, w = integrate._leggauss(48)
    for cached in (x, w):
        with pytest.raises(ValueError):
            cached[0] = 0.0
    nodes, weights = integrate.gauss_legendre_nodes(48, 0.0, 1.0)
    nodes[0] = weights[0] = 0.0  # the mapped arrays are the caller's own
    assert x[0] != 0.0 and w[0] != 0.0
