"""Bayes-factor evaluation for every problem in the catalogue.

Three evaluation styles, always as functions of the sufficient summary:

* closed forms (conjugate normal priors, point masses, the two-sample
  and subset-selection constants kappa / kappa'); the Gaussian t-test and
  regression priors reduce to the subset-selection and known-variance
  conjugate forms, and the CLI evaluates them that way;
* quadrature over the prior: adaptive, or for the variance ratio a
  Gauss-Legendre rule certified at construction to meet a stated error;
* power-series forms for the t-test and regression problems, built from
  the even moments of the damped prior density, with a direct
  nested-quadrature route alongside.  Both are test oracles for the
  closed forms and hold for any symmetric prior.  They form one chain:
  RegressionKnownVarBf holds the only radial integral psi(|T|) and the
  only series coefficients a_j; RegressionUnknownVarBf is the gamma
  mixture int w^{n/2-1} e^{-w} psi(2wT) dw / Gamma(n/2) of it, with
  coefficients a_j 2^j Gamma(n/2+j)/Gamma(n/2); TTestBf and
  bf_t_test_quadrature are its p = 1 case, radial density
  h(r/sqrt(n))/sqrt(n) at T = n xbar^2/sum(x^2), coefficients times n^j.

All data-independent constants are computed explicitly so that the
calibrated thresholds lambda are exact numbers, not ratios.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy import special

from .integrate import TINY, gauss_legendre_nodes, log_quad, peak_bracket
from .priors import (
    PointMass,
    Prior,
    ScaledSymmetricPrior,
    SphericalPrior,
    SymmetricPaired,
    log_damped_moment,
)
from .problems import normal_log_ratio

__all__ = [
    "NumericalIntegrityError",
    "bf_one_sided",
    "bf_one_sided_normal_conjugate",
    "bf_two_sided",
    "TTestBf",
    "bf_t_test_quadrature",
    "RegressionKnownVarBf",
    "RegressionUnknownVarBf",
    "TwoSampleKnownVarBf",
    "TwoSampleTBf",
    "VarianceRatioBf",
    "SubsetSelectionBf",
    "bf_subjective_variance",
    "johnson_umpbt_threshold",
]


class NumericalIntegrityError(RuntimeError):
    """Two independent evaluation routes disagree beyond tolerance."""


def _exp_b(log_b: float) -> float:
    """B from log B; NumericalIntegrityError where B overflows a float."""
    try:
        return math.exp(log_b)
    except OverflowError:
        raise NumericalIntegrityError(f"B = e^{log_b:.6g} overflows a float") from None


_LOG_2 = math.log(2.0)


def _logaddexp(x: float, y: float) -> float:
    """log(e^x + e^y) for floats, by numpy's formula for np.logaddexp, so
    the value is the same float without numpy's 0-d overhead."""
    if x == y:  # also equal infinities, without a nan
        return x + _LOG_2
    big, small = (x, y) if x > y else (y, x)
    return big + math.log1p(math.exp(small - big))


# ---------------------------------------------------------------------------
# One-sided normal-mean Bayes factors (n unit-variance draws, t = sum(x_i))


def bf_one_sided(prior: PointMass, t, n: int, theta0: float = 0.0):
    """B(t) = g(t, theta1) / g(t, theta0) for the point mass at theta1, in
    closed form; increasing in t when theta1 > theta0.  The half-normal and
    exponential priors have their own closed forms below."""
    return np.exp(normal_log_ratio(t, prior.theta1, theta0, n))


def bf_one_sided_normal_conjugate(t, n: int, tau: float):
    """Normal model, full-line N(0, 1/tau) prior: the classic conjugate form.

    B = sqrt(tau/(tau+n)) * exp(t^2 / (2(n+tau))) with t = sum(x_i).
    """
    t = np.asarray(t, dtype=float)
    return np.sqrt(tau / (tau + n)) * np.exp(t**2 / (2.0 * (n + tau)))


def _scaled_mills(coef, half_sq, z):
    """coef * exp(half_sq) * ndtr(z), with half_sq = z^2/2 as the caller forms
    it; where that product is not finite (below z = -37.6 the exp overflows),
    the same quantity as coef * erfcx(-z/sqrt(2)) / 2."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = coef * np.exp(half_sq) * special.ndtr(z)
    finite = np.isfinite(out)
    if finite.all():
        return out
    return np.where(finite, out, coef * (0.5 * special.erfcx(-z / math.sqrt(2.0))))


def bf_one_sided_normal_halfnormal(t, n: int, tau: float):
    """Normal model, half-normal prior on theta > 0 with precision tau."""
    t = np.asarray(t, dtype=float)
    s = n + tau
    return _scaled_mills(2.0 * np.sqrt(tau / s), t**2 / (2.0 * s), t / np.sqrt(s))


def bf_one_sided_normal_exponential(t, n: int, rate: float):
    """Normal model, Exponential(rate) prior on theta > 0."""
    t = np.asarray(t, dtype=float)
    b = t - rate
    return _scaled_mills(rate * np.sqrt(2.0 * np.pi / n), b**2 / (2.0 * n), b / np.sqrt(n))


# ---------------------------------------------------------------------------
# Two-sided normal-mean Bayes factors


def bf_two_sided(prior: SymmetricPaired, t, n: int):
    """Two-sided Bayes factor for a symmetric-paired prior.

    B(t) = int_{theta>theta0} [g(t,theta) + g(t,r(theta))] w(theta) dtheta
    with theta0 = prior.theta0 and w the prior's half-line weight; convex
    in t, with equal values at any calibrated critical pair by
    construction of r.  The integral runs in log space, so a B past the
    float range raises NumericalIntegrityError.
    """
    lo, hi = prior.theta0, prior.base.support[1]
    half_lo_sq = lo * lo / 2.0

    def log_b(ti):
        # problems.normal_log_ratio, on floats
        def log_ratio(th):
            return ti * (th - lo) - n * (th * th / 2.0 - half_lo_sq)

        def log_f(th):
            pair = _logaddexp(log_ratio(th), log_ratio(prior.r(th)))
            return pair + prior.half_weight_log(th)

        return log_quad(log_f, lo, hi, peak_bracket(log_f, lo, hi))

    # B at each float of t, shaped like t (0-d: a float)
    t = np.asarray(t, dtype=float)
    out = np.array([_exp_b(log_b(ti)) for ti in t.ravel().tolist()])
    return out.reshape(t.shape) if t.shape else float(out[0])


def bf_two_sided_normal_conjugate(t, n: int, tau: float):
    """Normal model, symmetric N(0, 1/tau) prior: same conjugate form."""
    return bf_one_sided_normal_conjugate(t, n, tau)


# ---------------------------------------------------------------------------
# Test oracles for the Gaussian closed forms, for any symmetric prior


# relative size of the last term a power series adds
SERIES_TOL = 1e-12


def _power_series(log_coefficient, x, max_terms: int):
    """sum_j a_j x^j for x >= 0, given j -> log a_j.

    The coefficients overflow floats at high order, so each term is formed
    in log space instead of accumulating powers.  Summation stops once the
    largest new term falls below SERIES_TOL times the smallest partial sum.
    """
    with np.errstate(divide="ignore"):
        log_x = np.log(x)
    total = np.full(x.shape, math.exp(log_coefficient(0)))
    for j in range(1, max_terms + 1):
        term = np.exp(log_coefficient(j) + j * log_x)
        total += term
        if np.max(term) < SERIES_TOL * np.min(total):
            return total if total.size > 1 else float(total[0])
    raise NumericalIntegrityError(f"series did not converge within {max_terms} terms")


def _crosscheck(label: str, b_series: float, b_quad: float, rtol: float) -> float:
    """b_series if it is within 10 rtol of b_quad; else NumericalIntegrityError."""
    if abs(b_series - b_quad) > 10 * rtol * abs(b_quad):
        raise NumericalIntegrityError(f"{label} series {b_series!r} vs quadrature {b_quad!r}")
    return b_series


# ---------------------------------------------------------------------------
# Regression, known variance: radial Bayes factor psi(|T|)


def _log_sphere_even_moment_factor(p: int, j: int) -> float:
    """log E[(u . s_hat)^{2j}] for s_hat uniform on the unit (p-1)-sphere."""
    return sum(math.log(2 * i - 1) - math.log(p + 2 * i - 2) for i in range(1, j + 1))


def _log_radial_damped_moment(prior: SphericalPrior, k: int) -> float:
    """log of int |s|^{2k} exp(-|s|^2/2) pi(s) ds for a spherical prior."""
    return math.log(prior.surface) + log_damped_moment(prior.log_radial_density, prior.p - 1 + 2 * k)


def _log_angular_mean_exp(p: int) -> Callable[[float], float]:
    """z -> log of the angular mean of exp(z u.e) over unit p-vectors u,
    stable for large z; the constants of p are computed once, here."""
    if p == 1:
        def log_mean(z):
            # log cosh without overflow
            return 0.0 if z == 0.0 else abs(z) + math.log1p(math.exp(-2.0 * abs(z))) - _LOG_2

        return log_mean
    nu = p / 2.0 - 1.0
    log_gamma = float(special.gammaln(p / 2.0))

    def log_mean(z):
        if z == 0.0:
            return 0.0
        return log_gamma + nu * (_LOG_2 - math.log(z)) + math.log(float(special.ive(nu, z))) + abs(z)

    return log_mean


class RegressionKnownVarBf:
    """psi(|T|) for a spherically symmetric prior on the coefficients.

    Series route: B = sum_j a_j |T|^j with a_j built from radial moments
    of exp(-rho^2/2) times the prior.  Quadrature route: radial integral
    of the angular mean of exp(rho * |T|_2).
    """

    def __init__(self, prior: SphericalPrior):
        self.prior = prior
        self.p = prior.p
        self._log_coeffs = []

    def log_coefficient(self, j: int) -> float:
        while len(self._log_coeffs) <= j:
            k = len(self._log_coeffs)
            self._log_coeffs.append(
                _log_sphere_even_moment_factor(self.p, k)
                + _log_radial_damped_moment(self.prior, k)
                - special.gammaln(2 * k + 1)
            )
        return self._log_coeffs[j]

    def series(self, t_abs):
        """B as a power series in |T| (the squared Euclidean norm)."""
        t_abs = np.atleast_1d(np.asarray(t_abs, dtype=float))
        if np.any(t_abs < 0):
            raise ValueError("|T| must be nonnegative")
        return _power_series(self.log_coefficient, t_abs, max_terms=3000)

    def log_quadrature(self, t_abs: float) -> float:
        """log psi(t_abs) by the radial integral, which never overflows."""
        s = math.sqrt(t_abs)
        p = self.p
        log_prior, log_mean = self.prior.log_radial_density, _log_angular_mean_exp(p)

        def log_f(r):
            if r <= 0:
                return -np.inf
            return (p - 1) * math.log(r) + log_prior(r) - 0.5 * r * r + log_mean(r * s)

        # e^{r s - r^2/2} peaks at r = s
        log_b = log_quad(log_f, 0.0, np.inf, (0.0, s + math.sqrt(p) + 30.0), tol=1e-12)
        return math.log(self.prior.surface) + log_b

    def quadrature(self, t_abs: float) -> float:
        """Radial-integral evaluation at |T| = t_abs."""
        return _exp_b(self.log_quadrature(t_abs))

    def __call__(self, t_vec=None, t_abs=None):
        """Evaluate from the statistic vector (or its squared norm)."""
        if t_abs is None:
            t_abs = np.sum(np.asarray(t_vec, dtype=float) ** 2, axis=-1)
        return self.series(t_abs)

    def crosscheck(self, t_abs: float, rtol: float = 1e-6) -> float:
        return _crosscheck("radial BF", float(self.series(t_abs)), self.quadrature(t_abs), rtol)


def bf_regression_known_var_gaussian(t_abs, p: int, tau: float):
    """Closed conjugate form for the spherical Gaussian prior N(0, I/tau)."""
    t_abs = np.asarray(t_abs, dtype=float)
    return (tau / (1.0 + tau)) ** (p / 2.0) * np.exp(t_abs / (2.0 * (1.0 + tau)))


# ---------------------------------------------------------------------------
# Regression, unknown variance: series in T = y'Hy / y'y


class RegressionUnknownVarBf:
    """Bayes factor for the global F-test with unknown error variance.

    Scaled spherical prior phi^{p/2} h(sqrt(phi) delta) on the
    coefficients, diffuse 1/phi on the precision.  B is the gamma mixture
    int_0^inf w^{n/2-1} e^{-w} psi(2 w T) dw / Gamma(n/2) of the
    known-variance psi for the prior h, a power series in
    T = y'Hy/y'y = F/(kappa + F), kappa = (n-p)/p.
    """

    def __init__(self, h: SphericalPrior, n: int):
        self.h = h
        self.p = h.p
        self.n = n
        if n <= self.p:
            raise ValueError("need n > p")
        self._psi = RegressionKnownVarBf(h)

    def log_coefficient(self, j: int) -> float:
        """log a*_j, a*_j = a_j 2^j Gamma(n/2+j)/Gamma(n/2), a_j psi's."""
        return (
            self._psi.log_coefficient(j)
            + j * _LOG_2
            + special.gammaln(self.n / 2 + j)
            - special.gammaln(self.n / 2)
        )

    def series(self, t_hat):
        """B at T = y'Hy/y'y in [0, 1)."""
        t_hat = np.atleast_1d(np.asarray(t_hat, dtype=float))
        if np.any(t_hat < 0) or np.any(t_hat >= 1):
            raise ValueError("T must lie in [0, 1)")
        return _power_series(self.log_coefficient, t_hat, max_terms=2000)

    def quadrature(self, t_hat: float) -> float:
        """The gamma mixture of psi by nested quadrature (independent of the series)."""
        if not 0.0 <= t_hat < 1.0:
            raise ValueError("T must lie in [0, 1)")
        n = self.n

        def log_f(w):
            if w <= 0:
                return -np.inf
            return (n / 2 - 1) * math.log(w) - w + self._psi.log_quadrature(2.0 * w * t_hat)

        # psi(2 w T) grows at most like e^{T w}, so the peak lies below
        # (n/2 - 1)/(1 - T)
        log_b = log_quad(log_f, 0.0, np.inf, (0.0, n / (1.0 - t_hat)), tol=1e-10)
        return _exp_b(log_b - special.gammaln(n / 2))

    def __call__(self, yHy, yy):
        return self.series(np.asarray(yHy, dtype=float) / np.asarray(yy, dtype=float))

    def from_f(self, f):
        """Evaluate through T = F~/(1 + F~) with F~ = F * p/(n-p)."""
        f_raw = np.asarray(f, dtype=float) * self.p / (self.n - self.p)
        return self.series(f_raw / (1.0 + f_raw))

    def crosscheck(self, t_hat: float, rtol: float = 1e-6) -> float:
        return _crosscheck("F-test BF", float(self.series(t_hat)), self.quadrature(t_hat), rtol)


# ---------------------------------------------------------------------------
# One-sample t-test (unknown variance): the p = 1 F-test


def _t_test_f_test(h: ScaledSymmetricPrior, n: int) -> RegressionUnknownVarBf:
    """The one-coefficient F-test whose radial density is h(r/sqrt(n))/sqrt(n);
    at T = n xbar^2/sum(x^2) its B is the t-test's.  The density integrates
    to that of h, which is 1."""
    root_n = math.sqrt(n)
    log_root_n = math.log(root_n)
    radial = SphericalPrior(1, lambda r: h.log_h(r / root_n) - log_root_n, log_z=0.0)
    return RegressionUnknownVarBf(radial, n)


class TTestBf:
    """Bayes factor for the mean of a normal with unknown variance.

    Scaled symmetric prior on the mean given the precision, diffuse
    1/phi prior on the precision.  B is a power series in
    u = xbar^2 / sum(x_i^2), a monotone function of the squared
    t-statistic: the p = 1 F-test series at T = n u (`_t_test_f_test`).
    """

    def __init__(self, h: ScaledSymmetricPrior, n: int):
        if n < 2:
            raise ValueError("need n >= 2")
        self.h = h
        self.n = n
        self._f_test = _t_test_f_test(h, n)

    def log_coefficient(self, j: int) -> float:
        """log a*_j, a*_j = a_j n^j with a_j the p = 1 F-test's."""
        return self._f_test.log_coefficient(j) + j * math.log(self.n)

    def series(self, u):
        """Sum of the series at u = xbar^2/sum(x^2); u in [0, 1/n]."""
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if np.any(u < 0) or np.any(u > 1.0 / self.n + 1e-12):
            raise ValueError("u must lie in [0, 1/n]")
        return _power_series(self.log_coefficient, u, max_terms=3000)

    def __call__(self, xbar, sum_sq):
        return self.series(np.asarray(xbar, dtype=float) ** 2 / np.asarray(sum_sq, dtype=float))

    def from_t_squared(self, t_sq):
        """Evaluate through the monotone map u = (1/n) t^2 / ((n-1) + t^2)."""
        t_sq = np.asarray(t_sq, dtype=float)
        return self.series((1.0 / self.n) * t_sq / ((self.n - 1) + t_sq))

    def crosscheck(self, xbar: float, sum_sq: float, rtol: float = 1e-6) -> float:
        """Series vs nested-quadrature evaluation; raise on disagreement."""
        b_quad = self._f_test.quadrature(self.n * xbar**2 / sum_sq)
        return _crosscheck("t-test BF", float(self(xbar, sum_sq)), b_quad, rtol)


def bf_t_test_quadrature(xbar: float, sum_sq: float, n: int, h: ScaledSymmetricPrior) -> float:
    """Direct nested-quadrature evaluation of the t-test Bayes factor: the
    p = 1 F-test's gamma mixture at T = n xbar^2/sum_sq."""
    return _t_test_f_test(h, n).quadrature(n * xbar**2 / sum_sq)


# ---------------------------------------------------------------------------
# Two-sample means


class TwoSampleKnownVarBf:
    """B = kappa * exp(kappa' d^2), known precisions, at d = xbar1 - xbar2.

    kappa = sqrt(c/(1+c)); kappa' = n1 tau1 n2 tau2 /
    (2 (1+c) (n1 tau1 + n2 tau2)).  B reads d only through the decision
    statistic T = d^2, so `__call__(d)` and `from_t(d**2)` are the same
    float.
    """

    def __init__(self, n1: int, n2: int, tau1: float, tau2: float, c: float):
        if c <= 0 or tau1 <= 0 or tau2 <= 0:
            raise ValueError("c, tau1, tau2 must be positive")
        self.n1, self.n2, self.tau1, self.tau2, self.c = n1, n2, tau1, tau2, c
        a, b = n1 * tau1, n2 * tau2
        self.kappa = math.sqrt(c / (1.0 + c))
        self.kappa_prime = a * b / (2.0 * (1.0 + c) * (a + b))

    def __call__(self, d):
        return self.from_t(np.asarray(d, dtype=float) ** 2)

    def from_t(self, t):
        """Evaluate from the decision statistic T = d^2."""
        return self.kappa * np.exp(self.kappa_prime * np.asarray(t, dtype=float))


class TwoSampleTBf:
    """Two-sample t-test Bayes factor, B = kappa (1 - kappa' Ttilde^2)^(-n/2).

    With m = n1 n2 / n: kappa = sqrt(c/(m+c)), kappa' = m^2/(m+c), and
    Ttilde^2 = d^2 / ((n-1) S^2) = d^2 / (pooled + m d^2) = T^2/(1 + T^2 m),
    where d = xbar2 - xbar1 and pooled = (n1-1)S1^2 + (n2-1)S2^2.
    """

    def __init__(self, n1: int, n2: int, c: float):
        if n1 < 2 or n2 < 2 or c <= 0:
            raise ValueError("need n1, n2 >= 2 and c > 0")
        self.n1, self.n2, self.c = n1, n2, c
        self.n = n1 + n2
        self.m = n1 * n2 / self.n
        self.kappa = math.sqrt(c / (self.m + c))
        self.kappa_prime = self.m**2 / (self.m + c)

    def __call__(self, d, pooled):
        d = np.asarray(d, dtype=float)
        d_sq = d**2
        t_tilde_sq = d_sq / (np.asarray(pooled, dtype=float) + self.m * d_sq)
        arg = 1.0 - self.kappa_prime * t_tilde_sq
        if np.any(arg <= 0):
            raise NumericalIntegrityError("kappa' * Ttilde^2 >= 1: invalid constants or data")
        return self.kappa * arg ** (-self.n / 2.0)

    def from_t(self, t):
        """Evaluate from T = d/sqrt(pooled)."""
        t_sq = np.asarray(t, dtype=float) ** 2
        t_tilde_sq = t_sq / (1.0 + t_sq * self.m)
        arg = 1.0 - self.kappa_prime * t_tilde_sq
        return self.kappa * arg ** (-self.n / 2.0)


# ---------------------------------------------------------------------------
# Variance ratio (one-sided, theta > 1)


# The stated relative error of B on the density-prior route of
# VarianceRatioBf: a node rule is certified when its log B agrees with the
# next rung's within a tenth of it at every probe.
VARIANCE_RATIO_RTOL = 1e-10
# Gauss-Legendre node counts tried in turn; the last one is the cap
_RUNGS = (32, 48, 64, 96, 128, 192, 256, 384, 512)
# probes of the certificate: the limits F = 0 and F = inf, quarter decades
# from 1e-3 to 1e8, and the classical critical values at these sizes
_PROBE_F = np.concatenate(([0.0], 10.0 ** (np.arange(-12, 33) / 4.0), [np.inf]))
_PROBE_ALPHA = (0.05, 0.01, 0.001)
# c = theta - 1 at 20 points a decade: the crude rule the maps are fitted on
_FIT_C = np.logspace(-6.0, 12.0, 361)
# B must be a normal float; a term below e^_LOG_ZERO rounds to 0 at every F
_LOG_MAX = math.log(np.finfo(float).max)
_LOG_TINY = math.log(TINY)
_LOG_ZERO = math.log(float(np.finfo(float).smallest_subnormal)) - 1.0
# Draws per block in the batch route: one block of 512 x nodes float64
# values is the only temporary.
_ROW_BLOCK = 512


def _log_sum_exp_rows(t):
    """log of the sum of e^t along each row of t; nan where a row is all -inf.
    (scipy.special.logsumexp gives the same at four times the cost a call.)"""
    peak = t.max(axis=1)
    with np.errstate(invalid="ignore"):
        return peak + np.log(np.exp(t - peak[:, None]).sum(axis=1))


class VarianceRatioBf:
    """B(F) = int_{theta>1} theta^{n2/2} ((F+1)/(F+theta))^{n/2} dpi.

    The constant in front of the integral is not identified under the
    diffuse nuisance priors and is 1.  With r = 1/(1+F) and
    c_j = theta_j - 1, B is a sum over nodes,
    B(F) = sum_j (a_j + b_j r)^(-n/2), a_j = exp(-2 l_j/n), b_j = c_j a_j,
    where l_j is the node's log weight.  Each term is
    e^{l_j} (1 + c_j r)^(-n/2) at its own scale, so no weight, base or term
    leaves the float range unless B does, and every b_j >= 0 keeps each
    term, and B, monotone in F.  A B outside the normal float range raises
    NumericalIntegrityError.

    A point mass is the one node theta1, l = (n2/2) log theta1: the closed
    form.  A density prior goes through the Gauss-Legendre rule on a map
    c = s (u/(1-u))^q, u in (0, 1), with the fewest nodes that meet
    relative error VARIANCE_RATIO_RTOL (`_certified_rule`); l_j folds the
    Gauss-Legendre weight, the Jacobian, theta_j^{n2/2} and the prior
    density together.  `adaptive` is the single-value oracle.
    """

    def __init__(self, prior: Prior, n1: int, n2: int):
        self.prior = prior
        self.n1, self.n2 = n1, n2
        self.n = n1 + n2
        if isinstance(prior, PointMass):
            if prior.theta1 < 1.0:
                raise ValueError("prior must sit on theta >= 1")
            c = np.array([prior.theta1 - 1.0])
            log_w = np.array([(n2 / 2.0) * math.log(prior.theta1)])
        else:
            if prior.support[0] < 1.0 - 1e-12:
                raise ValueError("prior must be supported on theta > 1")
            c, log_w = self._certified_rule()
        a = np.exp(log_w * (-2.0 / self.n))
        self._nodes = (a, c * a)

    def _log_terms(self, r, c, log_w):
        """log of e^{l_j} (1 + c_j r)^(-n/2): rows r, columns the nodes."""
        return log_w - (self.n / 2.0) * np.log1p(np.multiply.outer(r, c))

    def _rule(self, size: int, s: float, q: int):
        """(c_j, l_j) of the size-node rule on the map c = s (u/(1-u))^q,
        without the nodes whose term rounds to 0 at every F."""
        x, w = gauss_legendre_nodes(size, -1.0, 1.0)
        # u = (1+x)/2, so u/(1-u) = z = (1+x)/(1-x) and dz/dx = 2/(1-x)^2
        z = (1.0 + x) / (1.0 - x)
        c = s * z**q
        with np.errstate(divide="ignore"):
            log_w = (
                np.log(w)
                + math.log(2.0 * q * s)
                + (q - 1) * np.log(z)
                - 2.0 * np.log(1.0 - x)
                + (self.n2 / 2.0) * np.log1p(c)
                + np.asarray(self.prior.logpdf(1.0 + c), dtype=float)
            )
        keep = log_w > _LOG_ZERO
        return c[keep], log_w[keep]

    def _fit_maps(self, r) -> list:
        """Candidate maps (s, q), fitted to the integrand at each probe r
        whose B, on a crude rule of 20 points a decade in c, is a normal
        float (beyond it B raises anyway): s at the peak of the mass per
        unit log c at the largest such F, with q = 1; and for q = 1 and 2,
        the s at which the map's Gauss-Legendre node density per unit
        log c, N sqrt(u(1-u))/(pi q), asks for the fewest nodes to put a
        fixed count across every probe's peak."""
        c, log_c = _FIT_C, np.log(_FIT_C)
        step = log_c[1] - log_c[0]
        with np.errstate(divide="ignore"):
            log_w = (
                log_c
                + math.log(step)
                + (self.n2 / 2.0) * np.log1p(c)
                + np.asarray(self.prior.logpdf(1.0 + c), dtype=float)
            )
        t = self._log_terms(r, c, log_w)
        log_b = _log_sum_exp_rows(t)
        rows = np.flatnonzero((log_b > _LOG_TINY) & (log_b < _LOG_MAX))
        if rows.size == 0:
            rows = np.array([np.argmax(r)])
        t = t[rows]
        k = np.clip(np.argmax(t, axis=1), 1, c.size - 2)
        i = np.arange(rows.size)
        # each peak's width in log c, from the curvature of the log-integrand
        curvature = (t[i, k + 1] - 2.0 * t[i, k] + t[i, k - 1]) / step**2
        width = 1.0 / np.sqrt(np.maximum(-curvature, 1e-12))
        maps = [(float(c[k[np.argmin(r[rows])]]), 1)]
        # the best s lies between the peaks; |log(u/(1-u))| at each peak
        # (columns) for each such s (rows)
        s = np.arange(k.min(), k.max() + 1)
        for q in (1, 2):
            y = np.abs(log_c[k][None, :] - log_c[s][:, None]) / q
            root_u_1mu = np.exp(-y / 2.0) / (1.0 + np.exp(-y))
            need = (q / (width * root_u_1mu)).max(axis=1)
            maps.append((float(c[s[np.argmin(need)]]), q))
        return list(dict.fromkeys(maps))

    def _certified_rule(self):
        """(c_j, l_j) of the first rung in _RUNGS whose log B, on one of the
        candidate maps, agrees with the next rung's on the same map within
        VARIANCE_RATIO_RTOL / 10 at every probe where B is a normal float.
        The maps climb the rungs together, in the order `_fit_maps` gives
        them; NumericalIntegrityError at the cap."""
        # the critical values of F = S1^2/S2^2 under the null,
        # (n1-1)/(n2-1) times an F(n1-1, n2-1) variate
        d1, d2 = self.n1 - 1, self.n2 - 1
        gamma = special.fdtri(d1, d2, 1.0 - np.asarray(_PROBE_ALPHA)) * (d1 / d2)
        r = 1.0 / (1.0 + np.concatenate((_PROBE_F, gamma)))
        maps = self._fit_maps(r)
        coarser = [None] * len(maps)
        for size in _RUNGS:
            for m, (s, q) in enumerate(maps):
                rule = self._rule(size, s, q)
                log_b = _log_sum_exp_rows(self._log_terms(r, *rule))
                if coarser[m] is not None:
                    coarse_rule, coarse_log_b = coarser[m]
                    inside = (log_b > _LOG_TINY) & (log_b < _LOG_MAX)
                    if np.all(np.abs(coarse_log_b - log_b)[inside] <= VARIANCE_RATIO_RTOL / 10):
                        return coarse_rule
                coarser[m] = rule, log_b
        raise NumericalIntegrityError(
            f"no Gauss-Legendre rule of up to {_RUNGS[-1]} nodes meets relative error "
            f"{VARIANCE_RATIO_RTOL:g} for B at n1 = {self.n1}, n2 = {self.n2}"
        )

    def __call__(self, f):
        f = np.asarray(f, dtype=float)
        a, b = self._nodes
        r = 1.0 / (1.0 + f.ravel())
        vals = np.empty(r.shape)
        block = np.empty((min(_ROW_BLOCK, r.size), a.size))
        for start in range(0, r.size, _ROW_BLOCK):
            rows = r[start : start + _ROW_BLOCK]
            x = block[: rows.size]
            np.multiply(rows[:, None], b, out=x)
            x += a
            with np.errstate(over="ignore"):  # a B past the float range raises below
                np.power(x, -self.n / 2.0, out=x)
            # einsum sums every row the same way wherever it sits (and
            # starts no BLAS threads), so B(F) does not depend on the block
            np.einsum("ij->i", x, out=vals[start : start + rows.size])
        outside = ~((vals >= TINY) & (vals < math.inf))
        if outside.any():
            i = int(np.argmax(outside))
            raise NumericalIntegrityError(
                f"B = {float(vals[i])!r} at F = {f.ravel()[i]:.6g} is outside the normal float range"
            )
        return vals.reshape(f.shape) if f.shape else float(vals[0])

    def adaptive(self, f: float) -> float:
        """Log-space adaptive-quadrature evaluation of a single value."""
        if isinstance(self.prior, PointMass):
            return float(self(f))
        lo, hi = self.prior.support
        lo = max(lo, 1.0)
        log_f1 = math.log(f + 1.0)

        def log_f(th):
            log_ratio = log_f1 - math.log(f + th)
            return (self.n2 / 2.0) * math.log(th) + (self.n / 2.0) * log_ratio + float(self.prior.logpdf(th))

        return _exp_b(log_quad(log_f, lo, hi, peak_bracket(log_f, lo, hi)))


# ---------------------------------------------------------------------------
# Subset selection


class SubsetSelectionBf:
    """B as a monotone function of T = y'X(X'X)^-1 X'y / y'(I-H1)y.

    B = (c/(1+c))^{p2/2} (1 - T/(1+c))^{-n/2}; the rejection region
    {B > lambda} equals {F > gamma} for every c > 0.
    """

    def __init__(self, n: int, p2: int, c: float):
        if c <= 0:
            raise ValueError("c must be positive")
        self.n, self.p2, self.c = n, p2, c
        self.kappa = (c / (1.0 + c)) ** (p2 / 2.0)

    def __call__(self, t_stat):
        # T rounds to 1 once F passes about 9e15; B stays finite there, at
        # its F -> inf limit kappa ((1+c)/c)^{n/2}
        t = np.asarray(t_stat, dtype=float)
        if np.any(t < 0) or np.any(t > 1):
            raise ValueError("T must lie in [0, 1]")
        return self.kappa * (1.0 - t / (1.0 + self.c)) ** (-self.n / 2.0)

    def from_f(self, f):
        """Evaluate from F = y'(H-H1)y / y'(I-H)y via T = F/(1+F)."""
        f = np.asarray(f, dtype=float)
        return self(f / (1.0 + f))


# ---------------------------------------------------------------------------
# Subjective variance-equality test statistic


def bf_subjective_variance(q, t):
    """B*(Q, T) = (Q + 1/2) / sqrt((Q + 1/2)^2 - T).

    Q = b/S^2 >= 0 and T = 1/4 - F/(1+F)^2 <= 1/4.  Decreasing in Q for
    T > 0, increasing in T.
    """
    q = np.asarray(q, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(q < 0):
        raise ValueError("Q must be nonnegative")
    if np.any(t > 0.25 + 1e-15):
        raise ValueError("T must not exceed 1/4")
    half = q + 0.5
    inside = half**2 - t
    if np.any(inside <= 0):
        raise ValueError("(Q + 1/2)^2 <= T: invalid inputs")
    out = half / np.sqrt(inside)
    return out if out.shape else float(out)


# ---------------------------------------------------------------------------
# Point-mass threshold prior (UMPBT-style construction)


def johnson_umpbt_threshold(lam: float, n: int):
    """(theta*, g_min, point mass at theta*) for the normal mean, H0: theta = 0.

    For a point mass at theta, {B > lam} is {t > log lam / theta + n theta / 2};
    theta* = sqrt(2 log lam / n) minimizes that threshold to g_min = n theta*
    (Johnson 2013, Ann. Statist. 41).  At lam = 1 theta* = 0, on the null.
    """
    if lam < 1.0:
        raise ValueError("lam must be >= 1")
    theta_star = math.sqrt(2.0 * math.log(lam) / n)
    return theta_star, n * theta_star, PointMass(theta_star)
