"""Bayes-factor evaluation for every problem in the catalogue.

Three evaluation styles, always as functions of the sufficient summary:

* closed forms (conjugate normal priors, point masses, the two-sample
  and subset-selection constants kappa / kappa'); the Gaussian t-test and
  regression priors reduce to the subset-selection and known-variance
  conjugate forms, and the CLI evaluates them that way;
* adaptive quadrature over the prior;
* power-series forms for the t-test and regression problems, built from
  the even moments of the damped prior density, with a direct
  nested-quadrature route alongside.  Both are test oracles for the
  closed forms and hold for any symmetric prior.

All data-independent constants are computed explicitly so that the
calibrated thresholds lambda are exact numbers, not ratios.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
from scipy import special
from scipy.optimize import brentq

from .expfamily import ExpFamilyModel
from .integrate import gauss_legendre_nodes, log_quad, quad
from .priors import (
    DensityPrior,
    NormalMeanPrec,
    PointMass,
    Prior,
    ScaledSymmetricPrior,
    SphericalPrior,
    SymmetricPaired,
)

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


# ---------------------------------------------------------------------------
# One-sided exponential-family Bayes factors


def bf_one_sided(
    model: ExpFamilyModel,
    prior: Prior,
    t,
    n: int,
    theta0: float = 0.0,
    tol: float = 1e-10,
):
    """B(t) = integral of the likelihood ratio against theta0 over the prior.

    Monotone increasing in t for priors supported above theta0.
    Closed forms are used for point masses and (on the normal model)
    normal priors; anything else goes through adaptive quadrature.
    """
    t = np.asarray(t, dtype=float)
    if isinstance(prior, PointMass):
        return np.exp(model.log_ratio(t, prior.theta1, theta0, n))
    if isinstance(prior, NormalMeanPrec) and model.name == "normal_mean_sd1":
        if prior.mean != theta0:
            raise NotImplementedError("conjugate closed form requires prior mean theta0")
        return bf_one_sided_normal_conjugate(t - n * theta0, n, prior.precision)
    # generic adaptive quadrature over the prior support
    lo, hi = prior.support
    out = np.empty(t.shape if t.shape else (1,))
    flat = np.atleast_1d(t)
    for i, ti in enumerate(flat):
        val, _ = quad(
            lambda th: math.exp(float(model.log_ratio(ti, th, theta0, n)) + float(prior.logpdf(th))),
            lo,
            hi,
            tol=tol,
        )
        out[i] = val
    return out.reshape(t.shape) if t.shape else float(out[0])


def bf_one_sided_normal_conjugate(t, n: int, tau: float):
    """Normal model, full-line N(0, 1/tau) prior: the classic conjugate form.

    B = sqrt(tau/(tau+n)) * exp(t^2 / (2(n+tau))) with t = sum(x_i).
    """
    t = np.asarray(t, dtype=float)
    return np.sqrt(tau / (tau + n)) * np.exp(t**2 / (2.0 * (n + tau)))


def bf_one_sided_normal_halfnormal(t, n: int, tau: float):
    """Normal model, half-normal prior on theta > 0 with precision tau."""
    t = np.asarray(t, dtype=float)
    s = n + tau
    return 2.0 * np.sqrt(tau / s) * np.exp(t**2 / (2.0 * s)) * special.ndtr(t / np.sqrt(s))


def bf_one_sided_normal_exponential(t, n: int, rate: float):
    """Normal model, Exponential(rate) prior on theta > 0."""
    t = np.asarray(t, dtype=float)
    b = t - rate
    return (
        rate
        * np.sqrt(2.0 * np.pi / n)
        * np.exp(b**2 / (2.0 * n))
        * special.ndtr(b / np.sqrt(n))
    )


# ---------------------------------------------------------------------------
# Two-sided exponential-family Bayes factors


def bf_two_sided(
    model: ExpFamilyModel,
    prior: SymmetricPaired,
    t,
    n: int,
    theta0: float = 0.0,
    tol: float = 1e-10,
):
    """Two-sided Bayes factor for a symmetric-paired prior.

    B(t) = int_{theta>theta0} [g(t,theta) + g(t,r(theta))] w(theta) dtheta
    where w is the prior's half-line weight; convex in t, with equal
    values at any calibrated critical pair by construction of r.
    """
    t = np.asarray(t, dtype=float)
    lo = prior.theta0
    hi = prior.base.support[1]

    def integrand(ti, th):
        w = math.exp(float(prior.half_weight_log(th)))
        return float(model.pair_sum(ti, th, prior.r(th), theta0, n)) * w

    flat = np.atleast_1d(t)
    out = np.empty(flat.shape)
    for i, ti in enumerate(flat):
        val, _ = quad(lambda th: integrand(ti, th), lo, hi, tol=tol)
        out[i] = val
    return out.reshape(t.shape) if t.shape else float(out[0])


def bf_two_sided_normal_conjugate(t, n: int, tau: float):
    """Normal model, symmetric N(0, 1/tau) prior: same conjugate form."""
    return bf_one_sided_normal_conjugate(t, n, tau)


# ---------------------------------------------------------------------------
# Power series (test oracles for the Gaussian closed forms)


def _power_series(log_coefficient, x, tol: float, max_terms: int):
    """sum_j a_j x^j for x >= 0, given j -> log a_j.

    The coefficients overflow floats at high order, so each term is formed
    in log space instead of accumulating powers.  Summation stops once the
    largest new term falls below tol times the smallest partial sum.
    """
    with np.errstate(divide="ignore"):
        log_x = np.log(x)
    total = np.full(x.shape, math.exp(log_coefficient(0)))
    for j in range(1, max_terms + 1):
        term = np.exp(log_coefficient(j) + j * log_x)
        total += term
        if np.max(term) < tol * np.min(total):
            return total if total.size > 1 else float(total[0])
    raise NumericalIntegrityError(f"series did not converge within {max_terms} terms")


# ---------------------------------------------------------------------------
# One-sample t-test (unknown variance), series in xbar^2 / sum(x^2)


class TTestBf:
    """Bayes factor for the mean of a normal with unknown variance.

    Scaled symmetric prior on the mean given the precision, diffuse
    1/phi prior on the precision.  B is a power series in
    u = xbar^2 / sum(x_i^2), a monotone function of the squared
    t-statistic; coefficients come from the even moments of
    h*(s) = exp(-n s^2/2) h(s).
    """

    def __init__(self, h: ScaledSymmetricPrior, n: int, tol: float = 1e-12, max_terms: int = 3000):
        if n < 2:
            raise ValueError("need n >= 2")
        self.h = h
        self.n = n
        self.tol = tol
        self.max_terms = max_terms
        self._log_coeffs = [h.log_even_moment(0, damping=n)]

    def log_coefficient(self, j: int) -> float:
        """log a*_j, a*_j = m_{2j} (2 n^2)^j Gamma(n/2+j) / ((2j)! Gamma(n/2))."""
        while len(self._log_coeffs) <= j:
            k = len(self._log_coeffs)
            self._log_coeffs.append(
                self.h.log_even_moment(k, damping=self.n)
                + k * math.log(2.0 * self.n**2)
                + special.gammaln(self.n / 2 + k)
                - special.gammaln(self.n / 2)
                - special.gammaln(2 * k + 1)
            )
        return self._log_coeffs[j]

    def series(self, u):
        """Sum of the series at u = xbar^2/sum(x^2); u in [0, 1/n]."""
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if np.any(u < 0) or np.any(u > 1.0 / self.n + 1e-12):
            raise ValueError("u must lie in [0, 1/n]")
        return _power_series(self.log_coefficient, u, self.tol, self.max_terms)

    def __call__(self, xbar, sum_sq):
        xbar = np.asarray(xbar, dtype=float)
        sum_sq = np.asarray(sum_sq, dtype=float)
        return self.series(xbar**2 / sum_sq)

    def from_t_squared(self, t_sq):
        """Evaluate through the monotone map u = (1/n) t^2 / ((n-1) + t^2)."""
        t_sq = np.asarray(t_sq, dtype=float)
        return self.series((1.0 / self.n) * t_sq / ((self.n - 1) + t_sq))

    def crosscheck(self, xbar: float, sum_sq: float, rtol: float = 1e-6) -> float:
        """Series vs nested-quadrature evaluation; raise on disagreement."""
        b_series = float(self(xbar, sum_sq))
        b_quad = bf_t_test_quadrature(xbar, sum_sq, self.n, self.h)
        if abs(b_series - b_quad) > 10 * rtol * abs(b_quad):
            raise NumericalIntegrityError(
                f"t-test BF series {b_series!r} vs quadrature {b_quad!r}"
            )
        return b_series


def bf_t_test_quadrature(xbar: float, sum_sq: float, n: int, h: ScaledSymmetricPrior) -> float:
    """Direct nested-quadrature evaluation of the t-test Bayes factor.

    B = 1/Gamma(n/2) * int_0^inf w^{n/2-1} e^{-w} I(c sqrt(w)) dw with
    c = n*xbar*sqrt(2/sum_sq) and I(z) = int e^{z s} e^{-n s^2/2} h(s) ds.
    """
    c = n * xbar * math.sqrt(2.0 / sum_sq)

    def log_inner(z):
        mu = z / n  # the peak of e^{z s - n s^2/2}
        return log_quad(
            lambda s: s * (z - 0.5 * n * s) + h.log_h(s),
            -np.inf,
            np.inf,
            (min(0.0, mu) - 1.0, max(0.0, mu) + 1.0),
            tol=1e-12,
        )

    def log_outer(w):
        if w <= 0:
            return -np.inf
        return (n / 2 - 1) * math.log(w) - w + log_inner(c * math.sqrt(w))

    # for the Gaussian h the outer log-integrand is (n/2 - 1) log w -
    # (1 - n nu/(n+1)) w with nu = n xbar^2/sum_sq <= 1, so its peak lies
    # below (n/2 - 1)(n + 1)
    log_b = log_quad(log_outer, 0.0, np.inf, (0.0, n * (n + 1.0)), tol=1e-10)
    return _exp_b(log_b - special.gammaln(n / 2))


# ---------------------------------------------------------------------------
# Regression, known variance: radial Bayes factor psi(|T|)


def _log_sphere_even_moment_factor(p: int, j: int) -> float:
    """log E[(u . s_hat)^{2j}] for s_hat uniform on the unit (p-1)-sphere."""
    out = 0.0
    for i in range(1, j + 1):
        out += math.log(2 * i - 1) - math.log(p + 2 * i - 2)
    return out


def _log_radial_damped_moment(prior: SphericalPrior, k: int) -> float:
    """log of int |s|^{2k} exp(-|s|^2/2) pi(s) ds for a spherical prior."""
    q = prior.p - 1 + 2 * k

    def log_f(r):
        if r <= 0:
            return -np.inf
        return q * math.log(r) - 0.5 * r * r + prior.log_radial_density(r)

    # the peak of r^q e^{-r^2/2} is sqrt(q); the prior only pulls it inwards
    return math.log(prior.surface) + log_quad(
        log_f, 0.0, np.inf, (0.0, math.sqrt(q) + 30.0), tol=1e-12
    )


def _log_angular_mean_exp(p: int, z: float) -> float:
    """Log of the angular mean, stable for large z."""
    if z == 0.0:
        return 0.0
    if p == 1:
        # log cosh without overflow
        return abs(z) + math.log1p(math.exp(-2.0 * abs(z))) - math.log(2.0)
    nu = p / 2.0 - 1.0
    return (
        special.gammaln(p / 2.0)
        + nu * (math.log(2.0) - math.log(z))
        + math.log(float(special.ive(nu, z)))
        + abs(z)
    )


class RegressionKnownVarBf:
    """psi(|T|) for a spherically symmetric prior on the coefficients.

    Series route: B = sum_j a_j |T|^j with a_j built from radial moments
    of exp(-rho^2/2) times the prior.  Quadrature route: radial integral
    of the angular mean of exp(rho * |T|_2).
    """

    def __init__(self, prior: SphericalPrior, tol: float = 1e-12, max_terms: int = 3000):
        self.prior = prior
        self.p = prior.p
        self.tol = tol
        self.max_terms = max_terms
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
        return _power_series(self.log_coefficient, t_abs, self.tol, self.max_terms)

    def quadrature(self, t_abs: float) -> float:
        """Radial-integral evaluation at |T| = t_abs."""
        s = math.sqrt(t_abs)
        p = self.p

        def log_f(r):
            if r <= 0:
                return -np.inf
            return (
                (p - 1) * math.log(r)
                + self.prior.log_radial_density(r)
                - 0.5 * r * r
                + _log_angular_mean_exp(p, r * s)
            )

        # e^{r s - r^2/2} peaks at r = s
        log_b = log_quad(log_f, 0.0, np.inf, (0.0, s + math.sqrt(p) + 30.0), tol=1e-11)
        return _exp_b(math.log(self.prior.surface) + log_b)

    def __call__(self, t_vec=None, t_abs=None):
        """Evaluate from the statistic vector (or its squared norm)."""
        if t_abs is None:
            t_vec = np.asarray(t_vec, dtype=float)
            t_abs = np.sum(t_vec**2, axis=-1)
        return self.series(t_abs)

    def crosscheck(self, t_abs: float, rtol: float = 1e-6) -> float:
        b_series = float(self.series(t_abs))
        b_quad = self.quadrature(t_abs)
        if abs(b_series - b_quad) > 10 * rtol * abs(b_quad):
            raise NumericalIntegrityError(
                f"radial BF series {b_series!r} vs quadrature {b_quad!r}"
            )
        return b_series


def bf_regression_known_var_gaussian(t_abs, p: int, tau: float):
    """Closed conjugate form for the spherical Gaussian prior N(0, I/tau)."""
    t_abs = np.asarray(t_abs, dtype=float)
    return (tau / (1.0 + tau)) ** (p / 2.0) * np.exp(t_abs / (2.0 * (1.0 + tau)))


# ---------------------------------------------------------------------------
# Regression, unknown variance: series in T = y'Hy / y'y


class RegressionUnknownVarBf:
    """Bayes factor for the global F-test with unknown error variance.

    Scaled spherical prior phi^{p/2} h(sqrt(phi) delta) on the
    coefficients, diffuse 1/phi on the precision.  B is a power series
    in T = y'Hy/y'y = F/(kappa + F), kappa = (n-p)/p.
    """

    def __init__(self, h: SphericalPrior, n: int, tol: float = 1e-12, max_terms: int = 2000):
        self.h = h
        self.p = h.p
        self.n = n
        if n <= self.p:
            raise ValueError("need n > p")
        self.tol = tol
        self.max_terms = max_terms
        self._log_coeffs = []

    @property
    def kappa(self) -> float:
        """F = kappa * T/(1-T)."""
        return (self.n - self.p) / self.p

    def log_coefficient(self, j: int) -> float:
        """log a*_j, a*_j = a_j 2^j Gamma(n/2+j)/Gamma(n/2)."""
        while len(self._log_coeffs) <= j:
            k = len(self._log_coeffs)
            self._log_coeffs.append(
                _log_sphere_even_moment_factor(self.p, k)
                + _log_radial_damped_moment(self.h, k)
                - special.gammaln(2 * k + 1)
                + k * math.log(2.0)
                + special.gammaln(self.n / 2 + k)
                - special.gammaln(self.n / 2)
            )
        return self._log_coeffs[j]

    def series(self, t_hat):
        """B at T = y'Hy/y'y in [0, 1)."""
        t_hat = np.atleast_1d(np.asarray(t_hat, dtype=float))
        if np.any(t_hat < 0) or np.any(t_hat >= 1):
            raise ValueError("T must lie in [0, 1)")
        return _power_series(self.log_coefficient, t_hat, self.tol, self.max_terms)

    def quadrature(self, t_hat: float) -> float:
        """Nested-quadrature evaluation (independent of the series)."""
        p, n = self.p, self.n
        s_norm = math.sqrt(t_hat)  # |T|_2 / sqrt(y'y)

        def log_inner(z):
            def log_f(r):
                if r <= 0:
                    return -np.inf
                return (
                    (p - 1) * math.log(r)
                    + self.h.log_radial_density(r)
                    - 0.5 * r * r
                    + _log_angular_mean_exp(p, r * z)
                )

            return log_quad(log_f, 0.0, np.inf, (0.0, max(4.0, 2.0 * z)), tol=1e-11)

        def log_outer(w):
            if w <= 0:
                return -np.inf
            return (n / 2 - 1) * math.log(w) - w + log_inner(math.sqrt(2.0 * w) * s_norm)

        # the inner integral grows at most like e^{T w}, so the outer peak
        # lies below (n/2 - 1)/(1 - T)
        log_b = log_quad(log_outer, 0.0, np.inf, (0.0, n / (1.0 - t_hat)), tol=1e-9)
        return _exp_b(math.log(self.h.surface) + log_b - special.gammaln(n / 2))

    def __call__(self, yHy, yy):
        yHy = np.asarray(yHy, dtype=float)
        yy = np.asarray(yy, dtype=float)
        return self.series(yHy / yy)

    def from_f(self, f):
        """Evaluate through T = F~/(1 + F~) with F~ = F * p/(n-p)."""
        f = np.asarray(f, dtype=float)
        f_raw = f / self.kappa
        return self.series(f_raw / (1.0 + f_raw))

    def crosscheck(self, t_hat: float, rtol: float = 1e-6) -> float:
        b_series = float(self.series(t_hat))
        b_quad = self.quadrature(t_hat)
        if abs(b_series - b_quad) > 10 * rtol * abs(b_quad):
            raise NumericalIntegrityError(
                f"F-test BF series {b_series!r} vs quadrature {b_quad!r}"
            )
        return b_series


# ---------------------------------------------------------------------------
# Two-sample means


class TwoSampleKnownVarBf:
    """B = kappa * exp(kappa' (xbar1 - xbar2)^2), known precisions.

    kappa = sqrt(c/(1+c)); kappa' = n1 tau1 n2 tau2 /
    (2 (1+c) (n1 tau1 + n2 tau2)).
    """

    def __init__(self, n1: int, n2: int, tau1: float, tau2: float, c: float):
        if c <= 0 or tau1 <= 0 or tau2 <= 0:
            raise ValueError("c, tau1, tau2 must be positive")
        self.n1, self.n2, self.tau1, self.tau2, self.c = n1, n2, tau1, tau2, c
        a, b = n1 * tau1, n2 * tau2
        self.kappa = math.sqrt(c / (1.0 + c))
        self.kappa_prime = a * b / (2.0 * (1.0 + c) * (a + b))

    def __call__(self, xbar1, xbar2):
        d2 = (np.asarray(xbar1, dtype=float) - np.asarray(xbar2, dtype=float)) ** 2
        return self.kappa * np.exp(self.kappa_prime * d2)

    def from_t(self, t):
        """Evaluate from the decision statistic T = (xbar1 - xbar2)^2."""
        return self.kappa * np.exp(self.kappa_prime * np.asarray(t, dtype=float))


class TwoSampleTBf:
    """Two-sample t-test Bayes factor, B = kappa (1 - kappa' Ttilde^2)^(-n/2).

    With m = n1 n2 / n: kappa = sqrt(c/(m+c)), kappa' = m^2/(m+c), and
    Ttilde^2 = (xbar2-xbar1)^2 / ((n-1) S^2) = T^2/(1 + T^2 m).
    """

    def __init__(self, n1: int, n2: int, c: float):
        if n1 < 2 or n2 < 2 or c <= 0:
            raise ValueError("need n1, n2 >= 2 and c > 0")
        self.n1, self.n2, self.c = n1, n2, c
        self.n = n1 + n2
        self.m = n1 * n2 / self.n
        self.kappa = math.sqrt(c / (self.m + c))
        self.kappa_prime = self.m**2 / (self.m + c)

    def __call__(self, xbar1, xbar2, s1_sq, s2_sq):
        d = np.asarray(xbar2, dtype=float) - np.asarray(xbar1, dtype=float)
        total_ss = (
            (self.n1 - 1) * np.asarray(s1_sq, dtype=float)
            + (self.n2 - 1) * np.asarray(s2_sq, dtype=float)
            + self.m * d**2
        )
        t_tilde_sq = d**2 / total_ss
        arg = 1.0 - self.kappa_prime * t_tilde_sq
        if np.any(arg <= 0):
            raise NumericalIntegrityError("kappa' * Ttilde^2 >= 1: invalid constants or data")
        return self.kappa * arg ** (-self.n / 2.0)

    def from_t(self, t):
        """Evaluate from T = (xbar2-xbar1)/sqrt((n1-1)S1^2 + (n2-1)S2^2)."""
        t_sq = np.asarray(t, dtype=float) ** 2
        t_tilde_sq = t_sq / (1.0 + t_sq * self.m)
        arg = 1.0 - self.kappa_prime * t_tilde_sq
        return self.kappa * arg ** (-self.n / 2.0)


# ---------------------------------------------------------------------------
# Variance ratio (one-sided, theta > 1)


# Draws per block in the batch route of VarianceRatioBf: one block of
# 512 x nodes float64 values (800 kB at 200 nodes) is the only temporary.
_ROW_BLOCK = 512


class VarianceRatioBf:
    """B(F) = kappa * int_{theta>1} theta^{n2/2} ((F+1)/(F+theta))^{n/2} dpi.

    kappa is not identified under the diffuse nuisance priors and is
    fixed at 1.  Batch evaluation uses fixed Gauss-Legendre nodes on the
    transformed half-line, which keeps B exactly monotone in F; the
    adaptive path is used for high-accuracy single values.

    With r = 1/(1+F) and c_j = theta_j - 1 the batch route is
    B(F) = kappa * sum_j w'_j (1 + c_j r)^(-n/2), where the node weight
    w'_j = w_j theta_j^{n2/2} pi(theta_j) / (1-u_j)^2 folds the
    Gauss-Legendre weight, the Jacobian, theta^{n2/2} and the prior
    density together.  Every base is >= 1, so each power lies in (0, 1].
    """

    def __init__(self, prior: Prior, n1: int, n2: int, kappa: float = 1.0, nodes: int = 200):
        self.prior = prior
        self.n1, self.n2 = n1, n2
        self.n = n1 + n2
        self.kappa = kappa
        if isinstance(prior, PointMass):
            if prior.theta1 < 1.0:
                raise ValueError("prior must sit on theta >= 1")
            self._nodes = None
        else:
            lo, hi = prior.support
            if lo < 1.0 - 1e-12:
                raise ValueError("prior must be supported on theta > 1")
            # theta = 1 + u/(1-u) maps (0,1) -> (1, inf)
            u, w = gauss_legendre_nodes(nodes, 0.0, 1.0)
            theta = 1.0 + u / (1.0 - u)
            log_weight = (
                np.log(w)
                - 2.0 * np.log1p(-u)
                + (n2 / 2.0) * np.log(theta)
                + np.asarray(prior.logpdf(theta), dtype=float)
            )
            self._nodes = (theta - 1.0, np.exp(log_weight))

    def _integrand(self, f, theta):
        return theta ** (self.n2 / 2.0) * ((f + 1.0) / (f + theta)) ** (self.n / 2.0)

    def __call__(self, f):
        f = np.asarray(f, dtype=float)
        if isinstance(self.prior, PointMass):
            return self.kappa * self._integrand(f, self.prior.theta1)
        c, weight = self._nodes
        r = 1.0 / (1.0 + f.ravel())
        vals = np.empty(r.shape)
        block = np.empty((min(_ROW_BLOCK, r.size), c.size))
        for start in range(0, r.size, _ROW_BLOCK):
            rows = r[start : start + _ROW_BLOCK]
            x = block[: rows.size]
            np.multiply(rows[:, None], c, out=x)
            x += 1.0
            np.power(x, -self.n / 2.0, out=x)
            np.dot(x, weight, out=vals[start : start + rows.size])
        vals *= self.kappa
        return vals.reshape(f.shape) if f.shape else float(vals[0])

    def adaptive(self, f: float, tol: float = 1e-10) -> float:
        """Adaptive-quadrature evaluation of a single value."""
        if isinstance(self.prior, PointMass):
            return float(self(f))
        lo, hi = self.prior.support
        val, _ = quad(
            lambda th: self._integrand(f, th) * math.exp(float(self.prior.logpdf(th))),
            max(lo, 1.0),
            hi,
            tol=tol,
        )
        return self.kappa * val


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
        t = np.asarray(t_stat, dtype=float)
        if np.any(t < 0) or np.any(t >= 1):
            raise ValueError("T must lie in [0, 1)")
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


def subjective_t_from_f(f):
    """T = 1/4 - F/(1+F)^2; invariant under F -> 1/F."""
    f = np.asarray(f, dtype=float)
    out = 0.25 - f / (1.0 + f) ** 2
    return out if out.shape else float(out)


# ---------------------------------------------------------------------------
# Point-mass threshold prior (UMPBT-style construction)


def johnson_umpbt_threshold(
    model: ExpFamilyModel, lam: float, n: int, theta0: float = 0.0
):
    """Minimizer theta* of g(theta) = (log lam + n(b(theta)-b(theta0)))/(theta-theta0).

    theta* solves the first-order condition
    n[(theta-theta0) b'(theta) - (b(theta)-b(theta0))] = log lam, whose
    left side rises from 0 at theta0 for every convex b.  Returns
    (theta_star, g_min, prior) where prior is the point mass at
    theta_star.  For lam -> 1+ the minimizer collapses to the boundary
    theta0; that case is reported with theta_star = theta0.
    """
    if lam < 1.0:
        raise ValueError("lam must be >= 1")
    log_lam = math.log(lam)
    if log_lam == 0.0:
        return theta0, float("nan"), PointMass(theta0)
    b0 = float(model.b(theta0))

    def first_order(th):
        return n * ((th - theta0) * float(model.db(th)) - (float(model.b(th)) - b0)) - log_lam

    # widen the bracket: double its width on an unbounded domain, halve
    # the gap to a finite upper end otherwise
    dom_hi = model.theta_domain[1]
    hi = theta0 + 1.0 if not np.isfinite(dom_hi) else 0.5 * (theta0 + dom_hi)
    for _ in range(60):
        if first_order(hi) >= 0:
            break
        hi = 0.5 * (hi + dom_hi) if np.isfinite(dom_hi) else 2.0 * hi - theta0
    else:
        raise RuntimeError(f"no interior minimum: the first-order condition is negative at {hi:.6g}")
    theta_star = brentq(first_order, theta0, hi, xtol=1e-15)
    g_min = (log_lam + n * (float(model.b(theta_star)) - b0)) / (theta_star - theta0)
    return theta_star, g_min, PointMass(theta_star)
