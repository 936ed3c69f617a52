"""Quadrature helpers used by prior validation and Bayes-factor evaluation.

Thin wrappers around scipy's adaptive QUADPACK routines that (a) always
return an error estimate alongside the value, (b) raise when the
estimated error exceeds the requested tolerance, and (c) handle the
improper directions (precision -> 0, parameter -> infinity) that occur in
the marginal-likelihood integrals.  `log_quad` integrates a peaked
integrand given by its logarithm, which every oracle route for a Bayes
factor needs.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate as _si
from scipy.optimize import minimize_scalar

__all__ = ["QuadratureError", "quad", "log_quad", "gauss_legendre_nodes"]

DEFAULT_TOL = 1e-10
# subintervals QUADPACK may bisect into before it gives up
LIMIT = 200
# exp() overflows above ~709.8: an integrand this far above its located
# peak means the peak search missed the maximum
MAX_LOG_ABOVE_PEAK = 700.0


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""

    def __init__(self, message, value=None, error=None):
        super().__init__(message)
        self.value = value
        self.error = error


def quad(f, a, b, tol=DEFAULT_TOL):
    """Integrate f over (a, b); endpoints may be +-inf.

    Returns (value, error_estimate).  Raises QuadratureError when the
    estimate exceeds max(tol, tol*|value|).
    """
    value, err = _si.quad(f, a, b, epsabs=tol, epsrel=tol, limit=LIMIT)
    if err > max(tol, tol * abs(value)) * 10:
        raise QuadratureError(
            f"quadrature error estimate {err:.3e} exceeds tolerance for value {value:.6e}",
            value=value,
            error=err,
        )
    return value, err


def log_quad(log_f, a, b, bracket, tol=DEFAULT_TOL):
    """log of the integral of exp(log_f) over (a, b); endpoints may be +-inf.

    The peak of log_f is located on the finite interval `bracket` and
    factored out, so the integrand handed to `quad` peaks at 1: its
    absolute tolerance then acts relatively however large or small the
    integral is.  The integral is split at the peak, so the adaptive rule
    cannot step over a narrow one.  Raises QuadratureError when log_f is
    not finite at the peak, when it rises more than e^700 above the peak
    (the bracket missed the maximum), or when the integral is not
    positive.
    """

    def neg_log_f(x):
        val = log_f(x)
        # finite, so the optimizer can still compare points where f is 0
        return -val if math.isfinite(val) else 1e300

    peak = float(minimize_scalar(neg_log_f, bounds=bracket, method="bounded").x)
    log_peak = log_f(peak)
    if not math.isfinite(log_peak):
        raise QuadratureError(f"log-integrand is {log_peak} at its located peak x = {peak:.6g}")

    def shifted(x):
        lg = log_f(x) - log_peak
        if lg > MAX_LOG_ABOVE_PEAK:
            raise QuadratureError(
                f"the integrand at x = {x:.6g} is e^{lg:.0f} times its located peak"
            )
        return math.exp(lg)

    val = quad(shifted, a, peak, tol=tol)[0] + quad(shifted, peak, b, tol=tol)[0]
    if not val > 0:
        raise QuadratureError(f"integral {val!r} is not positive", value=val)
    return log_peak + math.log(val)


def gauss_legendre_nodes(n: int, a: float, b: float):
    """Gauss-Legendre nodes and weights mapped to the interval (a, b).

    Used for batch evaluation of smooth integrands over many parameter
    values at once; the adaptive routines above remain the accuracy
    reference.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w
