"""Quadrature helpers used by prior validation and Bayes-factor evaluation.

Thin wrappers around scipy's adaptive QUADPACK routines that (a) always
return an error estimate alongside the value, (b) raise when the
estimated error exceeds the requested tolerance, and (c) handle the
improper directions (precision -> 0, parameter -> infinity) that occur in
the marginal-likelihood integrals.
"""

from __future__ import annotations

import numpy as np
from scipy import integrate as _si

__all__ = ["QuadratureError", "quad", "gauss_legendre_nodes"]

DEFAULT_TOL = 1e-10


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""

    def __init__(self, message, value=None, error=None):
        super().__init__(message)
        self.value = value
        self.error = error


def quad(f, a, b, tol=DEFAULT_TOL, limit=200, check=True):
    """Integrate f over (a, b); endpoints may be +-inf.

    Returns (value, error_estimate).  Raises QuadratureError when the
    estimate exceeds max(tol, tol*|value|) and check is True.
    """
    value, err = _si.quad(f, a, b, epsabs=tol, epsrel=tol, limit=limit)
    if check and err > max(tol, tol * abs(value)) * 10:
        raise QuadratureError(
            f"quadrature error estimate {err:.3e} exceeds tolerance for value {value:.6e}",
            value=value,
            error=err,
        )
    return value, err


def gauss_legendre_nodes(n: int, a: float, b: float):
    """Gauss-Legendre nodes and weights mapped to the interval (a, b).

    Used for batch evaluation of smooth integrands over many parameter
    values at once; the adaptive routines above remain the accuracy
    reference.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w
