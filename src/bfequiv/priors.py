"""Priors on the hypothesized parameter.

Hypothesis priors come in four kinds: point mass, generic density on an
interval, half-line densities (for one-sided tests), and symmetric-paired
densities for two-sided normal-mean tests, built from a half-line base and
the pairing map r(theta) that makes the Bayes factor equal at both ends.

The t-test and regression problems put scaled symmetric and spherical
priors on the coefficients; every density is given by its logarithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .integrate import brentq, log_quad, minimize_bounded, quad
from .problems import normal_log_ratio

__all__ = [
    "Prior",
    "PointMass",
    "DensityPrior",
    "SymmetricPaired",
    "half_normal_prior",
    "exponential_prior",
    "ScaledSymmetricPrior",
    "SphericalPrior",
    "standard_normal_log_h",
    "solve_pairing",
    "build_symmetric_class_member",
]

MASS_TOL = 1e-8


class Prior:
    """Base class: a probability measure over the hypothesized parameter."""

    support: Tuple[float, float]

    def logpdf(self, theta):
        raise NotImplementedError


@dataclass(frozen=True)
class PointMass(Prior):
    """Degenerate prior at theta1."""

    theta1: float

    @property
    def support(self):
        return (self.theta1, self.theta1)

    def logpdf(self, theta):
        theta = np.asarray(theta, dtype=float)
        return np.where(theta == self.theta1, 0.0, -np.inf)


class DensityPrior(Prior):
    """Prior given by an unnormalized log-density on an interval.

    ``log_z`` is the log of the density's integral over the support.
    ``log_density`` is also called on arrays, so it must be elementwise.
    """

    def __init__(self, log_density: Callable, support: Tuple[float, float], log_z: float):
        a, b = support
        if not a < b:
            raise ValueError("support must be a nonempty interval")
        self._log_density = log_density
        self.support = (a, b)
        self._log_z = log_z

    def logpdf(self, theta):
        """log density at a scalar (a float) or at each entry of an array;
        the log-density is called once, on the in-support entries."""
        a, b = self.support
        # a float skips np.ndim, which is most of a scalar call's cost
        if isinstance(theta, float) or np.ndim(theta) == 0:
            theta = float(theta)
            return float(self._log_density(theta)) - self._log_z if a <= theta <= b else -math.inf
        arr = np.asarray(theta, dtype=float)
        out = np.full(arr.shape, -np.inf)
        inside = (arr >= a) & (arr <= b)
        out[inside] = self._log_density(arr[inside]) - self._log_z
        return out


def half_normal_prior(theta0: float, precision: float) -> DensityPrior:
    """Half-normal on (theta0, inf): the positive half of N(theta0, 1/precision)."""
    if precision <= 0:
        raise ValueError("precision must be > 0")

    def logd(x):
        return -0.5 * precision * (x - theta0) ** 2

    # half of the N(theta0, 1/precision) normaliser sqrt(2 pi / precision)
    return DensityPrior(logd, (theta0, np.inf), log_z=0.5 * math.log(math.pi / (2.0 * precision)))


def exponential_prior(theta0: float, rate: float) -> DensityPrior:
    """Exponential(rate) shifted to start at theta0."""
    if rate <= 0:
        raise ValueError("rate must be > 0")
    return DensityPrior(lambda x: -rate * (x - theta0), (theta0, np.inf), log_z=-math.log(rate))


# ---------------------------------------------------------------------------
# Two-sided symmetric class


class SymmetricPaired(Prior):
    """Two-sided prior satisfying pi(theta) = pi(r(theta)).

    Stored as a half-line density weight w on (theta0, inf) plus the
    pairing map r into (-inf, theta0); the density value at r(theta)
    equals the value at theta by construction.  Normalization accounts
    for the Jacobian of r on the mirrored side.  The prior is read only
    through its half-line weight (`bf_two_sided`), so it has no logpdf.
    """

    def __init__(self, theta0: float, base: DensityPrior, r: Callable[[float], float]):
        a, _ = base.support
        if not np.isclose(a, theta0):
            raise ValueError("base must be a proper density on (theta0, inf)")
        self.theta0 = theta0
        self.base = base
        self.r = r
        def mass_integrand(th):
            # skip the pairing map in the far tail, where it can underflow
            density = math.exp(base.logpdf(th))
            if density == 0.0:
                return 0.0
            return density * (1.0 + abs(self._r_prime(th)))

        mass, _ = quad(mass_integrand, theta0, base.support[1], tol=MASS_TOL)
        self._log_c = -math.log(mass)
        self.support = (-np.inf, base.support[1])

    def _r_prime(self, theta: float, h: float = 1e-6) -> float:
        step = h * max(1.0, abs(theta - self.theta0))
        if theta - step <= self.theta0:
            # r is only defined above theta0; fall back to a forward difference
            return (self.r(theta + step) - self.r(theta)) / step
        return (self.r(theta + step) - self.r(theta - step)) / (2 * step)

    def half_weight_log(self, theta):
        """Log of the half-line weight w(theta) = c * base(theta), theta > theta0:
        a float at a float theta, else an array."""
        if isinstance(theta, float):
            return self.base.logpdf(theta) + self._log_c
        return np.asarray(self.base.logpdf(theta), dtype=float) + self._log_c


class PairingError(RuntimeError):
    """No pairing point was found inside the expanded bracket."""


def solve_pairing(
    gamma1: float,
    gamma2: float,
    theta: float,
    theta0: float = 0.0,
    n: int = 1,
) -> float:
    """Paired mirror point r(theta) < theta0 for a two-sided critical pair.

    Solves h(gamma1, theta, r) = h(gamma2, theta, r) in r, where h is the
    sum of the two normal-mean likelihood ratios against theta0.  The bracket expands
    geometrically below theta0 (at most 60 doublings).
    """
    if not theta > theta0:
        raise ValueError("theta must exceed theta0")
    if not gamma1 < gamma2:
        raise ValueError("gamma1 must be below gamma2")
    if theta - theta0 < 1e-12 * max(1.0, abs(theta0)):
        # the pairing condition linearizes to a pure reflection at theta0
        return theta0 - (theta - theta0)

    # phi(u) = g(gamma1, u) - g(gamma2, u): negative above theta0, positive
    # below it, unimodal on each side.  The pairing condition is
    # phi(r) = -phi(theta); pick the root on the side of the lower peak
    # that makes r(theta) a decreasing bijection with r(theta0) = theta0.
    # All comparisons use log|phi| so the far tails never underflow.
    def lphi(u):
        """(sign, log|phi(u)|) of phi(u) = g(gamma1, u) - g(gamma2, u)."""
        l1 = float(normal_log_ratio(gamma1, u, theta0, n))
        l2 = float(normal_log_ratio(gamma2, u, theta0, n))
        if l1 == l2:
            return 0.0, -np.inf
        big, small = max(l1, l2), min(l1, l2)
        return (1.0 if l1 > l2 else -1.0), big + math.log1p(-math.exp(small - big))

    def logabs_phi(u):
        return lphi(u)[1]

    eps = 1e-12 * max(1.0, abs(theta0))

    sign_th, target_log = lphi(theta)
    if sign_th >= 0:
        raise PairingError("phi(theta) is not negative above theta0")

    def peak(lo, hi):
        x = float(minimize_bounded(lambda u: -logabs_phi(u), (lo, hi), xatol=1e-12))
        return x, logabs_phi(x)

    # expand a finite window on each side until log|phi| drops below the
    # target, which guarantees a sign change for the bracketed root
    def expand(start, direction):
        end = start + direction
        for _ in range(60):
            if logabs_phi(end) < target_log - 1.0:
                break
            end = start + 2 * (end - start)
        return end

    left_end = expand(theta0 - eps, -max(1.0, theta - theta0))
    right_end = expand(theta0 + eps, max(1.0, theta - theta0))
    r_peak, peak_log = peak(left_end, theta0 - eps)
    th_peak, _ = peak(theta0 + eps, right_end)

    if target_log > peak_log + 1e-9:
        raise PairingError(
            f"no mirror point: needed log-size {target_log:.6e}, "
            f"peak below theta0 is {peak_log:.6e}"
        )
    if target_log >= peak_log:
        return float(r_peak)

    def residual(rv):
        return logabs_phi(rv) - target_log

    if theta <= th_peak:
        lo, hi = r_peak, theta0 - eps
    else:
        lo, hi = left_end, r_peak
    root = brentq(residual, lo, hi, xtol=1e-13, rtol=8.9e-16)
    return float(root)


def build_symmetric_class_member(
    theta0: float, base: DensityPrior, r: Callable[[float], float]
) -> SymmetricPaired:
    """Mirror a proper half-line density through the pairing map r."""
    return SymmetricPaired(theta0, base, r)


# ---------------------------------------------------------------------------
# Scaled symmetric priors for nuisance-variance problems


class ScaledSymmetricPrior:
    """Conditional prior pi(theta | phi) = h(theta * sqrt(phi)) * sqrt(phi).

    h is a symmetric density on the real line, given by its logarithm
    log_h so that its tails never underflow; symmetry is checked on a
    grid over [-8, 8] at construction.
    """

    def __init__(self, log_h: Callable):
        g = np.linspace(0.0, 8.0, 101)
        hv = np.array([log_h(x) for x in g])
        hm = np.array([log_h(-x) for x in g])
        if not np.allclose(hv, hm, rtol=1e-10, atol=1e-12):
            raise ValueError("h must be symmetric about 0")
        self.log_h = log_h

    def log_even_moment(self, k: int, damping: float) -> float:
        """log m_{2k}, m_{2k} the even moment of h*(s) = exp(-damping*s^2/2) * h(s)
        over the whole line: twice the half-line moment, h being symmetric."""
        return math.log(2.0) + log_damped_moment(self.log_h, 2 * k, damping)


def log_damped_moment(log_density: Callable, q: int, damping: float = 1.0) -> float:
    """log of int_0^inf r^q exp(-damping r^2/2) f(r) dr, f = exp(log_density)
    nonincreasing in r, by `log_quad`; the damped moment of the t-test's
    scaled prior and of a spherical prior's radial density alike."""

    def log_f(r):
        if r <= 0.0:
            return log_density(0.0) if q == 0 else -math.inf
        return q * math.log(r) - 0.5 * damping * r * r + log_density(r)

    # r^q e^{-damping r^2/2} peaks at sqrt(q/damping); f only pulls it inwards
    return log_quad(log_f, 0.0, math.inf, (0.0, math.sqrt(q / damping) + 30.0), tol=1e-12)


def standard_normal_log_h(x):
    """Log of the standard normal density, the default symmetric h."""
    return -0.5 * x * x - 0.5 * math.log(2 * math.pi)


class SphericalPrior:
    """Spherically symmetric prior on a p-vector, given by a radial density.

    radial_log is the log of the density as a function of the Euclidean
    norm rho (density w.r.t. p-dimensional Lebesgue measure evaluated at
    any point with |x|_2 = rho).  ``log_z`` is the log of its integral over
    R^p when it is known; otherwise it is computed at construction by
    adaptive quadrature.
    """

    def __init__(self, p: int, radial_log: Callable[[float], float], log_z: float | None = None):
        if p < 1:
            raise ValueError("p must be >= 1")
        self.p = p
        self._radial_log = radial_log
        surf = 2 * math.pi ** (p / 2) / math.gamma(p / 2)
        if log_z is None:
            z, _ = quad(
                lambda r: surf * r ** (p - 1) * math.exp(radial_log(r)), 0, np.inf, tol=MASS_TOL
            )
            if not np.isfinite(z) or z <= 0:
                raise ValueError("radial density is not integrable")
            log_z = math.log(z)
        self._log_z = log_z
        self.surface = surf

    def log_radial_density(self, rho: float) -> float:
        """Log of the normalized density at radius rho (no underflow)."""
        return float(self._radial_log(rho)) - self._log_z

    @staticmethod
    def gaussian(p: int, precision: float = 1.0) -> "SphericalPrior":
        if precision <= 0:
            raise ValueError("precision must be > 0")
        # exp(-precision |x|^2 / 2) integrates to (2 pi / precision)^{p/2}
        return SphericalPrior(
            p, lambda r: -0.5 * precision * r * r, log_z=0.5 * p * math.log(2.0 * math.pi / precision)
        )
