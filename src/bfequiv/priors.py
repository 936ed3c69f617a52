"""Priors on the hypothesized parameter and on nuisance parameters.

Hypothesis priors come in five kinds: point mass, generic density on an
interval, normal with mean/precision, half-line densities (for one-sided
tests), and symmetric-paired densities for two-sided exponential-family
tests, built from a half-line base and the pairing map r(theta) that
makes the Bayes factor equal at both critical values.

Nuisance priors are declarative: GammaPrec is a validated record of a
proper Gamma(a, b) prior on a precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .expfamily import ExpFamilyModel
from .integrate import quad

__all__ = [
    "Prior",
    "PointMass",
    "DensityPrior",
    "NormalMeanPrec",
    "SymmetricPaired",
    "half_normal_prior",
    "exponential_prior",
    "NuisancePrior",
    "GammaPrec",
    "ScaledSymmetricPrior",
    "SphericalPrior",
    "standard_normal_h",
    "solve_pairing",
    "build_symmetric_class_member",
]

MASS_TOL = 1e-8


class Prior:
    """Base class: a probability measure over the hypothesized parameter."""

    support: Tuple[float, float]
    proper: bool = True

    def logpdf(self, theta):
        raise NotImplementedError

    def sample(self, rng, k: int = 1):
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

    def sample(self, rng, k: int = 1):
        return np.full(k, self.theta1)


class DensityPrior(Prior):
    """Prior given by an unnormalized log-density on an interval.

    The normalizing constant is computed at construction by adaptive
    quadrature; construction fails if the density is not integrable.
    Sampling uses a cached inverse-CDF table on a transformed grid.
    """

    def __init__(self, log_density: Callable, support: Tuple[float, float], grid_size: int = 4097):
        a, b = support
        if not a < b:
            raise ValueError("support must be a nonempty interval")
        self._log_density = log_density
        self.support = (a, b)
        z, _ = quad(lambda x: math.exp(log_density(x)), a, b, tol=MASS_TOL)
        if not np.isfinite(z) or z <= 0:
            raise ValueError("density is not integrable over its support")
        self._log_z = math.log(z)
        self._grid_size = grid_size
        self._cdf_cache = None

    def logpdf(self, theta):
        scalar = np.isscalar(theta) or np.ndim(theta) == 0
        arr = np.atleast_1d(np.asarray(theta, dtype=float))
        out = np.full(arr.shape, -np.inf)
        a, b = self.support
        inside = (arr >= a) & (arr <= b)
        if np.any(inside):
            vec = np.vectorize(self._log_density, otypes=[float])
            out[inside] = vec(arr[inside]) - self._log_z
        return float(out[0]) if scalar else out

    def _grid(self):
        if self._cdf_cache is None:
            a, b = self.support
            # map (a,b) to a finite grid; unbounded ends via tan transform
            lo = a if np.isfinite(a) else None
            hi = b if np.isfinite(b) else None
            if lo is None or hi is None:
                u = np.linspace(-0.5 * np.pi + 1e-6, 0.5 * np.pi - 1e-6, self._grid_size)
                center = 0.0
                if lo is not None:
                    x = lo + np.tan(np.linspace(1e-8, 0.5 * np.pi - 1e-6, self._grid_size))
                elif hi is not None:
                    x = hi - np.tan(np.linspace(0.5 * np.pi - 1e-6, 1e-8, self._grid_size))
                else:
                    x = center + np.tan(u)
            else:
                x = np.linspace(lo, hi, self._grid_size)
            dens = np.exp(np.asarray(self.logpdf(x), dtype=float))
            cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(x))])
            cdf /= cdf[-1]
            keep = np.concatenate([[True], np.diff(cdf) > 0])
            self._cdf_cache = (x[keep], cdf[keep])
        return self._cdf_cache

    def sample(self, rng, k: int = 1):
        x, cdf = self._grid()
        u = rng.generator.uniform(size=k)
        return np.interp(u, cdf, x)


@dataclass(frozen=True)
class NormalMeanPrec(Prior):
    """Normal prior with given mean and precision (inverse variance)."""

    mean: float
    precision: float

    def __post_init__(self):
        if self.precision <= 0:
            raise ValueError("precision must be > 0")

    @property
    def support(self):
        return (-np.inf, np.inf)

    def logpdf(self, theta):
        theta = np.asarray(theta, dtype=float)
        return 0.5 * np.log(self.precision / (2 * np.pi)) - 0.5 * self.precision * (theta - self.mean) ** 2

    def sample(self, rng, k: int = 1):
        return rng.generator.normal(self.mean, 1.0 / math.sqrt(self.precision), size=k)


def half_normal_prior(theta0: float, precision: float) -> DensityPrior:
    """Half-normal on (theta0, inf): the positive half of N(theta0, 1/precision)."""
    if precision <= 0:
        raise ValueError("precision must be > 0")

    def logd(x):
        return -0.5 * precision * (x - theta0) ** 2

    return DensityPrior(logd, (theta0, np.inf))


def exponential_prior(theta0: float, rate: float) -> DensityPrior:
    """Exponential(rate) shifted to start at theta0."""
    if rate <= 0:
        raise ValueError("rate must be > 0")
    return DensityPrior(lambda x: -rate * (x - theta0), (theta0, np.inf))


# ---------------------------------------------------------------------------
# Two-sided symmetric class


class SymmetricPaired(Prior):
    """Two-sided prior satisfying pi(theta) = pi(r(theta)).

    Stored as a half-line density weight w on (theta0, inf) plus the
    pairing map r into (-inf, theta0); the density value at r(theta)
    equals the value at theta by construction.  Normalization accounts
    for the Jacobian of r on the mirrored side.
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
        """Log of the half-line weight w(theta) = c * base(theta), theta > theta0."""
        return np.asarray(self.base.logpdf(theta), dtype=float) + self._log_c

    def _invert_r(self, theta_low: float) -> float:
        # r is decreasing from theta0; expand the upper bracket until r crosses
        lo = self.theta0 + 1e-14
        if theta_low >= self.r(lo):
            # within rounding of theta0, where r is locally a reflection
            return self.theta0 + (self.theta0 - theta_low)
        hi = self.theta0 + 1.0
        for _ in range(200):
            if self.r(hi) <= theta_low:
                break
            hi = self.theta0 + 2 * (hi - self.theta0)
        else:
            raise ValueError("could not invert pairing map")
        return brentq(lambda th: self.r(th) - theta_low, self.theta0 + 1e-14, hi, xtol=1e-14)

    def logpdf(self, theta):
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        out = np.empty(theta.shape)
        for i, th in enumerate(theta):
            if th > self.theta0:
                out[i] = float(self.half_weight_log(th))
            elif th == self.theta0:
                out[i] = -np.inf
            else:
                out[i] = float(self.half_weight_log(self._invert_r(th)))
        return out if out.size > 1 else float(out[0])


class PairingError(RuntimeError):
    """No pairing point was found inside the expanded bracket."""


def solve_pairing(
    model: ExpFamilyModel,
    gamma1: float,
    gamma2: float,
    theta: float,
    theta0: float = 0.0,
    n: int = 1,
    tol: float = 1e-13,
) -> float:
    """Paired mirror point r(theta) < theta0 for a two-sided critical pair.

    Solves h(gamma1, theta, r) = h(gamma2, theta, r) in r, where h is the
    sum of the two likelihood ratios against theta0.  The bracket expands
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
        l1 = float(model.log_ratio(gamma1, u, theta0, n))
        l2 = float(model.log_ratio(gamma2, u, theta0, n))
        if l1 == l2:
            return 0.0, -np.inf
        big, small = max(l1, l2), min(l1, l2)
        return (1.0 if l1 > l2 else -1.0), big + math.log1p(-math.exp(small - big))

    def logabs_phi(u):
        return lphi(u)[1]

    lo_dom = model.theta_domain[0]
    hi_dom = model.theta_domain[1]
    eps = 1e-12 * max(1.0, abs(theta0))

    sign_th, target_log = lphi(theta)
    if sign_th >= 0:
        raise PairingError("phi(theta) is not negative above theta0")

    def peak(lo, hi):
        from scipy.optimize import minimize_scalar

        res = minimize_scalar(
            lambda u: -logabs_phi(u), bounds=(lo, hi), method="bounded",
            options={"xatol": 1e-12},
        )
        return float(res.x), logabs_phi(float(res.x))

    # expand a finite window on each side until log|phi| drops below the
    # target, which guarantees a sign change for the bracketed root
    def expand(start, direction, dom):
        end = start + direction
        for _ in range(60):
            nxt = start + 2 * (end - start)
            if np.isfinite(dom):
                nxt = max(nxt, dom + eps) if direction < 0 else min(nxt, dom - eps)
            if logabs_phi(end) < target_log - 1.0 or (np.isfinite(dom) and end == nxt):
                break
            end = nxt
        return end

    left_end = expand(theta0 - eps, -max(1.0, theta - theta0), lo_dom)
    right_end = expand(theta0 + eps, max(1.0, theta - theta0), hi_dom)
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
    root = brentq(residual, lo, hi, xtol=tol, rtol=8.9e-16)
    return float(root)


def build_symmetric_class_member(
    theta0: float, base: DensityPrior, r: Callable[[float], float]
) -> SymmetricPaired:
    """Mirror a proper half-line density through the pairing map r."""
    if not base.proper:
        raise ValueError("base prior must be proper")
    return SymmetricPaired(theta0, base, r)


# ---------------------------------------------------------------------------
# Nuisance priors


class NuisancePrior:
    """Marker base for priors on nuisance parameters."""

    proper: bool


@dataclass(frozen=True)
class GammaPrec(NuisancePrior):
    """Proper Gamma(a, b) prior on a precision."""

    a: float
    b: float
    proper = True

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise ValueError("Gamma hyperparameters must be positive")


# ---------------------------------------------------------------------------
# Scaled symmetric priors for nuisance-variance problems


class ScaledSymmetricPrior:
    """Conditional prior pi(theta | phi) = h(theta * sqrt(phi)) * sqrt(phi).

    h is a symmetric density on the real line; symmetry is checked on a
    grid at construction.
    """

    def __init__(self, h: Callable, grid_half_width: float = 8.0, check_points: int = 101):
        g = np.linspace(0.0, grid_half_width, check_points)
        hv = np.array([h(x) for x in g])
        hm = np.array([h(-x) for x in g])
        if not np.allclose(hv, hm, rtol=1e-10, atol=1e-12):
            raise ValueError("h must be symmetric about 0")
        if np.any(hv < 0):
            raise ValueError("h must be nonnegative")
        self.h = h

    def even_moment(self, k: int, damping: float, tol: float = 1e-12) -> float:
        """m_{2k} of h*(s) = exp(-damping*s^2/2) * h(s), over the whole line."""
        return math.exp(self.log_even_moment(k, damping, tol))

    def log_even_moment(self, k: int, damping: float, tol: float = 1e-12) -> float:
        """log m_{2k}; the full log-peak of the integrand (including h)
        is factored out so high orders neither overflow nor lose relative
        accuracy when the integrand is small in absolute terms."""

        def log_f(s):
            dens = self.h(s)
            if dens <= 0.0:
                return -np.inf
            if s <= 0.0:
                return math.log(dens) if k == 0 else -np.inf
            return 2 * k * math.log(s) - 0.5 * damping * s * s + math.log(dens)

        guess = math.sqrt(2 * k / damping) if k > 0 else 0.0
        res = minimize_scalar(
            lambda s: -log_f(s) if np.isfinite(log_f(s)) else 1e300,
            bounds=(0.0, guess + 30.0),
            method="bounded",
        )
        log_ref = float(-res.fun)
        if not np.isfinite(log_ref):
            raise ValueError(f"moment of order {2 * k} is not positive")

        def shifted(s):
            lg = log_f(s) - log_ref
            return math.exp(lg) if lg > -745.0 else 0.0

        val, _ = quad(shifted, 0.0, np.inf, tol=tol)
        if val <= 0:
            raise ValueError(f"moment of order {2 * k} is not positive")
        # h is symmetric, so the whole-line moment is twice the half-line one
        return log_ref + math.log(2.0 * val)


def standard_normal_h(x):
    """Standard normal density, the default symmetric h."""
    return math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)


class SphericalPrior:
    """Spherically symmetric prior on a p-vector, given by a radial density.

    radial_log is the log of the density as a function of the Euclidean
    norm rho (density w.r.t. p-dimensional Lebesgue measure evaluated at
    any point with |x|_2 = rho).  Normalization is computed at
    construction.
    """

    def __init__(self, p: int, radial_log: Callable[[float], float]):
        if p < 1:
            raise ValueError("p must be >= 1")
        self.p = p
        self._radial_log = radial_log
        surf = 2 * math.pi ** (p / 2) / math.gamma(p / 2)
        z, _ = quad(
            lambda r: surf * r ** (p - 1) * math.exp(radial_log(r)), 0, np.inf, tol=MASS_TOL
        )
        if not np.isfinite(z) or z <= 0:
            raise ValueError("radial density is not integrable")
        self._log_z = math.log(z)
        self.surface = surf

    def log_radial_density(self, rho: float) -> float:
        """Log of the normalized density at radius rho (no underflow)."""
        return float(self._radial_log(rho)) - self._log_z

    def radial_density(self, rho):
        """Normalized density value at radius rho."""
        rho = np.atleast_1d(np.asarray(rho, dtype=float))
        vals = np.array([math.exp(self._radial_log(r) - self._log_z) for r in rho])
        return vals if vals.size > 1 else float(vals[0])

    @staticmethod
    def gaussian(p: int, precision: float = 1.0) -> "SphericalPrior":
        if precision <= 0:
            raise ValueError("precision must be > 0")
        return SphericalPrior(p, lambda r: -0.5 * precision * r * r)
