"""Distribution primitives: densities, CDFs, quantiles and samplers.

Covers the families needed for the null and alternative laws of the
classical test statistics in the catalogue: Normal, chi-square,
Student-t, central and noncentral F, noncentral chi-square.
A ``scale`` multiplier supports statistics that are scaled versions of a
standard law (e.g. a variance ratio distributed as theta * F).

Each CDF, quantile and sampler calls the scipy.special kernel or numpy
Generator method that scipy.stats dispatches to, with the same
arithmetic, so values are bit-for-bit those of scipy.stats without
paying for its import (a large share of a CLI process's start-up time
and memory) or for building a frozen distribution on every call.  The
contract (bit-for-bit agreement with scipy.stats, round-trip quantile
accuracy, noncentral-to-central agreement at zero noncentrality) is
enforced by the test suite.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy import special

__all__ = ["Family", "DistSpec", "pdf", "cdf", "quantile", "sample"]


class Family(enum.Enum):
    NORMAL = "normal"
    CHI_SQUARE = "chi_square"
    STUDENT_T = "student_t"
    FISHER_F = "fisher_f"
    NONCENTRAL_F = "noncentral_f"
    NONCENTRAL_CHI_SQUARE = "noncentral_chi_square"


# family -> (param names, all-positive mask)
_PARAMS = {
    Family.NORMAL: (("mean", "sd"), (False, True)),
    Family.CHI_SQUARE: (("df",), (True,)),
    Family.STUDENT_T: (("df",), (True,)),
    Family.FISHER_F: (("df1", "df2"), (True, True)),
    Family.NONCENTRAL_F: (("df1", "df2", "nc"), (True, True, False)),
    Family.NONCENTRAL_CHI_SQUARE: (("df", "nc"), (True, False)),
}


@dataclass(frozen=True)
class DistSpec:
    """A distribution family with its ordered real parameters.

    ``scale`` multiplies the variate: if Y follows the base law then the
    spec describes X = scale * Y.  scale must be positive.
    """

    family: Family
    params: tuple
    scale: float = 1.0

    def __post_init__(self):
        names, positive = _PARAMS[self.family]
        if len(self.params) != len(names):
            raise ValueError(
                f"{self.family.value} expects parameters {names}, got {self.params}"
            )
        for name, value, must_be_pos in zip(names, self.params, positive):
            if not np.isfinite(value):
                raise ValueError(f"{self.family.value}: {name} must be finite")
            if must_be_pos and value <= 0:
                raise ValueError(f"{self.family.value}: {name} must be > 0")
        if self.family in (Family.NONCENTRAL_F, Family.NONCENTRAL_CHI_SQUARE):
            if self.params[-1] < 0:
                raise ValueError(f"{self.family.value}: noncentrality must be >= 0")
        if self.scale <= 0 or not np.isfinite(self.scale):
            raise ValueError("scale must be positive and finite")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def normal(mean: float, sd: float) -> "DistSpec":
        return DistSpec(Family.NORMAL, (mean, sd))

    @staticmethod
    def chi_square(df: float) -> "DistSpec":
        return DistSpec(Family.CHI_SQUARE, (df,))

    @staticmethod
    def student_t(df: float, scale: float = 1.0) -> "DistSpec":
        return DistSpec(Family.STUDENT_T, (df,), scale)

    @staticmethod
    def fisher_f(df1: float, df2: float, scale: float = 1.0) -> "DistSpec":
        return DistSpec(Family.FISHER_F, (df1, df2), scale)

    @staticmethod
    def noncentral_f(df1: float, df2: float, nc: float, scale: float = 1.0) -> "DistSpec":
        if nc == 0:
            return DistSpec.fisher_f(df1, df2, scale)
        return DistSpec(Family.NONCENTRAL_F, (df1, df2, nc), scale)

    @staticmethod
    def noncentral_chi_square(df: float, nc: float, scale: float = 1.0) -> "DistSpec":
        if nc == 0:
            return DistSpec(Family.CHI_SQUARE, (df,), scale)
        return DistSpec(Family.NONCENTRAL_CHI_SQUARE, (df, nc), scale)


class _Law(NamedTuple):
    """The kernels of one family; ``p`` is ``DistSpec.params``."""

    lower: float  # left end of the support
    cdf: Callable  # (p, x) -> P(Y <= x), for x above `lower`
    quantile: Callable  # (p, q) -> inverse CDF, for 0 < q < 1
    draw: Callable  # (p, numpy Generator, k) -> k variates
    frozen: Callable  # (scipy.stats, p) -> frozen law, used for densities only


# The kernels, and the arithmetic around them, are those of the scipy.stats
# 1.17 `_cdf`, `_ppf` and `_rvs` methods with their loc/scale handling.
_LAWS = {
    Family.NORMAL: _Law(
        -np.inf,
        lambda p, x: special.ndtr((x - p[0]) / p[1]),
        lambda p, q: special.ndtri(q) * p[1] + p[0],
        lambda p, g, k: g.standard_normal(k) * p[1] + p[0],
        lambda st, p: st.norm(loc=p[0], scale=p[1]),
    ),
    Family.CHI_SQUARE: _Law(
        0.0,
        lambda p, x: special.chdtr(p[0], x),
        lambda p, q: 2 * special.gammaincinv(p[0] / 2, q),
        lambda p, g, k: g.chisquare(p[0], k),
        lambda st, p: st.chi2(p[0]),
    ),
    Family.STUDENT_T: _Law(
        -np.inf,
        lambda p, x: special.stdtr(p[0], x),
        lambda p, q: special.stdtrit(p[0], q),
        lambda p, g, k: g.standard_t(p[0], k),
        lambda st, p: st.t(p[0]),
    ),
    Family.FISHER_F: _Law(
        0.0,
        lambda p, x: special.fdtr(p[0], p[1], x),
        lambda p, q: special.fdtri(p[0], p[1], q),
        lambda p, g, k: g.f(p[0], p[1], k),
        lambda st, p: st.f(p[0], p[1]),
    ),
    Family.NONCENTRAL_F: _Law(
        0.0,
        lambda p, x: special.ncfdtr(p[0], p[1], p[2], x),
        lambda p, q: special.ncfdtri(p[0], p[1], p[2], q),
        lambda p, g, k: g.noncentral_f(p[0], p[1], p[2], k),
        lambda st, p: st.ncf(p[0], p[1], p[2]),
    ),
    Family.NONCENTRAL_CHI_SQUARE: _Law(
        0.0,
        lambda p, x: special.chndtr(x, p[0], p[1]),
        lambda p, q: special.chndtrix(q, p[0], p[1]),
        lambda p, g, k: g.noncentral_chisquare(p[0], p[1], k),
        lambda st, p: st.ncx2(p[0], p[1]),
    ),
}


def pdf(d: DistSpec, x):
    """Density of d at x (vectorized)."""
    # No subcommand evaluates a density, so scipy.stats loads only here.
    from scipy import stats

    x = np.asarray(x, dtype=float)
    return _LAWS[d.family].frozen(stats, d.params).pdf(x / d.scale) / d.scale


def cdf(d: DistSpec, x):
    """CDF of d at x (vectorized); a 0-d input gives a scalar."""
    law = _LAWS[d.family]
    x = np.asarray(x, dtype=float) / d.scale
    # the kernels of the positive laws are nan below 0, where the CDF is 0;
    # nan compares false, so a nan x stays nan, as in scipy.stats
    out = np.where(x <= law.lower, 0.0, np.where(x == np.inf, 1.0, law.cdf(d.params, x)))
    return out[()]


def quantile(d: DistSpec, p):
    """Quantile function; p must lie strictly inside (0, 1)."""
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0) or np.any(p >= 1):
        raise ValueError("quantile requires 0 < p < 1")
    return d.scale * _LAWS[d.family].quantile(d.params, p)


def sample(d: DistSpec, rng, k: int):
    """Draw k iid variates using the given RngStream."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return d.scale * _LAWS[d.family].draw(d.params, rng.generator, k)
