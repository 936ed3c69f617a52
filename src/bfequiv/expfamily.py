"""One-parameter exponential-family models in natural form.

A model is the triple (b, b', theta_domain) for densities proportional to
exp{theta * d(x) - b(theta)}.  Only the sufficient statistic t = sum d(x_i)
enters, and the base measure never appears: every quantity we compute is a
likelihood ratio, in which it cancels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

__all__ = ["ExpFamilyModel", "normal_mean_model"]


@dataclass(frozen=True)
class ExpFamilyModel:
    """Natural exponential family exp{theta*d(x) - b(theta)}."""

    b: Callable[[np.ndarray], np.ndarray]
    db: Callable[[np.ndarray], np.ndarray]  # b'(theta)
    theta_domain: Tuple[float, float]

    def __post_init__(self):
        lo, hi = self.theta_domain
        if not lo < hi:
            raise ValueError("theta_domain must be a nonempty open interval")

    def log_ratio(self, t, theta2, theta1, n: int):
        """log of the likelihood ratio f(x|theta2)/f(x|theta1) at statistic t.

        t is the sufficient statistic sum_{i<=n} d(x_i); monotone
        increasing in t whenever theta2 > theta1.
        """
        t = np.asarray(t, dtype=float)
        return t * (theta2 - theta1) - n * (self.b(theta2) - self.b(theta1))

    def ratio(self, t, theta2, theta1, n: int):
        return np.exp(self.log_ratio(t, theta2, theta1, n))

    def pair_sum(self, t, theta_hi, theta_lo, theta0: float, n: int):
        """g(t, theta_hi) + g(t, theta_lo) relative to theta0.

        Convex in t; the two-sided Bayes factor integrates this over the
        upper parameter with its paired lower mirror.
        """
        return self.ratio(t, theta_hi, theta0, n) + self.ratio(t, theta_lo, theta0, n)


def normal_mean_model() -> ExpFamilyModel:
    """Unit-variance normal with mean theta: d(x) = x, b(theta) = theta^2/2.

    Sufficient statistic T = sum(x_i).
    """
    return ExpFamilyModel(
        b=lambda th: np.asarray(th, dtype=float) ** 2 / 2.0,
        db=lambda th: np.asarray(th, dtype=float),
        theta_domain=(-np.inf, np.inf),
    )
