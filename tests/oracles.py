"""High-precision oracles for production Bayes factors, in mpmath.

Each oracle returns log B as an mpmath number at ``mp.dps = DPS``, so it
holds where B itself is far past the float range.  The oracles share no
code with the package: they take the problem's parameters, not its
objects.

Variance ratio (`VarianceRatioBf`, F = S1^2/S2^2, n = n1 + n2):

    B(F) = int_{theta>1} theta^{n2/2} ((F+1)/(F+theta))^{n/2} dpi(theta)

* point mass at theta1: the integrand at theta1;
* shifted exponential, rate * exp(-rate (theta - 1)) on theta > 1: a
  tanh-sinh quadrature split at the integrand's peak and at multiples of
  its width there, so no panel steps over the peak.
"""

import mpmath as mp

DPS = 30
# multiples of the peak's width at which the integral is split
_SPLITS = (4, 40)


def variance_ratio_point_mass_log_b(n1, n2, theta1, f):
    with mp.workdps(DPS):
        n, f, theta1 = mp.mpf(n1 + n2), mp.mpf(f), mp.mpf(theta1)
        return n2 / mp.mpf(2) * mp.log(theta1) + n / 2 * (mp.log(f + 1) - mp.log(f + theta1))


def variance_ratio_shifted_exponential_log_b(n1, n2, rate, f):
    with mp.workdps(DPS):
        n, f, rate = mp.mpf(n1 + n2), mp.mpf(f), mp.mpf(rate)
        half_n2, half_n = mp.mpf(n2) / 2, n / 2

        def log_g(th):
            return half_n2 * mp.log(th) + half_n * (mp.log(f + 1) - mp.log(f + th)) + mp.log(rate) - rate * (th - 1)

        # d log_g / d theta = 0 is 2 rate theta^2 + (n1 + 2 rate F) theta - n2 F = 0
        b = n1 + 2 * rate * f
        peak = max(mp.mpf(1), (-b + mp.sqrt(b * b + 8 * rate * n2 * f)) / (4 * rate))
        curvature = half_n2 / peak**2 - half_n / (f + peak) ** 2
        width = 1 / mp.sqrt(curvature) if curvature > 0 else 1 / (rate + half_n / (f + 1))
        points = sorted({mp.mpf(1), peak} | {peak + s * k * width for k in _SPLITS for s in (-1, 1) if peak + s * k * width > 1})
        top = log_g(peak)
        return top + mp.log(mp.quad(lambda th: mp.exp(log_g(th) - top), points + [mp.inf]))
