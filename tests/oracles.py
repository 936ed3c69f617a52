"""High-precision oracles for production Bayes factors, in mpmath.

Each oracle returns log B as an mpmath number at ``mp.dps = DPS``, so it
holds where B itself is far past the float range.  The oracles share no
code with the package: they take the problem's parameters, not its
objects.

Variance ratio (`VarianceRatioBf`, F = S1^2/S2^2, n = n1 + n2):

    B(F) = int_{theta>1} theta^{n2/2} ((F+1)/(F+theta))^{n/2} dpi(theta)

* point mass at theta1: the integrand at theta1;
* shifted exponential, rate * exp(-rate (theta - 1)) on theta > 1:
  `_log_quad_at_peak`.

One-sided normal mean (n unit-variance draws, t = sum(x_i), theta0 = 0):

    B(t) = int_{theta>0} exp(t theta - n theta^2/2) dpi(theta)

* half-normal, the positive half of N(0, 1/precision), and
  Exponential(rate): `_log_quad_at_peak`.

`_log_quad_at_peak` is a tanh-sinh quadrature split at the integrand's
peak and at multiples of its width there, so no panel steps over the
peak.
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
        return _log_quad_at_peak(log_g, mp.mpf(1), peak, width)


def one_sided_half_normal_log_b(n, precision, t):
    with mp.workdps(DPS):
        s, t, precision = mp.mpf(n + precision), mp.mpf(t), mp.mpf(precision)
        log_c = mp.log(2) + (mp.log(precision) - mp.log(2 * mp.pi)) / 2

        def log_g(th):
            return t * th - s * th * th / 2 + log_c

        # log_g is a parabola: its peak, or its slope at theta = 0 if the
        # peak lies below, sets the width
        peak = max(mp.mpf(0), t / s)
        return _log_quad_at_peak(log_g, mp.mpf(0), peak, 1 / (abs(t - s * peak) + mp.sqrt(s)))


def one_sided_exponential_log_b(n, rate, t):
    with mp.workdps(DPS):
        n, t, rate = mp.mpf(n), mp.mpf(t), mp.mpf(rate)

        def log_g(th):
            return (t - rate) * th - n * th * th / 2 + mp.log(rate)

        peak = max(mp.mpf(0), (t - rate) / n)
        return _log_quad_at_peak(log_g, mp.mpf(0), peak, 1 / (abs(t - rate - n * peak) + mp.sqrt(n)))


def _log_quad_at_peak(log_g, lo, peak, width):
    """log int_lo^inf exp(log_g), split at the peak and at `_SPLITS`
    multiples of the width on each side of it, and scaled by the peak."""
    points = sorted({lo, peak} | {peak + s * k * width for k in _SPLITS for s in (-1, 1) if peak + s * k * width > lo})
    top = log_g(peak)
    return top + mp.log(mp.quad(lambda th: mp.exp(log_g(th) - top), points + [mp.inf]))
