"""Root-finding, bounded minimisation and quadrature in pure Python.

The package needs three numerical routines beyond numpy and
scipy.special.  It carries its own, so no subcommand loads scipy's
optimize and integrate subpackages, which took a third of every CLI
process's start-up:

* `brentq` -- Brent's (1973) bracketed root-finder, step for step the
  algorithm of scipy's ``brentq.c``, so it returns the same float;
* `minimize_bounded` -- Brent's bounded scalar minimiser, step for step
  scipy's ``minimize_scalar(method="bounded")``;
* `quad` -- adaptive 21-point Gauss-Kronrod quadrature with QUADPACK's
  qk21 rule (Piessens et al. 1983), bisecting the panel with the largest
  error estimate; an infinite end is mapped onto (0, 1] by the qagi
  substitution x = a + (1 - t)/t.  It returns an error estimate with the
  value and raises `QuadratureError` past the requested tolerance.

`log_quad` integrates a peaked integrand given by its logarithm, which
every oracle route for a Bayes factor needs.
"""

from __future__ import annotations

import heapq
import math
from functools import cache

import numpy as np

__all__ = [
    "QuadratureError",
    "brentq",
    "minimize_bounded",
    "quad",
    "log_quad",
    "peak_bracket",
    "gauss_legendre_nodes",
]

DEFAULT_TOL = 1e-10
# iterations brentq and minimize_bounded run before they stop (scipy's defaults)
BRENTQ_MAXITER = 100
MINIMIZE_MAXITER = 500
# panels the adaptive rule may bisect into before it gives up
LIMIT = 200
# exp() overflows above ~709.8: an integrand this far above its located
# peak means the peak search missed the maximum
MAX_LOG_ABOVE_PEAK = 700.0

EPS = float(np.finfo(float).eps)
TINY = float(np.finfo(float).tiny)


def _signbit(x: float) -> bool:
    return math.copysign(1.0, x) < 0.0


def brentq(f, a: float, b: float, xtol: float = 2e-12, rtol: float = 4 * EPS) -> float:
    """A root of f in the bracket [a, b], where f(a) and f(b) differ in sign.

    Converged when half the bracket is below (xtol + rtol*|x|)/2.  Raises
    ValueError on a same-sign bracket or a nan value of f, RuntimeError
    after BRENTQ_MAXITER iterations without convergence.
    """

    def fx(x):
        value = float(f(x))
        if math.isnan(value):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return value

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = fx(xpre), fx(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(BRENTQ_MAXITER):
        if fpre != 0 and fcur != 0 and _signbit(fpre) != _signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                # fblk = fpre where f is flat (say B underflows to 0 on
                # both): no step, so bisect, as an infinite step does in C
                den = dblk * dpre * (fblk - fpre)
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
            limit = abs(spre) if abs(spre) < 3 * abs(sbis) - delta else 3 * abs(sbis) - delta
            if 2 * abs(stry) < limit:
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = fx(xcur)
    raise RuntimeError(f"Failed to converge after {BRENTQ_MAXITER} iterations, value is {xcur:g}")


def minimize_bounded(func, bounds, xatol: float = 1e-5) -> float:
    """The minimiser of a scalar func on the finite interval ``bounds``:
    golden-section search with parabolic steps, stopped once the point is
    known to within about xatol (or after MINIMIZE_MAXITER evaluations)."""
    x1, x2 = bounds
    if not (math.isfinite(x1) and math.isfinite(x2)):
        raise ValueError("Optimization bounds must be finite scalars.")
    if x1 > x2:
        raise ValueError("The lower bound exceeds the upper bound.")

    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = x1, x2
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        # parabolic fit through the three best points
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * (-1.0 if xm - xf < 0 else 1.0)
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e

        step = abs(rat) if abs(rat) > tol1 else tol1
        x = xf + (-1.0 if rat < 0 else 1.0) * step
        fu = func(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= MINIMIZE_MAXITER:
            break
    return xf


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""

    def __init__(self, message, value=None, error=None):
        super().__init__(message)
        self.value = value
        self.error = error


# QUADPACK qk21: Kronrod abscissae on [0, 1] (the odd entries are the
# 10-point Gauss abscissae), Kronrod weights, and the Gauss weights.
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208703099021, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
)
_WGK_CENTRE = 0.149445554002916905664936468389821
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)


def _gk21(f, a: float, b: float):
    """(integral, error estimate) of f over the finite (a, b) by qk21."""
    centre, half = 0.5 * (a + b), 0.5 * (b - a)
    f_centre = f(centre)
    f_lo = [f(centre - half * x) for x in _XGK]
    f_hi = [f(centre + half * x) for x in _XGK]
    sums = [lo + hi for lo, hi in zip(f_lo, f_hi)]
    res_k = _WGK_CENTRE * f_centre + sum(w * s for w, s in zip(_WGK, sums))
    res_g = sum(w * s for w, s in zip(_WG, sums[1::2]))
    mean = 0.5 * res_k
    res_abs = _WGK_CENTRE * abs(f_centre) + sum(
        w * (abs(lo) + abs(hi)) for w, lo, hi in zip(_WGK, f_lo, f_hi)
    )
    res_asc = _WGK_CENTRE * abs(f_centre - mean) + sum(
        w * (abs(lo - mean) + abs(hi - mean)) for w, lo, hi in zip(_WGK, f_lo, f_hi)
    )
    res_abs *= half
    res_asc *= half
    err = abs((res_k - res_g) * half)
    if res_asc != 0 and err != 0:
        err = res_asc * min(1.0, (200.0 * err / res_asc) ** 1.5)
    if res_abs > TINY / (50.0 * EPS):
        err = max(50.0 * EPS * res_abs, err)
    return res_k * half, err


def _finite_range(f, a: float, b: float):
    """(g, lo, hi) with the integral of g over the finite (lo, hi) equal to
    that of f over (a, b): an infinite end maps onto (0, 1] by
    x = a + (1 - t)/t, the lower end reflected, both ends folded."""
    if math.isfinite(a) and math.isfinite(b):
        return f, a, b
    if math.isfinite(a):
        return (lambda t: f(a + (1.0 - t) / t) / (t * t)), 0.0, 1.0
    if math.isfinite(b):
        return (lambda t: f(b - (1.0 - t) / t) / (t * t)), 0.0, 1.0

    def folded(t):
        x = (1.0 - t) / t
        return (f(x) + f(-x)) / (t * t)

    return folded, 0.0, 1.0


def quad(f, a, b, tol=DEFAULT_TOL):
    """Integrate f over (a, b), a <= b; endpoints may be +-inf.

    Returns (value, error_estimate).  Raises QuadratureError when the
    estimate exceeds 10*max(tol, tol*|value|), which includes an integral
    that needs more than LIMIT panels and a nan estimate.

    Bisection without QUADPACK's epsilon extrapolation converges slowly
    on an integrand that is singular at an end, so f must be smooth, or
    at most weakly singular, there.  At tol = 1e-8, x**-0.5 and log(x) at
    a zero end of a finite range are integrated; x**-0.9, x**-0.5 at a
    nonzero end or at the finite end of a half-line (Beta(1/2, 1/2) on
    (0, 1), Gamma(1/2) on (0, inf)) and a tail like x**-1.1 raise
    QuadratureError.
    """
    g, lo, hi = _finite_range(f, float(a), float(b))
    value, err = _gk21(g, lo, hi)
    # a heap of panels (-error, lo, hi, value, error): the worst one first
    panels = [(-err, lo, hi, value, err)]
    while err > max(tol, tol * abs(value)) and len(panels) < LIMIT:
        _, p_lo, p_hi, p_value, p_err = panels[0]
        if p_hi - p_lo <= 1000.0 * (EPS * max(abs(p_lo), abs(p_hi)) + TINY):
            # the halves' outer nodes would round onto their ends
            break
        heapq.heappop(panels)
        mid = 0.5 * (p_lo + p_hi)
        v1, e1 = _gk21(g, p_lo, mid)
        v2, e2 = _gk21(g, mid, p_hi)
        heapq.heappush(panels, (-e1, p_lo, mid, v1, e1))
        heapq.heappush(panels, (-e2, mid, p_hi, v2, e2))
        value += v1 + v2 - p_value
        err += e1 + e2 - p_err
    value = math.fsum(p[3] for p in panels)
    err = math.fsum(p[4] for p in panels)
    if not err <= max(tol, tol * abs(value)) * 10:
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

    peak = float(minimize_bounded(neg_log_f, bracket))
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


def peak_bracket(log_f, lo: float, hi: float) -> tuple:
    """A bracket (lo, b) for the maximum of a unimodal log_f on (lo, hi), lo
    finite: b = lo + 2s, s doubling from 1 until log_f(b) <= log_f(lo + s)."""
    step = 1.0
    while lo + 2.0 * step < hi and step < 1e300 and log_f(lo + 2.0 * step) > log_f(lo + step):
        step *= 2.0
    return lo, min(lo + 2.0 * step, hi)


@cache
def _leggauss(n: int):
    """numpy's n-point Gauss-Legendre rule on (-1, 1), computed once per
    process (an eigen-solve) and returned as read-only arrays."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_legendre_nodes(n: int, a: float, b: float):
    """Gauss-Legendre nodes and weights mapped to the interval (a, b).

    Used for batch evaluation of smooth integrands over many parameter
    values at once; the adaptive routines above remain the accuracy
    reference.  The rule on (-1, 1) is built once per n and process; the
    mapped arrays are new on every call.
    """
    x, w = _leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w
