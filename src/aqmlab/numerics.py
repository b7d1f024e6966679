"""Small numerical helpers: bracketed root finding."""

from __future__ import annotations

import math
import sys

from .errors import BracketError

_RTOL_FLOOR = 4.0 * sys.float_info.epsilon


def bisect(f, lo: float, hi: float, *, rtol: float = 1e-15) -> float:
    """Root of f on a sign change over [lo, hi], by Brent's method.

    This is Brent's zeroin (Brent 1973, *Algorithms for Minimization without
    Derivatives*, ch. 4): inverse quadratic or secant steps inside a bracket
    that always keeps the sign change, with a bisection step whenever the
    interpolated step would not shrink the bracket fast enough. It stops when
    the bracket is no wider than rtol * |x| at the best point x, or after 200
    steps.
    rtol is raised to 4 * machine epsilon: below that the step falls under
    half an ulp and the stopping test can no longer be met.

    The name stays ``bisect`` because callers look it up as a module global
    (``from .numerics import bisect``) and the benchmark tracer binds it
    there to count evaluations per root.
    """
    rtol = max(rtol, _RTOL_FLOOR)
    a, b = lo, hi
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0) == (fb > 0):
        raise BracketError(f"no sign change on [{lo!r}, {hi!r}]")
    c, fc = a, fa
    d = e = b - a
    for _ in range(200):
        if (fb > 0) == (fc > 0):
            # keep the sign change between b and c
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            # b is the best point so far
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 0.5 * (rtol * abs(b))  # not (0.5 * rtol) * |b|: that rounds apart
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                # secant
                p = 2.0 * m * s
                q = 1.0 - s
            else:
                # inverse quadratic interpolation
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)
    return b


def find_bracket(f, lo: float, hi: float, n: int = 128, log_spaced: bool = False):
    """Scan [lo, hi] for the first sign change of f; returns (a, b) or None."""
    if log_spaced:
        if lo <= 0:
            raise ValueError("log-spaced scan needs lo > 0")
        xs = [lo * (hi / lo) ** (i / n) for i in range(n + 1)]
    else:
        xs = [lo + (hi - lo) * i / n for i in range(n + 1)]
    fa = f(xs[0])
    if fa == 0.0:
        return xs[0], xs[0]
    for a, b in zip(xs, xs[1:]):
        fb = f(b)
        if fb == 0.0:
            return b, b
        if (fa > 0) != (fb > 0):
            return a, b
        fa = fb
    return None

