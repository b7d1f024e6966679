"""Small numerical helpers: bracketed root finding and the real roots of a
cubic in closed form."""

from __future__ import annotations

import math
import sys

from .errors import BracketError, ConvergenceError

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


def cubic_real_roots(A: float, B: float, C: float) -> list[float]:
    """Real roots of x^3 + A x^2 + B x + C in ascending order, in closed form.

    Cardano's form gives the root beside a complex pair, the trigonometric
    form gives three real roots. Only the root of largest magnitude, r, is
    taken from these forms: the others would lose digits to cancellation in
    x = t - A/3, and whether they are real is decided badly by the cubic's
    discriminant, whose terms grow as A^6. Beside a larger complex pair z the
    real root is -C / |z|^2; beside r the other two solve the quadratic with
    product -C/r and sum (B + C/r)/r. Each root is then polished by Newton
    steps until a step moves it by a few ulps. A triple root is listed once;
    the roots of a near-double pair are ill-conditioned in any method.
    """
    s = A / 3.0
    p = B - A * s  # x = t - s turns the cubic into t^3 + p t + q
    q = C + s * (2.0 * s * s - B)
    h = 0.5 * q
    disc = h * h + (p / 3.0) ** 3
    if not math.isfinite(disc):
        raise ConvergenceError(f"cubic coefficients out of range: {A!r}, {B!r}, {C!r}")
    if disc > 0.0:
        u = math.cbrt(-h - math.copysign(math.sqrt(disc), h))
        v = -p / (3.0 * u)
        r = u + v - s
        # the complex pair is -(u + v)/2 - s +- i sqrt(3)/2 (u - v)
        mod2 = (0.5 * (u + v) + s) ** 2 + 0.75 * (u - v) ** 2
        if r * r < mod2:
            return [_newton_cubic(-C / mod2, A, B, C)]
    else:
        m = 2.0 * math.sqrt(-p / 3.0)
        if m == 0.0:
            return [-s]
        phi = math.acos(max(-1.0, min(1.0, 3.0 * q / (p * m)))) / 3.0
        # the largest and the smallest of the three: one has the largest magnitude
        r = m * math.cos(phi) - s
        r_low = m * math.cos(phi - 4.0 * math.pi / 3.0) - s
        if abs(r_low) > abs(r):
            r = r_low
    r = _newton_cubic(r, A, B, C)
    prod = -C / r
    half = 0.5 * (B - prod) / r
    d = half * half - prod
    if d < 0.0:
        return [r]
    y = half + math.copysign(math.sqrt(d), half)
    z = prod / y if y != 0.0 else 0.0
    return sorted((r, _newton_cubic(y, A, B, C), _newton_cubic(z, A, B, C)))


def _newton_cubic(x: float, A: float, B: float, C: float) -> float:
    """Newton steps on x^3 + A x^2 + B x + C from x: at most 8, each kept only
    if it lowers |f|, stopping once a step is within 4 machine epsilons of x."""
    f = ((x + A) * x + B) * x + C
    for _ in range(8):
        d = (3.0 * x + 2.0 * A) * x + B
        if f == 0.0 or d == 0.0:
            break
        step = f / d
        xn = x - step
        fn = ((xn + A) * xn + B) * xn + C
        if abs(fn) > abs(f):
            break
        x, f = xn, fn
        if abs(step) <= _RTOL_FLOOR * abs(x):
            break
    return x
