"""Small numerical helpers: bracketed root finding and Hermite interpolation."""

from __future__ import annotations

from .errors import BracketError, ConvergenceError


def bisect(f, lo: float, hi: float, *, xtol: float = 0.0, rtol: float = 1e-15,
           max_iter: int = 200) -> float:
    """Bisection on a sign change of f over [lo, hi]."""
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise BracketError(f"no sign change on [{lo!r}, {hi!r}]")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
        if hi - lo <= xtol + rtol * max(abs(lo), abs(hi)):
            return 0.5 * (lo + hi)
    return 0.5 * (lo + hi)


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


def newton_complex(f, df, z0: complex, *, tol: float = 1e-13, max_iter: int = 80) -> complex:
    """Newton iteration for a complex root of f."""
    z = complex(z0)
    for _ in range(max_iter):
        fz = f(z)
        dz = df(z)
        if dz == 0:
            raise ConvergenceError("zero derivative in Newton iteration")
        step = fz / dz
        z = z - step
        if abs(step) <= tol * max(1.0, abs(z)):
            return z
    if abs(f(z)) > 1e-8 * max(1.0, abs(z)):
        raise ConvergenceError(f"Newton did not converge from {z0!r}")
    return z


def hermite_eval(theta: float, y0, y1, f0, f1, h: float):
    """Cubic Hermite value at fraction theta in [0, 1] of an interval of
    width h, given endpoint values and one-sided derivatives (tuples)."""
    t2 = theta * theta
    t3 = t2 * theta
    h00 = 2.0 * t3 - 3.0 * t2 + 1.0
    h10 = t3 - 2.0 * t2 + theta
    h01 = -2.0 * t3 + 3.0 * t2
    h11 = t3 - t2
    return tuple(
        h00 * a + h10 * h * da + h01 * b + h11 * h * db
        for a, b, da, db in zip(y0, y1, f0, f1)
    )
