import pytest

from aqmlab.errors import BracketError

from aqmlab.params import NetworkParams, ProtocolSpec, RedParams


@pytest.fixture
def compound():
    return ProtocolSpec.compound_tcp()


@pytest.fixture
def reno():
    return ProtocolSpec.reno()


@pytest.fixture
def red_defaults():
    return RedParams()


@pytest.fixture
def net100():
    return NetworkParams(c_per_flow=100.0, rtt=0.1)


def solve_red_fixed_point(spec_alpha, spec_k, spec_beta, c, tau, iters=200):
    """Independent bisection oracle for the RED fixed point:
    p = a*w^(k-2) / (a*w^(k-2) + b) with w = c*tau/(1-p)."""
    bdp = c * tau

    def g(p):
        w = bdp / (1.0 - p)
        aw = spec_alpha * w ** (spec_k - 2.0)
        return aw / (aw + spec_beta) - p

    lo, hi = 1e-15, 1.0 - 1e-12
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    p = 0.5 * (lo + hi)
    return bdp / (1.0 - p), p


def bisect_oracle(f, lo, hi, *, xtol=0.0, rtol=1e-15, max_iter=200):
    """Plain bisection on a sign change of f over [lo, hi], with the
    signature of aqmlab.numerics.bisect: the oracle for its Brent roots."""
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
