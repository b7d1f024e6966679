"""Brent roots of numerics.bisect against the plain-bisection oracle."""

import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aqmlab.fluid
import aqmlab.stability
from aqmlab.errors import BracketError
from aqmlab.fluid import (
    FluidSystemKind,
    equilibrium_no_averaging,
    equilibrium_threshold,
    equilibrium_with_averaging,
)
from aqmlab.numerics import bisect
from aqmlab.params import NetworkParams, ProtocolSpec, RedParams, ThresholdParams
from aqmlab.stability import (
    crossover_frequency,
    linear_coefficients,
    solve_hopf_boundary,
    sufficient_stable_with_averaging,
    trace_stability_chart,
)

from conftest import bisect_oracle

K = FluidSystemKind


def _counted(f):
    calls = [0]

    def g(x):
        calls[0] += 1
        return f(x)

    return g, calls


@settings(max_examples=60, deadline=None)
@given(
    root=st.floats(1e-3, 1e3),
    left=st.floats(1e-3, 0.99),
    right=st.floats(0.01, 100.0),
    bend=st.floats(-0.9, 0.9),
)
def test_brent_matches_oracle_on_monotone_functions(root, left, right, bend):
    def f(x):
        u = x / root - 1.0
        return u * (1.0 + bend * math.tanh(u)) + 0.1 * u**3

    lo, hi = root * (1.0 - left), root * (1.0 + right)
    g, calls = _counted(f)
    x = bisect(g, lo, hi, rtol=1e-15)
    assert x == pytest.approx(bisect_oracle(f, lo, hi, rtol=1e-15), rel=1e-14)
    assert x == pytest.approx(root, rel=1e-14)
    assert calls[0] <= 25  # bisection needs about 50


def test_brent_bracket_checks_and_endpoint_roots():
    with pytest.raises(BracketError):
        bisect(lambda x: x * x + 1.0, -1.0, 1.0)
    assert bisect(lambda x: x - 2.0, 2.0, 5.0) == 2.0
    assert bisect(lambda x: x - 5.0, 2.0, 5.0) == 5.0


def test_brent_rtol_below_floor_still_terminates():
    # the stopping test cannot be met below 4 * eps; the floor keeps the
    # iteration from running to max_iter
    g, calls = _counted(lambda x: math.exp(x) - 3.0)
    x = bisect(g, 0.0, 4.0, rtol=0.0)
    assert x == pytest.approx(math.log(3.0), rel=4.0 * 2.0**-52)
    assert calls[0] < 20


@pytest.fixture
def with_oracle(monkeypatch):
    """Calls fn once with Brent and once with the oracle bound where the
    fluid and stability modules look bisect up."""

    def run(fn):
        brent = fn()
        monkeypatch.setattr(aqmlab.fluid, "bisect", bisect_oracle)
        monkeypatch.setattr(aqmlab.stability, "bisect", bisect_oracle)
        try:
            return brent, fn()
        finally:
            monkeypatch.undo()

    return run


def test_call_site_roots_match_oracle(with_oracle):
    spec, red = ProtocolSpec.compound_tcp(), RedParams()

    def roots():
        out = []
        for c in (50.0, 100.0, 400.0):
            for tau in (0.05, 0.1, 0.3):
                net = NetworkParams(c_per_flow=c, rtt=tau)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    eq = equilibrium_with_averaging(spec, red, net)
                    eq_na = equilibrium_no_averaging(spec, red, net)
                co = linear_coefficients(K.WITH_AVERAGING, spec, net, eq, red=red)
                out += [eq.w_star, eq.p_star, eq_na.p_star,
                        crossover_frequency(K.WITH_AVERAGING, co),
                        sufficient_stable_with_averaging(spec, red, net, eq).omega_c]
                th = equilibrium_threshold(spec, NetworkParams(c, 10 * tau),
                                           ThresholdParams(30.0))
                out += [th.w_star]
        net = NetworkParams(c_per_flow=100.0, rtt=0.05)
        for kind, r, bracket in ((K.WITH_AVERAGING, red, (0.01, 0.5)),
                                 (K.WITH_AVERAGING, RedParams(gamma=0.03), (0.01, 0.5)),
                                 (K.NO_AVERAGING, red, (0.01, 2.0))):
            out.append(solve_hopf_boundary(kind, "tau", bracket, spec, net, red=r).param_value)
        out.append(solve_hopf_boundary(K.THRESHOLD, "q_th", (20.0, 80.0), spec,
                                       NetworkParams(100.0, 1.0),
                                       th=ThresholdParams(15.0)).param_value)
        return out

    brent, oracle = with_oracle(roots)
    assert None not in brent
    assert brent == pytest.approx(oracle, rel=1e-14, abs=0.0)


def test_chart_boundaries_match_oracle(with_oracle):
    # A boundary is the root of a phase residual that carries rounding noise
    # of a few ulps, so two solvers may stop at different points of its sign
    # change; on these charts the roots differ by at most 1.2e-14.
    spec, red = ProtocolSpec.compound_tcp(), RedParams()
    net = NetworkParams(c_per_flow=100.0, rtt=0.1)
    cs = [100.0 + 25.0 * i for i in range(17)]
    gammas = [1e-4 + 0.05 * i / 16 for i in range(17)]
    qths = [10.0 + 5.0 * i for i in range(19)]

    def charts():
        pts = (
            trace_stability_chart(K.WITH_AVERAGING, "c", cs, "tau", spec, net, red=red)
            + trace_stability_chart(K.WITH_AVERAGING, "gamma", gammas, "tau", spec, net,
                                    red=red)
            + trace_stability_chart(K.NO_AVERAGING, "c", cs, "tau", spec, net, red=red)
            + trace_stability_chart(K.THRESHOLD, "q_th", qths, "alpha", spec,
                                    NetworkParams(100.0, 1.0), th=ThresholdParams(15.0))
        )
        return [p.y_critical for p in pts]

    brent, oracle = with_oracle(charts)
    assert None not in brent
    assert brent == pytest.approx(oracle, rel=2e-14, abs=0.0)
