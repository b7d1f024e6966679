import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqmlab.errors import DomainError
from aqmlab.params import NetworkParams, ProtocolSpec, RedParams, ThresholdParams
from aqmlab.protocols import (
    decrease_rate,
    increase_rate,
    red_drop_probability,
    threshold_drop_probability,
)
from aqmlab.stability import _PARAM_SETTERS


def central_diff(f, w, order, h):
    if order == 1:
        return (f(w + h) - f(w - h)) / (2 * h)
    if order == 2:
        return (f(w + h) - 2 * f(w) + f(w - h)) / h**2
    return (f(w + 2 * h) - 2 * f(w + h) + 2 * f(w - h) - f(w - 2 * h)) / (2 * h**3)


def test_increase_compound_at_unit_window(compound):
    # w^(k-1) = 1 at w = 1
    assert increase_rate(compound, 1.0) == pytest.approx(0.125, abs=0)


def test_increase_reno(reno):
    assert increase_rate(reno, 2.0) == 0.5


def test_increase_first_derivative_matches_finite_difference(compound):
    f = lambda w: increase_rate(compound, w)
    fd = central_diff(f, 8.0, 1, 1e-5)
    assert increase_rate(compound, 8.0, 1) == pytest.approx(fd, rel=1e-6)


def test_decrease_values(compound, reno):
    assert decrease_rate(compound, 10.0) == 5.0
    assert decrease_rate(reno, 10.0) == 5.0
    illinois = ProtocolSpec.illinois_tcp(beta_min=0.125)
    assert decrease_rate(illinois, 8.0) == 1.0


def test_window_domain_errors(compound):
    with pytest.raises(DomainError):
        increase_rate(compound, 0.0)
    with pytest.raises(DomainError):
        increase_rate(compound, -1.0)
    with pytest.raises(DomainError):
        increase_rate(compound, 2.0, order=4)
    with pytest.raises(DomainError):
        decrease_rate(compound, 2.0, order=2)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_derivatives_match_finite_differences(order, compound):
    for spec in (compound, ProtocolSpec.reno(), ProtocolSpec.illinois_tcp()):
        for w in (1.0, 3.7, 25.0, 180.0, 1000.0):
            f = lambda x: increase_rate(spec, x)
            h = w * 1e-3 if order > 1 else w * 1e-6
            fd = central_diff(f, w, order, h)
            assert increase_rate(spec, w, order) == pytest.approx(fd, rel=1e-5)


def test_decrease_derivative_matches_finite_difference():
    for spec in (ProtocolSpec.compound_tcp(), ProtocolSpec.illinois_tcp()):
        for w in (2.0, 40.0, 900.0):
            f = lambda x: decrease_rate(spec, x)
            fd = central_diff(f, w, 1, w * 1e-6)
            assert decrease_rate(spec, w, 1) == pytest.approx(fd, rel=1e-5)


def test_reno_is_compound_special_case(reno):
    as_compound = ProtocolSpec.compound_tcp(alpha=1.0, k=0.0, beta=0.5)
    for w in np.geomspace(1.0, 1000.0, 53):
        assert increase_rate(reno, w) == pytest.approx(
            increase_rate(as_compound, w), rel=1e-12
        )
        assert decrease_rate(reno, w) == decrease_rate(as_compound, w)
        for order in (1, 2, 3):
            assert increase_rate(reno, w, order) == pytest.approx(
                increase_rate(as_compound, w, order), rel=1e-12
            )
        assert decrease_rate(reno, w, 1) == decrease_rate(as_compound, w, 1)


def test_red_drop_probability_boundaries(red_defaults):
    red = red_defaults
    assert red_drop_probability(red.b_min, red) == 0.0
    # both middle branches evaluate to p_max at b_max
    assert red_drop_probability(red.b_max, red) == pytest.approx(0.1, abs=1e-15)
    assert red_drop_probability(2 * red.b_max, red) == 1.0
    assert red_drop_probability(5000.0, red) == 1.0


valid_red = st.builds(
    RedParams,
    gamma=st.floats(1e-5, 1.0),
    b_min=st.floats(1.0, 400.0),
    b_max=st.floats(401.0, 2000.0),
    p_max=st.floats(1e-3, 0.999),
)


@settings(max_examples=60, deadline=None)
@given(valid_red)
def test_red_probability_continuous_at_breakpoints(red):
    for b in (red.b_min, red.b_max, 2 * red.b_max):
        eps = 1e-9 * b
        left = red_drop_probability(b - eps, red)
        right = red_drop_probability(b + eps, red)
        assert abs(left - right) < 1e-6  # continuity up to the slope * eps
        # exact continuity of the underlying branches at the breakpoint
    rho, eta = red.rho, red.eta
    assert rho * (red.b_max - red.b_min) == pytest.approx(red.p_max, rel=1e-12)
    assert eta * red.b_max - (1 - 2 * red.p_max) == pytest.approx(
        red.p_max, abs=1e-12
    )
    assert eta * 2 * red.b_max - (1 - 2 * red.p_max) == pytest.approx(
        1.0, abs=1e-12
    )


def test_red_probability_monotone(red_defaults):
    rng = np.random.default_rng(7)
    qs = np.sort(rng.uniform(0.0, 3 * red_defaults.b_max, size=(10_000, 2)), axis=1)
    for lo, hi in qs:
        assert red_drop_probability(lo, red_defaults) <= red_drop_probability(
            hi, red_defaults
        )


def test_red_derived_slopes_values():
    red = RedParams()
    assert red.rho == pytest.approx(2e-4, rel=1e-12)
    assert red.eta == pytest.approx(16.36e-4, rel=5e-3)
    red2 = RedParams(p_max=0.5, b_max=100.0, b_min=50.0)
    assert (red2.rho, red2.eta) == (pytest.approx(0.01), pytest.approx(0.005))
    with pytest.raises(DomainError):
        RedParams(b_min=100.0, b_max=100.0)


@pytest.mark.parametrize("fields", [
    {"p_max": 5e-324},  # rho underflows to 0
    {"p_max": 1e-300, "b_max": 1e10},  # rho is subnormal
    {"p_max": 0.9999999999999999, "b_max": 1e295},  # eta is subnormal
    {"b_min": 5e-324, "b_max": 1e-323},  # rho overflows
], ids=["rho-zero", "rho-subnormal", "eta-subnormal", "rho-inf"])
def test_red_slopes_must_be_normal_floats(fields):
    with pytest.raises(DomainError):
        RedParams(**fields)


def test_threshold_drop_probability():
    net = NetworkParams(c_per_flow=100.0, rtt=1.0)
    th = ThresholdParams(q_th=39.0)
    assert threshold_drop_probability(100.0, net, th) == 1.0
    assert threshold_drop_probability(150.0, net, th) == 1.0  # clamped
    th1 = ThresholdParams(q_th=1.0)
    assert threshold_drop_probability(50.0, net, th1) == 0.5
    # repeated-multiplication oracle
    expected = 1.0
    for _ in range(39):
        expected *= 0.8
    assert threshold_drop_probability(80.0, net, th) == pytest.approx(
        expected, rel=1e-8
    )


def test_constant_overrides_replace_and_revalidate():
    spec = _PARAM_SETTERS["alpha"](ProtocolSpec.reno(), None, None, None, 0.2)[0]
    assert spec == ProtocolSpec(alpha=0.2, k=0.0, beta=0.5)
    for name, value in (("alpha", 0.0), ("k", 1.0), ("beta", 1.0)):
        with pytest.raises(DomainError):
            _PARAM_SETTERS[name](ProtocolSpec(), None, None, None, value)


def test_named_constructors_are_power_law_triples():
    assert ProtocolSpec.compound_tcp() == ProtocolSpec(0.125, 0.75, 0.5)
    assert ProtocolSpec.reno() == ProtocolSpec(1.0, 0.0, 0.5)
    assert ProtocolSpec.illinois_tcp(8.0, 0.25) == ProtocolSpec(8.0, 0.0, 0.25)
