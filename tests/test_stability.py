import contextlib
import dataclasses
import hashlib
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import aqmlab.stability
from aqmlab.cli import main
from aqmlab.errors import (
    BracketError,
    ConvergenceError,
    DomainError,
    InternalConsistencyError,
)
from aqmlab.fluid import (
    FluidSystemKind,
    default_history,
    equilibrium_no_averaging,
    equilibrium_threshold,
    equilibrium_with_averaging,
    integrate_dde,
)
from aqmlab.numerics import bisect, cubic_real_roots
from aqmlab.params import NetworkParams, ProtocolSpec, RedParams, ThresholdParams
from aqmlab.stability import (
    CharCoefficients,
    Condition,
    char_dkappa,
    char_dlambda,
    char_residual,
    count_unstable_roots,
    crossover_frequency,
    hopf_phase_residual,
    kappa_critical,
    linear_coefficients,
    no_averaging_condition_lhs,
    solve_hopf_boundary,
    stability_no_averaging,
    stability_threshold,
    sufficient_stable_with_averaging,
    trace_stability_chart,
    chart_to_csv,
    transversality,
    _PARAM_SETTERS,
    _crossing_angle,
    _explicit_equilibrium,
    _system_at,
    _zero_delay_stable,
)

from hopf_oracle import (
    crossing_angle_by_kind,
    crossover_by_kind,
    crossover_cubic_root_by_scan,
    dkappa_by_kind,
    dlambda_by_kind,
    nyquist_crossover_by_scan,
    per_point_chart,
    refine_root,
    residual_by_kind,
    transversality_numeric,
    zero_delay_stable_by_kind,
)

K = FluidSystemKind

pytestmark = pytest.mark.filterwarnings("ignore::aqmlab.fluid.OperatingRegionWarning")


def random_systems(n, seed=42, in_band_only=False):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        spec = ProtocolSpec.compound_tcp(
            alpha=rng.uniform(0.05, 0.5),
            k=rng.uniform(0.5, 0.9),
            beta=rng.uniform(0.3, 0.7),
        )
        b_min = rng.uniform(20.0, 100.0)
        red = RedParams(
            gamma=rng.uniform(1e-4, 0.05),
            b_min=b_min,
            b_max=b_min + rng.uniform(50.0, 700.0),
            p_max=rng.uniform(0.05, 0.3),
        )
        net = NetworkParams(
            c_per_flow=rng.uniform(50.0, 500.0), rtt=rng.uniform(0.02, 0.5)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            eq = equilibrium_no_averaging(spec, red, net)
        if in_band_only and not eq.in_band:
            continue
        out.append((spec, red, net, eq))
    return out


# -- linear coefficients ------------------------------------------------------

def test_no_averaging_model_form_identities():
    # a1 = (w*/tau)(rho + (2-k) beta p*), a2 = rho (2-k) beta p* (w*/tau)^2,
    # a3 = rho beta (w*/tau)^2, verified against the implementation at random
    # parameter points (the implementation checks raw vs simplified itself)
    for spec, red, net, eq in random_systems(100, seed=3):
        co = linear_coefficients(K.NO_AVERAGING, spec, net, eq, red=red)
        k = spec.k
        beta = spec.beta
        m = (2.0 - k) * beta * eq.p_star
        wt = eq.w_star / net.rtt
        assert co.a1 == pytest.approx(wt * (red.rho + m), rel=1e-9)
        assert co.a2 == pytest.approx(red.rho * m * wt**2, rel=1e-9)
        assert co.a3 == pytest.approx(red.rho * beta * wt**2, rel=1e-9)


def test_threshold_coefficients_reno_specialization():
    net = NetworkParams(c_per_flow=100.0, rtt=1.0)
    th = ThresholdParams(20.0)
    eq_r = equilibrium_threshold(ProtocolSpec.reno(), net, th)
    co_r = linear_coefficients(K.THRESHOLD, ProtocolSpec.reno(), net, eq_r, th=th)
    as_compound = ProtocolSpec.compound_tcp(alpha=1.0, k=0.0, beta=0.5)
    eq_c = equilibrium_threshold(as_compound, net, th)
    co_c = linear_coefficients(K.THRESHOLD, as_compound, net, eq_c, th=th)
    assert co_r.a1 == pytest.approx(co_c.a1, rel=1e-12)
    assert co_r.a2 == pytest.approx(co_c.a2, rel=1e-12)
    # a1 = 2 (1-p*) / (w* tau), a2 = q_th / (w* tau) for the classic protocol
    assert co_r.a1 == pytest.approx(
        2.0 * (1 - eq_r.p_star) / (eq_r.w_star * net.rtt), rel=1e-9
    )
    assert co_r.a2 == pytest.approx(20.0 / (eq_r.w_star * net.rtt), rel=1e-9)


def test_with_averaging_coefficients_positive_at_reference_point(compound, red_defaults):
    net = NetworkParams(c_per_flow=100.0, rtt=0.0848)
    eq = equilibrium_with_averaging(compound, red_defaults, net)
    co = linear_coefficients(K.WITH_AVERAGING, compound, net, eq, red=red_defaults)
    assert co.a1 > 0 and co.a2 > 0 and co.a3 > 0 and co.a4 > 0


# -- crossover frequencies ----------------------------------------------------

def test_with_averaging_crossover_satisfies_magnitude_equation(compound, red_defaults):
    net = NetworkParams(c_per_flow=100.0, rtt=0.0848)
    eq = equilibrium_with_averaging(compound, red_defaults, net)
    co = linear_coefficients(K.WITH_AVERAGING, compound, net, eq, red=red_defaults)
    w = crossover_frequency(K.WITH_AVERAGING, co)
    resid = (
        w**6
        + (co.a1**2 - 2 * co.a2) * w**4
        + (co.a2**2 - 2 * co.a1 * co.a3) * w**2
        + (co.a3**2 - co.a4**2)
    )
    assert abs(resid) < 1e-9 * max(w**6, 1e-30)


def paper_range_systems(n, seed):
    """Draws confined to the default-like parameter ranges in which the
    coefficient inequalities a3 < a4 and a1^2 > 2 a2 are established."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        spec = ProtocolSpec.compound_tcp(
            alpha=rng.uniform(0.10, 0.15),
            k=rng.uniform(0.70, 0.80),
            beta=rng.uniform(0.45, 0.55),
        )
        red = RedParams(
            gamma=rng.uniform(1e-4, 0.05),
            b_min=rng.uniform(40.0, 80.0),
            b_max=rng.uniform(400.0, 700.0),
            p_max=rng.uniform(0.08, 0.12),
        )
        net = NetworkParams(
            c_per_flow=rng.uniform(100.0, 500.0), rtt=rng.uniform(0.02, 0.3)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            eq = equilibrium_with_averaging(spec, red, net)
        out.append((spec, red, net, eq))
    return out


def test_with_averaging_unique_positive_root_when_a3_below_a4():
    # on operating points in the default-like ranges (where the precondition
    # a1^2 > 2 a2 holds), a3 < a4 implies the magnitude cubic in omega^2 has
    # exactly one positive root
    checked = 0
    for spec, red, net, eq in paper_range_systems(150, seed=11):
        co = linear_coefficients(K.WITH_AVERAGING, spec, net, eq, red=red)
        if not co.a3 < co.a4:
            continue
        assert co.a1**2 - 2 * co.a2 > 0
        A = co.a1**2 - 2 * co.a2
        B = co.a2**2 - 2 * co.a1 * co.a3
        C = co.a3**2 - co.a4**2
        roots = np.roots([1.0, A, B, C])
        pos = [r for r in roots if abs(r.imag) < 1e-9 and r.real > 0]
        assert len(pos) == 1
        assert crossover_frequency(K.WITH_AVERAGING, co) == pytest.approx(
            math.sqrt(max(pos).real), rel=1e-9
        )
        checked += 1
    assert checked > 100


def test_no_averaging_crossover_value(compound, red_defaults):
    net = NetworkParams(c_per_flow=100.0, rtt=0.273)
    eq = equilibrium_no_averaging(compound, red_defaults, net)
    co = linear_coefficients(K.NO_AVERAGING, compound, net, eq, red=red_defaults)
    w = crossover_frequency(K.NO_AVERAGING, co)
    assert w == pytest.approx(0.99, rel=0.01)
    assert w == pytest.approx(_quartic_oracle(co), rel=1e-9)


def _quartic_oracle(co):
    """Largest positive real root of the no-averaging quartic
    w^4 + (a1^2 - 2 a2) w^2 + (a2^2 - a3^2), or None: companion-matrix roots,
    each polished by Newton steps on the quartic, since those roots lose
    relative accuracy when the root magnitudes are far apart. A root counts
    as real when its imaginary part is below 1e-6 of its modulus; an
    absolute floor would take a tiny imaginary pair for real roots."""
    A = co.a1**2 - 2.0 * co.a2
    B = co.a2**2 - co.a3**2
    real_pos = []
    for r in np.roots([1.0, 0.0, A, 0.0, B]):
        if abs(r.imag) >= 1e-6 * abs(r) or r.real <= 0:
            continue
        root = r.real
        for _ in range(4):
            dp = 4.0 * root**3 + 2.0 * A * root
            if dp == 0:
                break
            root -= ((root * root + A) * root * root + B) / dp
        real_pos.append(root)
    return max(real_pos, default=None)


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@settings(max_examples=300, deadline=None)
@example(  # an imaginary pair of modulus 8e-7 and no positive root
    c=1.0, tau=1.0, alpha=math.exp(0.375), k=0.25, beta=0.21875, gamma=1.0,
    b_min=1.0, band=math.exp(6.5), p_max=0.001,
)
@given(
    c=_log_uniform(1.0, 1e4),
    tau=_log_uniform(1e-4, 30.0),
    alpha=_log_uniform(1e-3, 10.0),
    k=st.floats(0.0, 0.999),
    beta=st.floats(1e-3, 0.999),
    gamma=_log_uniform(1e-6, 1.0),
    b_min=_log_uniform(0.1, 1e3),
    band=_log_uniform(0.1, 1e3),
    p_max=st.floats(1e-3, 0.999),
)
def test_no_averaging_crossover_matches_quartic_roots(
    c, tau, alpha, k, beta, gamma, b_min, band, p_max
):
    # the runtime confirms the crossover on the quartic itself (Newton steps
    # and the rising side); companion-matrix roots check it independently
    spec = ProtocolSpec.compound_tcp(alpha=alpha, k=k, beta=beta)
    red = RedParams(gamma=gamma, b_min=b_min, b_max=b_min + band, p_max=p_max)
    net = NetworkParams(c_per_flow=c, rtt=tau)
    eq = equilibrium_no_averaging(spec, red, net)
    co = linear_coefficients(K.NO_AVERAGING, spec, net, eq, red=red)
    omega = crossover_frequency(K.NO_AVERAGING, co)
    expected = _quartic_oracle(co)
    if omega is None:
        assert expected is None
    else:
        assert omega == pytest.approx(expected, rel=1e-12)


def test_threshold_no_crossover_when_a2_not_above_a1():
    co = CharCoefficients(K.THRESHOLD, a1=1.0, a2=1.0)
    assert crossover_frequency(K.THRESHOLD, co) is None
    assert kappa_critical(K.THRESHOLD, co, 1.0) == math.inf
    co2 = CharCoefficients(K.THRESHOLD, a1=1.0, a2=0.5)
    assert crossover_frequency(K.THRESHOLD, co2) is None


def _magnitude_cubic(co):
    """(A, B, C) of |P(j omega)|^2 - a4^2 = x^3 + A x^2 + B x + C, x = omega^2,
    where P is the averaged system's cubic without its delayed term."""
    return (co.a1**2 - 2.0 * co.a2, co.a2**2 - 2.0 * co.a1 * co.a3, co.a3**2 - co.a4**2)


def _cubic_terms(x, A, B, C):
    return abs(x) ** 3 + abs(A) * x * x + abs(B * x) + abs(C)


_decades = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)


@pytest.mark.parametrize("c_sign", [-1, 1])
@settings(max_examples=300, deadline=None)
@given(a1=_decades, a2=_decades, a3=_decades, spread=st.floats(0.0, 2.0))
def test_averaged_crossover_matches_scan_oracle(c_sign, a1, a2, a3, spread):
    # C = a3^2 - a4^2 < 0 for c_sign = -1, C >= 0 for c_sign = 1
    co = CharCoefficients(K.WITH_AVERAGING, a1, a2, a3, a3 * 10.0 ** (-c_sign * spread))
    A, B, C = _magnitude_cubic(co)
    roots = cubic_real_roots(A, B, C)
    for x in roots:  # polished to the rounding level of the cubic's terms
        assert abs(((x + A) * x + B) * x + C) <= 1e-14 * _cubic_terms(x, A, B, C)
    positive = [x for x in roots if x > 0.0]
    rising = [x for x in positive if (3.0 * x + 2.0 * A) * x + B > 0.0]
    omega = crossover_frequency(K.WITH_AVERAGING, co)
    assert (omega is None) == (not rising)
    if rising:
        assert any(omega == math.sqrt(x) for x in rising)
    old = crossover_cubic_root_by_scan(A, B, C)
    if old is None:
        # the scan stopped at the root x = 0 of C = 0, or found no sign change
        # on its grid, where the positive roots share one cell
        cell = (1.0 + abs(A) + abs(B) + abs(C)) / 512
        assert C == 0.0 or (C > 0.0 and len({x // cell for x in positive}) <= 1)
        return
    # the scan resolved the root; compare where it is well conditioned
    slope = abs((3.0 * old + 2.0 * A) * old + B) * old
    assume(_cubic_terms(old, A, B, C) < 1e3 * slope)
    assert any(x == pytest.approx(old, rel=1e-12) for x in positive)
    if len(positive) == 1:
        assert omega == pytest.approx(math.sqrt(old), rel=1e-12)
    elif C >= 0.0:
        # the scan took the smaller root, where the cubic falls and the pair
        # would cross back; the crossing is at the larger
        assert old == pytest.approx(positive[0], rel=1e-12)
        assert omega == math.sqrt(positive[1])


def _rhp_root_bound(co):
    """A bound r on |lambda| for every root with Re >= 0 at any delay: there
    |lambda + a1| >= sqrt(|lambda|^2 + a1^2) and |exp(-lambda tau)| <= 1, so
    a root needs r^2 sqrt(r^2 + a1^2) <= a2 r + a3 + a4."""
    def g(r):
        return r * r * math.sqrt(r * r + co.a1**2) - co.a2 * r - co.a3 - co.a4

    hi = 1.0
    while g(hi) < 0.0:
        hi *= 2.0
    return bisect(g, 0.0, hi)


@pytest.mark.parametrize("c_sign", [-1, 1])
@settings(max_examples=40, deadline=None)
@given(a1=st.floats(-2.0, 2.0), a3=st.floats(-3.0, 0.0), margin=st.floats(0.05, 1.5),
       spread=st.floats(0.0, 2.0))
@example(a1=0.9, a3=-0.1, margin=0.1, spread=0.1)  # three positive roots at C < 0
def test_averaged_kappa_critical_agrees_with_root_count(c_sign, a1, a3, margin, spread):
    # a2 is drawn above (a3 + a4) / a1, the zero-delay limit's Hurwitz bound,
    # where P(j omega) has its real and imaginary zeros close together: there
    # |P(j omega)| dips below a4, and two positive roots with C >= 0 are common
    a1 = 10.0**a1
    a3 = a1**3 * 10.0**a3
    a4 = a3 * 10.0 ** (-c_sign * spread)
    co = CharCoefficients(K.WITH_AVERAGING, a1, (a3 + a4 * 10.0**margin) / a1, a3, a4)
    delay = kappa_critical(K.WITH_AVERAGING, co, 1.0)  # the critical delay at unit rate
    assume(0.0 < delay < math.inf)
    # every root with Re >= 0 stays inside the counting rectangle at 1.03
    # delay (Re < 5 / tau, |Im| < 4 pi / tau), and no other crossing falls
    # within 3 % of the first
    assume(1.03 * delay * _rhp_root_bound(co) < 4.0)
    A, B, C = _magnitude_cubic(co)
    for x in cubic_real_roots(A, B, C):
        if x > 0.0:
            w = math.sqrt(x)
            other = _crossing_angle(K.WITH_AVERAGING, co, w) % (2.0 * math.pi) / w
            assume(not 0.97 * delay < other < 1.03 * delay or other == delay)
    assert count_unstable_roots(K.WITH_AVERAGING, co, 0.97 * delay) == 0
    assert count_unstable_roots(K.WITH_AVERAGING, co, 1.03 * delay) == 2


@settings(max_examples=60, deadline=None)
@given(exponents=st.tuples(*[st.floats(-3.0, 3.0)] * 4))
@example(exponents=(0.0, 0.5, 0.9, 0.1))  # a1 a2 = 3.16 < a3 + a4 = 9.20
def test_averaged_kappa_critical_agrees_with_root_count_at_any_zero_delay_limit(exponents):
    # rate and delay enter only as their product. Below a1 a2 = a3 + a4 the
    # zero-delay limit is unstable, so small rates are: kappa_c = 0, the
    # phase residual is positive, and roots lie right of the axis at a short
    # delay (a falling crossing may stabilise longer ones). Above it, no root
    # is, before the first rising crossing. With the delay 1 / bound every
    # root with Re >= 0 lies inside the counting rectangle.
    a1, a2, a3, a4 = (10.0**e for e in exponents)
    # off the boundary itself, where a root pair sits on the axis
    assume(abs(a1 * a2 - (a3 + a4)) > 1e-3 * (a1 * a2 + a3 + a4))
    co = CharCoefficients(K.WITH_AVERAGING, a1, a2, a3, a4)
    delay = 1.0 / _rhp_root_bound(co)
    kc = kappa_critical(K.WITH_AVERAGING, co, delay)
    residual = hopf_phase_residual(K.WITH_AVERAGING, co, delay, 1.0)
    if a1 * a2 <= a3 + a4:
        assert (kc, residual > 0.0) == (0.0, True)
        assert count_unstable_roots(K.WITH_AVERAGING, co, 1e-3 * delay) > 0
    else:
        assert kc > 0.0
        if residual < 0.0:
            assert count_unstable_roots(K.WITH_AVERAGING, co, delay) == 0


@pytest.mark.parametrize("coeffs", [
    (104.41639803647081, 0.7213055140683113, 68.48631018500453, 6.829813477853467),
    (0.5, 10.0, 3.0, 2.0),
])
def test_averaged_kappa_critical_is_zero_on_the_hurwitz_boundary(coeffs):
    # a1 a2 = a3 + a4, exactly or to rounding: the crossing angle rounds to
    # a tiny positive value, but no small rate is stable
    co = CharCoefficients(K.WITH_AVERAGING, *coeffs)
    assert co.a1 * co.a2 <= co.a3 + co.a4
    assert kappa_critical(K.WITH_AVERAGING, co, 1.0) == 0.0
    assert hopf_phase_residual(K.WITH_AVERAGING, co, 1.0, 1.0) > 0.0


def test_averaged_crossover_of_a_near_double_root_is_confirmed():
    # a1 a2 is above a3 + a4 by one rounding. F has two positive roots within
    # 4e-9 of a2; the rising one is ill-conditioned, and Newton steps on the
    # sextic move it by 1.3e-8 relative, so the oracle's confirmation by
    # step size refuses it. Its residual is at the rounding level of F's terms.
    co = CharCoefficients(K.WITH_AVERAGING, 0.0015460039777741802, 26.734173175104246,
                          0.03806288716158139, 0.003268250909633553)
    assert co.a1 * co.a2 > co.a3 + co.a4
    with pytest.raises(InternalConsistencyError, match="not confirmed on the sextic"):
        crossover_by_kind(K.WITH_AVERAGING, co)
    omega = crossover_frequency(K.WITH_AVERAGING, co)
    assert omega == pytest.approx(math.sqrt(co.a2), rel=1e-8)
    assert 0.0 < kappa_critical(K.WITH_AVERAGING, co, 1.0) < 1e-3
    assert hopf_phase_residual(K.WITH_AVERAGING, co, 1.0, 1.0) > 0.0


def test_averaged_crossover_confirmation_rejects_a_root_off_the_sextic(
        compound, red_defaults, monkeypatch):
    net = NetworkParams(c_per_flow=100.0, rtt=0.0848)
    eq = equilibrium_with_averaging(compound, red_defaults, net)
    co = linear_coefficients(K.WITH_AVERAGING, compound, net, eq, red=red_defaults)
    monkeypatch.setattr(aqmlab.stability, "cubic_real_roots",
                        lambda A, B, C: [x * (1.0 + 1e-6) for x in cubic_real_roots(A, B, C)])
    with pytest.raises(InternalConsistencyError, match="not confirmed on the sextic"):
        crossover_frequency(K.WITH_AVERAGING, co)


def _outcome(fn, *args):
    """fn(*args), or the type of the numerical error it raises."""
    try:
        return fn(*args)
    except (ArithmeticError, ConvergenceError, InternalConsistencyError) as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(list(K)), a=st.tuples(*[_decades] * 4),
       re=st.floats(-10.0, 10.0), im=st.floats(-100.0, 100.0),
       kappa=st.floats(-2.0, 2.0).map(lambda e: 10.0**e),
       tau=st.floats(-3.0, 1.0).map(lambda e: 10.0**e), omega=_decades)
def test_one_body_over_the_degree_matches_the_per_system_forms(kind, a, re, im, kappa,
                                                               tau, omega):
    # each function of the quasi-polynomial has one body over n = kind.dim;
    # the oracles write it out once per system
    co = CharCoefficients(kind, *a[: kind.dim + 1])
    lam = complex(re, im)
    args = (kind, lam, co, tau, kappa)
    assert repr(char_residual(*args)) == repr(residual_by_kind(*args))  # bit for bit
    for new, old in ((char_dlambda, dlambda_by_kind), (char_dkappa, dkappa_by_kind)):
        assert abs(new(*args) - old(*args)) <= 1e-12 * abs(old(*args))
    assert _zero_delay_stable(kind, co) == zero_delay_stable_by_kind(kind, co)
    assert _crossing_angle(kind, co, omega) == pytest.approx(
        crossing_angle_by_kind(kind, co, omega), rel=1e-12, abs=0.0)
    new, old = _outcome(crossover_frequency, kind, co), _outcome(crossover_by_kind, kind, co)
    if not isinstance(old, float) or not isinstance(new, float):
        assert new == old  # None, or the same exception type
        return
    assert new == pytest.approx(old, rel=1e-12)
    assert _crossing_angle(kind, co, new) == pytest.approx(
        crossing_angle_by_kind(kind, co, old), rel=1e-12, abs=0.0)


# -- sufficient conditions, averaged system -----------------------------------

def test_nyquist_crossover_matches_the_scan_oracle():
    # the loop's phase has one root in (0, pi/tau), found by one bracketed
    # root search; a log-grid scan with its own unwrap finds the same one
    for spec, red, net, _ in random_systems(60, seed=7, in_band_only=True):
        eq = equilibrium_with_averaging(spec, red, net)
        co = linear_coefficients(K.WITH_AVERAGING, spec, net, eq, red=red)
        omega_c = sufficient_stable_with_averaging(spec, red, net, eq).omega_c
        assert omega_c == pytest.approx(nyquist_crossover_by_scan(co, net.rtt), rel=1e-12)


def test_sufficient_certifies_tiny_delay(compound, red_defaults):
    net = NetworkParams(c_per_flow=100.0, rtt=1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        eq = equilibrium_with_averaging(compound, red_defaults, net)
        sa = sufficient_stable_with_averaging(compound, red_defaults, net, eq)
    assert sa.nyquist is not None and sa.nyquist.stable
    # the closed-form max-angle bound cannot certify at tiny delay (its
    # denominator is negative there); it is a diagnostic, not authoritative
    assert sa.simplified is not None and not sa.simplified.stable


def test_sufficient_margin_near_zero_on_boundary(compound, red_defaults):
    net = NetworkParams(c_per_flow=100.0, rtt=0.0848)
    eq = equilibrium_with_averaging(compound, red_defaults, net)
    sa = sufficient_stable_with_averaging(compound, red_defaults, net, eq)
    assert abs(sa.nyquist.margin) < 0.01
    # at the boundary the binding phase crossover is the crossing frequency
    co = linear_coefficients(K.WITH_AVERAGING, compound, net, eq, red=red_defaults)
    assert sa.omega_c == pytest.approx(
        crossover_frequency(K.WITH_AVERAGING, co), rel=1e-3
    )


def test_simplified_condition_subset_of_loop_gain_condition(compound):
    # the max-angle bound may certify strictly fewer points, never more
    red = RedParams(gamma=0.05)
    certified17 = 0
    for c in np.linspace(100.0, 500.0, 20):
        for tau in np.linspace(0.005, 0.3, 20):
            net = NetworkParams(c_per_flow=float(c), rtt=float(tau))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                eq = equilibrium_with_averaging(compound, red, net)
                sa = sufficient_stable_with_averaging(compound, red, net, eq)
            ok17 = sa.simplified is not None and sa.simplified.stable
            ok15 = sa.nyquist is not None and sa.nyquist.stable
            certified17 += ok17
            if ok17:
                assert ok15


# -- exact conditions ---------------------------------------------------------

def test_no_averaging_stability_versus_delay(compound, red_defaults):
    tau_c = 0.271751  # frozen from the boundary solve
    for tau, expect in ((0.9 * tau_c, True), (1.1 * tau_c, False), (0.2, True)):
        net = NetworkParams(c_per_flow=100.0, rtt=tau)
        v = stability_no_averaging(compound, red_defaults, net)
        assert v.stable is expect
        assert (v.margin < 0) is expect
        assert v.condition_used is Condition.NEC_SUFF_RATE


def test_no_averaging_dde_oracle_decay_and_growth(compound, red_defaults):
    # perturbations decay below the critical delay and grow above it; the
    # window must outlast the initial non-modal transient (decay times near
    # the boundary are over a hundred delays)
    tau_c = 0.271751
    for factor, grows in ((0.9, False), (1.1, True)):
        net = NetworkParams(c_per_flow=100.0, rtt=factor * tau_c)
        eq = equilibrium_no_averaging(compound, red_defaults, net)
        traj = integrate_dde(
            K.NO_AVERAGING, compound, net, red=red_defaults,
            initial_history=default_history(eq, 1.05),
            horizon=250 * net.rtt, steps_per_delay=200,
        )
        w = np.asarray(traj.component("w"))
        n = len(w)
        early = np.abs(w[: n // 3] - eq.w_star).max()
        late = np.abs(w[-n // 3:] - eq.w_star).max()
        assert bool(late > early) == grows


def test_kappa_threshold_is_exact(compound, red_defaults):
    net = NetworkParams(c_per_flow=100.0, rtt=0.2)
    eq = equilibrium_no_averaging(compound, red_defaults, net)
    co = linear_coefficients(K.NO_AVERAGING, compound, net, eq, red=red_defaults)
    kc = kappa_critical(K.NO_AVERAGING, co, net.rtt)
    for kappa, expect in ((0.5 * kc, True), (0.99 * kc, True), (1.01 * kc, False)):
        v = stability_no_averaging(compound, red_defaults, net, eq, kappa=kappa)
        assert v.stable is expect
    # the parameterized closed form crosses one exactly at kappa_c
    lhs = no_averaging_condition_lhs(compound, red_defaults, net, eq, kappa=kc)
    assert lhs == pytest.approx(1.0, rel=1e-6)


def test_exact_condition_agrees_with_root_counting_oracle():
    # 200 random systems: the rate-margin verdict matches the number of
    # right-half-plane roots counted by the argument principle
    for spec, red, net, eq in random_systems(200, seed=42):
        v = stability_no_averaging(spec, red, net, eq)
        co = linear_coefficients(K.NO_AVERAGING, spec, net, eq, red=red)
        n_rhp = count_unstable_roots(K.NO_AVERAGING, co, net.rtt)
        assert v.stable == (n_rhp == 0), (spec, red, net, v, n_rhp)


def test_threshold_stability_verdicts(compound):
    net = NetworkParams(c_per_flow=100.0, rtt=1.0)
    res38 = stability_threshold(compound, net, ThresholdParams(38.0))
    res40 = stability_threshold(compound, net, ThresholdParams(40.0))
    assert res38.nec_suff.stable
    assert not res40.nec_suff.stable
    assert res38.nec_suff.condition_used is Condition.THRESHOLD_NEC_SUFF
    assert res38.sufficient.condition_used is Condition.THRESHOLD_SUFFICIENT


def test_threshold_delay_independent_case(compound):
    # small enough threshold: a2 < a1 and no crossover exists at any delay
    net = NetworkParams(c_per_flow=100.0, rtt=1.0)
    th = ThresholdParams(1.0)
    eq = equilibrium_threshold(compound, net, th)
    co = linear_coefficients(K.THRESHOLD, compound, net, eq, th=th)
    assert co.a2 < co.a1
    res = stability_threshold(compound, net, th, eq)
    assert res.nec_suff.stable
    assert crossover_frequency(K.THRESHOLD, co) is None


def test_threshold_sufficient_subset_on_grid(compound):
    # 50x50 grid in (alpha, q_th): sufficient-stable implies exact-stable
    net = NetworkParams(c_per_flow=100.0, rtt=1.0)
    both = 0
    for alpha in np.linspace(0.02, 0.5, 50):
        spec = ProtocolSpec.compound_tcp(alpha=float(alpha))
        for q_th in np.linspace(5.0, 100.0, 50):
            res = stability_threshold(spec, net, ThresholdParams(float(q_th)))
            if res.sufficient.stable:
                assert res.nec_suff.stable
                both += 1
    assert both > 0  # the region is not vacuous


def test_threshold_reno_parameter_form(reno):
    net = NetworkParams(c_per_flow=100.0, rtt=1.0)
    th = ThresholdParams(20.0)
    eq = equilibrium_threshold(reno, net, th)
    res = stability_threshold(reno, net, th, eq)
    assert res.param_form_lhs == pytest.approx(20.0 / eq.w_star, rel=1e-12)


# -- transversality -----------------------------------------------------------

def _hopf_context(kind, spec, red, th, net):
    if kind is K.WITH_AVERAGING:
        eq = equilibrium_with_averaging(spec, red, net)
    elif kind is K.NO_AVERAGING:
        eq = equilibrium_no_averaging(spec, red, net)
    else:
        eq = equilibrium_threshold(spec, net, th)
    co = linear_coefficients(kind, spec, net, eq, red=red, th=th)
    kc = kappa_critical(kind, co, net.rtt)
    omega = kc * crossover_frequency(kind, co, kappa=1.0)
    return eq, co, kc, omega


def test_transversality_positive_and_matches_root_tracking(compound, red_defaults):
    cases = [
        (K.WITH_AVERAGING, red_defaults, None, NetworkParams(100.0, 0.0848)),
        (K.NO_AVERAGING, red_defaults, None, NetworkParams(100.0, 0.271751)),
        (K.THRESHOLD, None, ThresholdParams(38.80428), NetworkParams(100.0, 1.0)),
    ]
    for kind, red, th, net in cases:
        eq, co, kc, omega = _hopf_context(kind, compound, red, th, net)
        analytic = transversality(kind, co, net.rtt, omega, kappa=kc)
        numeric = transversality_numeric(kind, co, net.rtt, omega, kappa=kc)
        assert analytic > 0
        assert numeric == pytest.approx(analytic, rel=0.05)
        if kind is not K.THRESHOLD:
            assert co.a1**2 - 2 * co.a2 > 0
        if kind is K.WITH_AVERAGING:
            assert co.a3 < co.a4


# -- characteristic equation and the root oracle --------------------------------

def test_char_residual_vanishes_at_crossing(compound, red_defaults):
    net = NetworkParams(c_per_flow=100.0, rtt=0.271751)
    eq, co, kc, omega = _hopf_context(K.NO_AVERAGING, compound, red_defaults, None, net)
    assert abs(char_residual(K.NO_AVERAGING, 1j * omega, co, net.rtt, kc)) < 1e-8


def test_zero_delay_limit_is_hurwitz(compound, red_defaults):
    # in the no-delay limit the cubic with the exponential collapsed into the
    # constant term has all roots in the left half plane
    net = NetworkParams(c_per_flow=100.0, rtt=0.0848)
    eq = equilibrium_with_averaging(compound, red_defaults, net)
    co = linear_coefficients(K.WITH_AVERAGING, compound, net, eq, red=red_defaults)
    roots = np.roots([1.0, co.a1, co.a2, co.a3 + co.a4])
    assert all(r.real < 0 for r in roots)


def test_refine_root_polishes_to_machine_precision(compound, red_defaults):
    net = NetworkParams(c_per_flow=100.0, rtt=0.3)
    eq = equilibrium_no_averaging(compound, red_defaults, net)
    co = linear_coefficients(K.NO_AVERAGING, compound, net, eq, red=red_defaults)
    w = crossover_frequency(K.NO_AVERAGING, co)
    root = refine_root(K.NO_AVERAGING, co, net.rtt, 1j * w * 1.05)
    assert abs(char_residual(K.NO_AVERAGING, root, co, net.rtt)) < 1e-10


# -- Hopf boundary solving and chart tracing ----------------------------------

def test_hopf_boundary_anchors(compound, red_defaults):
    net = NetworkParams(c_per_flow=100.0, rtt=0.05)
    hp = solve_hopf_boundary(K.WITH_AVERAGING, "tau", (0.01, 0.5), compound, net,
                             red=red_defaults)
    assert hp.param_value == pytest.approx(0.0848, rel=0.03)
    assert hp.residual < 1e-8
    assert hp.kappa_c == pytest.approx(1.0, abs=1e-9)

    hp2 = solve_hopf_boundary(K.WITH_AVERAGING, "tau", (0.01, 0.5), compound, net,
                              red=RedParams(gamma=0.03))
    assert hp2.param_value == pytest.approx(0.171, rel=0.03)

    hp3 = solve_hopf_boundary(K.NO_AVERAGING, "tau", (0.01, 2.0), compound, net,
                              red=red_defaults)
    assert hp3.param_value == pytest.approx(0.273, rel=0.03)
    assert hp3.omega == pytest.approx(0.99, rel=0.02)


def test_hopf_boundary_requires_sign_change(compound, red_defaults):
    net = NetworkParams(c_per_flow=100.0, rtt=0.05)
    with pytest.raises(BracketError):
        solve_hopf_boundary(K.WITH_AVERAGING, "tau", (0.001, 0.01), compound, net,
                            red=red_defaults)


def test_red_threshold_search_keeps_b_min_below_b_max(compound):
    # a bracket that reaches past the other threshold is cut strictly short
    # of it; for the instantaneous system the boundary is one b_max - b_min
    net = NetworkParams(c_per_flow=100.0, rtt=0.2)
    hi = solve_hopf_boundary(K.NO_AVERAGING, "b_max", (1.0, 5000.0), compound, net,
                             red=RedParams(b_min=50.0))
    lo = solve_hopf_boundary(K.NO_AVERAGING, "b_min", (1.0, 500.0), compound, net,
                             red=RedParams(b_max=300.0))
    assert hi.param_value - 50.0 == pytest.approx(300.0 - lo.param_value, rel=1e-12)
    with pytest.raises(BracketError, match="keeps b_min < b_max"):
        solve_hopf_boundary(K.NO_AVERAGING, "b_max", (1.0, 40.0), compound, net,
                            red=RedParams(b_min=50.0))


def test_unsupported_free_parameter_is_domain_error(compound, red_defaults):
    # k and beta move the equilibrium, which has no explicit map in them
    net = NetworkParams(c_per_flow=100.0, rtt=0.1)
    with pytest.raises(DomainError, match="no Hopf search in 'k'"):
        trace_stability_chart(K.WITH_AVERAGING, "c", [100.0], "k", compound, net,
                              red=red_defaults)
    with pytest.raises(DomainError, match="no Hopf search in 'beta'"):
        solve_hopf_boundary(K.NO_AVERAGING, "beta", (0.1, 0.9), compound, net,
                            red=red_defaults)


_MAPPED = [(kind, name) for kind in K for name in ("tau", "c", "alpha", "q_th")
           if name != "q_th" or kind is K.THRESHOLD]


@settings(max_examples=200, deadline=None)
@given(
    case=st.sampled_from(_MAPPED),
    c=st.floats(10.0, 1000.0),
    tau=st.floats(0.05, 2.0),
    tau2=st.floats(0.05, 2.0),
    alpha=st.floats(0.01, 2.0),
    q_th=st.floats(2.0, 100.0),
)
def test_explicit_map_guards_the_solver(case, c, tau, tau2, alpha, q_th):
    # p* of the system at delay tau2, mapped to the value of one parameter at
    # which the system at delay tau has that p*; the solver must agree
    kind, name = case
    spec, red, th = ProtocolSpec(alpha=alpha), RedParams(), ThresholdParams(q_th)
    net = NetworkParams(c_per_flow=c, rtt=tau)
    p = _system_at(kind, "tau", tau2, spec, net, red, th)[4].p_star
    value, w = _explicit_equilibrium(kind, name, p, spec, net, th)
    assume(name != "q_th" or value > 1.0)  # the map's q_th is clamped at 1
    eq = _system_at(kind, name, value, spec, net, red, th)[4]
    assert eq.p_star == pytest.approx(p, rel=1e-12, abs=0.0)
    assert eq.w_star == pytest.approx(w, rel=1e-12, abs=0.0)


_CS = [10.0, 37.5, 100.0, 333.0, 1000.0, 4321.0]
_TAUS = [0.02, 0.05, 0.1, 0.25, 0.6, 1.5]


@pytest.mark.parametrize("kind, x_param, xs, constant", [
    pytest.param(kind, x_param, xs, constant, id=f"{kind.value}-{x_param}")
    for kind, constant in ((K.WITH_AVERAGING, "8.48341"), (K.NO_AVERAGING, "27.1751"),
                           (K.THRESHOLD, "1.9295"))
    for x_param, xs in (("c", _CS), ("tau", _TAUS))
])
def test_mapped_chart_matches_per_point_solves(kind, x_param, xs, constant, compound,
                                               red_defaults):
    # the fluid layer sees c and tau only through c*tau, so a chart of one
    # against the other solves one point and maps the rest through the
    # critical bandwidth-delay product, in packets; each mapped point must
    # agree with its own Hopf solve
    solve_for = "tau" if x_param == "c" else "c"
    net = NetworkParams(100.0, 1.0 if kind is K.THRESHOLD else 0.1)
    pts = trace_stability_chart(kind, x_param, xs, solve_for, compound, net,
                                red=red_defaults, th=ThresholdParams())
    oracle = per_point_chart(kind, x_param, xs, solve_for, compound, net,
                             red=red_defaults, th=ThresholdParams())
    assert all(p.error is None for p in pts)
    for p, q in zip(pts, oracle):
        assert p.y_critical == pytest.approx(q.param_value, rel=1e-14, abs=0.0)
        assert p.omega == pytest.approx(q.omega, rel=1e-14, abs=0.0)
        assert p.transversality == pytest.approx(q.transversality, rel=1e-12, abs=0.0)
        assert p.residual < 1e-10
    assert f"{pts[0].x_value * pts[0].y_critical:.6g}" == constant


def _count_equilibrium_solves(monkeypatch):
    calls = []
    for fn in ("equilibrium_with_averaging", "equilibrium_no_averaging",
               "equilibrium_threshold"):
        original = getattr(aqmlab.stability, fn)
        monkeypatch.setattr(aqmlab.stability, fn,
                            lambda *a, _f=original: calls.append(1) or _f(*a))
    return calls


@pytest.mark.parametrize("kind, name, bracket, net", [
    (K.WITH_AVERAGING, "tau", (0.01, 0.5), NetworkParams(100.0, 0.1)),
    (K.WITH_AVERAGING, "c", (10.0, 1000.0), NetworkParams(100.0, 0.1)),
    (K.WITH_AVERAGING, "alpha", (0.01, 1.0), NetworkParams(100.0, 0.1)),
    (K.WITH_AVERAGING, "gamma", (1e-4, 0.1), NetworkParams(100.0, 0.1)),
    (K.NO_AVERAGING, "tau", (0.01, 2.0), NetworkParams(100.0, 0.1)),
    (K.NO_AVERAGING, "kappa", (1.0, 100.0), NetworkParams(100.0, 0.1)),
    (K.THRESHOLD, "q_th", (20.0, 80.0), NetworkParams(100.0, 1.0)),
    (K.THRESHOLD, "tau", (1e-3, 0.1), NetworkParams(100.0, 1.0)),
], ids=lambda v: getattr(v, "value", None) if isinstance(v, K) else None)
def test_hopf_solve_makes_at_most_three_equilibrium_solves(kind, name, bracket, net,
                                                           compound, red_defaults,
                                                           monkeypatch):
    # the bracket ends and the solution, however many trial points
    calls = _count_equilibrium_solves(monkeypatch)
    residuals = []
    original_residual = aqmlab.stability.hopf_phase_residual
    monkeypatch.setattr(aqmlab.stability, "hopf_phase_residual",
                        lambda *a: residuals.append(1) or original_residual(*a))
    solve_hopf_boundary(kind, name, bracket, compound, net, red=red_defaults,
                        th=ThresholdParams())
    assert 1 <= len(calls) <= 3 < len(residuals)


@pytest.mark.parametrize("cs, solves", [([100.0], 3), ([100.0, 150.0], 4)])
def test_scanned_chart_point_solves_its_bracket_ends_once(cs, solves, compound,
                                                          red_defaults, monkeypatch):
    # the scan solves the equilibrium at the ends of the tau bracket, and the
    # Hopf solve in the bracket it finds keeps them: one more solve at the
    # root. A point mapped through the critical bandwidth-delay product makes
    # one, to check it.
    calls = _count_equilibrium_solves(monkeypatch)
    pts = trace_stability_chart(K.WITH_AVERAGING, "c", cs, "tau", compound,
                                NetworkParams(100.0, 0.1), red=red_defaults)
    assert all(p.error is None for p in pts)
    assert len(calls) == solves


def test_chart_point_with_a_failed_cross_check_fails_alone(compound, red_defaults,
                                                          monkeypatch):
    # a failed internal cross-check at one point is that point's error; the
    # points around it are solved
    original = aqmlab.stability.linear_coefficients

    def failing(kind, spec, net, eq, **kw):
        if net.c_per_flow == 200.0:
            raise InternalConsistencyError("raw and simplified coefficients disagree")
        return original(kind, spec, net, eq, **kw)

    monkeypatch.setattr(aqmlab.stability, "linear_coefficients", failing)
    pts = trace_stability_chart(K.WITH_AVERAGING, "c", [100.0, 200.0, 300.0], "tau",
                                compound, NetworkParams(100.0, 0.1), red=red_defaults)
    assert [p.error for p in pts] == [None, "raw and simplified coefficients disagree", None]
    assert pts[0].y_critical > pts[2].y_critical > 0


def test_chart_takes_its_bdp_from_the_first_point_that_solves(compound, red_defaults,
                                                              monkeypatch):
    # the first point's failed cross-check is its own error; the second point
    # is solved in full and the third is mapped through its c*tau
    original = aqmlab.stability.linear_coefficients
    solves = []
    original_solve = aqmlab.stability._chart_point
    monkeypatch.setattr(aqmlab.stability, "_chart_point",
                        lambda *a: solves.append(a[3].c_per_flow) or original_solve(*a))

    def failing(kind, spec, net, eq, **kw):
        if net.c_per_flow == 100.0:
            raise InternalConsistencyError("raw and simplified coefficients disagree")
        return original(kind, spec, net, eq, **kw)

    monkeypatch.setattr(aqmlab.stability, "linear_coefficients", failing)
    pts = trace_stability_chart(K.WITH_AVERAGING, "c", [100.0, 200.0, 300.0], "tau",
                                compound, NetworkParams(100.0, 0.1), red=red_defaults)
    assert [p.error for p in pts] == ["raw and simplified coefficients disagree", None, None]
    assert solves == [100.0, 200.0]
    assert pts[2].y_critical == 200.0 * pts[1].y_critical / 300.0
    assert f"{200.0 * pts[1].y_critical:.6g}" == "8.48341"


def test_chart_capacity_sweep_monotone(compound, red_defaults, tmp_path):
    net = NetworkParams(c_per_flow=100.0, rtt=0.05)
    pts = trace_stability_chart(
        K.WITH_AVERAGING, "c", np.linspace(100, 500, 9), "tau",
        compound, net, red=red_defaults,
    )
    taus = [p.y_critical for p in pts]
    assert all(p.error is None for p in pts)
    assert all(a > b for a, b in zip(taus, taus[1:]))
    assert all(p.transversality > 0 for p in pts)
    assert all(p.residual < 1e-8 for p in pts)
    out = tmp_path / "chart.csv"
    chart_to_csv(pts, out)
    header = out.read_text().splitlines()[0]
    assert header == "x_param,x_value,y_param,y_critical,omega,residual,transversality"


def test_chart_gamma_sweep_increasing(compound, red_defaults):
    net = NetworkParams(c_per_flow=100.0, rtt=0.05)
    pts = trace_stability_chart(
        K.WITH_AVERAGING, "gamma", np.geomspace(1e-4, 5e-2, 7), "tau",
        compound, net, red=red_defaults,
    )
    taus = [p.y_critical for p in pts]
    assert all(p.error is None for p in pts)
    assert all(a < b for a, b in zip(taus, taus[1:]))


def test_averaging_destabilizes_pointwise(compound, red_defaults):
    net = NetworkParams(c_per_flow=100.0, rtt=0.05)
    for c in (100.0, 300.0, 500.0):
        netc = NetworkParams(c_per_flow=c, rtt=0.05)
        with_avg = solve_hopf_boundary(
            K.WITH_AVERAGING, "tau", (1e-3, 0.5), compound, netc, red=red_defaults
        ).param_value
        without = solve_hopf_boundary(
            K.NO_AVERAGING, "tau", (1e-3, 2.0), compound, netc, red=red_defaults
        ).param_value
        assert without > with_avg


def test_hopf_point_brackets_unstable_oscillation(compound, red_defaults):
    # 5% beyond the critical delay the oscillation does not decay; 5% below
    # it does (envelope comparison over the second half of the run)
    tau_c = 0.271751
    for factor, sustained in ((1.05, True), (0.95, False)):
        net = NetworkParams(c_per_flow=100.0, rtt=tau_c * factor)
        eq = equilibrium_no_averaging(compound, red_defaults, net)
        traj = integrate_dde(
            K.NO_AVERAGING, compound, net, red=red_defaults,
            initial_history=default_history(eq, 1.05),
            horizon=250 * net.rtt, steps_per_delay=200,
        )
        w = np.asarray(traj.component("w"))
        half = len(w) // 2
        ampl_mid = np.abs(w[half : half + half // 2] - eq.w_star).max()
        ampl_end = np.abs(w[-half // 2 :] - eq.w_star).max()
        if sustained:
            assert ampl_end > 1.05 * ampl_mid and ampl_end > 1.0
        else:
            # 5% inside the boundary the envelope contracts slowly but surely
            assert ampl_end < 0.9 * ampl_mid


def test_root_counts_across_boundaries_all_systems(compound, red_defaults):
    # the argument-principle oracle sees the conjugate pair enter the right
    # half plane across each system's boundary (the instantaneous-feedback
    # case is covered with the 200-draw agreement test)
    tau_c_avg = 0.0848341046541
    for factor, expected in ((0.97, 0), (1.03, 2)):
        net = NetworkParams(c_per_flow=100.0, rtt=factor * tau_c_avg)
        eq = equilibrium_with_averaging(compound, red_defaults, net)
        co = linear_coefficients(K.WITH_AVERAGING, compound, net, eq, red=red_defaults)
        assert count_unstable_roots(K.WITH_AVERAGING, co, net.rtt) == expected
    net1 = NetworkParams(c_per_flow=100.0, rtt=1.0)
    for q_th, expected in ((38.0, 0), (40.0, 2)):
        th = ThresholdParams(q_th)
        eq = equilibrium_threshold(compound, net1, th)
        co = linear_coefficients(K.THRESHOLD, compound, net1, eq, th=th)
        assert count_unstable_roots(K.THRESHOLD, co, 1.0) == expected


def test_saturated_drop_regime_crosses_at_the_rising_root(compound, red_defaults):
    # at a tiny bandwidth-delay product the equilibrium drop probability
    # saturates and a3 >= a4: the magnitude cubic in omega^2 has two positive
    # roots, both in the first cell of the scan oracle, which finds neither.
    # The pair crosses rightward at the larger, where the cubic rises, at the
    # delay kappa_c tau = 7.461 s (the smaller is where it would cross back),
    # and the root-counting oracle sees it enter there. Every root with
    # Re >= 0 has |lambda| < 0.06 here, well inside the oracle's rectangle.
    net = NetworkParams(c_per_flow=100.0, rtt=1e-4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        eq = equilibrium_with_averaging(compound, red_defaults, net)
    co = linear_coefficients(K.WITH_AVERAGING, compound, net, eq, red=red_defaults)
    assert co.a3 >= co.a4
    A, B, C = _magnitude_cubic(co)
    low, high = [x for x in cubic_real_roots(A, B, C) if x > 0.0]
    assert low == pytest.approx(1.16884e-4, rel=1e-5)
    assert high == pytest.approx(2.75794e-3, rel=1e-5)
    assert crossover_cubic_root_by_scan(A, B, C) is None
    omega = crossover_frequency(K.WITH_AVERAGING, co)
    assert omega == math.sqrt(high)
    assert omega == pytest.approx(0.0525161, rel=1e-6)
    delay = kappa_critical(K.WITH_AVERAGING, co, net.rtt) * net.rtt
    assert delay == pytest.approx(7.46101, rel=1e-5)
    assert abs(char_residual(K.WITH_AVERAGING, 1j * omega, co, delay)) < 1e-12
    assert transversality(K.WITH_AVERAGING, co, delay, omega) > 0.0
    assert _rhp_root_bound(co) < 0.06
    assert count_unstable_roots(K.WITH_AVERAGING, co, 0.97 * delay) == 0
    assert count_unstable_roots(K.WITH_AVERAGING, co, 1.03 * delay) == 2


def test_chart_threshold_parameter_tradeoffs(compound, red_defaults):
    # raising the lower drop threshold shrinks the stable delay range, and
    # at a fixed boundary delay it raises the tolerable protocol gain
    net = NetworkParams(c_per_flow=100.0, rtt=0.1)
    pts = trace_stability_chart(
        K.NO_AVERAGING, "b_min", np.linspace(50, 150, 6), "tau",
        compound, net, red=red_defaults,
    )
    taus = [p.y_critical for p in pts]
    assert all(p.error is None for p in pts)
    assert all(a > b for a, b in zip(taus, taus[1:]))

    net2 = NetworkParams(c_per_flow=100.0, rtt=0.0848)
    pts2 = trace_stability_chart(
        K.WITH_AVERAGING, "b_min", np.linspace(50, 150, 6), "alpha",
        compound, net2, red=red_defaults,
    )
    alphas = [p.y_critical for p in pts2]
    assert all(p.error is None for p in pts2)
    assert all(a < b for a, b in zip(alphas, alphas[1:]))
    # the default protocol gain sits on the boundary at the default lower
    # threshold and this boundary delay
    assert alphas[0] == pytest.approx(0.125, rel=0.01)


# SHA-256 of the chart CSV without its residual column (every other column at
# the 12 significant digits chart_to_csv writes) for the four charts of the
# stability benchmark and the averaged anchors at 84.8 ms and 171 ms,
# recorded when the averaged crossover was still found by a scan and Brent's
# method
CHART_DIGESTS = {
    "avg-c": (17, "58dc7a3ee6a5f79ffb9566aae6cc54931cefa878f77d6fa990f3721eeb50308e",
              ["--system", "with-averaging", "--solve", "tau", "--sweep", "c=100:500:17"]),
    "avg-gamma": (17, "53fa25f859cc50e56197e2604189dbd6e3adc26c5fd57922dc592a7e357cf6a4",
                  ["--system", "with-averaging", "--solve", "tau", "--c", "100",
                   "--sweep", "gamma=0.0001:0.05:17"]),
    "noavg-c": (17, "aff41998970c1ad9b83baaf702c4bc6881584e6f6b60ae2ff97a421e92700c1d",
                ["--system", "no-averaging", "--solve", "tau", "--sweep", "c=100:500:17"]),
    "threshold-qth": (19, "16f35e637806fedb0d2a8fe7180980f48a67eddcc153b152a8fe986e821578af",
                      ["--system", "threshold", "--solve", "alpha", "--tau", "1",
                       "--sweep", "qth=10:100:19"]),
    "anchor-avg": (1, "f1fd4029831efd8c627fcb96a10943e76af78436b3b2ca37a2ebff6590db4173",
                   ["--system", "with-averaging", "--solve", "tau", "--sweep", "c=100:100:1"]),
    "anchor-avg-gamma0.03": (
        1, "0aea53cf33a5fbc94e986bdc373f4009f9792eac49045e6eae23558deefc1f51",
        ["--system", "with-averaging", "--solve", "tau", "--gamma", "0.03",
         "--sweep", "c=100:100:1"]),
    "anchor-noavg": (1, "aab57a5f7ccfa58cbf353e169da139e9d33114b902adbd0a17fca728c7b21d55",
                     ["--system", "no-averaging", "--solve", "tau", "--sweep", "c=100:100:1"]),
    "anchor-threshold": (
        1, "5e6a85078bf67a48207baf6c7264fb1106a253495ef7d1942759fb83c6ecedc1",
        ["--system", "threshold", "--solve", "q_th", "--tau", "1", "--sweep", "c=100:100:1"]),
}


@pytest.mark.parametrize("key", sorted(CHART_DIGESTS))
def test_chart_columns_keep_their_digits(key, tmp_path):
    n, digest, flags = CHART_DIGESTS[key]
    path = tmp_path / "chart.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["stability-chart", *flags, "--out", str(path)]) == 0
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert len(rows) == n
    text = "\n".join(",".join(r[:5] + r[6:]) for r in rows)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# a valid value for every init field of the types a Hopf trial rebuilds; a
# field added to one of them has to be given a strategy here, so the setters
# are checked against it
_FIELD_VALUES = {
    (ProtocolSpec, "alpha"): st.floats(1e-3, 10.0),
    (ProtocolSpec, "k"): st.floats(0.0, 0.95),
    (ProtocolSpec, "beta"): st.floats(0.05, 0.95),
    (RedParams, "b_min"): st.floats(1.0, 200.0),
    (RedParams, "b_max"): st.floats(250.0, 5000.0),
    (RedParams, "p_max"): st.floats(1e-3, 0.99),
    (RedParams, "w_q"): st.floats(1e-4, 1.0),
    (RedParams, "gamma"): st.floats(1e-6, 1.0),
    (ThresholdParams, "q_th"): st.floats(1.0, 500.0),
    (NetworkParams, "c_per_flow"): st.floats(1.0, 1e4),
    (NetworkParams, "rtt"): st.floats(1e-4, 30.0),
    (NetworkParams, "kappa"): st.floats(1e-3, 1e3),
    (NetworkParams, "buffer"): st.none() | st.floats(1.0, 1e4),
}
# setter name -> (slot in (spec, red, th, net), field it replaces)
_SETTER_FIELDS = {
    "alpha": (0, "alpha"), "k": (0, "k"), "beta": (0, "beta"),
    "gamma": (1, "gamma"), "b_min": (1, "b_min"), "b_max": (1, "b_max"),
    "p_max": (1, "p_max"), "q_th": (2, "q_th"),
    "tau": (3, "rtt"), "c": (3, "c_per_flow"), "kappa": (3, "kappa"),
}
_TRIAL_TYPES = (ProtocolSpec, RedParams, ThresholdParams, NetworkParams)


def _drawn(cls):
    fields = {f.name: _FIELD_VALUES[cls, f.name] for f in dataclasses.fields(cls) if f.init}
    return st.fixed_dictionaries(fields).map(lambda kw: cls(**kw))


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(_SETTER_FIELDS)),
       objs=st.tuples(*map(_drawn, _TRIAL_TYPES)), data=st.data())
def test_param_setters_build_what_replace_builds(name, objs, data):
    # every setter keeps each field it does not set and revalidates as replace does
    assert set(_SETTER_FIELDS) == set(_PARAM_SETTERS)
    slot, field = _SETTER_FIELDS[name]
    value = data.draw(_FIELD_VALUES[_TRIAL_TYPES[slot], field] | st.floats(-1.0, 1e4))
    expected = list(objs)
    try:
        expected[slot] = dataclasses.replace(objs[slot], **{field: value})
    except DomainError:
        with pytest.raises(DomainError):
            _PARAM_SETTERS[name](*objs, value)
        return
    built = _PARAM_SETTERS[name](*objs, value)
    assert [type(o) for o in built] == [type(o) for o in expected]
    assert [vars(o) for o in built] == [vars(o) for o in expected]  # rho and eta too
