import math
import warnings

import numpy as np
import pytest

from aqmlab.errors import BracketError
from aqmlab.fluid import (
    FluidSystemKind,
    default_history,
    equilibrium_no_averaging,
    equilibrium_threshold,
    equilibrium_with_averaging,
    integrate_dde,
)
from aqmlab.params import NetworkParams, ProtocolSpec, RedParams, ThresholdParams
from aqmlab.stability import (
    CharCoefficients,
    Condition,
    char_residual,
    count_unstable_roots,
    crossover_frequency,
    kappa_critical,
    linear_coefficients,
    no_averaging_condition_lhs,
    refine_root,
    solve_hopf_boundary,
    stability_no_averaging,
    stability_threshold,
    sufficient_stable_with_averaging,
    trace_stability_chart,
    chart_to_csv,
    transversality,
    transversality_numeric,
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
        k = spec.compound.k
        beta = spec.compound.beta
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
    # independent quartic-root oracle
    quartic = np.roots([1.0, 0.0, co.a1**2 - 2 * co.a2, 0.0, co.a2**2 - co.a3**2])
    pos = max(r.real for r in quartic if abs(r.imag) < 1e-9 and r.real > 0)
    assert w == pytest.approx(pos, rel=1e-9)


def test_threshold_no_crossover_when_a2_not_above_a1():
    co = CharCoefficients(K.THRESHOLD, a1=1.0, a2=1.0)
    assert crossover_frequency(K.THRESHOLD, co) is None
    assert kappa_critical(K.THRESHOLD, co, 1.0) == math.inf
    co2 = CharCoefficients(K.THRESHOLD, a1=1.0, a2=0.5)
    assert crossover_frequency(K.THRESHOLD, co2) is None


# -- sufficient conditions, averaged system -----------------------------------

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
        w = traj.component("w")
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
        w = traj.component("w")
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


def test_no_crossover_in_saturated_drop_regime(compound, red_defaults):
    # at a tiny bandwidth-delay product the equilibrium drop probability
    # saturates and the delayed-term coefficient no longer dominates: no
    # crossing frequency exists, so the system is stable at any rate
    # multiplier, which the root-counting oracle confirms
    net = NetworkParams(c_per_flow=100.0, rtt=1e-4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        eq = equilibrium_with_averaging(compound, red_defaults, net)
    co = linear_coefficients(K.WITH_AVERAGING, compound, net, eq, red=red_defaults)
    assert co.a3 >= co.a4
    assert crossover_frequency(K.WITH_AVERAGING, co) is None
    assert kappa_critical(K.WITH_AVERAGING, co, net.rtt) == math.inf
    assert count_unstable_roots(K.WITH_AVERAGING, co, net.rtt) == 0


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
