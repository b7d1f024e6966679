"""Acceptance gate: every headline claim, at its stated tolerance, with one
pass/fail line per criterion (visible with `pytest -s`). Criteria marked by
number; each enforces its runtime budget."""

import time
import numpy as np
import pytest

from aqmlab.fluid import (
    FluidSystemKind,
    default_history,
    equilibrium_no_averaging,
    equilibrium_threshold,
    equilibrium_with_averaging,
    integrate_dde,
    oscillation_metrics,
    threshold_bifurcation_sweep,
)
from aqmlab.normalform import classify_at_hopf
from aqmlab.packetsim import (
    PacketRed,
    PacketThreshold,
    compute_afct,
    config_digest,
    desk_config,
    run_batch,
    run_simulation,
)
from aqmlab.params import NetworkParams, ProtocolSpec, RedParams, ThresholdParams
from aqmlab.protocols import red_drop_probability
from aqmlab.stability import (
    count_unstable_roots,
    linear_coefficients,
    solve_hopf_boundary,
    stability_threshold,
    transversality,
)

from hopf_oracle import transversality_numeric

K = FluidSystemKind
SPEC = ProtocolSpec.compound_tcp()
RED = RedParams()
SEEDS = (1, 2, 3)

_here = {}


def report(number, ok, detail):
    line = f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def hopf_avg_default():
    net = NetworkParams(c_per_flow=100.0, rtt=0.05)
    t0 = time.monotonic()
    hp = solve_hopf_boundary(K.WITH_AVERAGING, "tau", (0.01, 0.5), SPEC, net, red=RED)
    _here["t1"] = time.monotonic() - t0
    return hp


@pytest.fixture(scope="module")
def hopf_avg_gamma03():
    net = NetworkParams(c_per_flow=100.0, rtt=0.05)
    t0 = time.monotonic()
    hp = solve_hopf_boundary(
        K.WITH_AVERAGING, "tau", (0.01, 0.5), SPEC, net, red=RedParams(gamma=0.03)
    )
    _here["t2"] = time.monotonic() - t0
    return hp


@pytest.fixture(scope="module")
def hopf_noavg():
    net = NetworkParams(c_per_flow=100.0, rtt=0.05)
    t0 = time.monotonic()
    hp = solve_hopf_boundary(K.NO_AVERAGING, "tau", (0.01, 2.0), SPEC, net, red=RED)
    _here["t3a"] = time.monotonic() - t0
    return hp


@pytest.fixture(scope="module")
def hopf_threshold():
    net = NetworkParams(c_per_flow=100.0, rtt=1.0)
    hp = solve_hopf_boundary(
        K.THRESHOLD, "q_th", (10.0, 100.0), SPEC, net, th=ThresholdParams(15.0)
    )
    return hp


def test_criterion_01_hopf_boundary_with_averaging(hopf_avg_default):
    hp = hopf_avg_default
    ok = abs(hp.param_value - 0.0848) <= 0.03 * 0.0848 and _here["t1"] < 1.0
    report(1, ok, f"tau_c = {hp.param_value * 1e3:.3f} ms "
                  f"(target 84.8 +- 3%), solved in {_here['t1']:.2f} s")


def test_criterion_02_hopf_boundary_gamma_003(hopf_avg_gamma03):
    hp = hopf_avg_gamma03
    ok = abs(hp.param_value - 0.171) <= 0.03 * 0.171 and _here["t2"] < 1.0
    report(2, ok, f"tau_c = {hp.param_value * 1e3:.3f} ms "
                  f"(target 171 +- 3%), solved in {_here['t2']:.2f} s")


def test_criterion_03_hopf_boundary_no_averaging(hopf_noavg):
    t0 = time.monotonic()
    tau_c = hopf_noavg.param_value
    counts = {}
    for factor in (0.97, 1.03):
        net = NetworkParams(c_per_flow=100.0, rtt=factor * tau_c)
        eq = equilibrium_no_averaging(SPEC, RED, net)
        co = linear_coefficients(K.NO_AVERAGING, SPEC, net, eq, red=RED)
        counts[factor] = count_unstable_roots(K.NO_AVERAGING, co, net.rtt)
    elapsed = _here["t3a"] + time.monotonic() - t0
    ok = (
        abs(tau_c - 0.273) <= 0.03 * 0.273
        and counts[0.97] == 0
        and counts[1.03] >= 2
        and elapsed < 5.0
    )
    report(3, ok, f"tau_c = {tau_c:.4f} s (target 0.273 +- 3%); right-half-plane "
                  f"roots {counts[0.97]} / {counts[1.03]} at 0.97/1.03 tau_c; "
                  f"{elapsed:.2f} s")


def test_criterion_04_threshold_critical_and_bifurcation(hopf_threshold):
    t0 = time.monotonic()
    q_c = hopf_threshold.param_value
    net = NetworkParams(c_per_flow=100.0, rtt=1.0)
    sweep_qs = [10.0, 20.0, 30.0, 35.0, 38.0, 40.0, 42.0, 45.0, 55.0, 70.0, 100.0]
    # the transient must outlast the slow decay of the nearest below-critical
    # point for its residual amplitude to read as zero
    rows = threshold_bifurcation_sweep(
        SPEC, net, sweep_qs, horizon_delays=400.0, transient_delays=300.0
    )
    amp = {q: m.amplitude for q, _, m in rows}
    below = [amp[q] for q in sweep_qs if q < q_c]
    above = [amp[q] for q in sweep_qs if q > q_c]
    elapsed = time.monotonic() - t0
    ok = (
        38.0 <= q_c <= 40.0
        and max(below) < 0.1
        and min(above) > 0.5
        and all(a < b for a, b in zip(above, above[1:]))
        and elapsed < 120.0
    )
    report(4, ok, f"critical q_th = {q_c:.2f} (target [38, 40]); amplitude "
                  f"max below = {max(below):.3g}, increasing above "
                  f"{[f'{a:.2f}' for a in above]}; {elapsed:.1f} s")


def test_criterion_05_phase_portrait_dichotomy():
    t0 = time.monotonic()
    net = NetworkParams(c_per_flow=100.0, rtt=0.171)
    results = {}
    for gamma, horizon in ((0.032, 1100.0), (0.028, 400.0)):
        red = RedParams(gamma=gamma)
        eq = equilibrium_with_averaging(SPEC, red, net)
        traj = integrate_dde(
            K.WITH_AVERAGING, SPEC, net, red=red,
            initial_history=default_history(eq),
            horizon=horizon * net.rtt, steps_per_delay=250,
        )
        results[gamma] = (eq, traj)
    eq32, traj32 = results[0.032]
    last100 = oscillation_metrics(traj32, (1100 - 100) * net.rtt)
    # trajectories converge to the equilibrium, whose window is ~17 packets
    converged = (
        abs(eq32.w_star - 17.0) <= 0.05 * 17.0
        and max(
            abs(last100.maximum - eq32.w_star), abs(last100.minimum - eq32.w_star)
        ) <= 0.05 * eq32.w_star
    )
    eq28, traj28 = results[0.028]
    m_prev = oscillation_metrics(traj28, 200 * net.rtt)
    m_last = oscillation_metrics(traj28, 300 * net.rtt)  # last 100 delays
    sustained = m_last.amplitude > 0.9 * m_prev.amplitude and m_last.amplitude > 1.0
    elapsed = time.monotonic() - t0
    ok = converged and sustained and elapsed < 30.0
    report(5, ok, f"gamma=0.032 settles to w in [{last100.minimum:.2f}, "
                  f"{last100.maximum:.2f}] (w* ~ 17 +- 5%); gamma=0.028 cycle "
                  f"amplitude {m_last.amplitude:.2f} persists; {elapsed:.1f} s")


def test_criterion_06_normal_form_classification(hopf_noavg):
    t0 = time.monotonic()
    tau_c = hopf_noavg.param_value
    net = NetworkParams(c_per_flow=100.0, rtt=0.1)
    res, eig, g = classify_at_hopf(SPEC, RED, net, tau_c=tau_c)
    alpha_prime = -res.beta2 / 2.0 / res.mu2
    identity = abs(res.mu2 * alpha_prime - (-res.beta2 / 2.0)) < 1e-10
    # a small bounded orbit just past the critical rate multiplier
    netk = NetworkParams(c_per_flow=100.0, rtt=tau_c, kappa=1.02 * res.kappa_c)
    eqk = equilibrium_no_averaging(SPEC, RED, netk)
    traj = integrate_dde(
        K.NO_AVERAGING, SPEC, netk, red=RED,
        initial_history=default_history(eqk, 1.02), horizon=900.0,
        steps_per_delay=200,
    )
    m = oscillation_metrics(traj, 840.0)
    bounded_small = np.isfinite(traj.columns).all() and 0 < m.amplitude < eqk.w_star
    elapsed = time.monotonic() - t0
    ok = res.mu2 > 0 and res.beta2 < 0 and identity and bounded_small and elapsed < 60.0
    report(6, ok, f"mu2 = {res.mu2:.3e} > 0, beta2 = {res.beta2:.3e} < 0 "
                  f"({res.bifurcation}, {res.orbit}); orbit amplitude "
                  f"{m.amplitude:.2f} pkts at kappa = 1.02 kappa_c; {elapsed:.1f} s")


def test_criterion_07_transversality_everywhere(
    hopf_avg_default, hopf_avg_gamma03, hopf_noavg, hopf_threshold
):
    points = []
    for hp, red, th in (
        (hopf_avg_default, RED, None),
        (hopf_avg_gamma03, RedParams(gamma=0.03), None),
        (hopf_noavg, RED, None),
    ):
        net = NetworkParams(c_per_flow=100.0, rtt=hp.param_value)
        eq = (
            equilibrium_with_averaging(SPEC, red, net)
            if hp.kind is K.WITH_AVERAGING
            else equilibrium_no_averaging(SPEC, red, net)
        )
        co = linear_coefficients(hp.kind, SPEC, net, eq, red=red)
        points.append((hp, co, net.rtt))
    th = ThresholdParams(hopf_threshold.param_value)
    net1 = NetworkParams(c_per_flow=100.0, rtt=1.0)
    eq = equilibrium_threshold(SPEC, net1, th)
    co = linear_coefficients(K.THRESHOLD, SPEC, net1, eq, th=th)
    points.append((hopf_threshold, co, 1.0))

    worst_rel = 0.0
    all_positive = True
    for hp, co, tau in points:
        analytic = transversality(hp.kind, co, tau, hp.omega, kappa=hp.kappa_c)
        numeric = transversality_numeric(hp.kind, co, tau, hp.omega, kappa=hp.kappa_c)
        all_positive &= analytic > 0
        worst_rel = max(worst_rel, abs(numeric - analytic) / abs(analytic))
    ok = all_positive and worst_rel < 0.05
    report(7, ok, f"crossing speed positive at all {len(points)} Hopf points; "
                  f"worst analytic-vs-tracking mismatch {worst_rel:.2e}")


def test_criterion_08_averaging_reduces_stable_delay():
    rows = []
    for c in (100.0, 200.0, 300.0, 400.0, 500.0):
        net = NetworkParams(c_per_flow=c, rtt=0.05)
        with_avg = solve_hopf_boundary(
            K.WITH_AVERAGING, "tau", (1e-3, 0.5), SPEC, net, red=RED
        ).param_value
        without = solve_hopf_boundary(
            K.NO_AVERAGING, "tau", (1e-3, 2.0), SPEC, net, red=RED
        ).param_value
        rows.append((c, with_avg, without))
    ok = all(b > a for _, a, b in rows)
    report(8, ok, "tau_c without averaging exceeds tau_c with averaging at "
                  + ", ".join(f"C={int(c)} ({b / a:.2f}x)" for c, a, b in rows))


def test_criterion_09_reno_equivalence():
    reno = ProtocolSpec.reno()
    as_compound = ProtocolSpec.compound_tcp(alpha=1.0, k=0.0, beta=0.5)
    worst = 0.0
    for c, tau, q_th in ((100.0, 1.0, 20.0), (100.0, 1.0, 60.0), (250.0, 0.4, 35.0)):
        net = NetworkParams(c_per_flow=c, rtt=tau)
        th = ThresholdParams(q_th)
        res_r = stability_threshold(reno, net, th)
        res_c = stability_threshold(as_compound, net, th)
        for a, b in (
            (res_r.nec_suff.margin, res_c.nec_suff.margin),
            (res_r.sufficient.margin, res_c.sufficient.margin),
            (res_r.param_form_lhs, res_c.param_form_lhs),
        ):
            worst = max(worst, abs(a - b) / max(abs(b), 1e-300))
        eq = equilibrium_threshold(reno, net, th)
        worst = max(
            worst,
            abs(res_r.param_form_lhs - q_th / eq.w_star) / (q_th / eq.w_star),
        )
    ok = worst < 1e-12
    report(9, ok, f"classic-AIMD conditions match the (1, 0, 1/2) power-law "
                  f"special case to {worst:.2e} (tolerance 1e-12), including "
                  f"the q_th/w* < pi/2 form")


def _batch(configs: dict) -> dict:
    """run_batch over independent runs, keyed back by the caller's keys."""
    out = run_batch(list(configs.values()))
    return {key: out[(config_digest(cfg), cfg.seed)] for key, cfg in configs.items()}


@pytest.fixture(scope="module")
def red_desk_runs():
    return _batch({
        (rtt, seed): desk_config(
            PacketRed(b_min=50, b_max=100, p_max=0.1, w_q=0.002), rtt, seed=seed
        )
        for rtt in (0.01, 0.2)
        for seed in SEEDS
    })


def test_criterion_10_packet_level_rtt_dichotomy(red_desk_runs):
    t0 = time.monotonic()
    ok = True
    details = []
    for seed in SEEDS:
        spread = {}
        for rtt in (0.01, 0.2):
            m = red_desk_runs[(rtt, seed)]
            post = m.post_transient(60.0)
            q = np.array([m.queue_len[0][i] for i in post])
            # robust peak-to-peak: central 95% spread, immune to single-sample
            # stochastic excursions
            spread[rtt] = float(np.percentile(q, 97.5) - np.percentile(q, 2.5))
            min_util = min(m.utilization_pct[0][i] for i in post[1:])
            if rtt == 0.01:
                ok &= min_util >= 98.0
            else:
                ok &= min_util < 95.0
        ratio = spread[0.2] / spread[0.01]
        sync_low = red_desk_runs[(0.01, seed)].sync_index
        sync_high = red_desk_runs[(0.2, seed)].sync_index
        ok &= ratio >= 3.0
        ok &= sync_high > sync_low
        details.append(f"seed {seed}: spread x{ratio:.2f}, sync "
                       f"{sync_low:.2f}->{sync_high:.2f}")
    elapsed = time.monotonic() - t0
    ok &= elapsed < 300.0
    report(10, ok, "; ".join(details))


def test_criterion_11_threshold_policy_comparison():
    t0 = time.monotonic()
    ok = True
    details = []
    runs = _batch({
        (name, seed): desk_config(
            pol, 0.15, seed=seed, bytes_to_send=50_000_000,
            duration=4000.0, overload=1.4,
        )
        for seed in SEEDS
        for name, pol in (
            ("red", PacketRed(b_min=8, b_max=15, p_max=0.1, w_q=1.2e-4)),
            ("threshold", PacketThreshold(q_th=15)),
        )
    })
    for seed in SEEDS:
        th = runs[("threshold", seed)]
        rd = runs[("red", seed)]
        cap_ok = max(max(q) for q in th.queue_len) <= 15
        afct_ok = compute_afct(th) <= compute_afct(rd)
        qd_ok = th.mean_queueing_delay < rd.mean_queueing_delay
        ok &= cap_ok and afct_ok and qd_ok
        details.append(
            f"seed {seed}: cap {max(max(q) for q in th.queue_len)}<=15, "
            f"AFCT {compute_afct(th):.0f}s vs {compute_afct(rd):.0f}s, "
            f"delay {th.mean_queueing_delay * 1e3:.2f} vs "
            f"{rd.mean_queueing_delay * 1e3:.2f} ms"
        )
    elapsed = time.monotonic() - t0
    ok &= elapsed < 600.0
    report(11, ok, "; ".join(details) + f"; {elapsed:.0f} s")


def test_criterion_12_property_suite_spot_checks():
    ok = True
    # drop probability continuity and monotonicity at the breakpoints
    for b in (RED.b_min, RED.b_max, 2 * RED.b_max):
        ok &= abs(
            red_drop_probability(b - 1e-9, RED) - red_drop_probability(b + 1e-9, RED)
        ) < 1e-6
    qs = np.linspace(0, 3 * RED.b_max, 2000)
    ps = [red_drop_probability(float(q), RED) for q in qs]
    ok &= all(a <= b + 1e-15 for a, b in zip(ps, ps[1:]))

    # series coefficients against finite differences (full check in the
    # normal-form suite; one spot draw here)
    from test_normalform import _series_vs_partials
    from aqmlab.normalform import taylor_coefficients

    net = NetworkParams(c_per_flow=140.0, rtt=0.22)
    eq = equilibrium_no_averaging(SPEC, RED, net)
    tay = taylor_coefficients(SPEC, RED, net, eq)
    for name, val in _series_vs_partials(SPEC, RED, net, eq).items():
        ok &= abs(getattr(tay, name) - val) <= 1e-4 * abs(val)

    # integrator fixed-point invariance
    traj = integrate_dde(
        K.NO_AVERAGING, SPEC, net, red=RED, initial_history=eq.state(),
        horizon=100 * net.rtt, steps_per_delay=200,
    )
    ok &= float(np.abs(np.asarray(traj.columns).T - np.asarray(eq.state())).max()) < 1e-6

    # conservation and determinism of the packet simulator
    cfg = desk_config(PacketThreshold(q_th=15), 0.05, seed=2, duration=10.0,
                      n_flows=6, capacity=10e6)
    m1, m2 = run_simulation(cfg), run_simulation(cfg)
    ok &= all(
        c.arrivals == c.served + c.drops + c.final_occupancy for c in m1.counters
    )
    ok &= m1.queue_len == m2.queue_len and m1.windows == m2.windows

    # unique positive crossover root whenever a3 < a4 (default-like ranges)
    from test_stability import paper_range_systems

    checked = 0
    for spec, red, net2, eq2 in paper_range_systems(30, seed=77):
        co = linear_coefficients(K.WITH_AVERAGING, spec, net2, eq2, red=red)
        if not co.a3 < co.a4:
            continue
        roots = np.roots([
            1.0, co.a1**2 - 2 * co.a2, co.a2**2 - 2 * co.a1 * co.a3,
            co.a3**2 - co.a4**2,
        ])
        pos = [r for r in roots if abs(r.imag) < 1e-9 and r.real > 0]
        ok &= len(pos) == 1
        checked += 1
    ok &= checked > 20
    report(12, ok, "probability-law continuity/monotonicity, series-vs-partials, "
                   "fixed-point invariance, conservation/determinism, and "
                   f"unique-crossover ({checked} draws) all hold")
