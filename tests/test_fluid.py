import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqmlab.errors import DomainError, IntegrationError
from aqmlab.fluid import (
    Equilibrium,
    FluidSystemKind,
    History,
    OperatingRegionWarning,
    Trajectory,
    default_history,
    equilibrium_no_averaging,
    equilibrium_threshold,
    equilibrium_with_averaging,
    integrate_dde,
    oscillation_metrics,
    rhs,
    threshold_bifurcation_sweep,
)
from aqmlab.params import NetworkParams, ProtocolSpec, RedParams, ThresholdParams
from aqmlab.protocols import threshold_drop_probability

from conftest import solve_red_fixed_point

K = FluidSystemKind


# -- equilibria ---------------------------------------------------------------

def test_equilibrium_with_averaging_matches_bisection_oracle(compound, red_defaults):
    net = NetworkParams(c_per_flow=100.0, rtt=0.0848)
    eq = equilibrium_with_averaging(compound, red_defaults, net)
    w_ref, p_ref = solve_red_fixed_point(0.125, 0.75, 0.5, 100.0, 0.0848)
    assert eq.w_star == pytest.approx(w_ref, rel=1e-10)
    assert eq.p_star == pytest.approx(p_ref, rel=1e-10)
    # frozen oracle values
    assert eq.w_star == pytest.approx(8.623461, rel=1e-5)
    assert eq.p_star == pytest.approx(0.0166361, rel=1e-4)
    assert eq.q_star == pytest.approx(133.181, rel=1e-4)
    assert eq.w_star * (1.0 - eq.p_star) == pytest.approx(8.48, abs=1e-9)
    assert eq.residual < 1e-9


def test_equilibrium_near_17_at_fig3_point(compound):
    net = NetworkParams(c_per_flow=100.0, rtt=0.171)
    eq = equilibrium_with_averaging(compound, RedParams(gamma=0.032), net)
    assert eq.w_star == pytest.approx(17.0, rel=0.05)


def test_zero_increase_gain_limit(red_defaults):
    spec = ProtocolSpec.compound_tcp(alpha=1e-12)
    net = NetworkParams(c_per_flow=100.0, rtt=0.1)
    eq = equilibrium_with_averaging(spec, red_defaults, net)
    assert eq.p_star < 1e-9
    assert eq.w_star == pytest.approx(net.c_per_flow * net.rtt, rel=1e-9)
    assert eq.q_star == pytest.approx(red_defaults.b_min, abs=1e-4)


def test_out_of_band_equilibrium_is_flagged(compound, red_defaults):
    # a tiny bandwidth-delay product forces a drop probability above p_max,
    # i.e. a queue beyond the affine band; reported but flagged, not silent
    net = NetworkParams(c_per_flow=100.0, rtt=0.01)
    with pytest.warns(OperatingRegionWarning):
        eq = equilibrium_with_averaging(compound, red_defaults, net)
    assert not eq.in_band
    assert eq.q_star > red_defaults.b_max


def test_no_averaging_equilibrium_equals_with_averaging(compound, red_defaults):
    net = NetworkParams(c_per_flow=100.0, rtt=0.273)
    eq_a = equilibrium_with_averaging(compound, red_defaults, net)
    eq_n = equilibrium_no_averaging(compound, red_defaults, net)
    assert eq_n.w_star == pytest.approx(eq_a.w_star, rel=1e-12)
    assert eq_n.p_star == pytest.approx(eq_a.p_star, rel=1e-12)
    assert eq_n.w_star == pytest.approx(27.4, rel=1e-2)
    assert eq_n.p_star == pytest.approx(3.96e-3, rel=1e-2)


def test_pinned_queue_limit(compound):
    # as the affine band collapses, q* -> b_min
    red = RedParams(b_min=50.0, b_max=50.0 + 1e-6, p_max=0.1)
    net = NetworkParams(c_per_flow=100.0, rtt=0.1)
    eq = equilibrium_no_averaging(compound, red, net)
    assert eq.q_star == pytest.approx(50.0, abs=1e-6)


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(0.02, 0.8),
    k=st.floats(0.0, 0.95),
    beta=st.floats(0.1, 0.9),
    c=st.floats(20.0, 800.0),
    tau=st.floats(0.005, 2.0),
)
def test_equilibrium_defining_equations_hold(alpha, k, beta, c, tau):
    spec = ProtocolSpec.compound_tcp(alpha=alpha, k=k, beta=beta)
    red = RedParams()
    net = NetworkParams(c_per_flow=c, rtt=tau)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        eq = equilibrium_no_averaging(spec, red, net)
    assert eq.residual < 1e-9
    assert eq.w_star * (1.0 - eq.p_star) == pytest.approx(c * tau, rel=1e-9)
    assert eq.q_star == pytest.approx(eq.p_star / red.rho + red.b_min, rel=1e-12)
    assert 0.0 < eq.p_star < 1.0


def test_threshold_equilibrium(compound):
    net = NetworkParams(c_per_flow=100.0, rtt=1.0)
    eq = equilibrium_threshold(compound, net, ThresholdParams(39.0))
    assert eq.residual < 1e-9
    assert 20.0 < eq.w_star < 100.0
    # drop probability at the root balances increase against decrease
    p_balance = 1.0 / (1.0 + (0.5 / 0.125) * eq.w_star ** (2.0 - 0.75))
    assert eq.p_star == pytest.approx(p_balance, rel=1e-9)
    assert eq.wk1_closed_form == pytest.approx(eq.w_star ** (0.75 - 1.0), rel=1e-4)


def test_threshold_equilibrium_linear_case(compound):
    net = NetworkParams(c_per_flow=100.0, rtt=1.0)
    eq = equilibrium_threshold(compound, net, ThresholdParams(1.0))
    # independent bisection of the q_th = 1 case: p(w) = w / bdp
    lo, hi = 1e-6, 100.0 - 1e-9
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        p = mid / 100.0
        g = 0.125 * mid ** (-0.25) * (1 - p) - 0.5 * mid * p
        if g > 0:
            lo = mid
        else:
            hi = mid
    assert eq.w_star == pytest.approx(0.5 * (lo + hi), rel=1e-9)


def test_threshold_equilibrium_reno_relation(reno):
    net = NetworkParams(c_per_flow=100.0, rtt=1.0)
    eq = equilibrium_threshold(reno, net, ThresholdParams(20.0))
    # classic AIMD balance: p/(1-p) = 2/w^2
    assert eq.p_star / (1.0 - eq.p_star) == pytest.approx(
        2.0 / eq.w_star**2, rel=1e-9
    )


# -- right-hand sides ---------------------------------------------------------

def test_rhs_vanishes_at_equilibrium(compound, red_defaults):
    net = NetworkParams(c_per_flow=100.0, rtt=0.171)
    for kind, eq in (
        (K.WITH_AVERAGING, equilibrium_with_averaging(compound, red_defaults, net)),
        (K.NO_AVERAGING, equilibrium_no_averaging(compound, red_defaults, net)),
    ):
        d = rhs(kind, eq.state(), eq.state(), compound, net, red=red_defaults)
        assert max(abs(v) for v in d) < 1e-10
    th = ThresholdParams(20.0)
    eq = equilibrium_threshold(compound, net, th)
    d = rhs(K.THRESHOLD, eq.state(), eq.state(), compound, net, th=th)
    assert abs(d[0]) < 1e-10


def test_rhs_empty_queue_one_sided(compound, red_defaults):
    net = NetworkParams(c_per_flow=100.0, rtt=0.171)
    # arrival below capacity at an empty queue must not drain further
    state = (5.0, 0.0, 0.01)
    d = rhs(K.WITH_AVERAGING, state, state, compound, net, red=red_defaults)
    assert d[1] == 0.0
    # positive net arrival still fills the queue
    state2 = (50.0, 0.0, 0.01)
    d2 = rhs(K.WITH_AVERAGING, state2, state2, compound, net, red=red_defaults)
    assert d2[1] > 0.0


def test_rhs_scales_linearly_with_rate_multiplier(compound, red_defaults):
    net1 = NetworkParams(c_per_flow=100.0, rtt=0.171, kappa=1.0)
    net2 = NetworkParams(c_per_flow=100.0, rtt=0.171, kappa=2.0)
    now, delayed = (20.0, 90.0, 0.01), (22.0, 80.0, 0.008)
    d1 = rhs(K.WITH_AVERAGING, now, delayed, compound, net1, red=red_defaults)
    d2 = rhs(K.WITH_AVERAGING, now, delayed, compound, net2, red=red_defaults)
    assert d2 == tuple(2.0 * v for v in d1)


# -- integrator ---------------------------------------------------------------

def test_fixed_point_invariance_all_systems(compound, red_defaults):
    net = NetworkParams(c_per_flow=100.0, rtt=0.05)
    for kind, solver, kw in (
        (K.WITH_AVERAGING, equilibrium_with_averaging, {"red": red_defaults}),
        (K.NO_AVERAGING, equilibrium_no_averaging, {"red": red_defaults}),
    ):
        eq = solver(compound, red_defaults, net)
        traj = integrate_dde(
            kind, compound, net, initial_history=eq.state(),
            horizon=500 * net.rtt, steps_per_delay=200, **kw
        )
        assert np.abs(traj.states - np.asarray(eq.state())).max() < 1e-6
    th = ThresholdParams(20.0)
    net1 = NetworkParams(c_per_flow=100.0, rtt=1.0)
    eq = equilibrium_threshold(compound, net1, th)
    traj = integrate_dde(
        K.THRESHOLD, compound, net1, th=th, initial_history=eq.state(),
        horizon=500.0, steps_per_delay=200,
    )
    assert np.abs(traj.states - eq.w_star).max() < 1e-6


def test_step_halving_convergence_order(compound):
    # smooth, stable threshold run; the perturbed window stays below the
    # capacity clamp so the right-hand side is smooth along the trajectory
    th = ThresholdParams(30.0)
    net = NetworkParams(c_per_flow=100.0, rtt=1.0)
    eq = equilibrium_threshold(compound, net, th)
    finals = {}
    for m in (200, 400, 800, 3200):
        traj = integrate_dde(
            K.THRESHOLD, compound, net, th=th,
            initial_history=default_history(eq, 1.1),
            horizon=30.0, steps_per_delay=m,
        )
        finals[m] = traj.states[-1][0]
    e1 = abs(finals[200] - finals[3200])
    e2 = abs(finals[400] - finals[3200])
    order = math.log2(e1 / e2)
    assert order >= 3.5


def test_minimum_resolution_enforced(compound, red_defaults):
    net = NetworkParams(c_per_flow=100.0, rtt=0.1)
    eq = equilibrium_no_averaging(compound, red_defaults, net)
    with pytest.raises(DomainError):
        integrate_dde(
            K.NO_AVERAGING, compound, net, red=red_defaults,
            initial_history=eq.state(), horizon=1.0, steps_per_delay=100,
        )


def test_rate_multiplier_is_time_rescaling_with_scaled_delay(
    compound, red_defaults
):
    """Doubling the rate multiplier is a time rescaling only when the delay
    is rescaled with it: y_fast(t) = y_slow(2t) where the slow run uses twice
    the history delay. The feedback parameters are identical in both runs."""
    net = NetworkParams(c_per_flow=100.0, rtt=0.171)
    eq = equilibrium_with_averaging(compound, red_defaults, net)
    hist = default_history(eq, 1.05)
    horizon = 40 * net.rtt
    fast = integrate_dde(
        K.WITH_AVERAGING, compound,
        NetworkParams(c_per_flow=100.0, rtt=0.171, kappa=2.0),
        red=red_defaults, initial_history=hist, horizon=horizon,
        steps_per_delay=400,
    )
    slow = integrate_dde(
        K.WITH_AVERAGING, compound, net, red=red_defaults,
        initial_history=hist, horizon=2 * horizon,
        steps_per_delay=400, delay=2 * net.rtt,
    )
    # the slow run's step is twice the fast run's, so node j of the slow run
    # sits at exactly twice the time of node j of the fast run
    assert slow.states.shape == fast.states.shape
    assert np.abs(slow.states - fast.states).max() < 1e-6


def test_warm_restart_from_stored_window(compound, red_defaults):
    # integrating 40 delays, restarting from the stored final window, and
    # integrating 40 more reproduces a single 80-delay run
    net = NetworkParams(c_per_flow=100.0, rtt=0.171)
    red = RedParams(gamma=0.028)
    eq = equilibrium_with_averaging(compound, red, net)
    full = integrate_dde(
        K.WITH_AVERAGING, compound, net, red=red,
        initial_history=default_history(eq), horizon=80 * net.rtt,
        steps_per_delay=200,
    )
    first = integrate_dde(
        K.WITH_AVERAGING, compound, net, red=red,
        initial_history=default_history(eq), horizon=40 * net.rtt,
        steps_per_delay=200,
    )
    resumed = integrate_dde(
        K.WITH_AVERAGING, compound, net, red=red,
        initial_history=History.from_trajectory(first, net.rtt),
        horizon=40 * net.rtt, steps_per_delay=200,
    )
    n = len(resumed.states)
    assert np.abs(resumed.states - full.states[-n:]).max() < 1e-6


@pytest.mark.parametrize("horizon", [-3.0, 0.0, math.nan, math.inf])
def test_horizon_must_be_positive_and_finite(compound, red_defaults, horizon):
    net = NetworkParams(c_per_flow=100.0, rtt=0.1)
    eq = equilibrium_no_averaging(compound, red_defaults, net)
    with pytest.raises(DomainError, match="horizon"):
        integrate_dde(
            K.NO_AVERAGING, compound, net, red=red_defaults,
            initial_history=eq.state(), horizon=horizon, steps_per_delay=200,
        )


def test_history_interpolates_and_guards_domain():
    hist = History(0.5, [(0.0,), (1.0,), (4.0,)])
    assert hist(-1.0) == (0.0,)
    assert hist(0.0) == (4.0,)
    mid = hist(-0.25)[0]
    assert 1.0 < mid < 4.0
    with pytest.raises(DomainError):
        hist(0.5)
    with pytest.raises(DomainError):
        hist(-2.0)


def test_blowup_reported_with_time(compound, red_defaults):
    # an absurd rate multiplier overflows the power-law window update; the
    # threshold system, whose window is floored and whose drop probability is
    # capped at 1, needs a larger one and a steep threshold before a stage
    # reaches inf - inf
    for kind in K:
        if kind is K.THRESHOLD:
            net = NetworkParams(c_per_flow=100.0, rtt=0.1, kappa=1e250)
            th = ThresholdParams(60.0)
            eq = equilibrium_threshold(compound, net, th)
            kw = {"th": th}
        else:
            net = NetworkParams(c_per_flow=100.0, rtt=0.1, kappa=1e155)
            solver = (
                equilibrium_with_averaging if kind is K.WITH_AVERAGING
                else equilibrium_no_averaging
            )
            eq = solver(compound, red_defaults, net)
            kw = {"red": red_defaults}
        with pytest.raises(IntegrationError) as err:
            integrate_dde(
                kind, compound, net, initial_history=default_history(eq, 1.5),
                horizon=5.0, steps_per_delay=200, **kw,
            )
        assert err.value.time is not None, kind


# -- exactness ----------------------------------------------------------------

# sha256 of traj.states.tobytes(), recorded with the generic tuple-based loop
# that the per-system kernels replaced: a drift of one ulp in one sample
# changes the digest. They were recorded on x86-64 Linux; `**` is the C
# library's pow, so a libm that rounds it differently gives other digests.
_DIGESTS = {
    "with-averaging/compound":
        "c6ec1067e62f711660508377b30b04dd8e6a953d18bdc87017998e37d27318fc",
    "with-averaging/reno":
        "30b81a7a2a5d5a6443e33f9e46760147774b5f82f9663b7b624447825fca2d72",
    "with-averaging/illinois":
        "3f27357e9dd4f4d97c67ef5eb221c51755213a7e93fd4f653da225177a430f2d",
    "with-averaging/africa":
        "cc0e09f5bec5413aa1762562fa936310941e6b0fee855941cfe5e0a260d59307",
    "no-averaging/compound":
        "3cedd2f8203631612c9ae4a4761500c4c533f633d9982b5beccbcd64a7805ac9",
    "no-averaging/reno":
        "3ce1fd37e3d7524e1848959ceb2fbc1a89a6a431f579b9dd724995dd92e8a9c7",
    "no-averaging/illinois":
        "b1ff6e689954cf81070740dff044e02a4979efabfd392271716107c20b671072",
    "no-averaging/africa":
        "aa28d3e47fbbc64afb9870b8ef0f52bb46be60c7fd2b499389fef4954a48c064",
    "threshold/compound":
        "6eefaad55eef32ec2484647d69b0820df882cb5474cda1c1d7e6db793f758cd9",
    "threshold/reno":
        "973d0234bfeb7783b7d1d21c46d96fa0e5e1056c0d5ff7cd16dc33050e5e8bf9",
    "threshold/illinois":
        "26826d03c565ee8b4b44e3e410305d39ff84603e61f766800c21ed2c5340d76b",
    "threshold/africa":
        "bcfe8bf2e9fc10d93980c6af6cfaf996ec9157b0970d29263bb692be50752e5d",
    "warm-restart":
        "1636557fdb3ddd267ac366c30146655532d54acfaf28b5fba894215e29ee7bd6",
    "delay-2tau":
        "1d2606bed54e4223884146b530e7bab72c68ddab7959a9cd7481c52fbdbdadf6",
}

_EXACT_SPECS = {
    "compound": ProtocolSpec.compound_tcp(),
    "reno": ProtocolSpec.reno(),
    "illinois": ProtocolSpec.illinois_tcp(),
    "africa": ProtocolSpec.africa_tcp(),
}
_EXACT_RED = RedParams(gamma=0.028)
# the 1.5x perturbation drives the queue into this buffer
_EXACT_NET = NetworkParams(c_per_flow=100.0, rtt=0.171, buffer=110.0)
_EXACT_TH_NET = NetworkParams(c_per_flow=100.0, rtt=1.0)
_EXACT_TH = ThresholdParams(45.0)


# The fixed points the digests start from, (w*, q*, p*) for the RED systems
# and w* for the threshold system, as the equilibrium solver returned them
# when the digests were recorded. They are literals so that a solver change
# that moves a root in its last bits leaves the digests alone;
# test_exact_fixed_points_match_solver ties them to the solver.
_EXACT_RED_EQ = {
    "compound": ("0x1.138cb5bea2db0p+4", "0x1.55827f8265399p+6", "0x1.cfb2fd29d898ap-8"),
    "reno": ("0x1.137243702a06ep+4", "0x1.4e0fd1ae9d1b1p+6", "0x1.b74b2ee1a70dcp-8"),
    "illinois": ("0x1.463ebf721b485p+4", "0x1.ac6ab639eb878p+9", "0x1.4a7aa4d8340b1p-3"),
    "africa": ("0x1.1290d44e9e21ep+4", "0x1.0e58c0ae451f3p+6", "0x1.cd06295347a8ep-9"),
}
_EXACT_TH_EQ = {
    "compound": "0x1.56c06562edc24p+6",
    "reno": "0x1.4db3211562632p+6",
    "illinois": "0x1.68df834aebf0ap+6",
    "africa": "0x1.51bbcaaf90fa0p+6",
}


def _exact_setup(kind, variant):
    spec = _EXACT_SPECS[variant]
    if kind is K.THRESHOLD:
        w = float.fromhex(_EXACT_TH_EQ[variant])
        p = threshold_drop_probability(w, _EXACT_TH_NET, _EXACT_TH)
        return spec, _EXACT_TH_NET, {"th": _EXACT_TH}, Equilibrium(kind, w, p)
    w, q, p = (float.fromhex(h) for h in _EXACT_RED_EQ[variant])
    return spec, _EXACT_NET, {"red": _EXACT_RED}, Equilibrium(kind, w, p, q)


def test_exact_fixed_points_match_solver():
    for variant, spec in _EXACT_SPECS.items():
        for kind in K:
            _, net, kw, fixed = _exact_setup(kind, variant)
            if kind is K.THRESHOLD:
                eq = equilibrium_threshold(spec, net, kw["th"])
            else:
                solver = (
                    equilibrium_with_averaging if kind is K.WITH_AVERAGING
                    else equilibrium_no_averaging
                )
                with warnings.catch_warnings():
                    # the illinois fixed point lies above b_max
                    warnings.simplefilter("ignore", OperatingRegionWarning)
                    eq = solver(spec, kw["red"], net)
            assert eq.state() == pytest.approx(fixed.state(), rel=1e-14, abs=0.0), (
                kind, variant
            )


def _digest(traj):
    return hashlib.sha256(traj.states.tobytes()).hexdigest()


def _exact_digests():
    """Every digest in _DIGESTS, recomputed with the current integrator."""
    out = {}
    for kind in K:
        for variant in _EXACT_SPECS:
            spec, net, kw, eq = _exact_setup(kind, variant)
            traj = integrate_dde(
                kind, spec, net, initial_history=default_history(eq, 1.5),
                horizon=20 * net.rtt, steps_per_delay=200, **kw,
            )
            out[f"{kind.value}/{variant}"] = _digest(traj)
    spec, net, kw, eq = _exact_setup(K.WITH_AVERAGING, "compound")
    first = integrate_dde(
        K.WITH_AVERAGING, spec, net, initial_history=default_history(eq, 1.5),
        horizon=10 * net.rtt, steps_per_delay=200, **kw,
    )
    resumed = integrate_dde(
        K.WITH_AVERAGING, spec, net,
        initial_history=History.from_trajectory(first, net.rtt),
        horizon=10 * net.rtt, steps_per_delay=200, **kw,
    )
    out["warm-restart"] = _digest(resumed)
    # a window 0.4x the fixed point drains the queue to its floor at 0
    spec, net, kw, eq = _exact_setup(K.NO_AVERAGING, "compound")
    slow = integrate_dde(
        K.NO_AVERAGING, spec, net, initial_history=default_history(eq, 0.4),
        horizon=20 * net.rtt, steps_per_delay=200, delay=2 * net.rtt, **kw,
    )
    out["delay-2tau"] = _digest(slow)
    return out


def test_trajectories_bit_identical_to_recorded_digests():
    assert _exact_digests() == _DIGESTS


# -- oscillation metrics ------------------------------------------------------

def _synthetic_traj(times, values):
    return Trajectory(
        np.asarray(times), np.asarray(values)[:, None], K.THRESHOLD,
        float(times[1] - times[0]),
    )


def test_metrics_constant_signal():
    t = np.arange(0.0, 100.0, 0.01)
    m = oscillation_metrics(_synthetic_traj(t, np.full_like(t, 3.0)), 10.0)
    assert m.amplitude == 0.0
    assert m.period is None


def test_metrics_sinusoid():
    t = np.arange(0.0, 100.0, 0.01)
    m = oscillation_metrics(_synthetic_traj(t, 3.0 + np.sin(2 * np.pi * t / 5.0)), 10.0)
    assert m.amplitude == pytest.approx(2.0, abs=1e-3)
    assert m.period == pytest.approx(5.0, abs=0.01)


def test_metrics_window_too_short():
    t = np.arange(0.0, 1.0, 0.01)
    with pytest.raises(DomainError):
        oscillation_metrics(_synthetic_traj(t, np.sin(t)), 0.999)


def test_threshold_bifurcation_direction(compound):
    # well below the critical threshold the amplitude is numerically zero;
    # above it the cycle grows with the threshold (full sweep in acceptance)
    net = NetworkParams(c_per_flow=100.0, rtt=1.0)
    rows = threshold_bifurcation_sweep(
        compound, net, [20.0, 45.0, 60.0],
        horizon_delays=220.0, transient_delays=160.0,
    )
    amp = {q: m.amplitude for q, _, m in rows}
    assert amp[20.0] < 1e-3
    assert amp[45.0] > 1.0
    assert amp[60.0] > amp[45.0]


# -- export -------------------------------------------------------------------

def test_trajectory_csv_roundtrip(tmp_path, compound, red_defaults):
    net = NetworkParams(c_per_flow=100.0, rtt=0.05)
    eq = equilibrium_with_averaging(compound, red_defaults, net)
    traj = integrate_dde(
        K.WITH_AVERAGING, compound, net, red=red_defaults,
        initial_history=default_history(eq), horizon=2 * net.rtt,
        steps_per_delay=200,
    )
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,w,q,p"
    assert len(lines) == len(traj.times) + 1
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.allclose(back[:, 1:], traj.states, rtol=1e-11)
    expected = "t,w,q,p\n" + "".join(
        ",".join(f"{v:.12g}" for v in (t, *row)) + "\n"
        for t, row in zip(traj.times, traj.states)
    )
    assert path.read_text() == expected
