import hashlib
import math
import random
import tracemalloc
import warnings
from array import array
from dataclasses import astuple
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import aqmlab.fluid
from aqmlab.errors import DomainError, IntegrationError
from aqmlab.fluid import (
    Equilibrium,
    FluidSystemKind,
    OperatingRegionWarning,
    OscillationMetrics,
    Trajectory,
    default_history,
    equilibrium_no_averaging,
    equilibrium_threshold,
    equilibrium_with_averaging,
    integrate_dde,
    oscillation_metrics,
    threshold_bifurcation_sweep,
)
from aqmlab.params import NetworkParams, ProtocolSpec, RedParams, ThresholdParams
from aqmlab.protocols import threshold_drop_probability

from conftest import solve_red_fixed_point
from fluid_oracle import ORACLE_KERNELS, History, rhs

K = FluidSystemKind


def _states(traj):
    """The samples as an (n, dim) array, one row per time."""
    return np.asarray(traj.columns).T


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
        assert np.abs(_states(traj) - np.asarray(eq.state())).max() < 1e-6
    th = ThresholdParams(20.0)
    net1 = NetworkParams(c_per_flow=100.0, rtt=1.0)
    eq = equilibrium_threshold(compound, net1, th)
    traj = integrate_dde(
        K.THRESHOLD, compound, net1, th=th, initial_history=eq.state(),
        horizon=500.0, steps_per_delay=200,
    )
    assert np.abs(_states(traj) - eq.w_star).max() < 1e-6


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
        finals[m] = traj.component("w")[-1]
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
    assert _states(slow).shape == _states(fast).shape
    assert np.abs(_states(slow) - _states(fast)).max() < 1e-6


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
    n = len(resumed.times)
    assert np.abs(_states(resumed) - _states(full)[-n:]).max() < 1e-6


@pytest.mark.parametrize("horizon", [-3.0, 0.0, math.nan, math.inf])
def test_horizon_must_be_positive_and_finite(compound, red_defaults, horizon):
    net = NetworkParams(c_per_flow=100.0, rtt=0.1)
    eq = equilibrium_no_averaging(compound, red_defaults, net)
    with pytest.raises(DomainError, match="horizon"):
        integrate_dde(
            K.NO_AVERAGING, compound, net, red=red_defaults,
            initial_history=eq.state(), horizon=horizon, steps_per_delay=200,
        )


def test_missing_policy_params_is_domain_error(compound, red_defaults):
    net = NetworkParams(c_per_flow=100.0, rtt=0.1)
    eq = equilibrium_threshold(compound, net, ThresholdParams(20.0))
    with pytest.raises(DomainError, match="needs ThresholdParams"):
        integrate_dde(
            K.THRESHOLD, compound, net, red=red_defaults,
            initial_history=eq.state(), horizon=1.0, steps_per_delay=200,
        )
    eq = equilibrium_no_averaging(compound, red_defaults, net)
    for kind in (K.WITH_AVERAGING, K.NO_AVERAGING):
        with pytest.raises(DomainError, match="needs RedParams"):
            integrate_dde(
                kind, compound, net, th=ThresholdParams(20.0),
                initial_history=eq.state()[: kind.dim], horizon=1.0,
                steps_per_delay=200,
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

# sha256 of the row-major float64 samples, recorded with the generic tuple-based loop
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
    "no-averaging/compound":
        "3cedd2f8203631612c9ae4a4761500c4c533f633d9982b5beccbcd64a7805ac9",
    "no-averaging/reno":
        "3ce1fd37e3d7524e1848959ceb2fbc1a89a6a431f579b9dd724995dd92e8a9c7",
    "no-averaging/illinois":
        "b1ff6e689954cf81070740dff044e02a4979efabfd392271716107c20b671072",
    "threshold/compound":
        "6eefaad55eef32ec2484647d69b0820df882cb5474cda1c1d7e6db793f758cd9",
    "threshold/reno":
        "973d0234bfeb7783b7d1d21c46d96fa0e5e1056c0d5ff7cd16dc33050e5e8bf9",
    "threshold/illinois":
        "26826d03c565ee8b4b44e3e410305d39ff84603e61f766800c21ed2c5340d76b",
    "warm-restart":
        "1636557fdb3ddd267ac366c30146655532d54acfaf28b5fba894215e29ee7bd6",
    "delay-2tau":
        "1d2606bed54e4223884146b530e7bab72c68ddab7959a9cd7481c52fbdbdadf6",
}

_EXACT_SPECS = {
    "compound": ProtocolSpec.compound_tcp(),
    "reno": ProtocolSpec.reno(),
    "illinois": ProtocolSpec.illinois_tcp(),
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
}
_EXACT_TH_EQ = {
    "compound": "0x1.56c06562edc24p+6",
    "reno": "0x1.4db3211562632p+6",
    "illinois": "0x1.68df834aebf0ap+6",
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
    return hashlib.sha256(_states(traj).tobytes()).hexdigest()


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


def _kernel_output(kernels, run):
    """The blowup time of run() (None if it ends) and every node the kernel
    wrote before it ended or blew up, history included, as float64 bytes.

    The kernel is called once per delay on a window of the last delay's
    nodes, so each call's new nodes are recorded as it returns or raises,
    after the first call's window, which holds the history."""
    written = []

    def recording(kernel):
        def record(spec, net, params, cols, *rest):
            if not written:
                written.extend(array("d", c) for c in cols)
            sizes = [len(c) for c in cols]
            try:
                kernel(spec, net, params, cols, *rest)
            finally:
                for a, c, n in zip(written, cols, sizes):
                    a.fromlist(c[n:])

        return record

    with patch.dict(aqmlab.fluid._KERNELS, {k: recording(v) for k, v in kernels.items()}):
        try:
            run()
            blowup = None
        except IntegrationError as err:
            blowup = err.time
    return blowup, [a.tobytes() for a in written]


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(K),
    variant=st.sampled_from(sorted(_EXACT_SPECS)),
    c=st.floats(20.0, 200.0),
    rtt=st.floats(0.05, 1.0),
    kappa=st.floats(0.3, 4.0),
    delay_scale=st.floats(0.5, 2.0),
    gamma=st.floats(0.005, 0.1),
    band=st.floats(0.0, 2.7).map(lambda e: 10.0**e),  # b_max - b_min
    headroom=st.floats(0.01, 10.0),
    q_th=st.floats(5.0, 60.0),
    perturbation=st.floats(0.01, 3.0),
)
@example(
    kind=K.WITH_AVERAGING, variant="illinois", c=45.0, rtt=0.05, kappa=0.6,
    delay_scale=1.7, gamma=0.04, band=5.0, headroom=4.5, q_th=15.0, perturbation=1.8,
)
@example(
    kind=K.WITH_AVERAGING, variant="compound", c=100.0, rtt=0.8, kappa=2.4,
    delay_scale=1.8, gamma=0.5, band=5.0, headroom=4.0, q_th=15.0, perturbation=2.6,
)
def test_kernels_bit_identical_to_closure_oracle(
    kind, variant, c, rtt, kappa, delay_scale, gamma, band, headroom, q_th, perturbation
):
    """The written-out kernels against the closure-based ones they replaced.

    Large perturbations fill the buffer, set just above q*; with a narrow
    RED band the drop probability there passes 1, and large rate multipliers
    overshoot the window to its floor. Small perturbations empty the queue
    and drive the averaged p to 0. Some runs blow up; the nodes before the
    blowup and its time must agree. The averaged system's window rarely
    passes its floor in random draws, so two explicit examples make it do
    so with a queue that is neither empty nor full, where the queue law
    must read the stage window before the floor."""
    spec = _EXACT_SPECS[variant]
    if kind is K.THRESHOLD:
        net = NetworkParams(c_per_flow=c, rtt=rtt, kappa=kappa)
        kw = {"th": ThresholdParams(q_th)}
        eq = equilibrium_threshold(spec, net, kw["th"])
    else:
        kw = {"red": RedParams(gamma=gamma, b_max=50.0 + band)}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OperatingRegionWarning)
            eq = equilibrium_with_averaging(spec, kw["red"], NetworkParams(c, rtt))
        net = NetworkParams(c_per_flow=c, rtt=rtt, kappa=kappa, buffer=eq.q_star + headroom)
        eq = Equilibrium(kind, eq.w_star, eq.p_star, eq.q_star)

    def run():
        return integrate_dde(
            kind, spec, net, initial_history=default_history(eq, perturbation),
            horizon=8 * delay_scale * rtt, steps_per_delay=200,
            delay=delay_scale * rtt, **kw,
        )

    got = _kernel_output(aqmlab.fluid._KERNELS, run)
    assert got == _kernel_output(ORACLE_KERNELS, run)


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(K),
    variant=st.sampled_from(sorted(_EXACT_SPECS)),
    log_kappa=st.floats(0.0, 3.0),
    perturbation=st.floats(0.2, 2.0),
    m=st.integers(200, 230),
    delays=st.floats(1.2, 4.5),
)
# each blows up after its first delay, so after a restart
@example(kind=K.WITH_AVERAGING, variant="compound", log_kappa=3.4, perturbation=1.5,
         m=200, delays=4.5)
@example(kind=K.NO_AVERAGING, variant="compound", log_kappa=6.0, perturbation=1.5,
         m=200, delays=4.5)
@example(kind=K.THRESHOLD, variant="compound", log_kappa=166.0, perturbation=1.5,
         m=200, delays=4.5)
def test_kernel_restarted_each_delay_matches_one_call(
    kind, variant, log_kappa, perturbation, m, delays
):
    """integrate_dde calls the kernel once per delay on a window of the last
    delay's nodes; one call over every step on full lists must give the same
    nodes and blowup time, bit for bit, and the trajectory must hold them."""
    spec = _EXACT_SPECS[variant]
    net = NetworkParams(c_per_flow=100.0, rtt=0.1, kappa=10.0**log_kappa)
    if kind is K.THRESHOLD:
        kw = {"th": ThresholdParams(60.0)}
        eq = equilibrium_threshold(spec, net, kw["th"])
    else:
        kw = {"red": RedParams()}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OperatingRegionWarning)
            eq = equilibrium_with_averaging(spec, kw["red"], net)
        eq = Equilibrium(kind, eq.w_star, eq.p_star, eq.q_star)
    kernel = aqmlab.fluid._KERNELS[kind]
    first, steps, trajs = [], [], []

    def capture(spec, net, params, cols, mids, m, n, h, done):
        if not first:
            first.append((params, [list(c) for c in cols], [list(c) for c in mids], h))
        steps.append(n)
        kernel(spec, net, params, cols, mids, m, n, h, done)

    def run():
        trajs.append(integrate_dde(
            kind, spec, net, initial_history=default_history(eq, perturbation),
            horizon=delays * net.rtt, steps_per_delay=m, **kw,
        ))

    windowed = _kernel_output({kind: capture}, run)
    params, cols, mids, h = first[0]
    try:
        kernel(spec, net, params, cols, mids, m, sum(steps), h, 0)
        blowup = None
    except IntegrationError as err:
        blowup = err.time
    assert windowed == (blowup, [array("d", c).tobytes() for c in cols])
    if blowup is None:
        (traj,) = trajs
        assert [a.tobytes() for a in traj.columns] == [array("d", c[m:]).tobytes() for c in cols]
        times = array("d", [j * h for j in range(sum(steps) + 1)])
        assert traj.times.tobytes() == times.tobytes()


def test_long_run_peak_allocation_per_step(compound, red_defaults):
    # the trajectory keeps 8 bytes per state and step (24 here; the times
    # are derived, not stored);
    # the window of the last delay is all the integrator holds besides. Its
    # fixed cost weighs more per step in a shorter run, so 10 000 steps are
    # a stricter test of the bound than 30 000, at a third of the time under
    # tracemalloc, which slows the kernel about 90-fold
    net = NetworkParams(c_per_flow=100.0, rtt=0.0848)
    eq = equilibrium_with_averaging(compound, red_defaults, net)
    steps = 10_000
    tracemalloc.start()
    try:
        traj = integrate_dde(
            K.WITH_AVERAGING, compound, net, red=red_defaults,
            initial_history=default_history(eq), horizon=50 * net.rtt, steps_per_delay=200,
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj) == steps + 1
    assert peak / steps < 64.0


# -- oscillation metrics ------------------------------------------------------

def _synthetic_traj(step, values):
    return Trajectory([[float(v) for v in values]], K.THRESHOLD, step)


def test_metrics_constant_signal():
    t = np.arange(0.0, 100.0, 0.01)
    m = oscillation_metrics(_synthetic_traj(0.01, np.full_like(t, 3.0)), 10.0)
    assert m.amplitude == 0.0
    assert m.period is None


def test_metrics_sinusoid():
    t = np.arange(0.0, 100.0, 0.01)
    m = oscillation_metrics(_synthetic_traj(0.01, 3.0 + np.sin(2 * np.pi * t / 5.0)), 10.0)
    assert m.amplitude == pytest.approx(2.0, abs=1e-3)
    assert m.period == pytest.approx(5.0, abs=0.01)


def test_metrics_window_too_short():
    t = np.arange(0.0, 1.0, 0.01)
    with pytest.raises(DomainError):
        oscillation_metrics(_synthetic_traj(0.01, np.sin(t)), 0.999)
    with pytest.raises(DomainError):
        oscillation_metrics(_synthetic_traj(0.01, np.sin(t)), math.nan)


def _oscillation_oracle(traj, transient_cut, component="w", amplitude_floor=1e-9):
    """oscillation_metrics as it was written in numpy, before the runtime
    dropped it: the oracle for the bits of the plain-Python version."""
    times = np.asarray(traj.times)
    mask = times >= transient_cut
    if mask.sum() < 8:
        raise DomainError("post-transient window too short")
    x = np.asarray(traj.component(component))[mask]
    t = times[mask]
    lo = float(x.min())
    hi = float(x.max())
    amplitude = hi - lo
    period = None
    if amplitude > max(amplitude_floor, 1e-12 * max(abs(hi), abs(lo))):
        centered = x - x.mean()
        up = np.flatnonzero((centered[:-1] < 0) & (centered[1:] >= 0))
        if len(up) >= 2:
            frac = -centered[up] / (centered[up + 1] - centered[up])
            crossings = t[up] + frac * (t[up + 1] - t[up])
            period = float(np.diff(crossings).mean())
    return OscillationMetrics(lo, hi, amplitude, period)


def _metrics_hex(m):
    return tuple(None if v is None else v.hex() for v in astuple(m))


@settings(max_examples=150, deadline=None)
@given(
    shape=st.sampled_from(("sine", "near-constant", "noise")),
    n=st.integers(8, 5000),
    seed=st.integers(0, 2**32 - 1),
    level=st.floats(-1e3, 1e3),
    cut=st.floats(0.0, 1.0),
)
def test_metrics_bit_identical_to_numpy_oracle(shape, n, seed, level, cut):
    rng = random.Random(seed)
    h = rng.uniform(1e-3, 1.0)
    times = [j * h for j in range(n)]
    if shape == "noise":
        values = [level + rng.uniform(-1.0, 1.0) for _ in times]
    else:
        # a noisy sine; a near-constant one swings by 1e-11 to 1e-8 of its
        # level, as the window does below the critical threshold
        swing = 1.0 if shape == "sine" else 10 ** rng.uniform(-11, -8) * max(abs(level), 1.0)
        period = rng.uniform(2.0, n / 4.0) * h
        values = [
            level + swing * (math.sin(2 * math.pi * t / period) + rng.gauss(0, 0.05))
            for t in times
        ]
    values = [v + 0.0 for v in values]  # no -0.0: min/max may pick either zero
    traj = _synthetic_traj(h, values)
    transient_cut = cut * times[-8]
    got = oscillation_metrics(traj, transient_cut, amplitude_floor=0.0)
    want = _oscillation_oracle(traj, transient_cut, amplitude_floor=0.0)
    assert _metrics_hex(got) == _metrics_hex(want)


# Oscillation metrics (minimum, maximum, amplitude, period) as float.hex, and
# the sha256 of the trajectory CSV, recorded when trajectories were numpy
# arrays. The inputs are those of the benchmark's fluid workload at its
# reference seed; the first sweep point lies below q_th,c, with an amplitude
# of 5.8e-8, where one ulp in the mean moves the period in its sixth digit.
_GOLDEN_SWEEP = [
    ("0x1.35c5ac2e6055bp+6", "0x1.35c5ac324a971p+6", "0x1.f520b00000000p-25",
     "0x1.0d9e9472120b0p+2"),
    ("0x1.47d4dca7f7753p+6", "0x1.47f8b1651de70p+6", "0x1.1ea5e9338e800p-5",
     "0x1.02757e10a03f9p+2"),
    ("0x1.4ae8ad2586957p+6", "0x1.596d5d8649aaap+6", "0x1.d0960c1862a60p+1",
     "0x1.01855a6b032f4p+2"),
    ("0x1.4a7f017b4456dp+6", "0x1.63ec6cee6ddc5p+6", "0x1.96d6b73298580p+2",
     "0x1.1486614ef3300p+2"),
]
_GOLDEN_SIMS = {
    # (system, tau, gamma, kappa, perturbation) -> metrics, CSV digest
    "settle": (
        (K.WITH_AVERAGING, 0.171, 0.03181550669905086, 1.0, 1.1),
        ("0x1.efca61f1c9915p+3", "0x1.33a3bc7c3aae1p+4", "0x1.ddf45c1aaf2b4p+1",
         "0x1.aae535b00408cp+2"),
        "9f262303d606bcb604eb6f31b9f80759f213f1349cca688281e7b3974b390310",
    ),
    "cycle": (
        (K.WITH_AVERAGING, 0.171, 0.027924251416067237, 1.0, 1.1),
        ("0x1.df189a1cc010ep+3", "0x1.3d1f28f491ea3p+4", "0x1.364b6f98c7870p+2",
         "0x1.b0bee3163c38cp+2"),
        "0b259c33ac23ecaeb65a30fb5b99e8de9b41e600f82a49b082122c0080cd399a",
    ),
    "kappa": (
        (K.NO_AVERAGING, 0.27175, RedParams().gamma, 1.0189947650522264, 1.02),
        ("0x1.a98c5977eaeffp+4", "0x1.bfcf972055415p+4", "0x1.6433da86a5160p+0",
         "0x1.8fa1220b2a04cp+2"),
        "ed5cf8f73a64acd3d529f48640427d6c88f903c63bef1041a21f3fabe9b21844",
    ),
}


def test_bifurcation_metrics_bit_identical_to_recorded():
    start = 26.69630834842228
    rows = threshold_bifurcation_sweep(
        ProtocolSpec(), NetworkParams(c_per_flow=100.0, rtt=1.0),
        [start + 8.0 * i for i in range(4)],
        horizon_delays=120.0, transient_delays=80.0, steps_per_delay=200,
    )
    assert rows[0][2].amplitude < 1e-7
    assert [_metrics_hex(m) for _, _, m in rows] == _GOLDEN_SWEEP


@pytest.mark.parametrize("case", sorted(_GOLDEN_SIMS))
def test_fluid_sim_metrics_and_csv_bit_identical_to_recorded(tmp_path, case):
    (kind, tau, gamma, kappa, perturbation), metrics, csv_digest = _GOLDEN_SIMS[case]
    spec, red = ProtocolSpec(), RedParams(gamma=gamma)
    net = NetworkParams(c_per_flow=100.0, rtt=tau, kappa=kappa)
    solver = (
        equilibrium_with_averaging if kind is K.WITH_AVERAGING
        else equilibrium_no_averaging
    )
    eq = solver(spec, red, net)
    traj = integrate_dde(
        kind, spec, net, red=red,
        initial_history=default_history(eq, perturbation),
        horizon=150 * tau, steps_per_delay=200,
    )
    assert _metrics_hex(oscillation_metrics(traj, 100 * tau)) == metrics
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == csv_digest


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
    assert np.allclose(back[:, 1:], _states(traj), rtol=1e-11)
    expected = "t,w,q,p\n" + "".join(
        ",".join(f"{v:.12g}" for v in (t, *row)) + "\n"
        for t, row in zip(traj.times, _states(traj))
    )
    assert path.read_text() == expected
