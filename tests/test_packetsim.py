import hashlib
import math
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aqmlab.errors import ConfigError
from aqmlab.packetsim import (
    DropTail,
    FlowSpec,
    Metrics,
    PacketRed,
    PacketThreshold,
    ShortFlowProfile,
    SimConfig,
    _Flow,
    _Queue,
    compound_window_laws,
    compute_afct,
    config_digest,
    desk_config,
    parse_scenario,
    limit_admit_rule,
    red_admit_rule,
    run_batch,
    run_simulation,
    write_metrics_csv,
)
from aqmlab.params import RedParams, ThresholdParams
from aqmlab.protocols import red_drop_probability

ON_ACK, ON_LOSS = compound_window_laws()


def _flow(cwnd=10.0, dwnd=0.0, base_rtt=0.1):
    fl = _Flow(0, FlowSpec("compound", 1e6, 0.1, start_in_ca=True))
    fl.cwnd = cwnd
    fl.dwnd = dwnd
    fl.base_rtt = base_rtt
    fl.slow_start = False
    return fl


# -- window update ------------------------------------------------------------

def test_compound_delay_window_increment_boundary():
    # alpha * 16^k = 1 at the default constants: the per-window increment is
    # exactly zero at window 16
    fl = _flow(cwnd=16.0)
    ON_ACK(fl, 0.1)
    assert fl.dwnd == 0.0
    assert fl.cwnd == pytest.approx(16.0 + 1.0 / 16.0)


def test_compound_loss_branch():
    fl = _flow(cwnd=12.0, dwnd=8.0)
    ON_LOSS(fl, fl.cwnd + fl.dwnd)
    assert fl.cwnd == 6.0
    assert fl.dwnd == 4.0  # (20 * 0.5 - 6)+


def test_compound_early_congestion_shrinks_delay_window():
    fl = _flow(cwnd=10.0, dwnd=40.0, base_rtt=0.05)
    # a queueing-delay sample far above base implies a large backlog estimate
    ON_ACK(fl, 0.4)
    assert fl.dwnd < 40.0


def test_compound_lossless_round_trip_matches_aggregate_law():
    for win0 in (8.0, 16.0, 64.0, 256.0):
        fl = _flow(cwnd=win0 / 2.0, dwnd=win0 / 2.0)
        acks = int(win0)
        for _ in range(acks):
            ON_ACK(fl, fl.base_rtt)
        target = win0 + 0.125 * win0**0.75
        assert fl.cwnd + fl.dwnd == pytest.approx(target, rel=0.05)


# -- bit identity with the per-call laws --------------------------------------
# The laws as they were before the run bound them: one call per ack or loss
# reading a constants dict, one call per arrival passing the RED constants.
# The bound laws must give the same bits.

_COMPOUND_CONSTANTS = dict(alpha=0.125, k=0.75, beta=0.5, gamma_thresh=30.0, zeta=0.5)


def compound_window_update_oracle(flow, event, rtt_sample=None,
                                  constants=_COMPOUND_CONSTANTS):
    alpha = constants["alpha"]
    k = constants["k"]
    beta = constants["beta"]
    gamma_thresh = constants["gamma_thresh"]
    zeta = constants["zeta"]
    win = flow.cwnd + flow.dwnd
    if event == "ack":
        if rtt_sample is not None:
            flow.base_rtt = min(flow.base_rtt, rtt_sample)
        flow.cwnd += 1.0 / max(win, 1.0)
        rtt = rtt_sample if rtt_sample else flow.base_rtt
        if flow.base_rtt < math.inf and rtt > 0:
            diff = (win / flow.base_rtt - win / rtt) * flow.base_rtt
        else:
            diff = 0.0
        if diff < gamma_thresh:
            flow.dwnd += max(alpha * win**k - 1.0, 0.0) / max(win, 1.0)
        else:
            flow.dwnd = max(flow.dwnd - zeta * diff, 0.0)
    elif event == "loss":
        new_cwnd = flow.cwnd / 2.0
        flow.dwnd = max(win * (1.0 - beta) - new_cwnd, 0.0)
        flow.cwnd = max(new_cwnd, 1.0)
    else:
        raise ConfigError(f"unknown window event {event!r}")
    return flow


def red_enqueue_decision_oracle(queue_len, avg, red, buffer, rng):
    avg = (1.0 - red.w_q) * avg + red.w_q * queue_len
    if queue_len >= buffer:
        return False, avg
    p = red_drop_probability(avg, red)
    if p > 0.0 and rng.random() < p:
        return False, avg
    return True, avg


_windows = st.floats(1e-3, 1e4, allow_subnormal=False)
_rtts = st.floats(1e-4, 10.0, allow_subnormal=False)


@settings(max_examples=200, deadline=None)
@given(cwnd=_windows, dwnd=st.one_of(st.just(0.0), _windows),
       base_rtt=st.one_of(st.just(math.inf), _rtts), rtt_sample=_rtts,
       gamma_thresh=st.sampled_from([30.0, 1.0, 1e3]), zeta=st.sampled_from([0.5, 0.1]),
       acks=st.integers(1, 4), lose=st.booleans())
def test_bound_compound_laws_match_oracle_bits(cwnd, dwnd, base_rtt, rtt_sample,
                                                gamma_thresh, zeta, acks, lose):
    # cwnd below one exercises the max(win, 1.0) floor; a base rtt above the
    # sample exercises its update, and a small gamma_thresh the shrink branch
    on_ack, on_loss = compound_window_laws(gamma_thresh=gamma_thresh, zeta=zeta)
    constants = dict(_COMPOUND_CONSTANTS, gamma_thresh=gamma_thresh, zeta=zeta)
    bound, oracle = _flow(cwnd, dwnd, base_rtt), _flow(cwnd, dwnd, base_rtt)
    for i in range(acks):
        sample = rtt_sample * (1.0 + 0.1 * i)
        on_ack(bound, sample)
        compound_window_update_oracle(oracle, "ack", sample, constants)
        if lose and i == acks - 1:
            on_loss(bound, bound.cwnd + bound.dwnd)
            compound_window_update_oracle(oracle, "loss", None, constants)
        state = [(f.cwnd.hex(), f.dwnd.hex(), f.base_rtt.hex()) for f in (bound, oracle)]
        assert state[0] == state[1]


@settings(max_examples=200, deadline=None)
@given(b_min=st.floats(1.0, 100.0), width=st.floats(1.0, 200.0),
       p_max=st.floats(0.01, 0.99), w_q=st.floats(1e-6, 1.0),
       avg=st.floats(0.0, 600.0), lens=st.lists(st.integers(0, 700), min_size=1, max_size=8),
       buffer=st.integers(1, 700), seed=st.integers(0, 2**32))
def test_bound_red_rule_matches_oracle_bits(b_min, width, p_max, w_q, avg, lens, buffer, seed):
    red = RedParams(b_min=b_min, b_max=b_min + width, p_max=p_max, w_q=w_q)
    rng_bound, rng_oracle = random.Random(seed), random.Random(seed)
    q = _Queue(0, buffer)
    q.avg = avg_oracle = avg
    admits = red_admit_rule(red, q, rng_bound)
    for n in lens:
        got = admits(n)
        want, avg_oracle = red_enqueue_decision_oracle(n, avg_oracle, red, buffer, rng_oracle)
        assert (got, q.avg.hex()) == (want, avg_oracle.hex())
    assert rng_bound.getstate() == rng_oracle.getstate()


@settings(max_examples=200, deadline=None)
@given(b_min=st.floats(1.0, 100.0), width=st.floats(1.0, 200.0),
       p_max=st.floats(0.01, 0.99), share=st.floats(0.0, 1.0))
@example(b_min=50.0, width=50.0, p_max=0.1, share=1.0)
@example(b_min=50.0, width=50.0, p_max=0.1, share=0.0)
def test_red_law_is_zero_up_to_b_min(b_min, width, p_max, share):
    # the RED admit rule calls the law only past b_min: below it, and at it,
    # the law is 0.0 and no number is drawn
    red = RedParams(b_min=b_min, b_max=b_min + width, p_max=p_max)
    avg = min(share * b_min, b_min)
    assert red_drop_probability(avg, red) == 0.0


def _red_decision(red, buffer, rng, queue_len, avg):
    """(admit?, new average) of one arrival at a RED queue holding
    queue_len packets, at average avg."""
    q = _Queue(0, buffer)
    q.avg = avg
    return red_admit_rule(red, q, rng)(queue_len), q.avg


# -- queue decisions ----------------------------------------------------------

def test_red_no_drops_below_min_threshold():
    red = RedParams(b_min=50, b_max=100, p_max=0.1, w_q=0.5)
    rng = random.Random(1)
    avg = 0.0
    for q in range(40):
        admit, avg = _red_decision(red, 1000, rng, q, avg)
        assert admit


def test_red_always_drops_beyond_twice_max_threshold():
    red = RedParams(b_min=50, b_max=100, p_max=0.1, w_q=1.0)
    rng = random.Random(1)
    for q in (200, 250, 400):
        admit, avg = _red_decision(red, 1000, rng, q, 150.0)
        assert not admit


def test_red_empirical_drop_rate_matches_probability():
    # hold the average at mid-band: the drop probability there is p_max/2
    red = RedParams(b_min=50, b_max=100, p_max=0.1, w_q=0.0 + 1e-12)
    rng = random.Random(7)
    n = 100_000
    mid = 75.0
    drops = 0
    for _ in range(n):
        admit, _ = _red_decision(red, 10**9, rng, int(mid), mid)
        drops += not admit
    p = red.p_max / 2.0
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(drops / n - p) < 3 * sigma


def test_red_full_buffer_forces_drop():
    red = RedParams(b_min=50, b_max=100, p_max=0.1, w_q=0.002)
    admit, _ = _red_decision(red, 64, random.Random(3), 64, 10.0)
    assert not admit


def test_threshold_decision_boundary():
    th = ThresholdParams(q_th=15)
    assert limit_admit_rule(th, buffer=100)(14)
    assert not limit_admit_rule(th, buffer=100)(15)
    # a buffer below the threshold caps it
    assert limit_admit_rule(th, buffer=10)(9)
    assert not limit_admit_rule(th, buffer=10)(10)
    # drop-tail: the buffer is the limit
    assert limit_admit_rule(DropTail(), buffer=10)(9)
    assert not limit_admit_rule(DropTail(), buffer=10)(10)
    # the queue holds whole packets: a fractional threshold counts as its
    # integer part, as the command line's --qth always has
    assert limit_admit_rule(ThresholdParams(q_th=15.7), buffer=100)(14)
    assert not limit_admit_rule(ThresholdParams(q_th=15.7), buffer=100)(15)


def test_packet_policy_names_are_the_shared_types():
    # the old packet-queue names stay for the benchmark's recorded run keys
    # only: each is the shared type under another name, with nothing of its own
    for old, shared in ((PacketRed, RedParams), (PacketThreshold, ThresholdParams)):
        assert old.__mro__[1:] == shared.__mro__
        assert [name for name in vars(old) if not name.startswith("__")] == []
        assert old.__post_init__ is shared.__post_init__
    assert isinstance(PacketRed(b_min=20, b_max=60, p_max=0.1), RedParams)
    # positional arguments keep the packet queue's order
    assert PacketRed(20, 60, 0.1, 0.01) == PacketRed(b_min=20, b_max=60, p_max=0.1, w_q=0.01)


# -- whole runs ---------------------------------------------------------------

def _conservation_ok(m: Metrics) -> bool:
    return all(
        c.arrivals == c.served + c.drops + c.final_occupancy for c in m.counters
    )


def test_single_reno_flow_sanity():
    cfg = SimConfig(
        topology="dumbbell", capacity=10e6, buffer=10_000, packet_size=1500,
        flows=(FlowSpec("reno", 20e6, 0.02),), policy=DropTail(),
        duration=30.0, seed=1,
    )
    m = run_simulation(cfg)
    assert _conservation_ok(m)
    # long-run throughput within 10% of the bottleneck
    assert m.throughput_bps == pytest.approx(10e6, rel=0.10)
    # sawtooth: the window must both grow and shrink post slow-start
    w = np.array(m.windows[0])
    post = w[len(w) // 2:]
    assert post.max() - post.min() > 2.0


def test_determinism_and_seed_sensitivity():
    cfg = desk_config(RedParams(b_min=50, b_max=100, p_max=0.1), 0.02, seed=5,
                      duration=20.0)
    a = run_simulation(cfg)
    b = run_simulation(cfg)
    assert a.queue_len == b.queue_len
    assert a.windows == b.windows
    assert a.throughput_bps == b.throughput_bps
    assert a.loss_pct == b.loss_pct
    other = run_simulation(desk_config(
        RedParams(b_min=50, b_max=100, p_max=0.1), 0.02, seed=6, duration=20.0))
    assert other.queue_len != a.queue_len


def test_conservation_across_policies_and_topologies():
    for policy in (RedParams(b_min=20, b_max=60, p_max=0.1),
                   ThresholdParams(q_th=20), DropTail()):
        cfg = desk_config(policy, 0.04, seed=2, duration=15.0, n_flows=8,
                          capacity=10e6)
        assert _conservation_ok(run_simulation(cfg))
    # two-hop topology with routes across both queues
    flows = tuple(
        FlowSpec("compound", 2e6, 0.05, start_time=0.5 * i, route=(0, 1))
        for i in range(4)
    ) + tuple(
        FlowSpec("compound", 2e6, 0.05, start_time=0.3 * i, route=(1,))
        for i in range(4)
    )
    cfg = SimConfig(
        topology="parking-lot", capacity=8e6, buffer=200, packet_size=1500,
        flows=flows, policy=ThresholdParams(q_th=15), duration=20.0, seed=3,
    )
    m = run_simulation(cfg)
    assert _conservation_ok(m)
    assert max(max(q) for q in m.queue_len) <= 15


@pytest.mark.parametrize("route", [(), (-1,), (0, 0), (2,), (0.0,)],
                         ids=["empty", "negative", "repeated", "beyond", "float"])
@pytest.mark.parametrize("owner", ["flow", "short-flows"])
def test_bad_routes_are_config_errors(route, owner):
    # a route must be non-empty, name queues in [0, n_queues) and visit each
    # at most once: the next-hop table of a run relies on it
    flow_route = route if owner == "flow" else (0,)
    short = ShortFlowProfile(route=route) if owner == "short-flows" else None
    with pytest.raises(ConfigError, match="route"):
        SimConfig(
            topology="parking-lot", capacity=1e6, buffer=10, packet_size=1500,
            flows=(FlowSpec("reno", 1e6, 0.05, route=flow_route),),
            policy=DropTail(), duration=1.0, seed=1, short_flows=short,
        )


@pytest.mark.parametrize("rate", [-1.0, 0.0, math.nan, math.inf])
def test_short_flow_rate_must_be_positive_and_finite(rate):
    # a negative rate scheduled arrivals back in time and never ended; zero
    # divided by zero
    with pytest.raises(ConfigError, match="rate"):
        ShortFlowProfile(rate_per_s=rate)


@pytest.mark.parametrize("size", [0, -5000])
def test_short_flow_size_must_be_positive(size):
    # an empty transfer started flows that never completed
    with pytest.raises(ConfigError, match="size"):
        ShortFlowProfile(bytes_per_flow=size)


def test_threshold_hard_cap_long_run():
    cfg = desk_config(ThresholdParams(q_th=15), 0.08, seed=4, duration=60.0)
    m = run_simulation(cfg)
    assert max(max(q) for q in m.queue_len) <= 15
    assert _conservation_ok(m)


def test_heterogeneous_mix_runs_and_conserves():
    flows = (
        tuple(FlowSpec("compound", 1.5e6, 0.06, start_time=i * 0.2) for i in range(5))
        + tuple(FlowSpec("compound", 1.5e6, 0.06, start_time=i * 0.3) for i in range(5))
        + (FlowSpec("reno", 0.8e6, 0.06, start_time=1.0),)
    )
    cfg = SimConfig(
        topology="dumbbell", capacity=12e6, buffer=300, packet_size=1500,
        flows=flows, policy=RedParams(b_min=20, b_max=60, p_max=0.1),
        duration=25.0, seed=9,
        short_flows=ShortFlowProfile(rate_per_s=20.0, rtt_propagation=0.06),
    )
    m = run_simulation(cfg)
    assert _conservation_ok(m)
    assert m.throughput_bps > 0.8 * 12e6


def test_halving_capacity_never_raises_throughput():
    base = desk_config(RedParams(b_min=20, b_max=60, p_max=0.1), 0.05, seed=8,
                       duration=25.0, n_flows=10, capacity=20e6)
    halved = desk_config(RedParams(b_min=20, b_max=60, p_max=0.1), 0.05, seed=8,
                         duration=25.0, n_flows=10, capacity=10e6)
    m_full = run_simulation(base)
    m_half = run_simulation(halved)
    assert m_half.throughput_bps <= m_full.throughput_bps


def test_instantaneous_feedback_variant_is_steadier():
    # with the averaging weight at one (decisions on the instantaneous
    # queue), the queue stays below the upper threshold where the lagged
    # average lets it overshoot
    rtt = 0.15
    slow = desk_config(RedParams(b_min=8, b_max=15, p_max=0.1, w_q=1.2e-4),
                       rtt, seed=1, duration=60.0)
    inst = desk_config(RedParams(b_min=8, b_max=15, p_max=0.1, w_q=1.0),
                       rtt, seed=1, duration=60.0)
    m_slow = run_simulation(slow)
    m_inst = run_simulation(inst)
    peak_slow = max(m_slow.queue_len[0])
    peak_inst = max(m_inst.queue_len[0])
    assert peak_inst < 2 * 15
    assert peak_slow > 2 * peak_inst


def test_afct_uncontended_back_of_envelope():
    # one flow, known bytes, window primed at the bandwidth-delay product:
    # completion = serialization at the bottleneck + order-one round trips
    rtt = 0.02
    capacity = 25e6
    bytes_to_send = 25_000_000
    bdp_pkts = capacity * rtt / (8 * 1500)
    cfg = SimConfig(
        topology="dumbbell", capacity=capacity, buffer=5000, packet_size=1500,
        flows=(FlowSpec("reno", 100e6, rtt, bytes_to_send=bytes_to_send,
                        start_in_ca=True, initial_cwnd=bdp_pkts),),
        policy=DropTail(), duration=100.0, seed=1, run_to_completion=True,
    )
    m = run_simulation(cfg)
    afct = compute_afct(m)
    serialization = bytes_to_send * 8 / capacity
    assert serialization < afct < serialization + 3 * rtt


def test_afct_increases_with_rtt_for_both_policies():
    for policy in (RedParams(b_min=8, b_max=15, p_max=0.1, w_q=1.2e-4),
                   ThresholdParams(q_th=15)):
        afcts = []
        for rtt in (0.03, 0.25):
            cfg = desk_config(policy, rtt, seed=2, bytes_to_send=4_000_000,
                              duration=1200.0, n_flows=8, capacity=10e6)
            afcts.append(compute_afct(run_simulation(cfg)))
        assert afcts[1] > afcts[0]


def test_compute_afct_reports_stragglers():
    cfg = desk_config(ThresholdParams(q_th=15), 0.05, seed=3, duration=2.0,
                      bytes_to_send=10**9, n_flows=2, capacity=5e6)
    # far too little time to finish a gigabyte: completion must be absent
    cfg = SimConfig(**{**cfg.__dict__, "run_to_completion": False})
    m = run_simulation(cfg)
    with pytest.raises(ConfigError):
        compute_afct(m)


def test_paper_profile_shape():
    # full-scale target: 60 flows at 100 Mbps for 500 s (run separately;
    # construction and invariants only here)
    from aqmlab.packetsim import paper_config

    cfg = paper_config(RedParams(b_min=50, b_max=100, p_max=0.1), 0.01, seed=1)
    assert len(cfg.flows) == 60
    assert cfg.capacity == 100e6
    assert cfg.duration == 500.0
    assert sum(f.access_rate for f in cfg.flows) == pytest.approx(1.2 * 100e6)
    assert all(0.0 <= f.start_time <= 10.0 for f in cfg.flows)


def test_run_batch_keys_are_config_and_seed():
    cfgs = [desk_config(DropTail(), 0.02, seed=s, duration=5.0, n_flows=2,
                        capacity=5e6) for s in (1, 2)]
    out = run_batch(cfgs)
    assert len(out) == 2
    assert {k[1] for k in out} == {1, 2}


# -- scenario files and metric exports -----------------------------------------

SCENARIO = """
topology = dumbbell
capacity_mbps = 10
buffer_pkts = 500
packet_bytes = 1500
duration_s = 5
sample_interval_s = 0.5
seed = 11
policy = red
red.bmin = 20
red.bmax = 60
red.pmax = 0.1
red.wq = 0.002
flow.0.protocol = compound
flow.0.access_mbps = 6
flow.0.rtt_ms = 40
flow.0.start_s = 0
flow.1.protocol = reno
flow.1.access_mbps = 6
flow.1.rtt_ms = 40
flow.1.start_s = 1
flow.1.bytes = 1000000
"""


def test_scenario_parses():
    cfg = parse_scenario(SCENARIO)
    assert cfg.capacity == 10e6
    assert cfg.flows[1].bytes_to_send == 1_000_000


def test_scenario_rejects_parking_lot_without_routes():
    # the format has no route key, so every flow would cross the first hop only
    with pytest.raises(ConfigError, match="route"):
        parse_scenario(SCENARIO.replace("topology = dumbbell", "topology = parking-lot"))


def test_scenario_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        parse_scenario("topology = dumbbell\nbogus_key = 3\n")
    with pytest.raises(ConfigError):
        parse_scenario(SCENARIO + "flow.0.nonsense = 1\n")


@pytest.mark.parametrize("key, text", [
    ("capacity_mbps", "abc"), ("buffer_pkts", "1.5"), ("seed", ""),
    ("red.wq", "fast"), ("flow.1.rtt_ms", "forty"), ("flow.1.bytes", "1e6"),
])
def test_scenario_malformed_number_is_config_error(key, text):
    kept = [ln for ln in SCENARIO.splitlines() if not ln.startswith(f"{key} =")]
    scenario = "\n".join(kept) + f"\n{key} = {text}\n"
    with pytest.raises(ConfigError, match=re.escape(f"{key} = {text!r}")):
        parse_scenario(scenario)


def test_scenario_rejects_duplicate_keys():
    scenario = SCENARIO + "capacity_mbps = 50\n"
    with pytest.raises(ConfigError, match=r"line 23: duplicate key 'capacity_mbps' "
                       r"\(first set on line 3\)"):
        parse_scenario(scenario)
    # the same flow field under another spelling of its index
    with pytest.raises(ConfigError, match=r"line 23: 'flow\.01\.rtt_ms' repeats "
                       r"flow\.1\.rtt_ms"):
        parse_scenario(SCENARIO + "flow.01.rtt_ms = 400\n")


def test_metrics_csv_files(tmp_path):
    cfg = parse_scenario(SCENARIO)
    m = run_simulation(cfg)
    write_metrics_csv(m, tmp_path)
    assert (tmp_path / "queue.csv").read_text().splitlines()[0] == "t,q,avg_q"
    assert (tmp_path / "flows.csv").read_text().splitlines()[0] == "t,flow_id,window"
    assert (tmp_path / "util.csv").read_text().splitlines()[0] == "t,utilization_pct"
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary[0] == "loss_pct,throughput_mbps,afct_s,min_util_pct"
    assert len(summary) == 2


# -- bit-identical runs --------------------------------------------------------

_METRIC_FIELDS = (
    "config_seed", "transient", "sample_times", "queue_len", "queue_avg",
    "utilization_pct", "windows", "counters", "throughput_bps", "loss_pct",
    "afct", "completions", "flow_starts", "sync_index", "mean_queueing_delay",
)


def _metrics_digest(m: Metrics) -> str:
    text = repr([getattr(m, f) for f in _METRIC_FIELDS])
    return hashlib.sha256(text.encode()).hexdigest()


def _golden_configs() -> dict[str, SimConfig]:
    out = {}
    for name, pol in (("red", RedParams(b_min=20, b_max=60, p_max=0.1)),
                      ("threshold", ThresholdParams(q_th=15)), ("droptail", DropTail())):
        for seed in (1, 2):
            out[f"{name}-dumbbell-{seed}"] = desk_config(
                pol, 0.05, seed=seed, n_flows=8, capacity=10e6, duration=8.0)
    two_hop = tuple(
        FlowSpec("compound", 2e6, 0.05, start_time=0.5 * i, route=(0, 1))
        for i in range(4)
    ) + tuple(
        FlowSpec("compound", 2e6, 0.05, start_time=0.3 * i, route=(1,))
        for i in range(4)
    )
    out["parking-lot-short"] = SimConfig(
        topology="parking-lot", capacity=8e6, buffer=200, packet_size=1500,
        flows=two_hop, policy=ThresholdParams(q_th=15), duration=15.0, seed=3,
        short_flows=ShortFlowProfile(rate_per_s=20.0, rtt_propagation=0.06,
                                     route=(0, 1)),
    )
    for name, pol in (("threshold", ThresholdParams(q_th=15)),
                      ("red", RedParams(b_min=8, b_max=15, p_max=0.1, w_q=1.2e-4))):
        out[f"sized-{name}"] = desk_config(
            pol, 0.05, seed=4, n_flows=8, capacity=10e6, bytes_to_send=1_000_000,
            duration=400.0, overload=1.4)
    # reno and compound over both hops, with a sized flow and short flows
    mix = (
        FlowSpec("reno", 3e6, 0.04, route=(0, 1)),
        FlowSpec("compound", 3e6, 0.06, start_time=0.2, route=(0, 1)),
        FlowSpec("compound", 3e6, 0.03, start_time=0.4, route=(1,)),
        FlowSpec("reno", 1e6, 0.05, start_time=1.0, route=(0, 1)),
        FlowSpec("reno", 3e6, 0.08, start_time=0.1, route=(1,), bytes_to_send=300_000),
        FlowSpec("compound", 3e6, 0.05, start_time=0.3, route=(0, 1)),
        FlowSpec("reno", 3e6, 0.07, start_time=0.5, route=(0, 1)),
    )
    out["mix-parking-lot-red"] = SimConfig(
        topology="parking-lot", capacity=4e6, buffer=150, packet_size=1500,
        flows=mix, policy=RedParams(b_min=10, b_max=40, p_max=0.1, w_q=0.01),
        duration=20.0, seed=5,
        short_flows=ShortFlowProfile(rate_per_s=10.0, rtt_propagation=0.04, route=(1,)),
    )
    return out


# sha256 of the Metrics fields, recorded before the event loop bound its
# handlers once per run (mix-parking-lot-red: before the CUBIC and UDP
# sources were removed, with its CUBIC and UDP flows made Compound and Reno
# ones); any change to event or random-draw order shows here
_GOLDEN_DIGESTS = {
    "red-dumbbell-1": "9d50d4eda6dc18b33fc1aab32f377180176cccc0abb3fc77ba4b47bfb7e84835",
    "red-dumbbell-2": "227887f39473ab26e473a3ea27e16fd2b1159fc847cb14b4cd2fca821cff87d8",
    "threshold-dumbbell-1": "69ce4d1369c9f06d1d593dc4a3a8ef685fa6e62d3057959db31a15903252188e",
    "threshold-dumbbell-2": "7a2f39ca3cc6ce9752f90eecbc1072c585b6967cdd102e974cd68ecbd6238d97",
    "droptail-dumbbell-1": "8960dc8f024a7adc884b3ab9ca4e339ec4826460d9e762303ea6d45700b85a1d",
    "droptail-dumbbell-2": "756021d548ab098be9c872f0bee191a8449c40a2f0247cf95901ff615ad13285",
    "parking-lot-short": "a8d4a9d0d2c99049ea99b5cf7154841a68502eab3829fbf2b8d1cf734d8664ba",
    "sized-threshold": "c9dbd3aed95d9e96ff389ddf0293eac9320cd1d94c80725ef03b938a6d295f80",
    "sized-red": "870eb6c26ebfbe8ed89dd71a94be815c64279a2433c3d1fcc4eb0586c071d5dd",
    "mix-parking-lot-red": "f1421b42ce0372fa7e01fde0bf929f40d95f4ad67e38a6856cb27e9d19c78a5c",
}


def _assert_digests(configs, digests):
    runs = {name: run_simulation(cfg) for name, cfg in configs.items()}
    assert {name: _metrics_digest(m) for name, m in runs.items()} == digests
    batch = run_batch(list(configs.values()))
    for name, cfg in configs.items():
        assert _metrics_digest(batch[(config_digest(cfg), cfg.seed)]) == digests[name]


def test_metrics_bit_identical_to_recorded_digests():
    _assert_digests(_golden_configs(), _GOLDEN_DIGESTS)


def _tie_configs() -> dict[str, SimConfig]:
    """Runs where events of different event lines meet: exact time ties
    across flows, short and long flows on one ack line and one loss line,
    and dense loss notices."""
    out = {}
    # identical flows that all start at t = 0: their packets reach the queue
    # at the same instants
    out["red-tied-starts"] = SimConfig(
        topology="dumbbell", capacity=10e6, buffer=100, packet_size=1500,
        flows=tuple(FlowSpec("compound", 2e6, 0.04) for _ in range(6)),
        policy=RedParams(b_min=10, b_max=40, p_max=0.1, w_q=0.01),
        duration=6.0, seed=6)
    # short flows with the round trip of the first long flow
    long_flows = (
        FlowSpec("compound", 2e6, 0.05, route=(0, 1)),
        FlowSpec("reno", 2e6, 0.05, start_time=0.2, route=(1,)),
        FlowSpec("compound", 2e6, 0.08, start_time=0.1, route=(0,)),
    )
    out["parking-lot-shared-rtt"] = SimConfig(
        topology="parking-lot", capacity=5e6, buffer=40, packet_size=1500,
        flows=long_flows, policy=ThresholdParams(q_th=12), duration=8.0, seed=8,
        short_flows=ShortFlowProfile(rate_per_s=30.0, bytes_per_flow=20000,
                                     rtt_propagation=0.05, route=(0, 1)),
    )
    # a short-round-trip reno flow into a four-packet drop-tail buffer,
    # beside two flows of one round trip and a sized flow: dense losses
    out["droptail-small-buffer"] = SimConfig(
        topology="dumbbell", capacity=5e6, buffer=4, packet_size=1500,
        flows=(FlowSpec("reno", 2e6, 0.02),
               FlowSpec("compound", 4e6, 0.04, start_time=0.1),
               FlowSpec("reno", 4e6, 0.04, start_time=0.1),
               FlowSpec("reno", 4e6, 0.06, start_time=0.3, bytes_to_send=400_000)),
        policy=DropTail(), duration=5.0, seed=9)
    return out


# recorded, like _GOLDEN_DIGESTS, with one heap of all events, before the
# per-flow, ack, loss and next-hop event lines (droptail-small-buffer: before
# the UDP source was removed, with its UDP flow made a Reno one)
_TIE_DIGESTS = {
    "red-tied-starts": "de3c4bcf37244a9f0f3532d45bf5f3dab4d9662e67851ff114024143fe1e31bf",
    "parking-lot-shared-rtt": "9d84bc697058507d86cdf60ce617fad68122f24c452350ea9acdb11bdea31ca2",
    "droptail-small-buffer": "61b2bbb58603c9f3cebb1cf49e50bad257f7bf6dce1690cb369c3746a6af7be9",
}


def test_event_line_ties_bit_identical_to_recorded_digests():
    _assert_digests(_tie_configs(), _TIE_DIGESTS)
