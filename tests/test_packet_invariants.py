"""Invariants of the packet simulator over small random configurations.

Each example is a short run (2-10 s simulated) of a random dumbbell or
parking-lot configuration: RED, threshold or drop-tail queues; Compound and
Reno sources, some sized; sometimes Poisson short flows. Every packet is
`packet_size` bytes (sized transfers are whole packets), so every service
takes the same time. What must hold whatever the event order:

- per queue, arrivals = served + drops + final occupancy;
- the sampled queue never exceeds the buffer, nor q_th under the threshold
  policy;
- utilisation lies in [0, 100] per interval, and no queue serves more
  packets than its link can send in the run;
- every completion is a sized flow's, later than its start;
- Little's law per queue (see `_littles_law_gap`);
- `run_batch` gives each run bit for bit, and a run repeats its seed's
  result;
- the event loop and handlers give the oracle simulator's result bit for
  bit (`packet_oracle`: the stand-alone laws and the one-heap loop), also
  in runs to completion.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from aqmlab.packetsim import (
    DropTail,
    FlowSpec,
    PacketRed,
    PacketThreshold,
    ShortFlowProfile,
    SimConfig,
    config_digest,
    run_batch,
    run_simulation,
)
from packet_oracle import run_oracle


# incommensurate with every service time the configurations can have
# (0.001 to 0.012 s), so that the samples do not lock to the service clock
SAMPLE_INTERVALS = (0.0161803, 0.0271828, 0.0577216)


@st.composite
def sim_configs(draw):
    topology = draw(st.sampled_from(["dumbbell", "parking-lot"]))
    routes = [(0,)] if topology == "dumbbell" else [(0,), (1,), (0, 1)]
    capacity = draw(st.sampled_from([1e6, 2e6, 4e6]))
    size = draw(st.sampled_from([500, 1000, 1500]))
    rate = st.floats(1.0, 2.0).map(lambda f: f * capacity)  # each can fill the link
    rtt = st.floats(0.005, 0.2)
    b_min = draw(st.floats(2.0, 20.0))
    policy = draw(st.sampled_from([
        PacketThreshold(draw(st.integers(1, 40))),
        PacketRed(b_min, b_min + draw(st.floats(2.0, 40.0)), draw(st.floats(0.02, 0.5)),
                  draw(st.sampled_from([0.002, 0.1, 1.0]))),
        DropTail(),
    ]))
    flows = draw(st.lists(st.builds(
        FlowSpec,
        protocol=st.sampled_from(["compound", "reno"]),
        access_rate=rate,
        rtt_propagation=rtt,
        start_time=st.floats(0.0, 1.0),
        bytes_to_send=st.one_of(st.none(), st.integers(5, 200).map(lambda n: n * size)),
        route=st.sampled_from(routes),
        start_in_ca=st.booleans(),
    ), min_size=1, max_size=6))
    short = draw(st.one_of(st.none(), st.builds(
        ShortFlowProfile,
        rate_per_s=st.floats(2.0, 30.0),
        bytes_per_flow=st.integers(1, 10).map(lambda n: n * size),
        rtt_propagation=rtt,
        access_rate=rate,
        route=st.sampled_from(routes),
    )))
    return SimConfig(
        topology=topology, capacity=capacity, buffer=draw(st.integers(5, 80)),
        packet_size=size, flows=tuple(flows), policy=policy,
        duration=draw(st.floats(2.0, 10.0)), seed=draw(st.integers(0, 10**6)),
        sample_interval=draw(st.sampled_from(SAMPLE_INTERVALS)),
        short_flows=short,
    )


def _littles_law_gap(cfg, m, q):
    """(gap, low, high) for queue q: gap is the sampled integral of the
    queue length over the run minus the sum of the served packets'
    sojourns, and it must lie in [low, high].

    Exactly, the integral equals the served sojourns plus the time the
    packets still queued at the end have waited. That wait is >= 0, and the
    k-th queued packet (k = 1 at the head) has waited at most
    buffer - k + 1 service times, because the link served without a break
    since it arrived. The integral is taken from the samples, one per
    sample interval dt, and misses what happens between them:
    - the last sample's value stands for the interval after it, which the
      run may cut short: up to dt times the largest queue;
    - changes between samples: dt per sqrt of the number of queue changes
      (admissions and departures), four times over, as for a random walk.
    The sample intervals are incommensurate with the service times, so the
    samples do not see the queue at one fixed phase of the service clock.
    """
    c = m.counters[q]
    dt, duration = cfg.sample_interval, cfg.duration
    service = cfg.packet_size * 8 / cfg.capacity
    lens = m.queue_len[q]
    integral = dt * sum(lens[:-1]) + (duration - m.sample_times[-1]) * lens[-1]
    gap = integral - c.sojourn_sum
    waited = service * sum(cfg.buffer - k + 1 for k in range(1, c.final_occupancy + 1))
    changes = c.arrivals - c.drops + c.served
    tol = dt * (max(lens) + 4.0 * math.sqrt(changes))
    return gap, -tol, waited + tol


def _check_invariants(cfg, m):
    service = cfg.packet_size * 8 / cfg.capacity
    cap = cfg.buffer
    if isinstance(cfg.policy, PacketThreshold):
        cap = min(cap, cfg.policy.q_th)
    for q, c in enumerate(m.counters):
        assert c.arrivals == c.served + c.drops + c.final_occupancy
        assert max(m.queue_len[q]) <= cap and c.final_occupancy <= cap
        assert all(0.0 <= u <= 100.0 for u in m.utilization_pct[q])
        assert c.served * service <= cfg.duration * (1 + 1e-9)
        # a packet's sojourn includes its own service
        assert c.sojourn_sum >= c.served * service * (1 - 1e-9)
        gap, low, high = _littles_law_gap(cfg, m, q)
        assert low <= gap <= high, (q, gap, low, high)
    n_long = len(cfg.flows)
    for fid, done in m.completions.items():
        # flows past the long ones are short flows, all sized
        assert fid >= n_long or cfg.flows[fid].bytes_to_send is not None
        assert done > m.flow_starts[fid]


def _same_run(a, b):
    return repr(a.__dict__) == repr(b.__dict__)


@settings(max_examples=25, deadline=None)
@given(cfg=sim_configs())
def test_simulator_invariants(cfg):
    m = run_simulation(cfg)
    _check_invariants(cfg, m)
    other = SimConfig(**{**cfg.__dict__, "seed": cfg.seed + 1})
    batch = run_batch([cfg, other])
    assert _same_run(batch[(config_digest(cfg), cfg.seed)], m)
    assert _same_run(batch[(config_digest(other), other.seed)], run_simulation(other))


@st.composite
def oracle_configs(draw):
    """`sim_configs`, and with a sized long flow sometimes a run to
    completion, which ends at the ack that completes the last sized flow.
    Only the oracle test draws these: such a run may outlast its duration,
    which `_check_invariants` bounds the served packets by."""
    cfg = draw(sim_configs())
    if any(f.bytes_to_send is not None for f in cfg.flows) and draw(st.booleans()):
        cfg = SimConfig(**{**cfg.__dict__, "run_to_completion": True})
    return cfg


@settings(max_examples=30, deadline=None)
@given(cfg=oracle_configs())
def test_simulator_matches_oracle_bits(cfg):
    # the handlers write the oracle's laws out, and services and ack heads
    # wait on heaps of their own: every metric, float and counter must come
    # out the same
    assert _same_run(run_simulation(cfg), run_oracle(cfg))
