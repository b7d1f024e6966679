"""Discrete-event packet-level simulator: window-based Compound and Reno
sources, a short-flow generator, RED / threshold / drop-tail queues, and
dumbbell or two-hop parking-lot topologies.

One run is a strict total order of events (ties broken by insertion order),
fully determined by the configuration and seed. The RED drop decision is a
per-arrival Bernoulli draw on the exponentially weighted average queue, which
is the law the fluid analysis assumes; the classic count-based drop spreading
is deliberately not reproduced. A queue's policy is `params.RedParams` or
`params.ThresholdParams`, the types the fluid models read, or `DropTail`.

Events that fall due a fixed delay after the event that makes them are made
in the order they fall due, so they wait in FIFO lines under a small heap
(the idea of Brown's calendar queue, CACM 1988). The ack lines' heads wait
on a heap of their own and each queue's one pending service on another, so
that an ack or a service, two thirds of a run's events, never touches the
main heap. `Simulator` lists the lines and why each stays sorted. The tie
rule is unchanged: the next event is the pending one of smallest (time,
tie), as with one heap of every event.

Each packet step is one handler call, and the handler holds its laws, with
their constants bound once per run:

- a queue's arrival handler: RED's average and a Bernoulli draw against
  `protocols.red_drop_probability`, the law the fluid model shares, past
  b_min; or the threshold or drop-tail limit;
- the ack handler: slow start, the Compound law (alpha, k and beta of
  `ProtocolSpec.compound_tcp()`, `_GAMMA_THRESH`, `_ZETA`) or Reno's, then
  the send loop;
- a service runs inside the event loop, without a call.

`tests/packet_oracle.py` keeps these laws as stand-alone functions and the
one-heap loop that called them, the oracle the simulator is tested against
bit for bit.
"""

from __future__ import annotations

import heapq
import itertools
import math
import os
import random
import sys
from collections import deque
from dataclasses import dataclass

from .errors import ConfigError, usage_errors
from .params import ProtocolSpec, RedParams, ThresholdParams
from .protocols import red_drop_probability
from .workers import map_in_workers


class PacketRed(RedParams):
    """`RedParams` under its old packet-queue name, which adds nothing: the
    benchmark names each run by its policy's class (`benchmark/workloads.py`)
    and its recorded reference keys carry this name."""


class PacketThreshold(ThresholdParams):
    """`ThresholdParams` under its old packet-queue name; see `PacketRed`."""


@dataclass(frozen=True)
class DropTail:
    pass


@dataclass(frozen=True)
class FlowSpec:
    protocol: str  # compound | reno
    access_rate: float  # bits/s
    rtt_propagation: float  # seconds
    start_time: float = 0.0
    bytes_to_send: int | None = None
    route: tuple[int, ...] = (0,)
    start_in_ca: bool = False
    initial_cwnd: float = 1.0

    def __post_init__(self):
        if self.protocol not in ("compound", "reno"):
            raise ConfigError(f"unknown protocol {self.protocol!r}")
        if not (0 < self.access_rate < math.inf and 0 < self.rtt_propagation < math.inf):
            raise ConfigError("access rate and propagation delay must be positive and finite")
        if not 0 <= self.start_time < math.inf:
            raise ConfigError("start time must be >= 0 and finite")
        # an empty transfer never sends and so never completes, and a window
        # <= 0 never sends either
        if self.bytes_to_send is not None and not self.bytes_to_send > 0:
            raise ConfigError("a flow's transfer size must be positive")
        if not 0 < self.initial_cwnd < math.inf:
            raise ConfigError("initial window must be positive and finite")


@dataclass(frozen=True)
class ShortFlowProfile:
    """Poisson arrivals of fixed-size transfers (web-style background load)."""

    rate_per_s: float = 50.0
    bytes_per_flow: int = 5000
    rtt_propagation: float = 0.05
    access_rate: float = 10e6
    route: tuple[int, ...] = (0,)

    def __post_init__(self):
        # a rate <= 0 schedules arrivals back in time (or divides by zero),
        # and an empty transfer never completes
        if not 0 < self.rate_per_s < math.inf:
            raise ConfigError("short-flow rate must be positive and finite")
        if self.bytes_per_flow <= 0:
            raise ConfigError("short-flow size must be positive")


@dataclass(frozen=True)
class SimConfig:
    topology: str  # dumbbell | parking-lot
    capacity: float  # bits/s per bottleneck link
    buffer: int  # packets
    packet_size: int  # bytes
    flows: tuple[FlowSpec, ...]
    policy: RedParams | ThresholdParams | DropTail
    duration: float
    seed: int
    sample_interval: float = 0.1
    short_flows: ShortFlowProfile | None = None
    run_to_completion: bool = False

    def __post_init__(self):
        if self.topology not in ("dumbbell", "parking-lot"):
            raise ConfigError(f"unknown topology {self.topology!r}")
        # an infinite or NaN time never ends the run, and a sample interval
        # <= 0 samples at one instant for ever
        if not all(0 < v < math.inf for v in (self.capacity, self.duration,
                                               self.sample_interval)):
            raise ConfigError("capacity, duration and sample interval must be "
                              "positive and finite")
        if self.buffer < 1:
            raise ConfigError("buffer must hold at least one packet")
        if self.packet_size < 1:
            raise ConfigError("packet size must be at least one byte")
        routes = [f.route for f in self.flows]
        if self.short_flows is not None:
            routes.append(self.short_flows.route)
        n_queues = self.n_queues
        for route in routes:
            if not route:
                raise ConfigError("a route needs at least one queue")
            if not all(isinstance(q, int) and 0 <= q < n_queues for q in route):
                raise ConfigError(f"route {route} names a queue outside [0, {n_queues})")
            if len(set(route)) != len(route):
                raise ConfigError(f"route {route} visits a queue twice")
        if self.run_to_completion and all(f.bytes_to_send is None for f in self.flows):
            raise ConfigError("a run to completion needs a flow with bytes to send")

    @property
    def n_queues(self) -> int:
        return 1 if self.topology == "dumbbell" else 2


@dataclass
class QueueCounters:
    arrivals: int = 0
    drops: int = 0
    served: int = 0
    final_occupancy: int = 0
    sojourn_sum: float = 0.0
    sojourn_count: int = 0


@dataclass
class Metrics:
    """Everything measured in one run."""

    config_seed: int
    transient: float
    sample_times: list[float]
    queue_len: list[list[int]]  # per queue
    queue_avg: list[list[float]]
    utilization_pct: list[list[float]]  # per queue, per interval
    windows: dict[int, list[float]]  # per long flow, at sample times
    counters: list[QueueCounters]
    throughput_bps: float
    loss_pct: float
    afct: float | None
    completions: dict[int, float]
    flow_starts: dict[int, float]
    sync_index: float | None
    mean_queueing_delay: float

    def post_transient(self, t0: float):
        """Indices of samples at or after t0."""
        return [i for i, t in enumerate(self.sample_times) if t >= t0]


class _Flow:
    """A source's sending state, with what its spec fixes for the whole run:
    its protocol, its transfer size (None: unlimited) and the propagation
    constants. `Simulator.run` adds the access time of a full packet, the
    arrival handler of the route's first queue, the next-hop table (queue
    index -> the next queue's arrival handler, or None) and the flow's event
    lines: its own first-hop arrivals (`sent`, dropped once a sized flow
    completes) and the ack and loss lines it shares with every flow of its
    delay."""

    __slots__ = (
        "fid", "spec", "cwnd", "dwnd", "ssthresh", "slow_start", "in_flight",
        "bytes_to_send", "bytes_unsent", "bytes_acked", "base_rtt", "next_seq",
        "recover_seq", "access_free", "completed_at", "started", "compound",
        "access_rate", "access_time", "rtt", "half_rtt", "arrive", "next_hop",
        "sent", "acks", "losses",
    )

    def __init__(self, fid, spec: FlowSpec):
        self.fid = fid
        self.spec = spec
        self.cwnd = float(spec.initial_cwnd)
        self.dwnd = 0.0
        self.ssthresh = math.inf
        self.slow_start = not spec.start_in_ca
        self.in_flight = 0
        self.bytes_to_send = self.bytes_unsent = spec.bytes_to_send
        self.bytes_acked = 0
        self.base_rtt = math.inf
        self.next_seq = 0
        self.recover_seq = -1
        self.access_free = 0.0
        self.completed_at = None
        self.started = False
        self.compound = spec.protocol == "compound"  # else Reno
        self.access_rate = spec.access_rate
        self.rtt = spec.rtt_propagation
        self.half_rtt = spec.rtt_propagation / 2.0


# The Compound window laws' constants: alpha, k and beta of
# `ProtocolSpec.compound_tcp()`, the backlog (packets) past which the delay
# window shrinks, and the share of the backlog it shrinks by per ack.
_COMPOUND = ProtocolSpec.compound_tcp()
_GAMMA_THRESH = 30.0
_ZETA = 0.5


class _Queue:
    """A bottleneck queue and its counters. The packet at the head of `pkts`
    is in service whenever `pkts` is not empty."""

    __slots__ = ("idx", "buffer", "pkts", "avg", "arrivals", "drops", "served",
                 "sojourn_sum", "bits_interval", "bits_total")

    def __init__(self, idx, buffer):
        self.idx = idx
        self.buffer = buffer
        self.pkts = deque()  # (arrival time, packet)
        self.avg = 0.0
        self.arrivals = 0
        self.drops = 0
        self.served = 0
        self.sojourn_sum = 0.0
        self.bits_interval = 0
        self.bits_total = 0


class Simulator:
    """One run of one configuration.

    A packet is the tuple (flow, seq, size bytes, send time, service time),
    its link times computed once at the send, and an event is (time, tie,
    handler, arg, line), run as handler(arg); one tie counter, shared by
    every event, breaks equal times by insertion order. Events that fall due
    a fixed delay after they are made go into FIFO lines:

    - each flow's first-hop arrivals: the access link's departures never
      decrease, and the half round trip is added to each;
    - acks, one line per distinct half round trip: made at services, `now`
      plus the flow's half round trip;
    - loss notices, one line per distinct round trip: made at drops, `now`
      plus the flow's round trip;
    - next-hop arrivals, one line: due at `now`.

    `now` never decreases, adding a constant to a float is monotone and ties
    only grow, so each line is sorted by (time, tie) as it is appended to.
    Three heaps hold the heads:

    - an ack line's head, (time, tie, packet, line), waits on `ack_heads`,
      one entry per distinct half round trip;
    - a queue's one pending service, (time, tie, queue), waits on
      `services`, at most `n_queues` entries;
    - the main heap holds every other non-empty line's head and the events
      made one at a time (samples, starts and short-flow spawns): about 22
      entries in a 20-flow desk run.

    A third of a run's events are acks and a third services, and each
    leaves a heap of two or three entries instead of the main heap (one
    `heapreplace` measured 0.08 µs on 2 entries and 0.22 µs on 23, on a
    2-CPU Xeon). The loop compares the three heads and runs the smallest by
    (time, tie), an ack or a service in a branch of its own, so the dispatch
    order, and with it every output, is that of one heap of all events.

    Each packet step is one call or none:

    - a queue's arrival handler updates RED's average and applies the buffer
      limit and RED's draw, or the threshold / drop-tail limit;
    - the loop itself serves a queue's head packet, on to the next hop or
      back as an ack, and puts the queue's next service in its place, and
      takes an ack off its line before it calls `ack`;
    - `ack` applies slow start, the Compound law or Reno's, then the send
      loop. Loss notices, starts and short-flow spawns end in the same send
      loop through `ack(None, flow)`.

    `run` settles before the first event what the handlers would otherwise
    look up per packet: the policy's constants, each flow's lines and the
    next-hop handlers of its route. `tests/packet_oracle.py` keeps the
    one-heap loop and the stand-alone laws that this loop is tested against.
    """

    def __init__(self, config: SimConfig):
        self.cfg = config
        self.now = 0.0
        self.queues = [_Queue(i, config.buffer) for i in range(config.n_queues)]
        self.flows: list[_Flow] = []  # indexed by flow id
        self.sample_times: list[float] = []
        self.queue_len_trace = [[] for _ in self.queues]
        self.queue_avg_trace = [[] for _ in self.queues]
        self.util_trace = [[] for _ in self.queues]
        self.window_trace: dict[int, list[float]] = {}  # long flows only

    def run(self) -> Metrics:
        cfg = self.cfg
        rng = random.Random(cfg.seed)
        draw = rng.random
        policy = cfg.policy
        red = isinstance(policy, RedParams)
        queues = self.queues
        flows = self.flows
        # Each heap ends in a sentinel past every event, the main heap's
        # first: the loop compares the three heads without testing for an
        # empty heap, and stops at the main heap's sentinel.
        heap = [(math.inf, -1, None, None, None)]
        services = [(math.inf, 0, None)]  # (time, tie, queue)
        ack_heads = [(math.inf, 1, None, None)]  # (time, tie, packet, line)
        heappush, heappop, heapreplace = heapq.heappush, heapq.heappop, heapq.heapreplace
        tick = itertools.count(1).__next__
        capacity = cfg.capacity
        packet_size = cfg.packet_size
        service_time = packet_size * 8 / capacity  # of a full packet
        duration = cfg.duration
        dt = cfg.sample_interval
        prof = cfg.short_flows
        now = 0.0
        pending = 0  # sized flows not yet complete
        to_completion = cfg.run_to_completion
        # The loop ends before the first event later than `stop`: the
        # duration, or in a run to completion the largest float, which only
        # the sentinels pass, until the last sized flow completes.
        stop = sys.float_info.max if to_completion else duration
        hop_line = deque()  # next-hop arrivals
        ack_lines = {}  # half round trip -> line
        loss_lines = {}  # round trip -> line
        hops = {}  # route -> (first queue's arrival handler, next-hop table)
        # a queue admits below `limit` packets: the threshold's whole
        # packets, capped by the buffer, or the buffer; RED also draws
        limit = (min(int(policy.q_th), cfg.buffer) if isinstance(policy, ThresholdParams)
                 else cfg.buffer)
        w_q, b_min = (policy.w_q, policy.b_min) if red else (0.0, 0.0)
        avg_keep = 1.0 - w_q
        alpha, k, keep = _COMPOUND.alpha, _COMPOUND.k, 1.0 - _COMPOUND.beta
        gamma_thresh, zeta = _GAMMA_THRESH, _ZETA

        # A line's head is on the main heap, or an ack line's on `ack_heads`:
        # an event appended to an empty line is pushed there too; the loop
        # replaces it by the line's next.

        def arrival_handler(q):
            pkts = q.pkts

            def arrive(pkt):
                q.arrivals += 1
                held = len(pkts)
                admit = held < limit
                if red:
                    # the average moves at every arrival, a dropped one too;
                    # the drop law is 0.0 up to b_min, where nothing is drawn
                    avg = q.avg = avg_keep * q.avg + w_q * held
                    if admit and avg > b_min:
                        p = red_drop_probability(avg, policy)
                        admit = not (p > 0.0 and draw() < p)
                if admit:
                    pkts.append((now, pkt))
                    if not held:  # the link was idle
                        heappush(services, (now + pkt[4], tick(), q))
                    return
                q.drops += 1
                fl = pkt[0]
                losses = fl.losses
                event = (now + fl.rtt, tick(), loss, pkt, losses)
                if not losses:
                    heappush(heap, event)
                losses.append(event)

            return arrive

        def ack(pkt, fl=None):
            # without a packet, only the send loop runs
            nonlocal pending, stop
            if pkt is not None:
                fl, _, size, send_time, _ = pkt
                if fl.completed_at is not None:
                    return
                fl.in_flight -= 1
                rtt_sample = now - send_time
                base = fl.base_rtt
                if rtt_sample < base:
                    fl.base_rtt = base = rtt_sample
                if fl.slow_start:
                    fl.cwnd += 1.0
                    if fl.cwnd >= fl.ssthresh:
                        fl.slow_start = False
                elif fl.compound:
                    # the per-window rule at per-ack granularity, scaled by
                    # 1/window, so that one lossless round trip gives the
                    # fluid law's aggregate increase; `b if b > a else a` is
                    # max(a, b) to the bit, without the call
                    win = fl.cwnd + fl.dwnd
                    div = 1.0 if 1.0 > win else win
                    fl.cwnd += 1.0 / div
                    diff = (win / base - win / rtt_sample) * base
                    if diff < gamma_thresh:
                        grow = alpha * win**k - 1.0
                        fl.dwnd += (0.0 if 0.0 > grow else grow) / div
                    else:
                        dwnd = fl.dwnd - zeta * diff
                        fl.dwnd = 0.0 if 0.0 > dwnd else dwnd
                else:  # Reno
                    fl.cwnd += 1.0 / fl.cwnd
                goal = fl.bytes_to_send
                if goal is not None:
                    fl.bytes_acked += size
                    if fl.bytes_acked >= goal:
                        fl.completed_at = now
                        fl.sent = None  # it sends no more: free its line
                        pending -= 1
                        if to_completion and not pending:
                            stop = -math.inf
                        return
            # a packet's access and service times, computed once
            size, access, service = packet_size, fl.access_time, service_time
            win = fl.cwnd + fl.dwnd
            sent, arrive = fl.sent, fl.arrive
            while fl.in_flight < win and (fl.bytes_unsent is None or fl.bytes_unsent > 0):
                if fl.bytes_unsent is not None:
                    size = min(packet_size, fl.bytes_unsent)
                    fl.bytes_unsent -= size
                    if size < packet_size:  # the last of the bytes unsent
                        access = size * 8 / fl.access_rate
                        service = size * 8 / capacity
                free = fl.access_free
                depart = (free if free > now else now) + access
                fl.access_free = depart
                fl.in_flight += 1
                seq = fl.next_seq
                fl.next_seq = seq + 1
                event = (depart + fl.half_rtt, tick(), arrive, (fl, seq, size, now, service), sent)
                if not sent:
                    heappush(heap, event)
                sent.append(event)

        def loss(pkt):
            fl, seq, size, _, _ = pkt
            if fl.completed_at is not None:
                return
            fl.in_flight -= 1
            if fl.bytes_unsent is not None:
                fl.bytes_unsent += size  # the dropped payload must be resent
            if seq > fl.recover_seq:
                fl.recover_seq = fl.next_seq
                win = fl.cwnd + fl.dwnd
                if fl.slow_start:
                    fl.slow_start = False
                    fl.ssthresh = max(win / 2.0, 2.0)
                if fl.compound:
                    cwnd = fl.cwnd / 2.0
                    dwnd = win * keep - cwnd
                    fl.dwnd = 0.0 if 0.0 > dwnd else dwnd
                    fl.cwnd = 1.0 if 1.0 > cwnd else cwnd
                else:
                    fl.cwnd = max(win / 2.0, 1.0)
            ack(None, fl)

        def start(fl):
            fl.started = True
            ack(None, fl)

        samples = list(zip(self.queues, self.queue_len_trace,
                           self.queue_avg_trace, self.util_trace))

        def sample(_):
            self.sample_times.append(now)
            for q, lens, avgs, utils in samples:
                lens.append(len(q.pkts))
                avgs.append(q.avg if red else float(len(q.pkts)))
                utils.append(min(100.0 * q.bits_interval / (capacity * dt), 100.0))
                q.bits_interval = 0
            for fl, trace in windows:
                trace.append(fl.cwnd + fl.dwnd if fl.started else 0.0)
            if now + dt <= duration + 1e-9:
                heappush(heap, (now + dt, tick(), sample, None, None))

        arrive_at = [arrival_handler(q) for q in queues]

        def add_flow(spec: FlowSpec, is_short=False) -> _Flow:
            fl = _Flow(len(flows), spec)
            route = spec.route
            table = hops.get(route)
            if table is None:
                # SimConfig has checked that the route is non-empty, in range
                # and visits no queue twice
                nxt = [None] * len(queues)
                for a, b in zip(route, route[1:]):
                    nxt[a] = arrive_at[b]
                table = hops[route] = (arrive_at[route[0]], nxt)
            fl.arrive, fl.next_hop = table
            fl.access_time = packet_size * 8 / fl.access_rate  # of a full packet
            fl.sent = deque()
            fl.acks = ack_lines.setdefault(fl.half_rtt, deque())
            fl.losses = loss_lines.setdefault(fl.rtt, deque())
            flows.append(fl)
            if not is_short:
                self.window_trace[fl.fid] = []
            return fl

        def spawn_short(_):
            nonlocal pending
            fl = add_flow(FlowSpec(
                protocol="reno",
                access_rate=prof.access_rate,
                rtt_propagation=prof.rtt_propagation,
                start_time=now,
                bytes_to_send=prof.bytes_per_flow,
                route=prof.route,
            ), is_short=True)
            pending += 1
            fl.started = True
            ack(None, fl)
            gap = rng.expovariate(prof.rate_per_s)
            if now + gap < duration:
                heappush(heap, (now + gap, tick(), spawn_short, None, None))

        for spec in cfg.flows:
            fl = add_flow(spec)
            if spec.bytes_to_send is not None:
                pending += 1
            heappush(heap, (spec.start_time, tick(), start, fl, None))
        windows = [(flows[fid], trace) for fid, trace in self.window_trace.items()]
        heappush(heap, (0.0, tick(), sample, None, None))
        if prof is not None:
            heappush(heap, (rng.expovariate(prof.rate_per_s), tick(), spawn_short, None, None))

        try:
            # a runaway configuration ends after 5e8 events
            for _ in itertools.repeat(None, 500_000_001):
                service_head = services[0]
                ack_head = ack_heads[0]
                if ack_head < service_head:
                    if ack_head < heap[0]:
                        # an ack leaves its line, and the line's next takes
                        # its place on `ack_heads`
                        t, _, pkt, line = ack_head
                        line.popleft()
                        if line:
                            heapreplace(ack_heads, line[0])
                        else:
                            heappop(ack_heads)
                        if t > stop:
                            break
                        now = t
                        ack(pkt)
                        continue
                elif service_head < heap[0]:
                    # the head packet of queue q leaves its link, on to the
                    # next hop or back to its source as an ack; the queue's
                    # next service takes this one's place on `services`
                    t, _, q = service_head
                    if t > stop:
                        break
                    now = t
                    pkts = q.pkts
                    arrived_at, pkt = pkts.popleft()
                    q.served += 1
                    q.sojourn_sum += t - arrived_at
                    bits = pkt[2] * 8
                    q.bits_interval += bits
                    fl = pkt[0]
                    nxt = fl.next_hop[q.idx]
                    if nxt is not None:
                        event = (t, tick(), nxt, pkt, hop_line)
                        if not hop_line:
                            heappush(heap, event)
                        hop_line.append(event)
                    else:
                        q.bits_total += bits
                        acks = fl.acks
                        event = (t + fl.half_rtt, tick(), pkt, acks)
                        if not acks:
                            heappush(ack_heads, event)
                        acks.append(event)
                    if pkts:
                        heapreplace(services, (t + pkts[0][1][4], tick(), q))
                    else:
                        heappop(services)
                    continue
                t, _, handler, arg, line = heap[0]
                if line is None:
                    heappop(heap)
                else:
                    line.popleft()
                    if line:
                        heapreplace(heap, line[0])
                    else:
                        heappop(heap)
                if t > stop:
                    break
                now = t
                handler(arg)
            else:
                raise ConfigError("event budget exceeded; runaway configuration")
        finally:
            # the handlers refer to one another; queued events refer to them,
            # and to packets, which refer to their flows, which refer to their
            # lines and handlers: emptying the lines and the flows' handler
            # slots frees the run's state on return, not at the next full
            # garbage collection
            heap.clear()
            services.clear()
            ack_heads.clear()
            hop_line.clear()
            for line in (*ack_lines.values(), *loss_lines.values()):
                line.clear()
            for fl in flows:
                if fl.sent is not None:
                    fl.sent.clear()
                fl.arrive = fl.next_hop = None
            del arrive_at, ack, loss, start, sample, add_flow, spawn_short
        self.now = now
        return self._collect()

    # -- metrics ------------------------------------------------------------
    def _collect(self) -> Metrics:
        cfg = self.cfg
        t0 = 0.5 * cfg.duration
        counters = [
            QueueCounters(
                arrivals=q.arrivals, drops=q.drops, served=q.served,
                final_occupancy=len(q.pkts), sojourn_sum=q.sojourn_sum,
                sojourn_count=q.served,
            )
            for q in self.queues
        ]
        arrivals = sum(c.arrivals for c in counters)
        drops = sum(c.drops for c in counters)
        loss_pct = 100.0 * drops / arrivals if arrivals else 0.0
        # a run to completion delivers until its last sized flow completes,
        # which may be after the duration
        horizon = self.now if cfg.run_to_completion else min(self.now, cfg.duration)
        delivered_bits = sum(q.bits_total for q in self.queues)
        throughput = delivered_bits / horizon if horizon > 0 else 0.0

        completions = {
            fl.fid: fl.completed_at
            for fl in self.flows
            if fl.completed_at is not None and fl.spec.bytes_to_send is not None
        }
        starts = {fl.fid: fl.spec.start_time for fl in self.flows}
        sized = [f for f in self.flows if f.spec.bytes_to_send is not None]
        afct = None
        if sized and all(f.completed_at is not None for f in sized):
            afct = sum(f.completed_at - f.spec.start_time for f in sized) / len(sized)

        sync = None
        post = [i for i, t in enumerate(self.sample_times) if t >= t0]
        if self.window_trace and len(post) > 4:
            series = [[trace[i] for i in post] for trace in self.window_trace.values()]
            n = len(post)
            means = [sum(s) / n for s in series]
            stds = [
                math.sqrt(sum((v - m) ** 2 for v in s) / n)
                for s, m in zip(series, means)
            ]
            agg = [sum(s[i] for s in series) / len(series) for i in range(n)]
            agg_mean = sum(agg) / n
            agg_std = math.sqrt(sum((v - agg_mean) ** 2 for v in agg) / n)
            denom = sum(stds) / len(stds)
            sync = agg_std / denom if denom > 0 else 0.0

        soj = sum(c.sojourn_sum for c in counters)
        soj_n = sum(c.sojourn_count for c in counters)
        return Metrics(
            config_seed=cfg.seed,
            transient=t0,
            sample_times=self.sample_times,
            queue_len=self.queue_len_trace,
            queue_avg=self.queue_avg_trace,
            utilization_pct=self.util_trace,
            windows=self.window_trace,
            counters=counters,
            throughput_bps=throughput,
            loss_pct=loss_pct,
            afct=afct,
            completions=completions,
            flow_starts=starts,
            sync_index=sync,
            mean_queueing_delay=soj / soj_n if soj_n else 0.0,
        )


def run_simulation(config: SimConfig) -> Metrics:
    """Run one deterministic simulation."""
    return Simulator(config).run()


def config_digest(cfg: SimConfig) -> str:
    """Stable (cross-process) digest of everything but the seed."""
    import hashlib

    text = repr((cfg.topology, cfg.capacity, cfg.buffer, cfg.packet_size,
                 cfg.flows, cfg.policy, cfg.duration, cfg.sample_interval,
                 cfg.short_flows, cfg.run_to_completion))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_batch(configs: list[SimConfig]) -> dict[tuple[str, int], Metrics]:
    """Independent runs keyed by (config digest, seed); order-insensitive.

    The runs are spread over worker processes by `workers.map_in_workers`;
    each result is bit-identical to `run_simulation` of its config in this
    process.
    """
    configs = list(configs)
    results = map_in_workers(run_simulation, configs)
    return {(config_digest(cfg), cfg.seed): m for cfg, m in zip(configs, results)}


def compute_afct(metrics: Metrics) -> float:
    """Mean completion time of the sized flows; raises if any are unfinished."""
    expected = metrics.afct
    if expected is None:
        stragglers = sorted(
            set(metrics.flow_starts) - set(metrics.completions)
        )
        raise ConfigError(f"flows did not complete: {stragglers[:20]}")
    return expected


# -- desk- and paper-scale scenario builders ---------------------------------

DESK_DURATION_S = 120.0  # a desk run's default length, which the CLI reads


def desk_config(policy, rtt_s: float, seed: int, *, n_flows: int = 20,
                capacity: float = 25e6, duration: float = DESK_DURATION_S,
                bytes_to_send: int | None = None, overload: float = 1.2) -> SimConfig:
    """Scaled-down scenario for CI: a dumbbell with n_flows long-lived
    Compound sources offering overload x capacity in aggregate, sampled
    every 0.1 s."""
    rng = random.Random(seed ^ 0x5EED)
    access = overload * capacity / n_flows
    flows = tuple(
        FlowSpec(
            protocol="compound",
            access_rate=access,
            rtt_propagation=rtt_s,
            start_time=rng.uniform(0.0, min(10.0, duration / 10.0)),
            bytes_to_send=bytes_to_send,
        )
        for _ in range(n_flows)
    )
    bdp_buffer = max(int(capacity * 0.25 / (8 * 1500)), 64)
    return SimConfig(
        topology="dumbbell",
        capacity=capacity,
        buffer=bdp_buffer,
        packet_size=1500,
        flows=flows,
        policy=policy,
        duration=duration,
        seed=seed,
        run_to_completion=bytes_to_send is not None,
    )


def paper_config(policy, rtt_s: float, seed: int) -> SimConfig:
    """Full-scale scenario: 60 flows, 100 Mbps bottleneck, 500 s."""
    return desk_config(
        policy, rtt_s, seed, n_flows=60, capacity=100e6, duration=500.0
    )


# -- scenario files -----------------------------------------------------------

_SCALAR_KEYS = {
    "topology", "capacity_mbps", "buffer_pkts", "packet_bytes", "duration_s",
    "sample_interval_s", "seed", "policy", "red.bmin", "red.bmax", "red.pmax",
    "red.wq", "threshold.qth",
}
_FLOW_KEYS = {"protocol", "access_mbps", "rtt_ms", "start_s", "bytes"}


def parse_scenario(text: str) -> SimConfig:
    """Parse the flat key = value scenario format."""
    pairs = {}
    first_line = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected key = value")
        key, val = (s.strip() for s in line.split("=", 1))
        if key in first_line:
            raise ConfigError(
                f"line {ln}: duplicate key {key!r} (first set on line {first_line[key]})"
            )
        first_line[key] = ln
        pairs[key] = val

    flows_kv: dict[int, dict[str, str]] = {}
    scalars: dict[str, str] = {}
    for key, val in pairs.items():
        if key.startswith("flow."):
            parts = key.split(".")
            if len(parts) != 3 or parts[2] not in _FLOW_KEYS:
                raise ConfigError(f"unknown key {key!r}")
            try:
                idx = int(parts[1])
            except ValueError:
                raise ConfigError(f"bad flow index in {key!r}") from None
            kv = flows_kv.setdefault(idx, {})
            if parts[2] in kv:
                raise ConfigError(
                    f"line {first_line[key]}: {key!r} repeats flow.{idx}.{parts[2]}"
                )
            kv[parts[2]] = val
        elif key in _SCALAR_KEYS:
            scalars[key] = val
        else:
            raise ConfigError(f"unknown key {key!r}")

    def get(key, kind, default=None):
        if key in scalars:
            return _scenario_value(key, scalars[key], kind)
        if default is None:
            raise ConfigError(f"missing key {key!r}")
        return default

    topology = get("topology", str)
    if topology == "parking-lot":  # every flow would cross the first hop only
        raise ConfigError("a parking-lot scenario needs flow routes; the format has no route key")
    policy_name = get("policy", str).lower()
    with usage_errors():
        if policy_name == "red":
            policy = RedParams(
                b_min=get("red.bmin", float),
                b_max=get("red.bmax", float),
                p_max=get("red.pmax", float),
                w_q=get("red.wq", float, RedParams.w_q),
            )
        elif policy_name == "threshold":
            policy = ThresholdParams(q_th=get("threshold.qth", int))
        elif policy_name == "droptail":
            policy = DropTail()
        else:
            raise ConfigError(f"unknown policy {policy_name!r}")

    flows = []
    for idx in sorted(flows_kv):
        kv = flows_kv[idx]
        for req in ("protocol", "access_mbps", "rtt_ms"):
            if req not in kv:
                raise ConfigError(f"flow.{idx} is missing {req}")
        num = {
            name: _scenario_value(f"flow.{idx}.{name}", text, int if name == "bytes" else float)
            for name, text in kv.items() if name != "protocol"
        }
        flows.append(
            FlowSpec(
                protocol=kv["protocol"],
                access_rate=num["access_mbps"] * 1e6,
                rtt_propagation=num["rtt_ms"] / 1e3,
                start_time=num.get("start_s", 0.0),
                bytes_to_send=num.get("bytes"),
            )
        )
    return SimConfig(
        topology=topology,
        capacity=get("capacity_mbps", float) * 1e6,
        buffer=get("buffer_pkts", int),
        packet_size=get("packet_bytes", int),
        flows=tuple(flows),
        policy=policy,
        duration=get("duration_s", float),
        seed=get("seed", int),
        sample_interval=get("sample_interval_s", float, 0.1),
    )


def _scenario_value(key: str, text: str, kind):
    """A scenario value as str, int or float; a malformed number is a
    ConfigError naming its key."""
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"{key} = {text!r} is not a valid {kind.__name__}") from None


def write_metrics_csv(metrics: Metrics, outdir) -> None:
    """queue.csv, flows.csv, util.csv, summary.csv in outdir."""
    os.makedirs(outdir, exist_ok=True)
    times = [f"{t:.12g}" for t in metrics.sample_times]  # each formatted once
    with open(os.path.join(outdir, "queue.csv"), "w") as fh:
        fh.write("t,q,avg_q\n")
        fh.writelines(f"{t},{q},{avg:.12g}\n" for t, q, avg in
                      zip(times, metrics.queue_len[0], metrics.queue_avg[0]))
    with open(os.path.join(outdir, "flows.csv"), "w") as fh:
        fh.write("t,flow_id,window\n")
        for fid, wins in metrics.windows.items():
            fh.writelines(f"{t},{fid},{w:.12g}\n" for t, w in zip(times, wins))
    with open(os.path.join(outdir, "util.csv"), "w") as fh:
        fh.write("t,utilization_pct\n")
        fh.writelines(f"{t},{u:.12g}\n" for t, u in zip(times, metrics.utilization_pct[0]))
    post = metrics.post_transient(metrics.transient)
    min_util = min(
        (metrics.utilization_pct[0][i] for i in post[1:]), default=0.0
    )
    with open(os.path.join(outdir, "summary.csv"), "w") as fh:
        fh.write("loss_pct,throughput_mbps,afct_s,min_util_pct\n")
        afct = f"{metrics.afct:.12g}" if metrics.afct is not None else ""
        fh.write(
            f"{metrics.loss_pct:.12g},{metrics.throughput_bps / 1e6:.12g},"
            f"{afct},{min_util:.12g}\n"
        )
