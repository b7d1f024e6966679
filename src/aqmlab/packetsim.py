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
(the idea of Brown's calendar queue, CACM 1988); `Simulator` lists the lines
and why each stays sorted. The tie rule is unchanged: the next event is the
pending one of smallest (time, tie), as with one heap of every event.

The per-packet laws are bound once, not looked up per packet:

- the Compound window laws, once at import: `compound_window_laws` binds
  alpha, k and beta of `ProtocolSpec.compound_tcp()` (params) and its
  gamma_thresh and zeta defaults, and `_WINDOW_LAWS` holds the (ack, loss)
  pair each flow calls;
- each queue's admit rule, once per queue per run, inside that queue's
  arrival handler: `red_admit_rule` over the queue's w_q, 1 - w_q, b_min,
  buffer and the run's `rng.random`, or `limit_admit_rule` over the
  threshold or the buffer. The drop law RED draws against is
  `protocols.red_drop_probability`, shared with the fluid model.
"""

from __future__ import annotations

import heapq
import itertools
import math
import os
import random
from collections import deque
from dataclasses import dataclass

from .errors import ConfigError, usage_errors
from .params import ProtocolSpec, RedParams, ThresholdParams
from .protocols import red_drop_probability


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
    the protocol's window laws and the propagation constants. `Simulator.run`
    adds the arrival handler of the route's first queue, the next-hop table
    (queue index -> the next queue's arrival handler, or None) and the
    flow's event lines: its own first-hop arrivals (`sent`, dropped once a
    sized flow completes) and the ack and loss lines it shares with every
    flow of its delay."""

    __slots__ = (
        "fid", "spec", "cwnd", "dwnd", "ssthresh", "slow_start", "in_flight",
        "bytes_unsent", "bytes_acked", "base_rtt", "next_seq", "recover_seq",
        "access_free", "completed_at", "started", "on_ack", "on_loss",
        "access_rate", "rtt", "half_rtt", "arrive", "next_hop", "sent", "acks",
        "losses",
    )

    def __init__(self, fid, spec: FlowSpec):
        self.fid = fid
        self.spec = spec
        self.cwnd = float(spec.initial_cwnd)
        self.dwnd = 0.0
        self.ssthresh = math.inf
        self.slow_start = not spec.start_in_ca
        self.in_flight = 0
        self.bytes_unsent = spec.bytes_to_send
        self.bytes_acked = 0
        self.base_rtt = math.inf
        self.next_seq = 0
        self.recover_seq = -1
        self.access_free = 0.0
        self.completed_at = None
        self.started = False
        self.on_ack, self.on_loss = _WINDOW_LAWS[spec.protocol]
        self.access_rate = spec.access_rate
        self.rtt = spec.rtt_propagation
        self.half_rtt = spec.rtt_propagation / 2.0


def compound_window_laws(*, gamma_thresh: float = 30.0, zeta: float = 0.5):
    """(on_ack, on_loss) of the dual-window protocol, with alpha, k and beta of
    `ProtocolSpec.compound_tcp()` bound once.

    The per-window branch rule is applied at per-ack granularity, scaled by
    1/window, so that one lossless round trip reproduces the aggregate
    window increase of the fluid law. on_ack takes a positive rtt sample;
    on_loss takes the window cwnd + dwnd at the loss. `b if b > a else a` is
    max(a, b) to the bit, without the call.
    """
    spec = ProtocolSpec.compound_tcp()
    alpha, k, keep = spec.alpha, spec.k, 1.0 - spec.beta

    def on_ack(fl, rtt_sample):
        win = fl.cwnd + fl.dwnd
        base = fl.base_rtt
        if rtt_sample < base:
            fl.base_rtt = base = rtt_sample
        div = 1.0 if 1.0 > win else win
        fl.cwnd += 1.0 / div
        diff = (win / base - win / rtt_sample) * base
        if diff < gamma_thresh:
            grow = alpha * win**k - 1.0
            fl.dwnd += (0.0 if 0.0 > grow else grow) / div
        else:
            dwnd = fl.dwnd - zeta * diff
            fl.dwnd = 0.0 if 0.0 > dwnd else dwnd

    def on_loss(fl, win):
        cwnd = fl.cwnd / 2.0
        dwnd = win * keep - cwnd
        fl.dwnd = 0.0 if 0.0 > dwnd else dwnd
        fl.cwnd = 1.0 if 1.0 > cwnd else cwnd

    return on_ack, on_loss


# Congestion-avoidance ack laws and loss laws, (flow, rtt sample or window at
# the loss); slow start and loss recovery are common to both protocols.

def _reno_ack(fl, rtt_sample):
    fl.base_rtt = min(fl.base_rtt, rtt_sample)
    fl.cwnd += 1.0 / fl.cwnd


def _reno_loss(fl, win):
    fl.cwnd = max(win / 2.0, 1.0)


_WINDOW_LAWS = {
    "compound": compound_window_laws(),
    "reno": (_reno_ack, _reno_loss),
}


def red_admit_rule(red: RedParams, q: _Queue, rng: random.Random):
    """The RED admit rule of one queue, queue length -> admit?: the EWMA
    update of `q.avg`, then a Bernoulli draw at `red_drop_probability` of the
    new average. w_q, 1 - w_q, b_min, the buffer and the draw are bound once.
    The law is 0.0 up to b_min, where no draw is made, so it is called only
    past b_min."""
    w_q = red.w_q
    keep = 1.0 - w_q
    b_min = red.b_min
    buffer = q.buffer
    draw = rng.random

    def admits(queue_len):
        avg = q.avg = keep * q.avg + w_q * queue_len
        if queue_len >= buffer:
            return False
        if avg <= b_min:
            return True
        p = red_drop_probability(avg, red)
        return not (p > 0.0 and draw() < p)

    return admits


def limit_admit_rule(policy: ThresholdParams | DropTail, buffer: int):
    """The admit rule of a threshold or drop-tail queue, queue length ->
    admit?: a deterministic drop once the queue holds the threshold's whole
    packets (capped by the buffer) or, under drop-tail, the buffer."""
    limit = min(int(policy.q_th), buffer) if isinstance(policy, ThresholdParams) else buffer
    return lambda queue_len: queue_len < limit


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

    A packet is the tuple (flow, seq, size bytes, send time) and an event is
    (time, tie, handler, arg, line), run as handler(arg); one tie counter,
    shared by every event, breaks equal times by insertion order. Events
    that fall due a fixed delay after they are made go into FIFO lines:

    - each flow's first-hop arrivals: the access link's departures never
      decrease, and the half round trip is added to each;
    - acks, one line per distinct half round trip: made at services, `now`
      plus the flow's half round trip;
    - loss notices, one line per distinct round trip: made at drops, `now`
      plus the flow's round trip;
    - next-hop arrivals, one line: due at `now`.

    `now` never decreases, adding a constant to a float is monotone and ties
    only grow, so each line is sorted by (time, tie) as it is appended to.
    The heap holds each non-empty line's head and the events made one at a
    time (services, samples, starts and short-flow spawns), so
    its smallest entry is the smallest pending event: the dispatch order,
    and with it every output, is that of one heap of all events. `run`
    settles before the first event what the handlers would otherwise look up
    per packet: each queue's arrival handler with its admit rule bound, each
    flow's window laws, lines and the next-hop handlers of its route.
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
        policy = cfg.policy
        red = isinstance(policy, RedParams)
        queues = self.queues
        flows = self.flows
        heap = []
        heappush, heappop, heapreplace = heapq.heappush, heapq.heappop, heapq.heapreplace
        tick = itertools.count(1).__next__
        capacity = cfg.capacity
        packet_size = cfg.packet_size
        duration = cfg.duration
        dt = cfg.sample_interval
        prof = cfg.short_flows
        now = 0.0
        pending = 0  # sized flows not yet complete
        hop_line = deque()  # next-hop arrivals
        ack_lines = {}  # half round trip -> line
        loss_lines = {}  # round trip -> line
        hops = {}  # route -> (first queue's arrival handler, next-hop table)

        # A line's head is on the heap: an event appended to an empty line
        # is pushed there too; the loop replaces it by the line's next.

        def try_send(fl):
            size = packet_size
            win = fl.cwnd + fl.dwnd
            sent, arrive = fl.sent, fl.arrive
            while fl.in_flight < win and (fl.bytes_unsent is None or fl.bytes_unsent > 0):
                if fl.bytes_unsent is not None:
                    size = min(packet_size, fl.bytes_unsent)
                    fl.bytes_unsent -= size
                free = fl.access_free
                depart = (free if free > now else now) + size * 8 / fl.access_rate
                fl.access_free = depart
                fl.in_flight += 1
                seq = fl.next_seq
                fl.next_seq = seq + 1
                event = (depart + fl.half_rtt, tick(), arrive, (fl, seq, size, now), sent)
                if not sent:
                    heappush(heap, event)
                sent.append(event)

        def arrival_handler(q, admits):
            pkts = q.pkts

            def arrive(pkt):
                q.arrivals += 1
                held = len(pkts)
                if admits(held):
                    pkts.append((now, pkt))
                    if not held:  # the link was idle
                        heappush(heap, (now + pkt[2] * 8 / capacity, tick(), service, q, None))
                    return
                q.drops += 1
                fl = pkt[0]
                losses = fl.losses
                event = (now + fl.rtt, tick(), loss, pkt, losses)
                if not losses:
                    heappush(heap, event)
                losses.append(event)

            return arrive

        def service(q):
            pkts = q.pkts
            arrived_at, pkt = pkts.popleft()
            q.served += 1
            q.sojourn_sum += now - arrived_at
            bits = pkt[2] * 8
            q.bits_interval += bits
            fl = pkt[0]
            nxt = fl.next_hop[q.idx]
            if nxt is not None:
                event = (now, tick(), nxt, pkt, hop_line)
                if not hop_line:
                    heappush(heap, event)
                hop_line.append(event)
            else:
                q.bits_total += bits
                acks = fl.acks
                event = (now + fl.half_rtt, tick(), ack, pkt, acks)
                if not acks:
                    heappush(heap, event)
                acks.append(event)
            if pkts:
                heappush(heap, (now + pkts[0][1][2] * 8 / capacity, tick(), service, q, None))

        def ack(pkt):
            nonlocal pending
            fl, _, size, send_time = pkt
            if fl.completed_at is not None:
                return
            fl.in_flight -= 1
            fl.bytes_acked += size
            rtt_sample = now - send_time
            if fl.slow_start:
                fl.base_rtt = min(fl.base_rtt, rtt_sample)
                fl.cwnd += 1.0
                if fl.cwnd >= fl.ssthresh:
                    fl.slow_start = False
            else:
                fl.on_ack(fl, rtt_sample)
            goal = fl.spec.bytes_to_send
            if goal is not None and fl.bytes_acked >= goal:
                fl.completed_at = now
                fl.sent = None  # it sends no more: free its line
                pending -= 1
                return
            try_send(fl)

        def loss(pkt):
            fl, seq, size, _ = pkt
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
                fl.on_loss(fl, win)
            try_send(fl)

        def start(fl):
            fl.started = True
            try_send(fl)

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

        arrive_at = [
            arrival_handler(q, red_admit_rule(policy, q, rng) if red
                            else limit_admit_rule(policy, q.buffer))
            for q in queues
        ]

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
            fl.sent = deque()
            fl.acks = ack_lines.setdefault(fl.half_rtt, deque())
            fl.losses = loss_lines.setdefault(fl.rtt, deque())
            flows.append(fl)
            if not is_short:
                self.window_trace[fl.fid] = []
            return fl

        def spawn_short(_):
            nonlocal pending
            spec = FlowSpec(
                protocol="reno",
                access_rate=prof.access_rate,
                rtt_propagation=prof.rtt_propagation,
                start_time=now,
                bytes_to_send=prof.bytes_per_flow,
                route=prof.route,
            )
            fl = add_flow(spec, is_short=True)
            if spec.bytes_to_send is not None:
                pending += 1
            fl.started = True
            try_send(fl)
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

        to_completion = cfg.run_to_completion
        hard_stop = math.inf if to_completion else duration
        try:
            # a runaway configuration ends after 5e8 events
            for _ in itertools.repeat(None, 500_000_001):
                if not heap:
                    break
                t, _, handler, arg, line = heap[0]
                if t > hard_stop or (to_completion and pending == 0):
                    break
                if line is None:
                    heappop(heap)
                else:
                    line.popleft()
                    if line:
                        heapreplace(heap, line[0])
                    else:
                        heappop(heap)
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
            hop_line.clear()
            for line in (*ack_lines.values(), *loss_lines.values()):
                line.clear()
            for fl in flows:
                if fl.sent is not None:
                    fl.sent.clear()
                fl.arrive = fl.next_hop = None
            del try_send, service, ack, loss, start, sample, add_flow, spawn_short
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
        horizon = min(self.now, cfg.duration)
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


def _run_in_worker(config: SimConfig) -> Metrics:
    # what the pool sends to a worker, by name; run_simulation itself may be
    # rebound (wrapped for tracing, say) to something a worker cannot import
    return Simulator(config).run()


def run_batch(configs: list[SimConfig]) -> dict[tuple[str, int], Metrics]:
    """Independent runs keyed by (config digest, seed); order-insensitive.

    The runs are spread over worker processes, at most one per CPU this
    process may run on; each result is bit-identical to `run_simulation` of
    its config in this process. With one config, one CPU or no `fork` start
    method, the runs are made here, one after another.
    """
    configs = list(configs)
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(len(configs), cpus)
    results = None
    if workers > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor

            # fork, not spawn or forkserver: those re-run the caller's main
            # script in every worker (which then needs a __main__ guard) and
            # import the package again, at no gain.
            with ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork")
            ) as pool:
                results = list(pool.map(_run_in_worker, configs))
    if results is None:
        results = [run_simulation(cfg) for cfg in configs]
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

def desk_config(policy, rtt_s: float, seed: int, *, n_flows: int = 20,
                capacity: float = 25e6, duration: float = 120.0,
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
    import os

    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "queue.csv"), "w") as fh:
        fh.write("t,q,avg_q\n")
        for i, t in enumerate(metrics.sample_times):
            fh.write(
                f"{t:.12g},{metrics.queue_len[0][i]},{metrics.queue_avg[0][i]:.12g}\n"
            )
    with open(os.path.join(outdir, "flows.csv"), "w") as fh:
        fh.write("t,flow_id,window\n")
        for fid, wins in metrics.windows.items():
            for t, w in zip(metrics.sample_times, wins):
                fh.write(f"{t:.12g},{fid},{w:.12g}\n")
    with open(os.path.join(outdir, "util.csv"), "w") as fh:
        fh.write("t,utilization_pct\n")
        for t, u in zip(metrics.sample_times, metrics.utilization_pct[0]):
            fh.write(f"{t:.12g},{u:.12g}\n")
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
