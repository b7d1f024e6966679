"""Discrete-event packet-level simulator: window-based sources (Compound,
Reno, CUBIC), constant-rate and short-flow generators, RED / threshold /
drop-tail queues, and dumbbell or two-hop parking-lot topologies.

One run is a strict total order of events (ties broken by insertion order),
fully determined by the configuration and seed. The RED drop decision is a
per-arrival Bernoulli draw on the exponentially weighted average queue, which
is the law the fluid analysis assumes; the classic count-based drop spreading
is deliberately not reproduced.
"""

from __future__ import annotations

import heapq
import itertools
import math
import os
import random
from collections import deque
from dataclasses import dataclass

from .errors import ConfigError
from .protocols import red_drop_probability

COMPOUND_DEFAULTS = dict(alpha=0.125, k=0.75, beta=0.5, gamma_thresh=30.0, zeta=0.5)
CUBIC_C = 0.4
CUBIC_BETA = 0.7


@dataclass(frozen=True)
class PacketRed:
    """RED constants for the packet queue (thresholds in packets)."""

    b_min: float = 50.0
    b_max: float = 550.0
    p_max: float = 0.1
    w_q: float = 0.002

    def __post_init__(self):
        if not 0 < self.b_min < self.b_max:
            raise ConfigError("need 0 < b_min < b_max")
        if not 0 < self.p_max < 1:
            raise ConfigError("p_max must be in (0, 1)")
        if not 0 < self.w_q <= 1:
            raise ConfigError("w_q must be in (0, 1]")

    @property
    def rho(self):
        return self.p_max / (self.b_max - self.b_min)

    @property
    def eta(self):
        return (1.0 - self.p_max) / self.b_max


@dataclass(frozen=True)
class PacketThreshold:
    q_th: int = 15

    def __post_init__(self):
        if self.q_th < 1:
            raise ConfigError("q_th must be >= 1")


@dataclass(frozen=True)
class DropTail:
    pass


@dataclass(frozen=True)
class FlowSpec:
    protocol: str  # compound | reno | cubic | udp
    access_rate: float  # bits/s
    rtt_propagation: float  # seconds
    start_time: float = 0.0
    bytes_to_send: int | None = None
    route: tuple[int, ...] = (0,)
    start_in_ca: bool = False
    initial_cwnd: float = 1.0

    def __post_init__(self):
        if self.protocol not in ("compound", "reno", "cubic", "udp"):
            raise ConfigError(f"unknown protocol {self.protocol!r}")
        if self.access_rate <= 0 or self.rtt_propagation <= 0:
            raise ConfigError("access rate and propagation delay must be positive")


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
    policy: PacketRed | PacketThreshold | DropTail
    duration: float
    seed: int
    sample_interval: float = 0.1
    transient: float | None = None  # start of the measurement window
    short_flows: ShortFlowProfile | None = None
    run_to_completion: bool = False

    def __post_init__(self):
        if self.topology not in ("dumbbell", "parking-lot"):
            raise ConfigError(f"unknown topology {self.topology!r}")
        if self.capacity <= 0 or self.duration <= 0:
            raise ConfigError("capacity and duration must be positive")
        if self.buffer < 1:
            raise ConfigError("buffer must hold at least one packet")
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
    the protocol's window laws and the propagation constants. `Simulator`
    adds the route's first queue index and next-hop table."""

    __slots__ = (
        "fid", "spec", "cwnd", "dwnd", "ssthresh", "slow_start", "in_flight",
        "bytes_unsent", "bytes_acked", "base_rtt", "next_seq", "recover_seq",
        "access_free", "completed_at", "wmax_cubic", "k_cubic", "t_loss",
        "started", "udp", "on_ack", "on_loss", "access_rate", "rtt", "half_rtt",
        "first_hop", "next_hop",
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
        self.wmax_cubic = 0.0
        self.k_cubic = 0.0
        self.t_loss = -math.inf
        self.started = False
        self.udp = spec.protocol == "udp"
        self.on_ack, self.on_loss = _WINDOW_LAWS[spec.protocol]
        self.access_rate = spec.access_rate
        self.rtt = spec.rtt_propagation
        self.half_rtt = spec.rtt_propagation / 2.0


def compound_window_update(flow, event: str, rtt_sample: float | None = None,
                           constants: dict = COMPOUND_DEFAULTS):
    """Per-ack / per-loss window update of the dual-window protocol.

    The per-window branch rule is applied at per-ack granularity, scaled by
    1/window, so that one lossless round trip reproduces the aggregate
    window increase of the fluid law.
    """
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


# Congestion-avoidance ack laws and loss laws, (flow, rtt sample or window at
# the loss, now); slow start and loss recovery are common to all protocols.

def _compound_ack(fl, rtt_sample, now):
    compound_window_update(fl, "ack", rtt_sample)


def _compound_loss(fl, win, now):
    compound_window_update(fl, "loss")


def _reno_ack(fl, rtt_sample, now):
    fl.base_rtt = min(fl.base_rtt, rtt_sample)
    fl.cwnd += 1.0 / fl.cwnd


def _reno_loss(fl, win, now):
    fl.cwnd = max(win / 2.0, 1.0)


def _cubic_ack(fl, rtt_sample, now):
    fl.base_rtt = min(fl.base_rtt, rtt_sample)
    if fl.wmax_cubic <= 0:
        fl.cwnd += 1.0 / fl.cwnd
    else:
        t = now - fl.t_loss
        target = fl.wmax_cubic + CUBIC_C * (t - fl.k_cubic) ** 3
        fl.cwnd += max(target - fl.cwnd, 0.1) / fl.cwnd


def _cubic_loss(fl, win, now):
    fl.wmax_cubic = win
    fl.cwnd = max(win * CUBIC_BETA, 1.0)
    fl.k_cubic = (fl.wmax_cubic * (1.0 - CUBIC_BETA) / CUBIC_C) ** (1.0 / 3.0)
    fl.t_loss = now


# udp is not ack-clocked: it never sees an ack or a loss
_WINDOW_LAWS = {
    "compound": (_compound_ack, _compound_loss),
    "reno": (_reno_ack, _reno_loss),
    "cubic": (_cubic_ack, _cubic_loss),
    "udp": (None, None),
}


def red_enqueue_decision(queue_len: int, avg: float, red: PacketRed,
                         buffer: int, rng: random.Random):
    """(admit?, new_avg): EWMA update then a Bernoulli drop draw."""
    avg = (1.0 - red.w_q) * avg + red.w_q * queue_len
    if queue_len >= buffer:
        return False, avg
    p = red_drop_probability(avg, red)
    if p > 0.0 and rng.random() < p:
        return False, avg
    return True, avg


def threshold_enqueue_decision(queue_len: int, th: PacketThreshold, buffer: int):
    """Deterministic drop once the queue reaches the threshold."""
    return queue_len < min(th.q_th, buffer)


class _Queue:
    """A bottleneck queue and its counters. The admit rule is fixed for the
    run: a RED queue (`red` set) makes `red_enqueue_decision`, a threshold
    queue (`threshold` set) `threshold_enqueue_decision`, and a drop-tail
    queue admits below the buffer."""

    __slots__ = ("idx", "red", "threshold", "buffer", "pkts", "busy", "avg",
                 "arrivals", "drops", "served", "sojourn_sum", "bits_interval",
                 "bits_total")

    def __init__(self, idx, policy, buffer):
        self.idx = idx
        self.red = policy if isinstance(policy, PacketRed) else None
        self.threshold = policy if isinstance(policy, PacketThreshold) else None
        self.buffer = buffer
        self.pkts = deque()  # (arrival time, packet)
        self.busy = False
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
    (time, tie, handler, a, b) on one heap, run as handler(a, b); the shared
    tie counter breaks equal times by insertion order. `run` settles before
    the first event what the handlers would otherwise look up per packet:
    each queue's admit rule, each flow's window laws and each route's
    next-hop table.
    """

    def __init__(self, config: SimConfig):
        self.cfg = config
        self.now = 0.0
        self.queues = [_Queue(i, config.policy, config.buffer)
                       for i in range(config.n_queues)]
        self.flows: list[_Flow] = []  # indexed by flow id
        self.sample_times: list[float] = []
        self.queue_len_trace = [[] for _ in self.queues]
        self.queue_avg_trace = [[] for _ in self.queues]
        self.util_trace = [[] for _ in self.queues]
        self.window_trace: dict[int, list[float]] = {}  # long flows only
        self._hops: dict[tuple[int, ...], tuple] = {}

    def _add_flow(self, spec: FlowSpec, is_short=False) -> _Flow:
        fl = _Flow(len(self.flows), spec)
        route = spec.route
        hops = self._hops.get(route)
        if hops is None:
            # next queue index by queue index, None after the last hop;
            # SimConfig has checked that the route is non-empty, in range and
            # visits no queue twice
            nxt = [None] * len(self.queues)
            for a, b in zip(route, route[1:]):
                nxt[a] = b
            hops = self._hops[route] = (route[0], nxt)
        fl.first_hop, fl.next_hop = hops
        self.flows.append(fl)
        if not is_short:
            self.window_trace[fl.fid] = []
        return fl

    def run(self) -> Metrics:
        cfg = self.cfg
        rng = random.Random(cfg.seed)
        queues = self.queues
        heap = []
        heappush, heappop = heapq.heappush, heapq.heappop
        tick = itertools.count(1).__next__
        capacity = cfg.capacity
        packet_size = cfg.packet_size
        duration = cfg.duration
        dt = cfg.sample_interval
        prof = cfg.short_flows
        now = 0.0
        pending = 0  # sized flows not yet complete

        def try_send(fl):
            size = packet_size
            win = fl.cwnd + fl.dwnd
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
                heappush(heap, (depart + fl.half_rtt, tick(), arrive,
                                (fl, seq, size, now), queues[fl.first_hop]))

        def udp_send(fl, _=None):
            tx = packet_size * 8 / fl.access_rate
            seq = fl.next_seq
            fl.next_seq = seq + 1
            heappush(heap, (now + tx + fl.half_rtt, tick(), arrive,
                            (fl, seq, packet_size, now), queues[fl.first_hop]))
            heappush(heap, (now + tx, tick(), udp_send, fl, None))

        def arrive(pkt, q):
            q.arrivals += 1
            pkts = q.pkts
            if q.red is not None:
                admit, q.avg = red_enqueue_decision(len(pkts), q.avg, q.red,
                                                    q.buffer, rng)
            elif q.threshold is not None:
                admit = threshold_enqueue_decision(len(pkts), q.threshold, q.buffer)
            else:
                admit = len(pkts) < q.buffer
            if not admit:
                q.drops += 1
                fl = pkt[0]
                if not fl.udp:
                    heappush(heap, (now + fl.rtt, tick(), loss, pkt, None))
                return
            pkts.append((now, pkt))
            if not q.busy:
                q.busy = True
                heappush(heap, (now + pkt[2] * 8 / capacity, tick(), service, q, None))

        def service(q, _):
            pkts = q.pkts
            arrived_at, pkt = pkts.popleft()
            q.served += 1
            q.sojourn_sum += now - arrived_at
            bits = pkt[2] * 8
            q.bits_interval += bits
            fl = pkt[0]
            nxt = fl.next_hop[q.idx]
            if nxt is not None:
                heappush(heap, (now, tick(), arrive, pkt, queues[nxt]))
            else:
                q.bits_total += bits
                if not fl.udp:
                    heappush(heap, (now + fl.half_rtt, tick(), ack, pkt, None))
            if pkts:
                heappush(heap, (now + pkts[0][1][2] * 8 / capacity, tick(),
                                service, q, None))
            else:
                q.busy = False

        def ack(pkt, _):
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
                fl.on_ack(fl, rtt_sample, now)
            goal = fl.spec.bytes_to_send
            if goal is not None and fl.bytes_acked >= goal:
                fl.completed_at = now
                pending -= 1
                return
            try_send(fl)

        def loss(pkt, _):
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
                fl.on_loss(fl, win, now)
            try_send(fl)

        def start(fl, _):
            fl.started = True
            if fl.udp:
                udp_send(fl)
            else:
                try_send(fl)

        samples = list(zip(self.queues, self.queue_len_trace,
                           self.queue_avg_trace, self.util_trace))

        def sample(_, __):
            self.sample_times.append(now)
            for q, lens, avgs, utils in samples:
                lens.append(len(q.pkts))
                avgs.append(q.avg if q.red is not None else float(len(q.pkts)))
                utils.append(min(100.0 * q.bits_interval / (capacity * dt), 100.0))
                q.bits_interval = 0
            for fl, trace in windows:
                trace.append(fl.cwnd + fl.dwnd if fl.started else 0.0)
            if now + dt <= duration + 1e-9:
                heappush(heap, (now + dt, tick(), sample, None, None))

        def spawn_short(_, __):
            nonlocal pending
            spec = FlowSpec(
                protocol="reno",
                access_rate=prof.access_rate,
                rtt_propagation=prof.rtt_propagation,
                start_time=now,
                bytes_to_send=prof.bytes_per_flow,
                route=prof.route,
            )
            fl = self._add_flow(spec, is_short=True)
            if spec.bytes_to_send is not None:
                pending += 1
            fl.started = True
            try_send(fl)
            gap = rng.expovariate(prof.rate_per_s)
            if now + gap < duration:
                heappush(heap, (now + gap, tick(), spawn_short, None, None))

        for spec in cfg.flows:
            fl = self._add_flow(spec)
            if spec.bytes_to_send is not None:
                pending += 1
            heappush(heap, (spec.start_time, tick(), start, fl, None))
        windows = [(self.flows[fid], trace) for fid, trace in self.window_trace.items()]
        heappush(heap, (0.0, tick(), sample, None, None))
        if prof is not None:
            heappush(heap, (rng.expovariate(prof.rate_per_s), tick(), spawn_short, None, None))

        to_completion = cfg.run_to_completion
        hard_stop = math.inf if to_completion else duration
        max_events = int(5e8)
        n = 0
        try:
            while heap:
                t, _, handler, a, b = heappop(heap)
                if t > hard_stop:
                    break
                if to_completion and pending == 0:
                    break
                now = t
                handler(a, b)
                n += 1
                if n > max_events:
                    raise ConfigError("event budget exceeded; runaway configuration")
        finally:
            # the handlers refer to one another and queued events refer to
            # them: emptying both frees the run's state on return, not at the
            # next full garbage collection
            heap.clear()
            del try_send, udp_send, arrive, service, ack, loss, start, sample, spawn_short
        self.now = now
        return self._collect()

    # -- metrics ------------------------------------------------------------
    def _collect(self) -> Metrics:
        cfg = self.cfg
        t0 = cfg.transient if cfg.transient is not None else 0.5 * cfg.duration
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
            # import the package and numpy again, at no gain. The parent
            # may hold idle BLAS threads when it forks; a forked child has
            # only the forking thread, and the simulator it runs is pure
            # Python that takes no lock those threads could have held.
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
                bytes_to_send: int | None = None, start_in_ca: bool = False,
                protocol: str = "compound", overload: float = 1.2,
                sample_interval: float = 0.1) -> SimConfig:
    """Scaled-down scenario for CI: a dumbbell with n_flows long-lived
    sources offering overload x capacity in aggregate."""
    rng = random.Random(seed ^ 0x5EED)
    access = overload * capacity / n_flows
    flows = tuple(
        FlowSpec(
            protocol=protocol,
            access_rate=access,
            rtt_propagation=rtt_s,
            start_time=rng.uniform(0.0, min(10.0, duration / 10.0)),
            bytes_to_send=bytes_to_send,
            start_in_ca=start_in_ca,
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
        sample_interval=sample_interval,
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
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected key = value")
        key, val = (s.strip() for s in line.split("=", 1))
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
            flows_kv.setdefault(idx, {})[parts[2]] = val
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

    policy_name = get("policy", str).lower()
    if policy_name == "red":
        policy = PacketRed(
            b_min=get("red.bmin", float),
            b_max=get("red.bmax", float),
            p_max=get("red.pmax", float),
            w_q=get("red.wq", float, 0.002),
        )
    elif policy_name == "threshold":
        policy = PacketThreshold(q_th=get("threshold.qth", int))
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
        topology=get("topology", str),
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


def format_scenario(cfg: SimConfig) -> str:
    lines = [
        f"topology = {cfg.topology}",
        f"capacity_mbps = {cfg.capacity / 1e6:g}",
        f"buffer_pkts = {cfg.buffer}",
        f"packet_bytes = {cfg.packet_size}",
        f"duration_s = {cfg.duration:g}",
        f"sample_interval_s = {cfg.sample_interval:g}",
        f"seed = {cfg.seed}",
    ]
    if isinstance(cfg.policy, PacketRed):
        lines += [
            "policy = red",
            f"red.bmin = {cfg.policy.b_min:g}",
            f"red.bmax = {cfg.policy.b_max:g}",
            f"red.pmax = {cfg.policy.p_max:g}",
            f"red.wq = {cfg.policy.w_q:g}",
        ]
    elif isinstance(cfg.policy, PacketThreshold):
        lines += ["policy = threshold", f"threshold.qth = {cfg.policy.q_th}"]
    else:
        lines += ["policy = droptail"]
    for i, f in enumerate(cfg.flows):
        lines.append(f"flow.{i}.protocol = {f.protocol}")
        lines.append(f"flow.{i}.access_mbps = {f.access_rate / 1e6:g}")
        lines.append(f"flow.{i}.rtt_ms = {f.rtt_propagation * 1e3:g}")
        lines.append(f"flow.{i}.start_s = {f.start_time:g}")
        if f.bytes_to_send is not None:
            lines.append(f"flow.{i}.bytes = {f.bytes_to_send}")
    return "\n".join(lines) + "\n"


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
