"""Reference code for the packet simulator, kept as test oracles.

- `compound_window_laws`, `red_admit_rule` and `limit_admit_rule` are the
  per-packet laws as stand-alone functions, one Python call per ack, loss or
  arrival: the Compound ack and loss laws, the RED EWMA-and-draw admit rule
  and the threshold / drop-tail limit.
- `OracleSimulator` is the event loop that called them, one heap for every
  line's head (ack lines among them) and every event made one at a time
  (services among them), and a send loop of its own (`try_send`) after each
  ack, loss and start. It computes each packet's access and service times
  where it uses them. `aqmlab.packetsim.Simulator` keeps the ack lines'
  heads and each queue's pending service on heaps of their own, computes a
  packet's link times once, and writes the same laws out inside its
  handlers with the same floating-point operations and random draws, so
  `run_oracle` must give the same `Metrics`, bit for bit, as
  `aqmlab.packetsim.run_simulation`. With `OracleSimulator.ties` set, the
  loop counts the exact time ties between the kinds of head, which are
  the ties the simulator's three-way head comparison must order.
"""

import heapq
import itertools
import math
import random
from collections import deque

from aqmlab.errors import ConfigError
from aqmlab.packetsim import (
    DropTail,
    FlowSpec,
    Metrics,
    SimConfig,
    Simulator,
    _Flow,
    _Queue,
)
from aqmlab.params import ProtocolSpec, RedParams, ThresholdParams
from aqmlab.protocols import red_drop_probability


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


class _OracleFlow(_Flow):
    """A flow that carries its protocol's (on_ack, on_loss) pair."""

    __slots__ = ("on_ack", "on_loss")

    def __init__(self, fid, spec: FlowSpec):
        super().__init__(fid, spec)
        self.on_ack, self.on_loss = _WINDOW_LAWS[spec.protocol]


class OracleSimulator(Simulator):
    """`Simulator` with the event loop that called the stand-alone laws: one
    heap holds each event line's head and every event made one at a time,
    services included, and acks, losses and starts end in `try_send`.

    `ties`, when set to a `collections.Counter` before `run`, counts the
    exact time ties the loop meets: before each event, one count per other
    pending head of the same time, under the sorted pair of the two kinds
    ("ack", "service", "first-hop", "next-hop", "loss", "sample", "start",
    "spawn"). Only line heads are on the heap, so two acks that tie are on
    two ack lines."""

    ties = None

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
            fl = _OracleFlow(len(flows), spec)
            route = spec.route
            table = hops.get(route)
            if table is None:
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

        kinds = {service: "service", ack: "ack", loss: "loss", sample: "sample",
                 start: "start", spawn_short: "spawn"}

        def kind(event):
            _, _, handler, _, line = event
            return kinds.get(handler) or ("next-hop" if line is hop_line else "first-hop")

        ties = self.ties
        to_completion = cfg.run_to_completion
        hard_stop = math.inf if to_completion else duration
        for _ in itertools.repeat(None, 500_000_001):
            if not heap:
                break
            t, _, handler, arg, line = heap[0]
            if t > hard_stop or (to_completion and pending == 0):
                break
            if ties is not None:
                for other in heap[1:]:
                    if other[0] == t:
                        ties[tuple(sorted((kind(heap[0]), kind(other))))] += 1
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
        self.now = now
        return self._collect()


def run_oracle(config: SimConfig) -> Metrics:
    """One run of `OracleSimulator`."""
    return OracleSimulator(config).run()
