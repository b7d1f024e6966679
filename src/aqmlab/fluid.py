"""Closed-loop fluid models: equilibria, a fixed-step method-of-steps RK4
integrator of the delay-differential systems, and oscillation metrics.

Three systems are covered, distinguished by how the drop probability is fed
back: through an averaged-queue state (3 states: w, q, p), through the
instantaneous queue (2 states: w, q), or through the window itself under a
drop-above-threshold policy (1 state: w).
"""

from __future__ import annotations

import math
import warnings
from array import array
from bisect import bisect_left
from contextlib import nullcontext
from dataclasses import dataclass
from enum import Enum
from functools import partial, reduce
from itertools import pairwise
from operator import add

from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    IntegrationError,
    InternalConsistencyError,
)
from .numerics import bisect
from .params import NetworkParams, ProtocolSpec, RedParams, ThresholdParams
from .protocols import (
    decrease_rate,
    increase_rate,
    threshold_drop_probability,
)
from .workers import map_in_workers, stream_to_worker

_W_FLOOR = 1e-9  # windows are clamped to a tiny positive value, not 0
MIN_STEPS_PER_DELAY = 200  # RK4 steps per delay; fewer is refused
MIN_WINDOW_SAMPLES = 8  # post-transient samples the oscillation metrics need
# an amplitude at or below this (or 1e-12 of the window's level) has no period
AMPLITUDE_FLOOR = 1e-9
# A stored step is at most three states, each a float64 in an array: 24 bytes.
# A run of more than 2**25 steps (33.5 M; 768 MiB of stored states) is refused.
MAX_STEPS = 2**25
# default run settings, which the CLI's options read: RK4 steps per delay,
# the history's scale of the equilibrium, and a sweep point's run in delays
STEPS_PER_DELAY = 500
HISTORY_SCALE = 1.1
SWEEP_HORIZON_DELAYS, SWEEP_TRANSIENT_DELAYS = 300.0, 200.0


class FluidSystemKind(Enum):
    WITH_AVERAGING = "with-averaging"
    NO_AVERAGING = "no-averaging"
    THRESHOLD = "threshold"

    def __init__(self, value: str) -> None:
        # the number of states; a plain attribute, since the stability code reads
        # it on every call and an Enum property read costs about 40 times as much
        self.dim = {"with-averaging": 3, "no-averaging": 2, "threshold": 1}[value]

    @property
    def columns(self) -> tuple[str, ...]:
        return ("w", "q", "p")[: self.dim]


class OperatingRegionWarning(UserWarning):
    """Equilibrium fell outside the affine band of the drop probability."""


@dataclass(frozen=True)
class Equilibrium:
    """Fixed point of one of the fluid systems.

    q_star is None for the threshold system (its queue is not a state).
    wk1_closed_form carries the approximate closed-form value of w*^(k-1)
    for the threshold system (it assumes 1 - p* ~ 1, so it is reported, not
    used).
    """

    kind: FluidSystemKind
    w_star: float
    p_star: float
    q_star: float | None = None
    residual: float = 0.0
    in_band: bool = True
    wk1_closed_form: float | None = None

    def state(self) -> tuple[float, ...]:
        return (self.w_star, self.q_star, self.p_star)[: self.kind.dim]


def _window_balance_residual(spec, w, p):
    """Normalized residual of i(w)(1-p) = d(w) p."""
    gain = increase_rate(spec, w) * (1.0 - p)
    loss = decrease_rate(spec, w) * p
    scale = abs(gain) + abs(loss)
    return abs(gain - loss) / scale if scale > 0 else 0.0


def _solve_red_equilibrium(spec, red, net):
    """Common fixed point of the averaged and instantaneous RED systems.

    Solves i(w)(1-p) = d(w) p with w = C*rtt/(1-p) as a bracketed root in p."""
    bdp = net.c_per_flow * net.rtt
    alpha, expo, beta = spec.alpha, spec.k - 1.0, spec.beta
    lo, hi = 1e-16, 1.0 - 1e-12
    # every window of the bracket is bdp/(1-p) >= bdp >= 0: all are > 0 or
    # none is, so the window check of the law runs once, on the first one
    w = bdp / (1.0 - lo)
    if not w > 0:
        raise DomainError(f"window must be > 0, got {w}")

    def g(p):
        w = bdp / (1.0 - p)
        return alpha * w**expo * (1.0 - p) - beta * w * p

    if g(lo) <= 0 or g(hi) >= 0:
        raise ConvergenceError("no drop-probability root in (0, 1)")
    p_star = bisect(g, lo, hi, rtol=1e-16)
    w_star = bdp / (1.0 - p_star)
    q_star = p_star / red.rho + red.b_min
    residual = max(
        _window_balance_residual(spec, w_star, p_star),
        abs(w_star * (1.0 - p_star) - bdp) / bdp,
    )
    in_band = red.b_min < q_star < red.b_max
    if not in_band:
        warnings.warn(
            f"equilibrium queue {q_star:.3g} pkts lies outside the affine band "
            f"({red.b_min:g}, {red.b_max:g}); linearized results are suspect",
            OperatingRegionWarning,
            stacklevel=3,
        )
    return w_star, q_star, p_star, residual, in_band


def equilibrium_with_averaging(
    spec: ProtocolSpec, red: RedParams, net: NetworkParams
) -> Equilibrium:
    w, q, p, res, in_band = _solve_red_equilibrium(spec, red, net)
    return Equilibrium(FluidSystemKind.WITH_AVERAGING, w, p, q, res, in_band)


def equilibrium_no_averaging(
    spec: ProtocolSpec, red: RedParams, net: NetworkParams
) -> Equilibrium:
    w, q, p, res, in_band = _solve_red_equilibrium(spec, red, net)
    return Equilibrium(FluidSystemKind.NO_AVERAGING, w, p, q, res, in_band)


def equilibrium_threshold(
    spec: ProtocolSpec, net: NetworkParams, th: ThresholdParams
) -> Equilibrium:
    """Fixed point of the threshold-policy system, i(w)(1-p(w)) = d(w) p(w)."""
    bdp = net.c_per_flow * net.rtt
    alpha, expo, beta, q_th = spec.alpha, spec.k - 1.0, spec.beta, th.q_th

    def g(w):
        r = w / bdp
        p = 1.0 if r >= 1.0 else r**q_th
        return alpha * w**expo * (1.0 - p) - beta * w * p

    lo = 1e-9 * bdp
    hi = bdp * (1.0 - 1e-14)  # rounds to bdp itself if bdp is subnormal
    # hi < bdp only where bdp > 0 is too large for lo to underflow: past this
    # guard every window of the bracket is > 0, and the law needs no check
    if not hi < bdp or g(lo) <= 0 or g(hi) >= 0:
        raise ConvergenceError("no window root in (0, C*rtt)")
    w_star = bisect(g, lo, hi, rtol=1e-16)
    p_star = threshold_drop_probability(w_star, net, th)
    residual = _window_balance_residual(spec, w_star, p_star)

    k = spec.k
    # in logarithms: bdp**q_th overflows for long delays and high q_th
    log_base = math.log(alpha / beta) + q_th * math.log(bdp)
    wk1_closed = math.exp(log_base * (k - 1.0) / (q_th + 2.0 - k))
    # The same rearrangement with (1 - p*) retained is exact algebra, so
    # it must agree with the root; this guards the solver.
    w_exact = math.exp((log_base + math.log1p(-p_star)) / (q_th + 2.0 - k))
    lhs = w_exact ** (k - 1.0)
    rhs = w_star ** (k - 1.0)
    if abs(lhs - rhs) > 1e-6 * abs(rhs):
        raise InternalConsistencyError(
            f"threshold equilibrium closed-form check failed: {lhs} vs {rhs}"
        )
    return Equilibrium(
        FluidSystemKind.THRESHOLD, w_star, p_star, None, residual, True, wk1_closed
    )


@dataclass
class Trajectory:
    """Uniformly sampled solution of one fluid system: one float64 array per
    state, in `kind.columns` order, sampled at t_j = j*step. `len` is the
    number of samples; the times are not stored but derived."""

    columns: list[array]
    kind: FluidSystemKind
    step: float

    def __len__(self) -> int:
        return len(self.columns[0])

    @property
    def times(self) -> array:
        """The sample times j*step as float64, built on each read."""
        h = self.step
        return array("d", (j * h for j in range(len(self))))

    def component(self, name: str) -> array:
        return self.columns[self.kind.columns.index(name)]

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            _write_csv(fh, self.kind, self.step, [self.columns])


def _write_csv(fh, kind, h, chunks):
    """Write to fh the CSV of a trajectory of step h given as successive
    chunks of its columns: t_j = j*h and the states, at 12 digits."""
    row = "%.12g" + ",%.12g" * kind.dim + "\n"
    fh.write("t," + ",".join(kind.columns) + "\n")
    start = 0
    for columns in chunks:
        times = (j * h for j in range(start, start + len(columns[0])))
        fh.writelines(row % r for r in zip(times, *columns))
        start += len(columns[0])


def _spool_csv(path, kind, h, chunks):
    """The writer of integrate_dde(csv_path=path): the CSV into a temporary
    file as the chunks arrive, copied into path once they end, that is once
    the run has succeeded."""
    import shutil
    import tempfile

    with tempfile.TemporaryFile("w+") as spool:
        _write_csv(spool, kind, h, chunks)
        spool.seek(0)
        with open(path, "w") as fh:
            shutil.copyfileobj(spool, fh)


# The three RK4 kernels below advance one system each by n_steps <= m steps,
# where m steps make one delay. They work on a window: cols holds one list of
# floats per state with the last m + 1 nodes, so cols[.][0] lies one delay
# before the newest node cols[.][m], and mids holds the Hermite midpoints of
# the last m intervals. done, the number of steps taken before the call,
# places a blowup in time. The system's constants are bound once per call,
# and each kernel writes its right-hand side out at every stage:
# - the window law kappa*(alpha*w^(k-1)*(1-p_d) - beta*w*p_d)*w_d/tau, with
#   the floating-point operations of increase_rate/decrease_rate but without
#   their argument checks; the windows are clamped at the floor as max()
#   would, and NaN passes on to the finiteness check;
# - the queue law kappa*((1-p)*w/tau - C), one-sided at an empty queue and at
#   a full buffer, which takes the stage window before the window law's
#   clamp;
# - the averaged-p relaxation, or the threshold feedback (w_d/(C*rtt))^q_th
#   capped at 1 from the bandwidth-delay product on.
# The delayed terms are computed once per step: those at the midpoint (dh,
# the clamped delayed window; ph, its drop probability; gh = 1 - ph) are
# shared by k2 and k3, those at the node m steps back (d1, p1, g1) by k4 and
# the new node's derivative, which is the next step's k1. In a stage, y is
# the window (x once clamped), z the queue and v the averaged p.
# Each step appends the new node and the cubic Hermite midpoint of the
# interval it closes. With theta = 1/2 the Hermite weights are exactly 1/2,
# h/8, 1/2 and -h/8, so a midpoint is 0.5*y0 + h/8*f0 + 0.5*y1 - h/8*f1,
# summed left to right. A call's first k1 comes from its newest node by the
# operations that gave the previous call's last kn, so a run split into calls
# has the bits of one call over every step.
# The equilibrium residuals above (_solve_red_equilibrium, equilibrium_threshold)
# write the window balance out the same way, with the constants bound once
# per solve and the window check made once where a window <= 0 can occur: a
# root takes 10 to 20 residuals, and two or three argument-checked calls in
# each would take about a third of the solve's time.
# test_red_residual_is_the_protocols_law and
# test_threshold_residual_is_the_protocols_law (tests/test_fluid.py) tie them
# to the protocols functions bit for bit.


def _blowup(steps: int, h: float) -> IntegrationError:
    t = steps * h
    return IntegrationError(f"non-finite state at t={t:.6g}", time=t)


def _rk4_threshold(spec, net, th, cols, mids, m, n_steps, h, done):
    (ws,) = cols
    (mws,) = mids
    kappa, tau, bdp, q_th = net.kappa, net.rtt, net.c_per_flow * net.rtt, th.q_th
    alpha, expo, beta = spec.alpha, spec.k - 1.0, spec.beta
    half, sixth, c1, c3 = 0.5 * h, h / 6.0, 0.125 * h, -0.125 * h
    floor = _W_FLOOR
    isfinite = math.isfinite
    d1 = ws[0]
    if d1 < floor:
        d1 = floor
    r = d1 / bdp
    p1 = 1.0 if r >= 1.0 else r**q_th
    g1 = 1.0 - p1
    x = ws[m]
    if x < floor:
        x = floor
    k1 = kappa * (alpha * x**expo * g1 - beta * x * p1) * d1 / tau
    for i in range(m, m + n_steps):
        j = i - m
        w = ws[i]
        dh = mws[j]
        if dh < floor:
            dh = floor
        r = dh / bdp
        ph = 1.0 if r >= 1.0 else r**q_th
        gh = 1.0 - ph
        x = w + half * k1
        if x < floor:
            x = floor
        k2 = kappa * (alpha * x**expo * gh - beta * x * ph) * dh / tau
        x = w + half * k2
        if x < floor:
            x = floor
        k3 = kappa * (alpha * x**expo * gh - beta * x * ph) * dh / tau
        d1 = ws[j + 1]
        if d1 < floor:
            d1 = floor
        r = d1 / bdp
        p1 = 1.0 if r >= 1.0 else r**q_th
        g1 = 1.0 - p1
        x = w + h * k3
        if x < floor:
            x = floor
        k4 = kappa * (alpha * x**expo * g1 - beta * x * p1) * d1 / tau
        wn = w + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        if wn < floor:
            wn = floor
        if not isfinite(wn):
            raise _blowup(done + j + 1, h)
        kn = kappa * (alpha * wn**expo * g1 - beta * wn * p1) * d1 / tau
        ws.append(wn)
        mws.append(0.5 * w + c1 * k1 + 0.5 * wn + c3 * kn)
        k1 = kn


def _rk4_no_averaging(spec, net, red, cols, mids, m, n_steps, h, done):
    ws, qs = cols
    mws, mqs = mids
    kappa, tau, cap, buf = net.kappa, net.rtt, net.c_per_flow, net.buffer
    alpha, expo, beta = spec.alpha, spec.k - 1.0, spec.beta
    rho, b_min = red.rho, red.b_min
    half, sixth, c1, c3 = 0.5 * h, h / 6.0, 0.125 * h, -0.125 * h
    floor = _W_FLOOR
    isfinite = math.isfinite
    d1 = ws[0]
    if d1 < floor:
        d1 = floor
    p1 = rho * (qs[0] - b_min)
    g1 = 1.0 - p1
    y, z = ws[m], qs[m]
    x = floor if y < floor else y
    k1w = kappa * (alpha * x**expo * g1 - beta * x * p1) * d1 / tau
    k1q = kappa * ((1.0 - rho * (z - b_min)) * y / tau - cap)
    if (z <= 0.0 and k1q < 0.0) or (buf is not None and z >= buf and k1q > 0.0):
        k1q = 0.0
    for i in range(m, m + n_steps):
        j = i - m
        w = ws[i]
        q = qs[i]
        dh = mws[j]
        if dh < floor:
            dh = floor
        ph = rho * (mqs[j] - b_min)
        gh = 1.0 - ph
        y, z = w + half * k1w, q + half * k1q
        x = floor if y < floor else y
        k2w = kappa * (alpha * x**expo * gh - beta * x * ph) * dh / tau
        k2q = kappa * ((1.0 - rho * (z - b_min)) * y / tau - cap)
        if (z <= 0.0 and k2q < 0.0) or (buf is not None and z >= buf and k2q > 0.0):
            k2q = 0.0
        y, z = w + half * k2w, q + half * k2q
        x = floor if y < floor else y
        k3w = kappa * (alpha * x**expo * gh - beta * x * ph) * dh / tau
        k3q = kappa * ((1.0 - rho * (z - b_min)) * y / tau - cap)
        if (z <= 0.0 and k3q < 0.0) or (buf is not None and z >= buf and k3q > 0.0):
            k3q = 0.0
        d1 = ws[j + 1]
        if d1 < floor:
            d1 = floor
        p1 = rho * (qs[j + 1] - b_min)
        g1 = 1.0 - p1
        y, z = w + h * k3w, q + h * k3q
        x = floor if y < floor else y
        k4w = kappa * (alpha * x**expo * g1 - beta * x * p1) * d1 / tau
        k4q = kappa * ((1.0 - rho * (z - b_min)) * y / tau - cap)
        if (z <= 0.0 and k4q < 0.0) or (buf is not None and z >= buf and k4q > 0.0):
            k4q = 0.0
        wn = w + sixth * (k1w + 2.0 * (k2w + k3w) + k4w)
        qn = q + sixth * (k1q + 2.0 * (k2q + k3q) + k4q)
        if wn < floor:
            wn = floor
        if qn < 0.0:
            qn = 0.0
        if buf is not None and qn > buf:
            qn = buf
        if not (isfinite(wn) and isfinite(qn)):
            raise _blowup(done + j + 1, h)
        knw = kappa * (alpha * wn**expo * g1 - beta * wn * p1) * d1 / tau
        knq = kappa * ((1.0 - rho * (qn - b_min)) * wn / tau - cap)
        if (qn <= 0.0 and knq < 0.0) or (buf is not None and qn >= buf and knq > 0.0):
            knq = 0.0
        ws.append(wn)
        qs.append(qn)
        mws.append(0.5 * w + c1 * k1w + 0.5 * wn + c3 * knw)
        mqs.append(0.5 * q + c1 * k1q + 0.5 * qn + c3 * knq)
        k1w, k1q = knw, knq


def _rk4_with_averaging(spec, net, red, cols, mids, m, n_steps, h, done):
    ws, qs, ps = cols
    mws, _, mps = mids  # the delayed queue is never read
    kappa, tau, cap, buf = net.kappa, net.rtt, net.c_per_flow, net.buffer
    alpha, expo, beta = spec.alpha, spec.k - 1.0, spec.beta
    relax = -kappa * (red.gamma * cap)
    rho = red.rho
    rho_b_min = rho * red.b_min
    half, sixth, c1, c3 = 0.5 * h, h / 6.0, 0.125 * h, -0.125 * h
    floor = _W_FLOOR
    isfinite = math.isfinite
    d1 = ws[0]
    if d1 < floor:
        d1 = floor
    p1 = ps[0]
    g1 = 1.0 - p1
    y, z, v = ws[m], qs[m], ps[m]
    x = floor if y < floor else y
    k1w = kappa * (alpha * x**expo * g1 - beta * x * p1) * d1 / tau
    k1q = kappa * ((1.0 - v) * y / tau - cap)
    if (z <= 0.0 and k1q < 0.0) or (buf is not None and z >= buf and k1q > 0.0):
        k1q = 0.0
    k1p = relax * (v + rho_b_min - rho * z)
    for i in range(m, m + n_steps):
        j = i - m
        w = ws[i]
        q = qs[i]
        p = ps[i]
        dh = mws[j]
        if dh < floor:
            dh = floor
        ph = mps[j]
        gh = 1.0 - ph
        y, z, v = w + half * k1w, q + half * k1q, p + half * k1p
        x = floor if y < floor else y
        k2w = kappa * (alpha * x**expo * gh - beta * x * ph) * dh / tau
        k2q = kappa * ((1.0 - v) * y / tau - cap)
        if (z <= 0.0 and k2q < 0.0) or (buf is not None and z >= buf and k2q > 0.0):
            k2q = 0.0
        k2p = relax * (v + rho_b_min - rho * z)
        y, z, v = w + half * k2w, q + half * k2q, p + half * k2p
        x = floor if y < floor else y
        k3w = kappa * (alpha * x**expo * gh - beta * x * ph) * dh / tau
        k3q = kappa * ((1.0 - v) * y / tau - cap)
        if (z <= 0.0 and k3q < 0.0) or (buf is not None and z >= buf and k3q > 0.0):
            k3q = 0.0
        k3p = relax * (v + rho_b_min - rho * z)
        d1 = ws[j + 1]
        if d1 < floor:
            d1 = floor
        p1 = ps[j + 1]
        g1 = 1.0 - p1
        y, z, v = w + h * k3w, q + h * k3q, p + h * k3p
        x = floor if y < floor else y
        k4w = kappa * (alpha * x**expo * g1 - beta * x * p1) * d1 / tau
        k4q = kappa * ((1.0 - v) * y / tau - cap)
        if (z <= 0.0 and k4q < 0.0) or (buf is not None and z >= buf and k4q > 0.0):
            k4q = 0.0
        k4p = relax * (v + rho_b_min - rho * z)
        wn = w + sixth * (k1w + 2.0 * (k2w + k3w) + k4w)
        qn = q + sixth * (k1q + 2.0 * (k2q + k3q) + k4q)
        pn = p + sixth * (k1p + 2.0 * (k2p + k3p) + k4p)
        if wn < floor:
            wn = floor
        if qn < 0.0:
            qn = 0.0
        if buf is not None and qn > buf:
            qn = buf
        if pn < 0.0:
            pn = 0.0
        if not (isfinite(wn) and isfinite(qn) and isfinite(pn)):
            raise _blowup(done + j + 1, h)
        knw = kappa * (alpha * wn**expo * g1 - beta * wn * p1) * d1 / tau
        knq = kappa * ((1.0 - pn) * wn / tau - cap)
        if (qn <= 0.0 and knq < 0.0) or (buf is not None and qn >= buf and knq > 0.0):
            knq = 0.0
        knp = relax * (pn + rho_b_min - rho * qn)
        ws.append(wn)
        qs.append(qn)
        ps.append(pn)
        mws.append(0.5 * w + c1 * k1w + 0.5 * wn + c3 * knw)
        mps.append(0.5 * p + c1 * k1p + 0.5 * pn + c3 * knp)
        k1w, k1q, k1p = knw, knq, knp


_KERNELS = {
    FluidSystemKind.THRESHOLD: _rk4_threshold,
    FluidSystemKind.NO_AVERAGING: _rk4_no_averaging,
    FluidSystemKind.WITH_AVERAGING: _rk4_with_averaging,
}


def integrate_dde(
    kind: FluidSystemKind,
    spec: ProtocolSpec,
    net: NetworkParams,
    red: RedParams | None = None,
    th: ThresholdParams | None = None,
    *,
    initial_history,
    horizon: float,
    steps_per_delay: int = STEPS_PER_DELAY,
    delay: float | None = None,
    csv_path=None,
) -> Trajectory:
    """Integrate one system by the method of steps with classical RK4.

    The step is delay/steps_per_delay so the delay is a whole number of
    steps; delayed values at half-steps come from cubic Hermite interpolation
    of the stored solution. States are clamped at 0 from below (the window at
    a tiny positive floor) and the queue at the buffer from above.

    initial_history is a constant state tuple or a callable t -> state on
    [-delay, 0]. delay defaults to net.rtt; it is exposed separately so the
    rate-multiplier/time-rescaling equivalence can be verified. A run of
    more than MAX_STEPS steps is refused before the first step.

    The kernel advances one delay per call on a window of the last delay's
    nodes and midpoints; the nodes it finishes are packed into float64
    arrays, so a run holds 8 bytes per state and step. The sample times are
    j*h exactly, so the trajectory derives them rather than storing them.

    With csv_path, the trajectory is also written there as by `to_csv`, the
    file opened only once the run has succeeded; where `stream_to_worker`
    gives a writer, it formats each delay's nodes while the kernel runs on.
    """
    if steps_per_delay < MIN_STEPS_PER_DELAY:
        raise DomainError(f"steps_per_delay must be at least {MIN_STEPS_PER_DELAY}")
    if not (math.isfinite(horizon) and horizon > 0):
        raise DomainError(f"horizon must be positive and finite, got {horizon}")
    tau = net.rtt if delay is None else delay
    m = steps_per_delay
    h, steps = _grid(horizon, tau, m)
    if steps > MAX_STEPS:
        raise ConfigError(f"a run of {steps:.4g} steps exceeds the integrator's budget "
                          f"of {MAX_STEPS} steps (768 MiB of stored states)")
    n_steps = int(math.ceil(steps))
    dim = kind.dim
    params, needs = (th, "ThresholdParams") if dim == 1 else (red, "RedParams")
    if params is None:
        raise DomainError(f"{kind.value} system needs {needs}")

    if callable(initial_history):
        hist = initial_history
    else:
        const = tuple(float(v) for v in initial_history)
        if len(const) != dim:
            raise DomainError(f"history has dim {len(const)}, system needs {dim}")
        hist = lambda t: const  # noqa: E731

    ys = [tuple(float(v) for v in hist(-tau + j * h)) for j in range(m + 1)]
    # one-sided history derivatives, for interpolation left of t=0; from
    # t=0 on, the kernels take node derivatives from the system's own
    # right-hand side, so t=0 has a left and a right derivative
    eps = h * 1e-3
    fs = []
    for j in range(m + 1):
        t = -tau + j * h
        a = hist(max(t - eps, -tau))
        b = hist(min(t + eps, 0.0))
        dt = min(t + eps, 0.0) - max(t - eps, -tau)
        fs.append(
            tuple((bv - av) / dt if dt > 0 else 0.0 for av, bv in zip(a, b))
        )
    cols = [list(c) for c in zip(*ys)]
    # Hermite midpoints of the history intervals
    c1, c3 = 0.125 * h, -0.125 * h
    mids = [
        [0.5 * y[j] + c1 * d[j] + 0.5 * y[j + 1] + c3 * d[j + 1] for j in range(m)]
        for y, d in zip(cols, zip(*fs))
    ]
    kernel = _KERNELS[kind]
    out = [array("d", c[m:]) for c in cols]  # the node at t = 0
    sent = 0
    with nullcontext() if csv_path is None else stream_to_worker(
            partial(_spool_csv, csv_path, kind, h)) as send:
        for done in range(0, n_steps, m):
            n = min(m, n_steps - done)
            kernel(spec, net, params, cols, mids, m, n, h, done)
            for a, c in zip(out, cols):
                a.fromlist(c[m + 1:])
                del c[:n]
            for c in mids:
                del c[:n]
            if send:
                send([a[sent:] for a in out])
                sent = len(out[0])
    traj = Trajectory(out, kind, h)
    if csv_path is not None and send is None:
        traj.to_csv(csv_path)
    return traj


def _grid(horizon, delay, steps_per_delay):
    """(h, steps) of a run: the step delay / steps_per_delay, and the horizon
    in steps, less a guard so that rounding past a whole step adds none."""
    h = delay / steps_per_delay
    return h, horizon / h - 1e-12


def post_transient_samples(horizon, transient_cut, delay, steps_per_delay):
    """How many nodes j*h of integrate_dde's grid oscillation_metrics keeps
    at or after transient_cut; None for a run past MAX_STEPS, which
    integrate_dde refuses."""
    h, steps = _grid(horizon, delay, steps_per_delay)
    if steps > MAX_STEPS:
        return None
    nodes = range(math.ceil(steps) + 1)
    return len(nodes) - bisect_left(nodes, transient_cut, key=lambda j: j * h)


def default_history(eq: Equilibrium, scale: float = HISTORY_SCALE):
    """Constant history at scale * equilibrium (small perturbation)."""
    return tuple(scale * v for v in eq.state())


@dataclass(frozen=True)
class OscillationMetrics:
    minimum: float
    maximum: float
    amplitude: float
    period: float | None


def oscillation_metrics(traj: Trajectory, transient_cut: float) -> OscillationMetrics:
    """Peak-to-peak amplitude and period estimate of the window after
    discarding a transient.

    The period is the mean spacing of upward crossings of the post-transient
    mean; it is None when the signal is (numerically) constant or crosses
    fewer than twice.
    """
    h = traj.step
    n = len(traj)
    start = bisect_left(range(n), transient_cut, key=lambda j: j * h)
    if n - start < MIN_WINDOW_SAMPLES or math.isnan(transient_cut):
        raise DomainError("post-transient window too short")
    x = traj.component("w")[start:]
    lo = min(x)
    hi = max(x)
    amplitude = hi - lo
    period = None
    if amplitude > max(AMPLITUDE_FLOOR, 1e-12 * max(abs(hi), abs(lo))):
        mean = _mean(x)
        up = [i for i, (a, b) in enumerate(pairwise(x)) if a < mean <= b]
        if len(up) >= 2:
            # linear interpolation of each crossing instant between the
            # sample times (start + i)*h and (start + i + 1)*h
            crossings = [
                (start + i) * h + (mean - x[i]) / ((x[i + 1] - mean) - (x[i] - mean))
                * ((start + i + 1) * h - (start + i) * h)
                for i in up
            ]
            period = _mean([b - a for a, b in pairwise(crossings)])
    return OscillationMetrics(lo, hi, amplitude, period)


def _mean(x: list[float]) -> float:
    """Mean of x by pairwise summation, the order the recorded oscillation
    metrics were summed in; near-constant signals need their bits, as a mean
    one ulp off moves the period by ~1e-6. (math.fsum, statistics.fmean and,
    from Python 3.12 on, sum() round differently.)"""

    def pairwise_sum(lo: int, n: int) -> float:
        if n < 8:
            return reduce(add, x[lo:lo + n], 0.0)
        if n <= 128:  # eight strided accumulators, a tree, then the rest
            end = lo + n - n % 8
            r = [reduce(add, x[lo + j:end:8]) for j in range(8)]
            res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
            return reduce(add, x[end:lo + n], res)
        half = n // 2
        half -= half % 8
        return pairwise_sum(lo, half) + pairwise_sum(lo + half, n - half)

    return pairwise_sum(0, len(x)) / len(x)


def _sweep_point(th, spec, net, horizon_delays, transient_delays, steps_per_delay):
    # one bifurcation point; a worker sends back only this small row, never
    # the trajectory
    eq = equilibrium_threshold(spec, net, th)
    traj = integrate_dde(
        FluidSystemKind.THRESHOLD,
        spec,
        net,
        th=th,
        initial_history=default_history(eq),
        horizon=horizon_delays * net.rtt,
        steps_per_delay=steps_per_delay,
    )
    return th.q_th, eq, oscillation_metrics(traj, transient_delays * net.rtt)


def threshold_bifurcation_sweep(
    spec: ProtocolSpec,
    net: NetworkParams,
    q_th_values,
    *,
    horizon_delays: float = SWEEP_HORIZON_DELAYS,
    transient_delays: float = SWEEP_TRANSIENT_DELAYS,
    steps_per_delay: int = MIN_STEPS_PER_DELAY,  # a sweep runs at the floor
):
    """Amplitude of the window oscillation versus the drop threshold.

    Returns a list of (q_th, Equilibrium, OscillationMetrics), suitable for a
    bifurcation diagram, ordered by the input sequence. Every q_th is checked
    before the first integration. The points are independent and are spread
    over worker processes by `workers.map_in_workers`, each bit-identical to
    a run in this process.
    """
    points = [ThresholdParams(q_th=float(q_th)) for q_th in q_th_values]
    return map_in_workers(
        partial(_sweep_point, spec=spec, net=net, horizon_delays=horizon_delays,
                transient_delays=transient_delays, steps_per_delay=steps_per_delay),
        points,
    )
