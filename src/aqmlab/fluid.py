"""Closed-loop fluid models: equilibria, delay-differential right-hand sides,
a fixed-step method-of-steps integrator, and oscillation metrics.

Three systems are covered, distinguished by how the drop probability is fed
back: through an averaged-queue state (3 states: w, q, p), through the
instantaneous queue (2 states: w, q), or through the window itself under a
drop-above-threshold policy (1 state: w).
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from functools import reduce
from itertools import pairwise
from operator import add

from .errors import ConvergenceError, DomainError, IntegrationError, InternalConsistencyError
from .numerics import bisect, hermite_eval
from .params import NetworkParams, ProtocolSpec, RedParams, ThresholdParams
from .protocols import (
    decrease_rate,
    increase_rate,
    threshold_drop_probability,
)

_W_FLOOR = 1e-9  # windows are clamped to a tiny positive value, not 0
MIN_STEPS_PER_DELAY = 200  # RK4 steps per delay; fewer is refused


class FluidSystemKind(Enum):
    WITH_AVERAGING = "with-averaging"
    NO_AVERAGING = "no-averaging"
    THRESHOLD = "threshold"

    @property
    def dim(self) -> int:
        return {"with-averaging": 3, "no-averaging": 2, "threshold": 1}[self.value]

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
        if self.kind is FluidSystemKind.WITH_AVERAGING:
            return (self.w_star, self.q_star, self.p_star)
        if self.kind is FluidSystemKind.NO_AVERAGING:
            return (self.w_star, self.q_star)
        return (self.w_star,)


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

    def g(p):
        w = bdp / (1.0 - p)
        return increase_rate(spec, w) * (1.0 - p) - decrease_rate(spec, w) * p

    lo, hi = 1e-16, 1.0 - 1e-12
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

    def g(w):
        p = threshold_drop_probability(w, net, th)
        return increase_rate(spec, w) * (1.0 - p) - decrease_rate(spec, w) * p

    lo = 1e-9 * bdp
    hi = bdp * (1.0 - 1e-14)
    if g(lo) <= 0 or g(hi) >= 0:
        raise ConvergenceError("no window root in (0, C*rtt)")
    w_star = bisect(g, lo, hi, rtol=1e-16)
    p_star = threshold_drop_probability(w_star, net, th)
    residual = _window_balance_residual(spec, w_star, p_star)

    alpha, k, beta = spec.alpha, spec.k, spec.beta
    # in logarithms: bdp**q_th overflows for long delays and high q_th
    log_base = math.log(alpha / beta) + th.q_th * math.log(bdp)
    wk1_closed = math.exp(log_base * (k - 1.0) / (th.q_th + 2.0 - k))
    # The same rearrangement with (1 - p*) retained is exact algebra, so
    # it must agree with the root; this guards the solver.
    w_exact = math.exp((log_base + math.log1p(-p_star)) / (th.q_th + 2.0 - k))
    lhs = w_exact ** (k - 1.0)
    rhs = w_star ** (k - 1.0)
    if abs(lhs - rhs) > 1e-6 * abs(rhs):
        raise InternalConsistencyError(
            f"threshold equilibrium closed-form check failed: {lhs} vs {rhs}"
        )
    return Equilibrium(
        FluidSystemKind.THRESHOLD, w_star, p_star, None, residual, True, wk1_closed
    )


def _window_rate(spec: ProtocolSpec, net: NetworkParams):
    """(w, w_d, p_d) -> dw/dt, the window equation of all three systems.

    The law is written out as alpha*w^(k-1) and beta*w, the same
    floating-point operations that increase_rate/decrease_rate perform,
    without their per-call argument checks. The comparisons below clamp the
    windows at the floor as max() would, and let NaN through to the
    finiteness check.
    """
    kappa = net.kappa
    tau = net.rtt
    floor = _W_FLOOR
    alpha, k, beta = spec.alpha, spec.k, spec.beta
    expo = k - 1.0

    def rate(w, w_d, p_d):
        if w < floor:
            w = floor
        if w_d < floor:
            w_d = floor
        return kappa * (alpha * w**expo * (1.0 - p_d) - beta * w * p_d) * w_d / tau

    return rate


def _queue_rate(net: NetworkParams):
    """(q, w, p) -> dq/dt, one-sided at an empty queue and at a full buffer."""
    kappa = net.kappa
    tau = net.rtt
    cap = net.c_per_flow
    buf = net.buffer

    def rate(q, w, p):
        r = kappa * ((1.0 - p) * w / tau - cap)
        if q <= 0.0 and r < 0.0:
            return 0.0
        if buf is not None and q >= buf and r > 0.0:
            return 0.0
        return r

    return rate


def _with_averaging_rhs(spec, net, red):
    """(w, q, p, w_d, p_d) -> (dw, dq, dp) of the averaged-queue system."""
    window = _window_rate(spec, net)
    queue = _queue_rate(net)
    relax = -net.kappa * (red.gamma * net.c_per_flow)
    rho = red.rho
    rho_b_min = rho * red.b_min

    def f(w, q, p, w_d, p_d):
        return (
            window(w, w_d, p_d),
            queue(q, w, p),
            relax * (p + rho_b_min - rho * q),
        )

    return f


def _no_averaging_rhs(spec, net, red):
    """(w, q, w_d, q_d) -> (dw, dq) of the instantaneous-queue system."""
    window = _window_rate(spec, net)
    queue = _queue_rate(net)
    rho = red.rho
    b_min = red.b_min

    def f(w, q, w_d, q_d):
        return (
            window(w, w_d, rho * (q_d - b_min)),
            queue(q, w, rho * (q - b_min)),
        )

    return f


def _threshold_rhs(spec, net, th):
    """(w, w_d) -> dw of the threshold system.

    The drop probability is threshold_drop_probability written out:
    (w_d / (C*rtt))^q_th, capped at 1 from the bandwidth-delay product on.
    """
    window = _window_rate(spec, net)
    bdp = net.c_per_flow * net.rtt
    q_th = th.q_th
    floor = _W_FLOOR

    def f(w, w_d):
        if w_d < floor:
            w_d = floor
        ratio = w_d / bdp
        return window(w, w_d, 1.0 if ratio >= 1.0 else ratio**q_th)

    return f


def _system_rhs(kind, spec, net, red, th):
    if kind is FluidSystemKind.THRESHOLD:
        if th is None:
            raise DomainError("threshold system needs ThresholdParams")
        return _threshold_rhs(spec, net, th)
    if red is None:
        raise DomainError(f"{kind.value} system needs RedParams")
    if kind is FluidSystemKind.NO_AVERAGING:
        return _no_averaging_rhs(spec, net, red)
    return _with_averaging_rhs(spec, net, red)


def rhs(
    kind: FluidSystemKind,
    state_now,
    state_delayed,
    spec: ProtocolSpec,
    net: NetworkParams,
    red: RedParams | None = None,
    th: ThresholdParams | None = None,
):
    """One-off evaluation of the system right-hand side: one derivative per
    state, from the same equations the integrator steps."""
    f = _system_rhs(kind, spec, net, red, th)
    if kind is FluidSystemKind.THRESHOLD:
        return (f(state_now[0], state_delayed[0]),)
    if kind is FluidSystemKind.NO_AVERAGING:
        return f(*state_now, *state_delayed)
    return f(*state_now, state_delayed[0], state_delayed[2])


@dataclass
class Trajectory:
    """Uniformly sampled solution of one fluid system: the sample times and
    one list of floats per state, in `kind.columns` order."""

    times: list[float]
    columns: list[list[float]]
    kind: FluidSystemKind
    step: float
    meta: dict = field(default_factory=dict)

    def component(self, name: str) -> list[float]:
        return self.columns[self.kind.columns.index(name)]

    def to_csv(self, path) -> None:
        row = "%.12g" + ",%.12g" * self.kind.dim + "\n"
        with open(path, "w") as fh:
            fh.write("t," + ",".join(self.kind.columns) + "\n")
            fh.writelines(row % r for r in zip(self.times, *self.columns))


# The three RK4 kernels below advance one system each, with every state
# component in its own list of floats. Each step reads the delayed state at
# its midpoint from the midpoint list and at its end from the node m steps
# back, then appends the new node and the cubic Hermite midpoint of the
# interval it closes. With theta = 1/2 the Hermite weights are exactly
# 1/2, h/8, 1/2 and -h/8 (numerics.hermite_eval computes the same values), so
# a midpoint is 0.5*y0 + h/8*f0 + 0.5*y1 - h/8*f1, summed left to right.


def _blowup(steps: int, h: float) -> IntegrationError:
    t = steps * h
    return IntegrationError(f"non-finite state at t={t:.6g}", time=t)


def _rk4_threshold(f, cols, mids, m, n_steps, h, buf):
    (ws,) = cols
    (mws,) = mids
    half, sixth, c1, c3 = 0.5 * h, h / 6.0, 0.125 * h, -0.125 * h
    floor = _W_FLOOR
    isfinite = math.isfinite
    k1 = f(ws[m], ws[0])
    for i in range(m, m + n_steps):
        j = i - m
        w = ws[i]
        wh = mws[j]
        w1 = ws[j + 1]
        k2 = f(w + half * k1, wh)
        k3 = f(w + half * k2, wh)
        k4 = f(w + h * k3, w1)
        wn = w + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        if wn < floor:
            wn = floor
        if not isfinite(wn):
            raise _blowup(j + 1, h)
        kn = f(wn, w1)
        ws.append(wn)
        mws.append(0.5 * w + c1 * k1 + 0.5 * wn + c3 * kn)
        k1 = kn


def _rk4_no_averaging(f, cols, mids, m, n_steps, h, buf):
    ws, qs = cols
    mws, mqs = mids
    half, sixth, c1, c3 = 0.5 * h, h / 6.0, 0.125 * h, -0.125 * h
    floor = _W_FLOOR
    isfinite = math.isfinite
    k1w, k1q = f(ws[m], qs[m], ws[0], qs[0])
    for i in range(m, m + n_steps):
        j = i - m
        w = ws[i]
        q = qs[i]
        wh = mws[j]
        qh = mqs[j]
        w1 = ws[j + 1]
        q1 = qs[j + 1]
        k2w, k2q = f(w + half * k1w, q + half * k1q, wh, qh)
        k3w, k3q = f(w + half * k2w, q + half * k2q, wh, qh)
        k4w, k4q = f(w + h * k3w, q + h * k3q, w1, q1)
        wn = w + sixth * (k1w + 2.0 * (k2w + k3w) + k4w)
        qn = q + sixth * (k1q + 2.0 * (k2q + k3q) + k4q)
        if wn < floor:
            wn = floor
        if qn < 0.0:
            qn = 0.0
        if buf is not None and qn > buf:
            qn = buf
        if not (isfinite(wn) and isfinite(qn)):
            raise _blowup(j + 1, h)
        knw, knq = f(wn, qn, w1, q1)
        ws.append(wn)
        qs.append(qn)
        mws.append(0.5 * w + c1 * k1w + 0.5 * wn + c3 * knw)
        mqs.append(0.5 * q + c1 * k1q + 0.5 * qn + c3 * knq)
        k1w, k1q = knw, knq


def _rk4_with_averaging(f, cols, mids, m, n_steps, h, buf):
    ws, qs, ps = cols
    mws, _, mps = mids  # the delayed queue is never read
    half, sixth, c1, c3 = 0.5 * h, h / 6.0, 0.125 * h, -0.125 * h
    floor = _W_FLOOR
    isfinite = math.isfinite
    k1w, k1q, k1p = f(ws[m], qs[m], ps[m], ws[0], ps[0])
    for i in range(m, m + n_steps):
        j = i - m
        w = ws[i]
        q = qs[i]
        p = ps[i]
        wh = mws[j]
        ph = mps[j]
        w1 = ws[j + 1]
        p1 = ps[j + 1]
        k2w, k2q, k2p = f(w + half * k1w, q + half * k1q, p + half * k1p, wh, ph)
        k3w, k3q, k3p = f(w + half * k2w, q + half * k2q, p + half * k2p, wh, ph)
        k4w, k4q, k4p = f(w + h * k3w, q + h * k3q, p + h * k3p, w1, p1)
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
            raise _blowup(j + 1, h)
        knw, knq, knp = f(wn, qn, pn, w1, p1)
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
    steps_per_delay: int = 500,
    delay: float | None = None,
) -> Trajectory:
    """Integrate one system by the method of steps with classical RK4.

    The step is delay/steps_per_delay so the delay is a whole number of
    steps; delayed values at half-steps come from cubic Hermite interpolation
    of the stored solution. States are clamped at 0 from below (the window at
    a tiny positive floor) and the queue at the buffer from above.

    initial_history is a constant state tuple or a callable t -> state on
    [-delay, 0]. delay defaults to net.rtt; it is exposed separately so the
    rate-multiplier/time-rescaling equivalence can be verified.
    """
    if steps_per_delay < MIN_STEPS_PER_DELAY:
        raise DomainError(f"steps_per_delay must be at least {MIN_STEPS_PER_DELAY}")
    if not (math.isfinite(horizon) and horizon > 0):
        raise DomainError(f"horizon must be positive and finite, got {horizon}")
    tau = net.rtt if delay is None else delay
    m = steps_per_delay
    h = tau / m
    n_steps = int(math.ceil(horizon / h - 1e-12))
    dim = kind.dim
    f = _system_rhs(kind, spec, net, red, th)

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
    _KERNELS[kind](f, cols, mids, m, n_steps, h, net.buffer)

    times = [j * h for j in range(n_steps + 1)]
    meta = {
        "kind": kind.value,
        "steps_per_delay": m,
        "delay": tau,
        "kappa": net.kappa,
        "rtt": net.rtt,
        "c_per_flow": net.c_per_flow,
    }
    return Trajectory(times, [c[m:] for c in cols], kind, h, meta)


def default_history(eq: Equilibrium, scale: float = 1.1):
    """Constant history at scale * equilibrium (small perturbation)."""
    return tuple(scale * v for v in eq.state())


class History:
    """Uniform-grid state samples over one delay window with the cubic
    Hermite interpolation rule; callable on [-window, 0].

    Node derivatives may be supplied; otherwise they are estimated by
    central differences of the samples, which keeps the interpolant within
    O(h^3) of the underlying solution.
    """

    def __init__(self, step: float, values, derivatives=None):
        self.step = float(step)
        self.values = [tuple(float(x) for x in v) for v in values]
        if len(self.values) < 2:
            raise DomainError("a history needs at least two samples")
        if derivatives is not None:
            self.derivs = [tuple(float(x) for x in d) for d in derivatives]
            if len(self.derivs) != len(self.values):
                raise DomainError("derivative count must match sample count")
        else:
            h = self.step
            vs = self.values
            n = len(vs)
            self.derivs = []
            for j in range(n):
                lo = vs[max(j - 1, 0)]
                hi = vs[min(j + 1, n - 1)]
                dt = (min(j + 1, n - 1) - max(j - 1, 0)) * h
                self.derivs.append(
                    tuple((b - a) / dt if dt > 0 else 0.0 for a, b in zip(lo, hi))
                )
        self.window = self.step * (len(self.values) - 1)

    @classmethod
    def from_trajectory(cls, traj: Trajectory, window: float) -> "History":
        """The most recent delay window of a computed trajectory."""
        n = int(round(window / traj.step))
        if n < 1 or n >= len(traj.times):
            raise DomainError("trajectory does not span the requested window")
        return cls(traj.step, zip(*(c[-(n + 1):] for c in traj.columns)))

    def __call__(self, t: float):
        if t > 1e-12 or t < -self.window - 1e-12:
            raise DomainError(f"history queried outside [-{self.window}, 0]")
        pos = (t + self.window) / self.step
        j = min(int(pos), len(self.values) - 2)
        theta = min(max(pos - j, 0.0), 1.0)
        if theta == 0.0:
            return self.values[j]
        return hermite_eval(
            theta, self.values[j], self.values[j + 1],
            self.derivs[j], self.derivs[j + 1], self.step,
        )


@dataclass(frozen=True)
class OscillationMetrics:
    minimum: float
    maximum: float
    amplitude: float
    period: float | None


def oscillation_metrics(
    traj: Trajectory,
    transient_cut: float,
    component: str = "w",
    amplitude_floor: float = 1e-9,
) -> OscillationMetrics:
    """Peak-to-peak amplitude and period estimate after discarding a transient.

    The period is the mean spacing of upward crossings of the post-transient
    mean; it is None when the signal is (numerically) constant or crosses
    fewer than twice.
    """
    start = bisect_left(traj.times, transient_cut)
    if len(traj.times) - start < 8 or math.isnan(transient_cut):
        raise DomainError("post-transient window too short")
    x = traj.component(component)[start:]
    t = traj.times[start:]
    lo = min(x)
    hi = max(x)
    amplitude = hi - lo
    period = None
    if amplitude > max(amplitude_floor, 1e-12 * max(abs(hi), abs(lo))):
        mean = _mean(x)
        up = [i for i, (a, b) in enumerate(pairwise(x)) if a < mean <= b]
        if len(up) >= 2:
            # linear interpolation of each crossing instant
            crossings = [
                t[i] + (mean - x[i]) / ((x[i + 1] - mean) - (x[i] - mean)) * (t[i + 1] - t[i])
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


def threshold_bifurcation_sweep(
    spec: ProtocolSpec,
    net: NetworkParams,
    q_th_values,
    *,
    horizon_delays: float = 300.0,
    transient_delays: float = 200.0,
    steps_per_delay: int = 200,
    perturbation: float = 1.1,
):
    """Amplitude of the window oscillation versus the drop threshold.

    Returns a list of (q_th, Equilibrium, OscillationMetrics), suitable for a
    bifurcation diagram. Sweep points are independent; results are ordered by
    the input sequence.
    """
    out = []
    for q_th in q_th_values:
        th = ThresholdParams(q_th=float(q_th))
        eq = equilibrium_threshold(spec, net, th)
        traj = integrate_dde(
            FluidSystemKind.THRESHOLD,
            spec,
            net,
            th=th,
            initial_history=default_history(eq, perturbation),
            horizon=horizon_delays * net.rtt,
            steps_per_delay=steps_per_delay,
        )
        metrics = oscillation_metrics(traj, transient_delays * net.rtt)
        out.append((float(q_th), eq, metrics))
    return out
