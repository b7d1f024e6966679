"""Reference code for the fluid integrator, kept as test oracles.

- `rhs` and the closures under it are the systems' right-hand sides as
  stand-alone functions, one Python call per law: the window law, the
  one-sided queue law, and the averaged-p relaxation or threshold feedback.
- `ORACLE_KERNELS` are the RK4 kernels that called those closures four
  times a step, with `aqmlab.fluid._KERNELS`' signature. The kernels in
  `aqmlab.fluid` write the same laws out with the same floating-point
  operations, so patched into `_KERNELS` they must give the same bits.
- `History` (with `hermite_eval`) turns the last delay window of a
  trajectory into a callable history for `integrate_dde`, for warm restarts.
"""

import math

from aqmlab.errors import DomainError
from aqmlab.fluid import _W_FLOOR, FluidSystemKind, Trajectory, _blowup
from aqmlab.params import NetworkParams, ProtocolSpec, RedParams, ThresholdParams


def _window_rate(spec: ProtocolSpec, net: NetworkParams):
    """(w, w_d, p_d) -> dw/dt, the window equation of all three systems."""
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
    if kind is FluidSystemKind.THRESHOLD:
        return (_threshold_rhs(spec, net, th)(state_now[0], state_delayed[0]),)
    if kind is FluidSystemKind.NO_AVERAGING:
        return _no_averaging_rhs(spec, net, red)(*state_now, *state_delayed)
    f = _with_averaging_rhs(spec, net, red)
    return f(*state_now, state_delayed[0], state_delayed[2])


def _rk4_threshold(f, cols, mids, m, n_steps, h, buf, done):
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
            raise _blowup(done + j + 1, h)
        kn = f(wn, w1)
        ws.append(wn)
        mws.append(0.5 * w + c1 * k1 + 0.5 * wn + c3 * kn)
        k1 = kn


def _rk4_no_averaging(f, cols, mids, m, n_steps, h, buf, done):
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
            raise _blowup(done + j + 1, h)
        knw, knq = f(wn, qn, w1, q1)
        ws.append(wn)
        qs.append(qn)
        mws.append(0.5 * w + c1 * k1w + 0.5 * wn + c3 * knw)
        mqs.append(0.5 * q + c1 * k1q + 0.5 * qn + c3 * knq)
        k1w, k1q = knw, knq


def _rk4_with_averaging(f, cols, mids, m, n_steps, h, buf, done):
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
            raise _blowup(done + j + 1, h)
        knw, knq, knp = f(wn, qn, pn, w1, p1)
        ws.append(wn)
        qs.append(qn)
        ps.append(pn)
        mws.append(0.5 * w + c1 * k1w + 0.5 * wn + c3 * knw)
        mps.append(0.5 * p + c1 * k1p + 0.5 * pn + c3 * knp)
        k1w, k1q, k1p = knw, knq, knp


def _closure_kernel(kernel, system_rhs):
    def run(spec, net, params, cols, mids, m, n_steps, h, done):
        kernel(system_rhs(spec, net, params), cols, mids, m, n_steps, h, net.buffer, done)

    return run


ORACLE_KERNELS = {
    FluidSystemKind.THRESHOLD: _closure_kernel(_rk4_threshold, _threshold_rhs),
    FluidSystemKind.NO_AVERAGING: _closure_kernel(_rk4_no_averaging, _no_averaging_rhs),
    FluidSystemKind.WITH_AVERAGING: _closure_kernel(_rk4_with_averaging, _with_averaging_rhs),
}


def hermite_eval(theta: float, y0, y1, f0, f1, h: float):
    """Cubic Hermite value at fraction theta in [0, 1] of an interval of
    width h, given endpoint values and one-sided derivatives (tuples)."""
    t2 = theta * theta
    t3 = t2 * theta
    h00 = 2.0 * t3 - 3.0 * t2 + 1.0
    h10 = t3 - 2.0 * t2 + theta
    h01 = -2.0 * t3 + 3.0 * t2
    h11 = t3 - t2
    return tuple(
        h00 * a + h10 * h * da + h01 * b + h11 * h * db
        for a, b, da, db in zip(y0, y1, f0, f1)
    )


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
        if n < 1 or n >= len(traj):
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
