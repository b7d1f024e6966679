"""Linearized stability machinery for the three fluid systems: characteristic
coefficients, crossover frequencies, sufficient and exact stability tests,
transversality of the critical root pair, and boundary-curve tracing.

All three characteristic equations share a scaling property in the rate
multiplier kappa: the crossover frequency is proportional to kappa and the
crossing angle is kappa-free, so the critical multiplier has the closed form
kappa_c = angle / (omega(1) * tau).

The scaling goes further. In delay units (s = t/tau) every system sees the
per-flow capacity c and the delay tau only through the bandwidth-delay
product B = c*tau: the window law, the queue law kappa*((1 - p)w - B), the
threshold law (w/B)^q_th and the averaging rate gamma*c*tau. The phase
residual is a function of B, so a Hopf boundary in c or in tau is one
number B_c, and tau_c = B_c / c. The buffer, counted in packets, does not
break this: it enters only the integrator's clamps, not the linearisation at
the equilibrium. A chart of c against tau therefore solves one point.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, replace
from enum import Enum

from .errors import (
    BracketError,
    ConvergenceError,
    DomainError,
    InternalConsistencyError,
)
from .fluid import (
    Equilibrium,
    FluidSystemKind,
    equilibrium_no_averaging,
    equilibrium_threshold,
    equilibrium_with_averaging,
)
from .numerics import bisect, cubic_real_roots, find_bracket
from .params import NetworkParams, ProtocolSpec, RedParams, ThresholdParams
from .protocols import decrease_rate, increase_rate, threshold_drop_derivative


class Condition(str, Enum):
    SUFFICIENT_NYQUIST = "sufficient-nyquist"
    SUFFICIENT_SIMPLIFIED = "sufficient-simplified"
    NEC_SUFF_RATE = "necessary-sufficient-rate"
    THRESHOLD_NEC_SUFF = "threshold-necessary-sufficient"
    THRESHOLD_SUFFICIENT = "threshold-sufficient"


@dataclass(frozen=True)
class CharCoefficients:
    """Coefficients of the characteristic quasi-polynomial (kappa excluded)."""

    kind: FluidSystemKind
    a1: float
    a2: float
    a3: float | None = None
    a4: float | None = None


@dataclass(frozen=True)
class StabilityVerdict:
    stable: bool
    margin: float
    condition_used: Condition


@dataclass(frozen=True)
class HopfPoint:
    kind: FluidSystemKind
    param_name: str
    param_value: float
    omega: float
    kappa_c: float
    residual: float
    transversality: float


class TransversalityAnomalyWarning(UserWarning):
    """The critical root pair did not move rightward with the rate multiplier."""


def linear_coefficients(
    kind: FluidSystemKind,
    spec: ProtocolSpec,
    net: NetworkParams,
    eq: Equilibrium,
    red: RedParams | None = None,
    th: ThresholdParams | None = None,
) -> CharCoefficients:
    """Characteristic coefficients at an equilibrium.

    Both the raw form (in i, i', d, d') and the power-law simplification are
    evaluated and must agree; positivity is enforced.
    """
    w = eq.w_star
    p = eq.p_star
    tau = net.rtt
    cap = net.c_per_flow
    iw = increase_rate(spec, w)
    ipr = increase_rate(spec, w, 1)
    dw = decrease_rate(spec, w)
    dpr = decrease_rate(spec, w, 1)
    slope = ipr * (1.0 - p) - dpr * p  # d/dw of the window balance

    if kind is FluidSystemKind.WITH_AVERAGING:
        if red is None:
            raise DomainError("with-averaging coefficients need RedParams")
        gC = red.gamma * cap
        rho = red.rho
        raw = (
            gC - slope * w / tau,
            gC * (rho - slope) * w / tau,
            -rho * gC * slope * (w / tau) ** 2,
            rho * gC * (iw + dw) * (1.0 - p) * w / tau**2,
        )
    elif kind is FluidSystemKind.NO_AVERAGING:
        if red is None:
            raise DomainError("no-averaging coefficients need RedParams")
        rho = red.rho
        raw = (
            (rho - slope) * w / tau,
            -rho * slope * (w / tau) ** 2,
            rho * (iw + dw) * (1.0 - p) * w / tau**2,
            None,
        )
    else:
        if th is None:
            raise DomainError("threshold coefficients need ThresholdParams")
        ppr = threshold_drop_derivative(w, net, th)
        raw = (
            -slope * w / tau,
            ppr * (iw + dw) * w / tau,
            None,
            None,
        )

    k = spec.k
    gain = (2.0 - k) * iw * (1.0 - p)  # equals -slope * w at equilibrium
    if kind is FluidSystemKind.WITH_AVERAGING:
        gC = red.gamma * cap
        rho = red.rho
        simplified = (
            gC + gain / tau,
            gC * (rho * w + gain) / tau,
            rho * gC * cap * (2.0 - k) * iw / tau,
            rho * gC * cap * iw / (p * tau),
        )
    elif kind is FluidSystemKind.NO_AVERAGING:
        rho = red.rho
        simplified = (
            (rho * w + gain) / tau,
            rho * cap * (2.0 - k) * iw / tau,
            rho * cap * iw / (p * tau),
            None,
        )
    else:
        simplified = (gain / tau, th.q_th * iw / tau, None, None)
    for r, s in zip(raw, simplified):
        if r is None:
            continue
        if abs(r - s) > 1e-10 * max(abs(r), abs(s)):
            raise InternalConsistencyError(
                f"raw/simplified coefficient mismatch: {r!r} vs {s!r}"
            )

    for a in raw:
        if a is not None and not a > 0:
            raise InternalConsistencyError(f"non-positive coefficient {a!r} in {raw}")
    return CharCoefficients(kind, *raw)


def char_residual(
    kind: FluidSystemKind,
    lam: complex,
    coeffs: CharCoefficients,
    tau: float,
    kappa: float = 1.0,
) -> complex:
    """Value of the characteristic quasi-polynomial at lam."""
    k = kappa
    e = cmath.exp(-lam * tau)
    a = coeffs
    if kind is FluidSystemKind.WITH_AVERAGING:
        return (
            lam**3
            + k * a.a1 * lam**2
            + k**2 * a.a2 * lam
            + k**3 * a.a3
            + k**3 * a.a4 * e
        )
    if kind is FluidSystemKind.NO_AVERAGING:
        return lam**2 + k * a.a1 * lam + k**2 * a.a2 + k**2 * a.a3 * e
    return lam + k * a.a1 + k * a.a2 * e


def char_dlambda(
    kind: FluidSystemKind,
    lam: complex,
    coeffs: CharCoefficients,
    tau: float,
    kappa: float = 1.0,
) -> complex:
    """d/d lambda of the characteristic quasi-polynomial."""
    k = kappa
    e = cmath.exp(-lam * tau)
    a = coeffs
    if kind is FluidSystemKind.WITH_AVERAGING:
        return 3 * lam**2 + 2 * k * a.a1 * lam + k**2 * a.a2 - tau * k**3 * a.a4 * e
    if kind is FluidSystemKind.NO_AVERAGING:
        return 2 * lam + k * a.a1 - tau * k**2 * a.a3 * e
    return 1.0 - tau * k * a.a2 * e


def char_dkappa(
    kind: FluidSystemKind,
    lam: complex,
    coeffs: CharCoefficients,
    tau: float,
    kappa: float = 1.0,
) -> complex:
    """d/d kappa of the characteristic quasi-polynomial."""
    k = kappa
    e = cmath.exp(-lam * tau)
    a = coeffs
    if kind is FluidSystemKind.WITH_AVERAGING:
        return a.a1 * lam**2 + 2 * k * a.a2 * lam + 3 * k**2 * a.a3 + 3 * k**2 * a.a4 * e
    if kind is FluidSystemKind.NO_AVERAGING:
        return a.a1 * lam + 2 * k * a.a2 + 2 * k * a.a3 * e
    return a.a1 + a.a2 * e


def crossover_frequency(
    kind: FluidSystemKind,
    coeffs: CharCoefficients,
    kappa: float = 1.0,
) -> float | None:
    """Frequency at which a root pair crosses the imaginary axis rightward.

    The averaged system can have two such frequencies; the one returned is
    that of the first crossing as the delay grows. Returns None when no pair
    crosses rightward at any delay. The frequency scales linearly with kappa
    for every system.
    """
    a = coeffs
    if kind is FluidSystemKind.WITH_AVERAGING:
        A = a.a1**2 - 2.0 * a.a2
        B = a.a2**2 - 2.0 * a.a1 * a.a3
        C = a.a3**2 - a.a4**2
        # a pair crosses the axis rightward as the delay grows only where
        # x^3 + A x^2 + B x + C rises (Cooke and van den Driessche 1986); of
        # those crossings the first is at the smallest angle / omega
        rising = [math.sqrt(x) for x in cubic_real_roots(A, B, C)
                  if x > 0.0 and (3.0 * x + 2.0 * A) * x + B > 0.0]
        if not rising:
            return None
        omega = rising[0] if len(rising) == 1 else min(
            rising, key=lambda w: _crossing_angle(kind, coeffs, w) / w)
        # confirm omega on the sextic w^6 + A w^4 + B w^2 + C itself: up to
        # four Newton steps from omega must leave it in place, on the rising side
        root = omega
        for _ in range(4):
            x = root * root
            dp = 2.0 * root * ((3.0 * x + 2.0 * A) * x + B)
            if dp == 0:
                break
            step = (((x + A) * x + B) * x + C) / dp
            root -= step
            if abs(step) <= 1e-15 * root:
                break
        x = root * root
        if not (abs(root - omega) <= 1e-9 * omega and (3.0 * x + 2.0 * A) * x + B > 0.0):
            raise InternalConsistencyError(
                f"crossover frequency {omega} not confirmed on the sextic: {root}"
            )
        return kappa * omega
    if kind is FluidSystemKind.NO_AVERAGING:
        A = a.a1**2 - 2.0 * a.a2
        B = a.a2**2 - a.a3**2
        disc = A * A - 4.0 * B
        if disc < 0.0:
            return None
        # largest root of x^2 + A x + B, in the cancellation-free form when
        # -A + sqrt(disc) would lose digits
        if A >= 0.0:
            denom = A + math.sqrt(disc)
            x = -2.0 * B / denom if denom > 0 else 0.0
        else:
            x = 0.5 * (-A + math.sqrt(disc))
        if x <= 0.0:
            return None
        omega = math.sqrt(x)
        # confirm omega as the largest root of the quartic w^4 + A w^2 + B:
        # Newton steps on it must leave omega in place, and x = omega^2 must
        # lie on the rising side of x^2 + A x + B, as only its largest root does
        root = omega
        for _ in range(4):
            p = ((root * root + A) * root * root) + B
            dp = 4.0 * root**3 + 2.0 * A * root
            if dp == 0:
                break
            root -= p / dp
        if abs(root - omega) > 1e-9 * omega or 2.0 * x + A < 0.0:
            raise InternalConsistencyError(
                f"discriminant frequency {omega} not confirmed on the quartic: {root}"
            )
        return kappa * omega
    if a.a2 > a.a1:
        return kappa * math.sqrt(a.a2**2 - a.a1**2)
    return None


def _crossing_angle(kind: FluidSystemKind, coeffs: CharCoefficients, omega1: float) -> float:
    """Principal angle that omega*tau must reach for a crossing, computed
    from the real/imaginary pair at kappa = 1 (it is kappa-free).

    For the averaged system the angle passes through zero exactly where the
    zero-delay-limit cubic loses its Hurwitz property; a non-positive angle
    therefore means the root pair sits in the right half plane for every
    positive rate multiplier. The other two systems always have a positive
    sine side, so their angle lies in (0, pi)."""
    a = coeffs
    v = omega1
    if kind is FluidSystemKind.WITH_AVERAGING:
        return math.atan2(a.a2 * v - v**3, a.a1 * v**2 - a.a3)
    if kind is FluidSystemKind.NO_AVERAGING:
        return math.atan2(a.a1 * v, v**2 - a.a2)
    return math.atan2(v, -a.a1)


def _zero_delay_stable(kind: FluidSystemKind, coeffs: CharCoefficients) -> bool:
    """Whether every root lies in the left half plane in the zero-delay
    limit: always for the no-averaging and threshold systems, and for the
    averaged system iff its cubic is Hurwitz, a1 a2 > a3 + a4."""
    a = coeffs
    return kind is not FluidSystemKind.WITH_AVERAGING or a.a1 * a.a2 > a.a3 + a.a4


def kappa_critical(
    kind: FluidSystemKind, coeffs: CharCoefficients, tau: float
) -> float:
    """Smallest rate multiplier at which a root pair reaches the axis.

    Returns 0.0 when rates near 0 are already unstable: the zero-delay limit
    is, or the crossing angle is non-positive. (Rate and delay enter as
    their product, and a pair crossing back leftward can stabilise larger
    ones.) Returns inf when no pair crosses rightward at any rate, where the
    stable zero-delay limit stays stable."""
    if not _zero_delay_stable(kind, coeffs):
        return 0.0
    omega1 = crossover_frequency(kind, coeffs, kappa=1.0)
    if omega1 is None:
        return math.inf
    theta = _crossing_angle(kind, coeffs, omega1)
    if theta <= 0.0:
        return 0.0
    return theta / (omega1 * tau)


def count_unstable_roots(kind: FluidSystemKind, coeffs: CharCoefficients, tau: float) -> int:
    """Number of characteristic roots (at kappa = 1) inside the right-half-plane
    rectangle 0 <= Re < 5/tau, |Im| < 4 pi/tau, by argument-principle winding
    with adaptive refinement of a contour of 64 points a side.

    Independent of every closed-form condition; used as the stability oracle.
    """
    re_max = 5.0 / tau
    im_max = 4.0 * math.pi / tau
    corners = [
        complex(0.0, -im_max),
        complex(re_max, -im_max),
        complex(re_max, im_max),
        complex(0.0, im_max),
        complex(0.0, -im_max),
    ]

    def f(z):
        return char_residual(kind, z, coeffs, tau)

    total = 0.0
    for z0, z1 in zip(corners, corners[1:]):
        n = 64
        pts = [z0 + (z1 - z0) * i / n for i in range(n + 1)]
        vals = [f(z) for z in pts]
        stack = list(zip(pts[:-1], pts[1:], vals[:-1], vals[1:]))
        depth = 0
        while stack:
            za, zb, fa, fb = stack.pop()
            if fa == 0 or fb == 0:
                raise ConvergenceError("characteristic zero on the counting contour")
            dphi = cmath.phase(fb / fa)
            if abs(dphi) < 0.5 * math.pi or abs(zb - za) < 1e-12 * (1.0 + abs(za)):
                total += dphi
                continue
            zm = 0.5 * (za + zb)
            fm = f(zm)
            stack.append((za, zm, fa, fm))
            stack.append((zm, zb, fm, fb))
            depth += 1
            if depth > 200000:
                raise ConvergenceError("contour refinement did not terminate")
    winding = total / (2.0 * math.pi)
    count = round(winding)
    if abs(winding - count) > 1e-3:
        raise ConvergenceError(f"non-integer winding number {winding}")
    return count


@dataclass(frozen=True)
class SufficientAssessment:
    """Outcome of the two loop-gain sufficient tests for the averaged system.

    The Nyquist verdict is None when its phase-crossover prerequisite could
    not be established (reported as inconclusive, not as a failure)."""

    omega_c: float | None
    nyquist: StabilityVerdict | None
    simplified: StabilityVerdict


def sufficient_stable_with_averaging(
    spec: ProtocolSpec,
    red: RedParams,
    net: NetworkParams,
    eq: Equilibrium | None = None,
) -> SufficientAssessment:
    """Loop-gain sufficient stability test for the averaged-queue system.

    Finds the first phase crossover of the loop transfer in (0, pi/tau) and
    checks that the loop gain there is below one; also evaluates the cruder
    closed-form bound obtained by forcing the crossover angle to pi/2.
    """
    if eq is None:
        eq = equilibrium_with_averaging(spec, red, net)
    co = linear_coefficients(FluidSystemKind.WITH_AVERAGING, spec, net, eq, red=red)
    tau = net.rtt
    a1, a2, a3, a4 = co.a1, co.a2, co.a3, co.a4

    def denom_angle(w):
        return math.atan2(a2 * w - w**3, a3 - a1 * w**2)

    def unwrap_near(ang, ref):
        twopi = 2.0 * math.pi
        while ang - ref > math.pi:
            ang -= twopi
        while ang - ref < -math.pi:
            ang += twopi
        return ang

    # cumulative unwrap of the open-loop phase along a fine grid; the raw
    # atan2 angle jumps across the negative real axis, often inside the very
    # cell that holds the crossover
    omega_c = None
    n = 4096
    hi = math.pi / tau
    lo = hi * 1e-9
    ratio = (hi / lo) ** (1.0 / n)
    grid = [lo * ratio**i for i in range(1, n + 1)]
    prev_w = lo
    prev_ang = denom_angle(prev_w)
    prev_phase = prev_w * tau + prev_ang - math.pi
    for w in grid:
        ang = unwrap_near(denom_angle(w), prev_ang)
        ph = w * tau + ang - math.pi
        if prev_phase == 0.0 or (prev_phase < 0) != (ph < 0):
            ref = prev_ang

            def phase(x):
                return x * tau + unwrap_near(denom_angle(x), ref) - math.pi

            omega_c = bisect(phase, prev_w, w, rtol=1e-14)
            break
        prev_w, prev_ang, prev_phase = w, ang, ph

    nyq = None
    if omega_c is not None:
        gain_den = abs(a2 * omega_c - omega_c**3)
        if gain_den > 0:
            lhs = a4 * abs(math.sin(omega_c * tau)) / gain_den
            nyq = StabilityVerdict(lhs < 1.0, lhs - 1.0, Condition.SUFFICIENT_NYQUIST)

    alpha, k, beta = spec.alpha, spec.k, spec.beta
    w, p = eq.w_star, eq.p_star
    rho = red.rho
    num = rho * red.gamma * alpha * w**k * net.c_per_flow * tau / p
    den = red.gamma * (rho * w**2 + (2.0 - k) * beta * w**2 * p) - (
        math.pi**2 / 4.0
    ) * (1.0 - p)
    # margin < 0 iff den > 0 and num/den < pi/2 (num is always positive)
    margin = num - 0.5 * math.pi * den
    simplified = StabilityVerdict(margin < 0.0, margin, Condition.SUFFICIENT_SIMPLIFIED)
    return SufficientAssessment(omega_c, nyq, simplified)


def stability_no_averaging(
    spec: ProtocolSpec,
    red: RedParams,
    net: NetworkParams,
    eq: Equilibrium | None = None,
    kappa: float | None = None,
) -> StabilityVerdict:
    """Exact local stability of the instantaneous-feedback system.

    The system is stable iff the rate multiplier is below its critical value;
    the margin is kappa/kappa_c - 1."""
    if eq is None:
        eq = equilibrium_no_averaging(spec, red, net)
    if kappa is None:
        kappa = net.kappa
    co = linear_coefficients(FluidSystemKind.NO_AVERAGING, spec, net, eq, red=red)
    kc = kappa_critical(FluidSystemKind.NO_AVERAGING, co, net.rtt)
    if kc == 0.0:
        margin = math.inf
    elif math.isinf(kc):
        margin = -1.0
    else:
        margin = kappa / kc - 1.0
    return StabilityVerdict(margin < 0.0, margin, Condition.NEC_SUFF_RATE)


def no_averaging_condition_lhs(
    spec: ProtocolSpec,
    red: RedParams,
    net: NetworkParams,
    eq: Equilibrium,
    kappa: float = 1.0,
) -> float:
    """Left-hand side of the parameterized exact condition (< 1 for
    stability below the first crossing), in protocol constants."""
    alpha, k, beta = spec.alpha, spec.k, spec.beta
    w, p = eq.w_star, eq.p_star
    rho = red.rho
    m = (2.0 - k) * beta * p
    big_omega = math.sqrt(
        0.5
        * (
            -(rho**2) - m**2
            + math.sqrt((rho**2 - m**2) ** 2 + 4.0 * rho**2 * beta**2)
        )
    )
    num = rho * alpha * w ** (k - 3.0) * net.c_per_flow * net.rtt
    return num / (big_omega * p * (rho + m)) * math.sin(kappa * w * big_omega)


@dataclass(frozen=True)
class ThresholdStability:
    nec_suff: StabilityVerdict
    sufficient: StabilityVerdict
    param_form_lhs: float


def stability_threshold(
    spec: ProtocolSpec,
    net: NetworkParams,
    th: ThresholdParams,
    eq: Equilibrium | None = None,
) -> ThresholdStability:
    """Exact and sufficient local stability for the threshold-policy system."""
    if eq is None:
        eq = equilibrium_threshold(spec, net, th)
    co = linear_coefficients(FluidSystemKind.THRESHOLD, spec, net, eq, th=th)
    a1, a2 = co.a1, co.a2
    tau = net.rtt
    lhs = tau * math.sqrt(max(a2**2 - a1**2, 0.0))
    rhs = math.acos(max(-1.0, min(1.0, -a1 / a2)))
    nec_suff = StabilityVerdict(lhs - rhs < 0.0, lhs - rhs, Condition.THRESHOLD_NEC_SUFF)
    suff_margin = a2 * tau - 0.5 * math.pi
    sufficient = StabilityVerdict(
        suff_margin < 0.0, suff_margin, Condition.THRESHOLD_SUFFICIENT
    )
    param_form = spec.alpha * th.q_th * eq.w_star ** (spec.k - 1.0)
    if abs(param_form - a2 * tau) > 1e-9 * max(param_form, a2 * tau):
        raise InternalConsistencyError(
            f"parameter-form bound {param_form} != a2*tau {a2 * tau}"
        )
    if sufficient.stable and not nec_suff.stable:
        raise InternalConsistencyError(
            "sufficient condition held where the exact condition failed"
        )
    return ThresholdStability(nec_suff, sufficient, param_form)


def transversality(
    kind: FluidSystemKind,
    coeffs: CharCoefficients,
    tau: float,
    omega: float,
    kappa: float = 1.0,
) -> float:
    """Analytic Re(d lambda / d kappa) at a crossing point lambda = j*omega."""
    lam = 1j * omega
    try:
        num = char_dkappa(kind, lam, coeffs, tau, kappa)
        den = char_dlambda(kind, lam, coeffs, tau, kappa)
    except OverflowError:  # a float power of kappa raises rather than give inf
        raise ConvergenceError(f"crossing at kappa = {kappa!r}, whose powers overflow") from None
    if den == 0:
        raise ConvergenceError("degenerate crossing: d(char)/d(lambda) = 0")
    value = (-num / den).real
    if value <= 0.0:
        warnings.warn(
            f"non-positive root-crossing speed {value}; outside the proven "
            "parameter region or numerically degenerate",
            TransversalityAnomalyWarning,
            stacklevel=2,
        )
    return value


_PARAM_SETTERS = {
    "tau": lambda s, r, t, n, v: (s, r, t, replace(n, rtt=v)),
    "c": lambda s, r, t, n, v: (s, r, t, replace(n, c_per_flow=v)),
    "kappa": lambda s, r, t, n, v: (s, r, t, replace(n, kappa=v)),
    "gamma": lambda s, r, t, n, v: (s, replace(r, gamma=v), t, n),
    "b_min": lambda s, r, t, n, v: (s, replace(r, b_min=v), t, n),
    "b_max": lambda s, r, t, n, v: (s, replace(r, b_max=v), t, n),
    "p_max": lambda s, r, t, n, v: (s, replace(r, p_max=v), t, n),
    "q_th": lambda s, r, t, n, v: (s, r, ThresholdParams(q_th=v), n),
    "alpha": lambda s, r, t, n, v: (replace(s, alpha=v), r, t, n),
    "k": lambda s, r, t, n, v: (replace(s, k=v), r, t, n),
    "beta": lambda s, r, t, n, v: (replace(s, beta=v), r, t, n),
}

DEFAULT_BRACKETS = {
    "tau": (1e-4, 30.0),
    "c": (1.0, 1e4),
    "gamma": (1e-6, 1.0),
    "b_min": (1.0, 500.0),
    "b_max": (60.0, 5000.0),
    "p_max": (1e-4, 0.99),
    "q_th": (1.0, 2000.0),
    "alpha": (1e-4, 10.0),
    "kappa": (1e-6, 1e3),
}


def _check_solvable(name):
    if name not in DEFAULT_BRACKETS:
        raise DomainError(f"no Hopf search in {name!r}: one of {', '.join(DEFAULT_BRACKETS)}")


def _system_at(kind, free_param, value, spec, net, red, th):
    s, r, t, n = _PARAM_SETTERS[free_param](spec, red, th, net, value)
    if kind is FluidSystemKind.WITH_AVERAGING:
        eq = equilibrium_with_averaging(s, r, n)
    elif kind is FluidSystemKind.NO_AVERAGING:
        eq = equilibrium_no_averaging(s, r, n)
    else:
        eq = equilibrium_threshold(s, n, t)
    return s, r, t, n, eq


def _explicit_equilibrium(kind, free_param, p, spec, net, th):
    """(value, w*) of tau, c, alpha or q_th at which the equilibrium drop
    probability is p: w* from the window balance, c*tau from the policy."""
    threshold = kind is FluidSystemKind.THRESHOLD
    bdp = net.c_per_flow * net.rtt
    if free_param == "alpha":
        w = bdp * p ** (1.0 / th.q_th) if threshold else bdp / (1.0 - p)
        return spec.beta * p * w ** (2.0 - spec.k) / (1.0 - p), w
    w = (spec.beta * p / (spec.alpha * (1.0 - p))) ** (1.0 / (spec.k - 2.0))
    if free_param == "q_th":  # rounding maps q_th = 1 to just below its domain
        return max(1.0, math.log(p) / math.log(w / bdp)), w
    bdp = w * p ** (-1.0 / th.q_th) if threshold else w * (1.0 - p)
    return bdp / (net.c_per_flow if free_param == "tau" else net.rtt), w


def hopf_phase_residual(kind: FluidSystemKind, coeffs: CharCoefficients, tau: float,
                        kappa: float) -> float:
    """omega*tau minus the crossing angle at the rate multiplier kappa: zero on
    the stability boundary, negative on the stable side of the first crossing.
    Where no pair crosses it is -pi. Where the zero-delay limit is unstable
    there is no stable side, and it is positive: pi without a crossing, else
    with the angle, which is then at most 0, taken as 0 if it rounds above."""
    stable = _zero_delay_stable(kind, coeffs)
    omega1 = crossover_frequency(kind, coeffs, kappa=1.0)
    if omega1 is None:
        return -math.pi if stable else math.pi
    theta = _crossing_angle(kind, coeffs, omega1)
    return kappa * omega1 * tau - (theta if stable else min(theta, 0.0))


def _hopf_search(kind, free_param, bracket, spec, net, red, th):
    """(phi, trial, unknown at the bracket ends) of a Hopf search. tau, c,
    alpha and threshold q_th move the equilibrium, so the unknown is p* and
    trial(p) builds (value, equilibrium) from the explicit map; the other
    parameters are their own unknown, with one equilibrium held."""
    _check_solvable(free_param)
    moves = free_param in ("tau", "c", "alpha") or (
        free_param == "q_th" and kind is FluidSystemKind.THRESHOLD
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # bracket ends may leave the affine band
        ends = [_system_at(kind, free_param, v, spec, net, red, th)[4]
                for v in bracket[: 2 if moves else 1]]

    def trial(u):
        if not moves:
            return u, ends[0]
        value, w = _explicit_equilibrium(kind, free_param, u, spec, net, th)
        return value, Equilibrium(kind, w, u)

    def phi(u):
        value, eq = trial(u)
        s, r, t, n = _PARAM_SETTERS[free_param](spec, red, th, net, value)
        co = linear_coefficients(kind, s, n, eq, red=r, th=t)
        return hopf_phase_residual(kind, co, n.rtt, n.kappa)

    return phi, trial, [eq.p_star for eq in ends] if moves else bracket


def solve_hopf_boundary(
    kind: FluidSystemKind,
    free_param: str,
    bracket: tuple[float, float],
    spec: ProtocolSpec,
    net: NetworkParams,
    red: RedParams | None = None,
    th: ThresholdParams | None = None,
) -> HopfPoint:
    """Locate a Hopf point in one free parameter as the root of the phase
    residual; the stability verdict must differ at the bracket ends. The
    equilibrium solver at the root guards the search's explicit map."""
    phi, trial, ends = _hopf_search(kind, free_param, bracket, spec, net, red, th)
    return _hopf_point(kind, free_param, phi, trial, ends, spec, net, red, th)


def _hopf_point(kind, free_param, phi, trial, ends, spec, net, red, th):
    """The Hopf point at the root of phi between the unknown's ends."""
    value = trial(bisect(phi, min(ends), max(ends), rtol=1e-15))[0]
    return _point_at(kind, free_param, value, spec, net, red, th)


def _point_at(kind, free_param, value, spec, net, red, th):
    """The Hopf point at a known value of the free parameter, checked: its
    equilibrium is solved and its phase residual must vanish."""
    s, r, t, n, eq = _system_at(kind, free_param, value, spec, net, red, th)
    co = linear_coefficients(kind, s, n, eq, red=r, th=t)
    residual_phase = hopf_phase_residual(kind, co, n.rtt, n.kappa)
    if abs(residual_phase) > 1e-10:
        raise ConvergenceError(
            f"phase residual {residual_phase:.3g} at {free_param}={value:.6g}; "
            "the bracket may contain a branch discontinuity, not a crossing"
        )
    omega = n.kappa * crossover_frequency(kind, co, kappa=1.0)
    kc = kappa_critical(kind, co, n.rtt)
    char = abs(char_residual(kind, 1j * omega, co, n.rtt, kappa=n.kappa))
    tv = transversality(kind, co, n.rtt, omega, kappa=n.kappa)
    return HopfPoint(kind, free_param, value, omega, kc, char, tv)


@dataclass(frozen=True)
class CurvePoint:
    x_param: str
    x_value: float
    y_param: str
    y_critical: float | None
    omega: float | None
    residual: float | None
    transversality: float | None
    error: str | None = None


def _chart_point(kind, solve_for, spec, net, red, th, seed):
    """The Hopf point in the seed's bracket, else in the first stability
    change of a scan that starts at the image of the default bracket's low
    end."""
    if seed is not None:
        try:
            return solve_hopf_boundary(kind, solve_for, (0.5 * seed, 2.0 * seed),
                                       spec, net, red, th)
        except (BracketError, DomainError):
            pass  # no crossing in the seed's bracket, or it leaves the domain
    y_bracket = DEFAULT_BRACKETS[solve_for]
    phi, trial, (lo, hi) = _hopf_search(kind, solve_for, y_bracket, spec, net, red, th)
    scanned = {}  # the solve in the scan's bracket reuses its residuals
    found = find_bracket(lambda u: scanned.setdefault(u, phi(u)), lo, hi, n=96,
                         log_spaced=lo > 0)
    if found is None:
        raise BracketError(f"no stability change for {solve_for} in {y_bracket}")
    return _hopf_point(kind, solve_for, lambda u: scanned[u] if u in scanned else phi(u),
                       trial, found, spec, net, red, th)


def trace_stability_chart(
    kind: FluidSystemKind,
    x_param: str,
    x_values,
    solve_for: str,
    spec: ProtocolSpec,
    net: NetworkParams,
    red: RedParams | None = None,
    th: ThresholdParams | None = None,
) -> list[CurvePoint]:
    """Hopf boundary curve y_critical(x) over a grid of x values; each
    point's bracket is seeded from the previous solution. A chart of c
    against tau, either way round, solves one point and maps every later one
    through that point's bandwidth-delay product B_c: y = B_c / x, checked
    at each point as a solved one is."""
    _check_solvable(solve_for)
    points: list[CurvePoint] = []
    seed = bdp = None
    for x in x_values:
        try:
            s, r, t, n = _PARAM_SETTERS[x_param](spec, red, th, net, x)
            if bdp is None:
                hp = _chart_point(kind, solve_for, s, n, r, t, seed)
                if {x_param, solve_for} == {"c", "tau"}:
                    bdp = x * hp.param_value
            else:
                hp = _point_at(kind, solve_for, bdp / x, s, n, r, t)
            seed = hp.param_value
            pt = CurvePoint(x_param, x, solve_for, seed, hp.omega, hp.residual,
                            hp.transversality)
        except (ConvergenceError, DomainError, InternalConsistencyError) as exc:
            pt = CurvePoint(x_param, x, solve_for, None, None, None, None, str(exc))
        points.append(pt)
    return points


def chart_to_csv(points: list[CurvePoint], path) -> None:
    with open(path, "w") as fh:
        fh.write("x_param,x_value,y_param,y_critical,omega,residual,transversality\n")
        for p in points:
            if p.error is not None:
                continue
            fh.write(
                f"{p.x_param},{p.x_value:.12g},{p.y_param},{p.y_critical:.12g},"
                f"{p.omega:.12g},{p.residual:.12g},{p.transversality:.12g}\n"
            )
