"""Linearized stability machinery for the three fluid systems: characteristic
coefficients, crossover frequencies, sufficient and exact stability tests,
transversality of the critical root pair, and boundary-curve tracing.

All three characteristic equations share a scaling property in the rate
multiplier kappa: the crossover frequency is proportional to kappa and the
crossing angle is kappa-free, so the critical multiplier has the closed form
kappa_c = angle / (omega(1) * tau).
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

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
    _power_law_constants,
)
from .numerics import bisect, find_bracket, newton_complex
from .params import NetworkParams, ProtocolSpec, RedParams, ThresholdParams, Variant
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

    if spec.variant is not Variant.AFRICA:
        _, k, _ = _power_law_constants(spec)
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


def refine_root(
    kind: FluidSystemKind,
    coeffs: CharCoefficients,
    tau: float,
    z0: complex,
    kappa: float = 1.0,
) -> complex:
    """Polish a characteristic root by complex Newton iteration."""
    return newton_complex(
        lambda z: char_residual(kind, z, coeffs, tau, kappa),
        lambda z: char_dlambda(kind, z, coeffs, tau, kappa),
        z0,
    )


def crossover_frequency(
    kind: FluidSystemKind,
    coeffs: CharCoefficients,
    kappa: float = 1.0,
) -> float | None:
    """Frequency at which a root pair can sit on the imaginary axis.

    Returns None when no crossing frequency exists (delay-independent
    stability). The frequency scales linearly with kappa for every system.
    """
    a = coeffs
    if kind is FluidSystemKind.WITH_AVERAGING:
        A = a.a1**2 - 2.0 * a.a2
        B = a.a2**2 - 2.0 * a.a1 * a.a3
        C = a.a3**2 - a.a4**2

        def cubic(x):
            return ((x + A) * x + B) * x + C

        hi = 1.0 + abs(A) + abs(B) + abs(C)  # Cauchy bound on roots
        if C < 0.0:
            x = bisect(cubic, 0.0, hi, rtol=1e-14)
        else:
            br = find_bracket(cubic, 0.0, hi, n=512)
            if br is None:
                return None
            x = bisect(cubic, br[0], br[1], rtol=1e-14)
        if x <= 0.0:
            return None
        return kappa * math.sqrt(x)
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
        # cross-check against the direct quartic roots; the companion-matrix
        # roots lose relative accuracy when the root magnitudes are far
        # apart, so each candidate is polished on the quartic itself
        quartic = np.roots([1.0, 0.0, A, 0.0, B])
        real_pos = []
        for r in quartic:
            if abs(r.imag) >= 1e-6 * max(1.0, abs(r)) or r.real <= 0:
                continue
            root = r.real
            for _ in range(4):
                p = ((root * root + A) * root * root) + B
                dp = 4.0 * root**3 + 2.0 * A * root
                if dp == 0:
                    break
                root -= p / dp
            real_pos.append(root)
        if not real_pos or abs(max(real_pos) - omega) > 1e-9 * omega:
            raise InternalConsistencyError(
                f"discriminant frequency {omega} not confirmed by quartic roots {quartic}"
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


def kappa_critical(
    kind: FluidSystemKind, coeffs: CharCoefficients, tau: float
) -> float:
    """Smallest rate multiplier at which a root pair reaches the axis.

    Returns inf when no crossing frequency exists (stable at any rate) and
    0.0 when the crossing angle is non-positive (unstable at any rate)."""
    omega1 = crossover_frequency(kind, coeffs, kappa=1.0)
    if omega1 is None:
        return math.inf
    theta = _crossing_angle(kind, coeffs, omega1)
    if theta <= 0.0:
        return 0.0
    return theta / (omega1 * tau)


def count_unstable_roots(
    kind: FluidSystemKind,
    coeffs: CharCoefficients,
    tau: float,
    kappa: float = 1.0,
    re_max: float | None = None,
    im_max: float | None = None,
    re_min: float = 0.0,
    base_points: int = 64,
) -> int:
    """Number of characteristic roots inside the right-half-plane rectangle,
    by argument-principle winding with adaptive contour refinement.

    Independent of every closed-form condition; used as the stability oracle.
    """
    if re_max is None:
        re_max = 5.0 / tau
    if im_max is None:
        im_max = 4.0 * math.pi / tau

    corners = [
        complex(re_min, -im_max),
        complex(re_max, -im_max),
        complex(re_max, im_max),
        complex(re_min, im_max),
        complex(re_min, -im_max),
    ]

    def f(z):
        return char_residual(kind, z, coeffs, tau, kappa)

    total = 0.0
    for z0, z1 in zip(corners, corners[1:]):
        n = base_points
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

    Either verdict is None when its phase-crossover prerequisite could not be
    established (reported as inconclusive, not as a failure)."""

    omega_c: float | None
    nyquist: StabilityVerdict | None
    simplified: StabilityVerdict | None


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

    simplified = None
    if spec.variant is not Variant.AFRICA:
        alpha, k, beta = _power_law_constants(spec)
        w, p = eq.w_star, eq.p_star
        rho = red.rho
        num = rho * red.gamma * alpha * w**k * net.c_per_flow * tau / p
        den = red.gamma * (rho * w**2 + (2.0 - k) * beta * w**2 * p) - (
            math.pi**2 / 4.0
        ) * (1.0 - p)
        # margin < 0 iff den > 0 and num/den < pi/2 (num is always positive)
        margin = num - 0.5 * math.pi * den
        simplified = StabilityVerdict(
            margin < 0.0, margin, Condition.SUFFICIENT_SIMPLIFIED
        )
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
    alpha, k, beta = _power_law_constants(spec)
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
    param_form_lhs: float | None


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
    param_form = None
    if spec.variant is not Variant.AFRICA:
        alpha, k, _ = _power_law_constants(spec)
        param_form = alpha * th.q_th * eq.w_star ** (k - 1.0)
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
    num = char_dkappa(kind, lam, coeffs, tau, kappa)
    den = char_dlambda(kind, lam, coeffs, tau, kappa)
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


def transversality_numeric(
    kind: FluidSystemKind,
    coeffs: CharCoefficients,
    tau: float,
    omega: float,
    kappa: float = 1.0,
    eps: float = 1e-4,
) -> float:
    """Root-tracking estimate of Re(d lambda / d kappa) by central difference."""
    lo = refine_root(kind, coeffs, tau, 1j * omega, kappa * (1.0 - eps))
    hi = refine_root(kind, coeffs, tau, 1j * omega, kappa * (1.0 + eps))
    return (hi.real - lo.real) / (2.0 * eps * kappa)


_PARAM_SETTERS = {
    "tau": lambda s, r, t, n, v: (s, r, t, replace(n, rtt=v)),
    "c": lambda s, r, t, n, v: (s, r, t, replace(n, c_per_flow=v)),
    "kappa": lambda s, r, t, n, v: (s, r, t, replace(n, kappa=v)),
    "gamma": lambda s, r, t, n, v: (s, replace(r, gamma=v), t, n),
    "b_min": lambda s, r, t, n, v: (s, replace(r, b_min=v), t, n),
    "b_max": lambda s, r, t, n, v: (s, replace(r, b_max=v), t, n),
    "p_max": lambda s, r, t, n, v: (s, replace(r, p_max=v), t, n),
    "q_th": lambda s, r, t, n, v: (s, r, ThresholdParams(q_th=v), n),
    "alpha": lambda s, r, t, n, v: (s.with_(alpha=v), r, t, n),
    "k": lambda s, r, t, n, v: (s.with_(k=v), r, t, n),
    "beta": lambda s, r, t, n, v: (s.with_(beta=v), r, t, n),
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


def _system_at(kind, free_param, value, spec, net, red, th, quiet=False):
    if free_param not in _PARAM_SETTERS:
        raise DomainError(f"unknown free parameter {free_param!r}")
    s, r, t, n = _PARAM_SETTERS[free_param](spec, red, th, net, value)
    with warnings.catch_warnings():
        if quiet:
            # trial points of a boundary search stray outside the affine
            # band by design; only the solution itself should warn
            warnings.simplefilter("ignore")
        if kind is FluidSystemKind.WITH_AVERAGING:
            eq = equilibrium_with_averaging(s, r, n)
        elif kind is FluidSystemKind.NO_AVERAGING:
            eq = equilibrium_no_averaging(s, r, n)
        else:
            eq = equilibrium_threshold(s, n, t)
    co = linear_coefficients(kind, s, n, eq, red=r, th=t)
    return s, r, t, n, eq, co


def hopf_phase_residual(
    kind: FluidSystemKind,
    free_param: str,
    value: float,
    spec: ProtocolSpec,
    net: NetworkParams,
    red: RedParams | None = None,
    th: ThresholdParams | None = None,
) -> float:
    """omega*tau minus the crossing angle at the operating rate multiplier.

    Zero exactly on the stability boundary; negative on the stable side of
    the first crossing. The equilibrium is re-solved at every trial value
    because it depends on the swept parameter.
    """
    _, _, _, n, _, co = _system_at(kind, free_param, value, spec, net, red, th, quiet=True)
    omega1 = crossover_frequency(kind, co, kappa=1.0)
    if omega1 is None:
        return -math.pi
    theta = _crossing_angle(kind, co, omega1)
    return n.kappa * omega1 * n.rtt - theta


def solve_hopf_boundary(
    kind: FluidSystemKind,
    free_param: str,
    bracket: tuple[float, float],
    spec: ProtocolSpec,
    net: NetworkParams,
    red: RedParams | None = None,
    th: ThresholdParams | None = None,
    *,
    phase_tol: float = 1e-10,
) -> HopfPoint:
    """Locate a Hopf point in one free parameter as the root of the phase
    residual; the stability verdict must differ at the bracket ends."""

    def phi(v):
        return hopf_phase_residual(kind, free_param, v, spec, net, red, th)

    lo, hi = bracket
    value = bisect(phi, lo, hi, rtol=1e-15)
    residual_phase = phi(value)
    if abs(residual_phase) > phase_tol:
        raise ConvergenceError(
            f"phase residual {residual_phase:.3g} at {free_param}={value:.6g}; "
            "the bracket may contain a branch discontinuity, not a crossing"
        )
    _, _, _, n, _, co = _system_at(kind, free_param, value, spec, net, red, th)
    omega1 = crossover_frequency(kind, co, kappa=1.0)
    omega = n.kappa * omega1
    kc = kappa_critical(kind, co, n.rtt)
    char = abs(char_residual(kind, 1j * omega, co, n.rtt, kappa=n.kappa))
    return HopfPoint(kind, free_param, value, omega, kc, char)


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


def _solve_chart_point(kind, x_param, x, solve_for, spec, net, red, th, y_bracket, seed):
    s, r, t, n = _PARAM_SETTERS[x_param](spec, red, th, net, x)

    def phi(v):
        return hopf_phase_residual(kind, solve_for, v, s, n, r, t)

    bracket = None
    if seed is not None:
        cand = (0.5 * seed, 2.0 * seed)
        try:
            if phi(cand[0]) * phi(cand[1]) < 0:
                bracket = cand
        except (ConvergenceError, DomainError):
            bracket = None
    if bracket is None:
        lo, hi = y_bracket
        bracket = find_bracket(phi, lo, hi, n=96, log_spaced=lo > 0)
        if bracket is None:
            raise BracketError(
                f"no stability change for {solve_for} in {y_bracket} at {x_param}={x}"
            )
    hp = solve_hopf_boundary(kind, solve_for, bracket, s, n, r, t)
    _, _, _, n2, _, co = _system_at(kind, solve_for, hp.param_value, s, n, r, t)
    tv = transversality(kind, co, n2.rtt, hp.omega, kappa=n2.kappa)
    return CurvePoint(x_param, x, solve_for, hp.param_value, hp.omega, hp.residual, tv)


def trace_stability_chart(
    kind: FluidSystemKind,
    x_param: str,
    x_values,
    solve_for: str,
    spec: ProtocolSpec,
    net: NetworkParams,
    red: RedParams | None = None,
    th: ThresholdParams | None = None,
    y_bracket: tuple[float, float] | None = None,
) -> list[CurvePoint]:
    """Hopf boundary curve y_critical(x) over a grid of x values; each
    point's bracket is seeded from the previous solution."""
    if y_bracket is None:
        y_bracket = DEFAULT_BRACKETS[solve_for]
    points: list[CurvePoint] = []
    seed = None
    for x in x_values:
        try:
            pt = _solve_chart_point(
                kind, x_param, x, solve_for, spec, net, red, th, y_bracket, seed
            )
            seed = pt.y_critical
        except (ConvergenceError, DomainError) as exc:
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
