"""Linearized stability machinery for the three fluid systems: characteristic
coefficients, crossover frequencies, sufficient and exact stability tests,
transversality of the critical root pair, and boundary-curve tracing.

All three systems linearise to one characteristic quasi-polynomial,

    P(lambda) = lambda^n + sum_{i=1..n} kappa^i a_i lambda^(n-i)
                + kappa^n a_(n+1) exp(-lambda tau),

with n = kind.dim: 3 with averaging, 2 without, 1 under the threshold
policy. Each function of P below has one body over n. P scales in the rate
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

Each stability condition is a margin: a float that is negative exactly
where the condition holds, so a NaN margin never certifies stability. The
exact condition of every system is kappa < kappa_c, and `kappa_critical`
is the one path to it; `stability_threshold`'s exact margin is its closed
form for the threshold policy at kappa = 1. `stability_threshold` and
`sufficient_stable_with_averaging` refuse any other kappa with DomainError.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

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


@dataclass(frozen=True)
class CharCoefficients:
    """Coefficients a_1 .. a_(n+1) of the characteristic quasi-polynomial

        P(lambda) = lambda^n + sum_{i=1..n} kappa^i a_i lambda^(n-i)
                    + kappa^n a_(n+1) exp(-lambda tau),

    n = kind.dim (kappa excluded): a1..a4 with averaging, a1..a3 without,
    a1, a2 under the threshold policy; the fields past a_(n+1) are None."""

    kind: FluidSystemKind
    a1: float
    a2: float
    a3: float | None = None
    a4: float | None = None


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
    return _coefficients(kind, spec, net, eq.w_star, eq.p_star, red, th)


def _coefficients(kind, spec, net, w, p, red, th):
    """linear_coefficients at the equilibrium (w, p) = (w*, p*)."""
    tau = net.rtt
    cap = net.c_per_flow
    iw = increase_rate(spec, w)
    ipr = increase_rate(spec, w, 1)
    dw = decrease_rate(spec, w)
    dpr = decrease_rate(spec, w, 1)
    slope = ipr * (1.0 - p) - dpr * p  # d/dw of the window balance

    k = spec.k
    gain = (2.0 - k) * iw * (1.0 - p)  # equals -slope * w at equilibrium
    n = kind.dim  # a plain int; an Enum member test costs about 95 ns
    if n == 3:
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
        simplified = (
            gC + gain / tau,
            gC * (rho * w + gain) / tau,
            rho * gC * cap * (2.0 - k) * iw / tau,
            rho * gC * cap * iw / (p * tau),
        )
    elif n == 2:
        if red is None:
            raise DomainError("no-averaging coefficients need RedParams")
        rho = red.rho
        raw = (
            (rho - slope) * w / tau,
            -rho * slope * (w / tau) ** 2,
            rho * (iw + dw) * (1.0 - p) * w / tau**2,
            None,
        )
        simplified = (
            (rho * w + gain) / tau,
            rho * cap * (2.0 - k) * iw / tau,
            rho * cap * iw / (p * tau),
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
    n = kind.dim
    a = (coeffs.a1, coeffs.a2, coeffs.a3, coeffs.a4)
    value = lam**n
    for i in range(1, n):
        value += kappa**i * a[i - 1] * lam ** (n - i)
    kn = kappa**n
    return value + kn * a[n - 1] + kn * a[n] * cmath.exp(-lam * tau)


def char_dlambda(
    kind: FluidSystemKind,
    lam: complex,
    coeffs: CharCoefficients,
    tau: float,
    kappa: float = 1.0,
) -> complex:
    """d/d lambda of the characteristic quasi-polynomial."""
    n = kind.dim
    a = (coeffs.a1, coeffs.a2, coeffs.a3, coeffs.a4)
    value = n * lam ** (n - 1)
    for i in range(1, n):
        value += (n - i) * kappa**i * a[i - 1] * lam ** (n - i - 1)
    return value - tau * kappa**n * a[n] * cmath.exp(-lam * tau)


def char_dkappa(
    kind: FluidSystemKind,
    lam: complex,
    coeffs: CharCoefficients,
    tau: float,
    kappa: float = 1.0,
) -> complex:
    """d/d kappa of the characteristic quasi-polynomial."""
    n = kind.dim
    a = (coeffs.a1, coeffs.a2, coeffs.a3, coeffs.a4)
    value = a[0] * lam ** (n - 1)
    for i in range(2, n + 1):
        value += i * kappa ** (i - 1) * a[i - 1] * lam ** (n - i)
    return value + n * kappa ** (n - 1) * a[n] * cmath.exp(-lam * tau)


def crossover_frequency(
    kind: FluidSystemKind,
    coeffs: CharCoefficients,
    kappa: float = 1.0,
) -> float | None:
    """Frequency at which a root pair crosses the imaginary axis rightward.

    A root j omega needs |Q(j omega)| = a_(n+1), Q being P at kappa = 1
    without its delayed term: x = omega^2 is a positive root of
    F(x) = |Q(j sqrt x)|^2 - a_(n+1)^2, monic of degree n. A pair
    crosses rightward as the delay grows only where F rises (Cooke and van
    den Driessche 1986); of those crossings (the averaged system can have
    two) the one returned is the first, at the smallest angle / omega.
    Returns None when no pair crosses rightward at any delay. The frequency
    scales linearly with kappa for every system.
    """
    n = kind.dim
    a = coeffs
    # Q(lambda) = q3 lambda^3 + q2 lambda^2 + q1 lambda + q0 at kappa = 1, its
    # leading coefficients zero below degree 3, and d = a_(n+1)
    q3, q2, q1, q0, d = (0.0, 0.0, 1.0, a.a1, a.a2, a.a3, a.a4)[n - 1:n + 4]
    # F(x) = q3 x^3 + f2 x^2 + f1 x + f0 (q3^2 = q3): monic of degree n, so
    # q3 = 1, or q3 = 0 and f2 = 1, or q3 = f2 = 0 and f1 = 1
    f2 = q2**2 - 2.0 * q1 * q3
    f1 = q1**2 - 2.0 * q0 * q2
    f0 = q0**2 - d**2
    if n == 3:
        roots = cubic_real_roots(f2, f1, f0)
    elif n == 2:
        disc = f1 * f1 - 4.0 * f0
        if disc < 0.0:
            return None
        # both roots, the larger free of cancellation when f1 >= 0
        r = -0.5 * (f1 + math.copysign(math.sqrt(disc), f1))
        roots = (r, f0 / r) if r else (r,)
    else:
        roots = (-f0,)
    rising = []  # a loop: a list comprehension's call costs more than the filter
    for x in roots:
        if x > 0.0 and (3.0 * q3 * x + 2.0 * f2) * x + f1 > 0.0:
            rising.append(math.sqrt(x))
    if not rising:
        return None
    omega = rising[0] if len(rising) == 1 else min(
        rising, key=lambda w: _crossing_angle(kind, coeffs, w) / w)
    # confirm omega on F itself: F(omega^2) must vanish to within 1e-12 of the
    # sum of its terms' magnitudes, however close another root lies (that sum
    # is at least |f0|, the cheap bound tried first)
    x = omega * omega
    residual = abs(((q3 * x + f2) * x + f1) * x + f0)
    if not (residual <= 1e-12 * abs(f0)
            or residual <= 1e-12 * (((q3 * x + abs(f2)) * x + abs(f1)) * x + abs(f0))):
        raise InternalConsistencyError(
            f"crossover frequency {omega} not confirmed on the "
            f"{('quadratic', 'quartic', 'sextic')[n - 1]}: |F(omega^2)| = {residual!r}"
        )
    return kappa * omega


def _crossing_angle(kind: FluidSystemKind, coeffs: CharCoefficients, omega1: float) -> float:
    """Principal angle that omega*tau must reach for a crossing: arg of
    -conj Q(j omega1) at kappa = 1 (it is kappa-free).

    For the averaged system the angle passes through zero exactly where the
    zero-delay-limit cubic loses its Hurwitz property; a non-positive angle
    therefore means the root pair sits in the right half plane for every
    positive rate multiplier. The other two systems always have a positive
    sine side, so their angle lies in (0, pi)."""
    n = kind.dim
    a = coeffs
    q3, q2, q1, q0 = (0.0, 0.0, 1.0, a.a1, a.a2, a.a3)[n - 1:n + 3]  # as in crossover_frequency
    v = omega1
    return math.atan2(q1 * v - q3 * v**3, q2 * v**2 - q0)


def _zero_delay_stable(kind: FluidSystemKind, coeffs: CharCoefficients) -> bool:
    """Whether every root of Q(lambda) + a_(n+1), the zero-delay limit, lies
    in the left half plane: always at degree 1 or 2, whose coefficients are
    positive, and at degree 3 iff the cubic is Hurwitz, a1 a2 > a3 + a4."""
    a = coeffs
    return kind.dim < 3 or a.a1 * a.a2 > a.a3 + a.a4


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


def _require_unit_kappa(net: NetworkParams, name: str) -> None:
    """Refuse a rate multiplier that a margin built from `linear_coefficients`
    would leave out: those coefficients are the ones at kappa = 1."""
    if net.kappa != 1.0:
        raise DomainError(
            f"{name} holds at kappa = 1 only, got kappa = {net.kappa!r}; "
            "kappa_critical gives the exact condition at any kappa"
        )


@dataclass(frozen=True)
class SufficientAssessment:
    """The phase crossover omega_c, which always exists (see
    `sufficient_stable_with_averaging`), and the margins of the two loop-gain
    sufficient tests for the averaged system: the loop gain at omega_c minus
    one, and the closed-form max-angle bound."""

    omega_c: float
    nyquist: float
    simplified: float


def sufficient_stable_with_averaging(
    spec: ProtocolSpec,
    red: RedParams,
    net: NetworkParams,
    eq: Equilibrium | None = None,
) -> SufficientAssessment:
    """Loop-gain sufficient stability test for the averaged-queue system.

    Finds the phase crossover of the loop transfer a4 exp(-s tau) / D(s),
    D(s) = s^3 + a1 s^2 + a2 s + a3, in (0, pi/tau) and checks that the loop
    gain there is below one; also evaluates the cruder closed-form bound
    obtained by forcing the crossover angle to pi/2.

    D is Hurwitz at every equilibrium: with g = (2 - k) i(w*) (1 - p*),
    a1 a2 - a3 = (gamma c)^2 (rho w* + g) / tau + gamma c g^2 / tau^2 > 0.
    By Mikhailov's criterion arg D(j omega) then rises from 0 through pi/2
    at sqrt(a3/a1) and pi at sqrt(a2) to 3 pi/2, so omega tau + arg D - pi
    rises from -pi to a positive value on (0, pi/tau): one bracketed root,
    which lies below sqrt(a2), where the loop gain's denominator is nonzero.
    Both margins are those at kappa = 1; any other kappa raises DomainError.
    """
    _require_unit_kappa(net, "sufficient_stable_with_averaging")
    if eq is None:
        eq = equilibrium_with_averaging(spec, red, net)
    co = linear_coefficients(FluidSystemKind.WITH_AVERAGING, spec, net, eq, red=red)
    tau = net.rtt
    a1, a2, a3, a4 = co.a1, co.a2, co.a3, co.a4

    def phase(w):
        # arg D(jw), continuous: atan2, lifted by 2 pi where Im D < 0, above sqrt(a2)
        ang = math.atan2(a2 * w - w**3, a3 - a1 * w**2)
        return w * tau + (ang if ang >= 0.0 else ang + 2.0 * math.pi) - math.pi

    hi = math.pi / tau
    omega_c = bisect(phase, hi * 1e-9, hi, rtol=1e-14)
    gain = a4 * abs(math.sin(omega_c * tau)) / abs(a2 * omega_c - omega_c**3)

    alpha, k, beta = spec.alpha, spec.k, spec.beta
    w, p = eq.w_star, eq.p_star
    rho = red.rho
    num = rho * red.gamma * alpha * w**k * net.c_per_flow * tau / p
    den = red.gamma * (rho * w**2 + (2.0 - k) * beta * w**2 * p) - (
        math.pi**2 / 4.0
    ) * (1.0 - p)
    # margin < 0 iff den > 0 and num/den < pi/2 (num is always positive)
    return SufficientAssessment(omega_c, gain - 1.0, num - 0.5 * math.pi * den)


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
    """Margins of the threshold policy's exact and sufficient conditions, and
    the sufficient bound a2*tau in protocol constants."""

    exact: float
    sufficient: float
    param_form_lhs: float


def stability_threshold(
    spec: ProtocolSpec,
    net: NetworkParams,
    th: ThresholdParams,
    eq: Equilibrium | None = None,
) -> ThresholdStability:
    """Exact and sufficient local stability for the threshold-policy system,
    at kappa = 1; any other kappa raises DomainError."""
    _require_unit_kappa(net, "stability_threshold")
    if eq is None:
        eq = equilibrium_threshold(spec, net, th)
    co = linear_coefficients(FluidSystemKind.THRESHOLD, spec, net, eq, th=th)
    a1, a2 = co.a1, co.a2
    tau = net.rtt
    exact = (tau * math.sqrt(max(a2**2 - a1**2, 0.0))
             - math.acos(max(-1.0, min(1.0, -a1 / a2))))
    sufficient = a2 * tau - 0.5 * math.pi
    param_form = spec.alpha * th.q_th * eq.w_star ** (spec.k - 1.0)
    if abs(param_form - a2 * tau) > 1e-9 * max(param_form, a2 * tau):
        raise InternalConsistencyError(
            f"parameter-form bound {param_form} != a2*tau {a2 * tau}"
        )
    if sufficient < 0.0 and not exact < 0.0:
        raise InternalConsistencyError(
            "sufficient condition held where the exact condition failed"
        )
    return ThresholdStability(exact, sufficient, param_form)


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


# Each setter builds the one object a trial changes with its keyword
# constructor: the same validation as dataclasses.replace, without its walk
# over fields(). A test checks every setter against replace.
_PARAM_SETTERS = {
    "tau": lambda s, r, t, n, v: (s, r, t, NetworkParams(
        c_per_flow=n.c_per_flow, rtt=v, kappa=n.kappa, buffer=n.buffer)),
    "c": lambda s, r, t, n, v: (s, r, t, NetworkParams(
        c_per_flow=v, rtt=n.rtt, kappa=n.kappa, buffer=n.buffer)),
    "kappa": lambda s, r, t, n, v: (s, r, t, NetworkParams(
        c_per_flow=n.c_per_flow, rtt=n.rtt, kappa=v, buffer=n.buffer)),
    "gamma": lambda s, r, t, n, v: (s, RedParams(
        b_min=r.b_min, b_max=r.b_max, p_max=r.p_max, w_q=r.w_q, gamma=v), t, n),
    "b_min": lambda s, r, t, n, v: (s, RedParams(
        b_min=v, b_max=r.b_max, p_max=r.p_max, w_q=r.w_q, gamma=r.gamma), t, n),
    "b_max": lambda s, r, t, n, v: (s, RedParams(
        b_min=r.b_min, b_max=v, p_max=r.p_max, w_q=r.w_q, gamma=r.gamma), t, n),
    "p_max": lambda s, r, t, n, v: (s, RedParams(
        b_min=r.b_min, b_max=r.b_max, p_max=v, w_q=r.w_q, gamma=r.gamma), t, n),
    "q_th": lambda s, r, t, n, v: (s, r, ThresholdParams(q_th=v), n),
    "alpha": lambda s, r, t, n, v: (ProtocolSpec(alpha=v, k=s.k, beta=s.beta), r, t, n),
    "k": lambda s, r, t, n, v: (ProtocolSpec(alpha=s.alpha, k=v, beta=s.beta), r, t, n),
    "beta": lambda s, r, t, n, v: (ProtocolSpec(alpha=s.alpha, k=s.k, beta=v), r, t, n),
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


def _within_red(free_param, bracket, red):
    """The bracket of a search in b_min or b_max, kept strictly on its side
    of the other threshold: RedParams needs b_min < b_max."""
    lo, hi = bracket
    if free_param == "b_min":
        hi = min(hi, math.nextafter(red.b_max, 0.0))
    elif free_param == "b_max":
        lo = max(lo, math.nextafter(red.b_min, math.inf))
    else:
        return bracket
    if not lo < hi:
        raise BracketError(f"no {free_param} in {bracket} keeps b_min < b_max")
    return lo, hi


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
    trial(p) builds (value, w*, p*) from the explicit map; the other
    parameters are their own unknown, with one equilibrium held."""
    _check_solvable(free_param)
    bracket = _within_red(free_param, bracket, red)
    moves = free_param in ("tau", "c", "alpha") or (
        free_param == "q_th" and kind is FluidSystemKind.THRESHOLD
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # bracket ends may leave the affine band
        ends = [_system_at(kind, free_param, v, spec, net, red, th)[4]
                for v in bracket[: 2 if moves else 1]]

    w0, p0 = ends[0].w_star, ends[0].p_star  # the equilibrium a non-moving search holds

    def trial(u):
        if not moves:
            return u, w0, p0
        value, w = _explicit_equilibrium(kind, free_param, u, spec, net, th)
        return value, w, u

    def phi(u):
        value, w, p = trial(u)
        s, r, t, n = _PARAM_SETTERS[free_param](spec, red, th, net, value)
        co = _coefficients(kind, s, n, w, p, r, t)
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
    y_bracket = _within_red(solve_for, DEFAULT_BRACKETS[solve_for], red)
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
