"""Reference code for the stability and normal-form layers, kept as test
oracles: each checks a result of `aqmlab` by an independent route.

- `refine_root` polishes a characteristic root by complex Newton iteration
  (`newton_complex`), and `transversality_numeric` tracks that root across
  a small change of the rate multiplier: a central-difference check on the
  analytic `stability.transversality`.
- `char_coefficients_from_taylor` rebuilds the characteristic coefficients
  from the normal form's linear series terms, to compare with
  `stability.linear_coefficients`.
- `orthonormality_residuals` and `eigen_residual` check the critical
  eigendata of `normalform.eigen_data` against the bilinear form and the
  linear operator.
- `crossover_cubic_root_by_scan` finds a root of the averaged crossover's
  cubic in x = omega^2 by Brent's method, on the whole root bound or in
  the first sign change of a 512-cell scan: the oracle for
  `numerics.cubic_real_roots` and `stability.crossover_frequency`.
- `per_point_chart` solves every point of a chart on its own, each bracket
  seeded from the previous solution, as `stability.trace_stability_chart`
  does for every sweep but c against tau: the oracle for the charts that
  map their points through the bandwidth-delay product.
- `residual_by_kind`, `dlambda_by_kind`, `dkappa_by_kind`,
  `crossing_angle_by_kind`, `zero_delay_stable_by_kind` and
  `crossover_by_kind` write the characteristic quasi-polynomial's functions
  out once per system, with the averaged crossover confirmed by Newton steps
  on the sextic and the no-averaging one on the quartic: the oracles for the
  one body over the degree n that `stability` gives each of them.
- `nyquist_crossover_by_scan` finds the averaged loop's phase crossover by a
  4 096-cell log-grid scan with its own phase unwrap: the oracle for the
  one bracketed root of `stability.sufficient_stable_with_averaging`.
"""

import cmath
import math

from aqmlab.errors import ConvergenceError, InternalConsistencyError
from aqmlab.fluid import FluidSystemKind
from aqmlab.normalform import EigenData, TaylorCoefficients
from aqmlab.numerics import bisect, cubic_real_roots, find_bracket
from aqmlab.stability import (
    _PARAM_SETTERS,
    CharCoefficients,
    HopfPoint,
    _chart_point,
    char_dlambda,
    char_residual,
)


def newton_complex(f, df, z0: complex, *, tol: float = 1e-13, max_iter: int = 80) -> complex:
    """Newton iteration for a complex root of f."""
    z = complex(z0)
    for _ in range(max_iter):
        fz = f(z)
        dz = df(z)
        if dz == 0:
            raise ConvergenceError("zero derivative in Newton iteration")
        step = fz / dz
        z = z - step
        if abs(step) <= tol * max(1.0, abs(z)):
            return z
    if abs(f(z)) > 1e-8 * max(1.0, abs(z)):
        raise ConvergenceError(f"Newton did not converge from {z0!r}")
    return z


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


def crossover_cubic_root_by_scan(A: float, B: float, C: float) -> float | None:
    """A positive root of x^3 + A x^2 + B x + C, or None: Brent's method on
    [0, hi] when C < 0 (any of up to three roots), else in the first sign
    change of a 512-cell scan of [0, hi], which misses two roots in one cell
    and finds the smaller of two, where f falls. hi = 1 + |A| + |B| + |C|
    bounds every root (Cauchy)."""

    def cubic(x):
        return ((x + A) * x + B) * x + C

    hi = 1.0 + abs(A) + abs(B) + abs(C)
    if C < 0.0:
        x = bisect(cubic, 0.0, hi, rtol=1e-14)
    else:
        br = find_bracket(cubic, 0.0, hi, n=512)
        if br is None:
            return None
        x = bisect(cubic, br[0], br[1], rtol=1e-14)
    return x if x > 0.0 else None


def per_point_chart(kind, x_param, x_values, solve_for, spec, net, red=None,
                    th=None) -> list[HopfPoint]:
    """A Hopf solve at every chart point, seeded from the previous one."""
    points = []
    seed = None
    for x in x_values:
        s, r, t, n = _PARAM_SETTERS[x_param](spec, red, th, net, x)
        points.append(_chart_point(kind, solve_for, s, n, r, t, seed))
        seed = points[-1].param_value
    return points


def char_coefficients_from_taylor(tay: TaylorCoefficients) -> CharCoefficients:
    """Characteristic coefficients implied by the linear series terms."""
    return CharCoefficients(
        FluidSystemKind.NO_AVERAGING,
        a1=-(tay.xi_x + tay.chi_y),
        a2=tay.xi_x * tay.chi_y,
        a3=-tay.xi_s * tay.chi_x,
    )


def _bilinear_kernel(eig: EigenData, tay: TaylorCoefficients, conjugate_q: bool):
    """<q*, q> or <q*, qbar> under the delay-aware bilinear form."""
    w0, kap, tau = eig.omega0, eig.kappa, eig.tau
    p1, p2, B = eig.phi1, eig.phi2, eig.B
    if not conjugate_q:
        bracket = p2.conjugate() * (
            1.0 + kap * p1 * tau * tay.xi_s * cmath.exp(-1j * w0 * tau)
        ) + p1
        return B.conjugate() * bracket
    bracket = (
        p2.conjugate()
        + p1.conjugate()
        + kap
        * p2.conjugate()
        * p1.conjugate()
        * tay.xi_s
        * math.sin(w0 * tau)
        / w0
    )
    return B.conjugate() * eig.c.conjugate() ** 2 * bracket


def orthonormality_residuals(eig: EigenData, tay: TaylorCoefficients):
    """(|<q*, q> - 1|, |<q*, qbar>|); both must be tiny at a Hopf point."""
    return (
        abs(_bilinear_kernel(eig, tay, False) - 1.0),
        abs(_bilinear_kernel(eig, tay, True)),
    )


def eigen_residual(eig: EigenData, tay: TaylorCoefficients) -> float:
    """|A(0) q - i w0 q| with the operator applied through its definition."""
    w0, kap, tau = eig.omega0, eig.kappa, eig.tau
    q0 = (eig.c, eig.c * eig.phi1)
    q_tau = tuple(v * cmath.exp(-1j * w0 * tau) for v in q0)
    row1 = kap * (tay.xi_x * q0[0] + tay.xi_s * q_tau[1])
    row2 = kap * (tay.chi_x * q0[0] + tay.chi_y * q0[1])
    target = (1j * w0 * q0[0], 1j * w0 * q0[1])
    return math.hypot(abs(row1 - target[0]), abs(row2 - target[1]))


def residual_by_kind(kind, lam, a, tau, kappa=1.0):
    """The characteristic quasi-polynomial at lam, one form per system."""
    k = kappa
    e = cmath.exp(-lam * tau)
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


def dlambda_by_kind(kind, lam, a, tau, kappa=1.0):
    """d/d lambda of the quasi-polynomial, one form per system."""
    k = kappa
    e = cmath.exp(-lam * tau)
    if kind is FluidSystemKind.WITH_AVERAGING:
        return 3 * lam**2 + 2 * k * a.a1 * lam + k**2 * a.a2 - tau * k**3 * a.a4 * e
    if kind is FluidSystemKind.NO_AVERAGING:
        return 2 * lam + k * a.a1 - tau * k**2 * a.a3 * e
    return 1.0 - tau * k * a.a2 * e


def dkappa_by_kind(kind, lam, a, tau, kappa=1.0):
    """d/d kappa of the quasi-polynomial, one form per system."""
    k = kappa
    e = cmath.exp(-lam * tau)
    if kind is FluidSystemKind.WITH_AVERAGING:
        return a.a1 * lam**2 + 2 * k * a.a2 * lam + 3 * k**2 * a.a3 + 3 * k**2 * a.a4 * e
    if kind is FluidSystemKind.NO_AVERAGING:
        return a.a1 * lam + 2 * k * a.a2 + 2 * k * a.a3 * e
    return a.a1 + a.a2 * e


def crossing_angle_by_kind(kind, a, v):
    """arg of -conj Q(j v), Q the quasi-polynomial at kappa = 1 without its
    delayed term, one form per system."""
    if kind is FluidSystemKind.WITH_AVERAGING:
        return math.atan2(a.a2 * v - v**3, a.a1 * v**2 - a.a3)
    if kind is FluidSystemKind.NO_AVERAGING:
        return math.atan2(a.a1 * v, v**2 - a.a2)
    return math.atan2(v, -a.a1)


def zero_delay_stable_by_kind(kind, a):
    """Whether the zero-delay limit is stable: the averaged cubic is Hurwitz,
    or the system is one of the other two."""
    return kind is not FluidSystemKind.WITH_AVERAGING or a.a1 * a.a2 > a.a3 + a.a4


def crossover_by_kind(kind, a, kappa=1.0):
    """The rightward crossover frequency, one form per system: the rising
    root of the cubic in omega^2 with the smallest angle / omega, confirmed
    by up to four Newton steps on the sextic; the largest root of the
    quadratic, confirmed on the quartic; sqrt(a2^2 - a1^2) for the threshold
    policy. Each confirmation allows omega to move by 1e-9 relative."""
    if kind is FluidSystemKind.WITH_AVERAGING:
        A = a.a1**2 - 2.0 * a.a2
        B = a.a2**2 - 2.0 * a.a1 * a.a3
        C = a.a3**2 - a.a4**2
        rising = [math.sqrt(x) for x in cubic_real_roots(A, B, C)
                  if x > 0.0 and (3.0 * x + 2.0 * A) * x + B > 0.0]
        if not rising:
            return None
        omega = rising[0] if len(rising) == 1 else min(
            rising, key=lambda w: crossing_angle_by_kind(kind, a, w) / w)
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
        if A >= 0.0:
            denom = A + math.sqrt(disc)
            x = -2.0 * B / denom if denom > 0 else 0.0
        else:
            x = 0.5 * (-A + math.sqrt(disc))
        if x <= 0.0:
            return None
        omega = math.sqrt(x)
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


def nyquist_crossover_by_scan(a, tau):
    """First phase crossover of a4 exp(-s tau) / D(s), D(s) = s^3 + a1 s^2 +
    a2 s + a3, in (pi/tau 1e-9, pi/tau), or None: the open-loop phase is
    unwrapped cumulatively along a 4 096-cell log grid (the raw atan2 angle
    jumps across the negative real axis, often inside the very cell that
    holds the crossover), and Brent's method runs in the first cell where
    it changes sign."""
    a1, a2, a3 = a.a1, a.a2, a.a3

    def denom_angle(w):
        return math.atan2(a2 * w - w**3, a3 - a1 * w**2)

    def unwrap_near(ang, ref):
        while ang - ref > math.pi:
            ang -= 2.0 * math.pi
        while ang - ref < -math.pi:
            ang += 2.0 * math.pi
        return ang

    n = 4096
    hi = math.pi / tau
    lo = hi * 1e-9
    ratio = (hi / lo) ** (1.0 / n)
    prev_w = lo
    prev_ang = denom_angle(prev_w)
    prev_phase = prev_w * tau + prev_ang - math.pi
    for w in (lo * ratio**i for i in range(1, n + 1)):
        ang = unwrap_near(denom_angle(w), prev_ang)
        ph = w * tau + ang - math.pi
        if prev_phase == 0.0 or (prev_phase < 0) != (ph < 0):
            ref = prev_ang
            return bisect(lambda x: x * tau + unwrap_near(denom_angle(x), ref) - math.pi,
                          prev_w, w, rtol=1e-14)
        prev_w, prev_ang, prev_phase = w, ang, ph
    return None
