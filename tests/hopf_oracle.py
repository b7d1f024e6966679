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
"""

import cmath
import math

from aqmlab.errors import ConvergenceError
from aqmlab.fluid import FluidSystemKind
from aqmlab.normalform import EigenData, TaylorCoefficients
from aqmlab.numerics import bisect, find_bracket
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
