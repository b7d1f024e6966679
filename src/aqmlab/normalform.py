"""Center-manifold reduction of the instantaneous-feedback system at its Hopf
point: Taylor coefficients of the vector field, critical eigendata of the
linearized operator and its adjoint, the quadratic/cubic resonance
coefficients, and the Lyapunov-coefficient classification of the bifurcation.

The resonance ("g") coefficients are produced by an explicit closed-form
collection of z-monomials, hand-derived once from the series
u(t) = z q + zbar qbar + w20 z^2/2 + w11 z zbar + w02 zbar^2/2; an
independent polynomial-expansion oracle in the test suite cross-checks every
collected coefficient.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace

from .errors import ConvergenceError, DegeneratePointError
from .fluid import Equilibrium, FluidSystemKind, equilibrium_no_averaging
from .params import NetworkParams, ProtocolSpec, RedParams
from .protocols import decrease_rate, increase_rate
from .stability import (
    crossover_frequency,
    kappa_critical,
    linear_coefficients,
    solve_hopf_boundary,
    transversality,
)

# where classify_at_hopf looks for the critical delay, in seconds; the CLI's
# --tau-min and --tau-max read it
TAU_BRACKET = (1e-3, 5.0)


@dataclass(frozen=True)
class TaylorCoefficients:
    """Series coefficients of the two-state system about its equilibrium.

    xi_* multiply monomials in (x, r, s) = (u1(t), u1(t-tau), u2(t-tau)) in
    the window equation; chi_* multiply (x, y) = (u1(t), u2(t)) in the queue
    equation. Each equals the corresponding mixed partial derivative of the
    right-hand side (times the multinomial factor of its monomial).
    """

    xi_x: float
    xi_s: float
    xi_xx: float
    xi_xr: float
    xi_xs: float
    xi_rs: float
    xi_xxx: float
    xi_xxr: float
    xi_xxs: float
    xi_xrs: float
    chi_x: float
    chi_y: float
    chi_xy: float


def taylor_coefficients(
    spec: ProtocolSpec,
    red: RedParams,
    net: NetworkParams,
    eq: Equilibrium,
) -> TaylorCoefficients:
    """Closed-form series coefficients at an instantaneous-feedback equilibrium.

    The quadratic window terms below are complete because the decrease
    function beta*w is linear in w.
    """
    w = eq.w_star
    p = eq.p_star
    tau = net.rtt
    rho = red.rho  # slope of the drop probability in the queue
    i0 = increase_rate(spec, w)
    i1 = increase_rate(spec, w, 1)
    i2 = increase_rate(spec, w, 2)
    i3 = increase_rate(spec, w, 3)
    d0 = decrease_rate(spec, w)
    d1 = decrease_rate(spec, w, 1)
    slope = i1 * (1.0 - p) - d1 * p
    one_m_p = 1.0 - p
    return TaylorCoefficients(
        xi_x=slope * w / tau,
        xi_s=-rho * (i0 + d0) * w / tau,
        xi_xx=0.5 * i2 * one_m_p * w / tau,
        xi_xr=slope / tau,
        xi_xs=-rho * (i1 + d1) * w / tau,
        xi_rs=-rho * (i0 + d0) / tau,
        xi_xxx=i3 * one_m_p * w / (6.0 * tau),
        xi_xxr=0.5 * i2 * one_m_p / tau,
        xi_xxs=-0.5 * rho * i2 * w / tau,
        xi_xrs=-rho * (i1 + d1) / tau,
        chi_x=one_m_p / tau,
        chi_y=-rho * w / tau,
        chi_xy=-rho / tau,
    )


@dataclass(frozen=True)
class EigenData:
    """Critical eigenvector data of the linear operator and its adjoint.

    q(theta) = c [1, phi1] e^(i w0 theta); q*(s) = B c [phi2, 1] e^(i w0 s).
    The unit phase c is arbitrary and defaults to 1; the classification must
    not depend on it.
    """

    omega0: float
    kappa: float
    tau: float
    phi1: complex
    phi2: complex
    B: complex
    c: complex = 1.0 + 0.0j


def eigen_data(
    tay: TaylorCoefficients,
    omega0: float,
    kappa: float,
    tau: float,
    phase: float = 0.0,
) -> EigenData:
    """Eigenvectors of the critical pair, normalized so <q*, q> = 1."""
    iw = 1j * omega0
    d1 = iw - kappa * tay.chi_y
    d2 = kappa * tay.xi_x + iw
    if min(abs(d1), abs(d2)) < 1e-12:
        raise DegeneratePointError("eigenvector denominator nearly singular")
    phi1 = kappa * tay.chi_x / d1
    phi2 = -kappa * tay.chi_x / d2
    denom = phi2 * (
        1.0 + kappa * phi1.conjugate() * tau * tay.xi_s * cmath.exp(iw * tau)
    ) + phi1.conjugate()
    if abs(denom) < 1e-12:
        raise DegeneratePointError("normalizer denominator nearly singular")
    B = 1.0 / denom
    c = cmath.exp(1j * phase)
    return EigenData(omega0, kappa, tau, phi1, phi2, B, c)


@dataclass(frozen=True)
class ResonanceCoefficients:
    """Collected z-monomial coefficients and the quantities built from them."""

    g20: complex
    g11: complex
    g02: complex
    g21: complex
    F20: tuple[complex, complex]
    F11: tuple[complex, complex]
    F02: tuple[complex, complex]
    F21: tuple[complex, complex]
    E: tuple[complex, complex]
    F_const: tuple[complex, complex]
    w20_0: tuple[complex, complex]
    w20_tau: tuple[complex, complex]
    w11_0: tuple[complex, complex]
    w11_tau: tuple[complex, complex]


def _quad_coeffs(u, v):
    """(z^2, z zbar, zbar^2) coefficients of u*v from linear parts (P, Q)."""
    Pu, Qu = u
    Pv, Qv = v
    return (Pu * Pv, Pu * Qv + Qu * Pv, Qu * Qv)


def _cubic_z2zbar(u, v, t):
    """z^2 zbar coefficient of u*v*t from linear parts."""
    Pu, Qu = u
    Pv, Qv = v
    Pt, Qt = t
    return Pu * Pv * Qt + Pu * Qv * Pt + Qu * Pv * Pt


def _quad_z2zbar(u, v, wu, wv):
    """z^2 zbar coefficient of u*v once each factor carries its quadratic
    manifold correction wu = (W20, W11)."""
    Pu, Qu = u
    Pv, Qv = v
    U20, U11 = wu
    V20, V11 = wv
    return Pu * V11 + 0.5 * Qu * V20 + U11 * Pv + 0.5 * U20 * Qv


def g_coefficients(
    tay: TaylorCoefficients, eig: EigenData
) -> ResonanceCoefficients:
    """Resonant coefficients g20, g11, g02, g21 of the reduced flow.

    Stage one collects the quadratic coefficients from the linear parts of
    (u1(t), u1(t-tau), u2(t-tau), u2(t)); stage two solves for the
    second-order manifold terms (the particular solutions E and F of the two
    2x2 systems) and assembles the cubic coefficient g21.
    """
    w0, kap, tau = eig.omega0, eig.kappa, eig.tau
    c = eig.c
    phi1 = eig.phi1
    em = cmath.exp(-1j * w0 * tau)
    ep = cmath.exp(1j * w0 * tau)

    # linear (z, zbar) parts of each variable entering the nonlinear terms
    x = (c, c.conjugate())                                  # u1(t)
    r = (c * em, c.conjugate() * ep)                        # u1(t-tau)
    s = (c * phi1 * em, (c * phi1).conjugate() * ep)        # u2(t-tau)
    y = (c * phi1, (c * phi1).conjugate())                  # u2(t)

    quad1 = []
    for coeff, (u, v) in (
        (tay.xi_xx, (x, x)),
        (tay.xi_xr, (x, r)),
        (tay.xi_xs, (x, s)),
        (tay.xi_rs, (r, s)),
    ):
        quad1.append((coeff, _quad_coeffs(u, v)))
    z2_1 = kap * sum(cf * q[0] for cf, q in quad1)
    zz_1 = kap * sum(cf * q[1] for cf, q in quad1)
    zb2_1 = kap * sum(cf * q[2] for cf, q in quad1)
    qxy = _quad_coeffs(x, y)
    z2_2 = kap * tay.chi_xy * qxy[0]
    zz_2 = kap * tay.chi_xy * qxy[1]
    zb2_2 = kap * tay.chi_xy * qxy[2]

    F20 = (2.0 * z2_1, 2.0 * z2_2)
    F11 = (zz_1, zz_2)
    F02 = (2.0 * zb2_1, 2.0 * zb2_2)

    Bbar_cbar = eig.B.conjugate() * c.conjugate()
    p2bar = eig.phi2.conjugate()

    def project(F):
        return Bbar_cbar * (p2bar * F[0] + F[1])

    g20 = project(F20)
    g11 = project(F11)
    g02 = project(F02)

    # particular solutions of the second-order manifold equations
    A1 = kap * tay.xi_x - 2j * w0
    A2 = kap * tay.chi_x
    B1 = kap * tay.xi_s * em * em
    B2 = kap * tay.chi_y - 2j * w0
    detE = A1 * B2 - A2 * B1
    K1 = kap * tay.xi_x
    K2 = kap * tay.chi_x
    L1 = kap * tay.xi_s
    L2 = kap * tay.chi_y
    detF = K1 * L2 - K2 * L1
    if min(abs(detE), abs(detF)) < 1e-12:
        raise DegeneratePointError("singular manifold-correction system")
    C1, C2 = -F20[0], -F20[1]
    J1, J2 = -F11[0], -F11[1]
    E = ((C1 * B2 - C2 * B1) / detE, (C2 * A1 - C1 * A2) / detE)
    Fc = ((J1 * L2 - J2 * L1) / detF, (J2 * K1 - J1 * K2) / detF)

    q0 = (c, c * phi1)
    q0bar = (q0[0].conjugate(), q0[1].conjugate())

    def w20_at(theta):
        e1 = cmath.exp(1j * w0 * theta)
        e2 = cmath.exp(-1j * w0 * theta)
        e3 = cmath.exp(2j * w0 * theta)
        return tuple(
            -g20 / (1j * w0) * qa * e1
            - g02.conjugate() / (3j * w0) * qb * e2
            + ee * e3
            for qa, qb, ee in zip(q0, q0bar, E)
        )

    def w11_at(theta):
        e1 = cmath.exp(1j * w0 * theta)
        e2 = cmath.exp(-1j * w0 * theta)
        return tuple(
            g11 / (1j * w0) * qa * e1 - g11.conjugate() / (1j * w0) * qb * e2 + ff
            for qa, qb, ff in zip(q0, q0bar, Fc)
        )

    w20_0 = w20_at(0.0)
    w20_tau = w20_at(-tau)
    w11_0 = w11_at(0.0)
    w11_tau = w11_at(-tau)

    # manifold corrections (W20, W11) of each variable
    wx = (w20_0[0], w11_0[0])
    wr = (w20_tau[0], w11_tau[0])
    ws = (w20_tau[1], w11_tau[1])
    wy = (w20_0[1], w11_0[1])

    z2zb_1 = kap * (
        tay.xi_xx * _quad_z2zbar(x, x, wx, wx)
        + tay.xi_xr * _quad_z2zbar(x, r, wx, wr)
        + tay.xi_xs * _quad_z2zbar(x, s, wx, ws)
        + tay.xi_rs * _quad_z2zbar(r, s, wr, ws)
        + tay.xi_xxx * _cubic_z2zbar(x, x, x)
        + tay.xi_xxr * _cubic_z2zbar(x, x, r)
        + tay.xi_xxs * _cubic_z2zbar(x, x, s)
        + tay.xi_xrs * _cubic_z2zbar(x, r, s)
    )
    z2zb_2 = kap * tay.chi_xy * _quad_z2zbar(x, y, wx, wy)
    F21 = (2.0 * z2zb_1, 2.0 * z2zb_2)
    g21 = project(F21)

    return ResonanceCoefficients(
        g20, g11, g02, g21, F20, F11, F02, F21, E, Fc, w20_0, w20_tau, w11_0, w11_tau
    )


@dataclass(frozen=True)
class NormalFormResult:
    omega0: float
    kappa_c: float
    c1: complex
    mu2: float
    beta2: float
    bifurcation: str  # "supercritical" | "subcritical"
    orbit: str  # "orbitally-stable" | "unstable"


def classify_hopf(
    g: ResonanceCoefficients,
    omega0: float,
    alpha_prime: float,
    kappa_c: float,
) -> NormalFormResult:
    """Lyapunov coefficient and the (mu2, beta2) classification.

    alpha_prime is the real crossing speed Re(d lambda / d kappa) at the
    Hopf point; it must be nonzero (transversality).
    """
    if alpha_prime == 0.0:
        raise DegeneratePointError("zero crossing speed: degenerate Hopf point")
    c1 = (
        1j
        / (2.0 * omega0)
        * (g.g20 * g.g11 - 2.0 * abs(g.g11) ** 2 - abs(g.g02) ** 2 / 3.0)
        + g.g21 / 2.0
    )
    mu2 = -c1.real / alpha_prime
    beta2 = 2.0 * c1.real
    return NormalFormResult(
        omega0,
        kappa_c,
        c1,
        mu2,
        beta2,
        "supercritical" if mu2 > 0 else "subcritical",
        "orbitally-stable" if beta2 < 0 else "unstable",
    )


def classification_report(result: NormalFormResult) -> str:
    """JSON-style text summary of a classified Hopf point."""
    return (
        "{"
        f'"omega0": {result.omega0:.12g}, '
        f'"kappa_c": {result.kappa_c:.12g}, '
        f'"c1_re": {result.c1.real:.12g}, '
        f'"c1_im": {result.c1.imag:.12g}, '
        f'"mu2": {result.mu2:.12g}, '
        f'"beta2": {result.beta2:.12g}, '
        f'"type": "{result.bifurcation}", '
        f'"orbit": "{result.orbit}"'
        "}"
    )


def classify_at_hopf(
    spec: ProtocolSpec,
    red: RedParams,
    net: NetworkParams,
    tau_c: float | None = None,
    tau_bracket: tuple[float, float] = TAU_BRACKET,
    phase: float = 0.0,
) -> tuple[NormalFormResult, "EigenData", ResonanceCoefficients]:
    """Full pipeline at the instantaneous-feedback Hopf point.

    Solves the critical delay when not given, evaluates every operator at
    the critical rate multiplier, and classifies the bifurcation.
    """
    kind = FluidSystemKind.NO_AVERAGING
    if tau_c is None:
        hp = solve_hopf_boundary(kind, "tau", tau_bracket, spec, net, red=red)
        tau_c = hp.param_value
    net_c = replace(net, rtt=tau_c)
    eq = equilibrium_no_averaging(spec, red, net_c)
    co = linear_coefficients(kind, spec, net_c, eq, red=red)
    omega1 = crossover_frequency(kind, co, kappa=1.0)
    if omega1 is None:  # stable at every rate multiplier
        raise ConvergenceError(f"no Hopf crossing at tau={tau_c!r}")
    kappa_c = kappa_critical(kind, co, tau_c)
    omega0 = kappa_c * omega1
    alpha_prime = transversality(kind, co, tau_c, omega0, kappa=kappa_c)
    tay = taylor_coefficients(spec, red, net_c, eq)
    eig = eigen_data(tay, omega0, kappa_c, tau_c, phase=phase)
    g = g_coefficients(tay, eig)
    return classify_hopf(g, omega0, alpha_prime, kappa_c), eig, g
