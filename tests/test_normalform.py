import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from aqmlab.fluid import (
    FluidSystemKind,
    default_history,
    equilibrium_no_averaging,
    integrate_dde,
    oscillation_metrics,
)
from aqmlab.normalform import (
    classification_report,
    classify_at_hopf,
    eigen_data,
    g_coefficients,
    taylor_coefficients,
)
from aqmlab.params import NetworkParams, ProtocolSpec, RedParams
from aqmlab.protocols import decrease_rate, increase_rate
from aqmlab.stability import (
    crossover_frequency,
    kappa_critical,
    linear_coefficients,
    solve_hopf_boundary,
)

from hopf_oracle import (
    char_coefficients_from_taylor,
    eigen_residual,
    orthonormality_residuals,
)

K = FluidSystemKind

TAU_C_100 = 0.2717512862283584  # frozen critical delay at c_per_flow = 100, defaults


@pytest.fixture(scope="module")
def hopf_point():
    spec = ProtocolSpec.compound_tcp()
    red = RedParams()
    net = NetworkParams(c_per_flow=100.0, rtt=0.1)
    hp = solve_hopf_boundary(K.NO_AVERAGING, "tau", (1e-3, 5.0), spec, net, red=red)
    assert hp.param_value == pytest.approx(TAU_C_100, rel=1e-9)
    net_c = NetworkParams(c_per_flow=100.0, rtt=hp.param_value)
    eq = equilibrium_no_averaging(spec, red, net_c)
    tay = taylor_coefficients(spec, red, net_c, eq)
    co = linear_coefficients(K.NO_AVERAGING, spec, net_c, eq, red=red)
    kc = kappa_critical(K.NO_AVERAGING, co, net_c.rtt)
    omega0 = kc * crossover_frequency(K.NO_AVERAGING, co, kappa=1.0)
    return spec, red, net_c, eq, tay, co, kc, omega0


# -- series coefficients vs finite differences of the vector field -------------

def _series_vs_partials(spec, red, net, eq):
    """All thirteen coefficients against finite-difference mixed partials of
    the actual right-hand side. The window equation is bilinear in the two
    delayed arguments, so those directions use exact wide differences; only
    the instantaneous-window direction needs stencils."""
    w, q, tau = eq.w_star, eq.q_star, net.rtt
    rho, bmin, cap = red.rho, red.b_min, net.c_per_flow

    def f1(x, r, s):
        p = rho * (q + s - bmin)
        return (
            increase_rate(spec, w + x) * (1 - p) - decrease_rate(spec, w + x) * p
        ) * (w + r) / tau

    def f2(x, y):
        p = rho * (q + y - bmin)
        return (1 - p) * (w + x) / tau - cap

    def dx(g, order, h):
        if order == 0:
            return g(0.0)
        if order == 1:
            return (g(h) - g(-h)) / (2 * h)
        if order == 2:
            return (g(h) - 2 * g(0.0) + g(-h)) / h**2
        return (g(2 * h) - 2 * g(h) + 2 * g(-h) - g(-2 * h)) / (2 * h**3)

    h1 = 1e-6 * w
    h2 = 1e-3 * w
    # exact directional slopes (f1 is bilinear in (r, s))
    dr = lambda x: f1(x, 1.0, 0.0) - f1(x, 0.0, 0.0)
    ds = lambda x: f1(x, 0.0, 1.0) - f1(x, 0.0, 0.0)
    drs = lambda x: f1(x, 1.0, 1.0) - f1(x, 1.0, 0.0) - f1(x, 0.0, 1.0) + f1(x, 0.0, 0.0)
    f0 = lambda x: f1(x, 0.0, 0.0)
    return {
        "xi_x": dx(f0, 1, h1),
        "xi_s": ds(0.0),
        "xi_xx": dx(f0, 2, h2) / 2.0,
        "xi_xr": dx(dr, 1, h1),
        "xi_xs": dx(ds, 1, h1),
        "xi_rs": drs(0.0),
        "xi_xxx": dx(f0, 3, h2) / 6.0,
        "xi_xxr": dx(dr, 2, h2) / 2.0,
        "xi_xxs": dx(ds, 2, h2) / 2.0,
        "xi_xrs": dx(drs, 1, h1),
        "chi_x": (f2(1.0, 0.0) - f2(-1.0, 0.0)) / 2.0,
        "chi_y": (f2(0.0, 1.0) - f2(0.0, -1.0)) / 2.0,
        "chi_xy": f2(1.0, 1.0) - f2(1.0, 0.0) - f2(0.0, 1.0) + f2(0.0, 0.0),
    }


def test_series_coefficients_match_mixed_partials():
    rng = np.random.default_rng(21)
    for _ in range(20):
        spec = ProtocolSpec.compound_tcp(
            alpha=rng.uniform(0.08, 0.3),
            k=rng.uniform(0.6, 0.85),
            beta=rng.uniform(0.35, 0.65),
        )
        red = RedParams(
            b_min=rng.uniform(30.0, 80.0),
            b_max=rng.uniform(300.0, 700.0),
            p_max=rng.uniform(0.08, 0.2),
        )
        net = NetworkParams(
            c_per_flow=rng.uniform(80.0, 300.0), rtt=rng.uniform(0.05, 0.4)
        )
        eq = equilibrium_no_averaging(spec, red, net)
        tay = taylor_coefficients(spec, red, net, eq)
        ref = _series_vs_partials(spec, red, net, eq)
        for name, value in ref.items():
            assert getattr(tay, name) == pytest.approx(value, rel=1e-4), name


def test_queue_equation_coefficients_closed_forms(compound, red_defaults):
    net = NetworkParams(c_per_flow=100.0, rtt=0.2)
    eq = equilibrium_no_averaging(compound, red_defaults, net)
    tay = taylor_coefficients(compound, red_defaults, net, eq)
    assert tay.chi_x == pytest.approx((1 - eq.p_star) / net.rtt, rel=1e-12)
    assert tay.chi_y == pytest.approx(
        -red_defaults.rho * eq.w_star / net.rtt, rel=1e-12
    )


def test_linear_terms_agree_with_stability_coefficients(compound, red_defaults):
    net = NetworkParams(c_per_flow=100.0, rtt=0.2)
    eq = equilibrium_no_averaging(compound, red_defaults, net)
    tay = taylor_coefficients(compound, red_defaults, net, eq)
    co = linear_coefficients(K.NO_AVERAGING, compound, net, eq, red=red_defaults)
    co2 = char_coefficients_from_taylor(tay)
    assert co2.a1 == pytest.approx(co.a1, rel=1e-10)
    assert co2.a2 == pytest.approx(co.a2, rel=1e-10)
    assert co2.a3 == pytest.approx(co.a3, rel=1e-10)


# -- eigendata ------------------------------------------------------------------

def test_orthonormality_and_eigen_residual(hopf_point):
    spec, red, net_c, eq, tay, co, kc, omega0 = hopf_point
    eig = eigen_data(tay, omega0, kc, net_c.rtt)
    r1, r2 = orthonormality_residuals(eig, tay)
    assert r1 < 1e-10
    assert r2 < 1e-10
    assert eigen_residual(eig, tay) < 1e-10


def test_eigen_residual_detects_wrong_frequency(hopf_point):
    spec, red, net_c, eq, tay, co, kc, omega0 = hopf_point
    eig = eigen_data(tay, 1.05 * omega0, kc, net_c.rtt)
    assert eigen_residual(eig, tay) > 1e-4


# -- resonance coefficients ------------------------------------------------------

def test_conjugate_symmetry_of_collected_coefficients(hopf_point):
    spec, red, net_c, eq, tay, co, kc, omega0 = hopf_point
    eig = eigen_data(tay, omega0, kc, net_c.rtt)
    g = g_coefficients(tay, eig)
    for j in range(2):
        assert g.F02[j] == g.F20[j].conjugate()
        assert g.F11[j].imag == pytest.approx(0.0, abs=1e-14)


def test_manifold_correction_operator_residuals(hopf_point):
    # the solved quadratic manifold terms satisfy the defining operator
    # equations at theta = 0, written through the delayed linear operator
    spec, red, net_c, eq, tay, co, kc, omega0 = hopf_point
    tau = net_c.rtt
    eig = eigen_data(tay, omega0, kc, tau)
    g = g_coefficients(tay, eig)
    q0 = (eig.c, eig.c * eig.phi1)
    q0bar = (q0[0].conjugate(), q0[1].conjugate())
    iw = 1j * omega0
    lhs1 = (
        g.g20 * q0[0] + g.g02.conjugate() * q0bar[0],
        g.g20 * q0[1] + g.g02.conjugate() * q0bar[1],
    )
    rhs1 = (
        g.F20[0]
        - ((2 * iw - kc * tay.xi_x) * g.w20_0[0] - kc * tay.xi_s * g.w20_tau[1]),
        g.F20[1]
        - (-kc * tay.chi_x * g.w20_0[0] + (2 * iw - kc * tay.chi_y) * g.w20_0[1]),
    )
    lhs2 = (
        g.g11 * q0[0] + g.g11.conjugate() * q0bar[0],
        g.g11 * q0[1] + g.g11.conjugate() * q0bar[1],
    )
    rhs2 = (
        g.F11[0] - (-kc * tay.xi_x * g.w11_0[0] - kc * tay.xi_s * g.w11_tau[1]),
        g.F11[1] - (-kc * tay.chi_x * g.w11_0[0] - kc * tay.chi_y * g.w11_0[1]),
    )
    for a, b in zip(lhs1 + lhs2, rhs1 + rhs2):
        assert abs(a - b) < 1e-10


class Poly:
    """Truncated bivariate polynomial in (z, zbar) with complex coefficients."""

    def __init__(self, coeffs=None):
        self.c = dict(coeffs or {})

    def __mul__(self, other):
        out = {}
        for (i, j), a in self.c.items():
            for (k, l), b in other.c.items():
                if i + k + j + l > 3:
                    continue
                key = (i + k, j + l)
                out[key] = out.get(key, 0.0) + a * b
        return Poly(out)

    def scaled(self, s):
        return Poly({k: s * v for k, v in self.c.items()})

    def plus(self, other):
        out = dict(self.c)
        for k, v in other.c.items():
            out[k] = out.get(k, 0.0) + v
        return Poly(out)

    def get(self, i, j):
        return self.c.get((i, j), 0.0)


def test_collection_against_polynomial_expansion_oracle(hopf_point):
    # rebuild every collected coefficient by brute-force expansion of the
    # nonlinear terms over z-monomials, using the same manifold corrections
    spec, red, net_c, eq, tay, co, kc, omega0 = hopf_point
    tau = net_c.rtt
    for phase in (0.0, 0.9):
        eig = eigen_data(tay, omega0, kc, tau, phase=phase)
        g = g_coefficients(tay, eig)
        c = eig.c
        em = cmath.exp(-1j * omega0 * tau)

        def mk(P, Q, w20, w11):
            return Poly({
                (1, 0): P, (0, 1): Q,
                (2, 0): 0.5 * w20, (1, 1): w11,
                (0, 2): 0.5 * w20.conjugate(),
            })

        ux = mk(c, c.conjugate(), g.w20_0[0], g.w11_0[0])
        ur = mk(c * em, (c * em).conjugate(), g.w20_tau[0], g.w11_tau[0])
        us = mk(c * eig.phi1 * em, (c * eig.phi1 * em).conjugate(),
                g.w20_tau[1], g.w11_tau[1])
        uy = mk(c * eig.phi1, (c * eig.phi1).conjugate(), g.w20_0[1], g.w11_0[1])

        F1 = (
            (ux * ux).scaled(tay.xi_xx)
            .plus((ux * ur).scaled(tay.xi_xr))
            .plus((ux * us).scaled(tay.xi_xs))
            .plus((ur * us).scaled(tay.xi_rs))
            .plus((ux * ux * ux).scaled(tay.xi_xxx))
            .plus((ux * ux * ur).scaled(tay.xi_xxr))
            .plus((ux * ux * us).scaled(tay.xi_xxs))
            .plus((ux * ur * us).scaled(tay.xi_xrs))
        ).scaled(kc)
        F2 = (ux * uy).scaled(kc * tay.chi_xy)

        for j, F in enumerate((F1, F2)):
            assert g.F20[j] == pytest.approx(2 * F.get(2, 0), rel=1e-12, abs=1e-15)
            assert g.F11[j] == pytest.approx(F.get(1, 1), rel=1e-12, abs=1e-15)
            assert g.F02[j] == pytest.approx(2 * F.get(0, 2), rel=1e-12, abs=1e-15)
            assert g.F21[j] == pytest.approx(2 * F.get(2, 1), rel=1e-12, abs=1e-15)


def test_resonance_scaling_homogeneity(hopf_point):
    # quadratic coefficients scaled by s (cubics zeroed): g20, g11, g02 scale
    # by s and the manifold-dependent part of g21 scales by s^2
    spec, red, net_c, eq, tay, co, kc, omega0 = hopf_point
    eig = eigen_data(tay, omega0, kc, net_c.rtt)
    base = replace(tay, xi_xxx=0.0, xi_xxr=0.0, xi_xxs=0.0, xi_xrs=0.0)
    s = 3.0
    scaled = replace(
        base,
        xi_xx=s * base.xi_xx, xi_xr=s * base.xi_xr, xi_xs=s * base.xi_xs,
        xi_rs=s * base.xi_rs, chi_xy=s * base.chi_xy,
    )
    g1 = g_coefficients(base, eig)
    g2 = g_coefficients(scaled, eig)
    assert g2.g20 == pytest.approx(s * g1.g20, rel=1e-12)
    assert g2.g11 == pytest.approx(s * g1.g11, rel=1e-12)
    assert g2.g02 == pytest.approx(s * g1.g02, rel=1e-12)
    assert g2.g21 == pytest.approx(s**2 * g1.g21, rel=1e-12)


# -- classification --------------------------------------------------------------

def test_classification_at_default_point(compound, red_defaults):
    net = NetworkParams(c_per_flow=100.0, rtt=0.1)
    res, eig, g = classify_at_hopf(compound, red_defaults, net)
    assert res.mu2 > 0
    assert res.beta2 < 0
    assert res.bifurcation == "supercritical"
    assert res.orbit == "orbitally-stable"
    alpha_prime = -res.beta2 / 2.0 / res.mu2
    assert res.mu2 * alpha_prime == pytest.approx(-res.beta2 / 2.0, abs=1e-10)
    report = classification_report(res)
    assert '"type": "supercritical"' in report
    assert '"orbit": "orbitally-stable"' in report


def test_classification_phase_invariance(compound, red_defaults):
    net = NetworkParams(c_per_flow=100.0, rtt=0.1)
    base, _, _ = classify_at_hopf(compound, red_defaults, net, tau_c=TAU_C_100)
    for phase in (math.pi / 4, math.pi / 2):
        res, _, _ = classify_at_hopf(
            compound, red_defaults, net, tau_c=TAU_C_100, phase=phase
        )
        assert res.c1.real == pytest.approx(base.c1.real, rel=1e-10)
        assert res.mu2 == pytest.approx(base.mu2, rel=1e-10)


def test_classification_stable_in_capacity_neighborhood(compound, red_defaults):
    for c in np.linspace(90.0, 110.0, 10):
        net = NetworkParams(c_per_flow=float(c), rtt=0.1)
        res, _, _ = classify_at_hopf(compound, red_defaults, net)
        assert res.mu2 > 0
        assert res.beta2 < 0


def test_supercritical_amplitude_follows_square_root_scaling(
    compound, red_defaults
):
    """The emergent cycle amplitude scales as the square root of the distance
    past the critical rate multiplier, as the supercritical normal form
    predicts. (The truncated cubic's absolute amplitude saturates early at
    this weakly nonlinear point, so the scaling law is the sharp check.)"""
    net = NetworkParams(c_per_flow=100.0, rtt=0.1)
    res, _, _ = classify_at_hopf(compound, red_defaults, net, tau_c=TAU_C_100)
    amplitudes = {}
    for rel_mu, horizon in ((0.02, 900.0), (0.04, 500.0)):
        kap = (1.0 + rel_mu) * res.kappa_c
        netk = NetworkParams(c_per_flow=100.0, rtt=TAU_C_100, kappa=kap)
        eq = equilibrium_no_averaging(compound, red_defaults, netk)
        traj = integrate_dde(
            K.NO_AVERAGING, compound, netk, red=red_defaults,
            initial_history=default_history(eq, 1.02), horizon=horizon,
            steps_per_delay=200,
        )
        amplitudes[rel_mu] = oscillation_metrics(traj, horizon - 60.0).amplitude
    ratio = amplitudes[0.04] / amplitudes[0.02]
    assert ratio == pytest.approx(math.sqrt(2.0), rel=0.20)


def test_classification_consistent_along_hopf_curve(compound, red_defaults):
    # at a delay off its critical value the critical rate multiplier moves
    # away from one; the machinery evaluates every operator there and the
    # classification stays supercritical/orbitally-stable
    net = NetworkParams(c_per_flow=100.0, rtt=0.1)
    for factor, expect_kappa_above_one in ((0.9, True), (1.05, False)):
        res, eig, g = classify_at_hopf(
            compound, red_defaults, net, tau_c=factor * TAU_C_100
        )
        assert (res.kappa_c > 1.0) is expect_kappa_above_one
        assert res.mu2 > 0
        assert res.beta2 < 0
        tay = taylor_coefficients(
            compound, red_defaults,
            NetworkParams(c_per_flow=100.0, rtt=factor * TAU_C_100),
            equilibrium_no_averaging(
                compound, red_defaults,
                NetworkParams(c_per_flow=100.0, rtt=factor * TAU_C_100),
            ),
        )
        assert eigen_residual(eig, tay) < 1e-10
