"""The power-law window update functions and the drop probability functions
of each queue policy, with the analytic derivatives the stability machinery needs.

All functions are pure; increase/decrease derivatives are closed-form, not
numeric, because the normal-form computation consumes second and third
derivatives where finite differences would be too noisy.
"""

from __future__ import annotations

from .errors import DomainError
from .params import NetworkParams, ProtocolSpec, RedParams, ThresholdParams


def _power_law_increase(alpha: float, k: float, w: float, order: int) -> float:
    # alpha * w^(k-1) and derivatives
    coeff = alpha
    expo = k - 1.0
    for _ in range(order):
        coeff *= expo
        expo -= 1.0
    return coeff * w**expo


def increase_rate(spec: ProtocolSpec, w: float, order: int = 0) -> float:
    """Per-acknowledgement window increase i(w), or its derivative.

    order 0 returns i(w); orders 1..3 return exact analytic derivatives.
    """
    if not w > 0:
        raise DomainError(f"window must be > 0, got {w}")
    if not 0 <= order <= 3:
        raise DomainError(f"unsupported derivative order {order}")
    return _power_law_increase(spec.alpha, spec.k, w, order)


def decrease_rate(spec: ProtocolSpec, w: float, order: int = 0) -> float:
    """Per-drop window decrease d(w), or its first derivative."""
    if not w > 0:
        raise DomainError(f"window must be > 0, got {w}")
    if not 0 <= order <= 1:
        raise DomainError(f"unsupported derivative order {order}")
    return spec.beta * w if order == 0 else spec.beta


def red_drop_probability(avg_q: float, red: RedParams) -> float:
    """RED drop probability as a piecewise function of the averaged queue."""
    if avg_q < 0:
        raise DomainError(f"average queue must be >= 0, got {avg_q}")
    if avg_q <= red.b_min:
        return 0.0
    if avg_q < red.b_max:
        p = red.rho * (avg_q - red.b_min)
    elif avg_q < 2.0 * red.b_max:
        p = red.eta * avg_q - (1.0 - 2.0 * red.p_max)
    else:
        return 1.0
    # min(max(p, 0.0), 1.0) to the bit, without the calls: this runs once
    # per packet arrival at a RED queue
    p = 0.0 if 0.0 > p else p
    return 1.0 if 1.0 < p else p


def threshold_drop_probability(
    w: float, net: NetworkParams, th: ThresholdParams
) -> float:
    """M/M/1-style drop probability (w / (C*rtt))^q_th, clamped to [0, 1].

    Clamping keeps the fluid right-hand side defined for transient w above
    the bandwidth-delay product.
    """
    if not w > 0:
        raise DomainError(f"window must be > 0, got {w}")
    ratio = w / (net.c_per_flow * net.rtt)
    if ratio >= 1.0:
        return 1.0
    return ratio**th.q_th


def threshold_drop_derivative(
    w: float, net: NetworkParams, th: ThresholdParams
) -> float:
    """d/dw of the threshold drop probability (interior branch)."""
    if not w > 0:
        raise DomainError(f"window must be > 0, got {w}")
    bdp = net.c_per_flow * net.rtt
    ratio = w / bdp
    if ratio >= 1.0:
        return 0.0
    return th.q_th * ratio ** (th.q_th - 1.0) / bdp
