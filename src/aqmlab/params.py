"""Parameter containers for protocols, queue policies and the network."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from .errors import DomainError


@dataclass(frozen=True)
class ProtocolSpec:
    """Power-law window update: increase alpha*w^(k-1) per ack, decrease
    beta*w per drop. Reno and Illinois are the k = 0 members."""

    alpha: float = 0.125
    k: float = 0.75
    beta: float = 0.5

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise DomainError(f"alpha must be positive and finite, got {self.alpha}")
        # k = 0 is admitted so that the classic AIMD protocol (alpha=1, k=0,
        # beta=1/2) is expressible as a special case of the same family.
        if not 0 <= self.k < 1:
            raise DomainError(f"k must be in [0, 1), got {self.k}")
        if not 0 < self.beta < 1:
            raise DomainError(f"beta must be in (0, 1), got {self.beta}")

    @classmethod
    def compound_tcp(cls, **constants):
        """Compound TCP: the field defaults, with any of them overridden."""
        return cls(**constants)

    @classmethod
    def reno(cls):
        return cls(1.0, 0.0, 0.5)

    @classmethod
    def illinois_tcp(cls, alpha_max=10.0, beta_min=0.125):
        return cls(alpha_max, 0.0, beta_min)


@dataclass(frozen=True)
class RedParams:
    """RED queue policy constants, for the fluid models and the packet queue.

    b_min/b_max are the thresholds in packets and p_max the drop probability
    reached at b_max. The queue is averaged with weight w_q per arrival in
    the packet queue and with weight gamma per packet of capacity in the
    fluid model. The thresholds come first, in the packet queue's order.
    """

    b_min: float = 50.0
    b_max: float = 550.0
    p_max: float = 0.1
    w_q: float = 0.002
    gamma: float = 1e-4
    # the slopes of the drop probability between the thresholds and above
    # b_max, set once: the packet queue's drop law reads them on every arrival
    rho: float = field(init=False, repr=False, compare=False)
    eta: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, weight in (("gamma", self.gamma), ("w_q", self.w_q)):
            if not 0 < weight <= 1:
                raise DomainError(f"{name} must be in (0, 1], got {weight}")
        if not 0 < self.b_min < self.b_max < math.inf:
            raise DomainError(
                f"need 0 < b_min < b_max < inf, got ({self.b_min}, {self.b_max})"
            )
        if not 0 < self.p_max < 1:
            raise DomainError(f"p_max must be in (0, 1), got {self.p_max}")
        object.__setattr__(self, "rho", self.p_max / (self.b_max - self.b_min))
        object.__setattr__(self, "eta", (1.0 - self.p_max) / self.b_max)
        # the equilibrium queue divides by rho
        for name in ("rho", "eta"):
            slope = getattr(self, name)
            if not sys.float_info.min <= slope < math.inf:
                raise DomainError(
                    f"{name} = {slope!r} is not a positive, finite, normal float; "
                    "p_max and the thresholds are too far apart in scale"
                )


@dataclass(frozen=True)
class ThresholdParams:
    """Deterministic drop-above-threshold queue policy. The packet queue
    holds whole packets: it admits while it holds fewer than int(q_th)."""

    q_th: float = 15.0

    def __post_init__(self):
        if not 1 <= self.q_th < math.inf:
            raise DomainError(f"q_th must be >= 1 and finite, got {self.q_th}")


@dataclass(frozen=True)
class NetworkParams:
    """Per-flow capacity (pkts/s), round-trip propagation delay (s), the
    dimensionless rate multiplier kappa, and an optional finite buffer."""

    c_per_flow: float
    rtt: float
    kappa: float = 1.0
    buffer: float | None = None

    def __post_init__(self):
        for name in ("c_per_flow", "rtt", "kappa"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise DomainError(f"{name} must be positive and finite, got {value}")

    @property
    def bdp(self) -> float:
        """Per-flow bandwidth-delay product, in packets."""
        return self.c_per_flow * self.rtt
