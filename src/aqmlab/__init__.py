"""Congestion-control analysis laboratory: fluid models of window-based TCP
under RED and threshold queue policies, their stability and bifurcation
structure, and a packet-level discrete-event simulator for validation."""

from .params import (
    NetworkParams,
    ProtocolSpec,
    RedParams,
    ThresholdParams,
)
from .fluid import (
    Equilibrium,
    FluidSystemKind,
    Trajectory,
    equilibrium_no_averaging,
    equilibrium_threshold,
    equilibrium_with_averaging,
    integrate_dde,
    oscillation_metrics,
)

__all__ = [
    "NetworkParams",
    "ProtocolSpec",
    "RedParams",
    "ThresholdParams",
    "Equilibrium",
    "FluidSystemKind",
    "Trajectory",
    "equilibrium_no_averaging",
    "equilibrium_threshold",
    "equilibrium_with_averaging",
    "integrate_dde",
    "oscillation_metrics",
]

__version__ = "0.1.0"
