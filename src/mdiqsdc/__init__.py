"""Simulator and secrecy-capacity calculator for measurement-device-
independent quantum secure direct communication protocols."""

from .channels import convolve, depolarize, depolarizing_pauli_dist
from .curves import analytic_point, zero_crossing
from .infotheory import (
    CapacityResult,
    binary_entropy,
    eve_info_mdi_ts,
    secrecy_capacity,
    shannon_entropy,
)
from .protocol import (
    AnalyticPoint,
    AttackModel,
    NoisePlacement,
    Protocol,
    ProtocolConfig,
    TranscriptStats,
    run,
    swap_correction,
)
from .quantum import (
    BellLabel,
    DensityMatrix,
    PauliDistribution,
    PauliLabel,
    PureState,
    apply_pauli,
    bell_measure,
    bell_state,
    holevo_bound,
    partial_trace,
    product_decompose,
    purify_bell_diagonal,
    von_neumann_entropy,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticPoint",
    "AttackModel",
    "BellLabel",
    "CapacityResult",
    "DensityMatrix",
    "NoisePlacement",
    "PauliDistribution",
    "PauliLabel",
    "Protocol",
    "ProtocolConfig",
    "PureState",
    "TranscriptStats",
    "analytic_point",
    "apply_pauli",
    "bell_measure",
    "bell_state",
    "binary_entropy",
    "convolve",
    "depolarize",
    "depolarizing_pauli_dist",
    "eve_info_mdi_ts",
    "holevo_bound",
    "partial_trace",
    "product_decompose",
    "purify_bell_diagonal",
    "run",
    "secrecy_capacity",
    "shannon_entropy",
    "swap_correction",
    "von_neumann_entropy",
    "zero_crossing",
]
