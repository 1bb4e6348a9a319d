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
from .oracle import swap_correction
from .protocol import (
    AnalyticPoint,
    AttackModel,
    NoisePlacement,
    Protocol,
    ProtocolConfig,
    TranscriptStats,
    run,
)
from .quantum import (
    BellLabel,
    DensityMatrix,
    PauliDistribution,
    PauliLabel,
    apply_pauli,
    bell_measure,
    bell_state,
    holevo_bound,
    product_decompose,
    pure_density,
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
    "product_decompose",
    "pure_density",
    "purify_bell_diagonal",
    "run",
    "secrecy_capacity",
    "shannon_entropy",
    "swap_correction",
    "von_neumann_entropy",
    "zero_crossing",
]
