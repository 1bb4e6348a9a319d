"""Entropies and secrecy-capacity lower bounds for the simulated protocols.

Every protocol's message entropy is :func:`shannon_entropy` of its message
law, the law of decoded (-) encoded on an arrived message round: four
symbol differences for the entanglement protocols, a correct or flipped bit
for the single-photon ones. The law is checked where it is made, so the
entropy takes its probabilities as given.

Raw capacities may be negative; they are preserved as computed (the zero
crossing is a first-class result) with the clamped value alongside. Every
function takes floats or arrays.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .elementwise import check_range, maximum, neg_p_log2_p

# Largest gain gap eta: every leak term is at most 2 bits, so eta times a
# leak, and so every capacity, stays finite.
ETA_MAX = sys.float_info.max / 2.0


@dataclass(frozen=True)
class CapacityResult:
    """Secrecy-capacity bound; ``raw`` may be negative, ``clamped`` is >= 0."""

    raw: float

    @property
    def clamped(self) -> float:
        return maximum(self.raw, 0.0)


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2 (1-x), with 0 log 0 = 0."""
    check_range(x, 0.0, 1.0, "binary entropy argument ")
    return neg_p_log2_p(x) + neg_p_log2_p(1.0 - x)


def shannon_entropy(probabilities: tuple[float, ...]) -> float:
    """Shannon entropy, in bits, of a law given as its probabilities, any
    number of them, summed from 0.0 left to right; for a two-entry law
    ``(1 - x, x)`` it equals :func:`binary_entropy` of x bit for bit."""
    total = 0.0
    for p in probabilities:
        total = total + neg_p_log2_p(p)
    return total


def secrecy_capacity(bits, message_entropy, eve_info, *, q: float, eta: float):
    """Q [bits - message_entropy - eta * eve_info], the form every bound takes:

    * entanglement protocols (MDI two-step and its non-MDI baseline):
      Q {2 - H(E) - eta [h(eps_z) + h(eps_x)]}
    * single-photon MDI protocol: Q [1 - h(e) - eta h(eps_u)]
    * non-MDI single-photon baseline: Q [1 - h(e) - eta h(min(eps_x + eps_z, 1/2))]

    Each argument may be a float or an array, the arrays of one shape; eta
    must lie in [0, ETA_MAX].
    """
    check_range(q, 0.0, 1.0, "gain q=")
    check_range(eta, 0.0, ETA_MAX, "gain gap eta=")
    return q * (bits - message_entropy - eta * eve_info)


def eve_info_mdi_ts(eps_z: float, eps_x: float) -> float:
    """Upper bound on the eavesdropper's information per symbol: h(eps_z) + h(eps_x)."""
    return binary_entropy(check_range(eps_z, 0.0, 1.0, "eps_z=")) + binary_entropy(
        check_range(eps_x, 0.0, 1.0, "eps_x=")
    )
