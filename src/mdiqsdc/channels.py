"""Pauli noise models: the depolarizing channel, channel composition, and
the mapping between Bell-diagonal weights and measured error rates.

The symmetric depolarizing channel with parameter p replaces a qubit by the
maximally mixed state with probability p, equivalently applies X, Y, or Z
each with probability p/4. Acting on one half of a singlet it produces the
Bell-diagonal weights (1 - 3p/4, p/4, p/4, p/4), so each same-basis check
disagrees with probability p/2. That single-use error rate x = p/2 is the
canonical sweep axis for all capacity curves.
"""

from __future__ import annotations

from dataclasses import dataclass

from .elementwise import check_range
from .quantum import (
    ANTICOMMUTES,
    PAULI_OF_BELL,
    PAULI_PRODUCT,
    BellDiagonal,
    DensityMatrix,
    PauliLabel,
    pauli_channel,
    validate_probability_vector,
)


@dataclass(frozen=True)
class PauliDistribution:
    """Probabilities of the error operators I, X, Y, Z on one qubit: floats,
    or equal-length float64 arrays holding one distribution per element."""

    probabilities: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "probabilities",
            validate_probability_vector(self.probabilities, name="Pauli distribution"),
        )

    def __getitem__(self, label: PauliLabel | int) -> float:
        return self.probabilities[int(label)]


IDENTITY_DIST = PauliDistribution((1.0, 0.0, 0.0, 0.0))


@dataclass(frozen=True)
class ErrorRates:
    """Check-measurement error rates per basis (relative to the singlet):
    floats, or equal-length float64 arrays."""

    eps_z: float
    eps_x: float
    eps_y: float

    def __post_init__(self) -> None:
        for name in ("eps_z", "eps_x", "eps_y"):
            check_range(getattr(self, name), 0.0, 1.0, f"{name}=")

    def in_basis(self, basis: PauliLabel) -> float:
        if basis == PauliLabel.Z:
            return self.eps_z
        if basis == PauliLabel.X:
            return self.eps_x
        if basis == PauliLabel.Y:
            return self.eps_y
        raise ValueError("basis must be X, Y, or Z")


def depolarize(dm: DensityMatrix, p: float, qubit: int) -> DensityMatrix:
    """Depolarize one qubit of every state of the stack:
    rho -> p * (I/2 on that qubit) + (1-p) * rho, the Pauli channel with
    weights (1 - 3p/4, p/4, p/4, p/4). ``p`` is a float, or a 1-D array with
    one value per index of the stack's first leading axis."""
    check_range(p, 0.0, 1.0, "channel parameter ")
    quarter = 0.25 * p
    return pauli_channel(dm, (1.0 - 0.75 * p, quarter, quarter, quarter), qubit)


def depolarizing_pauli_dist(p: float) -> PauliDistribution:
    """Pauli-error weights of the depolarizing channel with parameter p."""
    check_range(p, 0.0, 1.0, "channel parameter ")
    quarter = 0.25 * p
    return PauliDistribution((1.0 - 0.75 * p, quarter, quarter, quarter))


def convolve(d1: PauliDistribution, d2: PauliDistribution) -> PauliDistribution:
    """Net error distribution of two independent Pauli channels in series."""
    out = [0.0, 0.0, 0.0, 0.0]
    for i in range(4):
        for j in range(4):
            out[PAULI_PRODUCT[i][j]] += d1.probabilities[i] * d2.probabilities[j]
    return PauliDistribution(tuple(out))


def pauli_dist_from_bell_diagonal(d: BellDiagonal) -> PauliDistribution:
    """Pauli errors on one half of the singlet that give the Bell-diagonal pair ``d``."""
    probs = [0.0] * 4
    for bell in range(4):
        probs[int(PAULI_OF_BELL[bell])] = d.deltas[bell]
    return PauliDistribution(tuple(probs))


def error_rate_in_basis(dist: PauliDistribution, basis: PauliLabel) -> float:
    """Probability that an error from ``dist`` flips a same-basis check."""
    if basis == PauliLabel.I:
        raise ValueError("basis must be X, Y, or Z")
    return sum(
        dist.probabilities[pauli]
        for pauli in range(4)
        if ANTICOMMUTES[pauli][int(basis)]
    )


def error_rates(dist: PauliDistribution) -> ErrorRates:
    """Per-basis check error rates of a singlet hit by the error process ``dist``."""
    return ErrorRates(
        eps_z=error_rate_in_basis(dist, PauliLabel.Z),
        eps_x=error_rate_in_basis(dist, PauliLabel.X),
        eps_y=error_rate_in_basis(dist, PauliLabel.Y),
    )


def error_rates_from_deltas(d: BellDiagonal) -> ErrorRates:
    """Per-basis check error rates of a Bell-diagonal pair.

    With the singlet as reference, a check errs when the pair's Pauli frame
    anticommutes with the measurement basis: eps_z = delta_3 + delta_4,
    eps_x = delta_2 + delta_4, eps_y = delta_2 + delta_3.
    """
    return error_rates(pauli_dist_from_bell_diagonal(d))
