"""Pauli noise models: the depolarizing channel, channel composition, and
the error rate a same-basis check sees under a Pauli error law.

The symmetric depolarizing channel with parameter p replaces a qubit by the
maximally mixed state with probability p, equivalently applies X, Y, or Z
each with probability p/4. Acting on one half of a singlet it produces the
Bell-diagonal weights (1 - 3p/4, p/4, p/4, p/4), so each same-basis check
disagrees with probability p/2. That single-use error rate x = p/2 is the
canonical sweep axis for all capacity curves. Every law here is a
:class:`~mdiqsdc.quantum.PauliDistribution`, the package's one law over the
four Pauli labels, and a float law and a grid of float64 array laws are
composed and checked by the same code.
"""

from __future__ import annotations

from .elementwise import check_range
from .quantum import (
    ANTICOMMUTES,
    DensityMatrix,
    PauliDistribution,
    PauliLabel,
    pauli_channel,
)

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
    """Net error distribution of two independent Pauli channels in series:
    label k collects d1[i] * d2[j] over PAULI_PRODUCT[i][j] == k (the Klein
    group Z2 x Z2, so j is i XOR k), summed from 0.0 in the order of i."""
    a0, a1, a2, a3 = d1.probabilities
    b0, b1, b2, b3 = d2.probabilities
    return PauliDistribution(
        (
            0.0 + a0 * b0 + a1 * b1 + a2 * b2 + a3 * b3,
            0.0 + a0 * b1 + a1 * b0 + a2 * b3 + a3 * b2,
            0.0 + a0 * b2 + a1 * b3 + a2 * b0 + a3 * b1,
            0.0 + a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0,
        )
    )


# the two labels that anticommute with each basis, ascending; none for I
_ANTICOMMUTING = tuple(
    tuple(pauli for pauli in range(4) if ANTICOMMUTES[pauli][basis]) for basis in range(4)
)


def error_rate_in_basis(dist: PauliDistribution, basis: PauliLabel) -> float:
    """Probability that an error from ``dist`` flips a same-basis check: the
    singlet reference is anti-correlated in every basis, so a check errs when
    the error anticommutes with the basis. Thus eps_z = d[X] + d[Y],
    eps_x = d[Y] + d[Z] and eps_y = d[X] + d[Z], each summed from 0.0."""
    if basis == PauliLabel.I:
        raise ValueError("basis must be X, Y, or Z")
    a, b = _ANTICOMMUTING[basis]
    p = dist.probabilities
    return 0.0 + p[a] + p[b]
