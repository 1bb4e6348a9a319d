"""Pauli noise models: the depolarizing channel, channel composition, and
the error rate a same-basis check sees under a Pauli error law.

The symmetric depolarizing channel with parameter p replaces a qubit by the
maximally mixed state with probability p, equivalently applies X, Y, or Z
each with probability p/4. Acting on one half of a singlet it produces the
Bell-diagonal weights (1 - 3p/4, p/4, p/4, p/4), so each same-basis check
disagrees with probability p/2. That single-use error rate x = p/2 is the
canonical sweep axis for all capacity curves. Every law here is a
:class:`~mdiqsdc.quantum.PauliDistribution`, the package's one law over the
four Pauli labels.
"""

from __future__ import annotations

from .elementwise import check_range
from .quantum import (
    ANTICOMMUTES,
    PAULI_PRODUCT,
    DensityMatrix,
    PauliDistribution,
    PauliLabel,
    pauli_channel,
)

IDENTITY_DIST = PauliDistribution((1.0, 0.0, 0.0, 0.0))


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


# (i, PAULI_PRODUCT[i][j], j) for i, then j, in 0..3: the order convolve sums in
_PRODUCT_TERMS = tuple((i, PAULI_PRODUCT[i][j], j) for i in range(4) for j in range(4))


def convolve(d1: PauliDistribution, d2: PauliDistribution) -> PauliDistribution:
    """Net error distribution of two independent Pauli channels in series:
    label k collects d1[i] * d2[j] over PAULI_PRODUCT[i][j] == k, summed from
    0.0 in the order of i, then j."""
    p1, p2 = d1.probabilities, d2.probabilities
    out = [0.0, 0.0, 0.0, 0.0]
    for i, k, j in _PRODUCT_TERMS:
        out[k] += p1[i] * p2[j]
    return PauliDistribution(tuple(out))


def error_rate_in_basis(dist: PauliDistribution, basis: PauliLabel) -> float:
    """Probability that an error from ``dist`` flips a same-basis check: the
    singlet reference is anti-correlated in every basis, so a check errs when
    the error anticommutes with the basis. Thus eps_z = d[X] + d[Y],
    eps_x = d[Y] + d[Z] and eps_y = d[X] + d[Z]."""
    if basis == PauliLabel.I:
        raise ValueError("basis must be X, Y, or Z")
    return sum(
        dist.probabilities[pauli]
        for pauli in range(4)
        if ANTICOMMUTES[pauli][int(basis)]
    )
