"""Entropies and secrecy-capacity lower bounds for the simulated protocols.

Raw capacities may be negative; they are preserved as computed (the zero
crossing is a first-class result) with the clamped value alongside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quantum import validate_probability_vector


@dataclass(frozen=True)
class ErrorVector:
    """Distribution of two-bit message-symbol errors.

    Indexed by the symbol difference decoded (-) encoded in the order
    00, 01, 10, 11; the first component is the no-error probability.
    """

    probabilities: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "probabilities",
            validate_probability_vector(self.probabilities, name="error vector"),
        )

    def __getitem__(self, index: int) -> float:
        return self.probabilities[index]


NO_ERRORS = ErrorVector((1.0, 0.0, 0.0, 0.0))


@dataclass(frozen=True)
class CapacityResult:
    """Secrecy-capacity bound; ``raw`` may be negative, ``clamped`` is >= 0."""

    raw: float

    @property
    def clamped(self) -> float:
        return max(self.raw, 0.0)


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2 (1-x), with 0 log 0 = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary entropy argument {x!r} outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def shannon_entropy(v: ErrorVector) -> float:
    """Shannon entropy of a symbol-error distribution, in [0, 2] bits."""
    total = 0.0
    for p in v.probabilities:
        if p > 0.0:
            total -= p * math.log2(p)
    return max(total, 0.0)


def _log2_each(values: np.ndarray) -> np.ndarray:
    # math.log2 per element: np.log2's vectorised kernels may differ from it
    # in the last bit, and the array functions must match the scalar ones
    return np.fromiter(map(math.log2, values.tolist()), dtype=np.float64, count=values.size)


def binary_entropies(xs: np.ndarray) -> np.ndarray:
    """:func:`binary_entropy` of every element, bit for bit, with the same check."""
    xs = np.asarray(xs, dtype=np.float64)
    outside = ~((0.0 <= xs) & (xs <= 1.0))
    if outside.any():
        binary_entropy(float(xs[outside][0]))  # raises
    out = np.zeros_like(xs)
    inner = (xs != 0.0) & (xs != 1.0)
    x = xs[inner]
    out[inner] = -x * _log2_each(x) - (1.0 - x) * _log2_each(1.0 - x)
    return out


def shannon_entropies(rows: np.ndarray) -> np.ndarray:
    """:func:`shannon_entropy` of every row of a validated (n, 4) array of
    symbol-error distributions, bit for bit."""
    total = np.zeros(len(rows))
    for k in range(rows.shape[1]):
        p = rows[:, k]
        positive = p > 0.0
        term = np.zeros_like(p)  # total - 0.0 == total, as when a zero is skipped
        term[positive] = p[positive] * _log2_each(p[positive])
        total = total - term
    return np.where(0.0 > total, 0.0, total)  # max(total, 0.0)


def _check_unit(name: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name}={value!r} outside [0, 1]")
    return float(value)


def _check_gains(q: float, eta: float) -> tuple[float, float]:
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"gain q={q!r} outside [0, 1]")
    if not math.isfinite(eta) or eta < 0.0:
        raise ValueError(f"gain gap eta={eta!r} must be finite and nonnegative")
    return float(q), float(eta)


def secrecy_capacity(bits, message_entropy, eve_info, *, q: float, eta: float):
    """Q [bits - message_entropy - eta * eve_info], the form every bound below
    takes; the entropies may be floats or arrays of one shape."""
    q, eta = _check_gains(q, eta)
    return q * (bits - message_entropy - eta * eve_info)


def eve_info_mdi_ts(eps_z: float, eps_x: float) -> float:
    """Upper bound on the eavesdropper's information per symbol: h(eps_z) + h(eps_x)."""
    return binary_entropy(_check_unit("eps_z", eps_z)) + binary_entropy(
        _check_unit("eps_x", eps_x)
    )


def capacity_mdi_ts(
    errors: ErrorVector,
    eps_z: float,
    eps_x: float,
    *,
    q: float = 1.0,
    eta: float = 1.0,
) -> CapacityResult:
    """Entanglement-protocol secrecy capacity Q {2 - H(E) - eta [h(eps_z)+h(eps_x)]}."""
    return CapacityResult(
        secrecy_capacity(
            2.0, shannon_entropy(errors), eve_info_mdi_ts(eps_z, eps_x), q=q, eta=eta
        )
    )


def capacity_mdi_dl04(
    bit_error: float,
    eps_u: float,
    *,
    q: float = 1.0,
    eta: float = 1.0,
) -> CapacityResult:
    """Single-photon MDI protocol secrecy capacity Q [1 - h(e) - eta h(eps_u)]."""
    return CapacityResult(
        secrecy_capacity(
            1.0,
            binary_entropy(_check_unit("bit_error", bit_error)),
            binary_entropy(_check_unit("eps_u", eps_u)),
            q=q,
            eta=eta,
        )
    )


def capacity_dl04_non_mdi(
    bit_error: float,
    eps_x: float,
    eps_z: float,
    *,
    q: float = 1.0,
    eta: float = 1.0,
) -> CapacityResult:
    """Non-MDI single-photon baseline Q [1 - h(e) - eta h(min(eps_x + eps_z, 1/2))].

    The leakage argument eps_x + eps_z can exceed 1/2, but information leaked
    about one bit cannot exceed one bit, so the term is capped at h(1/2) = 1.
    """
    _check_unit("eps_x", eps_x)
    _check_unit("eps_z", eps_z)
    leak = binary_entropy(min(eps_x + eps_z, 0.5))
    return CapacityResult(
        secrecy_capacity(
            1.0, binary_entropy(_check_unit("bit_error", bit_error)), leak, q=q, eta=eta
        )
    )


def capacity_two_step_non_mdi(
    errors: ErrorVector,
    eps_z: float,
    eps_x: float,
    *,
    q: float = 1.0,
    eta: float = 1.0,
) -> CapacityResult:
    """Non-MDI entanglement baseline: same functional form as
    :func:`capacity_mdi_ts`, fed with single-channel-use error rates."""
    return capacity_mdi_ts(errors, eps_z, eps_x, q=q, eta=eta)
