"""Closed-form secrecy-capacity curves over the symmetric depolarizing model.

The sweep axis is x = p/2, the single-use check error rate of a depolarizing
channel with parameter p. Both MDI protocols consume two channel uses before
the first security check, so their checked error rates are the two-channel
composition 2x(1-x); the non-MDI baselines are reconstructions fed with
single-use rates, since only their qualitative relation to the MDI curves is
pinned down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .channels import (
    IDENTITY_DIST,
    PauliDistribution,
    convolve,
    depolarizing_pauli_dist,
    error_rate_in_basis,
    error_rates,
)
from .infotheory import (
    CapacityResult,
    ErrorVector,
    binary_entropy,
    capacity_dl04_non_mdi,
    capacity_mdi_dl04,
    capacity_mdi_ts,
    capacity_two_step_non_mdi,
    eve_info_mdi_ts,
    shannon_entropy,
)
from .protocol import (
    MESSAGE_BASIS,
    AttackModel,
    NoisePlacement,
    Protocol,
    ProtocolConfig,
    intercept_resend_pauli_dist,
)
from .quantum import PauliLabel

X_MAX = 0.5
# half of the reporting tolerance: crossings quoted to 1e-6 hold in both
# the x = p/2 axis and the raw channel parameter p = 2x
ZERO_CROSSING_TOL = 5e-7


@dataclass(frozen=True)
class AnalyticPoint:
    """All quantities of one sweep grid point, from the closed forms."""

    protocol: Protocol
    x: float
    p: float
    eps_z: float
    eps_x: float
    eps_y: float
    message_entropy: float
    eve_info: float
    capacity: CapacityResult


def analytic_point(
    protocol: Protocol,
    x: float,
    *,
    noise: NoisePlacement = NoisePlacement.FIRST_LEG_ONLY,
    encoding: PauliLabel = PauliLabel.Y,
    q: float = 1.0,
    eta: float = 1.0,
    eve_dist: PauliDistribution | None = None,
) -> AnalyticPoint:
    """Evaluate one protocol curve at x = p/2.

    ``eve_dist`` composes an attacker's error process into one first
    transmission channel; it is only meaningful for the MDI protocols.
    """
    if not 0.0 <= x <= X_MAX:
        raise ValueError(f"sweep position x={x!r} outside [0, {X_MAX}]")
    p = 2.0 * x
    single = depolarizing_pauli_dist(p)

    if protocol in (Protocol.MDI_TS, Protocol.MDI_DL04):
        leg_a = convolve(single, eve_dist) if eve_dist is not None else single
        first = convolve(leg_a, single)
        rates = error_rates(first)
        if protocol == Protocol.MDI_TS:
            second = (
                convolve(single, single)
                if noise == NoisePlacement.BOTH_LEGS
                else IDENTITY_DIST
            )
            net = convolve(first, second)
            errors = ErrorVector(net.probabilities)
            entropy = shannon_entropy(errors)
            eve_info = eve_info_mdi_ts(rates.eps_z, rates.eps_x)
            capacity = capacity_mdi_ts(errors, rates.eps_z, rates.eps_x, q=q, eta=eta)
        else:
            second = single if noise == NoisePlacement.BOTH_LEGS else IDENTITY_DIST
            net = convolve(first, second)
            bit_error = error_rate_in_basis(net, MESSAGE_BASIS[encoding])
            eps_u = rates.in_basis(encoding)
            entropy = binary_entropy(bit_error)
            eve_info = binary_entropy(eps_u)
            capacity = capacity_mdi_dl04(bit_error, eps_u, q=q, eta=eta)
        return AnalyticPoint(
            protocol, x, p, rates.eps_z, rates.eps_x, rates.eps_y, entropy, eve_info, capacity
        )

    if eve_dist is not None:
        raise ValueError("the attack model applies to the MDI protocols only")
    if protocol == Protocol.TWO_STEP:
        rates = error_rates(single)
        errors = ErrorVector(single.probabilities)
        entropy = shannon_entropy(errors)
        eve_info = eve_info_mdi_ts(rates.eps_z, rates.eps_x)
        capacity = capacity_two_step_non_mdi(errors, rates.eps_z, rates.eps_x, q=q, eta=eta)
        return AnalyticPoint(
            protocol, x, p, rates.eps_z, rates.eps_x, rates.eps_y, entropy, eve_info, capacity
        )
    if protocol == Protocol.DL04:
        rates = error_rates(single)
        entropy = binary_entropy(x)
        eve_info = binary_entropy(min(rates.eps_x + rates.eps_z, 0.5))
        capacity = capacity_dl04_non_mdi(x, rates.eps_x, rates.eps_z, q=q, eta=eta)
        return AnalyticPoint(
            protocol, x, p, rates.eps_z, rates.eps_x, rates.eps_y, entropy, eve_info, capacity
        )
    raise ValueError(f"unknown protocol {protocol!r}")


def analytic_point_for_config(cfg: ProtocolConfig) -> AnalyticPoint:
    """Analytic twin of a Monte Carlo configuration, attack included."""
    eve = (
        intercept_resend_pauli_dist(cfg.attack_bases)
        if cfg.attack == AttackModel.INTERCEPT_RESEND
        else None
    )
    q = cfg.q_override if cfg.q_override is not None else cfg.transmittance ** (
        2 if cfg.protocol == Protocol.MDI_TS else 1
    )
    return analytic_point(
        cfg.protocol,
        cfg.channel_p / 2.0,
        noise=cfg.noise,
        encoding=cfg.dl04_encoding,
        q=q,
        eta=cfg.eta,
        eve_dist=eve,
    )


def bisect_zero(
    f: Callable[[float], float], lo: float, hi: float, *, xtol: float = ZERO_CROSSING_TOL
) -> float | None:
    """Root of a decreasing function by bisection, or None without a sign change."""
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo < 0.0 or f_hi > 0.0:
        return None
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def zero_crossing(
    protocol: Protocol,
    *,
    noise: NoisePlacement = NoisePlacement.FIRST_LEG_ONLY,
    encoding: PauliLabel = PauliLabel.Y,
    q: float = 1.0,
    eta: float = 1.0,
) -> float | None:
    """Sweep position where the raw capacity crosses zero, to 1e-6."""

    def raw(x: float) -> float:
        return analytic_point(
            protocol, x, noise=noise, encoding=encoding, q=q, eta=eta
        ).capacity.raw

    return bisect_zero(raw, 0.0, X_MAX)
