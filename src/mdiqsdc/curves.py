"""Closed-form secrecy-capacity curves over the symmetric depolarizing model.

The sweep axis is x = p/2, the single-use check error rate of a depolarizing
channel with parameter p. Both MDI protocols consume two channel uses before
the first security check, so their checked error rates are the two-channel
composition 2x(1-x); the non-MDI baselines are reconstructions fed with
single-use rates, since only their qualitative relation to the MDI curves is
pinned down.

The MDI curves and the analytic twin of a Monte Carlo run take their error
distributions from :func:`mdiqsdc.protocol.round_error_dists` and the law
of a message round's error from :func:`mdiqsdc.protocol.message_law`, the
same laws the sampler draws from, and evaluate the closed forms in one
place; this module composes no transmission legs itself.

:func:`analytic_point` takes one x as a float or a whole grid as a 1-D
float64 array and runs the same code on either (see ``elementwise``): a
grid's values equal the per-point values bit for bit and pass the same
checks. A sweep evaluates each curve with one grid call; the analytic twin
of a run and each step of a zero-crossing bisection are float calls, which
touch no numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .channels import ErrorRates, PauliDistribution, depolarizing_pauli_dist, error_rates
from .elementwise import check_range, minimum
from .infotheory import (
    CapacityResult,
    ErrorVector,
    binary_entropy,
    eve_info_mdi_ts,
    secrecy_capacity,
    shannon_entropy,
)
from .protocol import (
    NoisePlacement,
    Protocol,
    ProtocolConfig,
    RoundErrorDists,
    message_law,
    round_error_dists,
    round_error_dists_for_config,
)
from .quantum import PauliLabel

X_MAX = 0.5
# half of the reporting tolerance: crossings quoted to 1e-6 hold in both
# the x = p/2 axis and the raw channel parameter p = 2x
ZERO_CROSSING_TOL = 5e-7


@dataclass(frozen=True)
class AnalyticPoint:
    """All quantities of one sweep point from the closed forms: floats, or
    equal-length float64 arrays for a grid."""

    protocol: Protocol
    x: float
    p: float
    eps_z: float
    eps_x: float
    eps_y: float
    message_entropy: float
    eve_info: float
    capacity: CapacityResult


def _closed_forms(
    protocol: Protocol,
    x: float,
    rates: ErrorRates,
    law: tuple[float, ...],
    *,
    encoding: PauliLabel,
    q: float,
    eta: float,
) -> AnalyticPoint:
    """The closed forms of ``protocol`` from the checked error ``rates`` and
    the ``law`` of decoded (-) encoded on a message round."""
    if protocol in (Protocol.MDI_TS, Protocol.TWO_STEP):
        bits = 2.0
        entropy = shannon_entropy(ErrorVector(law))
        eve_info = eve_info_mdi_ts(rates.eps_z, rates.eps_x)
    elif protocol == Protocol.MDI_DL04:
        bits = 1.0
        entropy = binary_entropy(law[1])
        eve_info = binary_entropy(rates.in_basis(encoding))
    else:
        # information leaked about one bit cannot exceed one bit, so the
        # leak argument eps_x + eps_z is capped at 1/2, where h = 1
        bits = 1.0
        entropy = binary_entropy(x)
        eve_info = binary_entropy(minimum(rates.eps_x + rates.eps_z, 0.5))
    capacity = CapacityResult(secrecy_capacity(bits, entropy, eve_info, q=q, eta=eta))
    return AnalyticPoint(
        protocol, x, 2.0 * x, rates.eps_z, rates.eps_x, rates.eps_y, entropy, eve_info, capacity
    )


def _mdi_point(
    protocol: Protocol,
    x: float,
    frame: PauliDistribution,
    second: PauliDistribution,
    *,
    encoding: PauliLabel,
    q: float,
    eta: float,
) -> AnalyticPoint:
    """Closed forms of an MDI protocol from the ``(frame, second)`` pair of
    :func:`~mdiqsdc.protocol.round_error_dists`: the checked rates come from
    the frame, the message error from :func:`~mdiqsdc.protocol.message_law`."""
    rates = error_rates(frame)
    law = message_law(protocol, encoding, frame, second)
    return _closed_forms(protocol, x, rates, law, encoding=encoding, q=q, eta=eta)


def analytic_point(
    protocol: Protocol,
    x: float,
    *,
    noise: NoisePlacement = NoisePlacement.FIRST_LEG_ONLY,
    encoding: PauliLabel = PauliLabel.Y,
    q: float = 1.0,
    eta: float = 1.0,
) -> AnalyticPoint:
    """Evaluate one protocol curve at x = p/2, without an attacker: at one
    float x, or at every x of a 1-D float64 array."""
    check_range(x, 0.0, X_MAX, "sweep position x=")
    p = 2.0 * x
    if protocol in (Protocol.MDI_TS, Protocol.MDI_DL04):
        dists = round_error_dists(protocol, p, noise)
        return _mdi_point(protocol, x, *dists, encoding=encoding, q=q, eta=eta)
    if protocol not in (Protocol.TWO_STEP, Protocol.DL04):
        raise ValueError(f"unknown protocol {protocol!r}")
    single = depolarizing_pauli_dist(p)
    rates = error_rates(single)
    return _closed_forms(protocol, x, rates, single.probabilities, encoding=encoding, q=q, eta=eta)


def analytic_point_for_config(
    cfg: ProtocolConfig, dists: RoundErrorDists | None = None
) -> AnalyticPoint:
    """Analytic twin of a Monte Carlo configuration, attack and its leg
    included; ``dists`` is :func:`round_error_dists_for_config` of ``cfg``,
    composed here when not given."""
    if dists is None:
        dists = round_error_dists_for_config(cfg)
    q = cfg.q_override if cfg.q_override is not None else cfg.transmittance ** (
        2 if cfg.protocol == Protocol.MDI_TS else 1
    )
    return _mdi_point(
        cfg.protocol, cfg.channel_p / 2.0, *dists, encoding=cfg.dl04_encoding, q=q, eta=cfg.eta
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
