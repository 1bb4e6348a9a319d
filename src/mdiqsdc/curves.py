"""Closed-form secrecy-capacity curves over the symmetric depolarizing model.

The sweep axis is x = p/2, the single-use check error rate of a depolarizing
channel with parameter p. Both MDI protocols consume two channel uses before
the first security check, so their checked error rates are the two-channel
composition 2x(1-x); the non-MDI baselines are reconstructions fed with
single-use rates, since only their qualitative relation to the MDI curves is
pinned down.

The MDI curves and the analytic twin of a Monte Carlo run take their error
distributions from :func:`mdiqsdc.protocol.round_error_dists`, the same
composition the sampler draws from, and evaluate the closed forms in one
place; this module composes no transmission legs itself.

A grid goes through :func:`analytic_curve`, which evaluates a whole curve
as float64 arrays, bit for bit equal to :func:`analytic_point` at every
grid point and with the same checks on every row. A single point (the
analytic twin of a run, each step of a zero-crossing bisection) goes
through the scalar :func:`analytic_point`, which is cheaper for one point
and is the reference the array path is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .channels import (
    PauliDistribution,
    convolve,
    convolve_rows,
    depolarizing_pauli_dist,
    depolarizing_pauli_rows,
    error_rate_in_basis,
    error_rate_rows,
    error_rates,
    error_rates_rows,
)
from .infotheory import (
    CapacityResult,
    ErrorVector,
    binary_entropies,
    binary_entropy,
    capacity_dl04_non_mdi,
    capacity_mdi_dl04,
    capacity_mdi_ts,
    capacity_two_step_non_mdi,
    eve_info_mdi_ts,
    secrecy_capacity,
    shannon_entropies,
    shannon_entropy,
)
from .protocol import (
    MESSAGE_BASIS,
    NoisePlacement,
    Protocol,
    ProtocolConfig,
    RoundErrorDists,
    round_error_dists,
    round_error_dists_for_config,
    round_error_rows,
)
from .quantum import PauliLabel, validate_probability_rows

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
    the frame, the message error from frame and re-transmission composed."""
    rates = error_rates(frame)
    net = convolve(frame, second)
    if protocol == Protocol.MDI_TS:
        errors = ErrorVector(net.probabilities)
        entropy = shannon_entropy(errors)
        eve_info = eve_info_mdi_ts(rates.eps_z, rates.eps_x)
        capacity = capacity_mdi_ts(errors, rates.eps_z, rates.eps_x, q=q, eta=eta)
    else:
        bit_error = error_rate_in_basis(net, MESSAGE_BASIS[encoding])
        eps_u = rates.in_basis(encoding)
        entropy = binary_entropy(bit_error)
        eve_info = binary_entropy(eps_u)
        capacity = capacity_mdi_dl04(bit_error, eps_u, q=q, eta=eta)
    return AnalyticPoint(
        protocol, x, 2.0 * x, rates.eps_z, rates.eps_x, rates.eps_y, entropy, eve_info, capacity
    )


def analytic_point(
    protocol: Protocol,
    x: float,
    *,
    noise: NoisePlacement = NoisePlacement.FIRST_LEG_ONLY,
    encoding: PauliLabel = PauliLabel.Y,
    q: float = 1.0,
    eta: float = 1.0,
) -> AnalyticPoint:
    """Evaluate one protocol curve at x = p/2, without an attacker."""
    if not 0.0 <= x <= X_MAX:
        raise ValueError(f"sweep position x={x!r} outside [0, {X_MAX}]")
    p = 2.0 * x

    if protocol in (Protocol.MDI_TS, Protocol.MDI_DL04):
        dists = round_error_dists(protocol, p, noise)
        return _mdi_point(protocol, x, *dists, encoding=encoding, q=q, eta=eta)

    single = depolarizing_pauli_dist(p)
    rates = error_rates(single)
    if protocol == Protocol.TWO_STEP:
        errors = ErrorVector(single.probabilities)
        entropy = shannon_entropy(errors)
        eve_info = eve_info_mdi_ts(rates.eps_z, rates.eps_x)
        capacity = capacity_two_step_non_mdi(errors, rates.eps_z, rates.eps_x, q=q, eta=eta)
    elif protocol == Protocol.DL04:
        entropy = binary_entropy(x)
        eve_info = binary_entropy(min(rates.eps_x + rates.eps_z, 0.5))
        capacity = capacity_dl04_non_mdi(x, rates.eps_x, rates.eps_z, q=q, eta=eta)
    else:
        raise ValueError(f"unknown protocol {protocol!r}")
    return AnalyticPoint(
        protocol, x, p, rates.eps_z, rates.eps_x, rates.eps_y, entropy, eve_info, capacity
    )


@dataclass(frozen=True)
class AnalyticCurve:
    """One protocol curve over a grid: the numeric fields of
    :class:`AnalyticPoint`, the capacity as raw and clamped, one float64
    array each."""

    protocol: Protocol
    x: np.ndarray
    p: np.ndarray
    eps_z: np.ndarray
    eps_x: np.ndarray
    eps_y: np.ndarray
    message_entropy: np.ndarray
    eve_info: np.ndarray
    capacity_raw: np.ndarray
    capacity_clamped: np.ndarray

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        """The nine numeric columns, in the order of the sweep CSV."""
        return (
            self.x,
            self.p,
            self.eps_z,
            self.eps_x,
            self.eps_y,
            self.message_entropy,
            self.eve_info,
            self.capacity_raw,
            self.capacity_clamped,
        )


def analytic_curve(
    protocol: Protocol,
    xs: Sequence[float] | np.ndarray,
    *,
    noise: NoisePlacement = NoisePlacement.FIRST_LEG_ONLY,
    encoding: PauliLabel = PauliLabel.Y,
    q: float = 1.0,
    eta: float = 1.0,
) -> AnalyticCurve:
    """:func:`analytic_point` at every x of a grid, as arrays.

    Each value equals the scalar one bit for bit: the arrays repeat the
    scalar order of operations and take logarithms with ``math.log2``.
    """
    xs = np.asarray(xs, dtype=np.float64).reshape(-1)
    outside = ~((0.0 <= xs) & (xs <= X_MAX))
    if outside.any():
        raise ValueError(f"sweep position x={float(xs[outside][0])!r} outside [0, {X_MAX}]")
    ps = 2.0 * xs

    # ``net`` is the error on the message path: the composed round for the
    # MDI protocols, one channel use for the baselines
    if protocol in (Protocol.MDI_TS, Protocol.MDI_DL04):
        frame, second = round_error_rows(protocol, ps, noise)
        rates = error_rates_rows(frame)
        net = convolve_rows(frame, second)
    elif protocol in (Protocol.TWO_STEP, Protocol.DL04):
        net = depolarizing_pauli_rows(ps)
        rates = error_rates_rows(net)
    else:
        raise ValueError(f"unknown protocol {protocol!r}")

    if protocol in (Protocol.MDI_TS, Protocol.TWO_STEP):
        bits = 2.0
        entropy = shannon_entropies(validate_probability_rows(net, name="error vector"))
        eve_info = binary_entropies(rates[PauliLabel.Z]) + binary_entropies(rates[PauliLabel.X])
    elif protocol == Protocol.MDI_DL04:
        bits = 1.0
        entropy = binary_entropies(error_rate_rows(net, MESSAGE_BASIS[encoding]))
        eve_info = binary_entropies(rates[encoding])
    else:
        bits = 1.0
        entropy = binary_entropies(xs)
        leak = rates[PauliLabel.X] + rates[PauliLabel.Z]
        eve_info = binary_entropies(np.where(0.5 < leak, 0.5, leak))  # min(leak, 0.5)
    raw = secrecy_capacity(bits, entropy, eve_info, q=q, eta=eta)
    return AnalyticCurve(
        protocol,
        xs,
        ps,
        rates[PauliLabel.Z],
        rates[PauliLabel.X],
        rates[PauliLabel.Y],
        entropy,
        eve_info,
        raw,
        np.where(0.0 > raw, 0.0, raw),  # CapacityResult.clamped, signed zeros included
    )


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
