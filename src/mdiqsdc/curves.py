"""Closed-form secrecy-capacity curves over the symmetric depolarizing model.

The sweep axis is x = p/2, the single-use check error rate of a depolarizing
channel with parameter p. Both MDI protocols consume two channel uses before
the first security check, so their checked error rates are the two-channel
composition 2x(1-x); the non-MDI baselines are reconstructions fed with
single-use rates, since only their qualitative relation to the MDI curves is
pinned down.

Every curve and the analytic twin of a Monte Carlo run take the pair frame
and the law of a message round's error from
:func:`mdiqsdc.protocol.round_law`, the same law the sampler draws from, and
evaluate them with :func:`mdiqsdc.protocol.closed_form`, the one closed form,
whose :class:`~mdiqsdc.protocol.AnalyticPoint` is also the point a run's
estimate gives at its observed frequencies; this module composes no
transmission legs and computes no entropy itself.

:func:`analytic_point` takes one x as a float or a whole grid as a 1-D
float64 array and runs the same code on either (see ``elementwise``): a
grid's values equal the per-point values bit for bit and pass the same
checks. A sweep evaluates each curve with one grid call; the analytic twin
of a run and each step of a zero-crossing bisection are float calls, which
touch no numpy.
"""

from __future__ import annotations

from typing import Callable

from .channels import error_rate_in_basis
from .elementwise import check_range
from .protocol import (
    AnalyticPoint,
    NoisePlacement,
    Protocol,
    ProtocolConfig,
    arrival,
    closed_form,
    round_law,
    round_law_for_config,
)
from .quantum import PauliDistribution, PauliLabel

X_MAX = 0.5
# the bases whose checked rates a curve's point carries
_CHECKED = (PauliLabel.Z, PauliLabel.X, PauliLabel.Y)
# half of the reporting tolerance: crossings quoted to 1e-6 hold in both
# the x = p/2 axis and the raw channel parameter p = 2x
ZERO_CROSSING_TOL = 5e-7


def _rates(frame: PauliDistribution) -> dict[PauliLabel, float]:
    """The checked error rate of each basis under the error process ``frame``
    the checks see."""
    return {basis: error_rate_in_basis(frame, basis) for basis in _CHECKED}


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
    frame, law = round_law(protocol, 2.0 * x, noise, encoding)
    return closed_form(protocol, x, _rates(frame), law, encoding=encoding, q=q, eta=eta)


def analytic_point_for_config(cfg: ProtocolConfig) -> AnalyticPoint:
    """Analytic twin of a Monte Carlo configuration, attack and its leg
    included, at the gain :func:`~mdiqsdc.protocol.arrival` unless the
    config overrides it: :func:`~mdiqsdc.protocol.closed_form` of
    :func:`~mdiqsdc.protocol.round_law_for_config`, the law a run draws."""
    frame, law = round_law_for_config(cfg)
    q = cfg.q_override if cfg.q_override is not None else arrival(cfg)
    return closed_form(
        cfg.protocol,
        cfg.channel_p / 2.0,
        _rates(frame),
        law,
        encoding=cfg.dl04_encoding,
        q=q,
        eta=cfg.eta,
    )


def bisect_zero(f: Callable[[float], float], lo: float, hi: float) -> float | None:
    """Root of a decreasing function by bisection, to ``ZERO_CROSSING_TOL``,
    or None without a sign change."""
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo < 0.0 or f_hi > 0.0:
        return None
    while hi - lo > ZERO_CROSSING_TOL:
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
