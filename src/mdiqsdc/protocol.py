"""Monte Carlo execution of the two measurement-device-independent QSDC
protocols, in their equivalent entanglement-swapping form.

Every round proceeds in the Pauli frame: two singlet sources, a channel
error on each transmission leg, the untrusted middle party's Bell
outcome, the swap correction, then either a correlation check or a message
(dense-coding symbol for the entanglement protocol, one bit for the
single-photon protocol). The frame bookkeeping rests on one identity that
the exact 16-dimensional oracle of ``oracle`` verifies: after the swap
correction, the shared pair differs from the singlet exactly by the
composed Pauli error of the two legs, independently of the announced Bell
outcome. A round therefore carries that composed error as its one frame
label and no Bell outcome (Aaronson & Gottesman, PRA 70, 052328 (2004), for
Pauli-frame tracking). A run needs only each check basis's error rate and the law of
decoded (-) encoded on an arrived message round, :func:`message_law`. Every
round is i.i.d. and reaches exactly one cell of the run's tally (a check
basis with or without an error, a message difference, or a lost round), so
the cell counts are exactly multinomial: a run is one multinomial draw over
the cell law from a generator seeded with the run's seed (Devroye,
*Non-Uniform Random Variate Generation*, 1986). That count vector is the
run's tally, and the estimate reads it directly. Its time and memory do not
depend on the number of rounds; :func:`run` runs either protocol. The run's
record, :class:`TranscriptStats`, holds the tally and its check bases once,
each estimate read off them once (the observed message law, the point, one
mapping of standard errors keyed by the point's field names) and, as views
of the tally, the per-basis checks, the round counts and the gain.

:func:`round_law` is the one law of a round: the pair frame, off which the
checked rates are read, and :func:`message_law` of the frame composed with
the re-transmission error. That one pair feeds every consumer: the cell law
of a run, the Pauli-frame backend and the closed-form curves of ``curves``,
the two non-MDI baselines included. It takes a float channel parameter or an
array of them, so the curves compose a whole sweep grid in one call.
:func:`closed_form` is the one form of the bound Q [bits - H - eta leak], and
its :class:`AnalyticPoint` the one record of an operating point: the curves
and the analytic twin evaluate it at the exact checked rates and message law,
a run at the frequencies it observed, and every CSV row prints such a point.

The one attack is intercept-resend on Alice's first leg: the attacker
measures each photon in a random Z or X basis and resends the eigenstate
found. The frame adds it as the constant :data:`INTERCEPT_RESEND_DIST`;
the oracle states it on its own, as the average of the Z and X dephasings.

:func:`pauli_frame_round_distributions`, the Pauli-frame side of what a run
tallies, repeats the cell law of a run over the four announced Bell
outcomes; ``verify`` compares it with the exact density-matrix oracle of
``oracle``, which this module does not import.

Separate runs share no state and may also execute concurrently.
"""

from __future__ import annotations

import itertools
import math
import numbers
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .channels import convolve, depolarizing_pauli_dist, error_rate_in_basis
from .elementwise import check_range, maximum, minimum, neg_p_log2_p
from .quantum import PauliDistribution, PauliLabel


class Protocol(str, Enum):
    """Protocol selector; the two MDI protocols are simulated, the two
    non-MDI baselines exist only as analytic reconstructions."""

    MDI_TS = "mdi-ts"
    MDI_DL04 = "mdi-dl04"
    TWO_STEP = "two-step"
    DL04 = "dl04"


class NoisePlacement(str, Enum):
    """Which transmissions are noisy.

    FIRST_LEG_ONLY puts channel noise only on the initial photon
    transmissions to the middle party, so checked error rates and message
    errors derive from the same error distribution. BOTH_LEGS also applies
    noise to the encoded-photon re-transmission, making message errors
    strictly noisier than the checked rates.
    """

    FIRST_LEG_ONLY = "first-leg-only"
    BOTH_LEGS = "both-legs"


class AttackModel(str, Enum):
    NONE = "none"
    INTERCEPT_RESEND = "intercept-resend"


# Measurement basis the middle party uses on message photons, keyed by the
# encoding operator; it must anticommute with the encoding so that the
# encoded bit flips the pair correlation. For Y encoding both Z and X
# qualify; Z is used.
MESSAGE_BASIS: dict[PauliLabel, PauliLabel] = {
    PauliLabel.X: PauliLabel.Z,
    PauliLabel.Y: PauliLabel.Z,
    PauliLabel.Z: PauliLabel.X,
}


# The most rounds one run draws: the largest count numpy's multinomial takes.
MAX_ROUNDS = 2**63 - 1

# Largest gain gap eta: every leak term is at most 2 bits, so eta times a
# leak, and so every capacity, stays finite.
ETA_MAX = sys.float_info.max / 2.0


@dataclass(frozen=True)
class ProtocolConfig:
    """Complete, seedable description of one Monte Carlo run."""

    protocol: Protocol
    rounds: int
    channel_p: float
    seed: int
    check_fraction: float = 0.25
    noise: NoisePlacement = NoisePlacement.FIRST_LEG_ONLY
    q_override: float | None = None
    eta: float = 1.0
    dl04_encoding: PauliLabel = PauliLabel.Y
    attack: AttackModel = AttackModel.NONE
    transmittance: float = 1.0

    def __post_init__(self) -> None:
        if self.protocol not in (Protocol.MDI_TS, Protocol.MDI_DL04):
            raise ValueError("only the two MDI protocols can be simulated")
        for name in ("rounds", "seed"):
            value = getattr(self, name)
            # bool is an int subclass, and a float would be truncated silently
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("channel_p", "check_fraction", "q_override", "eta", "transmittance"):
            value = getattr(self, name)
            if value is None and name == "q_override":
                continue
            # bool is an int subclass, and a string would fail only at a comparison
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        if not 1 <= self.rounds <= MAX_ROUNDS:
            raise ValueError(f"rounds must lie in [1, {MAX_ROUNDS}]")
        if not 0.0 < self.check_fraction < 1.0:
            raise ValueError("check_fraction must lie strictly in (0, 1)")
        if not 0.0 <= self.channel_p <= 1.0:
            raise ValueError("channel parameter must lie in [0, 1]")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 bits")
        if self.dl04_encoding == PauliLabel.I:
            raise ValueError("the bit-1 encoding operator cannot be the identity")
        if self.q_override is not None and not 0.0 <= self.q_override <= 1.0:
            raise ValueError("gain override must lie in [0, 1]")
        if not 0.0 <= self.eta <= ETA_MAX:  # NaN fails
            raise ValueError(f"gain gap eta={self.eta!r} outside [0, {ETA_MAX:g}]")
        if not 0.0 <= self.transmittance <= 1.0:
            raise ValueError("transmittance must lie in [0, 1]")


@dataclass(frozen=True)
class CapacityResult:
    """Secrecy-capacity bound. ``raw`` is kept as computed, negative or not,
    as the zero crossing is a result in its own right; ``clamped`` >= 0 sits
    beside it."""

    raw: float

    @property
    def clamped(self) -> float:
        return maximum(self.raw, 0.0)


@dataclass(frozen=True)
class AnalyticPoint:
    """One operating point of the bound, as :func:`closed_form` evaluates it:
    floats, or equal-length float64 arrays for a grid. A curve's point and a
    run's twin carry every checked rate; a run's point carries the rates it
    observed, and None for a basis it drew no check round in."""

    protocol: Protocol
    x: float
    p: float
    eps_z: float | None
    eps_x: float | None
    eps_y: float | None
    message_entropy: float
    eve_info: float
    capacity: CapacityResult


@dataclass(frozen=True)
class TranscriptStats:
    """One Monte Carlo run: its tally ``counts``, the int cell counts in
    :func:`_cell_probabilities` order, the ``check_bases`` it was drawn
    with, and what :func:`_estimate` reads off them. ``law`` is the observed
    law of decoded (-) encoded and ``point`` :func:`closed_form` at the
    observed frequencies; ``se`` holds the delta-method standard error of
    each estimate, keyed by the point's field names (and ``bit_error`` for
    the single-photon protocol). A run that cannot estimate the bound gives
    its ``unavailable_reason`` instead, with no law, no point and no SEs.
    The properties are views of ``counts``, split once per record."""

    counts: tuple[int, ...]
    check_bases: tuple[PauliLabel, ...]
    law: tuple[float, ...] | None
    point: AnalyticPoint | None
    se: Mapping[str, float]
    unavailable_reason: str | None

    @cached_property
    def _split(self) -> tuple[dict[PauliLabel, tuple[int, int]], tuple[int, ...]]:
        return _split_tally(self.counts, self.check_bases)

    @property
    def checks(self) -> dict[PauliLabel, tuple[int, int]]:
        """Each check basis drawn, mapped to its (errors, samples)."""
        return self._split[0]

    @property
    def differences(self) -> tuple[int, ...]:
        """The decoded message rounds, by decoded (-) encoded."""
        return self._split[1]

    @property
    def message_rounds(self) -> int:
        return self.decoded_rounds + self.counts[-1]

    @property
    def decoded_rounds(self) -> int:
        """Message rounds that arrived: every cell but the lost one."""
        return sum(self.differences)

    @property
    def gain(self) -> float:
        message_rounds = self.message_rounds
        return self.decoded_rounds / message_rounds if message_rounds > 0 else 0.0


def _split_tally(
    counts: tuple[int, ...], bases: tuple[PauliLabel, ...]
) -> tuple[dict[PauliLabel, tuple[int, int]], tuple[int, ...]]:
    """A tally's check pairs, each basis mapped to its (errors, samples), and
    its message differences: the cells after the checks but the lost one."""
    split = 2 * len(bases)
    pairs = zip(bases, counts[:split:2], counts[1:split:2])
    checks = {basis: (errors, agree + errors) for basis, agree, errors in pairs}
    return checks, counts[split:-1]


def check_bases(cfg: ProtocolConfig) -> tuple[PauliLabel, ...]:
    """Bases drawn uniformly for check rounds; Y joins when it is the
    single-photon encoding basis, since that error rate must be estimated."""
    if cfg.protocol == Protocol.MDI_DL04 and cfg.dl04_encoding == PauliLabel.Y:
        return (PauliLabel.Z, PauliLabel.X, PauliLabel.Y)
    return (PauliLabel.Z, PauliLabel.X)


# Measure-and-resend on Alice's first leg in Z or X, half the time each, dephases in that basis.
INTERCEPT_RESEND_DIST = PauliDistribution((0.5, 0.25, 0.0, 0.25))


RoundLaw = tuple[PauliDistribution, tuple[float, ...]]


def round_law(
    protocol: Protocol,
    p: float,
    noise: NoisePlacement,
    encoding: PauliLabel,
    eve: PauliDistribution | None = None,
) -> RoundLaw:
    """The law of one round: ``(frame, law)``.

    ``frame`` is the Pauli error the checks see, off which the checked rates
    are read: both first legs composed, the attacker's process ``eve`` on
    Alice's (the labels form an abelian group, so the attacked leg would
    change the frame only by rounding). ``law`` is :func:`message_law` of the
    frame composed with the re-transmission error of message rounds. The
    non-MDI baselines see one channel use: the two-step symbol errs by its
    Pauli error, and the single-photon bit flips with the single-use rate
    p/2. The cell law of a run and the closed-form curves take their laws
    from here; ``p`` may be a float or, for a sweep grid, a 1-D float64 array.
    """
    single = depolarizing_pauli_dist(p)
    if protocol == Protocol.TWO_STEP:
        return single, single.probabilities
    if protocol == Protocol.DL04:
        return single, (1.0 - p / 2.0, p / 2.0)
    attacked = convolve(single, eve) if eve is not None else single
    frame = convolve(attacked, single)
    if noise != NoisePlacement.BOTH_LEGS:
        net = frame
    elif protocol == Protocol.MDI_TS:
        net = convolve(frame, convolve(single, single))
    else:
        net = convolve(frame, single)  # only Alice's encoded photon travels again
    return frame, message_law(protocol, encoding, net)


def round_law_for_config(cfg: ProtocolConfig) -> RoundLaw:
    """:func:`round_law` of a Monte Carlo configuration, attack included."""
    eve = INTERCEPT_RESEND_DIST if cfg.attack == AttackModel.INTERCEPT_RESEND else None
    return round_law(cfg.protocol, cfg.channel_p, cfg.noise, cfg.dl04_encoding, eve)


def message_law(
    protocol: Protocol, encoding: PauliLabel, net: PauliDistribution
) -> tuple[float, ...]:
    """Law of decoded (-) encoded on an arrived message round whose pair frame
    and re-transmission error compose to ``net``; floats, or 1-D arrays for a
    grid.

    The entanglement protocols (and the two-step baseline) decode the
    symbol up to the net label: the law is that label's distribution over
    the two-bit differences. The single-photon protocol reads its bit in
    ``MESSAGE_BASIS[encoding]``, and the decoded bit errs exactly when the
    net label anticommutes with that basis, whichever bit was sent: the law
    is ``(1 - flip, flip)``, with ``flip`` checked to lie in [0, 1].
    """
    if protocol != Protocol.MDI_DL04:
        return net.probabilities
    flip = error_rate_in_basis(net, MESSAGE_BASIS[encoding])
    check_range(flip, 0.0, 1.0, "bit flip ")
    return (1.0 - flip, flip)


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


def eve_info_mdi_ts(eps_z: float, eps_x: float) -> float:
    """Upper bound on the eavesdropper's information per symbol: h(eps_z) + h(eps_x)."""
    return binary_entropy(check_range(eps_z, 0.0, 1.0, "eps_z=")) + binary_entropy(
        check_range(eps_x, 0.0, 1.0, "eps_x=")
    )


def closed_form(
    protocol: Protocol,
    x: float,
    rates: Mapping[PauliLabel, float],
    law: tuple[float, ...],
    *,
    encoding: PauliLabel,
    q: float,
    eta: float,
) -> AnalyticPoint:
    """The :class:`AnalyticPoint` of ``protocol`` at x = p/2: the bound
    Q [bits - H - eta leak], with q checked to lie in [0, 1] and eta in
    [0, ETA_MAX], from the checked error rate ``rates[basis]`` of each basis
    and the ``law`` of decoded (-) encoded on an arrived message round, whose
    :func:`shannon_entropy` is the message entropy H whatever its number of
    entries; floats, or 1-D arrays for a grid. The entanglement protocols
    carry 2 bits and leak h(eps_z) + h(eps_x); the single-photon MDI protocol
    carries 1 bit and leaks h(eps_u) of its encoding basis u, its non-MDI
    baseline h(min(eps_x + eps_z, 1/2)). The curves and the analytic twin
    feed it exact rates and laws, a run its observed frequencies; each law is
    checked where it is made, so the entropy takes its probabilities as given.
    """
    entropy = shannon_entropy(law)
    if protocol in (Protocol.MDI_TS, Protocol.TWO_STEP):
        bits = 2.0
        eve_info = eve_info_mdi_ts(rates[PauliLabel.Z], rates[PauliLabel.X])
    else:
        bits = 1.0
        if protocol == Protocol.MDI_DL04:
            eve_info = binary_entropy(rates[encoding])
        else:
            # information leaked about one bit cannot exceed one bit, so the
            # leak argument eps_x + eps_z is capped at 1/2, where h = 1
            eve_info = binary_entropy(minimum(rates[PauliLabel.X] + rates[PauliLabel.Z], 0.5))
    check_range(q, 0.0, 1.0, "gain q=")
    check_range(eta, 0.0, ETA_MAX, "gain gap eta=")
    capacity = CapacityResult(q * (bits - entropy - eta * eve_info))
    eps = (rates.get(PauliLabel.Z), rates.get(PauliLabel.X), rates.get(PauliLabel.Y))
    return AnalyticPoint(protocol, x, 2.0 * x, *eps, entropy, eve_info, capacity)


def arrival(cfg: ProtocolConfig) -> float:
    """Probability that a message round arrives: every photon its message
    stage sends (two for the entanglement protocol, one otherwise) passes the
    transmittance."""
    return cfg.transmittance ** (2 if cfg.protocol == Protocol.MDI_TS else 1)


def _cell_probabilities(cfg: ProtocolConfig, laws: RoundLaw) -> np.ndarray:
    """Law of the tally cell one round reaches, in the order of a run's cell
    counts: per check basis, no error then error; each value of the message
    law on an arrived message round; a lost message round. ``laws`` is
    :func:`round_law_for_config` of ``cfg``.

    A check round errs when its pair frame anticommutes with the basis: the
    singlet reference is anti-correlated in every basis. The bases share the
    check rounds equally, and a message round arrives with probability
    :func:`arrival`.
    """
    frame, law = laws
    bases = check_bases(cfg)
    share = cfg.check_fraction / len(bases)
    cells = []
    for basis in bases:
        error = error_rate_in_basis(frame, basis)
        cells += [share * (1.0 - error), share * error]
    message = 1.0 - cfg.check_fraction
    arrived = arrival(cfg)
    cells += [message * arrived * d for d in law]
    cells.append(message * (1.0 - arrived))
    return np.array(cells)


def _draw_counts(cfg: ProtocolConfig, laws: RoundLaw) -> np.ndarray:
    """The tally of ``cfg``'s rounds: its int64 cell counts, in
    :func:`_cell_probabilities` order. The rounds are i.i.d. and each reaches
    one cell, so the counts are Multinomial(rounds, cell law), drawn at once
    from ``np.random.default_rng(seed)``. Cells of zero probability stay out
    of the draw, so none is counted whatever the rounding of the others.
    """
    probs = _cell_probabilities(cfg, laws)
    support = np.flatnonzero(probs)
    counts = np.zeros(probs.size, dtype=np.int64)
    counts[support] = np.random.default_rng(cfg.seed).multinomial(cfg.rounds, probs[support])
    return counts


def _shannon_variance(probs: tuple[float, ...], samples: int) -> float:
    """Delta-method variance of the plug-in entropy of ``probs`` estimated
    from ``samples`` draws, (sum p log2^2 p - H^2) / n for any number of
    outcomes (Paninski, Neural Comput. 15, 1191 (2003)), summed over pairs
    as sum_{i<j} p_i p_j log2^2(p_i / p_j) / n: the difference of the two
    sums cancels near rates of 0, 1/2 and 1, the pairs do not. The binary
    ``(1 - r, r)`` is one pair, the familiar slope^2 r (1 - r) / n."""
    total = 0.0
    for a, b in itertools.combinations([p for p in probs if p > 0.0], 2):
        slope = math.log2(a / b)
        total = total + slope * slope * b * a
    return total / samples


def _estimate(cfg: ProtocolConfig, counts: np.ndarray) -> TranscriptStats:
    """Estimates, standard errors and the capacity bound of one transcript,
    from its cell ``counts`` in :func:`_cell_probabilities` order.

    Check error rates are per-basis disagreement frequencies (the singlet
    reference expects anti-correlated outcomes), the message law is the
    observed law of decoded (-) encoded, and :func:`closed_form` turns them
    into the run's point, at the config's x. A leak basis with no check rounds
    flags the result as unavailable.
    """
    tally, bases = tuple(counts.tolist()), check_bases(cfg)
    checks, diffs = _split_tally(tally, bases)
    decoded_rounds = sum(diffs)
    message_rounds = decoded_rounds + tally[-1]

    unavailable: str | None = None
    # The single-photon leak reads only the encoding-basis rate; the
    # message-basis rate is implied by the message errors themselves.
    leak_bases = (
        (PauliLabel.Z, PauliLabel.X) if cfg.protocol == Protocol.MDI_TS else (cfg.dl04_encoding,)
    )
    for basis in leak_bases:
        if checks[basis][1] == 0:
            unavailable = f"no check rounds in basis {basis.name}"
    if message_rounds == 0:
        unavailable = "no message rounds"
    elif decoded_rounds == 0:
        unavailable = "no decoded message rounds"
    if unavailable is not None:
        return TranscriptStats(tally, bases, None, None, {}, unavailable)

    rates = {basis: errors / samples for basis, (errors, samples) in checks.items() if samples}
    se = {
        f"eps_{basis.name.lower()}": math.sqrt(rate * (1.0 - rate) / checks[basis][1])
        for basis, rate in rates.items()
    }
    if cfg.protocol == Protocol.MDI_TS:
        law = PauliDistribution(tuple(float(c) / decoded_rounds for c in diffs)).probabilities
    else:
        bit_error = diffs[1] / decoded_rounds
        se["bit_error"] = math.sqrt(bit_error * (1.0 - bit_error) / decoded_rounds)
        law = (1.0 - bit_error, bit_error)
    message_variance = _shannon_variance(law, decoded_rounds)
    q_used = cfg.q_override if cfg.q_override is not None else decoded_rounds / message_rounds
    point = closed_form(
        cfg.protocol, cfg.channel_p / 2.0, rates, law,
        encoding=cfg.dl04_encoding, q=q_used, eta=cfg.eta,
    )
    leak_variance = sum(
        _shannon_variance((1.0 - rates[b], rates[b]), checks[b][1]) for b in leak_bases
    )
    # eta scales the leak's standard deviation: squaring eta itself
    # would overflow for eta above about 1e154
    se["capacity"] = q_used * math.hypot(
        math.sqrt(message_variance), cfg.eta * math.sqrt(leak_variance)
    )
    return TranscriptStats(tally, bases, law, point, se, None)


def run(cfg: ProtocolConfig) -> TranscriptStats:
    """Monte Carlo run of the configured MDI protocol.

    Each round has a pair frame, then either a correlation check or a
    message: a dense-coding symbol under Bob's random cover (entanglement
    protocol) or one bit read out in the conjugate single-photon basis. The
    rounds are i.i.d. and each reaches one cell of the tally, so the whole
    transcript is one multinomial draw of cell counts (:func:`_draw_counts`),
    whose time and memory do not depend on the number of rounds.
    Deterministic given the config seed.
    """
    return _estimate(cfg, _draw_counts(cfg, round_law_for_config(cfg)))


# ---------------------------------------------------------------------------
# What a run tallies, per announced Bell outcome, from the Pauli frame.
# ---------------------------------------------------------------------------


def pauli_frame_round_distributions(cfg: ProtocolConfig) -> dict[str, np.ndarray]:
    """Exact per-round distributions of what a run tallies at the config's
    channel parameter, from the label algebra, so they can be compared to
    the density-matrix backend at machine precision without sampling. The
    swap correction leaves the pair frame the same whatever the announced
    outcome, so every outcome's row is the one cell law a run draws. Keys
    and shapes:

    * ``swap_outcome`` (4,): announced first Bell outcome.
    * ``cells`` (4, cells): per announced outcome, the law of the tally
      cell a round reaches, :func:`_cell_probabilities`.
    * entanglement protocol: ``symbol_error`` (4,), single-photon protocol:
      ``bit_error`` (1,); the message law of an arrived message round.

    The cell law and the message law come from one :func:`round_law_for_config`.
    """
    laws = round_law_for_config(cfg)
    cells = _cell_probabilities(cfg, laws)
    law = np.array(laws[1])
    out = {"swap_outcome": np.full(4, 0.25), "cells": np.repeat(cells[None, :], 4, axis=0)}
    if cfg.protocol == Protocol.MDI_TS:
        out["symbol_error"] = law
    else:
        out["bit_error"] = law[1:]
    return out
