"""The exact density-matrix oracle, the referee of the Pauli-frame
bookkeeping in ``protocol``.

The oracle states every round with explicit matrices, in named stages, each
one validated :class:`~mdiqsdc.quantum.DensityMatrix` stack:
:func:`oracle_source` (two singlets with both sent photons depolarized),
:func:`oracle_attack` (the intercept-resend attack on Alice's sent photon,
stated on its own as the average of the Z and X dephasings),
:func:`entanglement_swap` (the middle party's Bell measurement of the sent
photons, each outcome's pair read straight off the four-photon state, and
Bob's :func:`swap_correction`), then :func:`oracle_readout`,
which reduces each announced Bell outcome to the tally cells a run draws.
``verify`` runs the stages in turn, so that its cases share one source and
one swap per attack model.

The Pauli frame rests on one identity that this oracle checks: after the swap
correction, the shared pair differs from the singlet exactly by the composed
Pauli error of the two legs, independently of the announced Bell outcome. So
``verify`` compares the oracle with the very cell law the sampler draws,
:func:`~mdiqsdc.protocol.pauli_frame_round_distributions`, outcome by outcome
and without sampling, under both noise placements, all three single-photon
encodings, the attack and a lossy channel. ``protocol`` imports neither this
module nor the state algebra it runs on: the frame and its referee share only
the config and which bases it measures (``check_bases``, ``MESSAGE_BASIS``).

Every function here is pure; the Bell and projector tables are read-only.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .channels import depolarize
from .protocol import (
    MESSAGE_BASIS,
    AttackModel,
    NoisePlacement,
    Protocol,
    ProtocolConfig,
    check_bases,
)
from .quantum import (
    BELL_VECTORS,
    PAULI_OF_BELL,
    PAULI_PRODUCT,
    BellLabel,
    DensityMatrix,
    PauliLabel,
    apply_pauli,
    basis_eigenvector,
    bell_measure,
    bell_state,
    pauli_channel,
    pure_density,
)


def swap_correction(outcome: BellLabel) -> PauliLabel:
    """Pauli that Bob applies to his retained photon after the middle
    party announces ``outcome``, restoring the shared pair to the singlet
    when both sources emitted singlets."""
    return PAULI_OF_BELL[int(outcome)]


def intercept_resend_channel(dm: DensityMatrix, qubit: int) -> DensityMatrix:
    """Exact channel of the intercept-resend attack on one qubit: the
    attacker measures in Z or X, each with probability 1/2, and resends the
    eigenstate found, so the channel is the average of the Z and X
    dephasings rho -> (rho + sigma_b rho sigma_b) / 2."""
    dephase_z = np.array([0.5, 0.0, 0.0, 0.5])
    dephase_x = np.array([0.5, 0.5, 0.0, 0.0])
    return pauli_channel(dm, tuple((dephase_z + dephase_x) / 2), qubit)


# sqrt(2) <b| on photons 1 and 3, indexed (outcome, photon 1, photon 3): the
# Bell vectors are real, so its entries are exactly 0 and +-1
_SCALED_BELL = np.sign(BELL_VECTORS).reshape(4, 2, 2)
_SCALED_BELL.flags.writeable = False


def entanglement_swap(rho: DensityMatrix) -> tuple[np.ndarray, DensityMatrix]:
    """Bell measurement of the sent photons 1 and 3 of a four-photon stack:
    each announced outcome's probability, with a trailing outcome axis, and
    the kept photons 0 and 2 conditioned on that outcome, after Bob's swap
    correction, one pair per outcome on the same trailing axis. Each
    unnormalized pair <b|_13 rho |b>_13 is one contraction with the scaled
    Bell vectors, halved exactly; its trace is the outcome's probability."""
    view = rho.matrix.reshape(rho.shape + (2,) * 8)  # rows a i c k, columns x j y l
    sub = 0.5 * np.einsum("bik,...aickxjyl,bjl->...bacxy", _SCALED_BELL, view, _SCALED_BELL)
    sub = sub.reshape(rho.shape + (4, 4, 4))
    probs = np.trace(sub, axis1=-2, axis2=-1).real
    pairs = DensityMatrix._validated(sub / probs[..., None, None])
    corrections = [int(swap_correction(BellLabel(o))) for o in range(4)]
    return probs, apply_pauli(pairs, corrections, 1)


@lru_cache(maxsize=None)
def _agreement_projectors(basis: PauliLabel) -> np.ndarray:
    """Read-only (2, 4, 4) projectors of two photons both measured in
    ``basis`` on equal outcomes (index 0) and on different ones (index 1)."""
    vecs = [basis_eigenvector(basis, bit) for bit in (0, 1)]
    pairs = [
        [np.kron(np.outer(va, va.conj()), np.outer(vb, vb.conj())) for vb in vecs] for va in vecs
    ]
    proj = np.array([pairs[0][0] + pairs[1][1], pairs[0][1] + pairs[1][0]])
    proj.flags.writeable = False
    return proj


_LABELS = np.arange(4)
# Share of decoded (-) sent symbol d in a round of symbol s, cover c and
# second Bell outcome o2, under uniform symbols and covers, indexed
# [s, c, o2, d]: Bob decodes the Pauli of the Bell outcome undone by his cover.
_SYMBOL_DIFFERENCE = (
    np.array(
        [
            [[PAULI_PRODUCT[PAULI_PRODUCT[c][p]][s] for p in PAULI_OF_BELL] for c in range(4)]
            for s in range(4)
        ]
    )[..., None]
    == _LABELS
) / 16.0


def oracle_source(channel_p: float | np.ndarray) -> DensityMatrix:
    """The oracle's first stage: the four-photon source, two singlets (qubit
    order: Alice's kept photon, Alice's sent photon, Bob's kept photon, Bob's
    sent photon) with both sent photons depolarized at ``channel_p``. A 1-D
    float64 array of channel parameters adds a leading grid axis, whose rows
    equal, bit for bit, the calls at each float."""
    singlet = bell_state(BellLabel.PSI_MINUS)
    aligned = np.kron(singlet, singlet)
    rho = pure_density(np.broadcast_to(aligned, np.shape(channel_p) + aligned.shape))
    rho = depolarize(rho, channel_p, 1)
    return depolarize(rho, channel_p, 3)


def oracle_attack(rho: DensityMatrix, attack: AttackModel) -> DensityMatrix:
    """The attack's channel on Alice's sent photon of an :func:`oracle_source`
    stack, ahead of :func:`entanglement_swap`; ``rho`` itself without one."""
    return intercept_resend_channel(rho, 1) if attack == AttackModel.INTERCEPT_RESEND else rho


def oracle_readout(
    cfg: ProtocolConfig,
    channel_p: float | np.ndarray,
    swap_outcome: np.ndarray,
    pair: DensityMatrix,
) -> dict[str, np.ndarray]:
    """The oracle's last stage: what a run tallies, read out of the swapped
    pairs. ``swap_outcome`` and ``pair`` are :func:`entanglement_swap` of
    :func:`oracle_attack` of :func:`oracle_source` at ``channel_p`` under the
    attack of ``cfg``; ``channel_p`` also sets the second-leg noise, so
    ``cfg.channel_p`` and ``cfg.attack`` are not read here.

    It applies any second-leg noise, then the encodings and the covers, to
    the pairs, and reads every outcome's check errors and message law out of
    the resulting matrices. The noise acts on the swapped pairs before the
    Paulis and not on the encoded states after them: a Pauli channel
    commutes with a Pauli conjugation entry for entry, so the bits are
    those of the physical order, noise after the Paulis. The check errors
    are read off the un-noised pairs. The message states are one validated
    stack, indexed (cover, symbol, outcome) or (bit, outcome). A message
    round arrives when every photon its message stage sends passes the
    transmittance. The message law is averaged over the outcomes with their
    own probabilities.
    """
    entangled = cfg.protocol == Protocol.MDI_TS
    sent = 2 if entangled else 1  # Alice's and Bob's encoded photons, or Alice's
    noised = pair
    if cfg.noise == NoisePlacement.BOTH_LEGS:
        for photon in range(sent):
            noised = depolarize(noised, channel_p, photon)
    if entangled:
        encoded = apply_pauli(noised[..., None, :], _LABELS[:, None], 0)  # (..., symbol, outcome)
        # (..., cover, symbol, outcome)
        covered = apply_pauli(encoded[..., None, :, :], _LABELS[:, None, None], 1)
        # (..., outcome, difference)
        law = np.einsum("...csoq,scqd->...od", bell_measure(covered), _SYMBOL_DIFFERENCE)
    else:
        # (..., bit, outcome)
        encoded = apply_pauli(noised[..., None, :], [[PauliLabel.I], [cfg.dl04_encoding]], 0)
        # bit 0 is misread when both photons agree, bit 1 when they differ
        agreement = _agreement_projectors(MESSAGE_BASIS[cfg.dl04_encoding])
        flip = np.einsum("kij,...koji->...o", agreement, encoded.matrix).real / 2.0
        law = np.stack([1.0 - flip, flip], axis=-1)

    bases = check_bases(cfg)
    share = cfg.check_fraction / len(bases)
    cells = []
    for basis in bases:
        # the singlet is anti-correlated, so a check errs when both photons agree
        error = np.einsum("ij,...oji->...o", _agreement_projectors(basis)[0], pair.matrix).real
        cells += [share * (1.0 - error), share * error]
    message = 1.0 - cfg.check_fraction
    arrival = cfg.transmittance**sent
    cells += [message * arrival * law[..., d] for d in range(law.shape[-1])]
    cells.append(np.full_like(error, message * (1.0 - arrival)))
    out = {"swap_outcome": swap_outcome, "cells": np.stack(cells, axis=-1)}
    averaged = np.einsum("...o,...od->...d", swap_outcome, law)
    if entangled:
        out["symbol_error"] = averaged
    else:
        out["bit_error"] = averaged[..., 1:]
    return out
