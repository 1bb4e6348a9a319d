"""Streaming Monte Carlo sampler: label draws, chunk boundaries, flat
memory, and multinomial agreement with the exact per-round distributions."""

import itertools
import random
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chi2

import mdiqsdc.protocol
from mdiqsdc.channels import PauliDistribution
from mdiqsdc.protocol import (
    CHUNK_ROUNDS,
    AttackModel,
    NoisePlacement,
    Protocol,
    ProtocolConfig,
    _block,
    _count_keys,
    _draws,
    _fold,
    _label_cuts,
    _labels,
    _stats_from_tally,
    _workspace,
    check_bases,
    pauli_frame_round_distributions,
    run,
)
from mdiqsdc.quantum import ANTICOMMUTES, PAULI_OF_BELL, PAULI_PRODUCT, PauliLabel


class TestLabelAlgebra:
    def test_label_product_is_xor(self):
        for a, b in itertools.product(range(4), repeat=2):
            assert PAULI_PRODUCT[a][b] == a ^ b

    def test_labels_are_inverse_cdf(self):
        rng = np.random.default_rng(2)
        u = rng.random(10_000)
        for probs in ((0.7, 0.1, 0.1, 0.1), (0.25, 0.25, 0.25, 0.25), (0.1, 0.2, 0.3, 0.4)):
            cuts = _label_cuts(PauliDistribution(probs))
            expect = np.searchsorted(np.cumsum(probs)[:-1], u, side="right")
            drawn = _labels(cuts, u, np.empty(u.shape, np.uint8), np.empty(u.shape, np.uint8))
            assert drawn.dtype == np.uint8
            np.testing.assert_array_equal(drawn, expect)

    @pytest.mark.parametrize(
        "probs", [(1.0, 0.0, 0.0, 0.0), (0.5, 0.25, 0.0, 0.25), (0.4, 0.0, 0.6, 0.0)]
    )
    def test_zero_weight_labels_never_drawn(self, probs):
        u = np.concatenate([np.linspace(0.0, 1.0, 10_001)[:-1], [np.nextafter(1.0, 0.0)]])
        scratch = np.empty(u.shape, np.uint8)
        drawn = _labels(_label_cuts(PauliDistribution(probs)), u, np.empty_like(scratch), scratch)
        for label in range(4):
            if probs[label] == 0.0:
                assert not np.any(drawn == label)


def count_keys_on(monkeypatch, workers, cfg):
    """``_count_keys(cfg)`` on ``workers`` threads, whatever the host."""
    monkeypatch.setattr(mdiqsdc.protocol, "_MAX_WORKERS", workers)
    monkeypatch.setattr(mdiqsdc.protocol, "_usable_cpus", lambda: workers)
    return _count_keys(cfg)


def block_counts(cfg):
    """Each block's key counts in block order, drawn in one workspace."""
    draws, workspace = _draws(cfg), _workspace(CHUNK_ROUNDS)
    return [_block(draws, k, workspace) for k in range(-(-cfg.rounds // CHUNK_ROUNDS))]


MULTI_BLOCK_CONFIGS = [
    ProtocolConfig(
        protocol=protocol,
        rounds=2 * CHUNK_ROUNDS + 17,
        channel_p=0.2,
        seed=97,
        noise=noise,
        transmittance=0.8,
        attack=AttackModel.INTERCEPT_RESEND,
    )
    for protocol in (Protocol.MDI_TS, Protocol.MDI_DL04)
    for noise in (NoisePlacement.FIRST_LEG_ONLY, NoisePlacement.BOTH_LEGS)
]


def _multi_block_id(cfg):
    return f"{cfg.noise.value}-{cfg.protocol.value}"


class TestChunking:
    @pytest.mark.parametrize("cfg", MULTI_BLOCK_CONFIGS, ids=_multi_block_id)
    def test_one_tally_of_all_chunks_matches_run(self, cfg):
        stats = run(cfg)
        assert stats.rounds == cfg.rounds
        assert stats.decoded_rounds < stats.message_rounds
        blocks = block_counts(cfg)
        assert [int(block.sum()) for block in blocks] == [CHUNK_ROUNDS, CHUNK_ROUNDS, 17]
        counts = np.sum(blocks, axis=0)
        assert _stats_from_tally(cfg, _fold(cfg, counts)) == stats
        assert run(cfg) == stats

    @pytest.mark.parametrize("cfg", MULTI_BLOCK_CONFIGS, ids=_multi_block_id)
    def test_blocks_fold_to_run_in_any_order(self, cfg):
        stats = run(cfg)
        blocks = block_counts(cfg)
        assert len({block.tobytes() for block in blocks}) == len(blocks)  # distinct draws
        shuffled = blocks[:]
        random.Random(3).shuffle(shuffled)
        for order in (blocks[::-1], shuffled):
            counts = np.zeros_like(blocks[0])
            for block in order:
                counts += block
            assert _stats_from_tally(cfg, _fold(cfg, counts)) == stats

    @pytest.mark.parametrize("cfg", MULTI_BLOCK_CONFIGS, ids=_multi_block_id)
    def test_worker_count_does_not_change_the_transcript(self, cfg, monkeypatch):
        counts = [count_keys_on(monkeypatch, workers, cfg) for workers in (1, 2, 3)]
        for other in counts[1:]:
            np.testing.assert_array_equal(other, counts[0])
        assert counts[0].sum() == cfg.rounds
        assert _stats_from_tally(cfg, _fold(cfg, counts[0])) == run(cfg)

    def test_workers_capped_whatever_the_host(self, monkeypatch):
        """Peak memory is about one workspace per worker, so the worker count
        may depend neither on the number of rounds nor on a large host."""
        workspace = mdiqsdc.protocol._workspace
        made = []

        def counting(rounds):
            made.append(rounds)
            return workspace(rounds)

        monkeypatch.setattr(mdiqsdc.protocol, "_workspace", counting)
        for cpus in (1, 3, 64):
            monkeypatch.setattr(mdiqsdc.protocol, "_usable_cpus", lambda: cpus)
            for rounds, workers in ((5000, 1), (13 * CHUNK_ROUNDS, min(cpus, 2))):
                made.clear()
                cfg = ProtocolConfig(protocol=Protocol.MDI_TS, rounds=rounds, channel_p=0.2, seed=4)
                assert _count_keys(cfg).sum() == rounds
                assert made == [min(rounds, CHUNK_ROUNDS)] * workers, (cpus, rounds)

    def test_failing_block_raises_from_run(self, monkeypatch):
        cfg = ProtocolConfig(
            protocol=Protocol.MDI_TS, rounds=4 * CHUNK_ROUNDS, channel_p=0.2, seed=8
        )
        block = mdiqsdc.protocol._block
        ran = []

        def failing(draws, k, workspace):
            ran.append(k)
            if k == 3:
                raise RuntimeError("block 3 failed")
            return block(draws, k, workspace)

        monkeypatch.setattr(mdiqsdc.protocol, "_block", failing)
        with pytest.raises(RuntimeError, match="block 3 failed"):
            run(cfg)
        for workers in (1, 2):
            ran.clear()
            with pytest.raises(RuntimeError, match="block 3 failed"):
                count_keys_on(monkeypatch, workers, cfg)
            assert 3 in ran

    def test_peak_memory_flat_in_rounds(self):
        """Five repeats with the default worker count: every workspace is
        allocated before a thread starts, so the peak may not depend on
        which worker runs which block."""
        bound = 8_000_000
        for _ in range(5):
            peaks = []
            for rounds in (400_000, 4_000_000):
                cfg = ProtocolConfig(
                    protocol=Protocol.MDI_TS,
                    rounds=rounds,
                    channel_p=0.2,
                    seed=5,
                    noise=NoisePlacement.BOTH_LEGS,
                    attack=AttackModel.INTERCEPT_RESEND,
                )
                tracemalloc.start()
                try:
                    run(cfg)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < bound, (rounds, peak)
                peaks.append(peak)
            # ten times the rounds may not cost more than 2% more memory
            assert peaks[1] <= 1.02 * peaks[0], peaks


FAMILY_ALPHA = 1e-3
SAMPLER_ROUNDS = 50_000
ATTACKS = [
    (AttackModel.NONE, "alice"),
    (AttackModel.INTERCEPT_RESEND, "alice"),
    (AttackModel.INTERCEPT_RESEND, "bob"),
]
CHANNEL_PS = (0.0, 0.1, 0.3)
NOISES = (NoisePlacement.FIRST_LEG_ONLY, NoisePlacement.BOTH_LEGS)
TRANSMITTANCES = (1.0, 0.7)
ENCODINGS = (PauliLabel.X, PauliLabel.Y, PauliLabel.Z)


def _sampler_grid():
    grid = []
    for p, noise, (attack, leg), transmittance in itertools.product(
        CHANNEL_PS, NOISES, ATTACKS, TRANSMITTANCES
    ):
        common = dict(
            rounds=SAMPLER_ROUNDS,
            channel_p=p,
            check_fraction=0.3,
            noise=noise,
            attack=attack,
            attack_leg=leg,
            transmittance=transmittance,
        )
        for cover in (True, False):
            grid.append(dict(common, protocol=Protocol.MDI_TS, decode_with_cover=cover))
        for encoding in ENCODINGS:
            grid.append(dict(common, protocol=Protocol.MDI_DL04, dl04_encoding=encoding))
    return [ProtocolConfig(seed=1000 + i, **kwargs) for i, kwargs in enumerate(grid)]


SAMPLER_GRID = _sampler_grid()


def _grid_id(cfg):
    parts = [cfg.protocol.value, f"p{cfg.channel_p:g}", cfg.noise.value, f"t{cfg.transmittance:g}"]
    if cfg.attack != AttackModel.NONE:
        parts.append(f"attack-{cfg.attack_leg}")
    if cfg.protocol == Protocol.MDI_TS:
        parts.append("cover" if cfg.decode_with_cover else "nocover")
    else:
        parts.append(f"enc-{cfg.dl04_encoding.name}")
    return "/".join(parts)


def _pearson(observed, probs):
    """Pearson statistic and degrees of freedom of counts against cell
    probabilities. Cells below 1e-12 are impossible outcomes: their counts
    must be 0 and they add no degree of freedom."""
    observed = np.asarray(observed, dtype=float)
    probs = np.asarray(probs, dtype=float)
    possible = probs > 1e-12
    assert not observed[~possible].any(), (observed, probs)
    total = observed.sum()
    if total == 0 or possible.sum() < 2:
        return 0.0, 0
    expected = total * probs[possible] / probs[possible].sum()
    stat = float(((observed[possible] - expected) ** 2 / expected).sum())
    return stat, int(possible.sum()) - 1


def _message_diff_probs(cfg, dists):
    """Exact distribution of decoded (-) encoded on a decoded message round."""
    if cfg.protocol == Protocol.MDI_DL04:
        flip = dists["bit_error"][0]
        return [1.0 - flip, flip]
    outcome = dists["message_outcome"][0]  # symbol, cover, second Bell outcome
    probs = np.zeros(4)
    for s, c, o2 in itertools.product(range(4), repeat=3):
        decoded = int(PAULI_OF_BELL[o2])
        if cfg.decode_with_cover:
            decoded = PAULI_PRODUCT[c][decoded]
        probs[PAULI_PRODUCT[decoded][s]] += outcome[s, c, o2] / 16.0
    if cfg.decode_with_cover:
        np.testing.assert_allclose(probs, dists["symbol_error"], atol=1e-12)
    return probs


@pytest.mark.parametrize("cfg", SAMPLER_GRID, ids=_grid_id)
def test_tallies_match_exact_distributions(cfg):
    """Multinomial goodness of fit of one streamed run against
    ``pauli_frame_round_distributions``, stage by stage: round roles and
    check bases, check errors per basis, photon loss, and message
    differences. Each stage is multinomial given the counts of the one
    before, so the Pearson statistics add up to one chi-square statistic
    per config. The family false-alarm rate over the whole grid is
    FAMILY_ALPHA = 1e-3, split evenly across the configs (Bonferroni);
    seeds are fixed, so the verdict is reproducible."""
    stats = run(cfg)
    dists = pauli_frame_round_distributions(cfg)
    bases = check_bases(cfg)
    total_stat, total_df = 0.0, 0

    def add(observed, probs):
        nonlocal total_stat, total_df
        stat, df = _pearson(observed, probs)
        total_stat += stat
        total_df += df

    estimates = [stats.qber(b) for b in bases]
    samples = [0 if est is None else est.samples for est in estimates]
    add(
        samples + [stats.message_rounds],
        [cfg.check_fraction / len(bases)] * len(bases) + [1.0 - cfg.check_fraction],
    )
    for bi, est in enumerate(estimates):
        if est is not None:
            error = dists["check_joint"][bi, 0, 0, 0] + dists["check_joint"][bi, 0, 1, 1]
            add([est.samples - est.errors, est.errors], [1.0 - error, error])

    photons = 2 if cfg.protocol == Protocol.MDI_TS else 1
    arrival = cfg.transmittance**photons
    decoded = stats.decoded_rounds
    add([decoded, stats.message_rounds - decoded], [arrival, 1.0 - arrival])

    if cfg.protocol == Protocol.MDI_TS:
        diffs = [round(prob * decoded) for prob in stats.message_errors.probabilities]
    else:
        errors = round(stats.bit_error * decoded)
        diffs = [decoded - errors, errors]
    add(diffs, _message_diff_probs(cfg, dists))

    if total_df > 0:
        p_value = chi2.sf(total_stat, total_df)
        assert p_value > FAMILY_ALPHA / len(SAMPLER_GRID), (total_stat, total_df, p_value)
