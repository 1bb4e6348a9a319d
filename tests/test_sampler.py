"""Monte Carlo cell law and draw: the label algebra, flat memory, the law of
the tally cells against the density-matrix oracle, and multinomial agreement
with the oracle's cells."""

import itertools
import tracemalloc

import numpy as np
import pytest
from scipy.special import chdtrc

from mdiqsdc.oracle import density_matrix_round_distributions
from mdiqsdc.protocol import (
    AttackModel,
    NoisePlacement,
    Protocol,
    ProtocolConfig,
    _cell_probabilities,
    check_bases,
    round_law_for_config,
    run,
)
from mdiqsdc.quantum import PAULI_PRODUCT, PauliLabel


class TestLabelAlgebra:
    def test_label_product_is_xor(self):
        for a, b in itertools.product(range(4), repeat=2):
            assert PAULI_PRODUCT[a][b] == a ^ b


class TestMemory:
    def test_peak_memory_flat_in_rounds(self):
        """Five repeats: a run draws its cell counts at once, so ten times the
        rounds may not cost more memory. Each measured run follows the same
        run untraced, which fills the interpreter's and numpy's caches as the
        measured run will use them; the peaks are then a few KB and differ by
        a few hundred bytes at most."""
        bound = 8_000_000
        sizes = (400_000, 4_000_000)
        for _ in range(5):
            peaks = []
            for rounds in sizes:
                cfg = ProtocolConfig(
                    protocol=Protocol.MDI_TS,
                    rounds=rounds,
                    channel_p=0.2,
                    seed=5,
                    noise=NoisePlacement.BOTH_LEGS,
                    attack=AttackModel.INTERCEPT_RESEND,
                )
                run(cfg)
                tracemalloc.start()
                try:
                    run(cfg)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < bound, (rounds, peak)
                peaks.append(peak)
            # the extra rounds may not cost 1/100 byte each
            assert peaks[1] - peaks[0] <= (sizes[1] - sizes[0]) // 100, peaks


FAMILY_ALPHA = 1e-3
SAMPLER_ROUNDS = 50_000
ATTACKS = (AttackModel.NONE, AttackModel.INTERCEPT_RESEND)
CHANNEL_PS = (0.0, 0.1, 0.3)
NOISES = (NoisePlacement.FIRST_LEG_ONLY, NoisePlacement.BOTH_LEGS)
TRANSMITTANCES = (1.0, 0.7, 0.4)
ENCODINGS = (PauliLabel.X, PauliLabel.Y, PauliLabel.Z)


def _sampler_grid():
    grid = []
    for p, noise, attack, transmittance in itertools.product(
        CHANNEL_PS, NOISES, ATTACKS, TRANSMITTANCES
    ):
        common = dict(
            rounds=SAMPLER_ROUNDS,
            channel_p=p,
            check_fraction=0.3,
            noise=noise,
            attack=attack,
            transmittance=transmittance,
        )
        grid.append(dict(common, protocol=Protocol.MDI_TS))
        for encoding in ENCODINGS:
            grid.append(dict(common, protocol=Protocol.MDI_DL04, dl04_encoding=encoding))
    return [ProtocolConfig(seed=1000 + i, **kwargs) for i, kwargs in enumerate(grid)]


SAMPLER_GRID = _sampler_grid()


def _grid_id(cfg):
    parts = [cfg.protocol.value, f"p{cfg.channel_p:g}", cfg.noise.value, f"t{cfg.transmittance:g}"]
    if cfg.attack != AttackModel.NONE:
        parts.append("attack")
    if cfg.protocol == Protocol.MDI_DL04:
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


def _oracle_cells(cfg):
    """The oracle's tally-cell law of ``cfg``, averaged over the announced outcome."""
    dists = density_matrix_round_distributions(cfg)
    return dists["swap_outcome"] @ dists["cells"]


@pytest.mark.parametrize("cfg", SAMPLER_GRID, ids=_grid_id)
def test_tallies_match_exact_distributions(cfg):
    """Multinomial goodness of fit of one run against the cell law of the
    density-matrix oracle, stage by stage: round roles and check bases,
    check errors per basis, photon loss, and message differences. Each
    stage is multinomial given the counts of the one before, so the Pearson
    statistics add up to one chi-square statistic per config. The family
    false-alarm rate over the whole grid is FAMILY_ALPHA = 1e-3, split
    evenly across the configs (Bonferroni); seeds are fixed, so the verdict
    is reproducible."""
    stats = run(cfg)
    cells = _oracle_cells(cfg)
    bases = check_bases(cfg)
    checks = cells[: 2 * len(bases)].reshape(-1, 2)  # per basis: no error, error
    arrived, lost = cells[2 * len(bases) : -1], cells[-1]
    total_stat, total_df = 0.0, 0

    def add(observed, probs):
        nonlocal total_stat, total_df
        stat, df = _pearson(observed, probs)
        total_stat += stat
        total_df += df

    tallies = [stats.checks[b] for b in bases]
    samples = [samples for _, samples in tallies]
    add(samples + [stats.message_rounds], list(checks.sum(axis=1)) + [arrived.sum() + lost])
    for basis_cells, (errors, samples) in zip(checks, tallies):
        if samples:
            add([samples - errors, errors], basis_cells)

    decoded = stats.decoded_rounds
    add([decoded, stats.message_rounds - decoded], [arrived.sum(), lost])

    add(stats.differences, arrived)

    if total_df > 0:
        p_value = chdtrc(total_df, total_stat)  # the chi-square survival function
        assert p_value > FAMILY_ALPHA / len(SAMPLER_GRID), (total_stat, total_df, p_value)


@pytest.mark.parametrize("cfg", SAMPLER_GRID, ids=_grid_id)
def test_cell_law_matches_exact_distributions(cfg):
    """The law the sampler draws the tally cells from is, to 1e-12, the
    density-matrix oracle's cell law after every announced Bell outcome."""
    cells = density_matrix_round_distributions(cfg)["cells"]
    law = _cell_probabilities(cfg, round_law_for_config(cfg))
    assert cells.shape == (4, law.size)
    for row in cells:
        np.testing.assert_allclose(law, row, rtol=0, atol=1e-12)
