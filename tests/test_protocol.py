"""Protocol simulator tests: swap-correction oracle, Monte Carlo statistics,
attack behavior, and Pauli-frame vs density-matrix backend equivalence."""

import dataclasses
import decimal
import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mdiqsdc.channels
import mdiqsdc.oracle
import mdiqsdc.protocol
import mdiqsdc.quantum
from mdiqsdc.cli import SWEEP_BLOCK, _grid_blocks, _parse_grid
from mdiqsdc.channels import convolve, depolarize, depolarizing_pauli_dist
from mdiqsdc.curves import analytic_point_for_config
from mdiqsdc.oracle import (
    entanglement_swap,
    intercept_resend_channel,
    oracle_attack,
    oracle_readout,
    oracle_source,
    swap_correction,
)
from mdiqsdc.protocol import (
    ETA_MAX,
    MAX_ROUNDS,
    INTERCEPT_RESEND_DIST,
    MESSAGE_BASIS,
    AttackModel,
    NoisePlacement,
    Protocol,
    ProtocolConfig,
    TranscriptStats,
    _cell_probabilities,
    _draw_counts,
    _estimate,
    _shannon_variance,
    arrival,
    binary_entropy,
    check_bases,
    message_law,
    pauli_frame_round_distributions,
    round_law,
    round_law_for_config,
    run,
    shannon_entropy,
)
from mdiqsdc.quantum import (
    ANTICOMMUTES,
    PAULI_PRODUCT,
    BellLabel,
    DensityMatrix,
    PauliDistribution,
    PauliLabel,
    apply_pauli,
    bell_measure,
    bell_state,
    pure_density,
)
from mdiqsdc.verification import EQUIVALENCE_PS
from test_quantum import pauli_on_qubit_oracle, random_density_matrices

PAULI = [
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]
BELL = np.array(
    [
        [0, 1, -1, 0],
        [0, 1, 1, 0],
        [1, 0, 0, -1],
        [1, 0, 0, 1],
    ],
    dtype=complex,
) / math.sqrt(2)


def collapse_after_swap_oracle(error_op=None, error_qubit=None):
    """Independent 16-dim statevector oracle for entanglement swapping.

    Two singlet sources over qubits (kept-A, sent-A, kept-B, sent-B); the
    middle party projects the sent pair (1, 3) on each Bell state. Returns
    for every outcome the collapsed kept-pair amplitudes.
    """
    state = np.kron(BELL[0], BELL[0])
    if error_op is not None:
        ops = [np.eye(2, dtype=complex)] * 4
        ops[error_qubit] = PAULI[error_op]
        full = ops[0]
        for op in ops[1:]:
            full = np.kron(full, op)
        state = full @ state
    collapsed = {}
    for outcome in range(4):
        amp = np.zeros(4, dtype=complex)
        for sa in range(2):
            for ca in range(2):
                for sb in range(2):
                    for cb in range(2):
                        idx = (sa << 3) | (ca << 2) | (sb << 1) | cb
                        amp[(sa << 1) | sb] += (
                            np.conj(BELL[outcome][(ca << 1) | cb]) * state[idx]
                        )
        norm = np.linalg.norm(amp)
        collapsed[outcome] = amp / norm
    return collapsed


class TestSwapCorrection:
    def test_named_examples(self):
        assert swap_correction(BellLabel.PSI_MINUS) == PauliLabel.I
        assert swap_correction(BellLabel.PSI_PLUS) == PauliLabel.Z

    def test_full_table_against_statevector_oracle(self):
        collapsed = collapse_after_swap_oracle()
        for outcome in range(4):
            correction = PAULI[int(swap_correction(BellLabel(outcome)))]
            fixed = np.kron(np.eye(2), correction) @ collapsed[outcome]
            fidelity = abs(np.vdot(BELL[0], fixed)) ** 2
            assert fidelity > 1 - 1e-12

    @pytest.mark.parametrize("error", [1, 2, 3])
    @pytest.mark.parametrize("leg_qubit", [1, 3])
    def test_leg_error_survives_swapping(self, error, leg_qubit):
        # a Pauli error on either sent photon survives swapping as the same
        # Pauli on the corrected pair
        collapsed = collapse_after_swap_oracle(error_op=error, error_qubit=leg_qubit)
        for outcome in range(4):
            correction = PAULI[int(swap_correction(BellLabel(outcome)))]
            fixed = np.kron(np.eye(2), correction) @ collapsed[outcome]
            expect = np.kron(PAULI[error], np.eye(2)) @ BELL[0]
            fidelity = abs(np.vdot(expect, fixed)) ** 2
            assert fidelity > 1 - 1e-12


class TestRunMdiTs:
    def test_noiseless(self):
        cfg = ProtocolConfig(protocol=Protocol.MDI_TS, rounds=20_000, channel_p=0.0, seed=3)
        stats = run(cfg)
        assert stats.point.eps_z == 0.0 and stats.se["eps_z"] == 0.0
        assert stats.point.eps_x == 0.0
        assert stats.law == (1.0, 0.0, 0.0, 0.0)
        assert stats.point.capacity.raw == 2.0
        assert stats.gain == 1.0

    def test_decoding_perfect_at_p_zero(self):
        cfg = ProtocolConfig(protocol=Protocol.MDI_TS, rounds=2_000, channel_p=0.0, seed=5)
        assert run(cfg).law == (1.0, 0.0, 0.0, 0.0)

    def test_deterministic_given_seed(self):
        cfg = ProtocolConfig(protocol=Protocol.MDI_TS, rounds=50_000, channel_p=0.3, seed=77)
        assert run(cfg) == run(cfg)

    def test_seed_changes_transcript(self):
        base = ProtocolConfig(protocol=Protocol.MDI_TS, rounds=50_000, channel_p=0.3, seed=1)
        other = ProtocolConfig(protocol=Protocol.MDI_TS, rounds=50_000, channel_p=0.3, seed=2)
        assert run(base) != run(other)

    def test_qber_converges_to_two_leg_convolution(self):
        p = 0.2
        cfg = ProtocolConfig(
            protocol=Protocol.MDI_TS, rounds=200_000, channel_p=p, seed=11, check_fraction=0.4
        )
        stats = run(cfg)
        expected = 2 * (p / 2) * (1 - p / 2)  # 0.18
        for basis, rate in ((PauliLabel.Z, stats.point.eps_z), (PauliLabel.X, stats.point.eps_x)):
            _, samples = stats.checks[basis]
            assert abs(rate - expected) < 5 * math.sqrt(expected * (1 - expected) / samples)

    def test_message_errors_converge_to_convolution(self):
        p = 0.3
        cfg = ProtocolConfig(
            protocol=Protocol.MDI_TS, rounds=300_000, channel_p=p, seed=13, check_fraction=0.2
        )
        stats = run(cfg)
        single = depolarizing_pauli_dist(p)
        expected = convolve(single, single).probabilities
        n = stats.decoded_rounds
        for got, want in zip(stats.law, expected):
            assert abs(got - want) < 5 * math.sqrt(want * (1 - want) / n)

    def test_cover_scrambles_labels_uniformly(self):
        # exact group fact: over the four covers, the label reaching the
        # second Bell measurement runs through all four values, so a decoder
        # that ignores the cover reads every symbol difference with weight
        # 1/4 (error rate 3/4), while Bob, who undoes his cover, reads the
        # frame alone
        for symbol in range(4):
            for frame in range(4):
                labels = [
                    PAULI_PRODUCT[cover][PAULI_PRODUCT[symbol][frame]] for cover in range(4)
                ]
                assert set(labels) == {0, 1, 2, 3}
                assert {PAULI_PRODUCT[label][symbol] for label in labels} == {0, 1, 2, 3}
                undone = {
                    PAULI_PRODUCT[PAULI_PRODUCT[cover][label]][symbol]
                    for cover, label in enumerate(labels)
                }
                assert undone == {frame}

    def test_both_legs_noise_degrades_messages_not_checks(self):
        p = 0.2
        kwargs = dict(protocol=Protocol.MDI_TS, rounds=400_000, channel_p=p, seed=23)
        first = run(ProtocolConfig(**kwargs))
        both = run(ProtocolConfig(**kwargs, noise=NoisePlacement.BOTH_LEGS))
        assert abs(first.point.eps_z - both.point.eps_z) < 6 * first.se["eps_z"]
        assert both.law[0] < first.law[0] - 0.01

    def test_transmittance_hook_reduces_gain(self):
        cfg = ProtocolConfig(
            protocol=Protocol.MDI_TS,
            rounds=100_000,
            channel_p=0.0,
            seed=29,
            transmittance=0.8,
        )
        stats = run(cfg)
        assert abs(stats.gain - 0.64) < 0.01
        assert stats.decoded_rounds < stats.message_rounds


class TestRunMdiDl04:
    def test_noiseless(self):
        cfg = ProtocolConfig(protocol=Protocol.MDI_DL04, rounds=20_000, channel_p=0.0, seed=3)
        stats = run(cfg)
        assert stats.law[1] == 0.0
        assert stats.point.capacity.raw == 1.0

    def test_y_encoding_estimates_eps_y(self):
        p = 0.2
        cfg = ProtocolConfig(
            protocol=Protocol.MDI_DL04,
            rounds=300_000,
            channel_p=p,
            seed=7,
            check_fraction=0.4,
            dl04_encoding=PauliLabel.Y,
        )
        stats = run(cfg)
        assert stats.point.eps_y is not None
        expected = 2 * (p / 2) * (1 - p / 2)
        assert abs(stats.point.eps_y - expected) < 5 * stats.se["eps_y"]

    @pytest.mark.parametrize("encoding", [PauliLabel.X, PauliLabel.Z])
    def test_xz_encodings_skip_basis_y(self, encoding):
        cfg = ProtocolConfig(
            protocol=Protocol.MDI_DL04,
            rounds=5_000,
            channel_p=0.1,
            seed=9,
            dl04_encoding=encoding,
        )
        stats = run(cfg)
        assert PauliLabel.Y not in stats.checks and "eps_y" not in stats.se
        assert stats.point is not None and stats.point.eps_y is None

    def test_z_encoding_decodes_via_x_parity_oracle(self):
        # With Z encoding the message photons are read in basis X; the
        # 4-dim oracle says the encoded bit flips the X-parity of the pair.
        assert MESSAGE_BASIS[PauliLabel.Z] == PauliLabel.X
        pair = pure_density(bell_state(BellLabel.PSI_MINUS)).matrix
        z_on_a = np.kron(PAULI[3], np.eye(2))
        encoded = z_on_a @ pair @ z_on_a.conj().T
        plus = np.array([1, 1], dtype=complex) / math.sqrt(2)
        minus = np.array([1, -1], dtype=complex) / math.sqrt(2)
        for k, rho in ((0, pair), (1, encoded)):
            parallel = 0.0
            for v in (plus, minus):
                proj = np.outer(v, v.conj())
                parallel += float(np.real(np.trace(np.kron(proj, proj) @ rho)))
            # bit 0 keeps anti-parallel X outcomes, bit 1 makes them parallel
            assert abs(parallel - k) < 1e-12

        cfg = ProtocolConfig(
            protocol=Protocol.MDI_DL04,
            rounds=3_000,
            channel_p=0.0,
            seed=31,
            dl04_encoding=PauliLabel.Z,
        )
        assert run(cfg).law[1] == 0.0

    def test_deterministic(self):
        cfg = ProtocolConfig(protocol=Protocol.MDI_DL04, rounds=40_000, channel_p=0.25, seed=101)
        assert run(cfg) == run(cfg)


class TestInterceptResend:
    def test_frame_weights_are_the_zx_dephasing_average(self):
        dephase_z, dephase_x = [0.5, 0.0, 0.0, 0.5], [0.5, 0.5, 0.0, 0.0]
        want = [(z + x) / 2 for z, x in zip(dephase_z, dephase_x)]
        assert list(INTERCEPT_RESEND_DIST.probabilities) == want == [0.5, 0.25, 0.0, 0.25]

    def test_channel_is_measure_and_resend_and_matches_the_frame_weights(self):
        dm = pure_density(bell_state(BellLabel.PSI_MINUS))
        tampered = intercept_resend_channel(dm, 1)
        # measure in Z or X with probability 1/2 each, resend the eigenstate found
        resent = np.zeros((4, 4), dtype=complex)
        for eigenvectors in (np.eye(2), np.array([[1, 1], [1, -1]]) / math.sqrt(2)):
            for v in eigenvectors.T:
                proj = np.kron(np.eye(2), np.outer(v, v.conj()))
                resent += 0.5 * proj @ dm.matrix @ proj
        np.testing.assert_allclose(tampered.matrix, resent, atol=1e-14)
        mixed = np.zeros((4, 4), dtype=complex)
        for k in range(4):
            full = np.kron(np.eye(2), PAULI[k])
            mixed += INTERCEPT_RESEND_DIST.probabilities[k] * full @ dm.matrix @ full.conj().T
        np.testing.assert_allclose(tampered.matrix, mixed, atol=1e-14)

    def test_checked_qber_one_quarter(self):
        cfg = ProtocolConfig(
            protocol=Protocol.MDI_TS,
            rounds=400_000,
            channel_p=0.0,
            seed=41,
            check_fraction=0.5,
            attack=AttackModel.INTERCEPT_RESEND,
        )
        stats = run(cfg)
        for name in ("eps_z", "eps_x"):
            assert abs(getattr(stats.point, name) - 0.25) < 5 * stats.se[name]

    def test_attack_lowers_capacity_estimate(self):
        common = dict(
            protocol=Protocol.MDI_TS, rounds=400_000, channel_p=0.1, seed=43,
            check_fraction=0.5,
        )
        clean = run(ProtocolConfig(**common))
        attacked = run(ProtocolConfig(**common, attack=AttackModel.INTERCEPT_RESEND))
        separation = clean.point.capacity.raw - attacked.point.capacity.raw
        assert separation > 5 * math.sqrt(clean.se["capacity"] ** 2 + attacked.se["capacity"] ** 2)

    def test_disabled_attack_is_plain_run(self):
        cfg = ProtocolConfig(protocol=Protocol.MDI_TS, rounds=10_000, channel_p=0.2, seed=47)
        again = ProtocolConfig(protocol=Protocol.MDI_TS, rounds=10_000, channel_p=0.2, seed=47)
        assert run(cfg) == run(again)


def observed_symbol_law(stats):
    """The observed symbol law of an mdi-ts run, read off its counts as the
    estimate reads it."""
    return PauliDistribution(tuple(float(c) / stats.decoded_rounds for c in stats.differences))


# mdi-ts cell counts in ``_cell_probabilities`` order: Z checks without and
# with an error, X checks likewise, the four symbol differences, lost rounds.
class TestEstimateStats:
    def _cfg(self, **kwargs):
        defaults = dict(protocol=Protocol.MDI_TS, rounds=10, channel_p=0.0, seed=1)
        defaults.update(kwargs)
        return ProtocolConfig(**defaults)

    def test_all_agree_checks_give_zero_rate(self):
        counts = np.array([5, 0, 5, 0, 10, 0, 0, 0, 0])
        stats = _estimate(self._cfg(rounds=20), counts)
        assert stats.point.eps_z == 0.0 and stats.se["eps_z"] == 0.0
        assert stats.point.eps_x == 0.0
        assert stats.point.capacity.raw == 2.0

    def test_synthetic_ten_percent_z_disagreement(self):
        counts = np.array([90, 10, 50, 0, 50, 0, 0, 0, 0])
        stats = _estimate(self._cfg(rounds=200), counts)
        assert stats.point.eps_z == 0.1
        assert stats.checks[PauliLabel.Z] == (10, 100)

    def test_missing_basis_flags_unavailable(self):
        counts = np.array([5, 0, 0, 0, 5, 0, 0, 0, 0])
        stats = _estimate(self._cfg(rounds=10), counts)
        assert "basis X" in stats.unavailable_reason
        assert stats.point is None and stats.law is None and not stats.se

    def test_no_messages_flags_unavailable(self):
        counts = np.array([1, 0, 1, 0, 0, 0, 0, 0, 0])
        stats = _estimate(self._cfg(rounds=2), counts)
        assert stats.point is None
        assert stats.unavailable_reason == "no message rounds"

    def test_availability_is_read_off_the_reason(self):
        # a run has a point exactly when no reason says it cannot have one
        assert not hasattr(TranscriptStats, "estimate_available")
        for counts in (
            [90, 10, 50, 0, 40, 5, 3, 2, 0],
            [5, 0, 0, 0, 5, 0, 0, 0, 0],
            [1, 0, 1, 0, 0, 0, 0, 0, 0],
            [1, 0, 1, 0, 0, 0, 0, 0, 3],
        ):
            stats = _estimate(self._cfg(rounds=sum(counts)), np.array(counts))
            assert (stats.point is None) == (stats.unavailable_reason is not None), counts

    @pytest.mark.parametrize("protocol", [Protocol.MDI_TS, Protocol.MDI_DL04])
    def test_capacity_terms_carried_once(self, protocol):
        stats = run(self._cfg(protocol=protocol, rounds=4000, channel_p=0.2, seed=3))
        if protocol == Protocol.MDI_TS:
            bits = 2.0
            observed = observed_symbol_law(stats)
            assert observed.probabilities == stats.law
            entropy = shannon_entropy(observed.probabilities)
            eve_info = binary_entropy(stats.point.eps_z) + binary_entropy(stats.point.eps_x)
        else:
            bits = 1.0
            entropy = binary_entropy(stats.law[1])
            eve_info = binary_entropy(stats.point.eps_y)  # the default encoding is Y
        assert stats.point.message_entropy == entropy and stats.point.eve_info == eve_info
        assert stats.point.capacity.raw == stats.gain * (bits - entropy - eve_info)

    def test_observed_symbol_law_validated_once(self, monkeypatch):
        validate = mdiqsdc.quantum.validate_probability_vector
        names = []

        def recording(values, *, name, **kwargs):
            names.append(name)
            return validate(values, name=name, **kwargs)

        monkeypatch.setattr(mdiqsdc.quantum, "validate_probability_vector", recording)
        counts = np.array([90, 10, 50, 0, 40, 5, 3, 2, 0])
        stats = _estimate(self._cfg(rounds=200), counts)
        assert names == ["Pauli distribution"]
        observed = observed_symbol_law(stats).probabilities
        assert stats.point.message_entropy == shannon_entropy(observed)

    @pytest.mark.parametrize(
        "errors, samples",
        [(0, 40), (1, 3), (7, 40), (20, 40), (39, 40), (40, 40), (1, 10**6), (1, 10**12),
         (10**12 - 1, 10**12), (1, 2**62)],
    )
    def test_binary_variance_is_the_two_outcome_shannon_variance(self, errors, samples):
        """The delta-method variance of h(r), slope^2 r (1 - r) / n with slope
        log2((1 - r) / r), is the plug-in entropy's variance of the law
        (1 - r, r) bit for bit, near r = 0, 1/2 and 1 too."""
        rate = errors / samples
        got = _shannon_variance((1.0 - rate, rate), samples)
        if errors in (0, samples):
            assert got == 0.0
        else:
            slope = math.log2((1.0 - rate) / rate)
            assert got == slope * slope * rate * (1.0 - rate) / samples

    @pytest.mark.parametrize(
        "counts",
        [(1, 2, 3, 4), (10**18, 1, 0, 1), (1, 10**18, 10**18, 2), (2**52 + 1, 2**52 - 1, 0, 0)],
    )
    def test_symbol_law_variance_keeps_its_digits(self, counts):
        """(sum p log2^2 p - H^2) / n of a four-outcome law, against the same
        sum in 50-digit decimals, where a rate near 0 or 1/2 would cancel
        the difference of the two sums."""
        n = sum(counts)
        law = tuple(float(c) / n for c in counts)
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            ps = [decimal.Decimal(p) for p in law if p > 0.0]
            bits = [-p.ln() / decimal.Decimal(2).ln() for p in ps]
            entropy = sum(p * b for p, b in zip(ps, bits))
            want = float(sum(p * (b - entropy) ** 2 for p, b in zip(ps, bits)) / n)
        assert _shannon_variance(law, n) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("p", [0.0, 0.2])
    @pytest.mark.parametrize("protocol", [Protocol.MDI_TS, Protocol.MDI_DL04])
    def test_capacity_se_finite_for_any_finite_gain_gap(self, protocol, p):
        base = run(self._cfg(protocol=protocol, rounds=4000, channel_p=p, seed=3))
        for eta in (1e200, ETA_MAX):
            stats = run(self._cfg(protocol=protocol, rounds=4000, channel_p=p, seed=3, eta=eta))
            assert math.isfinite(stats.se["capacity"])
            if p == 0.0:  # no leak, so eta does not reach the SE
                assert stats.se["capacity"] == base.se["capacity"]
            else:
                assert stats.se["capacity"] > 1e-3 * eta


# Both protocols x noise x attack x the three single-photon encodings x p x
# transmittance: 288 configs.
EXACT_LAW_CONFIGS = [
    ProtocolConfig(
        protocol=protocol, rounds=1, channel_p=p, seed=1, noise=noise, attack=attack,
        dl04_encoding=encoding, transmittance=transmittance,
    )
    for protocol, encodings in (
        (Protocol.MDI_TS, [PauliLabel.Y]),
        (Protocol.MDI_DL04, [PauliLabel.X, PauliLabel.Y, PauliLabel.Z]),
    )
    for encoding in encodings
    for noise in NoisePlacement
    for attack in AttackModel
    for p in (0.0, 0.1, 0.3, 0.5, 0.75, 1.0)
    for transmittance in (1.0, 0.7, 0.4)
]


def test_estimate_at_the_exact_law_is_the_twin():
    """Counts in proportion to the cell law, at about 2**52 rounds, give the
    analytic twin's point field by field (x, p, each checked rate, entropy,
    leak and capacity), and the arrival probability as the gain: the estimate
    and the twin share one closed form and one record. A basis the run does
    not check has no rate in its point."""
    assert len(EXACT_LAW_CONFIGS) == 288
    names = {basis: f"eps_{basis.name.lower()}" for basis in PauliLabel if basis != PauliLabel.I}
    for cfg in EXACT_LAW_CONFIGS:
        cells = _cell_probabilities(cfg, round_law_for_config(cfg))
        stats = _estimate(cfg, np.rint(cells * 2**52).astype(np.int64))
        point, twin = stats.point, analytic_point_for_config(cfg)
        assert point.protocol == twin.protocol == cfg.protocol
        pairs = [
            ("gain", stats.gain, arrival(cfg)),
            ("x", point.x, twin.x),
            ("p", point.p, twin.p),
            ("message_entropy", point.message_entropy, twin.message_entropy),
            ("eve_info", point.eve_info, twin.eve_info),
            ("capacity", point.capacity.raw, twin.capacity.raw),
        ]
        for basis, name in names.items():
            if basis in check_bases(cfg):
                errors, samples = stats.checks[basis]
                assert getattr(point, name) == errors / samples, (cfg, name)
                pairs.append((name, getattr(point, name), getattr(twin, name)))
            else:
                assert basis not in stats.checks and getattr(point, name) is None, (cfg, name)
        for name, got, want in pairs:
            assert abs(got - want) <= 1e-12, (cfg, name, got, want)

# Every class of simulate config: protocol x noise x attack x encoding.
LAW_CLASSES = [
    dict(protocol=protocol, noise=noise, attack=attack, dl04_encoding=encoding)
    for protocol in (Protocol.MDI_TS, Protocol.MDI_DL04)
    for noise in NoisePlacement
    for attack in AttackModel
    for encoding in (PauliLabel.X, PauliLabel.Y, PauliLabel.Z)
]
REFEREED_CONFIGS = [
    ProtocolConfig(rounds=1, channel_p=0.0, seed=1, **kwargs) for kwargs in LAW_CLASSES
] + [
    ProtocolConfig(
        protocol=protocol, rounds=1, channel_p=0.0, seed=1, noise=NoisePlacement.BOTH_LEGS,
        attack=AttackModel.INTERCEPT_RESEND, dl04_encoding=PauliLabel.X,
        check_fraction=0.3, transmittance=0.7,
    )
    for protocol in (Protocol.MDI_TS, Protocol.MDI_DL04)
]
# the channel parameters of the default sweep, x = 0:0.5:0.005, as the sweep makes them
(DEFAULT_P_GRID,) = [2.0 * xs for xs in _grid_blocks(_parse_grid("0:0.5:0.005"), SWEEP_BLOCK)]
# the largest error of a law value, in units in the last place of the exact
# value: 5.29 measured on the configs and grid above, rounded up
LAW_ULPS = 6.0


def exact_convolve(d1, d2):
    return [sum(d1[i] * d2[PAULI_PRODUCT[i][k]] for i in range(4)) for k in range(4)]


def exact_error(law, basis):
    return sum(law[k] for k in range(4) if ANTICOMMUTES[k][basis])


def exact_laws(p):
    """The exact frame and net error of every round at the rational ``p``:
    each baseline maps to its (frame, law), and each (noise, attack) to the
    frame and a map from MDI protocol to the frame composed with the
    re-transmission error."""
    single = [1 - 3 * p / 4, p / 4, p / 4, p / 4]
    twice = exact_convolve(single, single)
    eve = [Fraction(v) for v in INTERCEPT_RESEND_DIST.probabilities]
    laws = {Protocol.TWO_STEP: (single, single), Protocol.DL04: (single, [1 - p / 2, p / 2])}
    for attack in AttackModel:
        attacked = exact_convolve(single, eve) if attack == AttackModel.INTERCEPT_RESEND else single
        frame = exact_convolve(attacked, single)
        laws[NoisePlacement.FIRST_LEG_ONLY, attack] = frame, dict.fromkeys(Protocol, frame)
        laws[NoisePlacement.BOTH_LEGS, attack] = frame, {
            Protocol.MDI_TS: exact_convolve(frame, twice),
            Protocol.MDI_DL04: exact_convolve(frame, single),
        }
    return laws


def exact_frame_and_net(cfg, laws):
    """The frame and the message law of ``cfg`` out of :func:`exact_laws`:
    an mdi-dl04 message law is the bit's (kept, flipped) pair."""
    frame, nets = laws[cfg.noise, cfg.attack]
    net = nets[cfg.protocol]
    if cfg.protocol == Protocol.MDI_DL04:
        flip = exact_error(net, MESSAGE_BASIS[cfg.dl04_encoding])
        net = [1 - flip, flip]
    return frame, net


def exact_cells(cfg, frame, law):
    bases = check_bases(cfg)
    share = Fraction(cfg.check_fraction) / len(bases)
    cells = []
    for basis in bases:
        error = exact_error(frame, basis)
        cells += [share * (1 - error), share * error]
    message = 1 - Fraction(cfg.check_fraction)
    arrived = Fraction(cfg.transmittance) ** (2 if cfg.protocol == Protocol.MDI_TS else 1)
    return cells + [message * arrived * d for d in law] + [message * (1 - arrived)]


def ulps(got, exact):
    """How far the float ``got`` lies from the rational ``exact``, in units in
    the last place of ``exact`` rounded to a float; an exact zero must be met
    exactly."""
    if not exact:
        return 0.0 if got == 0.0 else math.inf
    n, d = got.as_integer_ratio()
    a, b = exact.numerator, exact.denominator
    return abs(n * b - a * d) / (d * b) / math.ulp(a / b)


def rows(values):
    """Grid-axis-first rows, as lists of floats, of a tuple of grid arrays."""
    return np.stack(values, axis=-1).tolist()


def test_round_laws_are_within_six_ulps_of_exact_arithmetic():
    """The frame, the message law and the cell law of every simulate config
    class, and both baselines' laws, at each p of the default sweep, against
    the same compositions in rational arithmetic from each float input's
    exact value. Frames and laws are the grid calls the curves make, and
    cell laws the float calls a run makes at each p."""
    made = []
    for cfg in REFEREED_CONFIGS:
        eve = INTERCEPT_RESEND_DIST if cfg.attack == AttackModel.INTERCEPT_RESEND else None
        frame, law = round_law(cfg.protocol, DEFAULT_P_GRID, cfg.noise, cfg.dl04_encoding, eve)
        cells = []
        for p in DEFAULT_P_GRID.tolist():
            at_p = dataclasses.replace(cfg, channel_p=p)
            cells.append(_cell_probabilities(at_p, round_law_for_config(at_p)).tolist())
        made.append((cfg, rows(frame.probabilities), rows(law), cells))
    baselines = {}
    for protocol in (Protocol.TWO_STEP, Protocol.DL04):
        frame, law = round_law(protocol, DEFAULT_P_GRID, NoisePlacement.FIRST_LEG_ONLY, PauliLabel.Y)
        baselines[protocol] = rows(frame.probabilities), rows(law)
    for k, p in enumerate(DEFAULT_P_GRID.tolist()):
        exact = exact_laws(Fraction(p))
        pairs = []
        for protocol, (frame, law) in baselines.items():
            pairs += zip(frame[k] + law[k], exact[protocol][0] + exact[protocol][1])
        for cfg, frame, law, cells in made:
            exact_frame, net = exact_frame_and_net(cfg, exact)
            pairs += zip(
                frame[k] + law[k] + cells[k], exact_frame + net + exact_cells(cfg, exact_frame, net)
            )
        far = [(got, float(want)) for got, want in pairs if not ulps(got, want) <= LAW_ULPS]
        assert not far, (p, far[:4])


# the largest absolute error of each oracle readout key against rational
# arithmetic over REFEREED_CONFIGS at EQUIVALENCE_PS, as measured, rounded up
ORACLE_KEY_ATOL = {
    "swap_outcome": 2e-16,  # 1.11e-16
    "cells": 2e-16,  # 1.82e-16
    "symbol_error": 6e-16,  # 5.55e-16
    "bit_error": 5e-16,  # 4.44e-16
}


def test_oracle_readout_is_near_exact_arithmetic_on_the_verify_grid():
    """Every key of the oracle's readout, staged as ``verify`` stages it,
    against rationals from each float input's exact value: each outcome has
    probability 1/4, and every outcome's cells and the averaged message law
    are those of the exact frame and net error."""
    ps = np.array(EQUIVALENCE_PS)
    swapped = _swapped_sources(ps)
    worst = dict.fromkeys(ORACLE_KEY_ATOL, 0.0)
    for cfg in REFEREED_CONFIGS:
        out = oracle_readout(cfg, ps, *swapped[cfg.attack])
        for k, p in enumerate(EQUIVALENCE_PS):
            frame, net = exact_frame_and_net(cfg, exact_laws(Fraction(p)))
            want = {"swap_outcome": [Fraction(1, 4)] * 4, "cells": exact_cells(cfg, frame, net) * 4}
            if cfg.protocol == Protocol.MDI_TS:
                want["symbol_error"] = net
            else:
                want["bit_error"] = net[1:]
            assert out.keys() == want.keys()
            for key, values in want.items():
                got = out[key][k].ravel().tolist()
                assert len(got) == len(values), (cfg, key)
                errors = [abs(Fraction(g) - w) for g, w in zip(got, values)]
                worst[key] = max(worst[key], float(max(errors)))
    assert all(worst[key] <= atol for key, atol in ORACLE_KEY_ATOL.items()), worst


def _bits(values):
    return np.array(values, dtype=np.float64).tobytes()


@settings(max_examples=200, deadline=None)
@given(p=st.floats(0.0, 1.0), kwargs=st.sampled_from(LAW_CLASSES))
@example(p=0.37, kwargs=LAW_CLASSES[0])
@example(p=0.2, kwargs=dict(LAW_CLASSES[0], noise=NoisePlacement.BOTH_LEGS))
def test_revalidating_or_composing_with_the_identity_keeps_the_bits(p, kwargs):
    """Validation never moves a law's bits: the single-leg law, the frame and
    every mdi-ts message law that :func:`round_law` makes come back bit for
    bit from a second validation and from composition with the identity."""
    frame, law = round_law_for_config(ProtocolConfig(rounds=1, channel_p=p, seed=1, **kwargs))
    laws = [depolarizing_pauli_dist(p), frame]
    if kwargs["protocol"] == Protocol.MDI_TS:
        laws.append(PauliDistribution(law))
        assert _bits(laws[-1].probabilities) == _bits(law)
    identity = PauliDistribution((1.0, 0.0, 0.0, 0.0))
    for d in laws:
        assert _bits(PauliDistribution(d.probabilities).probabilities) == _bits(d.probabilities)
        assert _bits(convolve(d, identity).probabilities) == _bits(d.probabilities)


# One config per way a message round is decoded.
DECODINGS = [
    dict(protocol=Protocol.MDI_TS),
    dict(protocol=Protocol.MDI_DL04, dl04_encoding=PauliLabel.X),
    dict(protocol=Protocol.MDI_DL04, dl04_encoding=PauliLabel.Y),
    dict(protocol=Protocol.MDI_DL04, dl04_encoding=PauliLabel.Z),
]


def _decoding_id(kwargs):
    if kwargs["protocol"] == Protocol.MDI_TS:
        return "mdi-ts"
    return "mdi-dl04/" + kwargs["dl04_encoding"].name


def _message_diff(cfg, frame, second, symbol, cover):
    """decoded (-) encoded of one arrived message round, by the label tables."""
    if cfg.protocol == Protocol.MDI_TS:
        label = PAULI_PRODUCT[second][PAULI_PRODUCT[cover][PAULI_PRODUCT[symbol][frame]]]
        decoded = PAULI_PRODUCT[cover][label]  # Bob undoes his cover
        return PAULI_PRODUCT[decoded][symbol]
    encoding = cfg.dl04_encoding if symbol else PauliLabel.I
    label = PAULI_PRODUCT[second][PAULI_PRODUCT[encoding][frame]]
    return ANTICOMMUTES[label][MESSAGE_BASIS[cfg.dl04_encoding]] ^ symbol


def _point_mass(label):
    return PauliDistribution(tuple(float(k == label) for k in range(4)))


class TestTallyCells:
    @pytest.mark.parametrize("decoding", DECODINGS, ids=_decoding_id)
    def test_cells_follow_label_tables(self, decoding):
        """For every point-mass pair frame and re-transmission error, each
        check basis errs as the label tables say whatever Alice's check bit,
        and :func:`message_law` puts all its weight on the difference the
        label tables give for every symbol and cover."""
        cfg = ProtocolConfig(rounds=1, channel_p=0.0, seed=1, **decoding)
        entangled = cfg.protocol == Protocol.MDI_TS
        bases = check_bases(cfg)
        share = cfg.check_fraction / len(bases)
        symbols = range(4) if entangled else (0, 1)
        covers = range(4) if entangled else (0,)
        for frame, second in itertools.product(range(4), repeat=2):
            net = convolve(_point_mass(frame), _point_mass(second))
            law = message_law(cfg.protocol, cfg.dl04_encoding, net)
            for symbol, cover in itertools.product(symbols, covers):
                expected = [0.0] * len(law)
                expected[_message_diff(cfg, frame, second, symbol, cover)] = 1.0
                assert law == tuple(expected), (frame, second, symbol, cover)
            checks = []
            for b in bases:
                (error,) = {alice == alice ^ 1 ^ ANTICOMMUTES[frame][b] for alice in (0, 1)}
                checks += [share * (not error), share * error]
            cells = _cell_probabilities(cfg, (_point_mass(frame), law))
            assert cells[: len(checks)].tolist() == checks

    def test_single_photon_flip_is_range_checked_where_it_is_made(self):
        # within the 1e-12 a law's sum may miss 1 by, the two labels that
        # flip a Z readout can sum to more than 1
        net = PauliDistribution((0.0, 0.5000000000001, 0.5, 0.0))
        with pytest.raises(ValueError, match=r"bit flip 1\.0000000000001\d* outside \[0, 1\]"):
            message_law(Protocol.MDI_DL04, PauliLabel.Y, net)

    @pytest.mark.parametrize("decoding", DECODINGS, ids=_decoding_id)
    def test_sampler_draws_only_possible_cells(self, decoding):
        cfg = ProtocolConfig(
            rounds=20_000, channel_p=0.5, seed=3, transmittance=0.8,
            noise=NoisePlacement.BOTH_LEGS, **decoding,
        )
        diffs = 4 if cfg.protocol == Protocol.MDI_TS else 2
        counts = _draw_counts(cfg, round_law_for_config(cfg))
        assert counts.dtype == np.int64
        assert counts.shape == (2 * len(check_bases(cfg)) + diffs + 1,)
        assert counts.sum() == cfg.rounds
        # every check outcome, every difference and a lost round are possible here
        assert np.all(counts > 0)

    def test_lost_round_counts_only_as_message_round(self):
        common = dict(protocol=Protocol.MDI_TS, rounds=5_000, channel_p=0.3, seed=71)

        def cells(transmittance):
            cfg = ProtocolConfig(transmittance=transmittance, **common)
            return _cell_probabilities(cfg, round_law_for_config(cfg))

        arrived, lost = cells(1.0), cells(0.0)
        checks = 2 * len(check_bases(ProtocolConfig(**common)))
        np.testing.assert_array_equal(lost[:checks], arrived[:checks])
        assert lost[-1] == pytest.approx(arrived[checks:].sum(), rel=1e-15)
        assert lost[-1] > 0
        assert not lost[checks:-1].any()
        assert arrived[-1] == 0.0


class TestConfigValidation:
    def test_rejects_identity_encoding(self):
        with pytest.raises(ValueError):
            ProtocolConfig(
                protocol=Protocol.MDI_DL04,
                rounds=10,
                channel_p=0.0,
                seed=1,
                dl04_encoding=PauliLabel.I,
            )

    def test_rejects_baseline_protocols(self):
        with pytest.raises(ValueError):
            ProtocolConfig(protocol=Protocol.TWO_STEP, rounds=10, channel_p=0.0, seed=1)

    def test_rejects_bad_check_fraction(self):
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                ProtocolConfig(
                    protocol=Protocol.MDI_TS, rounds=10, channel_p=0.0, seed=1,
                    check_fraction=bad,
                )

    @pytest.mark.parametrize(
        "field", ["channel_p", "eta", "q_override", "check_fraction", "transmittance"]
    )
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_values(self, field, bad):
        kwargs = dict(protocol=Protocol.MDI_TS, rounds=10, channel_p=0.0, seed=1)
        kwargs[field] = bad
        with pytest.raises(ValueError):
            ProtocolConfig(**kwargs)

    def test_rounds_bounded_by_the_multinomial_draw(self):
        kwargs = dict(protocol=Protocol.MDI_TS, channel_p=0.1, seed=1)
        for bad in (0, MAX_ROUNDS + 1):
            with pytest.raises(ValueError, match="rounds must lie in"):
                ProtocolConfig(rounds=bad, **kwargs)
        stats = run(ProtocolConfig(rounds=MAX_ROUNDS, **kwargs))
        assert sum(stats.counts) == MAX_ROUNDS and stats.point is not None

    def test_gain_gap_bounded(self):
        kwargs = dict(protocol=Protocol.MDI_TS, rounds=2000, channel_p=0.5, seed=1)
        with pytest.raises(ValueError, match="gain gap"):
            ProtocolConfig(eta=math.nextafter(ETA_MAX, math.inf), **kwargs)
        stats = run(ProtocolConfig(eta=ETA_MAX, **kwargs))
        assert math.isfinite(stats.point.capacity.raw) and math.isfinite(stats.se["capacity"])

    @pytest.mark.parametrize(
        "field, bound, outside, message",
        [
            ("channel_p", 0.0, math.nextafter(0.0, -1.0), "channel parameter must lie in"),
            ("channel_p", 1.0, math.nextafter(1.0, 2.0), "channel parameter must lie in"),
            ("transmittance", 0.0, math.nextafter(0.0, -1.0), "transmittance must lie in"),
            ("transmittance", 1.0, math.nextafter(1.0, 2.0), "transmittance must lie in"),
            ("q_override", 0.0, math.nextafter(0.0, -1.0), "gain override must lie in"),
            ("q_override", 1.0, math.nextafter(1.0, 2.0), "gain override must lie in"),
            ("seed", 0, -1, "seed must fit in 64 bits"),
            ("seed", 2**64 - 1, 2**64, "seed must fit in 64 bits"),
        ],
    )
    def test_accepts_each_bound_and_rejects_one_step_past_it(self, field, bound, outside, message):
        kwargs = dict(protocol=Protocol.MDI_TS, rounds=10, channel_p=0.1, seed=1)
        assert getattr(ProtocolConfig(**{**kwargs, field: bound}), field) == bound
        with pytest.raises(ValueError, match=message):
            ProtocolConfig(**{**kwargs, field: outside})

    @pytest.mark.parametrize(
        "field", ["channel_p", "check_fraction", "q_override", "eta", "transmittance"]
    )
    @pytest.mark.parametrize("bad", [True, False, "0.2"])
    def test_rejects_bool_and_non_real_values(self, field, bad):
        kwargs = dict(protocol=Protocol.MDI_TS, rounds=10, channel_p=0.1, seed=1)
        kwargs[field] = bad
        with pytest.raises(ValueError, match=f"{field} must be a real number"):
            ProtocolConfig(**kwargs)

    @pytest.mark.parametrize("field", ["attack_bases", "attack_leg"])
    def test_attack_is_not_configurable(self, field):
        with pytest.raises(TypeError, match=field):
            ProtocolConfig(
                protocol=Protocol.MDI_TS, rounds=10, channel_p=0.0, seed=1, **{field: None}
            )

    @pytest.mark.parametrize(
        "field, bad", [("rounds", 100.5), ("rounds", True), ("seed", 1.5), ("seed", True)]
    )
    def test_rejects_non_integer_rounds_and_seed(self, field, bad):
        kwargs = dict(protocol=Protocol.MDI_TS, rounds=100, channel_p=0.1, seed=1)
        kwargs[field] = bad
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ProtocolConfig(**kwargs)

    def test_accepts_numpy_integer_rounds_and_seed(self):
        kwargs = dict(protocol=Protocol.MDI_TS, channel_p=0.1)
        numpy_ints = ProtocolConfig(rounds=np.int64(2000), seed=np.uint64(7), **kwargs)
        assert run(numpy_ints) == run(ProtocolConfig(rounds=2000, seed=7, **kwargs))


def _swapped_sources(ps):
    """The oracle's source at ``ps``, swapped as it is and after the attack."""
    source = oracle_source(ps)
    return {attack: entanglement_swap(oracle_attack(source, attack)) for attack in AttackModel}


def oracle_round_distributions(cfg, channel_p=None):
    """Per-round distributions of what a run tallies, from the oracle's four
    stages composed for one config: same keys and shapes as the Pauli-frame
    backend. ``channel_p`` replaces ``cfg.channel_p`` when given; a 1-D
    float64 array adds a leading grid axis to every output."""
    p = cfg.channel_p if channel_p is None else channel_p
    return oracle_readout(cfg, p, *entanglement_swap(oracle_attack(oracle_source(p), cfg.attack)))


@pytest.mark.parametrize("shape", [(4,), (2, 3)])
def test_the_swap_of_a_stack_equals_the_swap_of_each_member(shape):
    rng = np.random.default_rng(len(shape))
    matrices = random_density_matrices(rng, math.prod(shape), 16).reshape(shape + (16, 16))
    probs, pairs = entanglement_swap(DensityMatrix(matrices))
    assert probs.shape == shape + (4,) and pairs.shape == shape + (4,)
    for index in np.ndindex(shape):
        one_probs, one_pairs = entanglement_swap(DensityMatrix(matrices[index]))
        assert probs[index].tobytes() == one_probs.tobytes()
        assert pairs.matrix[index].tobytes() == one_pairs.matrix.tobytes()


def _photons_0_2_then_1_3_to_photon_order():
    """Permutation matrix taking a (16, 16) state with qubit order
    (0, 2, 1, 3), as np.kron of a kept pair and a sent pair gives it, to the
    photon order (0, 1, 2, 3), written out bit by bit."""
    perm = np.zeros((16, 16))
    for a, c, i, k in itertools.product((0, 1), repeat=4):
        perm[8 * a + 4 * i + 2 * c + k, 8 * a + 4 * c + 2 * i + k] = 1.0
    return perm


@pytest.mark.parametrize("outcome", list(BellLabel))
def test_the_swap_of_a_product_state_only_corrects_the_kept_pair(outcome):
    """Kept photons 0 and 2 in any state, sent photons 1 and 3 in a Bell
    diagonal mixture weighted towards ``outcome``: the outcome law is the
    mixture's weights, and every outcome's pair is the kept pair under that
    outcome's correction alone."""
    weights = np.full(4, 0.1)
    weights[outcome] = 0.7
    sent = sum(w * pure_density(bell_state(b)).matrix for w, b in zip(weights, BellLabel))
    kept = random_density_matrices(np.random.default_rng(int(outcome)), 1, 4)[0]
    perm = _photons_0_2_then_1_3_to_photon_order()
    probs, pairs = entanglement_swap(DensityMatrix(perm @ np.kron(kept, sent) @ perm.T))
    np.testing.assert_allclose(probs, weights, atol=1e-15)
    for b in BellLabel:
        fix = pauli_on_qubit_oracle(int(swap_correction(b)), 1, 2)
        np.testing.assert_allclose(pairs.matrix[b], fix @ kept @ fix.conj().T, atol=1e-15)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_swap_outcome_law_is_the_bell_measurement_of_the_sent_photons(seed):
    """The swap's outcome law is bell_measure of photons 1 and 3 alone, with
    photons 0 and 2 traced out as a loop over their bits."""
    rho = random_density_matrices(np.random.default_rng(seed), 1, 16)[0]
    sent = np.zeros((4, 4), dtype=complex)
    for i, k, j, l, a, c in itertools.product((0, 1), repeat=6):
        sent[2 * i + k, 2 * j + l] += rho[8 * a + 4 * i + 2 * c + k, 8 * a + 4 * j + 2 * c + l]
    probs, _ = entanglement_swap(DensityMatrix(rho))
    np.testing.assert_allclose(probs, bell_measure(DensityMatrix(sent)), atol=1e-15)


# SHA-256 of oracle_round_distributions(cfg, DEFAULT_P_GRID) over
# REFEREED_CONFIGS, each key's name and float64 bytes in sorted key order,
# taken when the oracle's stacks became float64: np.trace sums a real
# stack's four diagonal entries in another order than a complex one's, so
# every key moved, by at most 3.4e-16.
DEFAULT_GRID_ORACLE_SHA256 = "b03f3643794f635c5b2fc7150dc46fe0edd07ac9c42cadfae9894ad85af270e3"


def readout_noising_the_encoded_states(cfg, channel_p, swap_outcome, pair):
    """:func:`oracle_readout` with the both-legs re-transmission noise in its
    first order: applied to every encoded (mdi-dl04) or encoded and covered
    (mdi-ts) state, after the Paulis, rather than to the swapped pairs. The
    check cells are read off the un-noised pairs in both orders."""
    both_legs = cfg.noise == NoisePlacement.BOTH_LEGS
    labels = np.arange(4)
    if cfg.protocol == Protocol.MDI_TS:
        sent = 2
        encoded = apply_pauli(pair[..., None, :], labels[:, None], 0)
        covered = apply_pauli(encoded[..., None, :, :], labels[:, None, None], 1)
        if both_legs:
            covered = depolarize(depolarize(covered, channel_p, 0), channel_p, 1)
        law = np.einsum(
            "...csoq,scqd->...od", bell_measure(covered), mdiqsdc.oracle._SYMBOL_DIFFERENCE
        )
    else:
        sent = 1
        encoded = apply_pauli(pair[..., None, :], [[PauliLabel.I], [cfg.dl04_encoding]], 0)
        if both_legs:
            encoded = depolarize(encoded, channel_p, 0)
        agreement = mdiqsdc.oracle._agreement_projectors(MESSAGE_BASIS[cfg.dl04_encoding])
        flip = np.einsum("kij,...koji->...o", agreement, encoded.matrix).real / 2.0
        law = np.stack([1.0 - flip, flip], axis=-1)
    bases = check_bases(cfg)
    share = cfg.check_fraction / len(bases)
    cells = []
    for basis in bases:
        projector = mdiqsdc.oracle._agreement_projectors(basis)[0]
        error = np.einsum("ij,...oji->...o", projector, pair.matrix).real
        cells += [share * (1.0 - error), share * error]
    message = 1.0 - cfg.check_fraction
    arrival = cfg.transmittance**sent
    cells += [message * arrival * law[..., d] for d in range(law.shape[-1])]
    cells.append(np.full_like(error, message * (1.0 - arrival)))
    out = {"swap_outcome": swap_outcome, "cells": np.stack(cells, axis=-1)}
    averaged = np.einsum("...o,...od->...d", swap_outcome, law)
    if cfg.protocol == Protocol.MDI_TS:
        out["symbol_error"] = averaged
    else:
        out["bit_error"] = averaged[..., 1:]
    return out


@pytest.mark.parametrize(
    "ps", [np.array(EQUIVALENCE_PS), DEFAULT_P_GRID], ids=["verify-grid", "default-sweep-grid"]
)
def test_noising_the_pairs_before_the_paulis_keeps_every_readout_byte(ps):
    """A Pauli channel commutes with a Pauli conjugation entry for entry, so
    the second-leg noise may act on the swapped pairs before the encodings
    and covers: every key of every refereed config keeps its bytes."""
    swapped = _swapped_sources(ps)
    for cfg in REFEREED_CONFIGS:
        got = oracle_readout(cfg, ps, *swapped[cfg.attack])
        want = readout_noising_the_encoded_states(cfg, ps, *swapped[cfg.attack])
        assert got.keys() == want.keys()
        for key, value in want.items():
            assert got[key].dtype == value.dtype and got[key].shape == value.shape
            assert got[key].tobytes() == value.tobytes(), (cfg, key)


class TestBackendEquivalence:
    @pytest.mark.parametrize("protocol", [Protocol.MDI_TS, Protocol.MDI_DL04])
    @pytest.mark.parametrize("p", [0.0, 0.3])
    @pytest.mark.parametrize("attack", [AttackModel.NONE, AttackModel.INTERCEPT_RESEND])
    @pytest.mark.parametrize(
        "noise", [NoisePlacement.FIRST_LEG_ONLY, NoisePlacement.BOTH_LEGS]
    )
    def test_distributions_match(self, protocol, p, attack, noise):
        cfg = ProtocolConfig(
            protocol=protocol, rounds=1, channel_p=p, seed=0, attack=attack, noise=noise
        )
        fast = pauli_frame_round_distributions(cfg)
        exact = oracle_round_distributions(cfg)
        assert fast.keys() == exact.keys()
        for key in fast:
            np.testing.assert_allclose(fast[key], exact[key], atol=1e-12, err_msg=key)

    @pytest.mark.parametrize("encoding", [PauliLabel.X, PauliLabel.Y, PauliLabel.Z])
    def test_distributions_match_for_every_encoding(self, encoding):
        cfg = ProtocolConfig(
            protocol=Protocol.MDI_DL04,
            rounds=1,
            channel_p=0.25,
            seed=0,
            dl04_encoding=encoding,
            noise=NoisePlacement.BOTH_LEGS,
        )
        fast = pauli_frame_round_distributions(cfg)
        exact = oracle_round_distributions(cfg)
        for key in fast:
            np.testing.assert_allclose(fast[key], exact[key], atol=1e-12, err_msg=key)

    # the Pauli-frame side takes the config's own channel parameter only
    @pytest.mark.parametrize("backend", [oracle_round_distributions])
    @pytest.mark.parametrize("protocol", [Protocol.MDI_TS, Protocol.MDI_DL04])
    @pytest.mark.parametrize("noise", list(NoisePlacement))
    @pytest.mark.parametrize("attack", list(AttackModel))
    def test_grid_rows_equal_the_per_config_calls(self, backend, protocol, noise, attack):
        ps = (0.0, 0.1, 0.3, 0.5, 1.0)
        cfg = ProtocolConfig(
            protocol=protocol, rounds=1, channel_p=0.0, seed=0, attack=attack, noise=noise
        )
        grid = backend(cfg, np.array(ps))
        for i, p in enumerate(ps):
            one = backend(dataclasses.replace(cfg, channel_p=p))
            assert grid.keys() == one.keys()
            for key in one:
                assert grid[key].shape == (len(ps),) + one[key].shape, key
                np.testing.assert_array_equal(grid[key][i], one[key], err_msg=f"{key} p={p}")

    @pytest.mark.parametrize(
        "ps",
        [0.0, 0.1, 0.5, 1.0, np.array([0.0, 0.1, 0.5, 1.0])],
        ids=["0.0", "0.1", "0.5", "1.0", "verify-grid"],
    )
    def test_shared_stages_give_the_composed_oracle_byte_for_byte(self, ps):
        # as verify does: one source and one swap per attack model, read out for
        # every config class and for check fraction 0.3 and transmittance 0.7
        swapped = _swapped_sources(ps)
        for cfg in REFEREED_CONFIGS:
            staged = oracle_readout(cfg, ps, *swapped[cfg.attack])
            composed = oracle_round_distributions(cfg, ps)
            assert staged.keys() == composed.keys()
            for key, value in composed.items():
                assert staged[key].dtype == value.dtype and staged[key].shape == value.shape
                assert staged[key].tobytes() == value.tobytes(), (cfg, key)

    def test_shared_stages_keep_the_oracle_bits_on_the_default_sweep_grid(self):
        # one pass only: the composed calls would double the cost of this test
        swapped = _swapped_sources(DEFAULT_P_GRID)
        digest = hashlib.sha256()
        for cfg in REFEREED_CONFIGS:
            out = oracle_readout(cfg, DEFAULT_P_GRID, *swapped[cfg.attack])
            for key in sorted(out):
                digest.update(key.encode())
                digest.update(out[key].tobytes())
        assert digest.hexdigest() == DEFAULT_GRID_ORACLE_SHA256

    @pytest.mark.parametrize("protocol", [Protocol.MDI_TS, Protocol.MDI_DL04])
    @pytest.mark.parametrize("noise", list(NoisePlacement))
    def test_attack_on_bobs_leg_gives_alices_tables(self, monkeypatch, protocol, noise):
        # the frame is a product in an abelian group, so the attacked leg
        # matters only physically: the oracle attacking Bob's sent photon
        # (qubit 3) reproduces the tables of the attack on Alice's
        cfg = ProtocolConfig(
            protocol=protocol,
            rounds=1,
            channel_p=0.2,
            seed=0,
            noise=noise,
            attack=AttackModel.INTERCEPT_RESEND,
        )
        alice = oracle_round_distributions(cfg)
        attacked = []
        original = intercept_resend_channel

        def on_bobs_leg(dm, qubit):
            attacked.append(qubit)
            return original(dm, 3)

        monkeypatch.setattr(mdiqsdc.oracle, "intercept_resend_channel", on_bobs_leg)
        bob = oracle_round_distributions(cfg)
        assert attacked == [1]
        assert bob.keys() == alice.keys()
        for key in alice:
            np.testing.assert_allclose(bob[key], alice[key], atol=1e-12, err_msg=key)


class TestOracleStillReferees:
    """A non-unitary operation in the stacked oracle shows up as an invalid
    state. Every mutation that ``verify`` must catch is listed in
    ``tests/test_verification.py``."""

    def test_non_unitary_cover_is_rejected_by_the_stack_validator(self, monkeypatch):
        cfg = ProtocolConfig(protocol=Protocol.MDI_TS, rounds=1, channel_p=0.1, seed=0)
        # every pair keeps its uncorrected frame, so the cover stage is the
        # first to conjugate Bob's photon by X
        monkeypatch.setattr(mdiqsdc.oracle, "swap_correction", lambda o: PauliLabel.I)
        oracle_round_distributions(cfg)
        conjugates = mdiqsdc.quantum._pauli_conjugates

        def leaky(dm, qubit):
            terms = conjugates(dm, qubit)
            if (dm.num_qubits, qubit) == (2, 1):
                # X scaled by 1.1 on both sides: Hermitian, not unitary
                terms = (terms[0], 1.21 * terms[1], *terms[2:])
            return terms

        monkeypatch.setattr(mdiqsdc.quantum, "_pauli_conjugates", leaky)
        with pytest.raises(ValueError, match="trace") as excinfo:
            oracle_round_distributions(cfg)
        assert excinfo.traceback[-1].name == "validate_density_stack"
        assert "apply_pauli" in [entry.name for entry in excinfo.traceback]


class TestTranscriptProperties:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        p=st.floats(min_value=0.0, max_value=1.0),
        check_fraction=st.floats(min_value=0.05, max_value=0.95),
        protocol=st.sampled_from([Protocol.MDI_TS, Protocol.MDI_DL04]),
    )
    @settings(max_examples=30, deadline=None)
    def test_structural_invariants_hold_for_any_config(
        self, seed, p, check_fraction, protocol
    ):
        cfg = ProtocolConfig(
            protocol=protocol,
            rounds=500,
            channel_p=p,
            seed=seed,
            check_fraction=check_fraction,
        )
        stats = run(cfg)
        assert sum(stats.counts) == 500
        check_rounds = sum(samples for _, samples in stats.checks.values())
        assert check_rounds + stats.message_rounds == 500
        assert 0 <= stats.decoded_rounds <= stats.message_rounds
        for errors, samples in stats.checks.values():
            assert 0 <= errors <= samples
        assert (stats.point is None) == (stats.unavailable_reason is not None)
        if stats.point is not None:
            for basis, (_, samples) in stats.checks.items():
                name = f"eps_{basis.name.lower()}"
                if samples:
                    assert 0.0 <= getattr(stats.point, name) <= 1.0
                    assert stats.se[name] >= 0.0
            assert stats.point.capacity.clamped == max(stats.point.capacity.raw, 0.0)
            assert stats.se["capacity"] >= 0.0
        else:
            assert stats.unavailable_reason

    @pytest.mark.parametrize("protocol", [Protocol.MDI_TS, Protocol.MDI_DL04])
    def test_tally_is_split_once_per_record(self, monkeypatch, protocol):
        cfg = ProtocolConfig(protocol=protocol, rounds=2000, channel_p=0.1, seed=5)
        stats = dataclasses.replace(run(cfg))  # a fresh record, no view read yet
        splits = []
        split_tally = mdiqsdc.protocol._split_tally

        def counting(*args):
            splits.append(args)
            return split_tally(*args)

        monkeypatch.setattr(mdiqsdc.protocol, "_split_tally", counting)
        for view in ("checks", "differences", "message_rounds", "decoded_rounds", "gain"):
            getattr(stats, view)
        assert len(splits) <= 1
        assert stats == run(cfg)  # the cached split is no field


class TestQberInterval:
    def test_three_sigma_interval_covers_truth(self):
        # 100 seeded runs; the +-3 SE interval must cover the configured
        # channel's value in at least 99 of them
        p = 0.3
        expected = 2 * (p / 2) * (1 - p / 2)
        covered = 0
        for seed in range(100):
            cfg = ProtocolConfig(
                protocol=Protocol.MDI_TS,
                rounds=20_000,
                channel_p=p,
                seed=seed,
                check_fraction=0.4,
            )
            stats = run(cfg)
            if abs(stats.point.eps_z - expected) <= 3 * stats.se["eps_z"]:
                covered += 1
        assert covered >= 99
