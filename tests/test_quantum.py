"""Core state-algebra tests, cross-checked against independent matrix oracles."""

import dataclasses
import itertools
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mdiqsdc.quantum
from mdiqsdc.oracle import entanglement_swap
from mdiqsdc.quantum import (
    ATOL_HERMITIAN,
    BELL_VECTORS,
    BellLabel,
    DensityMatrix,
    PauliDistribution,
    PauliLabel,
    apply_pauli,
    basis_eigenvector,
    bell_measure,
    bell_state,
    holevo_bound,
    pauli_channel,
    product_decompose,
    pure_density,
    purify_bell_diagonal,
    single_photon,
    validate_density_stack,
    validate_probability_vector,
    von_neumann_entropy,
)

R = 1.0 / math.sqrt(2.0)

PAULI = [
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


def kron_chain(ops):
    out = np.array([[1.0]], dtype=complex)
    for op in ops:
        out = np.kron(out, op)
    return out


def pauli_on_qubit_oracle(op_index, qubit, num_qubits):
    """Independent embedding: plain Kronecker chain, no axis permutation."""
    ops = [np.eye(2, dtype=complex)] * num_qubits
    ops[qubit] = PAULI[op_index]
    return kron_chain(ops)


def trace_out_environment(dm):
    """The pair, qubits 0 and 1, of a purification whose four-dimensional
    environment is qubits 2 and 3: entry (r, s) sums rho[4r + e, 4s + e] over e."""
    pair = np.zeros((4, 4), dtype=complex)
    for r, s, e in itertools.product(range(4), repeat=3):
        pair[r, s] += dm.matrix[4 * r + e, 4 * s + e]
    return DensityMatrix(pair)


def random_pure(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density(rng, dim, rank=None):
    rank = rank or dim
    mat = np.zeros((dim, dim), dtype=complex)
    weights = rng.dirichlet(np.ones(rank))
    for w in weights:
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        mat += w * np.outer(v, v.conj())
    return DensityMatrix(mat)


deltas_strategy = st.lists(
    st.floats(min_value=1e-3, max_value=1.0), min_size=4, max_size=4
).map(lambda vs: tuple(v / sum(vs) for v in vs))


class TestBellStates:
    def test_amplitude_table(self):
        expected = {
            BellLabel.PSI_MINUS: [0, R, -R, 0],
            BellLabel.PSI_PLUS: [0, R, R, 0],
            BellLabel.PHI_MINUS: [R, 0, 0, -R],
            BellLabel.PHI_PLUS: [R, 0, 0, R],
        }
        for label, amps in expected.items():
            np.testing.assert_allclose(bell_state(label), np.array(amps), atol=1e-12)

    def test_normalized(self):
        for label in BellLabel:
            assert abs(np.sum(np.abs(bell_state(label)) ** 2) - 1) < 1e-15

    def test_mutually_orthogonal(self):
        for a in BellLabel:
            for b in BellLabel:
                overlap = np.vdot(bell_state(a), bell_state(b))
                assert abs(overlap - (1.0 if a == b else 0.0)) < 1e-15


class TestApplyPauli:
    def test_identity_fixes_singlet(self):
        rho = pure_density(bell_state(BellLabel.PSI_MINUS))
        for qubit in (0, 1):
            same = apply_pauli(rho, PauliLabel.I, qubit)
            np.testing.assert_array_equal(same.matrix, rho.matrix)

    def test_z_on_second_qubit_maps_singlet_to_triplet(self):
        rho = pure_density(bell_state(BellLabel.PSI_MINUS))
        got = apply_pauli(rho, PauliLabel.Z, 1)
        # independent oracle: explicit 4x4 multiplication
        oracle = pauli_on_qubit_oracle(3, 1, 2) @ BELL_VECTORS[0]
        np.testing.assert_allclose(got.matrix, np.outer(oracle, oracle.conj()), atol=1e-12)
        np.testing.assert_allclose(bell_measure(got), [0, 1, 0, 0], atol=1e-12)

    @pytest.mark.parametrize("op", list(PauliLabel))
    @pytest.mark.parametrize("qubit", [0, 1])
    def test_matches_matrix_oracle_on_random_states(self, op, qubit):
        rng = np.random.default_rng(1234 + 7 * int(op) + qubit)
        full = pauli_on_qubit_oracle(int(op), qubit, 2)
        for _ in range(20):
            state = random_density(rng, 4)
            got = apply_pauli(state, op, qubit).matrix
            np.testing.assert_allclose(got, full @ state.matrix @ full.conj().T, atol=1e-14)

    def test_density_matrix_conjugation(self):
        rng = np.random.default_rng(99)
        dm = random_density(rng, 4)
        got = apply_pauli(dm, PauliLabel.Y, 0).matrix
        full = pauli_on_qubit_oracle(2, 0, 2)
        np.testing.assert_allclose(got, full @ dm.matrix @ full.conj().T, atol=1e-14)

    @given(
        op=st.sampled_from(list(PauliLabel)),
        qubit=st.integers(min_value=0, max_value=1),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_involution(self, op, qubit, seed):
        state = random_density(np.random.default_rng(seed), 4)
        back = apply_pauli(apply_pauli(state, op, qubit), op, qubit)
        np.testing.assert_allclose(back.matrix, state.matrix, atol=1e-14)

    def test_permutes_bell_states_without_leakage(self):
        for label in BellLabel:
            for op in PauliLabel:
                for qubit in (0, 1):
                    moved = apply_pauli(pure_density(bell_state(label)), op, qubit)
                    probs = bell_measure(moved)
                    assert np.count_nonzero(probs > 1e-12) == 1
                    assert abs(probs.max() - 1.0) < 1e-12

    def test_index_out_of_range(self):
        for qubit in (2, -1):
            with pytest.raises(IndexError):
                apply_pauli(pure_density(bell_state(BellLabel.PSI_MINUS)), PauliLabel.X, qubit)


def sparse_density_stack(rng, count, dim):
    """Density matrices of which about 30% of the entries are exact zeros,
    all off the diagonal: Hermitian by construction, positive by diagonal
    dominance, then divided by the trace."""
    upper = rng.normal(size=(count, dim, dim)) + 1j * rng.normal(size=(count, dim, dim))
    upper[rng.random(upper.shape) < 0.3 * dim / (dim - 1)] = 0.0
    upper = np.triu(upper, 1)
    mat = upper + upper.conj().swapaxes(-1, -2)
    diagonal = np.abs(mat).sum(axis=-1) + rng.random((count, dim)) + 0.1
    mat = mat + diagonal[..., None] * np.eye(dim)
    return mat / np.trace(mat, axis1=-2, axis2=-1)[:, None, None].real


# The largest deviation of an apply_pauli output's inherited eigenvalues from
# eigvalsh of the output over label_cases was 3.9e-16.
INHERITED_SPECTRUM_ATOL = 4e-16


def label_cases(num_qubits):
    """(stack, labels, qubit): a stack of 12 with about 30% exact zeros on
    every qubit, with each scalar label, (4, 1) labels that broadcast to a
    (4, 12) stack, and one label per member."""
    rng = np.random.default_rng(90 + num_qubits)
    stack = DensityMatrix(sparse_density_stack(rng, 12, 2**num_qubits))
    assert 0.2 < np.mean(stack.matrix == 0) < 0.4
    for qubit in range(num_qubits):
        for labels in (*PauliLabel, np.arange(4)[:, None], rng.integers(0, 4, 12)):
            yield stack, labels, qubit


class TestPauliConjugationForm:
    """Paulis act by moving and negating entries; the result equals the
    dense Kronecker-chain conjugation P rho P exactly in value."""

    @pytest.mark.parametrize("num_qubits", [1, 2, 4])
    def test_apply_pauli_equals_the_dense_conjugation(self, num_qubits):
        rng = np.random.default_rng(70 + num_qubits)
        stack = DensityMatrix(sparse_density_stack(rng, 12, 2**num_qubits))
        assert 0.2 < np.mean(stack.matrix == 0) < 0.4
        for qubit in range(num_qubits):
            for op in PauliLabel:
                full = pauli_on_qubit_oracle(int(op), qubit, num_qubits)
                got = apply_pauli(stack, op, qubit)
                np.testing.assert_array_equal(got.matrix, full @ stack.matrix @ full)

    @pytest.mark.parametrize("num_qubits", [1, 2, 4])
    def test_pauli_channel_equals_the_dense_kraus_sum(self, num_qubits):
        rng = np.random.default_rng(75 + num_qubits)
        stack = DensityMatrix(sparse_density_stack(rng, 12, 2**num_qubits))
        weights = tuple(rng.dirichlet(np.ones(4)))
        for qubit in range(num_qubits):
            want = weights[0] * stack.matrix
            for k in (1, 2, 3):
                full = pauli_on_qubit_oracle(k, qubit, num_qubits)
                want = want + weights[k] * (full @ stack.matrix @ full)
            got = pauli_channel(stack, weights, qubit)
            np.testing.assert_array_equal(got.matrix, want)

    @pytest.mark.parametrize("qubit", [0, 1])
    def test_broadcast_labels_equal_the_dense_conjugation(self, qubit):
        stack = DensityMatrix(sparse_density_stack(np.random.default_rng(80 + qubit), 4, 4))
        got = apply_pauli(stack, np.arange(4)[:, None], qubit)
        assert got.shape == (4, 4)
        for op in PauliLabel:
            full = pauli_on_qubit_oracle(int(op), qubit, 2)
            for m in range(4):
                np.testing.assert_array_equal(got.matrix[op, m], full @ stack.matrix[m] @ full)

    @pytest.mark.parametrize("num_qubits", [1, 2, 4])
    def test_the_inherited_spectrum_is_the_outputs_own(self, num_qubits):
        """An output's eigenvalues come from its input unrecomputed; they
        must be what eigvalsh finds for the output itself."""
        for stack, labels, qubit in label_cases(num_qubits):
            got = apply_pauli(stack, labels, qubit)
            assert got.eigenvalues.shape == got.shape + (got.dim,)
            want = np.linalg.eigvalsh(got.matrix)
            np.testing.assert_allclose(got.eigenvalues, want, rtol=0, atol=INHERITED_SPECTRUM_ATOL)

    @pytest.mark.parametrize("num_qubits", [1, 2, 4])
    def test_the_selection_is_bit_identical_to_choose(self, num_qubits):
        for stack, labels, qubit in label_cases(num_qubits):
            index = np.asarray(labels)
            want = np.choose(
                index.reshape(index.shape + (1,) * 6),
                mdiqsdc.quantum._pauli_conjugates(stack, qubit),
            )
            got = apply_pauli(stack, labels, qubit).matrix
            assert got.shape == want.shape[:-6] + (stack.dim, stack.dim)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("op", [-1, -3, 1.5, True, 4, [0, 4], np.array([1.0])])
    def test_a_label_outside_zero_to_three_is_rejected(self, op):
        rho = pure_density(bell_state(BellLabel.PSI_MINUS))
        message = r"Pauli labels must be integers in \[0, 3\], got " + re.escape(repr(op))
        with pytest.raises(ValueError, match=message):
            apply_pauli(rho, op, 0)


class TestPauliChannel:
    @pytest.mark.parametrize("num_qubits", [1, 2, 4])
    def test_matches_the_kraus_sum_oracle(self, num_qubits):
        rng = np.random.default_rng(60 + num_qubits)
        weights = tuple(rng.dirichlet(np.ones(4)))
        for qubit in range(num_qubits):
            rho = random_density(rng, 2**num_qubits)
            want = sum(
                w * pauli_on_qubit_oracle(k, qubit, num_qubits)
                @ rho.matrix
                @ pauli_on_qubit_oracle(k, qubit, num_qubits).conj().T
                for k, w in enumerate(weights)
            )
            got = pauli_channel(rho, weights, qubit)
            np.testing.assert_allclose(got.matrix, want, atol=1e-14)

    def test_identity_weight_alone_returns_the_state(self):
        rho = random_density(np.random.default_rng(64), 4)
        for qubit in (0, 1):
            got = pauli_channel(rho, (1.0, 0.0, 0.0, 0.0), qubit)
            np.testing.assert_array_equal(got.matrix, rho.matrix)

    @pytest.mark.parametrize("qubit", [0, 1])
    def test_array_weights_act_per_index_of_the_first_axis(self, qubit):
        rng = np.random.default_rng(65 + qubit)
        stack = DensityMatrix(random_density_matrices(rng, 6, 4).reshape(3, 2, 4, 4))
        rows = np.array([rng.dirichlet(np.ones(4)) for _ in range(3)])
        got = pauli_channel(stack, tuple(rows.T), qubit)
        assert got.shape == (3, 2)
        for i in range(3):
            want = pauli_channel(stack[i], tuple(float(w) for w in rows[i]), qubit)
            np.testing.assert_array_equal(got.matrix[i], want.matrix)

    def test_index_out_of_range(self):
        rho = pure_density(bell_state(BellLabel.PSI_MINUS))
        for qubit in (2, -1):
            with pytest.raises(IndexError):
                pauli_channel(rho, (0.25, 0.25, 0.25, 0.25), qubit)


class TestBellMeasure:
    def test_eigenstate(self):
        probs = bell_measure(pure_density(bell_state(BellLabel.PSI_MINUS)))
        np.testing.assert_allclose(probs, [1, 0, 0, 0], atol=1e-15)

    def test_maximally_mixed(self):
        probs = bell_measure(DensityMatrix(np.eye(4) / 4))
        np.testing.assert_allclose(probs, [0.25] * 4, atol=1e-15)

    def test_plus_plus_splits_between_triplets(self):
        state = pure_density(np.kron(single_photon("+"), single_photon("+")))
        probs = bell_measure(state)
        np.testing.assert_allclose(probs, [0.0, 0.5, 0.0, 0.5], atol=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            probs = bell_measure(random_density(rng, 4))
            assert abs(probs.sum() - 1.0) < 1e-12


class TestProductDecompose:
    # Same-basis pairs and their Bell amplitudes over (psi-, psi+, phi-, phi+).
    TABLE = {
        ("0", "0"): (0, 0, R, R),
        ("1", "1"): (0, 0, -R, R),
        ("0", "1"): (R, R, 0, 0),
        ("1", "0"): (-R, R, 0, 0),
        ("+", "+"): (0, R, 0, R),
        ("-", "-"): (0, -R, 0, R),
        ("+", "-"): (-R, 0, R, 0),
        ("-", "+"): (R, 0, R, 0),
    }

    @pytest.mark.parametrize("pair", sorted(TABLE))
    def test_amplitudes(self, pair):
        a, b = pair
        amps = product_decompose(single_photon(a), single_photon(b))
        np.testing.assert_allclose(amps, np.array(self.TABLE[pair]), atol=1e-12)

    @pytest.mark.parametrize("pair", sorted(TABLE))
    def test_magnitudes_normalized(self, pair):
        a, b = pair
        amps = product_decompose(single_photon(a), single_photon(b))
        assert abs(np.sum(np.abs(amps) ** 2) - 1.0) < 1e-12

    @pytest.mark.parametrize("pair", sorted(TABLE))
    def test_consistent_with_bell_measurement(self, pair):
        a, b = pair
        sa, sb = single_photon(a), single_photon(b)
        amps = product_decompose(sa, sb)
        probs = bell_measure(pure_density(np.kron(sa, sb)))
        np.testing.assert_allclose(probs, np.abs(amps) ** 2, atol=1e-12)


class TestPauliTwirl:
    """``bell_measure`` gives the Bell-diagonal weights a full local twirl
    leaves of a two-qubit state."""

    def test_bell_diagonal_input_is_fixed_point(self):
        d = bell_measure(pure_density(bell_state(BellLabel.PSI_MINUS)))
        np.testing.assert_allclose(d, [1.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_maximally_mixed(self):
        d = bell_measure(DensityMatrix(np.eye(4) / 4))
        np.testing.assert_allclose(d, [0.25] * 4, atol=1e-15)

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.7, 1.0])
    def test_one_side_depolarized_singlet(self, p):
        # oracle: apply the channel by explicit Pauli mixing on qubit 1
        rho = pure_density(bell_state(BellLabel.PSI_MINUS)).matrix
        mixed = (1 - 0.75 * p) * rho
        for k in (1, 2, 3):
            full = pauli_on_qubit_oracle(k, 1, 2)
            mixed = mixed + 0.25 * p * full @ rho @ full.conj().T
        d = bell_measure(DensityMatrix(mixed))
        np.testing.assert_allclose(
            d, [1 - 0.75 * p, 0.25 * p, 0.25 * p, 0.25 * p], atol=1e-12
        )


class TestPurification:
    def test_pure_input(self):
        rho = purify_bell_diagonal(PauliDistribution.from_bell_weights((1.0, 0.0, 0.0, 0.0)))
        expected = np.zeros(16, dtype=complex)
        expected[0 * 4 + 0] = BELL_VECTORS[0][0]
        expected[1 * 4 + 0] = BELL_VECTORS[0][1]
        expected[2 * 4 + 0] = BELL_VECTORS[0][2]
        expected[3 * 4 + 0] = BELL_VECTORS[0][3]
        assert np.vdot(expected, rho.matrix @ expected).real >= 1 - 1e-12

    def test_uniform_reduces_to_maximally_mixed(self):
        psi = purify_bell_diagonal(PauliDistribution.from_bell_weights((0.25, 0.25, 0.25, 0.25)))
        pair = trace_out_environment(psi)
        np.testing.assert_allclose(pair.matrix, np.eye(4) / 4, atol=1e-12)

    @given(deltas=deltas_strategy)
    @settings(max_examples=25, deadline=None)
    def test_tracing_out_the_environment_recovers_weights(self, deltas):
        psi = purify_bell_diagonal(PauliDistribution.from_bell_weights(deltas))
        pair = trace_out_environment(psi)
        np.testing.assert_allclose(bell_measure(pair), deltas, atol=1e-12)


class TestEntropy:
    def test_pure_state_zero(self):
        s = von_neumann_entropy(pure_density(bell_state(BellLabel.PHI_PLUS)))
        assert abs(s) < 1e-10

    def test_maximally_mixed_two_qubits(self):
        assert abs(von_neumann_entropy(DensityMatrix(np.eye(4) / 4)) - 2.0) < 1e-12

    def test_equal_mixture_of_two_bell_states(self):
        psi = purify_bell_diagonal(PauliDistribution.from_bell_weights((0.5, 0.5, 0.0, 0.0)))
        dm = trace_out_environment(psi)
        assert abs(von_neumann_entropy(dm) - 1.0) < 1e-12

    @given(deltas=deltas_strategy)
    @settings(max_examples=50, deadline=None)
    def test_bell_diagonal_entropy_is_shannon_of_weights(self, deltas):
        d = PauliDistribution.from_bell_weights(deltas)
        shannon = -sum(p * math.log2(p) for p in d.probabilities if p > 0)
        pair = trace_out_environment(purify_bell_diagonal(d))
        assert abs(von_neumann_entropy(pair) - shannon) < 1e-10

    def test_range(self):
        rng = np.random.default_rng(31)
        for dim in (2, 4, 16):
            s = von_neumann_entropy(random_density(rng, dim))
            assert 0.0 <= s <= math.log2(dim) + 1e-12


def ensemble(states):
    """The (n, d, d) ensemble stack of n single states."""
    return DensityMatrix(np.stack([state.matrix for state in states]))


class TestHolevoBound:
    def test_identical_states_give_zero(self):
        dm = pure_density(bell_state(BellLabel.PSI_MINUS))
        assert abs(holevo_bound(ensemble([dm, dm]), [0.5, 0.5])) < 1e-10

    def test_orthogonal_pure_states(self):
        states = [pure_density(bell_state(label)) for label in BellLabel]
        chi = holevo_bound(ensemble(states), [0.25] * 4)
        assert abs(chi - 2.0) < 1e-10

    def test_unitary_invariance(self):
        rng = np.random.default_rng(17)
        states = [random_density(rng, 4, rank=2) for _ in range(3)]
        priors = [0.5, 0.3, 0.2]
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        unitary, _ = np.linalg.qr(raw)
        rotated = [DensityMatrix(unitary @ s.matrix @ unitary.conj().T) for s in states]
        chi = holevo_bound(ensemble(states), priors)
        assert abs(chi - holevo_bound(ensemble(rotated), priors)) < 1e-9

    def test_nonnegative(self):
        rng = np.random.default_rng(19)
        states = [random_density(rng, 4) for _ in range(4)]
        assert holevo_bound(ensemble(states), [0.25] * 4) >= -1e-9

    def test_a_single_state_is_not_an_ensemble(self):
        dm = pure_density(bell_state(BellLabel.PSI_MINUS))
        with pytest.raises(ValueError, match="ensemble stack"):
            holevo_bound(dm, [1.0])

    def test_invalid_priors(self):
        dm = pure_density(bell_state(BellLabel.PSI_MINUS))
        with pytest.raises(ValueError):
            holevo_bound(ensemble([dm, dm]), [0.9, 0.3])


def rotated_spectrum(dim, lowest, seed):
    """Haar-random rotation of a trace-1 spectrum with the given lowest eigenvalue."""
    rng = np.random.default_rng(seed)
    rest = rng.dirichlet(np.ones(dim - 1)) * (1.0 - lowest)
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    unitary, _ = np.linalg.qr(raw)
    mat = unitary @ np.diag(np.concatenate([[lowest], rest])) @ unitary.conj().T
    return (mat + mat.conj().T) / 2


class TestPositivityFloor:
    """The -1e-10 eigenvalue floor on matrices that are not diagonal."""

    @pytest.mark.parametrize("dim", [2, 4, 16])
    @pytest.mark.parametrize("seed", range(5))
    def test_accepts_rotated_drift_above_floor(self, dim, seed):
        mat = rotated_spectrum(dim, -0.5e-10, seed)
        assert np.max(np.abs(np.diag(np.diag(mat)) - mat)) > 1e-3  # not diagonal
        DensityMatrix(mat)

    @pytest.mark.parametrize("dim", [2, 4, 16])
    @pytest.mark.parametrize("seed", range(5))
    def test_rejects_rotated_eigenvalue_below_floor(self, dim, seed):
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(rotated_spectrum(dim, -2e-10, seed))

    @pytest.mark.parametrize("dim", [2, 4, 16])
    def test_accepts_rank_one_state(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(5):
            v = random_pure(rng, dim)
            DensityMatrix(np.outer(v, v.conj()))

    @pytest.mark.parametrize("ancilla_qubits", [0, 2])
    def test_rejects_partial_transpose_of_bell_state(self, ancilla_qubits):
        bell = pure_density(bell_state(BellLabel.PHI_PLUS)).matrix
        transposed = bell.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
        ancilla = np.zeros((2**ancilla_qubits, 2**ancilla_qubits), dtype=complex)
        ancilla[0, 0] = 1.0
        mat = np.kron(transposed, ancilla)
        assert abs(np.linalg.eigvalsh(mat)[0] + 0.5) < 1e-15
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(mat)


class TestTypeInvariants:
    def test_pure_density_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="trace"):
            pure_density(np.array([1.0, 1.0]))

    def test_pure_density_rejects_nan(self):
        with pytest.raises(ValueError, match="entries must be finite"):
            pure_density(np.array([np.nan, 0.0]))

    def test_pure_density_rejects_odd_dimension(self):
        with pytest.raises(ValueError, match="unsupported dimension"):
            pure_density(np.ones(8) / math.sqrt(8))

    def test_density_matrix_rejects_non_hermitian(self):
        mat = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError):
            DensityMatrix(mat)

    def test_density_matrix_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))

    def test_density_matrix_rejects_negative_eigenvalue(self):
        mat = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError):
            DensityMatrix(mat)

    def test_density_matrix_accepts_tiny_negative_drift(self):
        mat = np.diag([1.0 + 5e-11, -5e-11]).astype(complex)
        DensityMatrix(mat)  # within the -1e-10 floor

    def test_the_constructor_copies_its_input(self):
        arr = np.eye(2, dtype=complex) / 2
        dm = DensityMatrix(arr)
        assert arr.flags.writeable and not np.shares_memory(arr, dm.matrix)
        arr[0, 0] = 1.0
        assert dm.matrix[0, 0] == 0.5
        assert not dm.matrix.flags.writeable and not dm.eigenvalues.flags.writeable

    def test_stacks_built_in_place_are_read_only(self, monkeypatch):
        """The stages that validate a fresh stack in place, without the
        constructor's copy, hand out a read-only matrix and eigenvalues."""
        built = {}
        validated = DensityMatrix._validated

        def recording(matrix):
            dm = validated(matrix)
            built.setdefault(sys._getframe(1).f_code.co_name, []).append(dm)
            return dm

        monkeypatch.setattr(DensityMatrix, "_validated", staticmethod(recording))
        singlet = bell_state(BellLabel.PSI_MINUS)
        source = pauli_channel(pure_density(np.kron(singlet, singlet)), [0.7, 0.1, 0.1, 0.1], 1)
        entanglement_swap(source)
        holevo_bound(apply_pauli(pure_density(singlet)[None], list(PauliLabel), 0), [0.25] * 4)
        assert set(built) == {"pure_density", "pauli_channel", "entanglement_swap", "holevo_bound"}
        for stage, stacks in built.items():
            for dm in stacks:
                assert not dm.matrix.flags.writeable, stage
                assert not dm.eigenvalues.flags.writeable, stage

    def test_immutable_arrays(self):
        psi = bell_state(BellLabel.PSI_MINUS)
        with pytest.raises(ValueError):
            psi[0] = 1.0
        for name in "01+-":
            with pytest.raises(ValueError):
                single_photon(name)[0] = 0.5
        for basis in (PauliLabel.X, PauliLabel.Y, PauliLabel.Z):
            for bit in (0, 1):
                with pytest.raises(ValueError):
                    basis_eigenvector(basis, bit)[0] = 0.5

    def test_eigenvectors_are_one_table(self):
        # the prepared states are the Z and X eigenvectors themselves
        named = {"0": (PauliLabel.Z, 0), "1": (PauliLabel.Z, 1), "+": (PauliLabel.X, 0)}
        named["-"] = (PauliLabel.X, 1)
        for name, (basis, bit) in named.items():
            assert single_photon(name) is basis_eigenvector(basis, bit)
        for basis in (PauliLabel.X, PauliLabel.Y, PauliLabel.Z):
            for bit, sign in ((0, 1.0), (1, -1.0)):
                v = basis_eigenvector(basis, bit)
                np.testing.assert_allclose(PAULI[basis] @ v, sign * v, atol=1e-15)
                assert abs(np.vdot(v, v) - 1.0) < 1e-15

    def test_pauli_distribution_validates_once(self, monkeypatch):
        """Positional and keyword laws are validated once each, and the
        validated tuple is what the frozen law holds."""
        calls = []
        validate = mdiqsdc.quantum.validate_probability_vector

        def counting(values, *, name):
            calls.append(values)
            return validate(values, name=name)

        monkeypatch.setattr(mdiqsdc.quantum, "validate_probability_vector", counting)
        law = [0.73, 0.09, 0.09, 0.09]
        positional, keyword = PauliDistribution(law), PauliDistribution(probabilities=law)
        assert calls == [law, law]
        assert positional == keyword
        assert positional.probabilities == validate(law, name="law")
        with pytest.raises(dataclasses.FrozenInstanceError):
            positional.probabilities = (1.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="Pauli distribution"):
            PauliDistribution(probabilities=(0.5, 0.5, 0.5, 0.5))


class TestProbabilityArrays:
    """Components given as arrays are the float rule applied to every element."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(lambda v: sum(v) > 0),
            min_size=1,
            max_size=20,
        ),
        st.floats(-1e-10, 0.0),
    )
    def test_arrays_equal_the_float_rule(self, raw_rows, tiny_negative):
        rows = [[v / sum(r) for v in r] for r in raw_rows]
        rows[0][1] += tiny_negative
        valid = [r for r in rows if abs(sum(r) - 1.0) <= 1e-12]
        if not valid:
            return
        columns = tuple(np.array(valid).T.copy())
        out = validate_probability_vector(columns, name="rows")
        expected = np.array([validate_probability_vector(r, name="rows") for r in valid])
        assert all(isinstance(c, np.ndarray) for c in out)
        assert np.stack(out, axis=1).tobytes() == expected.tobytes()

    def test_float_components_stay_floats(self):
        out = validate_probability_vector((np.float64(0.5), 0.5, 0, 0.0), name="rows")
        assert [type(v) for v in out] == [float] * 4

    @pytest.mark.parametrize(
        "bad",
        [
            [0.5, 0.5, float("nan"), 0.0],
            [0.5, 0.5, float("inf"), 0.0],
            [1.5, -0.5, 0.0, 0.0],
            [0.5, 0.5, 1e-9, 0.0],
            [-2e-10, 1.0, 0.0, 2e-10],
            [-1e-10, 1.0, 0.0, 1e-10],  # sums to 1, but to 1 + 1e-10 once clamped
        ],
    )
    def test_first_bad_element_raises_the_float_message(self, bad):
        with pytest.raises(ValueError) as scalar:
            validate_probability_vector(bad, name="rows")
        with pytest.raises(ValueError) as array:
            columns = tuple(np.array([[1.0, 0.0, 0.0, 0.0], bad, bad]).T.copy())
            validate_probability_vector(columns, name="rows")
        assert str(array.value) == str(scalar.value)

    def test_each_element_gets_its_own_message(self):
        # a range failure before a non-finite element reports the range
        rows = [[1.5, -0.5, 0.0, 0.0], [0.5, 0.5, float("nan"), 0.0]]
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]: \[1.5, -0.5, 0.0, 0.0\]"):
            validate_probability_vector(tuple(np.array(rows).T.copy()), name="rows")

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="needs 4 components"):
            validate_probability_vector(tuple(np.zeros((3, 2))), name="rows")


FLOOR = mdiqsdc.quantum.EIGENVALUE_FLOOR
# components at the edges of the checks: signed zeros, the -1e-10 floor and
# its neighbours, 1 + 1e-12, subnormals and non-finite values
EDGE_COMPONENTS = (
    0.0, -0.0, 1.0, 0.5, 0.25, 5e-324, -5e-324, FLOOR,
    math.nextafter(FLOOR, -math.inf), math.nextafter(FLOOR, 0.0),
    1 + 1e-12, math.nextafter(1 + 1e-12, math.inf),
    math.nan, math.inf, -math.inf,
)
# what the last component adds to a sum of exactly 1: on, inside, at and past 1e-12
SUM_OFFSETS = (
    0.0, 5e-13, 1e-12, -1e-12, math.nextafter(1e-12, 0.0), math.nextafter(1e-12, 1.0),
    -math.nextafter(1e-12, 1.0), 2e-12, -2e-12, FLOOR,
)
IN_RANGE = st.one_of(
    st.sampled_from((0.0, -0.0, 5e-324, FLOOR, math.nextafter(FLOOR, 0.0))),
    st.floats(0.0, 1.0),
    st.floats(FLOOR, 1e-9),
)
COMPONENTS = st.one_of(
    IN_RANGE,
    st.sampled_from(EDGE_COMPONENTS),
    st.floats(allow_nan=True, allow_infinity=True),
)


# built once: a strategy made inside a draw is validated again at every example
LENGTHS = st.sampled_from([4] * 8 + [3, 5])
ELEMENT_RULES = st.sampled_from([IN_RANGE, COMPONENTS])
SETS_THE_SUM = st.sampled_from([True, True, False])
OFFSETS = st.sampled_from(SUM_OFFSETS)


@st.composite
def float_vectors(draw):
    """A tuple of Python floats, most often four, whose last component
    often sets the running sum to 1 or to 1e-12 or so off it."""
    length = draw(LENGTHS)
    element = draw(ELEMENT_RULES)
    values = [draw(element) for _ in range(length)]
    if draw(SETS_THE_SUM):
        values[:-1] = [v / length for v in values[:-1]]  # mostly keeps the sum below 1
        total = 0.0
        for v in values[:-1]:
            total = total + v
        values[-1] = 1.0 - total + draw(OFFSETS)
    return tuple(values)


def validated(values):
    """The validated tuple, or the message of the ValueError raised."""
    try:
        return validate_probability_vector(values, name="law")
    except ValueError as exc:
        return str(exc)


class TestFloatPath:
    """A tuple of Python floats that passes skips the elementwise path; its
    result and every failure's message are those of that path."""

    @settings(max_examples=1000, deadline=None)
    @given(float_vectors())
    def test_floats_equal_a_one_element_array_row(self, values):
        ours = validated(values)
        with np.errstate(all="ignore"):  # inf - inf in the sum is a failure like any other
            row = validated(tuple(np.array([v]) for v in values))
        if isinstance(row, str):
            assert ours == row
        else:
            assert [type(v) for v in ours] == [float] * 4
            assert np.array(ours).tobytes() == np.concatenate(row).tobytes()
        # the short path is taken exactly when the vector passes with no
        # component below zero
        passes = not isinstance(row, str) and not any(v < 0.0 for v in values)
        assert mdiqsdc.quantum._passing_floats(values) is passes

    @pytest.mark.parametrize(
        "values, kept",
        [
            ((-0.0, 1.0, 0.0, 0.0), (-0.0, 1.0, 0.0, 0.0)),
            ((-1e-13, 1.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0)),  # clamped, not divided
        ],
    )
    def test_signed_zero_kept_and_floor_clamped(self, values, kept):
        out = validate_probability_vector(values, name="law")
        assert np.array(out).tobytes() == np.array(kept).tobytes()

    @pytest.mark.parametrize(
        "values, message",
        [
            ((1 + 1e-12, 0.5, 0.0, 0.0), "must sum to 1 within 1e-12"),
            ((0.25, math.nextafter(1.0, 2.0), 0.0, 0.0), "must sum to 1 within 1e-12"),
            ((math.nextafter(1 + 1e-12, 2.0), 0.0, 0.0, 0.0), r"components must lie in \[0, 1\]"),
            ((0.0, 0.0, 1.5, 0.0), r"components must lie in \[0, 1\]"),
        ],
        ids=["sum-at-1+1e-12", "sum-past-1", "range-past-1+1e-12", "range-at-1.5"],
    )
    @pytest.mark.parametrize("arrays", [False, True], ids=["floats", "arrays"])
    def test_range_message_starts_one_ulp_past_1_plus_1e_12(self, values, message, arrays):
        # an entry up to 1 + 1e-12 is in range, so only the sum can fail
        if arrays:
            values = tuple(np.array([v]) for v in values)
        with pytest.raises(ValueError, match=message):
            validate_probability_vector(values, name="law")

    def test_other_inputs_take_the_elementwise_path(self, monkeypatch):
        general = []
        as_floats = mdiqsdc.quantum.as_floats

        def recording(values):
            general.append(values)
            return as_floats(values)

        monkeypatch.setattr(mdiqsdc.quantum, "as_floats", recording)
        validate_probability_vector((0.25, 0.25, 0.25, 0.25), name="law")
        assert general == []
        for values in ([0.25] * 4, (0.25, 0.25, 0.25, np.float64(0.25)), (1, 0.0, 0.0, 0.0)):
            validate_probability_vector(values, name="law")
        with pytest.raises(ValueError):
            validate_probability_vector((0.5, 0.5, 0.5, 0.5), name="law")
        assert len(general) == 4


def random_density_matrices(rng, count, dim):
    return np.stack([random_density(rng, dim, rank=int(rng.integers(1, dim + 1))).matrix
                     for _ in range(count)])


def break_member(mat, check, seed):
    """A copy of a valid density matrix that fails exactly ``check``, with the
    message a single matrix gets."""
    dim = mat.shape[0]
    if check == "finite":
        bad = mat.copy()
        bad[0, 0] = np.nan
        return bad, "entries must be finite"
    if check == "hermitian":
        bad = mat.copy()
        bad[0, 1] += 2e-12
        return bad, "matrix is not Hermitian within 1e-12"
    if check == "trace":
        bad = mat + 2e-12 * np.eye(dim) / dim
        return bad, f"trace {complex(np.trace(bad))!r} differs from 1 by > 1e-12"
    return rotated_spectrum(dim, -2e-10, seed), "matrix has an eigenvalue below -1e-10"


class TestDensityStack:
    """One validation per stack; every member is checked as a single state is."""

    @pytest.mark.parametrize("check", ["finite", "hermitian", "trace", "eigenvalue"])
    @pytest.mark.parametrize("count", [2, 4, 16])
    @pytest.mark.parametrize("dim", [2, 4, 16])
    def test_one_bad_member_rejects_the_stack(self, check, count, dim):
        rng = np.random.default_rng(1000 * count + dim)
        stack = random_density_matrices(rng, count, dim)
        where = int(rng.integers(count))
        bad, message = break_member(stack[where], check, seed=count)
        with pytest.raises(ValueError) as single:
            DensityMatrix(bad)
        assert str(single.value) == message
        stack[where] = bad
        with pytest.raises(ValueError) as stacked:
            DensityMatrix(stack)
        assert str(stacked.value) == message
        with pytest.raises(ValueError, match=message.split(" ")[0]):
            DensityMatrix(stack.reshape((2, count // 2, dim, dim)))

    def test_hermitian_tolerance_is_inclusive(self):
        """An entry off its mirror's conjugate by exactly 1e-12 passes; by
        the next float above, it fails."""
        DensityMatrix(np.array([[0.5, 1e-12], [0.0, 0.5]]))
        with pytest.raises(ValueError, match="^matrix is not Hermitian within 1e-12$"):
            DensityMatrix(np.array([[0.5, math.nextafter(1e-12, 1.0)], [0.0, 0.5]]))

    @pytest.mark.parametrize(
        "place, part",
        [("above", 1.0), ("above", 1j), ("below", 1.0), ("below", 1j), ("diagonal", 1j)],
    )
    @pytest.mark.parametrize(
        "size",
        [math.nextafter(ATOL_HERMITIAN, 0.0), ATOL_HERMITIAN, math.nextafter(ATOL_HERMITIAN, 1.0)],
        ids=["ulp-below", "at", "ulp-above"],
    )
    @pytest.mark.parametrize("dim", [2, 4, 16])
    def test_the_one_triangle_check_decides_as_the_full_matrix_does(self, dim, size, place, part):
        """One asymmetry of exactly ``size`` in one member of a diagonal
        stack: above the diagonal, below it, or in a diagonal entry's
        imaginary part. The validator accepts or rejects as the full-matrix
        form of the check does, with the message a single matrix gets."""
        rng = np.random.default_rng(dim)
        stack = np.zeros((3, dim, dim), dtype=complex)
        stack[:, range(dim), range(dim)] = rng.dirichlet(np.ones(dim), size=3)
        member = int(rng.integers(3))
        i, j = sorted(rng.choice(dim, size=2, replace=False))
        if place == "above":
            stack[member, i, j] = part * size
        elif place == "below":
            stack[member, j, i] = part * size
        else:
            stack[member, i, i] += 0.5 * part * size  # off its conjugate by exactly size
        full_form_rejects = (np.abs(stack - stack.conj().swapaxes(-1, -2)) > 1e-12).any()
        assert full_form_rejects == (size > ATOL_HERMITIAN)
        if full_form_rejects:
            with pytest.raises(ValueError) as caught:
                validate_density_stack(stack)
            assert str(caught.value) == "matrix is not Hermitian within 1e-12"
        else:
            validate_density_stack(stack)

    @pytest.mark.parametrize("seed", range(20))
    def test_verdicts_and_eigenvalues_match_single_matrices(self, seed):
        rng = np.random.default_rng(seed)
        dim = (2, 4, 16)[seed % 3]
        count = int(rng.integers(1, 9))
        stack = random_density_matrices(rng, count, dim)
        if seed % 2:  # break some members near the thresholds
            for where in rng.choice(count, size=int(rng.integers(1, count + 1)), replace=False):
                check = ("finite", "hermitian", "trace", "eigenvalue")[int(rng.integers(4))]
                stack[where] = break_member(stack[where], check, seed)[0]
        single = []
        for mat in stack:
            try:
                single.append(DensityMatrix(mat))
            except ValueError as exc:
                single.append(str(exc))
        messages = [m for m in single if isinstance(m, str)]
        if messages:
            with pytest.raises(ValueError) as stacked:
                validate_density_stack(stack)
            assert str(stacked.value) in messages
            return
        eigenvalues = validate_density_stack(stack)
        for k, dm in enumerate(single):
            np.testing.assert_array_equal(eigenvalues[k], dm.eigenvalues)
            np.testing.assert_array_equal(eigenvalues[k], np.linalg.eigvalsh(stack[k]))
        got = DensityMatrix(stack)
        assert got.shape == (count,) and got.dim == dim
        np.testing.assert_array_equal(got.eigenvalues, eigenvalues)
        with pytest.raises(ValueError):
            got.matrix[0, 0, 0] = 1.0

    def test_tiny_negative_drift_accepted_in_a_stack(self):
        stack = np.stack([rotated_spectrum(4, -0.5e-10, seed) for seed in range(4)])
        DensityMatrix(stack)

    @pytest.mark.parametrize("qubit", [0, 1])
    def test_apply_pauli_on_a_stack(self, qubit):
        rng = np.random.default_rng(40 + qubit)
        stack = DensityMatrix(random_density_matrices(rng, 3, 4))
        labels = np.arange(4)[:, None]
        got = apply_pauli(stack, labels, qubit)
        assert got.shape == (4, 3)
        for op in PauliLabel:
            for k in range(3):
                want = apply_pauli(DensityMatrix(stack.matrix[k]), op, qubit)
                np.testing.assert_array_equal(got.matrix[op, k], want.matrix)
        one_each = apply_pauli(stack, [1, 2, 3], qubit)
        for k in range(3):
            want = apply_pauli(DensityMatrix(stack.matrix[k]), PauliLabel(k + 1), qubit)
            np.testing.assert_array_equal(one_each.matrix[k], want.matrix)

    def test_bell_measure_and_entropy_on_a_stack(self):
        rng = np.random.default_rng(7)
        stack = DensityMatrix(random_density_matrices(rng, 5, 4))
        probs = bell_measure(stack)
        entropies = von_neumann_entropy(stack)
        assert probs.shape == (5, 4) and entropies.shape == (5,)
        for k in range(5):
            member = DensityMatrix(stack.matrix[k])
            np.testing.assert_array_equal(probs[k], bell_measure(member))
            assert entropies[k] == von_neumann_entropy(member)

    def test_holevo_bound_of_a_stack_is_the_formula(self):
        rng = np.random.default_rng(8)
        stack = DensityMatrix(random_density_matrices(rng, 4, 16))
        priors = [0.1, 0.2, 0.3, 0.4]

        def entropy(matrix):
            eigenvalues = np.linalg.eigvalsh(matrix)
            eigenvalues = eigenvalues[eigenvalues > 1e-15]
            return float(-(eigenvalues * np.log2(eigenvalues)).sum())

        average = sum(p * m for p, m in zip(priors, stack.matrix))
        want = entropy(average) - sum(p * entropy(m) for p, m in zip(priors, stack.matrix))
        assert abs(holevo_bound(stack, priors) - want) < 1e-10
        with pytest.raises(ValueError):
            holevo_bound(stack, priors[:3])

    def test_indexing_keeps_members_and_eigenvalues_without_revalidating(self, monkeypatch):
        rng = np.random.default_rng(9)
        stack = DensityMatrix(random_density_matrices(rng, 6, 4).reshape(2, 3, 4, 4))
        calls = []
        original = mdiqsdc.quantum.validate_density_stack
        monkeypatch.setattr(
            mdiqsdc.quantum, "validate_density_stack", lambda m: calls.append(m) or original(m)
        )
        for index in ((1,), (..., None, 2), (None, slice(None), 0)):
            sub = stack[index]
            np.testing.assert_array_equal(sub.matrix, stack.matrix[index + (slice(None),) * 2])
            want = stack.eigenvalues[index + (slice(None),)]
            np.testing.assert_array_equal(sub.eigenvalues, want)
        assert stack[..., None].shape == (2, 3, 1)
        assert calls == []

    def test_holevo_bound_of_a_stack_of_ensembles_equals_each_ensemble(self):
        rng = np.random.default_rng(10)
        stack = DensityMatrix(random_density_matrices(rng, 12, 4).reshape(3, 4, 4, 4))
        priors = [0.1, 0.2, 0.3, 0.4]
        chis = holevo_bound(stack, priors)
        assert chis.shape == (3,)
        for k in range(3):
            assert chis[k] == holevo_bound(DensityMatrix(stack.matrix[k]), priors)


class TestPureStack:
    def test_purification_of_array_weights_is_the_stack_of_each(self):
        grid = [(1.0, 0.0, 0.0, 0.0), (0.25, 0.25, 0.25, 0.25), (0.4, 0.3, 0.2, 0.1)]
        stacked = purify_bell_diagonal(PauliDistribution.from_bell_weights(tuple(np.array(grid).T)))
        assert stacked.matrix.shape == (3, 16, 16)
        for k, deltas in enumerate(grid):
            one = purify_bell_diagonal(PauliDistribution.from_bell_weights(deltas))
            np.testing.assert_array_equal(stacked.matrix[k], one.matrix)

    def test_pure_density_is_the_outer_product_bit_for_bit(self):
        rng = np.random.default_rng(11)
        vectors = np.stack([random_pure(rng, 4) for _ in range(3)])
        stack = pure_density(vectors)
        assert stack.shape == (3,)
        for k, v in enumerate(vectors):
            np.testing.assert_array_equal(stack.matrix[k], np.outer(v, v.conj()))
            np.testing.assert_array_equal(pure_density(v).matrix, stack.matrix[k])

    def test_pure_density_and_pauli_act_member_by_member(self):
        rng = np.random.default_rng(12)
        a = np.stack([random_pure(rng, 2) for _ in range(3)])
        b = np.stack([random_pure(rng, 2) for _ in range(3)])
        joint = pure_density((a[:, :, None] * b[:, None, :]).reshape(3, 4))
        flipped = apply_pauli(joint, PauliLabel.Y, 1)
        for k in range(3):
            one = pure_density(np.kron(a[k], b[k]))
            np.testing.assert_array_equal(joint.matrix[k], one.matrix)
            np.testing.assert_allclose(
                flipped.matrix[k], apply_pauli(one, PauliLabel.Y, 1).matrix, atol=1e-15
            )
        with pytest.raises(ValueError, match="single-qubit"):
            product_decompose(a, b)

    def test_a_stack_reports_its_first_unnormalized_member(self):
        amps = np.array([[1.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match=r"trace \(2\+0j\) differs"):
            pure_density(amps)
