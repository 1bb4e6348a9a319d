"""Noise-model tests: depolarizing channel, composition, error-rate maps."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdiqsdc.channels import (
    PauliDistribution,
    convolve,
    depolarize,
    depolarizing_pauli_dist,
    error_rate_in_basis,
)
from mdiqsdc.quantum import (
    ANTICOMMUTES,
    PAULI_PRODUCT,
    BellLabel,
    DensityMatrix,
    PauliLabel,
    basis_eigenvector,
    bell_measure,
    bell_state,
    partial_trace,
    pure_density,
    purify_bell_diagonal,
)

PAULI = [
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]

P_GRID = [round(0.1 * k, 10) for k in range(11)]

dist_strategy = st.lists(
    st.floats(min_value=1e-3, max_value=1.0), min_size=4, max_size=4
).map(lambda vs: PauliDistribution(tuple(v / sum(vs) for v in vs)))


# point masses whose zeros carry every sign: validation keeps -0.0, and a sum
# whose terms are all -0.0 is 0.0 only when it starts from 0.0
SIGNED_POINT_MASSES = [
    PauliDistribution(tuple(1.0 if k == one else zeros[k - (k > one)] for k in range(4)))
    for one in range(4)
    for zeros in itertools.product((0.0, -0.0), repeat=3)
]


def grid_of(laws):
    """The laws as one grid law, one float64 array per label."""
    columns = zip(*(d.probabilities for d in laws))
    return PauliDistribution(tuple(np.array(column) for column in columns))


def embed_on_pair(op, qubit):
    return np.kron(op, np.eye(2)) if qubit == 0 else np.kron(np.eye(2), op)


class TestDepolarize:
    def test_p_zero_is_identity(self):
        dm = pure_density(bell_state(BellLabel.PSI_MINUS))
        np.testing.assert_allclose(depolarize(dm, 0.0, 0).matrix, dm.matrix)

    def test_p_one_fully_mixes_the_pair(self):
        dm = pure_density(bell_state(BellLabel.PSI_MINUS))
        out = depolarize(dm, 1.0, 0)
        np.testing.assert_allclose(out.matrix, np.eye(4) / 4, atol=1e-12)

    @pytest.mark.parametrize("p", P_GRID)
    def test_single_leg_bell_diagonal(self, p):
        dm = pure_density(bell_state(BellLabel.PSI_MINUS))
        d = bell_measure(depolarize(dm, p, 1))
        np.testing.assert_allclose(
            d, [1 - 0.75 * p, 0.25 * p, 0.25 * p, 0.25 * p], atol=1e-12
        )

    @pytest.mark.parametrize("p", P_GRID)
    def test_preserves_trace_and_hermiticity(self, p):
        rng = np.random.default_rng(int(p * 100) + 3)
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        herm = raw @ raw.conj().T
        dm = DensityMatrix(herm / np.trace(herm))
        out = depolarize(dm, p, 0).matrix
        assert abs(np.trace(out) - 1) < 1e-12
        assert np.max(np.abs(out - out.conj().T)) < 1e-12

    def test_rejects_out_of_range(self):
        dm = pure_density(bell_state(BellLabel.PSI_MINUS))
        with pytest.raises(ValueError):
            depolarize(dm, 1.5, 0)
        with pytest.raises(IndexError):
            depolarize(dm, 0.5, 7)


class TestDepolarizingPauliDist:
    def test_endpoints(self):
        assert depolarizing_pauli_dist(0.0).probabilities == (1.0, 0.0, 0.0, 0.0)
        np.testing.assert_allclose(depolarizing_pauli_dist(1.0).probabilities, [0.25] * 4)

    @pytest.mark.parametrize("p", [0.2, 0.6, 1.0])
    def test_weighted_pauli_mixture_equals_channel(self, p):
        # oracle equivalence: apply the distribution as explicit conjugations
        dm = pure_density(bell_state(BellLabel.PSI_MINUS))
        dist = depolarizing_pauli_dist(p)
        mixed = np.zeros((4, 4), dtype=complex)
        for k in range(4):
            full = embed_on_pair(PAULI[k], 0)
            mixed += dist.probabilities[k] * full @ dm.matrix @ full.conj().T
        np.testing.assert_allclose(mixed, depolarize(dm, p, 0).matrix, atol=1e-14)


class TestConvolve:
    def test_uniform_is_absorbing(self):
        uniform = depolarizing_pauli_dist(1.0)
        out = convolve(uniform, uniform)
        np.testing.assert_allclose(out.probabilities, [0.25] * 4, atol=1e-15)

    @given(d1=dist_strategy, d2=dist_strategy)
    @settings(max_examples=50, deadline=None)
    def test_commutative(self, d1, d2):
        np.testing.assert_allclose(
            convolve(d1, d2).probabilities, convolve(d2, d1).probabilities, atol=1e-15
        )

    @given(d1=dist_strategy, d2=dist_strategy, d3=dist_strategy)
    @settings(max_examples=50, deadline=None)
    def test_associative(self, d1, d2, d3):
        left = convolve(convolve(d1, d2), d3)
        right = convolve(d1, convolve(d2, d3))
        np.testing.assert_allclose(left.probabilities, right.probabilities, atol=1e-14)

    @staticmethod
    def written_out(d1, d2):
        """The double loop over both labels that convolve's terms follow."""
        out = [0.0, 0.0, 0.0, 0.0]
        for i in range(4):
            for j in range(4):
                out[PAULI_PRODUCT[i][j]] += d1.probabilities[i] * d2.probabilities[j]
        return PauliDistribution(tuple(out))

    @given(d1=dist_strategy, d2=dist_strategy)
    @settings(max_examples=200, deadline=None)
    def test_floats_equal_the_double_loop_bit_for_bit(self, d1, d2):
        got = convolve(d1, d2).probabilities
        assert [type(v) for v in got] == [float] * 4
        assert np.array(got).tobytes() == np.array(self.written_out(d1, d2).probabilities).tobytes()

    @pytest.mark.parametrize("seed", range(5))
    def test_arrays_equal_the_double_loop_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        rows = rng.random((2, 4, 64)) ** 3
        rows[:, :, :4] = 0.0  # point masses and zeros among the grid rows
        rows[:, 0, :4] = 1.0
        laws = rows / rows.sum(axis=1, keepdims=True)
        d1, d2 = (PauliDistribution(tuple(law)) for law in laws)
        got = np.stack(convolve(d1, d2).probabilities)
        assert got.tobytes() == np.stack(self.written_out(d1, d2).probabilities).tobytes()
        for k in (0, 17, 63):  # each grid row is the float call at that row
            floats = [PauliDistribution(tuple(law[:, k].tolist())) for law in laws]
            assert got[:, k].tobytes() == np.array(convolve(*floats).probabilities).tobytes()

    def test_signed_zeros_equal_the_double_loop_bit_for_bit(self):
        pairs = list(itertools.product(SIGNED_POINT_MASSES, repeat=2))
        signs = [math.copysign(1.0, v) for d in SIGNED_POINT_MASSES for v in d.probabilities]
        assert signs.count(-1.0) == 48  # validation kept every -0.0
        for d1, d2 in pairs:
            got = np.array(convolve(d1, d2).probabilities)
            assert got.tobytes() == np.array(self.written_out(d1, d2).probabilities).tobytes()
        firsts, seconds = (grid_of(laws) for laws in zip(*pairs))
        got = np.stack(convolve(firsts, seconds).probabilities)
        assert got.tobytes() == np.stack(self.written_out(firsts, seconds).probabilities).tobytes()

    @pytest.mark.parametrize("p", [0.0, 0.2, 0.5, 1.0])
    def test_two_legs_match_density_matrix_oracle(self, p):
        dm = pure_density(bell_state(BellLabel.PSI_MINUS))
        both = depolarize(depolarize(dm, p, 0), p, 1)
        want = convolve(depolarizing_pauli_dist(p), depolarizing_pauli_dist(p))
        got = PauliDistribution.from_bell_weights(tuple(bell_measure(both)))
        np.testing.assert_allclose(got.probabilities, want.probabilities, atol=1e-12)


CHECKED_BASES = (PauliLabel.Z, PauliLabel.X, PauliLabel.Y)


def rates_of_pair(deltas):
    """Checked error rates (Z, X, Y) of the Bell-diagonal pair ``deltas``."""
    dist = PauliDistribution.from_bell_weights(deltas)
    return tuple(error_rate_in_basis(dist, basis) for basis in CHECKED_BASES)


class TestErrorRates:
    def test_perfect_singlet(self):
        assert rates_of_pair((1.0, 0.0, 0.0, 0.0)) == (0.0, 0.0, 0.0)

    def test_uniform_mixture(self):
        assert rates_of_pair((0.25,) * 4) == (0.5, 0.5, 0.5)

    @pytest.mark.parametrize("p", P_GRID)
    def test_depolarized_singlet_gives_half_p(self, p):
        for eps in rates_of_pair((1 - 0.75 * p, 0.25 * p, 0.25 * p, 0.25 * p)):
            assert abs(eps - p / 2) < 1e-12

    def test_component_sums(self):
        eps_z, eps_x, eps_y = rates_of_pair((0.4, 0.3, 0.2, 0.1))
        assert abs(eps_z - (0.2 + 0.1)) < 1e-15
        assert abs(eps_x - (0.3 + 0.1)) < 1e-15
        assert abs(eps_y - (0.3 + 0.2)) < 1e-15

    @given(
        deltas=st.lists(
            st.floats(min_value=1e-3, max_value=1.0), min_size=4, max_size=4
        ).map(lambda vs: tuple(v / sum(vs) for v in vs))
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_measurement_statistics_oracle(self, deltas):
        # disagreement probability from explicit same-basis projectors
        d = PauliDistribution.from_bell_weights(deltas)
        dm = partial_trace(purify_bell_diagonal(d), keep=(0, 1))
        for basis in CHECKED_BASES:
            expected = error_rate_in_basis(d, basis)
            parallel = 0.0
            for bit in (0, 1):
                v = basis_eigenvector(basis, bit)
                proj = np.outer(v, v.conj())
                joint = np.kron(proj, proj)
                parallel += float(np.real(np.trace(joint @ dm.matrix)))
            assert abs(parallel - expected) < 1e-10

    def test_twirl_then_rates_equals_direct_statistics_on_random_states(self):
        # the same-basis correlation observable is Bell-diagonal, so the
        # twirl must not change measured disagreement rates of ANY state
        rng = np.random.default_rng(61)
        for _ in range(20):
            raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            herm = raw @ raw.conj().T
            dm = DensityMatrix(herm / np.trace(herm))
            rates = rates_of_pair(tuple(bell_measure(dm)))
            for basis, expected in zip(CHECKED_BASES, rates):
                parallel = 0.0
                for bit in (0, 1):
                    v = basis_eigenvector(basis, bit)
                    proj = np.outer(v, v.conj())
                    parallel += float(np.real(np.trace(np.kron(proj, proj) @ dm.matrix)))
                assert abs(parallel - expected) < 1e-10

    def test_round_trip_with_pauli_dist(self):
        # the Pauli errors, applied to one half of the singlet, give back d
        deltas = (0.4, 0.3, 0.2, 0.1)
        dist = PauliDistribution.from_bell_weights(deltas)
        singlet = pure_density(bell_state(BellLabel.PSI_MINUS)).matrix
        mixed = sum(
            dist[k] * embed_on_pair(PAULI[k], 0) @ singlet @ embed_on_pair(PAULI[k], 0)
            for k in range(4)
        )
        back = bell_measure(DensityMatrix(mixed))
        np.testing.assert_allclose(back, deltas, atol=1e-15)

    @staticmethod
    def summed(dist, basis):
        """The rate as a sum over the labels that anticommute with ``basis``."""
        return sum(
            dist.probabilities[pauli] for pauli in range(4) if ANTICOMMUTES[pauli][int(basis)]
        )

    @pytest.mark.parametrize("basis", CHECKED_BASES)
    def test_equals_the_anticommuting_sum_bit_for_bit(self, basis):
        rng = np.random.default_rng(int(basis))
        rows = rng.random((32, 4)) ** 3
        rows[np.arange(8), rng.integers(4, size=8)] = 0.0  # zeros among the random laws
        laws = [
            *SIGNED_POINT_MASSES,
            *(PauliDistribution(tuple(v / sum(row) for v in row.tolist())) for row in rows),
            *(depolarizing_pauli_dist(p) for p in P_GRID),
        ]
        for law in laws:
            got = error_rate_in_basis(law, basis)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(self.summed(law, basis)).tobytes()
        grid = grid_of(laws)
        got = error_rate_in_basis(grid, basis)
        assert got.dtype == np.float64
        assert got.tobytes() == self.summed(grid, basis).tobytes()

    def test_error_rate_in_basis_rejects_identity(self):
        with pytest.raises(ValueError):
            error_rate_in_basis(PauliDistribution((1.0, 0.0, 0.0, 0.0)), PauliLabel.I)


class TestPauliFrameSampling:
    def test_empirical_frequencies_match_channel(self):
        # 1e6 samples; agreement within 5 standard errors per Bell label
        p = 0.23
        dist = depolarizing_pauli_dist(p)
        rng = np.random.default_rng(2024)
        samples = rng.choice(4, size=1_000_000, p=dist.probabilities)
        counts = np.bincount(samples, minlength=4)
        dm = pure_density(bell_state(BellLabel.PSI_MINUS))
        want = bell_measure(depolarize(dm, p, 1))
        # reorder sampled Pauli labels into Bell labels: I,X,Y,Z -> psi-,phi-,phi+,psi+
        bell_counts = np.array([counts[0], counts[3], counts[1], counts[2]])
        n = samples.size
        for freq, expect in zip(bell_counts / n, want):
            se = math.sqrt(expect * (1 - expect) / n)
            assert abs(freq - expect) <= 5 * se


class TestPauliDistributionType:
    # one law over I, X, Y, Z: an error process, a Bell-diagonal pair and a
    # symbol-error vector are all checked here
    @pytest.mark.parametrize(
        "probs", [(-0.1, 0.5, 0.3, 0.3), (1.5, -0.5, 0.0, 0.0), (1.2, -0.2, 0.0, 0.0)]
    )
    def test_rejects_negative(self, probs):
        with pytest.raises(ValueError, match="must lie in"):
            PauliDistribution(probs)
        with pytest.raises(ValueError, match="must lie in"):
            PauliDistribution.from_bell_weights(probs)

    @pytest.mark.parametrize("probs", [(0.3, 0.3, 0.3, 0.3), (0.5, 0.5, 0.5, 0.5)])
    def test_rejects_bad_sum(self, probs):
        with pytest.raises(ValueError, match="must sum to 1"):
            PauliDistribution(probs)
        with pytest.raises(ValueError, match="must sum to 1"):
            PauliDistribution.from_bell_weights(probs)

    def test_first_component_is_no_error(self):
        dist = PauliDistribution((1.0, 0.0, 0.0, 0.0))
        assert dist[PauliLabel.I] == dist[0] == 1.0
