"""Exact quantum-state algebra for systems of one, two, and four qubits.

Fixed conventions used throughout the package:

* computational basis order: |00>, |01>, |10>, |11>
* Bell-state order: psi-, psi+, phi-, phi+
* Pauli order: I, X, Y, Z

The singlet psi- is the reference pair state. Applying a Pauli to either
half of a Bell state permutes Bell labels, so noise and protocol steps can
be tracked purely on labels (the "Pauli frame"); the lookup tables between
the two label sets live here, next to the exact matrix arithmetic used to
cross-check the label bookkeeping. :class:`PauliDistribution` is the one
validated law over the four Pauli labels, so a Bell-diagonal pair is the
Pauli error on one half of the singlet that makes it.

A ``DensityMatrix`` is the one checked state: one (d, d) matrix or a stack
with shape (..., d, d), a single state being a stack with no leading axes,
every member checked by :func:`validate_density_stack`. The constructor
copies its argument; the stages that build a fresh stack themselves
(:func:`pure_density`, :func:`pauli_channel`, the average inside
:func:`holevo_bound` and the oracle's swapped pairs) validate it in place
and make it read-only without the copy. A member's spectrum is
``np.linalg.eigvalsh`` of it, except that an output of :func:`apply_pauli`
takes its input's spectrum, which a signed permutation keeps, and an
indexed stack keeps its members' spectra. State vectors are
read-only numpy arrays, and :func:`pure_density` is the one way to make
|a><a| of a vector or of each vector of a (..., d) stack; a vector whose
squared norm is not 1 fails there on the trace. The helpers
below (``apply_pauli``, ``pauli_channel``, ``bell_measure``, the
purification, the entropies and the Holevo quantity) act on every member of
a stack at once.

A Pauli on one qubit of a register is a signed permutation, so no Pauli
matrix is ever built: X reverses the qubit's row and column axes, Z
negates the entries whose row and column bits differ, and Y does both.
:func:`apply_pauli` conjugates by one label or an array of labels, and
:func:`pauli_channel` is the one Pauli mixture sum_k w_k P_k rho P_k
behind the depolarizing channel, the intercept-resend attack and the
cover average of the eavesdropper's ensemble.

All values are immutable after construction and all operations are pure
functions, so everything in this module is safe to evaluate concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterable, Sequence

import numpy as np

from .elementwise import as_floats, first_failure, maximum

ATOL_HERMITIAN = 1e-12
ATOL_TRACE = 1e-12
EIGENVALUE_FLOOR = -1e-10

_ALLOWED_DIMS = (2, 4, 16)


class BellLabel(IntEnum):
    """The four Bell states, in the order used for delta vectors."""

    PSI_MINUS = 0
    PSI_PLUS = 1
    PHI_MINUS = 2
    PHI_PLUS = 3


class PauliLabel(IntEnum):
    """Single-qubit Pauli operators (identity included)."""

    I = 0
    X = 1
    Y = 2
    Z = 3


# Product of two Paulis up to phase; the labels form the group Z2 x Z2.
PAULI_PRODUCT: tuple[tuple[int, ...], ...] = (
    (0, 1, 2, 3),
    (1, 0, 3, 2),
    (2, 3, 0, 1),
    (3, 2, 1, 0),
)

# ANTICOMMUTES[a][b] == 1 iff sigma_a and sigma_b anticommute.
ANTICOMMUTES: tuple[tuple[int, ...], ...] = (
    (0, 0, 0, 0),
    (0, 0, 1, 1),
    (0, 1, 0, 1),
    (0, 1, 1, 0),
)

# The Pauli sigma for which (sigma ox I)|psi-> is each Bell state, in Bell order.
PAULI_OF_BELL: tuple[PauliLabel, ...] = (
    PauliLabel.I,
    PauliLabel.Z,
    PauliLabel.X,
    PauliLabel.Y,
)

_SQRT_HALF = 1.0 / math.sqrt(2.0)

# Rows are psi-, psi+, phi-, phi+ over |00>,|01>,|10>,|11>.
BELL_VECTORS: np.ndarray = np.array(
    [
        [0, _SQRT_HALF, -_SQRT_HALF, 0],
        [0, _SQRT_HALF, _SQRT_HALF, 0],
        [_SQRT_HALF, 0, 0, -_SQRT_HALF],
        [_SQRT_HALF, 0, 0, _SQRT_HALF],
    ],
    dtype=np.complex128,
)
BELL_VECTORS.flags.writeable = False


def _passing_floats(values) -> bool:
    """Whether ``values`` is a tuple of four Python floats, none below zero,
    that passes every check of :func:`validate_probability_vector`."""
    if type(values) is not tuple or len(values) != 4:
        return False
    total = 0.0
    for v in values:
        if type(v) is not float or not 0.0 <= v <= 1 + 1e-12:
            return False
        total = total + v
    return abs(total - 1.0) <= 1e-12


def validate_probability_vector(values: Iterable[float], *, name: str) -> tuple[float, ...]:
    """Validate a probability vector of four components: floats, or
    equal-length float64 arrays holding one vector per element.

    Components must be finite and each within [0, 1] up to a -1e-10 numeric
    floor. The returned tuple is the input with tiny negatives clamped to
    zero, and that clamped vector, summed from 0.0 left to right, must sum
    to 1 within 1e-12. Nothing is divided, so validating the result again
    returns the same bits. An array reports its first failing vector with
    the message a float gets. A tuple of Python floats that passes with no
    component below zero is returned as it is given: clamping leaves it
    unchanged. Every other input, every failure included, takes the general
    path.
    """
    if _passing_floats(values):
        return values
    vec = as_floats(values)
    if len(vec) != 4:
        raise ValueError(f"{name} needs 4 components, got {len(vec)}")
    in_range = True  # NaN and infinities fail too
    for v in vec:
        in_range = in_range & (EIGENVALUE_FLOOR <= v) & (v <= 1 + 1e-12)
    clamped = [maximum(v, 0.0) for v in vec]
    total = 0.0
    for v in clamped:
        total = total + v
    # the first failing vector, as floats, with the message of its first failing check
    bad = first_failure(in_range & (abs(total - 1.0) <= 1e-12), [*vec, total])
    if bad is not None:
        *row, total = bad
        if not all(map(math.isfinite, row)):
            raise ValueError(f"{name} components must be finite")
        if not all(EIGENVALUE_FLOOR <= v <= 1 + 1e-12 for v in row):
            raise ValueError(f"{name} components must lie in [0, 1]: {row}")
        raise ValueError(f"{name} must sum to 1 within 1e-12, got {total!r}")
    return tuple(clamped)


@dataclass(frozen=True, init=False)
class PauliDistribution:
    """The package's one law over the Pauli labels I, X, Y, Z: floats, or
    equal-length float64 arrays holding one law per element.

    It is an error process on one qubit; the Bell-diagonal pair that error
    makes of the singlet, whose Bell state b has weight
    ``d[PAULI_OF_BELL[b]]``; and the law of an entanglement protocol's
    symbol difference decoded (-) encoded, in the order 00, 01, 10, 11.
    """

    probabilities: tuple[float, float, float, float]

    def __init__(self, probabilities: Iterable[float]) -> None:
        # validated, then stored once: a generated __init__ would store the
        # raw value first
        validated = validate_probability_vector(probabilities, name="Pauli distribution")
        object.__setattr__(self, "probabilities", validated)

    def __getitem__(self, label: PauliLabel | int) -> float:
        return self.probabilities[int(label)]

    @classmethod
    def from_bell_weights(cls, deltas: Sequence[float]) -> "PauliDistribution":
        """The Pauli error on one half of the singlet that gives the
        Bell-diagonal pair of weights ``deltas``, ordered psi-, psi+, phi-,
        phi+. Any number of weights but four fails as the constructor does."""
        weights = tuple(deltas)
        if len(weights) == 4:
            weights = tuple(weights[PAULI_OF_BELL.index(label)] for label in PauliLabel)
        return cls(weights)


def _mirrored_entries(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of the entries of a (d, d) matrix on and above the
    diagonal, and of their mirrors below it (a diagonal entry is its own)."""
    flat = np.arange(d * d).reshape(d, d)
    upper = np.triu_indices(d)
    return flat[upper], flat.T[upper]


_MIRRORED_ENTRIES = {d: _mirrored_entries(d) for d in _ALLOWED_DIMS}


def validate_density_stack(
    matrices: np.ndarray, eigenvalues: np.ndarray | None = None
) -> np.ndarray:
    """Check every matrix of a complex (..., d, d) stack as a density matrix
    and return the eigenvalues, ascending, as a (..., d) array.

    Each check runs over the whole stack before the next: square, dimension
    2, 4 or 16, finite entries, Hermitian within 1e-12, trace within 1e-12
    of 1, lowest eigenvalue at least -1e-10 (the floor absorbs numeric drift
    from channel compositions). The first failing check raises the
    ValueError a single matrix gets; a trace failure quotes the trace of the
    first failing member. Hermiticity is checked on the entries on and
    above the diagonal, each against its mirror's conjugate: an entry below
    is off by exactly as much as its mirror, so the decision is that of
    every entry.

    The spectrum is ``np.linalg.eigvalsh`` of the stack unless
    ``eigenvalues`` gives it: the ascending spectra of a stack with the
    same spectrum member by member, which :func:`apply_pauli` passes on
    from its input. Every check, the eigenvalue floor included, runs
    either way.
    """
    if matrices.ndim < 2 or matrices.shape[-1] != matrices.shape[-2]:
        raise ValueError("density matrix must be square")
    if matrices.shape[-1] not in _ALLOWED_DIMS:
        raise ValueError(f"unsupported dimension {matrices.shape[-1]}")
    if not np.isfinite(matrices).all():
        raise ValueError("entries must be finite")
    upper, lower = _MIRRORED_ENTRIES[matrices.shape[-1]]
    flat = matrices.reshape(matrices.shape[:-2] + (-1,))
    asymmetry = np.take(flat, lower, axis=-1)  # made m_ij - conj(m_ji) in place
    np.conjugate(asymmetry, out=asymmetry)
    np.subtract(np.take(flat, upper, axis=-1), asymmetry, out=asymmetry)
    if (np.abs(asymmetry) > ATOL_HERMITIAN).any():
        raise ValueError("matrix is not Hermitian within 1e-12")
    traces = np.trace(matrices, axis1=-2, axis2=-1)
    off = np.abs(traces - 1.0) > ATOL_TRACE
    if off.any():
        trace = complex(traces[off][0])
        raise ValueError(f"trace {trace!r} differs from 1 by > {ATOL_TRACE}")
    if eigenvalues is None:
        eigenvalues = np.linalg.eigvalsh(matrices)
    if (eigenvalues[..., 0] < EIGENVALUE_FLOOR).any():
        raise ValueError("matrix has an eigenvalue below -1e-10")
    return eigenvalues


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, trace-1, positive-semidefinite matrices on 1, 2, or 4 qubits.

    ``matrix`` is one (d, d) state or a stack of shape (..., d, d); every
    member passes :func:`validate_density_stack`, whose eigenvalues are kept
    for the entropies. The constructor diagonalizes every member; an
    output of :func:`apply_pauli` inherits its input's eigenvalues as a
    read-only broadcast view, and still passes every check.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        own = DensityMatrix._validated(np.array(self.matrix, dtype=np.complex128))
        object.__setattr__(self, "matrix", own.matrix)
        object.__setattr__(self, "eigenvalues", own.eigenvalues)

    @property
    def shape(self) -> tuple[int, ...]:
        """Leading (stack) axes; () for a single state."""
        return self.matrix.shape[:-2]

    def __getitem__(self, index) -> "DensityMatrix":
        """The stack indexed over its leading axes with numpy's rules (``None``
        inserts an axis). The members are members of this stack, so they keep
        their eigenvalues and are not validated again."""
        index = index if isinstance(index, tuple) else (index,)
        return DensityMatrix._checked(
            self.matrix[index + (slice(None),) * 2], self.eigenvalues[index + (slice(None),)]
        )

    @staticmethod
    def _checked(matrix: np.ndarray, eigenvalues: np.ndarray) -> "DensityMatrix":
        """The stack of read-only ``matrix`` and its ``eigenvalues``, both
        already validated, set as they are."""
        dm = object.__new__(DensityMatrix)
        object.__setattr__(dm, "matrix", matrix)
        object.__setattr__(dm, "eigenvalues", eigenvalues)
        return dm

    @staticmethod
    def _validated(matrix: np.ndarray) -> "DensityMatrix":
        """The stack of a complex128 ``matrix`` that no caller holds: validated
        and made read-only in place, where the constructor would copy it."""
        eigenvalues = validate_density_stack(matrix)
        matrix.flags.writeable = False
        eigenvalues.flags.writeable = False
        return DensityMatrix._checked(matrix, eigenvalues)

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    @property
    def num_qubits(self) -> int:
        return self.dim.bit_length() - 1


def pure_density(amplitudes) -> DensityMatrix:
    """|a><a| of one (d,) vector, or of each vector of a (..., d) stack, as
    a validated stack of shape (..., d, d)."""
    a = np.asarray(amplitudes, dtype=np.complex128)
    return DensityMatrix._validated(a[..., :, None] * a.conj()[..., None, :])


def bell_state(label: BellLabel) -> np.ndarray:
    """The named Bell state over the computational basis |00>,|01>,|10>,|11>:
    a read-only row of ``BELL_VECTORS``."""
    return BELL_VECTORS[int(label)]


# Read-only eigenvectors of Z, X and Y with eigenvalue +1 (bit 0) and -1 (bit 1).
_EIGENVECTORS: dict[PauliLabel, tuple[np.ndarray, np.ndarray]] = {
    PauliLabel.Z: (np.array([1, 0], dtype=np.complex128), np.array([0, 1], dtype=np.complex128)),
    PauliLabel.X: tuple(
        np.array([_SQRT_HALF, sign * _SQRT_HALF], dtype=np.complex128) for sign in (1.0, -1.0)
    ),
    PauliLabel.Y: tuple(
        np.array([_SQRT_HALF, sign * 1j * _SQRT_HALF], dtype=np.complex128) for sign in (1.0, -1.0)
    ),
}
for _pair in _EIGENVECTORS.values():
    for _vector in _pair:
        _vector.flags.writeable = False

# The four prepared single-photon states: the Z and X eigenvectors.
_SINGLE_PHOTON = dict(zip("01+-", _EIGENVECTORS[PauliLabel.Z] + _EIGENVECTORS[PauliLabel.X]))


def single_photon(name: str) -> np.ndarray:
    """One of the four prepared single-photon states, "0", "1", "+", "-", as
    a read-only vector."""
    if name not in _SINGLE_PHOTON:
        raise ValueError(f"unknown single-photon state {name!r}")
    return _SINGLE_PHOTON[name]


def basis_eigenvector(basis: PauliLabel, bit: int) -> np.ndarray:
    """Eigenvector of sigma_basis with eigenvalue +1 (bit 0) or -1 (bit 1),
    as a read-only vector."""
    if basis == PauliLabel.I:
        raise ValueError("measurement basis must be X, Y, or Z")
    if bit not in (0, 1):
        raise ValueError("bit must be 0 or 1")
    return _EIGENVECTORS[basis][bit]


# (-1)^(b_i + b_j) over the qubit's row bit b_i and column bit b_j, on the
# trailing (2, c, a, 2, c) axes of a :func:`_pauli_conjugates` view
_PAULI_SIGN = np.array([1.0, -1.0, -1.0, 1.0]).reshape(2, 1, 1, 2, 1)


def _pauli_conjugates(dm: DensityMatrix, qubit: int) -> tuple[np.ndarray, ...]:
    """P_k rho P_k for P_k = I, X, Y, Z on one qubit of every state of the
    stack, each of shape ``dm.shape + (a, 2, c, a, 2, c)`` with a = 2^qubit
    and c = 2^(n - qubit - 1), so that the qubit's row and column bits have
    axes of their own.

    X reverses the qubit's row and column axes, a view and not a copy; Z
    multiplies entry (i, j) by (-1)^(b_i + b_j), b the qubit's bit; Y = iXZ
    does both, its phase cancelling in the conjugation. Every entry is moved
    or negated, never rounded.
    """
    if not 0 <= qubit < dm.num_qubits:
        raise IndexError(f"qubit {qubit} out of range for {dm.num_qubits} qubits")
    a, c = 2**qubit, 2 ** (dm.num_qubits - qubit - 1)
    rho = dm.matrix.reshape(dm.shape + (a, 2, c, a, 2, c))
    flipped = rho[..., ::-1, :, :, ::-1, :]
    return rho, flipped, _PAULI_SIGN * flipped, _PAULI_SIGN * rho


def _select_conjugates(conjugates: tuple[np.ndarray, ...], labels: np.ndarray) -> np.ndarray:
    """One new array holding, at each index, the entry of the conjugate that
    ``labels`` names there; the conjugates are released on return."""
    out = np.empty(np.broadcast_shapes(labels.shape, conjugates[0].shape), dtype=np.complex128)
    for k, conjugate in enumerate(conjugates):
        np.copyto(out, conjugate, where=labels == k)
    return out


def apply_pauli(
    state: DensityMatrix, op: PauliLabel | Sequence[int] | np.ndarray, qubit: int
) -> DensityMatrix:
    """Conjugate one qubit of every state of the stack by a Pauli.

    ``op`` is one label or an integer array of labels, each in [0, 3]; any
    other label, a bool or a float included, is a ValueError. Labels
    broadcast against the stack's leading axes like any numpy operand:
    labels of shape (4, 1) on a stack of shape (4,) give the (label,
    member) stack of shape (4, 4).

    One output buffer takes each member's entries from the conjugate of its
    own label (``np.copyto`` with a label mask), so the result equals
    ``np.choose`` over the four conjugates bit for bit. A conjugate is a
    signed permutation of its input, so each output member keeps its
    input's eigenvalues, broadcast over the labels and not recomputed; the
    output passes every check of :func:`validate_density_stack`.
    """
    labels = np.asarray(op)
    if labels.dtype.kind not in "iu" or ((labels < 0) | (labels > 3)).any():
        raise ValueError(f"Pauli labels must be integers in [0, 3], got {op!r}")
    labels = labels.reshape(labels.shape + (1,) * 6)
    out = _select_conjugates(_pauli_conjugates(state, qubit), labels)
    matrix = out.reshape(out.shape[:-6] + (state.dim, state.dim))
    matrix.flags.writeable = False
    # a signed permutation keeps each member's spectrum
    eigenvalues = np.broadcast_to(state.eigenvalues, matrix.shape[:-1])
    return DensityMatrix._checked(matrix, validate_density_stack(matrix, eigenvalues))


def pauli_channel(dm: DensityMatrix, weights, qubit: int) -> DensityMatrix:
    """The Pauli channel rho -> sum_k w_k P_k rho P_k on one qubit of every
    state of the stack, P_k the labels I, X, Y, Z (Nielsen & Chuang,
    *Quantum Computation and Quantum Information*, section 8.3).

    Each of the four weights is a float, or a 1-D array with one value per
    index of the stack's first leading axis. The terms are added one at a
    time, the identity term as w_0 rho.
    """
    terms = _pauli_conjugates(dm, qubit)
    lead = (1,) * (terms[0].ndim - 1)
    w = [np.reshape(v, v.shape + lead) if isinstance(v, np.ndarray) else v for v in weights]
    out = w[0] * terms[0]
    for k in (1, 2, 3):
        out += w[k] * terms[k]
    return DensityMatrix._validated(out.reshape(dm.matrix.shape))


def bell_measure(dm: DensityMatrix) -> np.ndarray:
    """Probabilities of the four Bell outcomes for two-qubit states, with
    shape ``dm.shape + (4,)``."""
    if dm.dim != 4:
        raise ValueError("Bell measurement needs a two-qubit state")
    return np.einsum("bi,...ij,bj->...b", BELL_VECTORS.conj(), dm.matrix, BELL_VECTORS).real


def product_decompose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Amplitudes of a two-photon product state in the Bell basis.

    Intended for the four prepared single-photon vectors on each side; the
    squared magnitudes are the Bell-measurement probabilities of ``a ox b``.
    """
    if np.shape(a) != (2,) or np.shape(b) != (2,):
        raise ValueError("product decomposition needs two single-qubit states")
    return BELL_VECTORS.conj() @ np.kron(a, b)


def purify_bell_diagonal(d: PauliDistribution) -> DensityMatrix:
    """Purify the Bell-diagonal pair that the Pauli error ``d`` on one half
    makes of the singlet, with a four-dimensional environment.

    Returns the density matrix of sum_i sqrt(delta_i) |Psi_i>|E_i>,
    delta_i = d[PAULI_OF_BELL[i]], with the environment in its computational
    basis; tracing out the environment recovers the mixture. Array laws give
    a stack with one purification per element.
    """
    roots = np.sqrt(np.stack([d[PAULI_OF_BELL[i]] for i in range(4)], axis=-1))
    # amplitude (ab, i), added to zero: sqrt(delta_i) times <ab|Psi_i>
    amps = np.zeros(roots.shape[:-1] + (4, 4), dtype=np.complex128)
    amps += roots[..., None, :] * BELL_VECTORS.T
    return pure_density(amps.reshape(roots.shape[:-1] + (16,)))


def von_neumann_entropy(dm: DensityMatrix) -> float | np.ndarray:
    """Von Neumann entropy in bits from the eigenvalues found at validation:
    a float for a single state, an array of shape ``dm.shape`` for a stack.
    Eigenvalues in [-1e-10, 0] count as zero."""
    positive = dm.eigenvalues > 0.0
    terms = dm.eigenvalues * np.log2(np.where(positive, dm.eigenvalues, 1.0))
    entropy = np.maximum(-np.where(positive, terms, 0.0).sum(axis=-1), 0.0)
    return float(entropy) if entropy.ndim == 0 else entropy


def holevo_bound(states: DensityMatrix, priors: Sequence[float]) -> float | np.ndarray:
    """Holevo quantity S(sum p_i rho_i) - sum p_i S(rho_i) in bits.

    ``states`` is a (..., n, d, d) stack whose last leading axis indexes the
    n members of each ensemble. One ensemble gives a float; the leading axes
    before the ensemble axis give an array of that shape, one chi per
    ensemble, each equal to the float of that ensemble alone.
    """
    if states.matrix.ndim < 3:
        raise ValueError("an ensemble stack needs shape (..., n, d, d)")
    if len(priors) != states.shape[-1]:
        raise ValueError("need one prior per state")
    pr = [float(p) for p in priors]
    if any(p < 0 for p in pr) or abs(sum(pr) - 1.0) > 1e-9:
        raise ValueError("priors must be nonnegative and sum to 1")
    entropies = von_neumann_entropy(states)
    # sums from 0 taken left to right, so a stack's chi equals each ensemble's own
    average = DensityMatrix._validated(
        sum(p * states.matrix[..., i, :, :] for i, p in enumerate(pr))
    )
    chi = von_neumann_entropy(average) - sum(p * entropies[..., i] for i, p in enumerate(pr))
    return float(chi) if np.ndim(chi) == 0 else chi
