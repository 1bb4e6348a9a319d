"""Oracle-equivalence and invariant checks behind the ``verify`` subcommand.

Each check returns a named result so failures can be reported individually;
the test suite runs the same functions. The expected product-state
decomposition table is written out literally so a corrupted implementation
cannot agree with itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channels import error_rate_in_basis
from .oracle import entanglement_swap, oracle_attack, oracle_readout, oracle_source
from .protocol import (
    AttackModel,
    NoisePlacement,
    Protocol,
    ProtocolConfig,
    eve_info_mdi_ts,
    pauli_frame_round_distributions,
)
from .quantum import (
    BellLabel,
    DensityMatrix,
    PauliDistribution,
    PauliLabel,
    apply_pauli,
    bell_measure,
    bell_state,
    holevo_bound,
    pauli_channel,
    product_decompose,
    pure_density,
    purify_bell_diagonal,
    single_photon,
)

_R = 1.0 / math.sqrt(2.0)

# Bell-basis amplitudes (psi-, psi+, phi-, phi+) of same-basis photon pairs.
PRODUCT_DECOMPOSITION_TABLE: dict[tuple[str, str], tuple[float, float, float, float]] = {
    ("0", "0"): (0.0, 0.0, _R, _R),
    ("1", "1"): (0.0, 0.0, -_R, _R),
    ("0", "1"): (_R, _R, 0.0, 0.0),
    ("1", "0"): (-_R, _R, 0.0, 0.0),
    ("+", "+"): (0.0, _R, 0.0, _R),
    ("-", "-"): (0.0, -_R, 0.0, _R),
    ("+", "-"): (-_R, 0.0, _R, 0.0),
    ("-", "+"): (_R, 0.0, _R, 0.0),
}

FAULT_DECOMPOSITION_SIGN = "decomposition-sign"
KNOWN_FAULTS = (FAULT_DECOMPOSITION_SIGN,)

# Largest deviation an exact check allows: amplitudes, fidelities and the two
# backends' distributions agree to machine precision.
CHECK_ATOL = 1e-12


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def check_bell_states() -> CheckResult:
    """The four Bell states against their literal amplitude vectors."""
    expected = {
        BellLabel.PSI_MINUS: (0.0, _R, -_R, 0.0),
        BellLabel.PSI_PLUS: (0.0, _R, _R, 0.0),
        BellLabel.PHI_MINUS: (_R, 0.0, 0.0, -_R),
        BellLabel.PHI_PLUS: (_R, 0.0, 0.0, _R),
    }
    worst = 0.0
    for label, amps in expected.items():
        got = bell_state(label)
        worst = max(worst, float(np.max(np.abs(got - np.array(amps)))))
    return CheckResult(
        "bell-states",
        worst < CHECK_ATOL,
        f"max amplitude error {worst:.3e}",
    )


def check_product_decompositions(*, inject_sign_fault: bool = False) -> CheckResult:
    """Same-basis product pairs against the decomposition table.

    Also cross-checks that Bell-measurement probabilities of each product
    state equal the squared amplitude magnitudes, all eight pairs measured as
    one stack. The optional sign fault corrupts one expected entry to
    demonstrate the check has teeth.
    """
    table = {k: list(v) for k, v in PRODUCT_DECOMPOSITION_TABLE.items()}
    if inject_sign_fault:
        table[("1", "0")][0] = -table[("1", "0")][0]
    photons = {name: single_photon(name) for name in "01+-"}
    firsts = [photons[a] for a, _ in table]
    seconds = [photons[b] for _, b in table]
    amps = np.array([product_decompose(a, b) for a, b in zip(firsts, seconds)])
    pairs = np.array([np.kron(a, b) for a, b in zip(firsts, seconds)])
    probs = bell_measure(pure_density(pairs))
    errs = np.maximum(
        np.max(np.abs(amps - np.array(list(table.values()))), axis=1),
        np.max(np.abs(probs - np.abs(amps) ** 2), axis=1),
    )
    first_worst = int(np.argmax(errs))
    worst = float(errs[first_worst])
    a_name, b_name = list(table)[first_worst]
    where = f" at |{a_name} {b_name}>" if worst > 0.0 else ""
    return CheckResult(
        "product-decompositions", worst < CHECK_ATOL, f"max deviation {worst:.3e}{where}"
    )


def check_swap_corrections() -> CheckResult:
    """Entanglement swapping over noiseless channels, all four outcomes.

    Runs the oracle's own swap stage on the exact four-photon state: each
    announced Bell outcome's projection and Bob's correction of his retained
    photon. Requires unit fidelity with the singlet; the four outcomes form
    one stack.
    """
    singlet = bell_state(BellLabel.PSI_MINUS)
    _, pairs = entanglement_swap(pure_density(np.kron(singlet, singlet)))
    fidelities = bell_measure(pairs)[:, int(BellLabel.PSI_MINUS)]
    worst = min(1.0, float(fidelities.min()))
    return CheckResult(
        "swap-corrections",
        worst >= 1.0 - CHECK_ATOL,
        f"min post-correction singlet fidelity {worst:.15f}",
    )


# (protocol, attack, noise placement, single-photon encoding) of the configs
# compared: both noise placements, all three encodings, the attack under each.
EQUIVALENCE_CASES = (
    (Protocol.MDI_TS, AttackModel.NONE, NoisePlacement.FIRST_LEG_ONLY, PauliLabel.Y),
    (Protocol.MDI_TS, AttackModel.INTERCEPT_RESEND, NoisePlacement.BOTH_LEGS, PauliLabel.Y),
    (Protocol.MDI_DL04, AttackModel.NONE, NoisePlacement.FIRST_LEG_ONLY, PauliLabel.Y),
    (Protocol.MDI_DL04, AttackModel.INTERCEPT_RESEND, NoisePlacement.BOTH_LEGS, PauliLabel.X),
    (Protocol.MDI_DL04, AttackModel.INTERCEPT_RESEND, NoisePlacement.FIRST_LEG_ONLY, PauliLabel.Z),
)


# Channel parameters at which the two backends are compared.
EQUIVALENCE_PS = (0.0, 0.1, 0.5, 1.0)


def check_backend_equivalence() -> CheckResult:
    """The density-matrix oracle, reduced per announced outcome to the tally
    cells of a run, against the cell law the sampler draws, full grid.

    The oracle's source is built once with the whole ``EQUIVALENCE_PS`` grid
    and swapped once per attack model, as it is and after the
    intercept-resend channel (:func:`oracle_attack`): the cases share those
    two swap stages. For each case of ``EQUIVALENCE_CASES``, over a lossy
    channel so that the arrival law and the lost cell are compared too, the
    oracle's readout runs once on its attack's swapped pairs, and the
    Pauli-frame side once per p of the grid, as a run calls it. Each call
    builds its stages anew. The worst case is the first largest deviation in
    (case, p, key) order, and for ``cells`` the detail also names the
    announced Bell outcome and the tally cell where it lies.
    """
    grid = np.array(EQUIVALENCE_PS, dtype=np.float64)
    source = oracle_source(grid)
    swapped = {attack: entanglement_swap(oracle_attack(source, attack)) for attack in AttackModel}
    worst = 0.0
    worst_case = ""
    for protocol, attack, noise, encoding in EQUIVALENCE_CASES:
        cfg = ProtocolConfig(
            protocol=protocol,
            rounds=1,
            channel_p=0.0,
            seed=0,
            noise=noise,
            dl04_encoding=encoding,
            attack=attack,
            transmittance=0.7,
        )
        fast = [pauli_frame_round_distributions(replace(cfg, channel_p=p)) for p in EQUIVALENCE_PS]
        exact = oracle_readout(cfg, grid, *swapped[attack])
        deviations = {
            key: np.abs(np.stack([f[key] for f in fast]) - exact[key]).reshape(len(grid), -1)
            for key in exact
        }
        case = f"{protocol.value} {noise.value}"
        if protocol == Protocol.MDI_DL04:
            case += f" encoding={encoding.name}"
        for i, p in enumerate(EQUIVALENCE_PS):
            for key, diffs in deviations.items():
                at = int(diffs[i].argmax())
                if diffs[i, at] > worst:
                    worst = float(diffs[i, at])
                    worst_case = f"{case} p={p} attack={attack.value} {key}"
                    if key == "cells":
                        outcome, cell = divmod(at, exact[key].shape[-1])
                        worst_case += f" outcome={BellLabel(outcome).name} cell={cell}"
    return CheckResult(
        "backend-equivalence",
        worst < CHECK_ATOL,
        f"max distribution deviation {worst:.3e}"
        + (f" ({worst_case})" if worst_case else ""),
    )


def delta_simplex_grid(points_per_axis: int = 5) -> list[tuple[float, float, float, float]]:
    """Lattice over the Bell-diagonal weight simplex.

    The three non-reference weights each range over ``points_per_axis``
    equispaced values in [0, 1]; combinations summing beyond 1 are dropped
    and the reference weight absorbs the remainder.
    """
    values = [i / (points_per_axis - 1) for i in range(points_per_axis)]
    grid = []
    for d2 in values:
        for d3 in values:
            for d4 in values:
                rest = d2 + d3 + d4
                if rest <= 1.0 + 1e-12:
                    grid.append((max(1.0 - rest, 0.0), d2, d3, d4))
    return grid


def encoding_ensemble(d: PauliDistribution) -> DensityMatrix:
    """States available to an eavesdropper holding the purification.

    Purifies the Bell-diagonal pair that the Pauli error ``d`` on one half
    makes of the singlet, averages over Bob's four cover operations, then
    applies each of Alice's four encoding operations; the result is the
    uniform four-state ensemble, as a (4, 16, 16) stack
    indexed by the encoding Pauli, whose Holevo quantity bounds the leaked
    information per symbol. Array laws give an (n, 4, 16, 16) stack, one
    ensemble per element.
    """
    covered = pauli_channel(purify_bell_diagonal(d), (0.25, 0.25, 0.25, 0.25), 1)
    return apply_pauli(covered[..., None], list(PauliLabel), 0)


def holevo_excess(d: PauliDistribution):
    """chi of :func:`encoding_ensemble` minus the leak bound h(eps_z) + h(eps_x)
    of the pair's check error rates: a float, or an array for array laws."""
    chi = holevo_bound(encoding_ensemble(d), (0.25, 0.25, 0.25, 0.25))
    eps_z, eps_x = (error_rate_in_basis(d, basis) for basis in (PauliLabel.Z, PauliLabel.X))
    return chi - eve_info_mdi_ts(eps_z, eps_x)


# Simplex points per stacked pass: with 12, the default grid's 35 points take
# three passes and verify's tracemalloc peak is 0.47 MB; blocks of 18 (two
# passes, 0.7 MB) were no faster, and all 35 at once would take 1.3 MB.
HOLEVO_BLOCK = 12


def simplex_excess(points_per_axis: int = 5) -> tuple[list, np.ndarray]:
    """:func:`delta_simplex_grid` and the :func:`holevo_excess` at each of its
    points, computed in stacked blocks of ``HOLEVO_BLOCK`` points."""
    grid = delta_simplex_grid(points_per_axis)
    blocks = [grid[start : start + HOLEVO_BLOCK] for start in range(0, len(grid), HOLEVO_BLOCK)]
    excess = [
        holevo_excess(PauliDistribution.from_bell_weights(tuple(np.array(block).T)))
        for block in blocks
    ]
    return grid, np.concatenate(excess)


# Simplex points per axis of the Holevo check, and the excess over the bound
# it allows for the rounding of the numeric entropies.
HOLEVO_POINTS_PER_AXIS = 5
HOLEVO_SLACK = 1e-9


def check_holevo_bound() -> CheckResult:
    """Numeric Holevo quantity of the encoded ensemble against the
    binary-entropy bound h(eps_z) + h(eps_x), over the weight simplex."""
    grid, excess = simplex_excess(HOLEVO_POINTS_PER_AXIS)
    worst = int(np.argmax(excess))  # the first largest, NaN first of all
    return CheckResult(
        "holevo-bound",
        bool(excess[worst] <= HOLEVO_SLACK),
        f"max(chi - bound) = {excess[worst]:.3e} at deltas={grid[worst]}",
    )


def run_all_checks(inject_fault: str | None = None) -> list[CheckResult]:
    """Run every verification check, optionally with a named fault injected."""
    if inject_fault is not None and inject_fault not in KNOWN_FAULTS:
        raise ValueError(f"unknown fault {inject_fault!r}; known: {KNOWN_FAULTS}")
    return [
        check_bell_states(),
        check_product_decompositions(
            inject_sign_fault=inject_fault == FAULT_DECOMPOSITION_SIGN
        ),
        check_swap_corrections(),
        check_backend_equivalence(),
        check_holevo_bound(),
    ]
