"""The stacked ``verify`` checks: equal to their per-point definitions, as
many matrices validated as one point at a time, bounded memory, and a
Holevo check that fails when its ensemble, its bound or its grid is wrong."""

import dataclasses
import hashlib
import math
import re
import tracemalloc
from collections import Counter, defaultdict

import numpy as np
import pytest

import mdiqsdc.channels
import mdiqsdc.oracle
import mdiqsdc.protocol
import mdiqsdc.quantum
import mdiqsdc.verification as verification
from mdiqsdc.oracle import swap_correction
from mdiqsdc.protocol import (
    AttackModel,
    NoisePlacement,
    Protocol,
    binary_entropy,
    message_law,
)
from mdiqsdc.quantum import (
    PAULI_OF_BELL,
    BellLabel,
    PauliDistribution,
    PauliLabel,
    apply_pauli,
    purify_bell_diagonal,
)
from mdiqsdc.verification import (
    HOLEVO_POINTS_PER_AXIS,
    HOLEVO_SLACK,
    check_holevo_bound,
    delta_simplex_grid,
    holevo_excess,
    run_all_checks,
    simplex_excess,
)

# Matrices one verify validates: every member of every stage, as many as
# when every grid point was its own stack, and the distinct members among
# them. backend-equivalence compares five configs over four p values, and
# builds the oracle's source once and swaps it once per attack model; a swap
# validates two-photon pairs only, before and after Bob's correction. The
# second-leg noise acts on the 16 swapped pairs of a readout, not on its 256
# (mdi-ts) or 32 (mdi-dl04) encoded states (1360 and 1622 before).
VALIDATED_FLOOR = {"backend-equivalence": 864, "holevo-bound": 245}
VALIDATED_TOTAL_FLOOR = 1126
# Taken when each of backend-equivalence's five cases built its own source
# and swap (1592 members): sharing those stages drops copies, not matrices.
DISTINCT_FLOOR = {"backend-equivalence": 112, "holevo-bound": 158}
DISTINCT_TOTAL_FLOOR = 278
# Members one verify diagonalizes: an output of apply_pauli keeps its input's
# spectrum, so a change that diagonalizes Pauli outputs again raises these,
# and so does noising the encoded states instead of the pairs (592 and 710).
DIAGONALIZED = {"backend-equivalence": 96, "holevo-bound": 105}
DIAGONALIZED_TOTAL = 214


@pytest.mark.parametrize("points_per_axis", [5, 7])
def test_stacked_excess_equals_the_per_point_loop(points_per_axis):
    grid, stacked = simplex_excess(points_per_axis)
    assert grid == delta_simplex_grid(points_per_axis)
    loop = [holevo_excess(PauliDistribution.from_bell_weights(deltas)) for deltas in grid]
    assert all(isinstance(value, float) for value in loop)
    np.testing.assert_array_equal(stacked, loop)


# SHA-256 of simplex_excess's float64 excess bytes, in grid order, taken when
# the Holevo path's stacks became float64 and went to the real symmetric
# eigensolver. verify prints the worst excess to 3 digits only; these see an
# ulp anywhere in the Holevo path.
SIMPLEX_EXCESS_SHA256 = {
    5: "e83cb0eb3f749a23b76cf9f0123bec5c3f3518635783653f343e45c6fdd984ce",
    9: "26069c0981a2b9dee14f8faf60cac311532b736f6c48fa85e11fd7786cdaa395",
}


@pytest.mark.parametrize("points_per_axis", sorted(SIMPLEX_EXCESS_SHA256))
def test_simplex_excess_is_pinned(points_per_axis):
    _, excess = simplex_excess(points_per_axis)
    assert excess.dtype == np.float64 and excess.flags.c_contiguous
    digest = hashlib.sha256(excess.tobytes()).hexdigest()
    assert digest == SIMPLEX_EXCESS_SHA256[points_per_axis]


def _name_running_checks(monkeypatch):
    """Wrap every ``check_*`` of ``verification`` so that the returned list
    ends with the name of the check that is running."""
    running = []

    def named(check):
        def run(*args, **kwargs):
            running.append(check.__name__)
            return check(*args, **kwargs)

        return run

    for attr in dir(verification):
        if attr.startswith("check_"):
            monkeypatch.setattr(verification, attr, named(getattr(verification, attr)))
    return running


def test_verify_validates_at_least_one_matrix_per_point_and_stage(monkeypatch):
    validated = Counter()
    distinct = defaultdict(set)
    diagonalized = Counter()
    original = mdiqsdc.quantum.validate_density_stack
    eigvalsh = np.linalg.eigvalsh

    def counting(matrices, eigenvalues=None):
        members = matrices.reshape(-1, *matrices.shape[-2:])
        validated[running[-1]] += len(members)
        distinct[running[-1]].update(member.tobytes() for member in members)
        return original(matrices, eigenvalues)

    def diagonalizing(matrices):
        diagonalized[running[-1]] += math.prod(matrices.shape[:-2])
        return eigvalsh(matrices)

    monkeypatch.setattr(mdiqsdc.quantum, "validate_density_stack", counting)
    monkeypatch.setattr(np.linalg, "eigvalsh", diagonalizing)
    running = _name_running_checks(monkeypatch)
    results = run_all_checks()
    functions = {result.name: function for result, function in zip(results, running, strict=True)}
    for name, floor in VALIDATED_FLOOR.items():
        assert validated[functions[name]] >= floor, (name, validated[functions[name]])
    assert sum(validated.values()) >= VALIDATED_TOTAL_FLOOR
    for name, floor in DISTINCT_FLOOR.items():
        assert len(distinct[functions[name]]) >= floor, (name, len(distinct[functions[name]]))
    assert len(set().union(*distinct.values())) >= DISTINCT_TOTAL_FLOOR
    for name, count in DIAGONALIZED.items():
        assert diagonalized[functions[name]] == count, (name, diagonalized[functions[name]])
    assert sum(diagonalized.values()) == DIAGONALIZED_TOTAL


@pytest.mark.parametrize("check", ["check_backend_equivalence", "check_holevo_bound"])
def test_the_grid_checks_validate_only_float64_stacks(monkeypatch, check):
    """Every state the oracle and the Holevo check build is real, so a
    complex cast anywhere on their path, which would double verify's
    memory, fails here."""
    kinds = Counter()
    original = mdiqsdc.quantum.validate_density_stack

    def recording(matrices, eigenvalues=None):
        kinds[matrices.dtype] += 1
        return original(matrices, eigenvalues)

    monkeypatch.setattr(mdiqsdc.quantum, "validate_density_stack", recording)
    assert getattr(verification, check)().passed
    assert set(kinds) == {np.dtype(np.float64)}, kinds


def test_verify_builds_the_oracle_stages_anew_on_every_call(monkeypatch):
    """backend-equivalence builds the oracle's source once with the whole
    grid, swaps it once per attack model and reads each case out of its
    attack's swap; a second verify builds all of it again."""
    running = _name_running_checks(monkeypatch)
    calls = []

    def recording(name):
        stage = getattr(verification, name)

        def run(*args):
            out = stage(*args)
            calls.append((running[-1], name, args, out))
            return out

        monkeypatch.setattr(verification, name, run)

    for name in ("oracle_source", "oracle_attack", "entanglement_swap", "oracle_readout"):
        recording(name)
    cases = verification.EQUIVALENCE_CASES
    sources = []
    for _ in range(2):
        calls.clear()
        assert all(result.passed for result in run_all_checks())
        assert {call[0] for call in calls} == {
            "check_swap_corrections",  # its one swap of two noiseless singlets
            "check_backend_equivalence",
        }
        by_stage = defaultdict(list)
        for check, name, args, out in calls:
            if check == "check_backend_equivalence":
                by_stage[name].append((args, out))
        # one source with the whole grid, and one swap of it per attack model
        ((grid,), source), = by_stage["oracle_source"]
        assert tuple(grid.tolist()) == verification.EQUIVALENCE_PS
        attacked = {attack: out for (into, attack), out in by_stage["oracle_attack"]}
        assert all(into is source for (into, _), _ in by_stage["oracle_attack"])
        assert len(by_stage["oracle_attack"]) == len(AttackModel) == len(attacked)
        swaps = {id(args[0]): out for args, out in by_stage["entanglement_swap"]}
        assert len(by_stage["entanglement_swap"]) == len(AttackModel) == len(swaps)
        swapped = {attack: swaps[id(rho)] for attack, rho in attacked.items()}
        readouts = by_stage["oracle_readout"]
        assert Counter(
            (c.protocol, c.attack, c.noise, c.dl04_encoding) for (c, *_), _ in readouts
        ) == Counter(cases)
        for (cfg, channel_p, *pairs), _ in readouts:
            assert channel_p is grid and cfg.transmittance == 0.7
            assert all(a is b for a, b in zip(pairs, swapped[cfg.attack], strict=True))
        sources.append(source)
    assert sources[0] is not sources[1]


# tracemalloc peak of a repeated verify: 243-249 kB over 40 runs with numpy
# 2.4 on Python 3.11, rounded up; the stacks are float64 (468 kB when they
# were complex128)
VERIFY_PEAK_BYTES = 250_000


def test_stacked_checks_stay_under_a_quarter_megabyte():
    run_all_checks()  # a warm-up, so the peak is that of a repeated verify
    tracemalloc.start()
    try:
        run_all_checks()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < VERIFY_PEAK_BYTES, peak


class TestHolevoCheckHasTeeth:
    def test_dropping_the_cover_average_fails(self, monkeypatch):
        def uncovered(d):
            rho = purify_bell_diagonal(d)
            return apply_pauli(rho[..., None], list(PauliLabel), 0)

        monkeypatch.setattr(verification, "encoding_ensemble", uncovered)
        result = check_holevo_bound()
        assert not result.passed, result.detail

    def test_a_bound_of_h_eps_z_alone_fails(self, monkeypatch):
        monkeypatch.setattr(
            verification, "eve_info_mdi_ts", lambda eps_z, eps_x: binary_entropy(eps_z)
        )
        result = check_holevo_bound()
        assert not result.passed, result.detail

    @pytest.mark.parametrize(
        "worst, passed",
        [(HOLEVO_SLACK, True), (math.nextafter(HOLEVO_SLACK, 1.0), False)],
    )
    def test_the_slack_is_inclusive(self, monkeypatch, worst, passed):
        grid, _ = simplex_excess(HOLEVO_POINTS_PER_AXIS)
        excess = np.full(len(grid), worst)
        monkeypatch.setattr(verification, "simplex_excess", lambda points: (grid, excess))
        assert check_holevo_bound().passed is passed

    def test_a_violation_at_any_single_point_fails_and_is_named(self, monkeypatch):
        honest = verification.holevo_excess
        for target in delta_simplex_grid(5):

            def planted(d, target=target):
                # Bell state k has the weight of the Pauli error that makes it
                weights = [d[PAULI_OF_BELL[k]] for k in range(4)]
                close = [np.isclose(w, t, rtol=0.0, atol=1e-12) for w, t in zip(weights, target)]
                at_target = np.all(close, axis=0)
                return honest(d) + np.where(at_target, 3.0, 0.0)  # excess >= -2

            monkeypatch.setattr(verification, "holevo_excess", planted)
            result = check_holevo_bound()
            assert not result.passed, target
            assert result.detail.endswith(f"at deltas={target}")



def test_backend_equivalence_covers_both_noise_placements_and_all_encodings(monkeypatch):
    cases = verification.EQUIVALENCE_CASES
    frame_calls = []
    frame = verification.pauli_frame_round_distributions

    def recording_frame(cfg):
        frame_calls.append(cfg)
        return frame(cfg)

    monkeypatch.setattr(verification, "pauli_frame_round_distributions", recording_frame)
    assert verification.check_backend_equivalence().passed

    def case(c):
        return c.protocol, c.attack, c.noise, c.dl04_encoding

    # the frame side once per case at each p of the grid
    assert Counter((case(c), c.channel_p) for c in frame_calls) == Counter(
        (c, p) for c in cases for p in verification.EQUIVALENCE_PS
    )
    # every case over a lossy channel: at transmittance 1 no round is lost,
    # and the arrival law could not show a fault
    assert {c.transmittance for c in frame_calls} == {0.7}
    for protocol in (Protocol.MDI_TS, Protocol.MDI_DL04):
        own = [case for case in cases if case[0] == protocol]
        assert {attack for _, attack, _, _ in own} == set(AttackModel), protocol
        assert {noise for _, _, noise, _ in own} == set(NoisePlacement), protocol
    single_photon = {enc for protocol, _, _, enc in cases if protocol == Protocol.MDI_DL04}
    assert single_photon == {PauliLabel.X, PauliLabel.Y, PauliLabel.Z}


# ---------------------------------------------------------------------------
# Every mutation verify must catch, in one list: each entry plants one fault
# and names the checks that must fail, and a pattern of the
# backend-equivalence detail, which every one of them fails.
# ---------------------------------------------------------------------------


def _wrong_swap_correction(outcome):
    def plant(monkeypatch):
        table = {o: swap_correction(o) for o in BellLabel}
        table[outcome] = PauliLabel((int(table[outcome]) + 1) % 4)
        monkeypatch.setattr(mdiqsdc.oracle, "swap_correction", lambda o: table[BellLabel(o)])

    return plant


def _skewed_frame_depolarizing(monkeypatch):
    def skewed(p):
        return PauliDistribution((1.0 - 0.75 * p, 0.3 * p, 0.2 * p, 0.25 * p))

    monkeypatch.setattr(mdiqsdc.protocol, "depolarizing_pauli_dist", skewed)


def _skewed_frame_attack(monkeypatch):
    skewed = PauliDistribution((0.5, 0.3, 0.0, 0.2))
    monkeypatch.setattr(mdiqsdc.protocol, "INTERCEPT_RESEND_DIST", skewed)


def _skewed_oracle_channel(module):
    # moves half of the X weight to Y in the oracle's depolarize calls
    # (channels) or in its intercept-resend call (oracle)
    def plant(monkeypatch):
        original = module.pauli_channel

        def skewed(dm, weights, qubit):
            w = list(weights)
            w[1], w[2] = 0.5 * w[1], w[2] + 0.5 * w[1]
            return original(dm, w, qubit)

        monkeypatch.setattr(module, "pauli_channel", skewed)

    return plant


def _basis_share_55_45(honest, cfg, laws):
    cells = honest(cfg, laws)
    cells[..., 0:2] *= 1.1  # 55% of two bases' check rounds in the first
    cells[..., 2:4] *= 0.9
    return cells


def _one_photon_arrival(honest, cfg, laws):
    # an entanglement-protocol message round arrives when one photon passes
    if cfg.protocol == Protocol.MDI_TS:
        cfg = dataclasses.replace(cfg, transmittance=math.sqrt(cfg.transmittance))
    return honest(cfg, laws)


def _second_error_left_out(honest, cfg, laws):
    frame, _ = laws
    return honest(cfg, (frame, message_law(cfg.protocol, cfg.dl04_encoding, frame)))


def _basis_pair_swapped(honest, cfg, laws):
    cells = honest(cfg, laws)
    cells[..., [0, 1]] = cells[..., [1, 0]]  # the first basis's (no error, error)
    return cells


def _wrong_cell_law(mutation):
    def plant(monkeypatch):
        honest = mdiqsdc.protocol._cell_probabilities
        monkeypatch.setattr(
            mdiqsdc.protocol, "_cell_probabilities", lambda cfg, laws: mutation(honest, cfg, laws)
        )

    return plant


def _wrong_oracle_cell(outcome, cell):
    def plant(monkeypatch):
        honest = verification.oracle_readout

        def planted(cfg, channel_p, swap_outcome, pair):
            out = honest(cfg, channel_p, swap_outcome, pair)
            out["cells"][..., int(outcome), cell] += 1e-6  # every config has at least 7 cells
            return out

        monkeypatch.setattr(verification, "oracle_readout", planted)

    return plant


def _nan_frame_cells(monkeypatch):
    honest = verification.pauli_frame_round_distributions

    def planted(cfg):
        out = dict(honest(cfg))
        out["cells"] = np.full_like(out["cells"], np.nan)
        return out

    monkeypatch.setattr(verification, "pauli_frame_round_distributions", planted)


EQUIVALENCE = frozenset({"backend-equivalence"})
VERIFY_MUTATIONS = {
    **{
        f"swap-correction-{outcome.name}": (
            _wrong_swap_correction(outcome),
            # verify's swap check runs the oracle's own swap stage, so it fails too
            EQUIVALENCE | {"swap-corrections"},
            r"",
        )
        for outcome in BellLabel
    },
    "frame-depolarizing-weight": (_skewed_frame_depolarizing, EQUIVALENCE, r""),
    "frame-attack-weight": (_skewed_frame_attack, EQUIVALENCE, r" attack=intercept-resend "),
    "oracle-depolarizing-weight": (_skewed_oracle_channel(mdiqsdc.channels), EQUIVALENCE, r""),
    "oracle-attack-weight": (_skewed_oracle_channel(mdiqsdc.oracle), EQUIVALENCE, r""),
    **{
        f"cell-law-{name}": (_wrong_cell_law(mutation), EQUIVALENCE, r" cells outcome=")
        for name, mutation in {
            "basis-share-55-45": _basis_share_55_45,
            "one-photon-arrival": _one_photon_arrival,
            "second-error-left-out": _second_error_left_out,
            "basis-pair-swapped": _basis_pair_swapped,
        }.items()
    },
    **{
        f"oracle-cell-{outcome.name}-{cell}": (
            _wrong_oracle_cell(outcome, cell),
            EQUIVALENCE,
            r"^max distribution deviation 1\.000e-06 \(.*"
            rf" cells outcome={outcome.name} cell={cell}\)$",
        )
        for outcome in BellLabel
        for cell in (0, 4, 6)
    },
    # a NaN deviation is larger than any number, and the first one is named
    "frame-cells-nan": (
        _nan_frame_cells,
        EQUIVALENCE,
        r"^max distribution deviation nan \(mdi-ts first-leg-only p=0\.0 attack=none"
        r" cells outcome=PSI_MINUS cell=0\)$",
    ),
}


@pytest.mark.parametrize("name", VERIFY_MUTATIONS)
def test_every_mutation_fails_verify(monkeypatch, name):
    plant, failing, detail = VERIFY_MUTATIONS[name]
    plant(monkeypatch)
    results = {result.name: result for result in run_all_checks()}
    assert {n for n, result in results.items() if not result.passed} == failing, results
    assert re.search(detail, results["backend-equivalence"].detail), results
