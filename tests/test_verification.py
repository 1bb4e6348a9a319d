"""The stacked ``verify`` checks: equal to their per-point definitions, as
many matrices validated as one point at a time, bounded memory, and a
Holevo check that fails when its ensemble, its bound or its grid is wrong."""

import hashlib
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import mdiqsdc.quantum
import mdiqsdc.verification as verification
from mdiqsdc.cli import main
from mdiqsdc.infotheory import binary_entropy
from mdiqsdc.protocol import AttackModel, NoisePlacement, Protocol
from mdiqsdc.quantum import (
    PAULI_OF_BELL,
    BellLabel,
    PauliDistribution,
    PauliLabel,
    apply_pauli,
    purify_bell_diagonal,
)
from mdiqsdc.verification import (
    check_holevo_bound,
    delta_simplex_grid,
    holevo_excess,
    run_all_checks,
    simplex_excess,
)

# Matrices one verify validates, as many as when every grid point was its
# own stack: backend-equivalence compares five configs over four p values.
VALIDATED_FLOOR = {"backend-equivalence": 1592, "holevo-bound": 245}
VALIDATED_TOTAL_FLOOR = 1858


@pytest.mark.parametrize("points_per_axis", [5, 7])
def test_stacked_excess_equals_the_per_point_loop(points_per_axis):
    grid, stacked = simplex_excess(points_per_axis)
    assert grid == delta_simplex_grid(points_per_axis)
    loop = [holevo_excess(PauliDistribution.from_bell_weights(deltas)) for deltas in grid]
    assert all(isinstance(value, float) for value in loop)
    np.testing.assert_array_equal(stacked, loop)


# SHA-256 of simplex_excess's float64 excess bytes, in grid order, taken before
# the Bell-diagonal weights became a PauliDistribution. verify prints the worst
# excess to 3 digits only; these see an ulp anywhere in the Holevo path.
SIMPLEX_EXCESS_SHA256 = {
    5: "2e2590a8ac2a5788a39e59c96317f88e5a0cc6fd8cc1dc1cbfbeaf0c11478754",
    9: "20b272dcdd8d802ee2d5f9b8574d8264c001684b2c656c6662617b0c07ccfa08",
}


@pytest.mark.parametrize("points_per_axis", sorted(SIMPLEX_EXCESS_SHA256))
def test_simplex_excess_is_pinned(points_per_axis):
    _, excess = simplex_excess(points_per_axis)
    assert excess.dtype == np.float64 and excess.flags.c_contiguous
    digest = hashlib.sha256(excess.tobytes()).hexdigest()
    assert digest == SIMPLEX_EXCESS_SHA256[points_per_axis]


def test_verify_validates_at_least_one_matrix_per_point_and_stage(monkeypatch):
    validated = Counter()
    running = []
    original = mdiqsdc.quantum.validate_density_stack

    def counting(matrices):
        validated[running[-1]] += math.prod(matrices.shape[:-2])
        return original(matrices)

    def named(check):
        def run(*args, **kwargs):
            running.append(check.__name__)
            return check(*args, **kwargs)

        return run

    monkeypatch.setattr(mdiqsdc.quantum, "validate_density_stack", counting)
    names = {}
    for attr in dir(verification):
        if attr.startswith("check_"):
            names[attr] = getattr(verification, attr)
            monkeypatch.setattr(verification, attr, named(names[attr]))
    results = run_all_checks()
    by_check = {
        result.name: validated[function]
        for result, function in zip(results, running, strict=True)
    }
    for name, floor in VALIDATED_FLOOR.items():
        assert by_check[name] >= floor, (name, by_check[name])
    assert sum(validated.values()) >= VALIDATED_TOTAL_FLOOR


def test_stacked_checks_stay_under_a_megabyte():
    run_all_checks()  # the operator tables are cached on first use
    tracemalloc.start()
    try:
        run_all_checks()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


class TestHolevoCheckHasTeeth:
    def test_dropping_the_cover_average_fails(self, monkeypatch):
        def uncovered(d):
            rho = purify_bell_diagonal(d).to_density_matrix()
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
    compared = []
    for name in ("pauli_frame_round_distributions", "density_matrix_round_distributions"):
        backend = getattr(verification, name)

        def recording(cfg, channel_p, backend=backend):
            compared.append(cfg)
            return backend(cfg, channel_p)

        monkeypatch.setattr(verification, name, recording)
    assert verification.check_backend_equivalence().passed
    # every case on both backends, over a lossy channel: at transmittance 1
    # no round is lost, and the arrival law could not show a fault
    assert len(compared) == 2 * len(cases)
    assert {(c.protocol, c.attack, c.noise, c.dl04_encoding) for c in compared} == set(cases)
    assert {c.transmittance for c in compared} == {0.7}
    for protocol in (Protocol.MDI_TS, Protocol.MDI_DL04):
        own = [case for case in cases if case[0] == protocol]
        assert {attack for _, attack, _, _ in own} == set(AttackModel), protocol
        assert {noise for _, _, noise, _ in own} == set(NoisePlacement), protocol
    single_photon = {enc for protocol, _, _, enc in cases if protocol == Protocol.MDI_DL04}
    assert single_photon == {PauliLabel.X, PauliLabel.Y, PauliLabel.Z}


@pytest.mark.parametrize("cell", [0, 4, 6])
@pytest.mark.parametrize("outcome", list(BellLabel), ids=lambda o: o.name)
def test_a_wrong_oracle_cell_fails_verify_and_is_named(monkeypatch, capsys, outcome, cell):
    honest = verification.density_matrix_round_distributions

    def planted(cfg, channel_p):
        out = honest(cfg, channel_p)
        out["cells"][..., int(outcome), cell] += 1e-6  # every config has at least 7 cells
        return out

    monkeypatch.setattr(verification, "density_matrix_round_distributions", planted)
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    (line,) = [line for line in out.splitlines() if "backend-equivalence" in line]
    assert line.startswith("FAIL backend-equivalence: max distribution deviation 1.000e-06")
    assert line.endswith(f" cells outcome={outcome.name} cell={cell})")
