"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Monte Carlo criteria use fixed seeds, so the whole suite is
deterministic.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import mdiqsdc
from mdiqsdc.channels import error_rate_in_basis
from mdiqsdc.curves import analytic_point, zero_crossing
from mdiqsdc.oracle import density_matrix_round_distributions, swap_correction
from mdiqsdc.protocol import (
    AttackModel,
    Protocol,
    ProtocolConfig,
    pauli_frame_round_distributions,
    run,
)
from mdiqsdc.quantum import (
    BellLabel,
    DensityMatrix,
    PauliDistribution,
    PauliLabel,
    apply_pauli,
    bell_measure,
    bell_state,
    embed_operator,
    holevo_bound,
    partial_trace,
    product_decompose,
    pure_density,
    single_photon,
)
from mdiqsdc.channels import depolarize
from mdiqsdc.verification import (
    PRODUCT_DECOMPOSITION_TABLE,
    delta_simplex_grid,
    encoding_ensemble,
)

R = 1.0 / math.sqrt(2.0)


def report(name):
    print(f"PASS: {name}")


class TestAcceptance:
    def test_noiseless_endpoints(self):
        """Analytic and Monte Carlo capacities at p=0: exactly 2 and 1."""
        assert analytic_point(Protocol.MDI_TS, 0.0).capacity.raw == 2.0
        assert analytic_point(Protocol.MDI_DL04, 0.0).capacity.raw == 1.0
        ts = run(
            ProtocolConfig(protocol=Protocol.MDI_TS, rounds=10_000, channel_p=0.0, seed=2024)
        )
        assert ts.point.capacity.raw == 2.0
        dl = run(
            ProtocolConfig(protocol=Protocol.MDI_DL04, rounds=10_000, channel_p=0.0, seed=2024)
        )
        assert dl.point.capacity.raw == 1.0
        report("noiseless endpoints (capacity exactly 2 and 1)")

    def test_bell_algebra_suite(self):
        """All four Bell states and all eight same-basis decompositions,
        amplitude error below 1e-12."""
        bell_table = {
            BellLabel.PHI_PLUS: [R, 0, 0, R],
            BellLabel.PHI_MINUS: [R, 0, 0, -R],
            BellLabel.PSI_PLUS: [0, R, R, 0],
            BellLabel.PSI_MINUS: [0, R, -R, 0],
        }
        for label, amps in bell_table.items():
            err = np.max(np.abs(bell_state(label) - np.array(amps)))
            assert err < 1e-12
        for (a, b), expected in PRODUCT_DECOMPOSITION_TABLE.items():
            amps = product_decompose(single_photon(a), single_photon(b))
            assert np.max(np.abs(amps - np.array(expected))) < 1e-12
        report("Bell-algebra suite (4 states + 8 decompositions, < 1e-12)")

    def test_entanglement_swapping_table(self):
        """Post-correction fidelity 1 for every announced outcome at p=0,
        via the 16-dimensional oracle, in under a second."""
        start = time.perf_counter()
        singlet = bell_state(BellLabel.PSI_MINUS)
        rho = pure_density(np.kron(singlet, singlet))
        for outcome in BellLabel:
            v = bell_state(outcome)
            proj = embed_operator(np.outer(v, v.conj()), (1, 3), 4)
            sub = proj @ rho.matrix @ proj
            p_o = float(np.real(np.trace(sub)))
            assert abs(p_o - 0.25) < 1e-12
            pair = partial_trace(DensityMatrix(sub / p_o), keep=(0, 2))
            pair = apply_pauli(pair, swap_correction(outcome), 1)
            fidelity = float(bell_measure(pair)[int(BellLabel.PSI_MINUS)])
            assert fidelity > 1 - 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        report(f"entanglement-swapping table (fidelity 1, {elapsed * 1000:.0f} ms)")

    def test_channel_identities(self):
        """One-leg depolarizing: delta and error-rate closed forms vs the
        matrix oracle, to 1e-12, for p in {0, 0.1, ..., 1}."""
        singlet = pure_density(bell_state(BellLabel.PSI_MINUS))
        for k in range(11):
            p = k / 10
            deltas = bell_measure(depolarize(singlet, p, 1))
            closed = np.array([1 - 0.75 * p, 0.25 * p, 0.25 * p, 0.25 * p])
            assert np.max(np.abs(deltas - closed)) < 1e-12
            dist = PauliDistribution.from_bell_weights(tuple(closed))
            for basis in (PauliLabel.Z, PauliLabel.X, PauliLabel.Y):
                assert abs(error_rate_in_basis(dist, basis) - p / 2) < 1e-12
        report("channel identities (delta and eps = p/2, 1e-12, 11 grid points)")

    def test_backend_equivalence(self):
        """Pauli-frame and density-matrix per-round distributions agree to
        1e-12 over protocols x p x attack."""
        worst = 0.0
        for protocol in (Protocol.MDI_TS, Protocol.MDI_DL04):
            for p in (0.0, 0.1, 0.5, 1.0):
                for attack in (AttackModel.NONE, AttackModel.INTERCEPT_RESEND):
                    cfg = ProtocolConfig(
                        protocol=protocol, rounds=1, channel_p=p, seed=0, attack=attack
                    )
                    fast = pauli_frame_round_distributions(cfg)
                    exact = density_matrix_round_distributions(cfg)
                    for key in exact:
                        worst = max(worst, float(np.max(np.abs(fast[key] - exact[key]))))
        assert worst < 1e-12
        report(f"backend equivalence (max deviation {worst:.2e} over 16 configs)")

    def test_monte_carlo_convergence(self):
        """p=0.2, one million rounds per protocol, fixed seeds: every
        estimated error rate within +-0.005 of its analytic value, in
        under ten seconds."""
        p = 0.2
        expected = 2 * (p / 2) * (1 - p / 2)  # 0.18 per basis, both protocols
        start = time.perf_counter()
        ts = run(
            ProtocolConfig(
                protocol=Protocol.MDI_TS, rounds=1_000_000, channel_p=p, seed=314,
                check_fraction=0.3,
            )
        )
        dl = run(
            ProtocolConfig(
                protocol=Protocol.MDI_DL04, rounds=1_000_000, channel_p=p, seed=314,
                check_fraction=0.3, dl04_encoding=PauliLabel.Y,
            )
        )
        elapsed = time.perf_counter() - start
        for rate in (ts.point.eps_z, ts.point.eps_x, dl.point.eps_z, dl.point.eps_x,
                     dl.point.eps_y):
            assert abs(rate - expected) < 0.005
        assert abs(dl.law[1] - expected) < 0.005
        analytic_symbols = analytic_point(Protocol.MDI_TS, p / 2)
        assert abs(ts.point.capacity.raw - analytic_symbols.capacity.raw) < 0.01
        assert elapsed < 10.0
        report(
            f"Monte Carlo convergence (all QBER within 0.005 of 0.18, {elapsed:.1f} s)"
        )

    def test_figure_reproduction(self):
        """Desk-scale figure checks: monotonicity, MDI at or below non-MDI,
        the normalized MDI gap smaller for the single-photon pair, and
        bisected zero crossings stable to 1e-6."""
        grid = [k * 0.005 for k in range(101)]
        curves = {
            protocol: [analytic_point(protocol, x).capacity.raw for x in grid]
            for protocol in Protocol
        }
        for protocol, values in curves.items():
            for a, b in zip(values, values[1:]):
                assert b <= a + 1e-12, f"{protocol} not monotone"
        for i, x in enumerate(grid):
            assert curves[Protocol.MDI_TS][i] <= curves[Protocol.TWO_STEP][i] + 1e-12
            assert curves[Protocol.MDI_DL04][i] <= curves[Protocol.DL04][i] + 1e-12
        # normalized by the noiseless capacities (2 bits vs 1 bit)
        for i, x in enumerate(grid):
            ts_gap = (curves[Protocol.TWO_STEP][i] - curves[Protocol.MDI_TS][i]) / 2.0
            dl_gap = curves[Protocol.DL04][i] - curves[Protocol.MDI_DL04][i]
            assert dl_gap <= ts_gap + 1e-12
            if 0.0 < x < 0.5:
                assert dl_gap < ts_gap
        crossings = {protocol: zero_crossing(protocol) for protocol in Protocol}
        for protocol, crossing in crossings.items():
            assert crossing is not None and 0.0 < crossing < 0.5
            assert zero_crossing(protocol) == crossing  # rerun stability
        assert crossings[Protocol.MDI_TS] < crossings[Protocol.TWO_STEP]
        assert crossings[Protocol.MDI_DL04] < crossings[Protocol.DL04]
        summary = ", ".join(
            f"{proto.value}={val:.6f}" for proto, val in crossings.items()
        )
        report(f"figure reproduction (zero crossings {summary})")

    def test_holevo_validation(self):
        """Holevo quantity of the encoded ensemble never exceeds
        h(eps_z) + h(eps_x) + 1e-9 over the 5x5x5 weight simplex grid,
        in under thirty seconds."""
        start = time.perf_counter()
        priors = (0.25, 0.25, 0.25, 0.25)
        worst = -math.inf
        grid = delta_simplex_grid(5)
        for deltas in grid:
            dist = PauliDistribution.from_bell_weights(deltas)
            chi = holevo_bound(encoding_ensemble(dist), priors)
            bound = 0.0
            for eps in (error_rate_in_basis(dist, b) for b in (PauliLabel.Z, PauliLabel.X)):
                if 0.0 < eps < 1.0:
                    bound += -eps * math.log2(eps) - (1 - eps) * math.log2(1 - eps)
            worst = max(worst, chi - bound)
        elapsed = time.perf_counter() - start
        assert worst <= 1e-9
        assert elapsed < 30.0
        report(
            f"Holevo validation (max excess {worst:.2e} over {len(grid)} points, "
            f"{elapsed:.1f} s)"
        )

    def test_attack_detection(self):
        """Intercept-resend on one leg: checked QBER 0.25 +- 0.005 at one
        million rounds, and the capacity estimate sits at least five
        standard errors below the clean run."""
        common = dict(
            protocol=Protocol.MDI_TS, rounds=1_000_000, channel_p=0.0, seed=2718,
            check_fraction=0.5,
        )
        clean = run(ProtocolConfig(**common))
        attacked = run(ProtocolConfig(**common, attack=AttackModel.INTERCEPT_RESEND))
        for rate in (attacked.point.eps_z, attacked.point.eps_x):
            assert abs(rate - 0.25) < 0.005
        separation = clean.point.capacity.raw - attacked.point.capacity.raw
        combined_se = math.sqrt(clean.se["capacity"] ** 2 + attacked.se["capacity"] ** 2)
        assert separation > 5 * combined_se
        assert attacked.point.capacity.raw < clean.point.capacity.raw
        report(
            f"attack detection (QBER {attacked.point.eps_z:.4f}, capacity drop "
            f"{separation:.2f} = {separation / combined_se:.0f} sigma)"
        )

    def test_simulate_determinism(self, tmp_path):
        """Two identical CLI invocations produce byte-identical CSV."""
        outputs = []
        for name in ("first.csv", "second.csv"):
            path = tmp_path / name
            result = subprocess.run(
                [
                    sys.executable, "-m", "mdiqsdc", "simulate",
                    "--protocol", "mdi-ts", "--p", "0.2", "--rounds", "50000",
                    "--seed", "99", "--csv", str(path),
                ],
                capture_output=True,
                # the child imports the package this process tests
                env=dict(os.environ, PYTHONPATH=str(Path(mdiqsdc.__file__).resolve().parents[1])),
            )
            assert result.returncode == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]
        report("determinism (byte-identical CSV across reruns)")
