"""The benchmark's three workloads, each one cycle of command-line invocations.

A workload is a list of ``Op``s that the measurement loop repeats, whole
cycles only, in a closed loop with one client. Every op is an argv list for
``mdiqsdc.cli.main``; simulate ops also carry the ``ProtocolConfig`` the argv
describes, so the correctness gate can compute the analytic twin.

Why these workloads:

* ``mc-large``: a few ``simulate`` calls of a million rounds each. The sampler and tally
  inside ``protocol.run`` do nearly all the work and the per-round arrays set
  peak memory; a streaming sampler must move this workload.
* ``mc-scan``: hundreds of small ``simulate`` calls over the CLI's config
  space. Fixed per-run cost (argument parsing, config, analytic twin)
  dominates, so a sampler change that adds per-run set-up shows here while a
  throughput gain should not. It also runs the correctness gate over the
  whole config space.
* ``oracle-sweep``: ``verify`` alternating with a default-grid and a
  fine-grid ``sweep``. This exercises the density-matrix oracle, the closed
  forms and CSV/SVG output, and leaves the Monte Carlo sampler idle.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path

from mdiqsdc.protocol import AttackModel, NoisePlacement, Protocol, ProtocolConfig
from mdiqsdc.quantum import PauliLabel

ENCODINGS = {"x": PauliLabel.X, "y": PauliLabel.Y, "z": PauliLabel.Z}
NOISES = ("first-leg-only", "both-legs")
ATTACKS = ("none", "intercept-resend")

MC_LARGE_ROUNDS = 1_000_000
# Scan sizes are chosen so every non-degenerate estimate has an expected
# count of at least about 75 errors (and non-errors): below that, the
# plug-in standard error makes the 5-SE gate raise false alarms at more
# than 1e-5 per estimate.
SCAN_PS = (0.0, 0.2, 0.35, 0.5)
SCAN_CHECK_FRACTIONS = (0.25, 0.5, 0.75)
# Eleven round counts from 5000 to 10000 spread the call times evenly, so
# the median call does not sit on the boundary between two size classes.
SCAN_ROUNDS = tuple(range(5_000, 10_001, 500))
FINE_GRID = "0:0.5:0.0005"


@dataclass(frozen=True)
class Op:
    """One invocation of the command line.

    ``kind`` is ``simulate``, ``sweep``, ``sweep-fine`` or ``verify``.
    ``outputs`` names the files the invocation writes, by role (``csv``,
    ``svg``), so the gate can read them back.
    """

    kind: str
    argv: tuple[str, ...]
    outputs: tuple[tuple[str, Path], ...] = ()
    cfg: ProtocolConfig | None = None

    @property
    def rounds(self) -> int:
        return self.cfg.rounds if self.cfg is not None else 0


def simulate_op(
    work_dir: Path,
    *,
    protocol: str,
    p: float,
    rounds: int,
    seed: int,
    noise: str = "first-leg-only",
    attack: str = "none",
    encoding: str = "y",
    check_fraction: float = 0.25,
) -> Op:
    csv = work_dir / "simulate.csv"
    argv = (
        "simulate",
        "--protocol", protocol,
        "--p", repr(p),
        "--rounds", str(rounds),
        "--seed", str(seed),
        "--noise", noise,
        "--attack", attack,
        "--encoding", encoding,
        "--check-fraction", repr(check_fraction),
        "--csv", str(csv),
    )
    cfg = ProtocolConfig(
        protocol=Protocol(protocol),
        rounds=rounds,
        channel_p=2.0 * (p / 2.0),
        seed=seed,
        check_fraction=check_fraction,
        noise=NoisePlacement(noise),
        dl04_encoding=ENCODINGS[encoding],
        attack=AttackModel(attack),
    )
    return Op("simulate", argv, (("csv", csv),), cfg)


def sweep_op(work_dir: Path, *, fine: bool, noise: str, encoding: str) -> Op:
    csv = work_dir / ("sweep-fine.csv" if fine else "sweep.csv")
    argv = ["sweep", "--protocol", "all", "--noise", noise, "--encoding", encoding]
    outputs = [("csv", csv)]
    argv += ["--csv", str(csv)]
    if fine:
        argv += ["--grid", FINE_GRID]
    else:
        svg = work_dir / "sweep.svg"
        argv += ["--svg", str(svg)]
        outputs.append(("svg", svg))
    return Op("sweep-fine" if fine else "sweep", tuple(argv), tuple(outputs))


def verify_op(inject_fault: str | None = None) -> Op:
    argv = ("verify",) if inject_fault is None else ("verify", "--inject-fault", inject_fault)
    return Op("verify", argv)


def mc_large(rng: random.Random, work_dir: Path) -> list[Op]:
    """Both protocols x both noise placements x attack off/on at p = 0.2.

    Round counts are jittered by a few thousand so that no two seeds ask for
    exactly the same array sizes.
    """
    ops = [
        simulate_op(
            work_dir,
            protocol=protocol,
            p=0.2,
            rounds=MC_LARGE_ROUNDS - rng.randrange(4096),
            seed=rng.randrange(2**32),
            noise=noise,
            attack=attack,
        )
        for protocol, noise, attack in itertools.product(("mdi-ts", "mdi-dl04"), NOISES, ATTACKS)
    ]
    rng.shuffle(ops)
    return ops


def mc_scan(rng: random.Random, work_dir: Path) -> list[Op]:
    """The CLI's simulate config space, one invocation per grid point.

    Each grid point has a fixed Monte Carlo seed and round count, and the
    workload seed only sets the order. The 5-SE gate makes over a thousand
    statistical comparisons per cycle; with fresh draws on every seed an
    honest sampler would cross 5 SE somewhere in roughly one run of a few
    hundred, so fixed draws make the gate's verdict a function of the
    program alone.
    """
    grid = itertools.product(
        ("mdi-ts", "mdi-dl04"), SCAN_PS, ENCODINGS, NOISES, ATTACKS, SCAN_CHECK_FRACTIONS
    )
    ops = [
        simulate_op(
            work_dir,
            protocol=protocol,
            p=p,
            rounds=SCAN_ROUNDS[index % len(SCAN_ROUNDS)],
            seed=1000 + index,
            noise=noise,
            attack=attack,
            encoding=encoding,
            check_fraction=check_fraction,
        )
        for index, (protocol, p, encoding, noise, attack, check_fraction) in enumerate(grid)
    ]
    rng.shuffle(ops)
    return ops


def oracle_sweep(rng: random.Random, work_dir: Path) -> list[Op]:
    """verify, default-grid sweep and fine-grid sweep, once per noise placement.

    The seed picks the single-photon encoding of the sweeps and the order.
    """
    encoding = rng.choice(sorted(ENCODINGS))
    ops = []
    for noise in NOISES:
        ops.append(verify_op())
        ops.append(sweep_op(work_dir, fine=False, noise=noise, encoding=encoding))
        ops.append(sweep_op(work_dir, fine=True, noise=noise, encoding=encoding))
    rng.shuffle(ops)
    return ops


def build(workload: str, seed: int, work_dir: Path) -> list[Op]:
    """One cycle of ``workload``'s invocations, generated from ``seed``."""
    builders = {"mc-large": mc_large, "mc-scan": mc_scan, "oracle-sweep": oracle_sweep}
    return builders[workload](random.Random(seed), work_dir)


def warm_up_argv(workload: str) -> list[str]:
    """Small call that set-up time includes after the import."""
    if workload == "oracle-sweep":
        return ["sweep", "--protocol", "all", "--x", "0.1"]
    return ["simulate", "--protocol", "mdi-ts", "--p", "0.2", "--rounds", "1000"]
