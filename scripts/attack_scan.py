#!/usr/bin/env python3
"""Scan channel parameters with and without an intercept-resend attacker
and tabulate how the checked error rates expose the attack.

The attacker measures one first-transmission photon stream in a random
Z or X basis and resends the eigenstate; even over a noiseless channel
this leaves a 25% disagreement rate in the checks.
"""

import argparse
import sys

from mdiqsdc.protocol import MAX_ROUNDS, AttackModel, Protocol, ProtocolConfig, run


def scan(rounds: int, seed: int) -> None:
    header = (
        f"{'p':>5} {'attack':>7} {'eps_z':>8} {'eps_x':>8} "
        f"{'capacity':>9} {'+-se':>8}"
    )
    print(header)
    print("-" * len(header))
    for p in (0.0, 0.05, 0.1, 0.2):
        for attack in (AttackModel.NONE, AttackModel.INTERCEPT_RESEND):
            cfg = ProtocolConfig(
                protocol=Protocol.MDI_TS,
                rounds=rounds,
                channel_p=p,
                seed=seed,
                check_fraction=0.4,
                attack=attack,
            )
            stats = run(cfg)
            row = f"{p:>5.2f} {('yes' if attack != AttackModel.NONE else 'no'):>7} "
            if stats.point is None:
                print(row + stats.unavailable_reason)
                continue
            print(
                row + f"{stats.point.eps_z:>8.4f} {stats.point.eps_x:>8.4f} "
                f"{stats.point.capacity.raw:>9.4f} {stats.se['capacity']:>8.5f}"
            )


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    if value > MAX_ROUNDS:
        raise argparse.ArgumentTypeError(f"must be at most 2**63 - 1, got {value}")
    return value


def seed_value(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"must lie in [0, 2**64), got {value}")
    return value


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=positive_int, default=200_000)
    parser.add_argument("--seed", type=seed_value, default=7)
    args = parser.parse_args()
    sys.exit(scan(args.rounds, args.seed) or 0)
