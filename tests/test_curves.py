"""The analytic twin of a Monte Carlo configuration against the per-round
outcome distributions of both backends, over the whole config space."""

import itertools

import pytest

from mdiqsdc.curves import analytic_point, analytic_point_for_config
from mdiqsdc.infotheory import ErrorVector, binary_entropy, shannon_entropy
from mdiqsdc.protocol import (
    AttackModel,
    NoisePlacement,
    Protocol,
    ProtocolConfig,
    check_bases,
    density_matrix_round_distributions,
    pauli_frame_round_distributions,
)
from mdiqsdc.quantum import PauliLabel

ATOL = 1e-12

CONFIGS = [
    ProtocolConfig(
        protocol=protocol,
        rounds=1,
        channel_p=p,
        seed=0,
        noise=noise,
        attack=attack,
        attack_leg=leg,
        dl04_encoding=encoding,
    )
    for protocol, noise, attack, leg, encoding, p in itertools.product(
        (Protocol.MDI_TS, Protocol.MDI_DL04),
        tuple(NoisePlacement),
        tuple(AttackModel),
        ("alice", "bob"),
        (PauliLabel.X, PauliLabel.Y, PauliLabel.Z),
        (0.0, 0.1, 0.3),
    )
]


def _config_id(cfg):
    return (
        f"{cfg.protocol.value}-{cfg.noise.value}-{cfg.attack.value}-{cfg.attack_leg}"
        f"-{cfg.dl04_encoding.name}-p{cfg.channel_p}"
    )


def check_rates(dists, cfg):
    """Per-basis check error rates: probability that both outcomes agree,
    averaged over the announced swap outcome."""
    joint = dists["check_joint"]
    agree = joint[:, :, 0, 0] + joint[:, :, 1, 1]
    return {
        basis: float(dists["swap_outcome"] @ agree[bi])
        for bi, basis in enumerate(check_bases(cfg))
    }


def message_entropy(dists, cfg):
    if cfg.protocol == Protocol.MDI_TS:
        return shannon_entropy(ErrorVector(tuple(dists["symbol_error"])))
    return binary_entropy(float(dists["bit_error"][0]))


@pytest.mark.parametrize("cfg", CONFIGS, ids=_config_id)
@pytest.mark.parametrize(
    "backend", [pauli_frame_round_distributions, density_matrix_round_distributions]
)
def test_twin_matches_backend(cfg, backend):
    twin = analytic_point_for_config(cfg)
    eps = {PauliLabel.Z: twin.eps_z, PauliLabel.X: twin.eps_x, PauliLabel.Y: twin.eps_y}
    dists = backend(cfg)
    for basis, rate in check_rates(dists, cfg).items():
        assert abs(eps[basis] - rate) < ATOL, basis.name
    assert abs(twin.message_entropy - message_entropy(dists, cfg)) < ATOL


@pytest.mark.parametrize(
    "cfg", [c for c in CONFIGS if c.attack == AttackModel.NONE], ids=_config_id
)
def test_twin_without_attack_is_the_curve_point(cfg):
    assert analytic_point_for_config(cfg) == analytic_point(
        cfg.protocol, cfg.channel_p / 2.0, noise=cfg.noise, encoding=cfg.dl04_encoding
    )
