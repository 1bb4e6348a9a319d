"""The analytic twin of a Monte Carlo configuration against the per-round
outcome distributions of both backends, over the whole config space, and
one grid call of the closed forms against one float call per grid point."""

import itertools
import os
import sys

import numpy as np
import pytest

from mdiqsdc.channels import PauliDistribution, depolarizing_pauli_dist
from mdiqsdc.curves import analytic_point, analytic_point_for_config
from mdiqsdc.infotheory import (
    binary_entropy,
    eve_info_mdi_ts,
    secrecy_capacity,
    shannon_entropy,
)
from mdiqsdc.oracle import density_matrix_round_distributions
from mdiqsdc.protocol import (
    AttackModel,
    NoisePlacement,
    Protocol,
    ProtocolConfig,
    check_bases,
    pauli_frame_round_distributions,
    round_law_for_config,
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
        dl04_encoding=encoding,
    )
    for protocol, noise, attack, encoding, p in itertools.product(
        (Protocol.MDI_TS, Protocol.MDI_DL04),
        tuple(NoisePlacement),
        tuple(AttackModel),
        (PauliLabel.X, PauliLabel.Y, PauliLabel.Z),
        (0.0, 0.1, 0.3, 0.5, 0.75, 1.0),
    )
]


def _config_id(cfg):
    return (
        f"{cfg.protocol.value}-{cfg.noise.value}-{cfg.attack.value}"
        f"-{cfg.dl04_encoding.name}-p{cfg.channel_p}"
    )


def check_rates(dists, cfg):
    """Per-basis check error rates: the error cell's share of the basis's
    check rounds, averaged over the announced swap outcome."""
    cells = dists["swap_outcome"] @ dists["cells"]
    checks = cells[: 2 * len(check_bases(cfg))].reshape(-1, 2)  # per basis: no error, error
    return {
        basis: float(error / (right + error))
        for basis, (right, error) in zip(check_bases(cfg), checks)
    }


def message_entropy(dists, cfg):
    if cfg.protocol == Protocol.MDI_TS:
        return shannon_entropy(tuple(dists["symbol_error"]))
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


DEFAULT_GRID = [i * 0.005 for i in range(101)]
FINE_GRID = [i * 0.0005 for i in range(1001)]
POINT_FIELDS = (
    "x",
    "p",
    "eps_z",
    "eps_x",
    "eps_y",
    "message_entropy",
    "eve_info",
    "capacity_raw",
    "capacity_clamped",
)


def _field(point, name):
    if name == "capacity_raw":
        return point.capacity.raw
    if name == "capacity_clamped":
        return point.capacity.clamped
    return getattr(point, name)


def assert_grid_matches_points(protocol, xs, **kwargs):
    grid = analytic_point(protocol, np.array(xs), **kwargs)
    points = [analytic_point(protocol, x, **kwargs) for x in xs]
    assert grid.protocol == protocol
    for name in POINT_FIELDS:
        column = _field(grid, name)
        assert isinstance(column, np.ndarray) and column.dtype == np.float64
        values = [_field(pt, name) for pt in points]
        assert all(type(v) is float for v in values), name
        # bytes, so that signed zeros must match too
        assert column.tobytes() == np.array(values, dtype=np.float64).tobytes(), name


NUMPY_DIR = os.path.dirname(np.__file__)


def numpy_touches(call):
    """``call()`` and what it called in numpy, as ``sys.setprofile`` sees it:
    C functions and methods that numpy defines, and Python functions in
    numpy's files."""
    touched = []

    def profile(frame, event, arg):
        if event == "c_call":
            modules = (getattr(arg, "__module__", None) or "",
                       type(getattr(arg, "__self__", None)).__module__)
            if any(module.split(".")[0] == "numpy" for module in modules):
                touched.append(arg)
        elif event == "call" and frame.f_code.co_filename.startswith(NUMPY_DIR):
            touched.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        result = call()
    finally:
        sys.setprofile(None)
    return result, touched


@pytest.mark.parametrize("noise", tuple(NoisePlacement))
@pytest.mark.parametrize("protocol", tuple(Protocol))
def test_float_point_touches_no_numpy(protocol, noise):
    # the premise of the float path: a single point never meets numpy
    point, touched = numpy_touches(lambda: analytic_point(protocol, 0.1, noise=noise))
    assert touched == []
    assert all(type(_field(point, name)) is float for name in POINT_FIELDS)
    # a grid call goes through numpy, and the profile sees it
    _, touched = numpy_touches(lambda: analytic_point(protocol, np.array([0.1]), noise=noise))
    assert touched


@pytest.mark.parametrize(
    "cfg", [cfg for cfg in CONFIGS if cfg.channel_p == 0.3], ids=_config_id
)
def test_config_twin_touches_no_numpy(cfg):
    def twin():
        return round_law_for_config(cfg), analytic_point_for_config(cfg)

    ((frame, law), point), touched = numpy_touches(twin)
    assert touched == []
    assert all(type(v) is float for v in (*frame.probabilities, *law))
    assert all(type(_field(point, name)) is float for name in POINT_FIELDS)


@pytest.mark.parametrize("q, eta", [(1.0, 1.0), (0.8, 1.1)])
@pytest.mark.parametrize("encoding", [PauliLabel.X, PauliLabel.Y, PauliLabel.Z])
@pytest.mark.parametrize("noise", tuple(NoisePlacement))
@pytest.mark.parametrize("protocol", tuple(Protocol))
def test_curve_equals_points_bit_for_bit(protocol, noise, encoding, q, eta):
    assert_grid_matches_points(
        protocol, DEFAULT_GRID, noise=noise, encoding=encoding, q=q, eta=eta
    )


def test_fine_grid_curve_equals_points_bit_for_bit():
    for protocol in Protocol:
        assert_grid_matches_points(
            protocol,
            FINE_GRID,
            noise=NoisePlacement.BOTH_LEGS,
            encoding=PauliLabel.X,
            q=0.8,
            eta=1.1,
        )


def test_zero_gain_keeps_signed_zeros():
    # q = 0 turns a negative capacity into -0.0, which the clamp keeps, as max() does
    for protocol in Protocol:
        assert_grid_matches_points(protocol, [-0.0, 0.0, 0.3, 0.5], q=0.0)


def _raises(call):
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


# Each check of the shared closed-form code, as (call, good value, bad value):
# the call on an array whose first bad element is the bad value raises the
# message the call on that float raises, although a later element is bad too.
SHARED_CHECKS = {
    "probability vector": (lambda v: PauliDistribution((v, 0.5, 0.0, 0.5 - v)), 0.25, np.nan),
    "probability vector range": (lambda v: PauliDistribution((v, 1.0 - v, 0.0, 0.0)), 0.25, 1.25),
    "probability vector sum": (lambda v: PauliDistribution((0.5, 0.25, 0.25, v)), 0.0, 0.125),
    "channel parameter": (depolarizing_pauli_dist, 0.25, 1.5),
    "entropy argument": (binary_entropy, 0.25, 1.0000000000000002),
    "entropy argument nan": (binary_entropy, 0.25, np.nan),
    "leak argument": (lambda v: eve_info_mdi_ts(0.25, v), 0.25, 2.0),
    "gain q": (lambda v: secrecy_capacity(1.0, 0.5, 0.5, q=v, eta=1.0), 0.25, 1.5),
    "gain q nan": (lambda v: secrecy_capacity(1.0, 0.5, 0.5, q=v, eta=1.0), 0.25, np.nan),
    "gain eta": (lambda v: secrecy_capacity(1.0, 0.5, 0.5, q=1.0, eta=v), 0.25, np.inf),
    "gain eta negative": (lambda v: secrecy_capacity(1.0, 0.5, 0.5, q=1.0, eta=v), 0.25, -0.5),
    "sweep position": (lambda v: analytic_point(Protocol.MDI_TS, v), 0.25, 0.5000000000000001),
    "sweep position nan": (lambda v: analytic_point(Protocol.DL04, v), 0.25, np.nan),
}


@pytest.mark.parametrize("check", sorted(SHARED_CHECKS))
def test_array_raises_the_float_message_of_its_first_bad_element(check):
    call, good, bad = SHARED_CHECKS[check]
    message = _raises(lambda: call(bad))
    assert _raises(lambda: call(np.array([good, bad, good, -1.0, good]))) == message
    call(good)
    call(np.array([good, good]))


@pytest.mark.parametrize(
    "xs, kwargs",
    [
        ([0.1, 0.6], {}),
        ([-0.1, 0.2], {}),
        ([0.2, float("nan")], {}),
        ([0.1, 0.2], {"q": 1.5}),
        ([0.1, 0.2], {"q": -0.1}),
        ([0.1, 0.2], {"q": float("nan")}),
        ([0.1, 0.2], {"eta": -1.0}),
        ([0.1, 0.2], {"eta": float("inf")}),
    ],
)
@pytest.mark.parametrize("protocol", tuple(Protocol))
def test_out_of_range_input_raises_like_the_scalar_path(protocol, xs, kwargs):
    bad_x = next((x for x in xs if not 0.0 <= x <= 0.5), xs[0])
    with pytest.raises(ValueError) as scalar:
        analytic_point(protocol, bad_x, **kwargs)
    with pytest.raises(ValueError) as array:
        analytic_point(protocol, np.array(xs), **kwargs)
    assert str(array.value) == str(scalar.value)


# Equal checked error rate: each MDI curve read at the checked rate eps_z of
# its first two channel uses, against the non-MDI reconstruction at that rate.
EQUAL_RATE_XS = np.linspace(0.0, 0.5, 501)


def test_mdi_ts_equals_two_step_at_the_same_checked_rate():
    mdi = analytic_point(Protocol.MDI_TS, EQUAL_RATE_XS, noise=NoisePlacement.FIRST_LEG_ONLY)
    two_step = analytic_point(Protocol.TWO_STEP, mdi.eps_z)
    np.testing.assert_allclose(mdi.capacity.raw, two_step.capacity.raw, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("noise", list(NoisePlacement))
@pytest.mark.parametrize("encoding", [PauliLabel.X, PauliLabel.Y, PauliLabel.Z])
def test_mdi_dl04_is_not_below_dl04_at_the_same_checked_rate(noise, encoding):
    mdi = analytic_point(Protocol.MDI_DL04, EQUAL_RATE_XS, noise=noise, encoding=encoding)
    dl04 = analytic_point(Protocol.DL04, mdi.eps_z)
    gap = mdi.capacity.raw - dl04.capacity.raw
    # near x = 1/2 both capacities reach -1, where rounding leaves gaps of -2e-16
    assert gap.min() >= -1e-12
    assert gap.max() > 0.1
