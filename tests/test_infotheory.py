"""Entropy and capacity-formula tests, with series and root-finding oracles:
the entropies, the leak and the bound ``closed_form`` with its range checks
on q and eta, all of ``mdiqsdc.protocol``, and the curves and zero crossings
of ``mdiqsdc.curves``."""

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from mdiqsdc.curves import analytic_point, zero_crossing
from mdiqsdc.protocol import (
    ETA_MAX,
    CapacityResult,
    NoisePlacement,
    Protocol,
    binary_entropy,
    closed_form,
    eve_info_mdi_ts,
    shannon_entropy,
)
from mdiqsdc.quantum import PauliLabel


def binary_entropy_series_oracle(x, terms=50):
    """h(x) from 50-term artanh log series: ln y = 2 sum z^(2k+1)/(2k+1),
    z = (y-1)/(y+1). Independent of math.log except for nothing at all."""

    def ln_series(y):
        z = (y - 1.0) / (y + 1.0)
        return 2.0 * sum(z ** (2 * k + 1) / (2 * k + 1) for k in range(terms))

    if x in (0.0, 1.0):
        return 0.0
    ln2 = ln_series(2.0)
    return -(x * ln_series(x) + (1.0 - x) * ln_series(1.0 - x)) / ln2


unit_floats = st.floats(min_value=0.0, max_value=1.0)


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_half(self):
        assert abs(binary_entropy(0.5) - 1.0) < 1e-15

    def test_quarter_against_series_oracle(self):
        want = binary_entropy_series_oracle(0.25)
        assert abs(binary_entropy(0.25) - want) < 1e-12
        assert abs(binary_entropy(0.25) - 0.8112781244591328) < 1e-12

    @given(x=unit_floats)
    @settings(max_examples=200, deadline=None)
    def test_symmetric(self, x):
        assert abs(binary_entropy(x) - binary_entropy(1.0 - x)) < 1e-12

    def test_dense_grid_symmetry(self):
        for k in range(1001):
            x = k / 1000
            assert abs(binary_entropy(x) - binary_entropy(1 - x)) < 1e-12

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.1)
        with pytest.raises(ValueError):
            binary_entropy(1.1)


class TestShannonEntropy:
    def test_deterministic(self):
        assert shannon_entropy((1.0, 0.0, 0.0, 0.0)) == 0.0

    def test_uniform(self):
        assert abs(shannon_entropy((0.25,) * 4) - 2.0) < 1e-15

    def test_two_equiprobable(self):
        assert abs(shannon_entropy((0.5, 0.5, 0.0, 0.0)) - 1.0) < 1e-15

    def test_range(self):
        assert 0.0 <= shannon_entropy((0.7, 0.1, 0.1, 0.1)) <= 2.0

    @settings(max_examples=300)
    @given(x=unit_floats)
    def test_a_two_entry_law_gives_the_binary_entropy_bit_for_bit(self, x):
        got, want = shannon_entropy((1.0 - x, x)), binary_entropy(x)
        assert math.copysign(1.0, got) == math.copysign(1.0, want) and got == want

    def test_any_number_of_entries(self):
        assert shannon_entropy((1.0,)) == 0.0
        assert abs(shannon_entropy((0.125,) * 8) - 3.0) < 1e-15


class TestEveInfo:
    def test_noiseless(self):
        assert eve_info_mdi_ts(0.0, 0.0) == 0.0

    def test_maximal(self):
        assert abs(eve_info_mdi_ts(0.5, 0.5) - 2.0) < 1e-15

    def test_depolarizing_point(self):
        assert abs(eve_info_mdi_ts(0.1, 0.1) - 2 * binary_entropy(0.1)) < 1e-15

    def test_range_check(self):
        with pytest.raises(ValueError):
            eve_info_mdi_ts(1.5, 0.0)


def mdi_ts_raw(errors, eps_z, eps_x, q=1.0, eta=1.0):
    """Q {2 - H(E) - eta [h(eps_z) + h(eps_x)]}"""
    leak = binary_entropy(eps_z) + binary_entropy(eps_x)
    return q * (2.0 - shannon_entropy(errors) - eta * leak)


def mdi_dl04_raw(bit_error, eps_u, q=1.0, eta=1.0):
    """Q [1 - h(e) - eta h(eps_u)]"""
    return q * (1.0 - binary_entropy(bit_error) - eta * binary_entropy(eps_u))


def noiseless_raw(protocol, q=1.0, eta=1.0):
    """The raw :func:`closed_form` bound of an MDI protocol with no error:
    message entropy and leak 0, so Q times its bits."""
    rates = dict.fromkeys((PauliLabel.Z, PauliLabel.X, PauliLabel.Y), 0.0)
    law = (1.0, 0.0, 0.0, 0.0) if protocol == Protocol.MDI_TS else (1.0, 0.0)
    point = closed_form(protocol, 0.0, rates, law, encoding=PauliLabel.Y, q=q, eta=eta)
    return point.capacity.raw


class TestCapacityFormulas:
    def test_mdi_ts_noiseless_endpoint(self):
        result = analytic_point(Protocol.MDI_TS, 0.0).capacity
        assert result.raw == 2.0 and result.clamped == 2.0
        assert mdi_ts_raw((1.0, 0.0, 0.0, 0.0), 0.0, 0.0) == 2.0

    def test_mdi_ts_fully_randomized(self):
        result = CapacityResult(mdi_ts_raw((0.25,) * 4, 0.5, 0.5))
        assert abs(result.raw + 2.0) < 1e-12
        assert result.clamped == 0.0

    def test_mdi_ts_scales_exactly_with_q(self):
        for q in (0.1, 0.5, 0.9):
            result = analytic_point(Protocol.MDI_TS, 0.0, q=q).capacity
            assert abs(result.raw - 2.0 * q) < 1e-15

    def test_mdi_dl04_endpoints(self):
        assert analytic_point(Protocol.MDI_DL04, 0.0).capacity.raw == 1.0
        assert mdi_dl04_raw(0.0, 0.0) == 1.0
        assert mdi_dl04_raw(0.5, 0.3) <= -binary_entropy(0.3) + 1e-12

    def test_dl04_leakage_cap(self):
        # single-use rates eps_x = eps_z = x, so the leak argument 2x is capped at 1/2
        point = analytic_point(Protocol.DL04, 0.4)
        assert point.eps_x + point.eps_z > 0.5
        assert point.eve_info == 1.0
        assert abs(point.capacity.raw - (1 - binary_entropy(0.4) - 1.0)) < 1e-12

    def test_dl04_noiseless(self):
        assert analytic_point(Protocol.DL04, 0.0).capacity.raw == 1.0

    def test_two_step_noiseless(self):
        assert analytic_point(Protocol.TWO_STEP, 0.0).capacity.raw == 2.0

    def test_two_step_fully_depolarized_clamps(self):
        result = analytic_point(Protocol.TWO_STEP, 0.5).capacity
        assert abs(result.raw + 2.0) < 1e-12
        assert result.clamped == 0.0

    @given(
        q=st.floats(min_value=0.0, max_value=1.0),
        eta=st.floats(min_value=0.0, max_value=3.0),
        e=st.floats(min_value=0.0, max_value=0.5),
    )
    @settings(max_examples=100, deadline=None)
    def test_linear_in_q_affine_in_eta(self, q, eta, e):
        base = mdi_dl04_raw(e, e, q=1.0, eta=0.0)
        slope = mdi_dl04_raw(e, e, q=1.0, eta=1.0) - base
        combined = mdi_dl04_raw(e, e, q=q, eta=eta)
        assert abs(combined - q * (base + eta * slope)) < 1e-10

    def test_monotone_nonincreasing_in_each_error(self):
        grid = [k * 1e-3 for k in range(501)]
        previous = math.inf
        for e in grid:
            raw = mdi_dl04_raw(e, 0.1)
            assert raw <= previous + 1e-12
            previous = raw
        previous = math.inf
        for eps in grid:
            raw = mdi_ts_raw((1.0, 0.0, 0.0, 0.0), eps, 0.1)
            assert raw <= previous + 1e-12
            previous = raw

    def test_range_violations_raise(self):
        with pytest.raises(ValueError):
            mdi_dl04_raw(1.5, 0.0)
        with pytest.raises(ValueError, match="gain q="):
            noiseless_raw(Protocol.MDI_TS, q=1.5, eta=1.0)
        with pytest.raises(ValueError, match="gain gap eta="):
            noiseless_raw(Protocol.MDI_TS, q=1.0, eta=-0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_gains_raise(self, bad):
        with pytest.raises(ValueError, match="gain gap eta="):
            noiseless_raw(Protocol.MDI_TS, q=1.0, eta=bad)
        with pytest.raises(ValueError, match="gain q="):
            noiseless_raw(Protocol.MDI_DL04, q=bad, eta=1.0)


class TestGainChecksAreInclusive:
    """``closed_form`` accepts q in [0, 1] and eta in [0, ETA_MAX], both ends
    included, and rejects the next float beyond either end."""

    @pytest.mark.parametrize("q", [0.0, 1.0])
    def test_q_at_either_end_is_accepted(self, q):
        assert noiseless_raw(Protocol.MDI_TS, q=q) == 2.0 * q

    @pytest.mark.parametrize("q", [math.nextafter(0.0, -1.0), math.nextafter(1.0, 2.0)])
    def test_q_just_beyond_either_end_raises(self, q):
        with pytest.raises(ValueError, match=re.escape(f"gain q={q!r} outside [0, 1]")):
            noiseless_raw(Protocol.MDI_TS, q=q)

    @pytest.mark.parametrize("eta", [0.0, ETA_MAX])
    def test_eta_at_either_end_is_accepted(self, eta):
        assert noiseless_raw(Protocol.MDI_TS, eta=eta) == 2.0

    @pytest.mark.parametrize("eta", [math.nextafter(0.0, -1.0), math.nextafter(ETA_MAX, math.inf)])
    def test_eta_just_beyond_either_end_raises(self, eta):
        message = f"gain gap eta={eta!r} outside [0, {ETA_MAX:g}]"
        with pytest.raises(ValueError, match=re.escape(message)):
            noiseless_raw(Protocol.MDI_TS, eta=eta)


class TestCapacityResult:
    @given(raw=st.floats(min_value=-5, max_value=5))
    @settings(max_examples=50, deadline=None)
    def test_clamped_invariant(self, raw):
        r = CapacityResult(raw)
        assert r.clamped == max(raw, 0.0)


class TestZeroCrossings:
    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_bisection_matches_brentq_oracle(self, protocol):
        crossing = zero_crossing(protocol)
        assert crossing is not None

        def raw(x):
            return analytic_point(protocol, x).capacity.raw

        want = brentq(raw, 1e-9, 0.5, xtol=1e-12)
        assert abs(crossing - want) <= 1e-6

    def test_stable_across_reruns(self):
        for protocol in Protocol:
            assert zero_crossing(protocol) == zero_crossing(protocol)

    def test_degenerate_flat_curve_pins_the_boundary(self):
        assert zero_crossing(Protocol.MDI_TS, q=0.0) == 0.0

    def test_bisect_zero_without_sign_change(self):
        from mdiqsdc.curves import bisect_zero

        assert bisect_zero(lambda x: 1.0, 0.0, 0.5) is None
        assert bisect_zero(lambda x: -1.0, 0.0, 0.5) is None


class TestCurveRelations:
    GRID = [k * 0.005 for k in range(101)]

    def test_mdi_curves_below_non_mdi_baselines(self):
        for x in self.GRID:
            ts = analytic_point(Protocol.MDI_TS, x).capacity.raw
            two_step = analytic_point(Protocol.TWO_STEP, x).capacity.raw
            assert ts <= two_step + 1e-12
            dl_mdi = analytic_point(Protocol.MDI_DL04, x).capacity.raw
            dl = analytic_point(Protocol.DL04, x).capacity.raw
            assert dl_mdi <= dl + 1e-12

    def test_curves_monotone_nonincreasing(self):
        for protocol in Protocol:
            previous = math.inf
            for x in self.GRID:
                raw = analytic_point(protocol, x).capacity.raw
                assert raw <= previous + 1e-12
                previous = raw

    def test_both_legs_noise_lowers_mdi_capacity(self):
        for x in (0.02, 0.05, 0.1):
            first = analytic_point(Protocol.MDI_TS, x).capacity.raw
            both = analytic_point(
                Protocol.MDI_TS, x, noise=NoisePlacement.BOTH_LEGS
            ).capacity.raw
            assert both < first
