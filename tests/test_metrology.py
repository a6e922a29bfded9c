"""Fisher information, Cramer-Rao bounds, regime classification and QBER."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expected
from conftest import earth_decomposition, sats_decomposition
from kerr_qlink.errors import DomainError, RegimeError
from kerr_qlink.metrology import (
    STATE_OF_THE_ART_OMEGA_RELATIVE,
    MetrologyConfig,
    bound_angular_velocity,
    bound_schwarzschild_radius,
    cramer_rao,
    fidelity_two_mode,
    orders_vs_state_of_the_art,
    qber,
    qfi,
    qfi_numeric_limit,
    regime_check,
    shift_uncertainty_floor,
)
from kerr_qlink.units import geo_radius, leo_radius

CFG = MetrologyConfig()


class TestRegime:
    def test_preset_shift_is_valid(self):
        assert regime_check(1e-10, CFG).valid

    def test_zero_shift_degenerate(self):
        status = regime_check(0.0, CFG)
        assert not status
        assert "degenerate" in status.reason

    def test_large_shift_invalid(self):
        status = regime_check(0.5, CFG)
        assert not status
        assert "not well below 1" in status.reason

    def test_tiny_shift_fails_lower_tier(self):
        # middle term ~ delta^2 overtakes |delta| only for large enough delta
        status = regime_check(1e-16, CFG)
        assert not status

    def test_margins_are_strict(self):
        # at delta = 5/K the middle term K delta^2 sits at only 5x |delta|,
        # inside the demanded factor-10 separation
        K = CFG.mean_square_peak / (8.0 * CFG.sigma ** 2)
        delta = 5.0 / K
        assert not regime_check(delta, CFG).valid


class TestFidelity:
    def test_unity_at_zero(self):
        assert fidelity_two_mode(0.0, CFG) == 1.0

    def test_default_drop(self):
        assert fidelity_two_mode(1e-12, CFG) == pytest.approx(
            expected.FIDELITY_AT_1E12, rel=1e-14)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            fidelity_two_mode(1e-3, CFG)

    @given(st.floats(min_value=1e-14, max_value=5e-12))
    @settings(max_examples=100)
    def test_monotone_decreasing_in_offset(self, d):
        assert fidelity_two_mode(2.0 * d, CFG) < fidelity_two_mode(d, CFG)


class TestQFI:
    def test_default_value(self):
        assert qfi(CFG) == pytest.approx(expected.QFI_DEFAULT, rel=1e-14)

    def test_no_squeezing_no_information(self):
        cfg = MetrologyConfig(squeezing=0.0)
        assert qfi(cfg) == 0.0
        assert cramer_rao(qfi(cfg), cfg.probes) == math.inf
        assert shift_uncertainty_floor(cfg) == math.inf

    def test_numeric_limit_matches_closed_form(self):
        assert qfi_numeric_limit(CFG) == pytest.approx(qfi(CFG), rel=1e-6)

    def test_monotonicity(self):
        assert qfi(MetrologyConfig(squeezing=2.5)) > qfi(CFG)
        assert qfi(MetrologyConfig(omega1=8e14)) > qfi(CFG)
        assert qfi(MetrologyConfig(sigma=2e6)) < qfi(CFG)

    @given(st.floats(min_value=0.1, max_value=5.0),
           st.floats(min_value=1.01, max_value=3.0))
    @settings(max_examples=100)
    def test_strict_monotonicity_everywhere(self, s, factor):
        base = MetrologyConfig(squeezing=s)
        assert qfi(MetrologyConfig(squeezing=s * factor)) > qfi(base)
        assert qfi(MetrologyConfig(squeezing=s, omega2=7e14 * factor)) > qfi(base)
        assert qfi(MetrologyConfig(squeezing=s, sigma=1e6 * factor)) < qfi(base)


class TestCramerRao:
    def test_default_floor(self):
        assert cramer_rao(qfi(CFG), CFG.probes) == pytest.approx(
            expected.DELTA_DELTA_MIN, rel=1e-14)

    def test_closed_form_agrees_with_qfi_route(self):
        # two code paths to the same bound
        a = shift_uncertainty_floor(CFG)
        b = cramer_rao(qfi(CFG), CFG.probes)
        assert a == pytest.approx(b, rel=1e-12)

    def test_probe_scaling(self):
        h = qfi(CFG)
        assert cramer_rao(h, 1e12) == pytest.approx(
            cramer_rao(h, 1e10) / 10.0, rel=1e-12)

    @given(st.floats(min_value=1e4, max_value=1e12))
    @settings(max_examples=100)
    def test_probe_scaling_everywhere(self, n):
        h = qfi(CFG)
        assert cramer_rao(h, n) == pytest.approx(
            cramer_rao(h, 1.0) / math.sqrt(n), rel=1e-12)

    def test_squeezing_decade(self):
        # adding ln(10) of squeezing divides the bound by ~10 at large s
        cfg10 = MetrologyConfig(squeezing=CFG.squeezing + math.log(10.0))
        ratio = shift_uncertainty_floor(CFG) / shift_uncertainty_floor(cfg10)
        assert ratio == pytest.approx(10.0, rel=2e-2)

    def test_vanishing_information(self):
        assert cramer_rao(0.0, 1e10) == math.inf

    def test_guards(self):
        with pytest.raises(DomainError):
            cramer_rao(-1.0, 10.0)
        with pytest.raises(DomainError):
            cramer_rao(1.0, 0.5)


class TestBounds:
    def test_schwarzschild_radius_presets(self):
        leo = bound_schwarzschild_radius(CFG, earth_decomposition(leo_radius()))
        geo = bound_schwarzschild_radius(CFG, earth_decomposition(geo_radius()))
        sats = bound_schwarzschild_radius(
            CFG, sats_decomposition(leo_radius(), geo_radius()))
        assert leo.relative_bound == pytest.approx(expected.BOUND_RS_LEO, rel=1e-12)
        assert geo.relative_bound == pytest.approx(expected.BOUND_RS_GEO, rel=1e-12)
        assert sats.relative_bound == pytest.approx(expected.BOUND_RS_SATS, rel=1e-12)

    def test_angular_velocity_ground(self):
        dec = earth_decomposition(leo_radius())
        bound = bound_angular_velocity(CFG, dec)
        assert bound.relative_bound == pytest.approx(
            expected.BOUND_OMEGA_GROUND, rel=1e-12)

    def test_angular_velocity_sats_beyond_unity(self):
        dec = sats_decomposition(leo_radius(), geo_radius())
        bound = bound_angular_velocity(CFG, dec)
        assert bound.relative_bound == pytest.approx(
            expected.BOUND_OMEGA_SATS, rel=1e-12)
        assert bound.relative_bound > 1.0

    def test_state_of_the_art_gap(self):
        assert STATE_OF_THE_ART_OMEGA_RELATIVE == 1e-8
        assert orders_vs_state_of_the_art(expected.BOUND_OMEGA_GROUND) == 5
        with pytest.raises(DomainError):
            orders_vs_state_of_the_art(math.inf)

    def test_consistency_with_error_relation(self):
        # bound = cramer_rao(qfi)/|delta_S| through an independent route
        dec = earth_decomposition(leo_radius())
        direct = bound_schwarzschild_radius(CFG, dec).relative_bound
        routed = cramer_rao(qfi(CFG), CFG.probes) / abs(dec.delta_S.to_float())
        assert direct == pytest.approx(routed, rel=1e-12)


class TestQBER:
    def test_leo_with_mass_term_shift(self):
        assert qber(expected.DELTA_S_LEO, CFG) == pytest.approx(
            expected.QBER_LEO, rel=1e-12)

    def test_geo_with_mass_term_shift(self):
        assert qber(expected.DELTA_S_GEO, CFG) == pytest.approx(
            expected.QBER_GEO, rel=1e-12)

    def test_zero_shift_orbit_rotation_dominated(self):
        assert qber(expected.DELTA_ROT, CFG) == pytest.approx(
            expected.QBER_ZERO_ORBIT, rel=1e-12)

    def test_refuses_outside_regime(self):
        with pytest.raises(RegimeError):
            qber(0.0, CFG)
        with pytest.raises(RegimeError):
            qber(0.5, CFG)

    def test_sign_independent(self):
        assert qber(1e-10, CFG) == qber(-1e-10, CFG)


def test_config_validation():
    with pytest.raises(DomainError):
        MetrologyConfig(probes=0.0)
    with pytest.raises(DomainError):
        MetrologyConfig(sigma=-1e6)
    with pytest.raises(DomainError):
        MetrologyConfig(squeezing=-0.1)


def test_config_refuses_fewer_than_one_probe():
    # cramer_rao refuses N < 1, so the config that feeds it does too
    with pytest.raises(DomainError):
        MetrologyConfig(probes=0.5)
    assert MetrologyConfig(probes=1.0).probes == 1.0


@pytest.mark.parametrize("field", ["probes", "squeezing", "sigma", "omega1",
                                   "omega2"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_config_refuses_non_finite_fields(field, value):
    with pytest.raises(DomainError):
        MetrologyConfig(**{field: value})


@pytest.mark.parametrize("fields", [
    {"omega1": 1e200},  # the squared frequency overflows
    {"squeezing": 800.0},  # sinh(s) overflows
    {"squeezing": 334.0},  # N H overflows, so 1/sqrt(N H) reads 0
    {"sigma": 1e-300},  # the squared bandwidth underflows to zero
    {"probes": 1e300},  # the floor's N (omega1^2 + omega2^2) overflows
    {"squeezing": 1e-300},  # sinh^2(s) underflows: no information left
])
def test_config_refuses_information_outside_the_double_range(fields):
    with pytest.raises(DomainError, match="overflows or underflows"):
        MetrologyConfig(**fields)


def test_mean_square_peak_mixes_modes():
    cfg = MetrologyConfig(omega1=1e14, omega2=2e14)
    assert cfg.mean_square_peak == pytest.approx(2.5e28, rel=1e-15)
