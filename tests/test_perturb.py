"""Shift decomposition and error propagation."""

import pytest

import expected
from conftest import earth_decomposition, earth_link, sat_link, sats_decomposition
from kerr_qlink.ddouble import DD
from kerr_qlink.errors import DomainError, HigherOrderRegimeError
from kerr_qlink.perturb import (
    decompose_ground,
    decompose_sats,
    delta_mass_term_ground,
    delta_rotation_term_ground,
    error_angular_velocity,
    error_schwarzschild_radius,
)
from kerr_qlink.shift import shift_ground_to_sat, shift_sat_to_sat
from kerr_qlink.units import EARTH, geo_radius, leo_radius

P = EARTH.spacetime()


class TestGroundDecomposition:
    def test_leo_terms(self):
        dec = earth_decomposition(leo_radius())
        assert dec.delta_S.to_float() == pytest.approx(expected.DELTA_S_LEO, rel=1e-12)
        assert dec.delta_rot.to_float() == pytest.approx(expected.DELTA_ROT, rel=1e-12)
        assert dec.delta_c.to_float() == pytest.approx(expected.DELTA_C_LEO, rel=1e-6)
        assert dec.delta_S.to_float() > 0.0

    def test_geo_terms(self):
        dec = earth_decomposition(geo_radius())
        assert dec.delta_S.to_float() == pytest.approx(expected.DELTA_S_GEO, rel=1e-12)
        assert dec.delta_c.to_float() == pytest.approx(expected.DELTA_C_GEO, rel=1e-6)

    def test_rotation_term_is_radius_independent(self):
        leo = earth_decomposition(leo_radius())
        geo = earth_decomposition(geo_radius())
        assert leo.delta_rot.to_float() == geo.delta_rot.to_float()

    def test_sum_identity(self):
        for r_b in (leo_radius(), geo_radius(), 1.27 * geo_radius()):
            dec = earth_decomposition(r_b)
            exact = shift_ground_to_sat(earth_link(r_b)).delta
            assert abs((dec.delta_total - exact).to_float()) < 1e-28

    def test_mass_term_vanishes_at_half_radius_altitude(self):
        r_b = EARTH.r_A + EARTH.r_A / 2.0
        term = delta_mass_term_ground(DD, P, EARTH.r_A, r_b)
        assert term.to_float() == 0.0

    def test_rotation_term_value(self):
        term = delta_rotation_term_ground(DD, EARTH.r_A, EARTH.omega_A)
        assert term.to_float() == pytest.approx(-1.20e-12, rel=2e-2)

    def test_rejects_radius_below_surface(self):
        with pytest.raises(DomainError):
            link = earth_link(EARTH.r_A)
            decompose_ground(link, shift_ground_to_sat(link).delta)


class TestSatDecomposition:
    def test_leo_geo_terms(self):
        dec = sats_decomposition(leo_radius(), geo_radius())
        assert dec.delta_S.to_float() == pytest.approx(expected.DELTA_S_SATS, rel=1e-12)
        assert dec.delta_rot.to_float() == pytest.approx(expected.DELTA_ROT_SATS, rel=1e-12)
        assert dec.delta_c.to_float() == pytest.approx(expected.DELTA_C_SATS, rel=1e-6)

    def test_terms_shrink_with_separation(self):
        near = sats_decomposition(leo_radius(), leo_radius() * 1.0001)
        far = sats_decomposition(leo_radius(), geo_radius())
        assert abs(near.delta_S.to_float()) < abs(far.delta_S.to_float())
        assert abs(near.delta_rot.to_float()) < abs(far.delta_rot.to_float())

    def test_mass_term_never_vanishes(self):
        # both observers geodesic: the mass term is strictly negative
        for r_b in (1.0001, 1.5, 3.0, 5.0):
            dec = sats_decomposition(leo_radius(), leo_radius() * r_b)
            assert dec.delta_S.to_float() < 0.0

    def test_terms_vanish_at_zero_separation(self):
        from kerr_qlink.perturb import delta_mass_term_sats, delta_rotation_term_sats
        r = leo_radius()
        assert delta_mass_term_sats(DD, P, r, r).to_float() == 0.0
        assert delta_rotation_term_sats(DD, P, r, r).to_float() == 0.0

    def test_sum_identity(self):
        dec = sats_decomposition(leo_radius(), geo_radius())
        exact = shift_sat_to_sat(sat_link(leo_radius(), geo_radius())).delta
        assert abs((dec.delta_total - exact).to_float()) < 1e-28

    def test_rejects_bad_ordering(self):
        with pytest.raises(DomainError, match="need receiver radius at or above emitter"):
            decompose_sats(sat_link(geo_radius(), leo_radius()), DD(0.0))

    def test_identical_orbits_decompose_into_zeros(self):
        # LinkScenario accepts identical orbits (a unit shift); so does the
        # decomposition, which splits their zero delta exactly
        r = leo_radius()
        link = sat_link(r, r)
        dec = decompose_sats(link, shift_sat_to_sat(link).delta)
        for term in dec:
            assert (term.hi, term.lo) == (0.0, 0.0)


class TestResidualScale:
    def test_ground_residual_dominated_by_second_order_mass_terms(self):
        # The residual is the exact delta minus the two modelled terms.  Its
        # size is set by the quadratic terms of the square-root expansion,
        #   y (y - x)/2 - (y - x)^2/8  with x = 2M/r_A, y = 3M/r_B,
        # a few 1e-19 for the preset orbits.
        for r_b, want in ((leo_radius(), expected.DELTA_C_LEO),
                          (geo_radius(), expected.DELTA_C_GEO)):
            dec = earth_decomposition(r_b)
            x = 2.0 * P.M_geom / EARTH.r_A
            y = 3.0 * P.M_geom / r_b
            second_order = 0.5 * y * (y - x) - (y - x) ** 2 / 8.0
            assert dec.delta_c.to_float() == pytest.approx(want, rel=1e-6)
            assert dec.delta_c.to_float() == pytest.approx(second_order, rel=0.05)

    def test_sat_residual_scale(self):
        dec = sats_decomposition(leo_radius(), geo_radius())
        assert abs(dec.delta_c.to_float()) == pytest.approx(
            abs(expected.DELTA_C_SATS), rel=1e-6)


class TestErrorPropagation:
    def test_schwarzschild_radius_leo(self):
        dec = earth_decomposition(leo_radius())
        err = error_schwarzschild_radius(dec.delta_S.to_float(),
                                         dec.delta_c.to_float(),
                                         expected.DELTA_DELTA_MIN)
        assert err == pytest.approx(expected.BOUND_RS_LEO, rel=1e-12)

    def test_zero_uncertainty_gives_zero_error(self):
        dec = earth_decomposition(leo_radius())
        assert error_schwarzschild_radius(dec.delta_S.to_float(),
                                          dec.delta_c.to_float(), 0.0) == 0.0
        assert error_angular_velocity(dec.delta_rot.to_float(), 0.0) == 0.0

    def test_higher_order_regime_refusal(self):
        r_b = EARTH.r_A + EARTH.r_A / 2.0  # mass term vanishes here
        dec = earth_decomposition(r_b)
        with pytest.raises(HigherOrderRegimeError):
            error_schwarzschild_radius(dec.delta_S.to_float(),
                                       dec.delta_c.to_float(), 1e-15)

    def test_angular_velocity_ground(self):
        dec = earth_decomposition(leo_radius())
        err = error_angular_velocity(dec.delta_rot.to_float(), 2.79e-15)
        assert err == pytest.approx(
            2.79e-15 / (2.0 * abs(expected.DELTA_ROT)), rel=1e-12)
        # two-significant-figure scale of the published estimate
        assert err == pytest.approx(1.2e-3, rel=0.05)

    def test_angular_velocity_sats_loses_precision(self):
        dec = sats_decomposition(leo_radius(), geo_radius())
        err = error_angular_velocity(dec.delta_rot.to_float(), 2.79e-15)
        assert err > 1e6  # far beyond unity

    def test_spin_target_alias(self):
        # the spin parameter reads the same relation as the angular velocity
        dec = sats_decomposition(leo_radius(), geo_radius())
        err = error_angular_velocity(dec.delta_rot.to_float(), 1e-15)
        assert err == 1e-15 / (2.0 * abs(dec.delta_rot.to_float()))

    def test_zero_rotation_term_rejected(self):
        still = EarthModel_still()
        link = earth_link(leo_radius(), omega=still.omega_A, a=still.a_m)
        dec = decompose_ground(link, shift_ground_to_sat(link).delta)
        with pytest.raises(DomainError):
            error_angular_velocity(dec.delta_rot.to_float(), 1e-15)

    def test_bound_past_the_double_range_rejected(self):
        # a subnormal rotation term: the floor over 2 |delta_rot| overflows
        with pytest.raises(DomainError, match="finite"):
            error_angular_velocity(-2.26e-320, 2.79e-9)


def EarthModel_still():
    """Earth with spin so small the rotation term underflows to zero."""
    from kerr_qlink.units import EarthModel, kerr_parameter_from_inertia
    omega = 1e-300
    a = kerr_parameter_from_inertia(EARTH.inertia, omega, EARTH.mass_kg)
    return EarthModel(omega_A=omega, a_m=a, inertia=EARTH.inertia)
