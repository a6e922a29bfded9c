"""Metric components, four-velocities, the radial photon and contractions."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expected
from kerr_qlink.ddouble import DD, ONE
from kerr_qlink.errors import DomainError
from kerr_qlink.crosscheck import (
    FourVector,
    contract,
    ground_station_normalization,
    ground_station_velocity,
    metric_at,
    orbit_normalization,
    orbit_velocity,
    photon_tangent,
)
from kerr_qlink.geometry import Worldline, WorldlineKind
from kerr_qlink.units import EARTH, SpacetimeParams, geo_radius, leo_radius

P = EARTH.spacetime()
P_NOSPIN = SpacetimeParams(P.M_geom, 0.0)

radii = st.floats(min_value=EARTH.r_A, max_value=10.0 * geo_radius())


class TestMetric:
    def test_schwarzschild_limit(self):
        g = metric_at(P_NOSPIN, EARTH.r_A)
        assert g.g_tphi.to_float() == 0.0
        rr = DD.product(EARTH.r_A, EARTH.r_A)
        assert (g.g_phiphi - rr).to_float() == 0.0

    def test_flat_limit(self):
        tiny = SpacetimeParams(1e-300, 0.0)
        g = metric_at(tiny, 1.0)
        assert g.g_tt.to_float() == pytest.approx(-1.0, abs=1e-250)
        assert g.g_rr.to_float() == pytest.approx(1.0, abs=1e-250)
        assert g.g_phiphi.to_float() == pytest.approx(1.0, rel=1e-250)

    def test_surface_deviation_matches_table(self):
        # g_tt = -(1 - 2M/r_A); the deviation is twice the tabulated M/r_A
        g = metric_at(P, EARTH.r_A)
        assert g.dev_tt.to_float() == pytest.approx(2.0 * 6.95e-10, rel=5e-3)

    def test_rejects_radius_inside_mass_scale(self):
        with pytest.raises(DomainError):
            metric_at(P, 2.0 * P.M_geom)

    @given(radii)
    @settings(max_examples=50)
    def test_grr_is_inverse_delta(self, r):
        g = metric_at(P, r)
        assert abs((g.g_rr * g.Delta - ONE).to_float()) < 1e-30


class TestWorldline:
    def test_ground_station_converts_omega_once(self):
        w = Worldline.ground_station(EARTH.r_A, EARTH.omega_A)
        assert w.omega_geom.to_float() == pytest.approx(
            EARTH.omega_A / 2.99792458e8, rel=1e-15)

    def test_orbit_never_stores_omega(self):
        with pytest.raises(DomainError, match="must not store an angular velocity"):
            Worldline(WorldlineKind.CIRCULAR_ORBIT, leo_radius(), 1e-12, +1)

    def test_direction_validated(self):
        with pytest.raises(DomainError):
            Worldline.circular_orbit(leo_radius(), 2)

    @pytest.mark.parametrize("bad", [True, False, 1.0, -1.0])
    def test_direction_must_be_an_int(self, bad):
        # equal by value to +-1 (or 0), but not an int sign
        with pytest.raises(DomainError, match="Worldline.direction"):
            Worldline.circular_orbit(leo_radius(), bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_radius_refused(self, bad):
        with pytest.raises(DomainError, match="Worldline.r must be finite"):
            Worldline.circular_orbit(bad)
        with pytest.raises(DomainError, match="Worldline.r must be finite"):
            Worldline.ground_station(bad, EARTH.omega_A)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_spin_rate_refused(self, bad):
        with pytest.raises(DomainError, match="Worldline.omega_si must be a finite float"):
            Worldline.ground_station(EARTH.r_A, bad)

    @pytest.mark.parametrize("bad", [DD(7.29e-5), True, "7.29e-5"])
    def test_spin_rate_must_be_a_number(self, bad):
        with pytest.raises(DomainError, match="Worldline.omega_si must be a finite float"):
            Worldline.ground_station(EARTH.r_A, bad)

    def test_orbit_omega_recomputed(self):
        w = orbit_normalization(P, Worldline.circular_orbit(geo_radius()))[2]
        # geostationary: the SI value lands on the planet's spin rate
        assert w.to_float() * 2.99792458e8 == pytest.approx(7.291e-5, rel=1e-3)


class TestVelocities:
    def test_static_flat_observer(self):
        tiny = SpacetimeParams(1e-300, 0.0)
        u = ground_station_velocity(tiny, Worldline.ground_station(EARTH.r_A, 0.0))
        assert u.t_comp.to_float() == pytest.approx(1.0, abs=1e-200)
        assert u.phi_comp.to_float() == 0.0

    def test_flat_limit_orbit_is_static(self):
        # vanishing mass forces the orbit frequency to zero with it
        tiny = SpacetimeParams(1e-300, 0.0)
        u = orbit_velocity(tiny, Worldline.circular_orbit(leo_radius(), +1))
        assert u.t_comp.to_float() == pytest.approx(1.0, abs=1e-150)
        assert abs(u.phi_comp.to_float()) < 1e-150

    def test_gamma_ground_deviation(self):
        gamma, _ = ground_station_normalization(
            P, Worldline.ground_station(EARTH.r_A, EARTH.omega_A))
        dev = (gamma - ONE).to_float()
        # dominated by (2M/r_A + (r_A omega/c)^2) / 2
        assert dev == pytest.approx(expected.GAMMA_A_MINUS_1, rel=1e-10)
        rough = 0.5 * (2.0 * P.M_geom / EARTH.r_A
                       + (EARTH.r_A * EARTH.omega_A / 2.99792458e8) ** 2)
        assert dev == pytest.approx(rough, rel=1e-2)

    def test_ground_norm_is_minus_one(self):
        g = metric_at(P, EARTH.r_A)
        u = ground_station_velocity(P, Worldline.ground_station(EARTH.r_A, EARTH.omega_A))
        assert abs((contract(g, u, u) + ONE).to_float()) < 1e-28

    @given(radii, st.sampled_from([+1, -1]))
    @settings(max_examples=60)
    def test_orbit_norm_is_minus_one(self, r, eps):
        g = metric_at(P, r)
        u = orbit_velocity(P, Worldline.circular_orbit(r, eps))
        assert abs((contract(g, u, u) + ONE).to_float()) < 1e-28

    def test_orbit_direction_split_is_tiny(self):
        gp, _, _ = orbit_normalization(P, Worldline.circular_orbit(geo_radius(), +1))
        gm, _, _ = orbit_normalization(P, Worldline.circular_orbit(geo_radius(), -1))
        split = (gp - gm).to_float()
        assert split == pytest.approx(expected.GAMMA_B_DIRECTION_SPLIT_GEO, rel=1e-10)

    def test_superluminal_station_rejected(self):
        fast = Worldline.ground_station(EARTH.r_A, 60.0)  # v > c at the equator
        with pytest.raises(DomainError):
            ground_station_velocity(P, fast)

    def test_kind_mismatch_rejected(self):
        orbit = Worldline.circular_orbit(leo_radius())
        with pytest.raises(DomainError):
            ground_station_velocity(P, orbit)
        station = Worldline.ground_station(EARTH.r_A, EARTH.omega_A)
        with pytest.raises(DomainError):
            orbit_velocity(P, station)


class TestPhoton:
    def test_schwarzschild_photon(self):
        k, state = photon_tangent(P_NOSPIN, leo_radius(), 1.0)
        assert state.kappa.to_float() == 1.0
        assert state.L_gamma_at_r.to_float() == 0.0
        assert k.r_comp.to_float() == 1.0

    def test_energy_rescaling(self):
        k1, _ = photon_tangent(P, leo_radius(), 1.0)
        k2, _ = photon_tangent(P, leo_radius(), 2.0)
        assert k2.t_comp.to_float() == pytest.approx(2.0 * k1.t_comp.to_float(), rel=1e-30)
        assert k2.r_comp.to_float() == pytest.approx(2.0 * k1.r_comp.to_float(), rel=1e-15)

    def test_rejects_nonpositive_energy(self):
        with pytest.raises(DomainError):
            photon_tangent(P, leo_radius(), 0.0)

    @given(radii)
    @settings(max_examples=200)
    def test_null_identity(self, r):
        # kappa (1 - 2M/r) = Delta, exactly, catching transcription slips
        g = metric_at(P, r)
        _, state = photon_tangent(P, r, 1.0)
        residual = (state.kappa * (ONE - g.dev_tt) - g.Delta).to_float()
        assert abs(residual) <= 1e-30

    @given(radii)
    @settings(max_examples=100)
    def test_null_norm(self, r):
        g = metric_at(P, r)
        k, _ = photon_tangent(P, r, 1.0)
        assert abs(contract(g, k, k).to_float()) <= 1e-26

    def test_angular_momentum_expression(self):
        _, state = photon_tangent(P, leo_radius(), 1.0)
        x = 2.0 * P.M_geom / leo_radius()
        want = -P.a * x / (1.0 - x)
        assert state.L_gamma_at_r.to_float() == pytest.approx(want, rel=1e-12)


class TestContract:
    def test_minkowski_orthogonality(self):
        tiny = SpacetimeParams(1e-300, 0.0)
        g = metric_at(tiny, 1.0)
        x = FourVector(ONE, DD(0.0), DD(0.0))
        y = FourVector(DD(0.0), DD(0.0), ONE)
        assert contract(g, x, y).to_float() == pytest.approx(0.0, abs=1e-250)

    def test_bilinearity(self):
        g = metric_at(P, leo_radius())
        u = orbit_velocity(P, Worldline.circular_orbit(leo_radius(), +1))
        k, _ = photon_tangent(P, leo_radius(), 1.0)
        left = contract(g, u, k) + contract(g, u, u)
        summed = FourVector(k.t_comp + u.t_comp, k.r_comp + u.r_comp,
                            k.phi_comp + u.phi_comp)
        right = contract(g, u, summed)
        assert abs((left - right).to_float()) < 1e-28

    def test_closed_form_endpoint_products(self):
        # g(k, u) reproduces the dragging-corrected closed forms at both ends
        r_b = leo_radius()
        g_b = metric_at(P, r_b)
        k_b, _ = photon_tangent(P, r_b, 1.0)
        u_b = orbit_velocity(P, Worldline.circular_orbit(r_b, +1))
        gamma_b, _, omega_b = orbit_normalization(P, Worldline.circular_orbit(r_b, +1))
        x_b = DD.quotient(2.0 * P.M_geom, r_b)
        closed_b = -(gamma_b * (ONE + (omega_b * P.a) / (ONE - x_b)))
        got_b = contract(g_b, k_b, u_b)
        assert abs(((got_b - closed_b) / closed_b).to_float()) < 1e-26

        g_a = metric_at(P, EARTH.r_A)
        k_a, _ = photon_tangent(P, EARTH.r_A, 1.0)
        station = Worldline.ground_station(EARTH.r_A, EARTH.omega_A)
        u_a = ground_station_velocity(P, station)
        gamma_a, _ = ground_station_normalization(P, station)
        x_a = DD.quotient(2.0 * P.M_geom, EARTH.r_A)
        closed_a = -(gamma_a * (ONE + x_a * (station.omega_geom * P.a) / (ONE - x_a)))
        got_a = contract(g_a, k_a, u_a)
        assert abs(((got_a - closed_a) / closed_a).to_float()) < 1e-26


@pytest.mark.parametrize("normalization, worldline", [
    (ground_station_normalization, Worldline.ground_station(2.0 * P.M_geom, 0.0)),
    (orbit_normalization, Worldline.circular_orbit(2.0 * P.M_geom)),
])
def test_normalization_refuses_radius_at_2m(normalization, worldline):
    # 1 - 2M/r is zero there: the observer would have to move at light speed
    with pytest.raises(DomainError, match="does not exceed 2M"):
        normalization(P, worldline)


@pytest.mark.parametrize("normalization, worldline, refused", [
    # (omega r / c)^2 overflows in the deviation of the station
    (ground_station_normalization,
     Worldline.ground_station(1e170, EARTH.omega_A),
     "ground station: deviation .* with r = 1e\\+170 m "),
    # omega r exceeds c at the station
    (ground_station_normalization,
     Worldline.ground_station(5e12, EARTH.omega_A),
     "superluminal worldline at r = 5000000000000.0 m"),
    # the orbit, retrograde, lies between 2M and the photon orbit
    (orbit_normalization,
     Worldline.circular_orbit(3.0 * P.M_geom * 0.9, -1),
     f"r = {3.0 * P.M_geom * 0.9} m is inside the photon-orbit pathology"),
], ids=["station-deviation-overflows", "station-superluminal",
        "orbit-inside-photon-orbit"])
def test_refusal_names_the_failing_radius(normalization, worldline, refused):
    with pytest.raises(DomainError, match=refused):
        normalization(P, worldline)
