"""Frequency-shift closed forms, limits, cross-validation and root finding."""

import math
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expected
from conftest import earth_link, sat_link
from kerr_qlink.crosscheck import shift_schwarzschild, shift_via_contraction
from kerr_qlink.ddouble import DD
from kerr_qlink.errors import DomainError, NoRootInBracketError, NumericalError
from kerr_qlink.geometry import Worldline
from kerr_qlink.perturb import decompose_ground, decompose_sats
from kerr_qlink.shift import (
    LinkScenario,
    LinkScheme,
    ShiftResult,
    find_zero_shift_orbit,
    shift,
    shift_ground_to_sat,
    shift_sat_to_sat,
)
from kerr_qlink.units import (
    EARTH,
    SpacetimeParams,
    geo_radius,
    geometric_mass,
    leo_radius,
)

P = EARTH.spacetime()


def dd_vs_decimal(x: DD, want: Decimal) -> float:
    return abs(float(x.to_decimal() - want))


class TestGroundToSat:
    def test_leo_delta(self, leo_scenario):
        res = shift_ground_to_sat(leo_scenario)
        assert dd_vs_decimal(res.delta, expected.DELTA_LEO) < 1e-28
        # order anchor: a few 1e-11, received blue-shifted below 1.5 r_A
        assert 9.702e-11 < res.delta.to_float() < 1.0098e-10

    def test_geo_delta(self, geo_scenario):
        res = shift_ground_to_sat(geo_scenario)
        assert dd_vs_decimal(res.delta, expected.DELTA_GEO) < 1e-28
        # within 2% of -5.4e-10, red-shifted
        assert abs(res.delta.to_float() + 5.4e-10) < 0.02 * 5.4e-10

    def test_f_and_delta_consistent(self, leo_scenario):
        res = shift_ground_to_sat(leo_scenario)
        assert abs(((res.f - DD(1.0)) - res.delta).to_float()) < 1e-30

    def test_schwarzschild_reduction_bitwise(self):
        # a 100-point radial grid: spinning everything down reproduces the
        # non-rotating closed form without even a last-bit difference
        lo, hi = leo_radius(), 10.0 * geo_radius()
        for i in range(100):
            r_b = lo + (hi - lo) * i / 99.0
            spun_down = earth_link(r_b, omega=0.0, a=0.0)
            a = shift_ground_to_sat(spun_down)
            b = shift_schwarzschild(P.M_geom, EARTH.r_A, r_b)
            assert (a.delta.hi, a.delta.lo) == (b.delta.hi, b.delta.lo)
            assert (a.f.hi, a.f.lo) == (b.f.hi, b.f.lo)

    def test_epsilon_independence_without_spin(self):
        for r_b in (leo_radius(), geo_radius()):
            plus = shift_ground_to_sat(earth_link(r_b, direction=+1, a=0.0))
            minus = shift_ground_to_sat(earth_link(r_b, direction=-1, a=0.0))
            assert (plus.delta.hi, plus.delta.lo) == (minus.delta.hi, minus.delta.lo)

    def test_scheme_mismatch_rejected(self, sats_scenario):
        with pytest.raises(DomainError):
            shift_ground_to_sat(sats_scenario)


class TestSatToSat:
    def test_leo_geo_delta(self, sats_scenario):
        res = shift_sat_to_sat(sats_scenario)
        assert dd_vs_decimal(res.delta, expected.DELTA_SATS) < 1e-28
        assert abs(res.delta.to_float() + 6.4e-10) < 0.02 * 6.4e-10

    def test_identical_orbits_unit_shift(self):
        res = shift_sat_to_sat(sat_link(leo_radius(), leo_radius()))
        assert res.f.to_float() == 1.0
        assert res.delta.to_float() == 0.0

    def test_direction_independence_without_spin(self):
        p0 = SpacetimeParams(P.M_geom, 0.0)
        results = set()
        for eta in (+1, -1):
            for eps in (+1, -1):
                s = LinkScenario(Worldline.circular_orbit(leo_radius(), eta),
                                 Worldline.circular_orbit(geo_radius(), eps), p0)
                r = shift_sat_to_sat(s)
                results.add((r.delta.hi, r.delta.lo))
        assert len(results) == 1

    def test_direction_matters_with_spin(self, sats_scenario):
        flipped = LinkScenario(sats_scenario.emitter,
                               Worldline.circular_orbit(geo_radius(), -1),
                               sats_scenario.params)
        a = shift_sat_to_sat(sats_scenario).delta.to_float()
        b = shift_sat_to_sat(flipped).delta.to_float()
        assert a != b

    def test_ordering_enforced(self):
        with pytest.raises(DomainError):
            sat_link(geo_radius(), leo_radius())

    def test_station_link_rejected(self, leo_scenario):
        with pytest.raises(DomainError, match="needs a sat-to-sat scenario"):
            shift_sat_to_sat(leo_scenario)


class TestLinkScenario:
    def test_scheme_follows_the_emitter(self, leo_scenario, sats_scenario):
        assert leo_scenario.scheme is LinkScheme.GROUND_TO_SAT
        assert sats_scenario.scheme is LinkScheme.SAT_TO_SAT
        # the same receiver under an orbiting emitter makes an orbit pair
        below = LinkScenario(Worldline.circular_orbit(EARTH.r_A, +1),
                             leo_scenario.receiver, leo_scenario.params)
        assert below.scheme is LinkScheme.SAT_TO_SAT

    def test_ground_station_receiver_rejected(self):
        for emitter in (Worldline.ground_station(EARTH.r_A, EARTH.omega_A),
                        Worldline.circular_orbit(EARTH.r_A, +1)):
            with pytest.raises(DomainError, match="orbiting receiver"):
                LinkScenario(emitter,
                             Worldline.ground_station(leo_radius(), EARTH.omega_A),
                             P)


class TestSchwarzschildLimit:
    def test_zero_shift_at_special_radius(self):
        res = shift_schwarzschild(P.M_geom, EARTH.r_A, 1.5 * EARTH.r_A)
        assert abs(res.delta.to_float()) < 1e-18

    def test_flat_spacetime(self):
        res = shift_schwarzschild(0.0, EARTH.r_A, leo_radius())
        assert res.f.to_float() == 1.0

    def test_sign_structure(self):
        below = shift_schwarzschild(P.M_geom, EARTH.r_A, 1.2 * EARTH.r_A)
        above = shift_schwarzschild(P.M_geom, EARTH.r_A, 2.0 * EARTH.r_A)
        assert below.delta.to_float() > 0.0  # blue-shifted
        assert above.delta.to_float() < 0.0  # red-shifted

    @given(st.floats(min_value=1.0001, max_value=10.0))
    @settings(max_examples=200)
    def test_sign_matches_radius_ordering(self, factor):
        r_b = factor * EARTH.r_A
        res = shift_schwarzschild(P.M_geom, EARTH.r_A, r_b)
        sign = res.delta.sign()
        want = 1 if r_b < 1.5 * EARTH.r_A else (-1 if r_b > 1.5 * EARTH.r_A else 0)
        assert sign == want

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            shift_schwarzschild(1.0, 3.0, 2.9)  # receiver below 3M


class TestContractionPath:
    def test_matches_closed_form_on_presets(self, leo_scenario, geo_scenario,
                                            sats_scenario):
        for scenario in (leo_scenario, geo_scenario, sats_scenario):
            closed = shift(scenario)
            generic = shift_via_contraction(scenario)
            rel = abs((closed.f - generic.f).to_float()) / closed.f.to_float()
            assert rel < 1e-24

    def test_matches_schwarzschild(self):
        s = earth_link(leo_radius(), omega=0.0, a=0.0)
        generic = shift_via_contraction(s)
        closed = shift_schwarzschild(P.M_geom, EARTH.r_A, leo_radius())
        rel = abs((closed.f - generic.f).to_float()) / closed.f.to_float()
        assert rel < 1e-24

    def test_flat_returns_unity(self):
        tiny = LinkScenario(
            Worldline.ground_station(EARTH.r_A, 0.0),
            Worldline.circular_orbit(leo_radius(), +1),
            SpacetimeParams(1e-300, 0.0),
        )
        res = shift_via_contraction(tiny)
        assert res.f.to_float() == pytest.approx(1.0, abs=1e-200)


class TestOracleAgreement:
    def test_presets_against_live_oracle(self, leo_scenario, geo_scenario,
                                         sats_scenario):
        from kerr_qlink.oracle import delta_exact_ground, delta_exact_sats
        for scenario, ref in ((leo_scenario, None), (geo_scenario, None)):
            mine = shift_ground_to_sat(scenario).delta.to_decimal()
            oracle = delta_exact_ground(P.M_geom, P.a, EARTH.r_A, EARTH.omega_A,
                                        scenario.receiver.r, +1, 50)
            assert abs(float(mine - oracle)) < 1e-28
        mine = shift_sat_to_sat(sats_scenario).delta.to_decimal()
        oracle = delta_exact_sats(P.M_geom, P.a, leo_radius(), geo_radius(), 1, 1, 50)
        assert abs(float(mine - oracle)) < 1e-28


class TestZeroShiftOrbit:
    def test_schwarzschild_root(self):
        s = earth_link(leo_radius(), omega=0.0, a=0.0)
        r_star, delta = find_zero_shift_orbit(s, 1.1 * EARTH.r_A, 2.5 * EARTH.r_A)
        assert r_star == pytest.approx(1.5 * EARTH.r_A, rel=1e-9)
        residual = shift(s.with_receiver_radius(r_star)).delta
        assert (delta.hi, delta.lo) == (residual.hi, residual.lo)
        assert abs(residual.to_float()) < 1e-18

    def test_full_spin_root_shifted_by_rotation(self, leo_scenario):
        r_star, delta = find_zero_shift_orbit(leo_scenario, 1.4 * EARTH.r_A,
                                              1.6 * EARTH.r_A)
        assert r_star == pytest.approx(expected.R_ZERO_KERR, rel=1e-9)
        rel_shift = r_star / (1.5 * EARTH.r_A) - 1.0
        # spin pushes the zero-shift orbit down by a few 1e-3 relative
        assert -1e-2 < rel_shift < -1e-4
        residual = shift(leo_scenario.with_receiver_radius(r_star)).delta
        assert (delta.hi, delta.lo) == (residual.hi, residual.lo)
        assert abs(residual.to_float()) < 1e-18

    def test_no_root_in_bracket(self, leo_scenario):
        with pytest.raises(NoRootInBracketError):
            find_zero_shift_orbit(leo_scenario, EARTH.r_A + 1e3, 1.2 * EARTH.r_A)

    def test_bad_bracket_rejected(self, leo_scenario):
        with pytest.raises(DomainError):
            find_zero_shift_orbit(leo_scenario, 2.0 * EARTH.r_A, 1.5 * EARTH.r_A)


def test_inconsistent_result_is_numerical_error():
    # a typed error, so a sweep records the point instead of aborting
    with pytest.raises(NumericalError):
        ShiftResult(f=DD(1.0), delta=DD(1e-10))
    # NaN compares false with any bound, and must still fail the check
    with pytest.raises(NumericalError):
        ShiftResult(f=DD(math.nan), delta=DD(math.nan))


def test_radius_inside_2m_is_refused_by_the_geometry_check():
    with pytest.raises(DomainError, match=r"^receiver orbit: radius .* does not exceed 2M"):
        earth_link(2.0 * P.M_geom)


_STATION = Worldline.ground_station(EARTH.r_A, EARTH.omega_A)


@pytest.mark.parametrize("emitter, receiver, params, refused", [
    # a receiver inside 2M and below the station: 2M is checked first
    (_STATION, Worldline.circular_orbit(2.0 * P.M_geom), P,
     r"^receiver orbit: radius .* does not exceed 2M"),
    # a sat-to-sat receiver below an emitter inside 2M: the ordering first
    (Worldline.circular_orbit(P.M_geom), Worldline.circular_orbit(0.5 * P.M_geom),
     P, r"^sat-to-sat links need receiver radius at or above emitter radius "),
    # both ends inside 2M: the station first
    (Worldline.ground_station(P.M_geom, EARTH.omega_A),
     Worldline.circular_orbit(1.5 * P.M_geom), P,
     r"^ground station: radius .* does not exceed 2M"),
    # a receiver below the station whose r^3 underflows: the link refuses
    # it before the closed form reaches r^3
    (Worldline.ground_station(5.6, EARTH.omega_A), Worldline.circular_orbit(1e-225),
     SpacetimeParams(geometric_mass(1e-250), EARTH.a_m),
     r"^receiver radius 1e-225 must exceed the surface radius 5\.6$"),
    # a receiver inside 2M beside a station deviation out of range: the link
    # refuses the receiver before the station's deviation is computed
    (_STATION, Worldline.circular_orbit(P.M_geom), SpacetimeParams(P.M_geom, 1e160),
     r"^receiver orbit: radius .* does not exceed 2M"),
], ids=["2M-before-surface", "ordering-before-2M", "station-before-receiver",
        "surface-before-r3", "2M-before-deviation"])
def test_which_refusal_wins_where_two_apply(emitter, receiver, params, refused):
    # what the radii decide is refused where the link is built, before any
    # range refusal the arithmetic can raise
    with pytest.raises(DomainError, match=refused):
        link = LinkScenario(emitter, receiver, params)
        shift(link, decompose_ground if link.scheme is LinkScheme.GROUND_TO_SAT
              else decompose_sats)
