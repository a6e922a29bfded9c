"""Arbitrary-precision oracle: exact evaluation, series extraction, geodesics."""

import random
import struct
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expected
from conftest import earth_decomposition
from kerr_qlink.crosscheck import shift_schwarzschild
from kerr_qlink.errors import DomainError
from kerr_qlink.geometry import Worldline
from kerr_qlink.oracle import (
    SeriesParam,
    delta_exact_ground,
    delta_exact_sats,
    extract_series_coefficient,
    gamma_exact_ground,
    gamma_exact_orbit,
    integrate_schwarzschild_radial,
    kappa_exact,
    shift_exact_ground,
    shift_exact_sats,
    shift_exact_schwarzschild,
)
from kerr_qlink.shift import (
    LinkScenario,
    shift,
    shift_ground_to_sat,
    shift_sat_to_sat,
)
from kerr_qlink.units import C, EARTH, SpacetimeParams, geo_radius, leo_radius

P = EARTH.spacetime()


class TestEvalExact:
    def test_ground_shift_matches_frozen(self):
        d = delta_exact_ground(P.M_geom, P.a, EARTH.r_A, EARTH.omega_A,
                               leo_radius(), +1, 50)
        assert abs(float(d - expected.DELTA_LEO)) < 1e-38

    def test_self_consistency_50_vs_80_digits(self):
        lo = delta_exact_ground(P.M_geom, P.a, EARTH.r_A, EARTH.omega_A,
                                geo_radius(), +1, 50)
        hi = delta_exact_ground(P.M_geom, P.a, EARTH.r_A, EARTH.omega_A,
                                geo_radius(), +1, 80)
        assert abs(float(lo - hi)) <= 1e-45

    def test_kappa_identity_full_precision(self):
        # kappa (1 - 2M/r) - Delta vanishes to the working precision
        r = leo_radius()
        kappa = kappa_exact(P.M_geom, P.a, r, 60)
        with localcontext() as ctx:
            ctx.prec = 60
            M, a, rr = Decimal(P.M_geom), Decimal(P.a), Decimal(r)
            delta_metric = 1 - 2 * M / rr + a * a / (rr * rr)
            residual = kappa * (1 - 2 * M / rr) - delta_metric
        assert abs(float(residual)) < 1e-45

    def test_flat_limit_is_exactly_one(self):
        f = shift_exact_ground(0.0, 0.0, EARTH.r_A, 0.0, leo_radius(), 1, 50)
        assert f == 1

    def test_gamma_ground(self):
        g = gamma_exact_ground(P.M_geom, P.a, EARTH.r_A, EARTH.omega_A, 50)
        assert float(g - 1) == pytest.approx(expected.GAMMA_A_MINUS_1, rel=1e-10)

    def test_gamma_orbit_direction_split(self):
        plus = gamma_exact_orbit(P.M_geom, P.a, geo_radius(), 1, 50)
        minus = gamma_exact_orbit(P.M_geom, P.a, geo_radius(), -1, 50)
        assert float(plus - minus) == pytest.approx(
            expected.GAMMA_B_DIRECTION_SPLIT_GEO, rel=1e-10)

    def test_precision_floor_enforced(self):
        with pytest.raises(DomainError):
            kappa_exact(P.M_geom, P.a, leo_radius(), 40)

    def test_sat_shift_matches_frozen(self):
        d = delta_exact_sats(P.M_geom, P.a, leo_radius(), geo_radius(), 1, 1, 50)
        assert abs(float(d - expected.DELTA_SATS)) < 1e-38

    def test_schwarzschild_pipeline_against_oracle(self):
        for r_b in (leo_radius(), geo_radius(), 1.5 * EARTH.r_A):
            mine = shift_schwarzschild(P.M_geom, EARTH.r_A, r_b).f.to_decimal()
            ref = shift_exact_schwarzschild(P.M_geom, EARTH.r_A, r_b, 50)
            assert abs(float(mine - ref)) <= 1e-28

    def test_orbit_normalization_against_oracle(self):
        from kerr_qlink.crosscheck import orbit_normalization
        for eps in (+1, -1):
            gamma, _, _ = orbit_normalization(
                P, Worldline.circular_orbit(leo_radius(), eps))
            ref = gamma_exact_orbit(P.M_geom, P.a, leo_radius(), eps, 50)
            assert abs(float(gamma.to_decimal() - ref)) <= 1e-28


class TestPipelineAgreement:
    def test_presets(self, leo_scenario, geo_scenario):
        for scenario in (leo_scenario, geo_scenario):
            mine = shift_ground_to_sat(scenario).delta.to_decimal()
            ref = delta_exact_ground(P.M_geom, P.a, EARTH.r_A, EARTH.omega_A,
                                     scenario.receiver.r, +1, 50)
            assert abs(float(mine - ref)) <= 1e-28

    def test_random_parameter_cloud(self):
        rng = random.Random(987654321)
        for _ in range(100):
            wiggle = lambda x: x * (1.0 + 0.1 * (2.0 * rng.random() - 1.0))
            m = wiggle(P.M_geom)
            a = wiggle(P.a)
            r_a = wiggle(EARTH.r_A)
            w = wiggle(EARTH.omega_A)
            r_b = max(wiggle(leo_radius()), 1.02 * r_a)
            eps = rng.choice((+1, -1))
            s = LinkScenario(Worldline.ground_station(r_a, w),
                             Worldline.circular_orbit(r_b, eps),
                             SpacetimeParams(m, a))
            mine = shift_ground_to_sat(s).delta.to_decimal()
            ref = delta_exact_ground(m, a, r_a, w, r_b, eps, 50)
            assert abs(float(mine - ref)) <= 1e-28


def _log_uniform(lo: float, hi: float):
    return st.floats(0.0, 1.0).map(lambda u: lo * (hi / lo) ** u)


def _zero_or_log_uniform(earth_value: float):
    return st.one_of(st.just(0.0), _log_uniform(1e-3 * earth_value, 10.0 * earth_value))


_masses = _log_uniform(0.1 * P.M_geom, 10.0 * P.M_geom)
_spins = _zero_or_log_uniform(P.a)
_directions = st.sampled_from((+1, -1))


def _bits(r) -> bytes:
    return struct.pack("4d", r.f.hi, r.f.lo, r.delta.hi, r.delta.lo)


def _assert_within_oracle(r, f_ref: Decimal, delta_ref: Decimal):
    with localcontext() as ctx:
        ctx.prec = 120  # holds hi + lo exactly
        assert abs(r.delta.to_decimal() - delta_ref) <= Decimal("1e-28")
        assert abs(r.f.to_decimal() - f_ref) <= Decimal("1e-28")


class TestWideDomainAgainstOracle:
    """Both link schemes over the whole CLI-reachable domain, not just around
    Earth: 0.1-10x Earth's mass, spin and spin rate each zero or spread over
    four decades, radii over decades and both orbit directions."""

    @given(m=_masses, a=_spins, w=_zero_or_log_uniform(EARTH.omega_A),
           r_a=_log_uniform(1e6, 1e7), ratio=_log_uniform(1.001, 1e3),
           eps=_directions)
    @settings(max_examples=200)
    def test_ground_link(self, m, a, w, r_a, ratio, eps):
        r_b = r_a * ratio
        s = LinkScenario(Worldline.ground_station(r_a, w),
                         Worldline.circular_orbit(r_b, eps),
                         SpacetimeParams(m, a))
        r = shift(s)
        assert _bits(r) == _bits(shift_ground_to_sat(s))
        _assert_within_oracle(r, shift_exact_ground(m, a, r_a, w, r_b, eps, 50),
                              delta_exact_ground(m, a, r_a, w, r_b, eps, 50))

    @given(m=_masses, a=_spins, r_c=_log_uniform(1e6, 1e8),
           ratio=_log_uniform(1.0 + 1e-6, 1e3), eta=_directions, eps=_directions)
    @settings(max_examples=200)
    def test_sat_link(self, m, a, r_c, ratio, eta, eps):
        r_b = r_c * ratio
        s = LinkScenario(Worldline.circular_orbit(r_c, eta),
                         Worldline.circular_orbit(r_b, eps),
                         SpacetimeParams(m, a))
        r = shift(s)
        assert _bits(r) == _bits(shift_sat_to_sat(s))
        _assert_within_oracle(r, shift_exact_sats(m, a, r_c, r_b, eta, eps, 50),
                              delta_exact_sats(m, a, r_c, r_b, eta, eps, 50))


class TestSeriesExtraction:
    def test_mass_slope_matches_decomposition(self):
        coef = extract_series_coefficient(
            SeriesParam.R_S, 1, M=P.M_geom, a=P.a, r_A=EARTH.r_A,
            omega_A_si=EARTH.omega_A, r_B=leo_radius(), digits=80)
        dec = earth_decomposition(leo_radius())
        analytic = dec.delta_S.to_float() / P.r_S
        assert coef == pytest.approx(analytic, rel=1e-4)

    def test_rotation_curvature_matches_term(self):
        coef = extract_series_coefficient(
            SeriesParam.OMEGA_A, 2, M=P.M_geom, a=P.a, r_A=EARTH.r_A,
            omega_A_si=EARTH.omega_A, r_B=leo_radius(), digits=80)
        analytic = -0.5 * (EARTH.r_A / C) ** 2
        assert coef == pytest.approx(analytic, rel=1e-4)

    def test_spin_slope_bounded_by_residual_scale(self):
        coef = extract_series_coefficient(
            SeriesParam.SPIN, 1, M=P.M_geom, a=P.a, r_A=EARTH.r_A,
            omega_A_si=0.0, r_B=leo_radius(), digits=80)
        assert abs(coef * P.a) <= 1e-20

    def test_order_and_precision_guards(self):
        with pytest.raises(DomainError):
            extract_series_coefficient(
                SeriesParam.R_S, 3, M=P.M_geom, a=P.a, r_A=EARTH.r_A,
                omega_A_si=EARTH.omega_A, r_B=leo_radius())
        with pytest.raises(DomainError):
            extract_series_coefficient(
                SeriesParam.R_S, 1, M=P.M_geom, a=P.a, r_A=EARTH.r_A,
                omega_A_si=EARTH.omega_A, r_B=leo_radius(), digits=60)

    def test_sign_flip_detection(self):
        # a deliberately wrong analytic slope disagrees far beyond 1e-4
        coef = extract_series_coefficient(
            SeriesParam.R_S, 1, M=P.M_geom, a=P.a, r_A=EARTH.r_A,
            omega_A_si=EARTH.omega_A, r_B=leo_radius(), digits=80)
        dec = earth_decomposition(leo_radius())
        wrong = -dec.delta_S.to_float() / P.r_S
        assert abs(coef / wrong - 1.0) > 1.0


class TestGeodesicIntegration:
    def test_leo_and_geo_against_closed_form(self):
        for r_b in (leo_radius(), geo_radius()):
            res = integrate_schwarzschild_radial(P.M_geom, EARTH.r_A, r_b)
            closed = shift_schwarzschild(P.M_geom, EARTH.r_A, r_b)
            # error measured against the deviation scale f - 1
            dev_err = abs((res.f_numeric - closed.f).to_float()) \
                / abs(closed.delta.to_float())
            assert dev_err <= 1e-3
            assert abs(res.f_numeric.to_float() / closed.f.to_float() - 1.0) <= 1e-12

    def test_energy_conserved_and_photon_stays_radial(self):
        res = integrate_schwarzschild_radial(P.M_geom, EARTH.r_A, geo_radius())
        assert res.trace.energy_drift <= 1e-13
        assert res.trace.phidot_max == 0.0
        assert len(res.trace.samples) >= 5
        # the trace marches outward monotonically
        radii = [s.r for s in res.trace.samples]
        assert radii == sorted(radii)
        assert radii[0] == EARTH.r_A
        assert radii[-1] == pytest.approx(geo_radius(), rel=1e-12)

    def test_zero_shift_radius(self):
        res = integrate_schwarzschild_radial(P.M_geom, EARTH.r_A,
                                             1.5 * EARTH.r_A)
        closed = shift_schwarzschild(P.M_geom, EARTH.r_A, 1.5 * EARTH.r_A)
        assert abs(closed.delta.to_float()) < 1e-18
        assert abs(res.f_numeric.to_float() - 1.0) < 1e-15

    def test_flat_spacetime(self):
        res = integrate_schwarzschild_radial(0.0, EARTH.r_A, leo_radius())
        assert res.f_numeric.to_float() == 1.0

    def test_guards(self):
        with pytest.raises(DomainError):
            integrate_schwarzschild_radial(P.M_geom, leo_radius(), EARTH.r_A)
        with pytest.raises(DomainError):
            integrate_schwarzschild_radial(1.0, 2.5, 10.0)  # emitter below 3M


def test_literal_first_power_spin_term_is_unphysical():
    """The shift's normalization argument must be quadratic in the station
    angular velocity.

    Read with a first-power (r_A^2 + a^2) omega term instead, the argument
    evaluates to about -8.9 for the preset planet in geometric units
    (dimensionally it is not even a pure number), so that reading admits no
    real normalization; the quadratic form is also what the rotation term
    -(r_A omega/c)^2 / 2 linearises to.
    """
    w = EARTH.omega_A / C
    aw = P.a * w
    literal = 1.0 - (2.0 * P.M_geom / EARTH.r_A) * (1.0 - aw) ** 2 \
        - (P.a ** 2 + EARTH.r_A ** 2) * w
    assert literal < 0.0
    quadratic = 1.0 - (2.0 * P.M_geom / EARTH.r_A) * (1.0 - aw) ** 2 \
        - (P.a ** 2 + EARTH.r_A ** 2) * w ** 2
    assert quadratic > 0.0
