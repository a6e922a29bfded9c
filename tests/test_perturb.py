"""Shift decomposition and error propagation."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import expected
from conftest import earth_decomposition, earth_link, sat_link, sats_decomposition
from kerr_qlink.cli.scenario import PRESETS
from kerr_qlink.ddouble import DD
from kerr_qlink.errors import DomainError, HigherOrderRegimeError
from kerr_qlink.fixed import ERROR_UNITS, link_scale
from kerr_qlink.geometry import _ground_parts, _orbit_parts
from kerr_qlink.perturb import (
    decompose_ground,
    decompose_sats,
    delta_mass_term_ground,
    delta_mass_term_sats,
    delta_rotation_term_ground,
    delta_rotation_term_sats,
    error_angular_velocity,
    error_schwarzschild_radius,
)
from kerr_qlink.shift import LinkScheme, shift, shift_ground_to_sat, shift_sat_to_sat
from kerr_qlink.units import C, EARTH, geo_radius, leo_radius

P = EARTH.spacetime()


# The paper's written forms of the four terms, in rho = r_B / r_A and
# r_C / r_B, on an arithmetic A: the reference for the decomposition's terms,
# which it writes on the parts of each end that the closed form computes.

def paper_mass_term_ground(A, p, r_A, r_B):
    """(r_S / 4 r_A) (1 - 2L/r_A) / (1 + L/r_A) = (r_S / 4 r_A) (3 - 2 rho) / rho."""
    rho = A.quotient(r_B, r_A)
    return A.quotient(p.r_S, r_A) * ((3 - 2 * rho) / rho) / 4


def paper_rotation_term_ground(A, r_A, omega_si):
    """-(r_A omega / c)^2 / 2."""
    v = A.product(r_A, omega_si) / C
    return -(v * v) / 2


def paper_mass_term_sats(A, p, r_C, r_B):
    """-(3/4) (L r_S / r_C^2) / (1 + L/r_C) = -(3/4) (r_S/r_C) (1 - r_C/r_B)."""
    return -3 * A.quotient(p.r_S, r_C) * (A.ONE - A.quotient(r_C, r_B)) / 4


def paper_rotation_term_sats(A, p, r_C, r_B):
    """r_S a^2 / (4 r_C^3) ((1 + L/r_C)^-3 - 1), 1 + L/r_C = r_B / r_C."""
    ar = A.quotient(p.a, r_C)
    shape = A.quotient(r_C, r_B) ** 3 - A.ONE
    return A.quotient(p.r_S, r_C) * (ar * ar) * shape / 4


def _exact(x) -> Fraction:
    """The value of a DD or of a one-element Fixed."""
    if type(x) is DD:
        return Fraction(x.hi) + Fraction(x.lo)
    return Fraction(x.n[0], 1 << x.k)


def _terms(A, link):
    """((new, paper, scale) of the mass term, of the rotation term) of a
    link on the arithmetic A: the decomposition's term, the paper's, and
    the largest part it is written on."""
    p, e, r = link.params, link.emitter, link.receiver
    _, aw_B, _ = recv = _orbit_parts(A, p, r)
    if link.scheme is LinkScheme.GROUND_TO_SAT:
        x, v, _, _ = _ground_parts(A, p, e)
        return ((delta_mass_term_ground(x, recv[0]),
                 paper_mass_term_ground(A, p, e.r, r.r), x),
                (delta_rotation_term_ground(v),
                 paper_rotation_term_ground(A, e.r, e.omega_si), v * v))
    q_C, aw_C, _ = _orbit_parts(A, p, e)
    return ((delta_mass_term_sats(q_C, recv[0]),
             paper_mass_term_sats(A, p, e.r, r.r), q_C),
            (delta_rotation_term_sats(aw_C, aw_B),
             paper_rotation_term_sats(A, p, e.r, r.r), aw_C * aw_C))


def assert_terms_match_the_paper(link):
    # on either arithmetic: the fixed-point scale's ERROR_UNITS units of
    # 2**-k, plus a few double-double operations, each within a few 2**-106
    # of the largest part a term is written on
    fixed = link_scale(link)
    for A in (DD, fixed):
        for new, paper, scale in _terms(A, link):
            bound = Fraction(ERROR_UNITS, 1 << fixed.k) + abs(_exact(scale)) / 2 ** 100
            assert abs(_exact(new) - _exact(paper)) <= bound


class TestTermsMatchThePaper:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_presets(self, preset):
        assert_terms_match_the_paper(PRESETS[preset].link())

    @given(st.floats(min_value=1.0001, max_value=100.0))
    def test_ground_radii(self, rho):
        assert_terms_match_the_paper(earth_link(EARTH.r_A * rho))

    @given(st.floats(min_value=1.01, max_value=50.0),
           st.floats(min_value=1.0, max_value=20.0))
    def test_orbit_pair_radii(self, rho_c, ratio):
        r_C = EARTH.r_A * rho_c
        assert_terms_match_the_paper(sat_link(r_C, r_C * ratio))


def station_parts(A):
    """(2M/r_A, v, a omega, deviation) of the Earth station."""
    return _ground_parts(A, P, earth_link(leo_radius()).emitter)


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
        # 3 M/r_B = 2M/r_A there: the term is the two quotients' roundings
        link = earth_link(EARTH.r_A + EARTH.r_A / 2.0)
        x = station_parts(DD)[0]
        term = delta_mass_term_ground(x, _orbit_parts(DD, P, link.receiver)[0])
        assert abs(term.to_float()) <= 2.0 ** -104 * x.to_float()

    def test_rotation_term_value(self):
        term = delta_rotation_term_ground(station_parts(DD)[1])
        assert term.to_float() == pytest.approx(-1.20e-12, rel=2e-2)

    def test_rejects_radius_below_surface(self):
        with pytest.raises(DomainError):
            shift_ground_to_sat(earth_link(EARTH.r_A), decompose_ground)


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
        r = leo_radius()
        q, aw, _ = _orbit_parts(DD, P, sat_link(r, r).receiver)
        assert delta_mass_term_sats(q, q).to_float() == 0.0
        assert delta_rotation_term_sats(aw, aw).to_float() == 0.0

    def test_sum_identity(self):
        dec = sats_decomposition(leo_radius(), geo_radius())
        exact = shift_sat_to_sat(sat_link(leo_radius(), geo_radius())).delta
        assert abs((dec.delta_total - exact).to_float()) < 1e-28

    def test_rejects_bad_ordering(self):
        with pytest.raises(DomainError, match="need receiver radius at or above emitter"):
            shift(sat_link(geo_radius(), leo_radius()), decompose_sats)

    def test_identical_orbits_decompose_into_zeros(self):
        # LinkScenario accepts identical orbits (a unit shift); so does the
        # decomposition, which splits their zero delta exactly
        r = leo_radius()
        link = sat_link(r, r)
        dec = shift_sat_to_sat(link, decompose_sats)[1]
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
        dec = shift_ground_to_sat(link, decompose_ground)[1]
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
