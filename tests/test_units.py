"""Constants, unit conversion and the dimensionless parameter table."""

import math
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import expected
from kerr_qlink.cli.report import assemble_report
from kerr_qlink.cli.scenario import PRESETS
from kerr_qlink.errors import DomainError
from kerr_qlink.units import (
    C,
    EARTH,
    G,
    EarthModel,
    SpacetimeParams,
    geo_radius,
    geometric_mass,
    kerr_parameter_from_inertia,
    leo_radius,
)


def sig3(x: float) -> float:
    """Round to three significant figures."""
    if x == 0.0:
        return 0.0
    exp = math.floor(math.log10(abs(x)))
    return round(x, -exp + 2)


class TestGeometricMass:
    def test_earth_value(self):
        m = geometric_mass(EARTH.mass_kg)
        assert m == pytest.approx(expected.M_GEOM, rel=1e-12)
        assert sig3(m) == 4.43e-3

    def test_definition(self):
        assert geometric_mass(1.0) == G / C ** 2

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            geometric_mass(0.0)
        with pytest.raises(DomainError):
            geometric_mass(-1e20)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_mass_refused(self, bad):
        with pytest.raises(DomainError, match="mass_kg must be finite"):
            geometric_mass(bad)

    @given(st.floats(min_value=1e10, max_value=1e35))
    def test_linearity(self, mass):
        assert geometric_mass(2.0 * mass) == pytest.approx(
            2.0 * geometric_mass(mass), rel=1e-15)


class TestKerrParameter:
    def test_earth_value(self):
        a = kerr_parameter_from_inertia(EARTH.inertia, EARTH.omega_A, EARTH.mass_kg)
        assert a == pytest.approx(expected.A_FROM_INERTIA, rel=1e-12)
        # matches the adopted spin parameter within 1%
        assert abs(a - EARTH.a_m) < 0.01 * EARTH.a_m

    def test_zero_omega(self):
        assert kerr_parameter_from_inertia(EARTH.inertia, 0.0, EARTH.mass_kg) == 0.0

    def test_rejects_zero_mass(self):
        with pytest.raises(DomainError):
            kerr_parameter_from_inertia(EARTH.inertia, EARTH.omega_A, 0.0)

    @pytest.mark.parametrize("name, args", [
        ("inertia", (math.nan, 7.29e-5, 5.97e24)),
        ("inertia", (math.inf, 7.29e-5, 5.97e24)),
        ("omega", (8e37, math.nan, 5.97e24)),
        ("omega", (8e37, math.inf, 5.97e24)),
        ("mass_kg", (8e37, 7.29e-5, math.nan)),
        ("mass_kg", (8e37, 7.29e-5, math.inf)),
    ])
    def test_non_finite_input_refused(self, name, args):
        with pytest.raises(DomainError, match=f"^{name} must be finite"):
            kerr_parameter_from_inertia(*args)

    def test_geometric_identity(self):
        # a = 2 I_geom omega_geom / r_S with I_geom = I G / c^2
        a1 = kerr_parameter_from_inertia(EARTH.inertia, EARTH.omega_A, EARTH.mass_kg)
        i_geom = EARTH.inertia * G / C ** 2
        a2 = 2.0 * i_geom * (EARTH.omega_A / C) / (2.0 * geometric_mass(EARTH.mass_kg))
        assert a1 == pytest.approx(a2, rel=1e-12)


class TestSpacetimeParams:
    def test_schwarzschild_radius_exact(self):
        p = SpacetimeParams(expected.M_GEOM, 3.26)
        assert p.r_S == 2.0 * p.M_geom

    def test_spin_may_exceed_mass(self):
        # planets are not black holes; Earth has a >> M in length units
        p = SpacetimeParams(4.4e-3, 3.26)
        assert p.a > p.M_geom

    def test_rejects_bad_values(self):
        with pytest.raises(DomainError):
            SpacetimeParams(0.0, 1.0)
        with pytest.raises(DomainError):
            SpacetimeParams(1.0, -0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_mass_refused(self, bad):
        with pytest.raises(DomainError, match="SpacetimeParams.M_geom must be finite"):
            SpacetimeParams(bad, 3.26)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_spin_refused(self, bad):
        with pytest.raises(DomainError, match="SpacetimeParams.a must be finite"):
            SpacetimeParams(expected.M_GEOM, bad)


class TestEarthModel:
    def test_inertia_consistency_enforced(self):
        with pytest.raises(DomainError):
            EarthModel(inertia=9e37)  # ~12% away from the adopted spin

    def test_positive_fields_enforced(self):
        with pytest.raises(DomainError):
            EarthModel(r_A=-1.0)

    @pytest.mark.parametrize("field", ["mass_kg", "r_A", "omega_A", "a_m", "inertia"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_fields_refused(self, field, bad):
        with pytest.raises(DomainError, match=f"EarthModel.{field} must be finite"):
            EarthModel(**{field: bad})

    def test_preset_radii(self):
        assert leo_radius() == EARTH.r_A + 2.000e6
        assert geo_radius() == EARTH.r_A + 3.5784e7


class TestDimensionlessParams:
    """The ratio table through ScenarioConfig.ratios(), on the presets."""

    def test_leo_table(self):
        d = PRESETS["earth-leo"].ratios()
        assert sig3(d["M/r_emitter"]) == expected.TABLE["m_over_rA"]
        assert sig3(d["M/r_receiver"]) == expected.TABLE["m_over_rB_leo"]
        assert sig3(d["a/r_emitter"]) == expected.TABLE["a_over_rA"]
        assert sig3(d["a/r_receiver"]) == expected.TABLE["a_over_rB_leo"]
        assert sig3(d["r_emitter*omega/c"]) == expected.TABLE["rA_omegaA"]

    def test_geo_table(self):
        d = PRESETS["earth-geo"].ratios()
        assert sig3(d["M/r_receiver"]) == expected.TABLE["m_over_rB_geo"]
        assert sig3(d["a/r_receiver"]) == expected.TABLE["a_over_rB_geo"]

    def test_rejects_radius_below_surface(self):
        # the ratios refuse nothing themselves; the report that shows them
        # refuses a receiver at the surface, where it builds the link
        at_surface = replace(PRESETS["earth-leo"], receiver_radius_m=EARTH.r_A)
        with pytest.raises(DomainError, match="must exceed the surface radius"):
            assemble_report(at_surface)

    def test_all_ratios_small(self):
        d = PRESETS["earth-leo"].ratios()
        for name in ("M/r_emitter", "M/r_receiver", "a/r_emitter",
                     "a/r_receiver", "r_emitter*omega/c"):
            assert 0.0 < d[name] < 1e-5

    @given(st.floats(min_value=1.01, max_value=50.0))
    def test_ratio_scale_invariance(self, scale):
        # m/r and a/r are invariant when every length rescales together
        leo = PRESETS["earth-leo"]
        big = replace(leo, planet_mass_kg=leo.planet_mass_kg * scale,
                      emitter_radius_m=leo.emitter_radius_m * scale,
                      ground_omega_rad_s=leo.ground_omega_rad_s / scale,
                      planet_spin_parameter_m=leo.planet_spin_parameter_m * scale,
                      receiver_radius_m=leo.receiver_radius_m * scale)
        base = leo.ratios()
        scaled = big.ratios()
        assert scaled["M/r_emitter"] == pytest.approx(base["M/r_emitter"], rel=1e-12)
        assert scaled["a/r_receiver"] == pytest.approx(base["a/r_receiver"], rel=1e-12)

