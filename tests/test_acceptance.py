"""End-to-end acceptance gate.

Each test covers one exit criterion, prints a PASS/FAIL line (visible under
`pytest -s`) and enforces its runtime budget.  Expected digits were frozen
from an independent 80-digit decimal evaluation (see expected.py); the quoted
anchor values are two-to-three significant-figure statements of the same
quantities.

Two checks are expected to fail and are kept faithful rather than loosened:

* the ground-scheme residual bound |delta_c| <= 1e-20: the residual is
  analytically dominated by the second-order mass terms
  y(y-x)/2 - (y-x)^2/8 (x = 2M/r_A, y = 3M/r_B) and evaluates to 1.5e-19
  (LEO) / -3.1e-19 (GEO), an order of magnitude over the published estimate;
* the ground angular-velocity bound "1.2e-3 within 2%": the exact chain
  sigma / (sqrt(2N) Omega sinh s) / (2 |delta_rot|) gives 1.1579e-3, which
  rounds to 1.2e-3 at two significant figures but sits 3.5% below it.
"""

import math
import time
from contextlib import contextmanager

import pytest

import expected
from conftest import earth_decomposition, earth_link, sat_link, sats_decomposition
from kerr_qlink.crosscheck import (
    contract,
    ground_station_velocity,
    metric_at,
    orbit_velocity,
    overlap_numeric,
    photon_tangent,
    shift_schwarzschild,
    shift_via_contraction,
)
from kerr_qlink.ddouble import DD, ONE
from kerr_qlink.geometry import Worldline
from kerr_qlink.metrology import (
    MetrologyConfig,
    bound_angular_velocity,
    bound_schwarzschild_radius,
    qber,
)
from kerr_qlink.oracle import (
    SeriesParam,
    delta_exact_ground,
    delta_exact_sats,
    extract_series_coefficient,
    integrate_schwarzschild_radial,
)
from kerr_qlink.shift import (
    LinkScenario,
    LinkScheme,
    shift,
    shift_ground_to_sat,
    shift_sat_to_sat,
)
from kerr_qlink.cli.scenario import PRESETS
from kerr_qlink.units import C, EARTH, SpacetimeParams, geo_radius, leo_radius
from kerr_qlink.wavepacket import GaussianWavepacket, overlap_analytic, propagate

P = EARTH.spacetime()
CFG = MetrologyConfig()


@contextmanager
def criterion(number: int, name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] acceptance {number}: {name}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, (
        f"criterion {number} took {elapsed:.1f}s, budget {budget_s}s")
    print(f"[PASS] acceptance {number}: {name} ({elapsed:.2f} s)")


def within(value: float, target: float, rel: float) -> bool:
    return abs(value - target) <= rel * abs(target)


def sig3(x: float) -> float:
    exp = math.floor(math.log10(abs(x)))
    return round(x, -exp + 2)


def test_1_dimensionless_parameter_table():
    with criterion(1, "dimensionless parameter table to 3 s.f.", 1.0):
        leo = PRESETS["earth-leo"].ratios()
        geo = PRESETS["earth-geo"].ratios()
        assert sig3(leo["M/r_emitter"]) == 6.95e-10
        assert sig3(leo["M/r_receiver"]) == 5.29e-10
        assert sig3(geo["M/r_receiver"]) == 1.05e-10
        assert sig3(leo["a/r_emitter"]) == 5.11e-7
        assert sig3(leo["a/r_receiver"]) == 3.89e-7
        assert sig3(geo["a/r_receiver"]) == 7.73e-8
        assert sig3(leo["r_emitter*omega/c"]) == 1.55e-6
        assert geo["M/r_emitter"] == leo["M/r_emitter"]


def test_2_shift_decomposition_magnitudes():
    with criterion(2, "shift decomposition magnitudes", 10.0):
        leo = earth_decomposition(leo_radius())
        geo = earth_decomposition(geo_radius())
        sats = sats_decomposition(leo_radius(), geo_radius())

        # anchors at their stated tolerances
        assert 0.9 * 9.87e-11 <= leo.delta_S.to_float() <= 1.1 * 9.87e-11
        assert within(geo.delta_S.to_float(), -5.4e-10, 0.02)
        assert within(leo.delta_rot.to_float(), -1.20e-12, 0.02)
        assert within(sats.delta_S.to_float(), -6.4e-10, 0.05)
        assert within(sats.delta_rot.to_float(), -4.0e-23, 0.05)

        # frozen oracle digits
        assert within(leo.delta_S.to_float(), expected.DELTA_S_LEO, 1e-12)
        assert within(geo.delta_S.to_float(), expected.DELTA_S_GEO, 1e-12)
        assert within(leo.delta_rot.to_float(), expected.DELTA_ROT, 1e-12)
        assert within(sats.delta_S.to_float(), expected.DELTA_S_SATS, 1e-12)
        assert within(sats.delta_rot.to_float(), expected.DELTA_ROT_SATS, 1e-12)


def test_2_residual_bound_as_published():
    """Expected to fail: the residual is genuinely of order 1e-19.

    delta_c = delta_exact - delta_S - delta_rot carries the second-order mass
    terms y(y-x)/2 - (y-x)^2/8, about +1.45e-19 for the LEO preset and
    -3.15e-19 for GEO (verified against the 80-digit oracle and by the series
    expansion), so the published 1e-20 estimate understates it by an order of
    magnitude.  The bound is asserted as stated rather than loosened to match
    the measurement.
    """
    with criterion(2, "residual magnitude bound |delta_c| <= 1e-20", 10.0):
        leo = earth_decomposition(leo_radius())
        geo = earth_decomposition(geo_radius())
        # consistency first: the residual itself is reproduced to high accuracy
        assert within(leo.delta_c.to_float(), expected.DELTA_C_LEO, 1e-6)
        assert within(geo.delta_c.to_float(), expected.DELTA_C_GEO, 1e-6)
        assert abs(leo.delta_c.to_float()) <= 1e-20, (
            f"ground LEO residual {leo.delta_c.to_float():.3e} exceeds the "
            "published 1e-20 bound; see the module docstring")
        assert abs(geo.delta_c.to_float()) <= 1e-20, (
            f"ground GEO residual {geo.delta_c.to_float():.3e} exceeds the "
            "published 1e-20 bound; see the module docstring")


def test_3_schwarzschild_radius_bounds():
    with criterion(3, "Schwarzschild-radius precision bounds", 1.0):
        leo = bound_schwarzschild_radius(CFG, earth_decomposition(leo_radius()))
        geo = bound_schwarzschild_radius(CFG, earth_decomposition(geo_radius()))
        sats = bound_schwarzschild_radius(
            CFG, sats_decomposition(leo_radius(), geo_radius()))
        assert within(leo.relative_bound, 2.8e-5, 0.02)
        assert within(geo.relative_bound, 5.2e-6, 0.02)
        assert within(sats.relative_bound, 4.4e-6, 0.02)
        # satellite-to-satellite spin sensitivity collapses far beyond unity
        omega_sats = bound_angular_velocity(
            CFG, sats_decomposition(leo_radius(), geo_radius()))
        assert omega_sats.relative_bound > 1.0
        assert within(omega_sats.relative_bound, expected.BOUND_OMEGA_SATS, 1e-12)


def test_3_angular_velocity_bound_as_published():
    """Expected to fail: the exact bound is 1.1579e-3, 3.5% below 1.2e-3.

    sigma/(sqrt(2N) Omega sinh s) = 2.7852e-15 and delta_rot = -1.20269e-12
    give 2.7852e-15 / (2 * 1.20269e-12) = 1.1579e-3.  The 1.2e-3 statement is
    that value at two significant figures, and the 2% band excludes the exact
    number.  Asserted as stated rather than recalibrated.
    """
    with criterion(3, "angular-velocity bound 1.2e-3 within 2%", 1.0):
        ground = bound_angular_velocity(CFG, earth_decomposition(leo_radius()))
        # consistency first: the bound matches its frozen derivation exactly
        assert within(ground.relative_bound, expected.BOUND_OMEGA_GROUND, 1e-12)
        assert within(ground.relative_bound, 1.2e-3, 0.02), (
            f"ground angular-velocity bound {ground.relative_bound:.6e} is "
            "outside 1.2e-3 +/- 2%; see the module docstring")


def test_4_qber_values():
    with criterion(4, "QBER for LEO, GEO and the zero-shift orbit", 1.0):
        leo = earth_decomposition(leo_radius())
        geo = earth_decomposition(geo_radius())
        # LEO and GEO evaluated at the dominant mass-term shift
        q_leo = qber(leo.delta_S.to_float(), CFG)
        q_geo = qber(geo.delta_S.to_float(), CFG)
        # near the zero-shift orbit the rotation term is all that remains
        q_zero = qber(leo.delta_rot.to_float(), CFG)
        assert within(q_leo, expected.QBER_LEO, 1e-9)
        assert within(q_geo, expected.QBER_GEO, 1e-9)
        assert within(q_zero, expected.QBER_ZERO_ORBIT, 1e-9)
        assert within(q_leo, 6.0e-4, 0.02)
        assert within(q_geo, 1.8e-2, 0.02)
        assert within(q_zero, 8.9e-8, 0.02)


def test_5_property_suite():
    with criterion(5, "numerical property suite", 120.0):
        # null identity on a 1000-point radial grid
        worst = 0.0
        n = 1000
        hi_r = 10.0 * geo_radius()
        for i in range(n):
            r = EARTH.r_A + (hi_r - EARTH.r_A) * i / (n - 1)
            g = metric_at(P, r)
            _, photon = photon_tangent(P, r, 1.0)
            worst = max(worst, abs(
                (photon.kappa * (ONE - g.dev_tt) - g.Delta).to_float()))
        assert worst <= 1e-30

        # observer norms at representative radii
        g = metric_at(P, EARTH.r_A)
        u = ground_station_velocity(
            P, Worldline.ground_station(EARTH.r_A, EARTH.omega_A))
        assert abs((contract(g, u, u) + ONE).to_float()) <= 1e-28
        for r in (leo_radius(), geo_radius(), 5.0 * geo_radius()):
            for eps in (+1, -1):
                g = metric_at(P, r)
                u = orbit_velocity(P, Worldline.circular_orbit(r, eps))
                assert abs((contract(g, u, u) + ONE).to_float()) <= 1e-28

        # direction drops out bit-exactly in the non-rotating limit
        for r_b in (leo_radius(), geo_radius()):
            plus = shift_ground_to_sat(earth_link(r_b, direction=+1, a=0.0))
            minus = shift_ground_to_sat(earth_link(r_b, direction=-1, a=0.0))
            assert (plus.delta.hi, plus.delta.lo) == (minus.delta.hi, minus.delta.lo)

        # unit shift at the compensation orbit
        res = shift_schwarzschild(P.M_geom, EARTH.r_A, 1.5 * EARTH.r_A)
        assert abs(res.delta.to_float()) <= 1e-18

        # closed form vs metric-contraction path
        for scenario in (earth_link(leo_radius()), earth_link(geo_radius()),
                         sat_link(leo_radius(), geo_radius())):
            closed = shift(scenario)
            generic = shift_via_contraction(scenario)
            rel = abs((closed.f - generic.f).to_float()) / closed.f.to_float()
            assert rel <= 1e-24

        # compensated pipeline vs 50-digit oracle: presets ...
        for r_b in (leo_radius(), geo_radius()):
            mine = shift_ground_to_sat(earth_link(r_b)).delta.to_decimal()
            ref = delta_exact_ground(P.M_geom, P.a, EARTH.r_A, EARTH.omega_A,
                                     r_b, +1, 50)
            assert abs(float(mine - ref)) <= 1e-28
        mine = shift_sat_to_sat(sat_link(leo_radius(), geo_radius())).delta.to_decimal()
        ref = delta_exact_sats(P.M_geom, P.a, leo_radius(), geo_radius(), 1, 1, 50)
        assert abs(float(mine - ref)) <= 1e-28

        # ... and a 100-point cloud within +/-10% of the preset parameters
        import random
        rng = random.Random(1234567)
        for _ in range(100):
            wiggle = lambda x: x * (1.0 + 0.1 * (2.0 * rng.random() - 1.0))
            m, a = wiggle(P.M_geom), wiggle(P.a)
            r_a, w = wiggle(EARTH.r_A), wiggle(EARTH.omega_A)
            r_b = max(wiggle(geo_radius() if rng.random() < 0.5 else leo_radius()),
                      1.02 * r_a)
            eps = rng.choice((+1, -1))
            s = LinkScenario(Worldline.ground_station(r_a, w),
                             Worldline.circular_orbit(r_b, eps),
                             SpacetimeParams(m, a))
            mine = shift_ground_to_sat(s).delta.to_decimal()
            ref = delta_exact_ground(m, a, r_a, w, r_b, eps, 50)
            assert abs(float(mine - ref)) <= 1e-28


def test_6_series_validation():
    with criterion(6, "series coefficients vs analytic terms", 300.0):
        coef_mass = extract_series_coefficient(
            SeriesParam.R_S, 1, M=P.M_geom, a=P.a, r_A=EARTH.r_A,
            omega_A_si=EARTH.omega_A, r_B=leo_radius(), digits=80)
        analytic_mass = earth_decomposition(leo_radius()).delta_S.to_float() / P.r_S
        assert within(coef_mass, analytic_mass, 1e-4)

        coef_rot = extract_series_coefficient(
            SeriesParam.OMEGA_A, 2, M=P.M_geom, a=P.a, r_A=EARTH.r_A,
            omega_A_si=EARTH.omega_A, r_B=leo_radius(), digits=80)
        analytic_rot = -0.5 * (EARTH.r_A / C) ** 2
        assert within(coef_rot, analytic_rot, 1e-4)


def test_7_geodesic_crosscheck():
    with criterion(7, "radial geodesic integrator vs closed form", 60.0):
        for r_b in (leo_radius(), geo_radius()):
            res = integrate_schwarzschild_radial(P.M_geom, EARTH.r_A, r_b)
            closed = shift_schwarzschild(P.M_geom, EARTH.r_A, r_b)
            dev_scale_err = abs((res.f_numeric - closed.f).to_float()) \
                / abs(closed.delta.to_float())
            assert dev_scale_err <= 1e-3
            assert res.trace.energy_drift <= 1e-13
            assert res.trace.phidot_max == 0.0


def test_8_overlap_consistency():
    with criterion(8, "overlap quadrature and QBER consistency", 30.0):
        packet = GaussianWavepacket.of(7e14, 1e6)
        for delta in (-1e-2, -1e-6, -1e-10, -1e-12, 1e-12, 1e-10, 1e-6, 1e-2):
            analytic = overlap_analytic(packet, delta)
            received = propagate(packet, DD(1.0) + DD(delta))
            numeric = overlap_numeric(received, packet)
            assert abs(numeric.theta - analytic.theta) <= 1e-9

        delta = 1e-10
        deficit = overlap_analytic(packet, delta).deficit
        rate = qber(delta, CFG)
        assert abs(deficit / (2.0 * rate) - 1.0) <= 1e-2
