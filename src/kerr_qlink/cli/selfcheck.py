"""Built-in verification suites behind `kerr-qlink verify`.

`fast` runs identity, limit and consistency checks in a few seconds; `full`
adds the arbitrary-precision oracle comparisons, numeric series extraction,
the geodesic integrator cross-check and the quadrature/overlap consistency
sweeps.  Every check prints one line; any failure drives a nonzero exit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from ..ddouble import DD
from ..errors import RegimeError
from ..geometry import (
    Worldline,
    contract,
    ground_station_velocity,
    metric_at,
    orbit_velocity,
    photon_tangent,
)
from ..metrology import MetrologyConfig, cramer_rao, qber, qfi, qfi_numeric_limit
from ..oracle import (
    SeriesParam,
    delta_exact_ground,
    delta_exact_sats,
    extract_series_coefficient,
    integrate_schwarzschild_radial,
)
from ..perturb import ShiftDecomposition, decompose_ground, decompose_sats
from ..shift import (
    LinkScenario,
    LinkScheme,
    find_zero_shift_orbit,
    shift,
    shift_ground_to_sat,
    shift_sat_to_sat,
    shift_schwarzschild,
    shift_via_contraction,
)
from ..units import (
    C,
    EARTH,
    G,
    SpacetimeParams,
    dimensionless_params,
    geo_radius,
    geometric_mass,
    kerr_parameter_from_inertia,
    leo_radius,
)
from ..wavepacket import GaussianWavepacket, overlap_analytic, overlap_numeric, propagate


@dataclass(frozen=True)
class Check:
    name: str
    level: str  # "fast" or "full"
    run: Callable[[int], tuple[bool, str]]  # digits -> (ok, detail)


def _earth_scenario(r_B: float, direction: int = +1) -> LinkScenario:
    return LinkScenario(
        LinkScheme.GROUND_TO_SAT,
        Worldline.ground_station(EARTH.r_A, EARTH.omega_A),
        Worldline.circular_orbit(r_B, direction),
        EARTH.spacetime(),
    )


def _earth_decomposition(r_B: float) -> ShiftDecomposition:
    delta = shift_ground_to_sat(_earth_scenario(r_B)).delta
    return decompose_ground(EARTH.spacetime(), EARTH.r_A, EARTH.omega_A, r_B, delta)


def _sat_scenario(r_C: float, r_B: float, eta: int = +1, eps: int = +1) -> LinkScenario:
    return LinkScenario(
        LinkScheme.SAT_TO_SAT,
        Worldline.circular_orbit(r_C, eta),
        Worldline.circular_orbit(r_B, eps),
        EARTH.spacetime(),
    )


# --------------------------------------------------------------------------
# fast checks
# --------------------------------------------------------------------------

def _check_table(digits: int):
    expected = {
        "m_over_rA": 6.95e-10,
        "a_over_rA": 5.11e-7,
        "rA_omegaA": 1.55e-6,
    }
    per_orbit = {
        leo_radius(): {"m_over_rB": 5.29e-10, "a_over_rB": 3.89e-7},
        geo_radius(): {"m_over_rB": 1.05e-10, "a_over_rB": 7.73e-8},
    }
    worst = 0.0
    for r_B, extra in per_orbit.items():
        ratios = dimensionless_params(EARTH, r_B)
        for name, want in {**expected, **extra}.items():
            got = getattr(ratios, name)
            rel = abs(got / want - 1.0)
            worst = max(worst, rel)
            if rel > 5e-3:  # three significant figures
                return False, f"{name} = {got:.4e} vs {want:.3e}"
    return True, f"five ratios reproduced to 3 s.f. (worst {worst:.1e})"


def _check_mass_linearity(digits: int):
    m1 = geometric_mass(EARTH.mass_kg)
    m2 = geometric_mass(2.0 * EARTH.mass_kg)
    ok = abs(m2 - 2.0 * m1) <= 4e-16 * m2
    return ok, f"G m/c^2 doubles with m ({m1:.6e} -> {m2:.6e})"


def _check_spin_identity(digits: int):
    a1 = kerr_parameter_from_inertia(EARTH.inertia, EARTH.omega_A, EARTH.mass_kg)
    # same quantity through geometric quantities: a = 2 I_geom omega_geom / r_S,
    # with I_geom = I G/c^2 (kg m^2 -> m^3) and omega_geom = omega/c
    i_geom = EARTH.inertia * G / C ** 2
    r_s = 2.0 * geometric_mass(EARTH.mass_kg)
    a2 = 2.0 * i_geom * (EARTH.omega_A / C) / r_s
    rel = abs(a1 / a2 - 1.0)
    return rel <= 1e-12, f"two routes to the spin parameter agree to {rel:.1e}"


def _check_metric_limits(digits: int):
    p0 = SpacetimeParams(geometric_mass(EARTH.mass_kg), 0.0)
    g = metric_at(p0, EARTH.r_A)
    if g.g_tphi.to_float() != 0.0:
        return False, "cross term should vanish for a = 0"
    rr = DD.product(EARTH.r_A, EARTH.r_A)
    if (g.g_phiphi - rr).to_float() != 0.0:
        return False, "angular component should reduce to r^2 for a = 0"
    tiny = SpacetimeParams(1e-300, 0.0)  # flat to machine precision
    g2 = metric_at(tiny, EARTH.r_A)
    flat = abs(g2.g_tt.to_float() + 1.0) < 1e-200 and abs(g2.g_rr.to_float() - 1.0) < 1e-200
    return flat, "non-rotating and flat limits recover the reduced components"


def _check_null_identity(digits: int):
    p = EARTH.spacetime()
    worst = 0.0
    n = 200
    for i in range(n):
        r = EARTH.r_A + (10.0 * geo_radius() - EARTH.r_A) * i / (n - 1)
        g = metric_at(p, r)
        _, photon = photon_tangent(p, r, 1.0)
        lhs = photon.kappa * (DD(1.0) - g.dev_tt)
        worst = max(worst, abs((lhs - g.Delta).to_float()))
    return worst <= 1e-30, f"max |kappa (1 - 2M/r) - Delta| = {worst:.2e}"


def _check_observer_norms(digits: int):
    p = EARTH.spacetime()
    worst = 0.0
    station = Worldline.ground_station(EARTH.r_A, EARTH.omega_A)
    g = metric_at(p, EARTH.r_A)
    u = ground_station_velocity(p, station)
    worst = max(worst, abs((contract(g, u, u) + DD(1.0)).to_float()))
    for r in (leo_radius(), geo_radius(), 2.5 * geo_radius()):
        for eps in (+1, -1):
            orbit = Worldline.circular_orbit(r, eps)
            g = metric_at(p, r)
            u = orbit_velocity(p, orbit)
            worst = max(worst, abs((contract(g, u, u) + DD(1.0)).to_float()))
    return worst <= 1e-28, f"max |g(u,u) + 1| = {worst:.2e}"


def _check_flat_shift(digits: int):
    res = shift_schwarzschild(0.0, EARTH.r_A, leo_radius())
    ok = res.f.to_float() == 1.0 and res.delta.to_float() == 0.0
    return ok, "flat-spacetime shift ratio is exactly 1"


def _check_schwarzschild_reduction(digits: int):
    p0 = SpacetimeParams(geometric_mass(EARTH.mass_kg), 0.0)
    for r_B in (leo_radius(), geo_radius(), 1.3 * geo_radius()):
        s = LinkScenario(LinkScheme.GROUND_TO_SAT,
                         Worldline.ground_station(EARTH.r_A, 0.0),
                         Worldline.circular_orbit(r_B, +1), p0)
        a = shift_ground_to_sat(s)
        b = shift_schwarzschild(p0.M_geom, EARTH.r_A, r_B)
        if (a.delta.hi != b.delta.hi) or (a.delta.lo != b.delta.lo):
            return False, f"paths differ at r_B = {r_B}"
    return True, "a = 0, omega = 0 reproduces the non-rotating closed form bit-for-bit"


def _check_epsilon_independence(digits: int):
    p0 = SpacetimeParams(geometric_mass(EARTH.mass_kg), 0.0)
    for r_B in (leo_radius(), geo_radius()):
        res = {}
        for eps in (+1, -1):
            s = LinkScenario(LinkScheme.GROUND_TO_SAT,
                             Worldline.ground_station(EARTH.r_A, EARTH.omega_A),
                             Worldline.circular_orbit(r_B, eps), p0)
            r = shift_ground_to_sat(s)
            res[eps] = (r.delta.hi, r.delta.lo)
        if res[+1] != res[-1]:
            return False, f"direction leaks into the a = 0 shift at r_B = {r_B}"
    return True, "orbit direction drops out exactly once a = 0"


def _check_zero_orbit_schwarzschild(digits: int):
    p0 = SpacetimeParams(geometric_mass(EARTH.mass_kg), 0.0)
    s = LinkScenario(LinkScheme.GROUND_TO_SAT,
                     Worldline.ground_station(EARTH.r_A, 0.0),
                     Worldline.circular_orbit(leo_radius(), +1), p0)
    r_star = find_zero_shift_orbit(s, 1.2 * EARTH.r_A, 2.0 * EARTH.r_A)
    rel = abs(r_star / (1.5 * EARTH.r_A) - 1.0)
    return rel <= 1e-9, f"zero-shift orbit at 1.5 r_A to {rel:.1e}"


def _check_identical_orbits(digits: int):
    s = _sat_scenario(leo_radius(), leo_radius())
    res = shift_sat_to_sat(s)
    ok = res.f.to_float() == 1.0 and res.delta.to_float() == 0.0
    return ok, "identical co-rotating orbits exchange photons unshifted"


def _check_contraction_agreement(digits: int):
    worst = 0.0
    for s in (_earth_scenario(leo_radius()), _earth_scenario(geo_radius()),
              _sat_scenario(leo_radius(), geo_radius())):
        closed = shift(s)
        generic = shift_via_contraction(s)
        rel = abs((closed.f - generic.f).to_float()) / closed.f.to_float()
        worst = max(worst, rel)
    return worst <= 1e-24, f"closed form vs contraction, worst {worst:.1e} relative"


def _check_decomposition_identity(digits: int):
    worst = 0.0
    for r_B in (leo_radius(), geo_radius()):
        exact = shift_ground_to_sat(_earth_scenario(r_B)).delta
        dec = decompose_ground(EARTH.spacetime(), EARTH.r_A, EARTH.omega_A,
                               r_B, exact)
        worst = max(worst, abs((dec.delta_total - exact).to_float()))
    exact = shift_sat_to_sat(_sat_scenario(leo_radius(), geo_radius())).delta
    dec = decompose_sats(EARTH.spacetime(), leo_radius(), geo_radius(), exact)
    worst = max(worst, abs((dec.delta_total - exact).to_float()))
    return worst <= 1e-28, f"delta_S + delta_rot + delta_c = delta to {worst:.1e}"


def _check_propagate_identity(digits: int):
    packet = GaussianWavepacket.of(7e14, 1e6)
    same = propagate(packet, 1.0)
    if (same.peak - packet.peak).to_float() != 0.0:
        return False, "unit shift ratio must leave the packet untouched"
    unity = overlap_analytic(packet, 0.0)
    ok = unity.theta == 1.0 and unity.deficit == 0.0
    return ok, "unit shift keeps the packet; zero delta gives unit overlap"


def _check_cramer_rao_scaling(digits: int):
    cfg = MetrologyConfig()
    h = qfi(cfg)
    base = cramer_rao(h, 1e8)
    scaled = cramer_rao(h, 1e10)
    rel = abs(scaled * 10.0 / base - 1.0)
    return rel <= 1e-12, f"bound scales as 1/sqrt(N) to {rel:.1e}"


def _check_qber_refusal(digits: int):
    cfg = MetrologyConfig()
    try:
        qber(0.0, cfg)
    except RegimeError:
        return True, "degenerate delta = 0 is refused with a classification"
    return False, "QBER accepted a degenerate shift"


# --------------------------------------------------------------------------
# full checks
# --------------------------------------------------------------------------

def _check_oracle_presets(digits: int):
    p = EARTH.spacetime()
    worst = 0.0
    for r_B in (leo_radius(), geo_radius()):
        mine = shift_ground_to_sat(_earth_scenario(r_B)).delta.to_decimal()
        ref = delta_exact_ground(p.M_geom, p.a, EARTH.r_A, EARTH.omega_A,
                                 r_B, +1, digits)
        worst = max(worst, abs(float(mine - ref)))
    mine = shift_sat_to_sat(_sat_scenario(leo_radius(), geo_radius())).delta.to_decimal()
    ref = delta_exact_sats(p.M_geom, p.a, leo_radius(), geo_radius(), +1, +1, digits)
    worst = max(worst, abs(float(mine - ref)))
    return worst <= 1e-28, f"compensated vs {digits}-digit delta, worst {worst:.1e}"


def _check_oracle_cloud(digits: int):
    p = EARTH.spacetime()
    rng = random.Random(20260808)
    worst = 0.0
    for _ in range(100):
        scale = lambda x: x * (1.0 + 0.1 * (2.0 * rng.random() - 1.0))
        m = scale(p.M_geom)
        a = scale(p.a)
        r_a = scale(EARTH.r_A)
        w = scale(EARTH.omega_A)
        r_b = scale(leo_radius() if rng.random() < 0.5 else geo_radius())
        r_b = max(r_b, r_a * 1.05)
        eps = +1 if rng.random() < 0.5 else -1
        s = LinkScenario(LinkScheme.GROUND_TO_SAT,
                         Worldline.ground_station(r_a, w),
                         Worldline.circular_orbit(r_b, eps),
                         SpacetimeParams(m, a))
        mine = shift_ground_to_sat(s).delta.to_decimal()
        ref = delta_exact_ground(m, a, r_a, w, r_b, eps, digits)
        worst = max(worst, abs(float(mine - ref)))
    return worst <= 1e-28, f"100-point cloud vs oracle, worst {worst:.1e}"


def _check_oracle_self_consistency(digits: int):
    p = EARTH.spacetime()
    lo = delta_exact_ground(p.M_geom, p.a, EARTH.r_A, EARTH.omega_A,
                            leo_radius(), +1, 50)
    hi = delta_exact_ground(p.M_geom, p.a, EARTH.r_A, EARTH.omega_A,
                            leo_radius(), +1, 80)
    diff = abs(float(lo - hi))
    return diff <= 1e-40, f"50 vs 80 digit evaluations differ by {diff:.1e}"


def _check_series_mass(digits: int):
    p = EARTH.spacetime()
    coef = extract_series_coefficient(
        SeriesParam.R_S, 1, M=p.M_geom, a=p.a, r_A=EARTH.r_A,
        omega_A_si=EARTH.omega_A, r_B=leo_radius(), digits=max(80, digits))
    dec = _earth_decomposition(leo_radius())
    analytic = dec.delta_S.to_float() / p.r_S
    rel = abs(coef / analytic - 1.0)
    return rel <= 1e-4, f"d delta/d r_S vs mass-term slope: {rel:.1e} relative"


def _check_series_rotation(digits: int):
    p = EARTH.spacetime()
    coef = extract_series_coefficient(
        SeriesParam.OMEGA_A, 2, M=p.M_geom, a=p.a, r_A=EARTH.r_A,
        omega_A_si=EARTH.omega_A, r_B=leo_radius(), digits=max(80, digits))
    analytic = -0.5 * (EARTH.r_A / C) ** 2
    rel = abs(coef / analytic - 1.0)
    return rel <= 1e-4, f"omega^2 Taylor coefficient vs rotation term: {rel:.1e}"


def _check_series_spin(digits: int):
    p = EARTH.spacetime()
    coef = extract_series_coefficient(
        SeriesParam.SPIN, 1, M=p.M_geom, a=p.a, r_A=EARTH.r_A,
        omega_A_si=0.0, r_B=leo_radius(), digits=max(80, digits))
    bound = abs(coef * p.a)
    return bound <= 1e-20, f"|a d delta/d a| = {bound:.1e} (residual scale)"


def _check_geodesic(digits: int):
    p = EARTH.spacetime()
    worst = 0.0
    for r_B in (leo_radius(), geo_radius()):
        res = integrate_schwarzschild_radial(p.M_geom, EARTH.r_A, r_B)
        closed = shift_schwarzschild(p.M_geom, EARTH.r_A, r_B)
        dev = abs((res.f_numeric - closed.f).to_float()) \
            / abs(closed.delta.to_float())
        worst = max(worst, dev)
        if res.trace.energy_drift > 1e-13:
            return False, f"energy drift {res.trace.energy_drift:.1e}"
        if res.trace.phidot_max != 0.0:
            return False, "angular velocity of the radial photon left zero"
    return worst <= 1e-3, f"integrated vs closed-form shift, worst {worst:.1e} of the deviation"


def _check_geodesic_flat(digits: int):
    res = integrate_schwarzschild_radial(0.0, EARTH.r_A, leo_radius())
    err = abs(res.f_numeric.to_float() - 1.0)
    return err <= 1e-13, f"flat-spacetime integration returns f = 1 + {err:.1e}"


def _check_quadrature_grid(digits: int):
    packet = GaussianWavepacket.of(7e14, 1e6)
    worst = 0.0
    for delta in (-1e-2, -1e-6, -1e-10, -1e-12, 1e-12, 1e-10, 1e-6, 1e-2):
        analytic = overlap_analytic(packet, delta)
        received = propagate(packet, DD(1.0) + DD(delta))
        numeric = overlap_numeric(received, packet)
        worst = max(worst, abs(numeric.theta - analytic.theta))
    return worst <= 1e-9, f"quadrature vs closed form, worst {worst:.1e} absolute"


def _check_qber_overlap(digits: int):
    cfg = MetrologyConfig()
    packet = GaussianWavepacket.of(cfg.omega1, cfg.sigma)
    delta = 1e-10
    deficit = overlap_analytic(packet, delta).deficit
    rate = qber(delta, cfg)
    rel = abs(deficit / (2.0 * rate) - 1.0)
    return rel <= 1e-2, f"1 - theta^2 vs 2 QBER at delta = 1e-10: {rel:.1e}"


def _check_qfi_numeric_limit(digits: int):
    cfg = MetrologyConfig()
    rel = abs(qfi_numeric_limit(cfg) / qfi(cfg) - 1.0)
    return rel <= 1e-6, f"fidelity-limit route vs closed form: {rel:.1e} relative"


def _check_residual_magnitude(digits: int):
    # Published order-of-magnitude claim for the residual; the measured
    # residual is dominated by second-order mass terms and sits near 1e-19,
    # so this check documents a known discrepancy (see the test suite notes).
    worst = 0.0
    for r_B in (leo_radius(), geo_radius()):
        dec = _earth_decomposition(r_B)
        worst = max(worst, abs(dec.delta_c.to_float()))
    return worst <= 1e-20, f"ground residual magnitude {worst:.1e} vs published 1e-20 bound"


CHECKS: tuple[Check, ...] = (
    Check("preset parameter ratios (3 s.f.)", "fast", _check_table),
    Check("geometric mass linearity", "fast", _check_mass_linearity),
    Check("spin parameter identity", "fast", _check_spin_identity),
    Check("metric limit cases", "fast", _check_metric_limits),
    Check("null identity on radial grid", "fast", _check_null_identity),
    Check("observer norms", "fast", _check_observer_norms),
    Check("flat-spacetime unit shift", "fast", _check_flat_shift),
    Check("non-rotating reduction, bit-exact", "fast", _check_schwarzschild_reduction),
    Check("direction independence at a = 0", "fast", _check_epsilon_independence),
    Check("zero-shift orbit at 1.5 r_A", "fast", _check_zero_orbit_schwarzschild),
    Check("identical orbits give unit shift", "fast", _check_identical_orbits),
    Check("closed form vs contraction", "fast", _check_contraction_agreement),
    Check("decomposition sum identity", "fast", _check_decomposition_identity),
    Check("packet propagation identity", "fast", _check_propagate_identity),
    Check("Cramer-Rao probe scaling", "fast", _check_cramer_rao_scaling),
    Check("QBER regime refusal", "fast", _check_qber_refusal),
    Check("oracle agreement on presets", "full", _check_oracle_presets),
    Check("oracle agreement on random cloud", "full", _check_oracle_cloud),
    Check("oracle self-consistency 50/80 digits", "full", _check_oracle_self_consistency),
    Check("series: mass coefficient", "full", _check_series_mass),
    Check("series: rotation coefficient", "full", _check_series_rotation),
    Check("series: spin linear term bound", "full", _check_series_spin),
    Check("geodesic integrator vs closed form", "full", _check_geodesic),
    Check("geodesic integrator, flat limit", "full", _check_geodesic_flat),
    Check("overlap quadrature grid", "full", _check_quadrature_grid),
    Check("QBER vs overlap deficit", "full", _check_qber_overlap),
    Check("QFI numeric limit", "full", _check_qfi_numeric_limit),
    Check("delta_c residual <= 1e-20", "full", _check_residual_magnitude),
)


def run_verify(level: str = "fast", digits: int = 50, echo=print) -> int:
    """Run the selected suite; returns 0 on success, 4 on any failure."""
    if level not in ("fast", "full"):
        raise ValueError("verify level must be 'fast' or 'full'")
    selected = [c for c in CHECKS if c.level == "fast" or level == "full"]
    failures = 0
    for check in selected:
        try:
            ok, detail = check.run(digits)
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        mark = "  ok " if ok else " FAIL"
        echo(f"[{mark}] {check.name}: {detail}")
        if not ok:
            failures += 1
    echo(f"{len(selected) - failures}/{len(selected)} checks passed")
    return 0 if failures == 0 else 4
