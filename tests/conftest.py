from decimal import Decimal, localcontext

import pytest
from hypothesis import settings

from kerr_qlink.fixed import ERROR_UNITS, link_scale
from kerr_qlink.geometry import Worldline
from kerr_qlink.oracle import delta_exact_ground, delta_exact_sats
from kerr_qlink.perturb import ShiftDecomposition, decompose_ground, decompose_sats
from kerr_qlink.shift import LinkScenario, LinkScheme, shift
from kerr_qlink.units import EARTH, geo_radius, leo_radius

# deterministic property tests, no wall-clock flakiness on slow runners
settings.register_profile("kerr-qlink", deadline=None, derandomize=True)
settings.load_profile("kerr-qlink")


def earth_link(r_B: float, direction: int = +1,
               omega: float = EARTH.omega_A, a: float = None) -> LinkScenario:
    params = EARTH.spacetime()
    if a is not None:
        from kerr_qlink.units import SpacetimeParams
        params = SpacetimeParams(params.M_geom, a)
    return LinkScenario(
        Worldline.ground_station(EARTH.r_A, omega),
        Worldline.circular_orbit(r_B, direction),
        params,
    )


def sat_link(r_C: float, r_B: float, eta: int = +1, eps: int = +1) -> LinkScenario:
    return LinkScenario(
        Worldline.circular_orbit(r_C, eta),
        Worldline.circular_orbit(r_B, eps),
        EARTH.spacetime(),
    )


def earth_decomposition(r_B: float) -> ShiftDecomposition:
    """decompose_ground of earth_link, from the evaluation of its shift."""
    return shift(earth_link(r_B), decompose_ground)[1]


def sats_decomposition(r_C: float, r_B: float) -> ShiftDecomposition:
    """decompose_sats of sat_link, from the evaluation of its shift."""
    return shift(sat_link(r_C, r_B), decompose_sats)[1]


def delta_gap(cfg, hi: float, lo: float, digits: int = 80) -> tuple:
    """(|hi + lo - delta|, bound) of a config's delta cell: the gap to the
    Decimal oracle's delta, at ``digits`` digits or more where the link's
    fixed-point scale 2**-k is finer, and the closed form's bound on it,
    ERROR_UNITS units of 2**-k plus the rounding to limbs (2**-106 |delta|,
    or half the least subnormal)."""
    k = link_scale(cfg.link()).k
    digits = max(digits, 40 + k * 3 // 10)
    p = cfg.spacetime()
    if cfg.scheme is LinkScheme.GROUND_TO_SAT:
        ref = delta_exact_ground(p.M_geom, p.a, cfg.emitter_radius_m,
                                 cfg.ground_omega_rad_s, cfg.receiver_radius_m,
                                 cfg.receiver_direction, digits)
    else:
        ref = delta_exact_sats(p.M_geom, p.a, cfg.emitter_radius_m,
                               cfg.receiver_radius_m, cfg.emitter_direction,
                               cfg.receiver_direction, digits)
    with localcontext() as ctx:
        ctx.prec = digits + 800  # holds hi + lo, subnormal limbs too
        two = Decimal(2)
        gap = abs(Decimal(hi) + Decimal(lo) - ref)
        bound = (abs(ref) / two ** 106 + two ** -1075
                 + ERROR_UNITS / two ** k)
    return gap, bound


@pytest.fixture
def leo_scenario() -> LinkScenario:
    return earth_link(leo_radius())


@pytest.fixture
def geo_scenario() -> LinkScenario:
    return earth_link(geo_radius())


@pytest.fixture
def sats_scenario() -> LinkScenario:
    return sat_link(leo_radius(), geo_radius())
