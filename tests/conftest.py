import pytest
from hypothesis import settings

from kerr_qlink.geometry import Worldline
from kerr_qlink.perturb import ShiftDecomposition, decompose_ground, decompose_sats
from kerr_qlink.shift import LinkScenario, shift
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
    """decompose_ground for the Earth station, fed the exact shift of earth_link."""
    link = earth_link(r_B)
    return decompose_ground(link, shift(link).delta)


def sats_decomposition(r_C: float, r_B: float) -> ShiftDecomposition:
    """decompose_sats for two Earth orbits, fed the exact shift of sat_link."""
    link = sat_link(r_C, r_B)
    return decompose_sats(link, shift(link).delta)


@pytest.fixture
def leo_scenario() -> LinkScenario:
    return earth_link(leo_radius())


@pytest.fixture
def geo_scenario() -> LinkScenario:
    return earth_link(geo_radius())


@pytest.fixture
def sats_scenario() -> LinkScenario:
    return sat_link(leo_radius(), geo_radius())
