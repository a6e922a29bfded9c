"""Physical constants, SI <-> geometric-unit conversion, planet models and the
dimensionless perturbative ratios that control every result downstream.

Geometric units put G = c = 1 so that masses, angular momenta per unit mass
and times are all lengths in meters.  Angular velocities convert once at this
boundary: omega_geometric = omega_SI / c, in 1/m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError


# The one gravitational constant and speed of light behind every conversion.
G = 6.674e-11  # m^3 kg^-1 s^-2
C = 2.99792458e8  # m/s


def geometric_mass(mass_kg: float) -> float:
    """Convert a mass in kg to its geometric length G*m/c^2 in meters."""
    if not 0.0 < mass_kg < math.inf:
        raise DomainError(f"mass_kg must be finite and positive, got {mass_kg}")
    return G * mass_kg / (C * C)


def kerr_parameter_from_inertia(inertia: float, omega: float,
                                mass_kg: float) -> float:
    """Spin parameter a = J/M in meters from a moment of inertia.

    In SI terms a = I*omega/(M*c); equivalently a = 2*I_geom*omega_geom/r_S
    with every factor in geometric units.
    """
    for name, value in (("inertia", inertia), ("omega", omega),
                        ("mass_kg", mass_kg)):
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
    if inertia <= 0.0 or mass_kg <= 0.0:
        raise DomainError("moment of inertia and mass must be positive")
    if omega < 0.0:
        raise DomainError("angular velocity must be non-negative")
    return inertia * omega / (mass_kg * C)


@dataclass(frozen=True)
class SpacetimeParams:
    """Rotating-planet spacetime in geometric units.

    ``a`` may exceed the geometric mass: a planet is no black hole, so no
    horizon condition is imposed (Earth has a ~ 3.3 m against M ~ 4.4 mm).
    """

    M_geom: float  # geometric mass, m
    a: float  # spin parameter J/M, m

    def __post_init__(self):
        for name in ("M_geom", "a"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(
                    f"SpacetimeParams.{name} must be finite, got {getattr(self, name)}")
        if self.M_geom <= 0.0:
            raise DomainError("geometric mass must be positive")
        if self.a < 0.0:
            raise DomainError("spin parameter must be non-negative")

    @property
    def r_S(self) -> float:
        """Schwarzschild radius, exactly twice the geometric mass."""
        return 2.0 * self.M_geom

    @property
    def J_geom(self) -> float:
        """Angular momentum in geometric units (m^2)."""
        return self.a * self.M_geom


@dataclass(frozen=True)
class EarthModel:
    """Equatorial Earth figures used by the presets.

    The moment of inertia default is chosen so that I*omega/(M*c) reproduces
    the quoted spin parameter a = 3.26 m; consistency within 1% is enforced.
    """

    mass_kg: float = 5.97e24
    r_A: float = 6.378e6  # equatorial radius, m
    omega_A: float = 7.29e-5  # equatorial angular velocity, rad/s
    a_m: float = 3.26  # spin parameter, m
    inertia: float = 8.03e37  # moment of inertia, kg m^2

    def __post_init__(self):
        for name in ("mass_kg", "r_A", "omega_A", "a_m", "inertia"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise DomainError(f"EarthModel.{name} must be finite and "
                                  f"positive, got {getattr(self, name)}")
        implied = kerr_parameter_from_inertia(self.inertia, self.omega_A, self.mass_kg)
        if abs(implied - self.a_m) > 0.01 * self.a_m:
            raise DomainError(
                "moment of inertia inconsistent with spin parameter: "
                f"I*omega/(M*c) = {implied:.4f} m vs a = {self.a_m} m"
            )

    def spacetime(self) -> SpacetimeParams:
        return SpacetimeParams(geometric_mass(self.mass_kg), self.a_m)


EARTH = EarthModel()

# Preset orbit altitudes above the equatorial radius.
LEO_ALTITUDE_M = 2.000e6
GEO_ALTITUDE_M = 3.5784e7


def leo_radius() -> float:
    return EARTH.r_A + LEO_ALTITUDE_M


def geo_radius() -> float:
    return EARTH.r_A + GEO_ALTITUDE_M


@dataclass(frozen=True)
class DimensionlessParams:
    """The five small ratios steering the perturbative expansion."""

    m_over_rA: float
    m_over_rB: float
    a_over_rA: float
    a_over_rB: float
    rA_omegaA: float

    def __post_init__(self):
        for name in ("m_over_rA", "m_over_rB", "a_over_rA", "a_over_rB", "rA_omegaA"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise DomainError(f"DimensionlessParams.{name} = {v} not in (0, 1)")


def dimensionless_params(earth: EarthModel, r_B: float) -> DimensionlessParams:
    """Populate the five ratios for a ground station at r_A and an orbit at r_B."""
    if r_B <= earth.r_A:
        raise DomainError(f"orbit radius {r_B} must exceed the surface radius {earth.r_A}")
    m = geometric_mass(earth.mass_kg)
    return DimensionlessParams(
        m_over_rA=m / earth.r_A,
        m_over_rB=m / r_B,
        a_over_rA=earth.a_m / earth.r_A,
        a_over_rB=earth.a_m / r_B,
        rA_omegaA=earth.r_A * earth.omega_A / C,
    )
