"""Observers in the equatorial spacetime of a rotating planet: ground-station
and circular-orbit worldlines, and each endpoint's deviation from flat space,
written once and shared by the closed form in ``shift`` and the contraction
route in ``crosscheck``.

Everything is in geometric units (meters).  The deviations are of order 1e-9
for Earth and the downstream shift needs more than 20 significant digits of
them, so they are written as dimensionless ratios on an arithmetic passed in
(``A``, which supplies ``ONE``, ``product`` and ``quotient``): the closed
form's scaled integers (``fixed.Scale``), on one radius or a sweep chunk's
list of them, or the contraction route's double-double (the ``DD`` class
itself), on one radius.  The polar direction is dropped throughout -- all
motion and propagation happens in the equatorial plane.
"""

from __future__ import annotations

import enum
import math

from .ddouble import DD, floats
from .errors import DomainError
from .record import Frozen
from .units import C, SpacetimeParams


class WorldlineKind(enum.Enum):
    GROUND_STATION = "ground-station"
    CIRCULAR_ORBIT = "circular-orbit"


class Worldline(Frozen):
    """An observer: a co-rotating ground station or a circular geodesic orbit.

    Ground stations keep their spin rate as given, ``omega_si`` in rad/s;
    ``omega_geom`` is omega/c in 1/m as a compensated value: a single float
    rounding would already move the rotation term of the shift by ~1e-28.
    Circular orbits never store an angular velocity; the geodesic value
    sqrt(M/r^3) is recomputed wherever needed so it cannot go stale.
    ``direction`` is +1 for co-rotating orbits, -1 for retrograde.  ``r`` may
    be a sweep chunk's list of radii, one orbit per element, each element
    checked; only the closed form (on ``fixed``) runs on such a list.
    """

    __slots__ = ("kind", "r", "omega_si", "direction")

    def __init__(self, kind: WorldlineKind, r: float, omega_si: float = 0.0,
                 direction: int = +1):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "omega_si", omega_si)
        object.__setattr__(self, "direction", direction)
        radii = floats(r)
        for x in radii:
            if not math.isfinite(x):
                raise DomainError(f"Worldline.r must be finite, got {x}")
        # by type too: a DD would pass as finite and nest inside omega_geom
        if type(omega_si) not in (int, float) or not math.isfinite(omega_si):
            raise DomainError(
                f"Worldline.omega_si must be a finite float, got {omega_si!r}")
        if any(x <= 0.0 for x in radii):
            raise DomainError("worldline radius must be positive")
        # by type too: True == 1 and 1.0 == 1 would otherwise pass as signs
        if type(direction) is not int or direction not in (+1, -1):
            raise DomainError(
                f"Worldline.direction must be the int +1 or -1, got {direction!r}")
        if kind is WorldlineKind.CIRCULAR_ORBIT and omega_si != 0.0:
            raise DomainError("circular orbits must not store an angular velocity")

    @property
    def omega_geom(self) -> DD:
        """The spin angular velocity omega_si / c, in 1/m."""
        return DD.quotient(self.omega_si, C)

    @staticmethod
    def ground_station(r: float, omega_si: float) -> "Worldline":
        """Ground station at radius r spinning at omega_si rad/s (SI)."""
        return Worldline(WorldlineKind.GROUND_STATION, r, omega_si, +1)

    @staticmethod
    def circular_orbit(r: float, direction: int = +1) -> "Worldline":
        return Worldline(WorldlineKind.CIRCULAR_ORBIT, r, 0.0, direction)


def _check_outside_mass_scale(p: SpacetimeParams, r, what: str) -> None:
    """Refuse a radius, or any radius of a sweep chunk's list, at or inside
    2M."""
    for x in floats(r):
        if x <= 2.0 * p.M_geom:
            raise DomainError(
                f"{what}: radius {x} m does not exceed 2M = {2.0 * p.M_geom} m"
            )


def _ground_parts(A, p: SpacetimeParams, station: Worldline):
    """(2M/r, v, a omega, deviation) of a ground station in the arithmetic
    A, v = omega r the surface speed and the deviation v^2 + (a omega)^2 +
    (2M/r) (1 - a omega)^2 with omega = omega_si / c, so that its
    normalization argument is 1 - deviation.  Every term is a ratio of the
    inputs: no length, and no omega in 1/m, is carried on its own."""
    x = A.quotient(2.0 * p.M_geom, station.r)
    v = A.product(station.omega_si, station.r) / C
    aw = A.product(station.omega_si, p.a) / C
    return x, v, aw, v * v + aw * aw + x * (A.ONE - aw) ** 2


def _orbit_parts(A, p: SpacetimeParams, orbit: Worldline):
    """(M/r, a omega, deviation 3M/r - 2 eps a omega) of a circular orbit in
    the arithmetic A, whose radius may be a list (on ``fixed``); a omega =
    (a/r) sqrt(M/r), its geodesic angular velocity omega = sqrt(M/r^3) taken
    times a, and its normalization argument is 1 - deviation."""
    q = A.quotient(p.M_geom, orbit.r)
    aw = A.quotient(p.a, orbit.r) * q.sqrt()
    return q, aw, 3 * q - 2 * orbit.direction * aw
