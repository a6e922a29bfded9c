"""Observers in the equatorial spacetime of a rotating planet: ground-station
and circular-orbit worldlines, the geodesic orbit angular velocity, and each
endpoint's deviation from flat space, written once and shared by the closed
form in ``shift`` and the contraction route in ``crosscheck``.

Everything is evaluated in geometric units (meters) and carried in
double-double arithmetic: the metric deviations from flat space are of order
1e-9 for Earth and the downstream shift needs more than 20 significant digits
of them.  The polar direction is dropped throughout -- all motion and
propagation happens in the equatorial plane.
"""

from __future__ import annotations

import enum
import math
import sys

from .ddouble import DD, ONE, floats
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
    be a column of radii, one orbit per element, each element checked.
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
    """Refuse a radius, or any radius of a column, at or inside 2M."""
    for x in floats(r):
        if x <= 2.0 * p.M_geom:
            raise DomainError(
                f"{what}: radius {x} m does not exceed 2M = {2.0 * p.M_geom} m"
            )


# below the largest double whose Dekker split, 134217729 x, stays finite
_SPLIT_LIMIT = 2.0 ** 996


def orbit_angular_velocity(p: SpacetimeParams, r):
    """Geodesic circular-orbit angular velocity sqrt(M/r^3), in 1/m, of a
    radius or of a column of radii."""
    for x in floats(r):
        if x <= 0.0:
            raise DomainError("orbit radius must be positive")
    r3 = DD.of(r) ** 3
    # below the normal range r^3 has lost digits, and a zero would divide;
    # from about 2^997 its Dekker split overflows into NaN: show r * r * r
    for x, x3 in zip(floats(r), floats(r3)):
        if not sys.float_info.min <= x3 < _SPLIT_LIMIT:
            raise DomainError(f"orbit radius: r^3 = {x * x * x:.3e} m^3 "
                              "leaves the double-double range")
    return (DD.of(p.M_geom) / r3).sqrt()


def _ground_parts(p: SpacetimeParams, station: Worldline) -> tuple[DD, DD, DD]:
    """(2M/r, a omega, deviation) of a ground station, the deviation omega^2
    (r^2 + a^2) + (2M/r) (1 - a omega)^2, so that its normalization argument
    is 1 - deviation."""
    x = DD.quotient(2.0 * p.M_geom, station.r)
    wg = station.omega_geom
    aw = wg * p.a
    dev = wg * wg * (DD.product(station.r, station.r) + DD.product(p.a, p.a)) \
        + x * (ONE - aw) ** 2
    # a square past about 1e300 overflows, or a Dekker split of it does, into
    # NaN
    for r, d in zip(floats(station.r), floats(dev)):
        if not math.isfinite(d):
            raise DomainError(
                "ground station: deviation omega^2 (r^2 + a^2) + 2M/r (1 - a omega)^2 "
                f"with r = {r} m and a = {p.a} m leaves the double-double range")
    return x, aw, dev


def _orbit_parts(p: SpacetimeParams, orbit: Worldline) -> tuple[DD, DD, DD]:
    """(omega = sqrt(M/r^3), a omega, deviation 3M/r - 2 eps a omega) of a
    circular orbit, whose radius may be a column; its normalization argument
    is 1 - deviation.  3M is not a float: the 3*M product is captured
    exactly."""
    r, eps = orbit.r, orbit.direction
    omega = orbit_angular_velocity(p, r)
    aw = omega * p.a
    dev = DD.product(3.0, p.M_geom) / r - 2.0 * eps * aw
    return omega, aw, dev
