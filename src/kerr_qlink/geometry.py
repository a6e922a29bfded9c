"""Equatorial metric of a rotating planet, observer four-velocities, the
radial-photon tangent vector, and the bilinear metric contraction.

Everything is evaluated in geometric units (meters) and carried in
double-double arithmetic: the metric deviations from flat space are of order
1e-9 for Earth and the downstream shift needs more than 20 significant digits
of them.  The polar direction is dropped throughout -- all motion and
propagation happens in the equatorial plane.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .ddouble import DD, ONE
from .errors import DomainError
from .units import C, SpacetimeParams


class WorldlineKind(enum.Enum):
    GROUND_STATION = "ground-station"
    CIRCULAR_ORBIT = "circular-orbit"


@dataclass(frozen=True)
class Worldline:
    """An observer: a co-rotating ground station or a circular geodesic orbit.

    Ground stations carry their spin angular velocity, already converted to
    geometric units (1/m) as a compensated value: a single float rounding of
    omega/c would already move the rotation term of the shift by ~1e-28.
    Circular orbits never store an angular velocity; the geodesic value
    sqrt(M/r^3) is recomputed wherever needed so it cannot go stale.
    ``direction`` is +1 for co-rotating orbits, -1 for retrograde.
    """

    kind: WorldlineKind
    r: float
    omega_geom: DD = DD(0.0)
    direction: int = +1

    def __post_init__(self):
        if not math.isfinite(self.r):
            raise DomainError(f"Worldline.r must be finite, got {self.r}")
        if not math.isfinite(float(self.omega_geom)):
            raise DomainError(
                f"Worldline.omega_geom must be finite, got {self.omega_geom!r}")
        if self.r <= 0.0:
            raise DomainError("worldline radius must be positive")
        # by type too: True == 1 and 1.0 == 1 would otherwise pass as signs
        if type(self.direction) is not int or self.direction not in (+1, -1):
            raise DomainError(
                f"Worldline.direction must be the int +1 or -1, got {self.direction!r}")
        if self.kind is WorldlineKind.CIRCULAR_ORBIT and self.omega_geom.sign() != 0:
            raise DomainError("circular orbits must not store an angular velocity")

    @staticmethod
    def ground_station(r: float, omega_si: float) -> "Worldline":
        """Ground station at radius r spinning at omega_si rad/s (SI)."""
        return Worldline(WorldlineKind.GROUND_STATION, r,
                         DD.quotient(omega_si, C), +1)

    @staticmethod
    def circular_orbit(r: float, direction: int = +1) -> "Worldline":
        return Worldline(WorldlineKind.CIRCULAR_ORBIT, r, DD(0.0), direction)


@dataclass(frozen=True)
class FourVector:
    """Equatorial four-vector; the polar component is identically zero."""

    t_comp: DD
    r_comp: DD
    phi_comp: DD


@dataclass(frozen=True)
class MetricAt:
    """Metric components at one equatorial radius.

    ``dev_tt`` keeps the deviation 2M/r separately so that g_tt = -(1 - dev_tt)
    never buries the 1e-9 physics inside the leading 1.
    """

    r: float
    dev_tt: DD  # 2M/r
    g_rr: DD  # 1/Delta
    g_phiphi: DD  # r^2 + a^2 + 2 M a^2 / r
    g_tphi: DD  # -2 M a / r
    Delta: DD  # 1 - 2M/r + a^2/r^2

    @property
    def g_tt(self) -> DD:
        return self.dev_tt - ONE


def _check_outside_mass_scale(p: SpacetimeParams, r: float, what: str) -> None:
    if r <= 2.0 * p.M_geom:
        raise DomainError(
            f"{what}: radius {r} m does not exceed 2M = {2.0 * p.M_geom} m"
        )


def metric_at(p: SpacetimeParams, r: float) -> MetricAt:
    """Equatorial metric components at radius r (meters)."""
    _check_outside_mass_scale(p, r, "metric_at")
    x = DD.quotient(2.0 * p.M_geom, r)  # 2M/r
    aa = DD.product(p.a, p.a)
    rr = DD.product(r, r)
    delta = ONE - x + aa / rr
    g_phiphi = rr + aa + aa * x
    g_tphi = -(x * p.a)
    return MetricAt(r=r, dev_tt=x, g_rr=ONE / delta, g_phiphi=g_phiphi,
                    g_tphi=g_tphi, Delta=delta)


def orbit_angular_velocity(p: SpacetimeParams, r: float) -> DD:
    """Geodesic circular-orbit angular velocity sqrt(M/r^3), in 1/m."""
    if r <= 0.0:
        raise DomainError("orbit radius must be positive")
    return (DD.of(p.M_geom) / (DD.of(r) ** 3)).sqrt()


def ground_station_normalization(p: SpacetimeParams, w: Worldline) -> tuple[DD, DD]:
    """Return (gamma, gamma_argument) for a spinning ground station.

    gamma_argument = 1 - omega^2 (r^2 + a^2) - (2M/r)(1 - a*omega)^2 must be
    positive, otherwise the station would be superluminal.
    """
    wg = w.omega_geom
    x = DD.quotient(2.0 * p.M_geom, w.r)
    aw = wg * p.a
    arg = ONE - wg * wg * (DD.product(w.r, w.r) + DD.product(p.a, p.a)) \
        - x * (ONE - aw) ** 2
    if arg.sign() <= 0:
        raise DomainError(
            "ground-station normalization argument is not positive "
            f"(superluminal worldline at r = {w.r} m)"
        )
    return ONE / arg.sqrt(), arg


def three_m_over_r(p: SpacetimeParams, r: float) -> DD:
    """3M/r with the 3*M product captured exactly (3M is not a float)."""
    return DD.product(3.0, p.M_geom) / r


def orbit_normalization(p: SpacetimeParams, w: Worldline) -> tuple[DD, DD, DD]:
    """Return (gamma, gamma_argument, omega_orbit) for a circular orbit.

    gamma_argument = 1 - 3M/r + 2 eps a omega must be positive; it fails close
    to the photon-orbit scale, far inside any planetary application.
    """
    omega = orbit_angular_velocity(p, w.r)
    aw = omega * p.a
    arg = ONE - three_m_over_r(p, w.r) + 2.0 * w.direction * aw
    if arg.sign() <= 0:
        raise DomainError(
            "orbit normalization argument is not positive "
            f"(r = {w.r} m is inside the photon-orbit pathology)"
        )
    return ONE / arg.sqrt(), arg, omega


def ground_station_velocity(p: SpacetimeParams, w: Worldline) -> FourVector:
    """Four-velocity gamma * (1, 0, omega) of a spinning ground station."""
    if w.kind is not WorldlineKind.GROUND_STATION:
        raise DomainError("ground_station_velocity requires a ground-station worldline")
    gamma, _ = ground_station_normalization(p, w)
    return FourVector(gamma, DD(0.0), gamma * w.omega_geom)


def orbit_velocity(p: SpacetimeParams, w: Worldline) -> FourVector:
    """Four-velocity gamma * (1 + eps a omega, 0, eps omega) of a circular orbit."""
    if w.kind is not WorldlineKind.CIRCULAR_ORBIT:
        raise DomainError("orbit_velocity requires a circular-orbit worldline")
    gamma, _, omega = orbit_normalization(p, w)
    eps = w.direction
    return FourVector(gamma * (ONE + eps * omega * p.a), DD(0.0),
                      gamma * omega * eps)


@dataclass(frozen=True)
class PhotonState:
    """Constants of motion of a geometrically radial photon.

    ``kappa`` is the squared-radial-component factor of the tangent vector;
    ``L_gamma_at_r`` is the longitudinal angular momentum expression evaluated
    pointwise at the construction radius.
    """

    E_gamma: float
    kappa: DD
    L_gamma_at_r: DD


def photon_tangent(p: SpacetimeParams, r: float, E_gamma: float) -> tuple[FourVector, PhotonState]:
    """Tangent vector k = E * (1/(1 - 2M/r), sqrt(kappa), 0) of a radial photon."""
    _check_outside_mass_scale(p, r, "photon_tangent")
    if E_gamma <= 0.0:
        raise DomainError("photon energy must be positive")
    x = DD.quotient(2.0 * p.M_geom, r)
    one_minus_x = ONE - x
    aa_over_rr = DD.product(p.a, p.a) / DD.product(r, r)
    ma_over_rr = DD.product(p.M_geom, p.a) / DD.product(r, r)
    kappa = ONE + aa_over_rr * (ONE + x) + 4.0 * ma_over_rr * ma_over_rr / one_minus_x
    k = FourVector(DD.of(E_gamma) / one_minus_x,
                   E_gamma * kappa.sqrt(),
                   DD(0.0))
    ell = -(x * (p.a * E_gamma)) / one_minus_x
    return k, PhotonState(E_gamma=E_gamma, kappa=kappa, L_gamma_at_r=ell)


def contract(g: MetricAt, x: FourVector, y: FourVector) -> DD:
    """Full bilinear contraction g(x, y) in the equatorial plane."""
    return (
        g.g_tt * (x.t_comp * y.t_comp)
        + g.g_rr * (x.r_comp * y.r_comp)
        + g.g_phiphi * (x.phi_comp * y.phi_comp)
        + g.g_tphi * (x.t_comp * y.phi_comp + x.phi_comp * y.t_comp)
    )
