"""Exact frequency shift f and cancellation-safe delta = f - 1 for both link
schemes, the Schwarzschild and flat limits, an independent contraction-based
evaluation, and zero-shift orbit finding.

The shift for both schemes factors as

    f = (1 + pn) / (1 + pd) * sqrt((1 - dev_emit) / (1 - dev_recv))

with every lower-case quantity a small dimensionless number (1e-9 and below
for planetary parameters).  delta is assembled directly from those small
terms:

    u1 = (pn - pd) / (1 + pd)                  ratio of the dragging prefactors
    u2 = (dev_recv - dev_emit) / (1 - dev_recv)  ratio under the square root
    w  = u2 / (1 + sqrt(1 + u2))               exact sqrt(1+u2) - 1
    delta = u1 + w + u1 * w

so it is never formed as (number close to 1) - 1.  In double-double
arithmetic this keeps delta to roughly its own precision, far below the
1e-28 absolute agreement demanded against the arbitrary-precision oracle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from .ddouble import DD, ONE
from .errors import DomainError, NoRootInBracketError, NumericalError
from .geometry import (
    Worldline,
    WorldlineKind,
    _check_outside_mass_scale,
    contract,
    ground_station_velocity,
    metric_at,
    orbit_angular_velocity,
    orbit_velocity,
    photon_tangent,
    three_m_over_r,
)
from .units import SpacetimeParams


class LinkScheme(enum.Enum):
    GROUND_TO_SAT = "ground-to-sat"
    SAT_TO_SAT = "sat-to-sat"


@dataclass(frozen=True)
class LinkScenario:
    """Emitter/receiver pairing for one photon link."""

    scheme: LinkScheme
    emitter: Worldline
    receiver: Worldline
    params: SpacetimeParams

    def __post_init__(self):
        if self.scheme is LinkScheme.GROUND_TO_SAT:
            if self.emitter.kind is not WorldlineKind.GROUND_STATION:
                raise DomainError("ground-to-sat links need a ground-station emitter")
            if self.receiver.kind is not WorldlineKind.CIRCULAR_ORBIT:
                raise DomainError("ground-to-sat links need an orbiting receiver")
        else:
            if (self.emitter.kind is not WorldlineKind.CIRCULAR_ORBIT
                    or self.receiver.kind is not WorldlineKind.CIRCULAR_ORBIT):
                raise DomainError("sat-to-sat links need two orbiting worldlines")
            # equality is allowed: identical orbits form a degenerate link
            # with unit shift
            if self.receiver.r < self.emitter.r:
                raise DomainError(
                    "sat-to-sat links need receiver radius at or above emitter "
                    f"radius ({self.receiver.r} < {self.emitter.r})"
                )

    def with_receiver_radius(self, r: float) -> "LinkScenario":
        return replace(self, receiver=replace(self.receiver, r=r))


@dataclass(frozen=True)
class ShiftResult:
    """Shift ratio f and delta = f - 1 as compensated pairs."""

    f: DD
    delta: DD

    def __post_init__(self):
        check = (self.f - ONE) - self.delta
        if abs(check.to_float()) > 1e-30 * max(1.0, abs(self.delta.to_float())):
            raise NumericalError("ShiftResult consistency f - 1 == delta violated")


def _assemble(pn: DD, pd: DD, dev_emit: DD, dev_recv: DD, emit_name: str,
              recv_name: str) -> ShiftResult:
    arg_emit = ONE - dev_emit
    arg_recv = ONE - dev_recv
    if arg_emit.sign() <= 0:
        raise DomainError(f"square-root argument for {emit_name} is not positive")
    if arg_recv.sign() <= 0:
        raise DomainError(f"square-root argument for {recv_name} is not positive")
    u1 = (pn - pd) / (ONE + pd)
    u2 = (dev_recv - dev_emit) / arg_recv
    w = u2 / (ONE + (ONE + u2).sqrt())
    delta = u1 + w + u1 * w
    return ShiftResult(f=ONE + delta, delta=delta)


def _ground_parts(p: SpacetimeParams, station: Worldline) -> tuple[DD, DD]:
    """(prefactor denominator term pd, emitter-side deviation) for a station."""
    x = DD.quotient(2.0 * p.M_geom, station.r)
    wg = station.omega_geom
    aw = wg * p.a
    dev = wg * wg * (DD.product(station.r, station.r) + DD.product(p.a, p.a)) \
        + x * (ONE - aw) ** 2
    pd = x * aw / (ONE - x)
    return pd, dev


def _orbit_parts(p: SpacetimeParams, orbit: Worldline) -> tuple[DD, DD]:
    """(prefactor term, deviation 3M/r - 2 eps a omega) for a circular orbit."""
    x = DD.quotient(2.0 * p.M_geom, orbit.r)
    aw = orbit_angular_velocity(p, orbit.r) * p.a
    dev = three_m_over_r(p, orbit.r) - 2.0 * orbit.direction * aw
    pref = orbit.direction * aw / (ONE - x)
    return pref, dev


def _emitter_terms(p: SpacetimeParams, emitter: Worldline) -> tuple[DD, DD]:
    """(prefactor term, deviation) of the emitter, once it is checked to lie
    outside 2M."""
    if emitter.kind is WorldlineKind.GROUND_STATION:
        _check_outside_mass_scale(p, emitter.r, "ground station")
        return _ground_parts(p, emitter)
    _check_outside_mass_scale(p, emitter.r, "emitter orbit")
    return _orbit_parts(p, emitter)


def _receiver_terms(p: SpacetimeParams, receiver: Worldline) -> tuple[DD, DD]:
    """(prefactor term, deviation) of the receiver orbit, once it is checked
    to lie outside 2M."""
    _check_outside_mass_scale(p, receiver.r, "receiver orbit")
    return _orbit_parts(p, receiver)


def _closed_form(scheme: LinkScheme, emitter_terms: tuple[DD, DD],
                 receiver_terms: tuple[DD, DD]) -> ShiftResult:
    """Closed-form shift from the two endpoints' terms."""
    pd, dev_emit = emitter_terms
    pn, dev_recv = receiver_terms
    if scheme is LinkScheme.GROUND_TO_SAT:
        emit_name = "the ground-station normalization"
    else:
        emit_name = "the emitter-orbit normalization"
    return _assemble(pn, pd, dev_emit, dev_recv, emit_name,
                     "the receiver-orbit normalization")


def shift_ground_to_sat(s: LinkScenario) -> ShiftResult:
    """Shift for a radial photon from a spinning ground station to an orbit."""
    if s.scheme is not LinkScheme.GROUND_TO_SAT:
        raise DomainError("shift_ground_to_sat needs a ground-to-sat scenario")
    return _closed_form(s.scheme, _emitter_terms(s.params, s.emitter),
                        _receiver_terms(s.params, s.receiver))


def shift_sat_to_sat(s: LinkScenario) -> ShiftResult:
    """Shift for a radial photon between two circular orbits (emitter below)."""
    if s.scheme is not LinkScheme.SAT_TO_SAT:
        raise DomainError("shift_sat_to_sat needs a sat-to-sat scenario")
    return _closed_form(s.scheme, _emitter_terms(s.params, s.emitter),
                        _receiver_terms(s.params, s.receiver))


def shift_schwarzschild(M_geom: float, r_A: float, r_B: float) -> ShiftResult:
    """Non-rotating limit: f = sqrt((1 - 2M/r_A)/(1 - 3M/r_B))."""
    if M_geom < 0.0:
        raise DomainError("geometric mass must be non-negative")
    if M_geom > 0.0 and r_A <= 2.0 * M_geom:
        raise DomainError(f"emitter radius {r_A} m does not exceed 2M")
    if M_geom > 0.0 and r_B <= 3.0 * M_geom:
        raise DomainError(f"receiver radius {r_B} m does not exceed 3M")
    dev_emit = DD.quotient(2.0 * M_geom, r_A) if M_geom else DD(0.0)
    dev_recv = (DD.product(3.0, M_geom) / r_B) if M_geom else DD(0.0)
    return _assemble(DD(0.0), DD(0.0), dev_emit, dev_recv,
                     "the emitter factor", "the receiver factor")


def shift(s: LinkScenario) -> ShiftResult:
    """Closed-form shift for whichever scheme the scenario carries."""
    if s.scheme is LinkScheme.GROUND_TO_SAT:
        return shift_ground_to_sat(s)
    return shift_sat_to_sat(s)


def _endpoint_velocity(p: SpacetimeParams, w: Worldline):
    if w.kind is WorldlineKind.GROUND_STATION:
        return ground_station_velocity(p, w)
    return orbit_velocity(p, w)


def shift_via_contraction(s: LinkScenario) -> ShiftResult:
    """f rebuilt from first principles: metric contraction of the photon
    tangent with the endpoint four-velocities.

    Independent code path used to cross-validate the closed form; its delta is
    a plain difference and carries the ~1e-32 relative noise of f, not the
    enhanced accuracy of the restructured assembly.
    """
    p = s.params
    g_emit = metric_at(p, s.emitter.r)
    g_recv = metric_at(p, s.receiver.r)
    k_emit, _ = photon_tangent(p, s.emitter.r, 1.0)
    k_recv, _ = photon_tangent(p, s.receiver.r, 1.0)
    u_emit = _endpoint_velocity(p, s.emitter)
    u_recv = _endpoint_velocity(p, s.receiver)
    f = contract(g_recv, k_recv, u_recv) / contract(g_emit, k_emit, u_emit)
    return ShiftResult(f=f, delta=f - ONE)


# |delta| below which a bisection midpoint is taken as the zero-shift radius
ZERO_SHIFT_TOLERANCE = 1e-18
# halving a float bracket exhausts its resolution long before this
_MAX_BISECTIONS = 200


def find_zero_shift_orbit(s: LinkScenario, r_lo: float, r_hi: float) -> float:
    """Receiver radius at which delta vanishes, by bisection on the
    compensated delta.

    Bisection rather than a derivative method: delta is flat and tiny near the
    root, so slope estimates would be noise.  Raises NoRootInBracketError when
    delta does not change sign over [r_lo, r_hi].
    """
    if not r_lo < r_hi:
        raise DomainError("bracket must satisfy r_lo < r_hi")

    def delta_at(r: float) -> DD:
        return shift(s.with_receiver_radius(r)).delta

    d_lo = delta_at(r_lo)
    d_hi = delta_at(r_hi)
    if d_lo.sign() == 0:
        return r_lo
    if d_hi.sign() == 0:
        return r_hi
    if d_lo.sign() == d_hi.sign():
        raise NoRootInBracketError(
            f"delta does not change sign on [{r_lo}, {r_hi}] "
            f"(delta = {d_lo.to_float():.3e} and {d_hi.to_float():.3e})"
        )
    lo, hi = r_lo, r_hi
    for _ in range(_MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # float resolution exhausted
            break
        d_mid = delta_at(mid)
        sg = d_mid.sign()
        if sg == 0 or abs(d_mid.to_float()) < ZERO_SHIFT_TOLERANCE:
            return mid
        if sg == d_lo.sign():
            lo = mid
        else:
            hi = mid
    mid = 0.5 * (lo + hi)
    if abs(delta_at(mid).to_float()) < ZERO_SHIFT_TOLERANCE:
        return mid
    raise NoRootInBracketError(
        "bisection exhausted float resolution without reaching "
        f"|delta| < {ZERO_SHIFT_TOLERANCE}"
    )
