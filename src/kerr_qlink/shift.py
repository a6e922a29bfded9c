"""Exact frequency shift f and cancellation-safe delta = f - 1 for both link
schemes, and zero-shift orbit finding.  The independent routes that check it
(the metric contraction and the written-out Schwarzschild limit) are in
``crosscheck``.

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

from .ddouble import DD, ONE, floats
from .errors import DomainError, NoRootInBracketError, NumericalError
from .geometry import (
    Worldline,
    WorldlineKind,
    _check_outside_mass_scale,
    _ground_parts,
    _orbit_parts,
)
from .record import Frozen
from .units import SpacetimeParams


class LinkScheme(enum.Enum):
    GROUND_TO_SAT = "ground-to-sat"
    SAT_TO_SAT = "sat-to-sat"


class LinkScenario(Frozen):
    """Emitter/receiver pairing for one photon link; its scheme is read from
    the emitter.  It refuses what its radii alone decide, before any
    arithmetic: a sat-to-sat receiver below its emitter, either end at or
    inside 2M, a ground-to-sat receiver at or below its station."""

    __slots__ = ("emitter", "receiver", "params")

    def __init__(self, emitter: Worldline, receiver: Worldline,
                 params: SpacetimeParams):
        object.__setattr__(self, "emitter", emitter)
        object.__setattr__(self, "receiver", receiver)
        object.__setattr__(self, "params", params)
        if receiver.kind is not WorldlineKind.CIRCULAR_ORBIT:
            raise DomainError("links need an orbiting receiver")
        ground = emitter.kind is WorldlineKind.GROUND_STATION
        r_recv, r_emit = min(floats(receiver.r)), max(floats(emitter.r))
        # at most one radius is a column: its extreme element decides; equal
        # orbits are allowed, a degenerate link with unit shift
        if not ground and r_recv < r_emit:
            raise DomainError(
                "sat-to-sat links need receiver radius at or above emitter "
                f"radius ({r_recv} < {r_emit})"
            )
        _check_outside_mass_scale(
            params, emitter.r, "ground station" if ground else "emitter orbit")
        _check_outside_mass_scale(params, receiver.r, "receiver orbit")
        if ground:
            for x in floats(receiver.r):
                if x <= r_emit:
                    raise DomainError(
                        f"receiver radius {x} must exceed the surface radius {r_emit}")

    @property
    def scheme(self) -> LinkScheme:
        if self.emitter.kind is WorldlineKind.GROUND_STATION:
            return LinkScheme.GROUND_TO_SAT
        return LinkScheme.SAT_TO_SAT

    def with_receiver_radius(self, r: float) -> "LinkScenario":
        return LinkScenario(
            self.emitter,
            Worldline.circular_orbit(r, self.receiver.direction), self.params)


class ShiftResult(Frozen):
    """Shift ratio f and delta = f - 1 as compensated pairs, or as columns of
    them for a column of links."""

    __slots__ = ("f", "delta")

    def __init__(self, f: DD, delta: DD):
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "delta", delta)
        check = (f - ONE) - delta
        for c, d in zip(floats(check), floats(delta)):
            # written so that a NaN fails it
            if not abs(c) <= 1e-30 * max(1.0, abs(d)):
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


def _orbit_terms(p: SpacetimeParams, orbit: Worldline) -> tuple[DD, DD]:
    """(prefactor term eps a omega / (1 - 2M/r), deviation) of a circular
    orbit."""
    _, aw, dev = _orbit_parts(p, orbit)
    x = DD.quotient(2.0 * p.M_geom, orbit.r)
    return orbit.direction * aw / (ONE - x), dev


def _closed_form(s: LinkScenario) -> ShiftResult:
    """Closed-form shift of a link, one of whose orbit radii may be a column:
    the emitter's terms, then the receiver's.  The prefactor terms are the
    closed form's own; the deviations are shared with the observer layer."""
    p, emitter, receiver = s.params, s.emitter, s.receiver
    if emitter.kind is WorldlineKind.GROUND_STATION:
        x, aw, dev_emit = _ground_parts(p, emitter)
        pd = x * aw / (ONE - x)  # (2M/r) a omega / (1 - 2M/r)
        emit_name = "the ground-station normalization"
    else:
        pd, dev_emit = _orbit_terms(p, emitter)
        emit_name = "the emitter-orbit normalization"
    pn, dev_recv = _orbit_terms(p, receiver)
    return _assemble(pn, pd, dev_emit, dev_recv, emit_name,
                     "the receiver-orbit normalization")


def shift_ground_to_sat(s: LinkScenario) -> ShiftResult:
    """Shift for a radial photon from a spinning ground station to an orbit."""
    if s.scheme is not LinkScheme.GROUND_TO_SAT:
        raise DomainError("shift_ground_to_sat needs a ground-to-sat scenario")
    return _closed_form(s)


def shift_sat_to_sat(s: LinkScenario) -> ShiftResult:
    """Shift for a radial photon between two circular orbits (emitter below)."""
    if s.scheme is not LinkScheme.SAT_TO_SAT:
        raise DomainError("shift_sat_to_sat needs a sat-to-sat scenario")
    return _closed_form(s)


def shift(s: LinkScenario) -> ShiftResult:
    """Closed-form shift for the scheme the scenario's emitter fixes."""
    if s.scheme is LinkScheme.GROUND_TO_SAT:
        return shift_ground_to_sat(s)
    return shift_sat_to_sat(s)


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
