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

so it is never formed as (number close to 1) - 1, whatever the arithmetic.
The closed form runs on the link's fixed-point scale (``fixed``): every
term is an int scaled by 2**k, k chosen so that delta keeps far more than
double-double's 106 bits relative to its largest term, and f and delta
leave once, as correctly rounded double-double limbs.
"""

from __future__ import annotations

import enum
from math import fsum as _fsum

from .ddouble import DD, DDColumn, floats
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
    them for a column of links; refused unless f - 1 - delta, summed exactly
    from the limbs, is within 1e-30 of max(1, |delta|)."""

    __slots__ = ("f", "delta")

    def __init__(self, f: DD, delta: DD):
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "delta", delta)
        if type(delta) is DDColumn:
            pairs = zip(f.limbs, delta.limbs)
        else:
            pairs = (((f.hi, f.lo), (delta.hi, delta.lo)),)
        # f - 1 - delta of each element's limbs, summed exactly and rounded
        # once; an infinite limb makes fsum raise
        try:
            for (fh, fl), (dh, dl) in pairs:
                # written so that a NaN fails it
                if not abs(_fsum((fh, fl, -1.0, -dh, -dl))) \
                        <= 1e-30 * max(1.0, abs(dh + dl)):
                    raise ValueError
        except (ValueError, OverflowError):
            raise NumericalError(
                "ShiftResult consistency f - 1 == delta violated") from None


def _assemble(A, pn, pd, dev_emit, dev_recv, emit_name: str, recv_name: str):
    """delta of the factored shift, in the arithmetic A of its terms."""
    ONE = A.ONE
    if (ONE - dev_emit).sign() <= 0:
        raise DomainError(f"square-root argument for {emit_name} is not positive")
    arg_recv = ONE - dev_recv
    if arg_recv.sign() <= 0:
        raise DomainError(f"square-root argument for {recv_name} is not positive")
    u1 = (pn - pd) / (ONE + pd)
    u2 = (dev_recv - dev_emit) / arg_recv
    w = u2 / (ONE + (ONE + u2).sqrt())
    return u1 + w + u1 * w


def _prefactor(A, orbit: Worldline, parts):
    """Prefactor term eps a omega / (1 - 2M/r) of a circular orbit, from its
    parts (M/r, a omega, deviation)."""
    return orbit.direction * parts[1] / (A.ONE - 2 * parts[0])


def _scale(link: LinkScenario):
    """``fixed.link_scale`` of a link.  The fixed-point arithmetic loads with
    the first shift, so a command that computes none (a refused config, a
    preset listing) and a bare import of the package never compile it."""
    from .fixed import link_scale
    return link_scale(link)


def _closed_form(s: LinkScenario, split=None):
    """Closed-form shift of a link, one of whose orbit radii may be a column,
    on the link's fixed-point scale (``fixed.link_scale`` refuses a column
    whose points need different scales): the parts of each end once, the
    emitter's, then the receiver's, and the limbs of f and delta rounded
    once.  The prefactor terms are the closed form's own; the parts are
    shared with the observer layer.  With ``split`` (``perturb.decompose_ground``
    or ``decompose_sats``) it returns (result, split(A, emitter parts,
    receiver parts, unrounded delta)): the decomposition from the same
    evaluation."""
    A = _scale(s)
    p, emitter, receiver = s.params, s.emitter, s.receiver
    if emitter.kind is WorldlineKind.GROUND_STATION:
        emit = x, _, aw, _ = _ground_parts(A, p, emitter)
        pd = x * aw / (A.ONE - x)  # (2M/r) a omega / (1 - 2M/r)
        emit_name = "the ground-station normalization"
    else:
        emit = _orbit_parts(A, p, emitter)
        pd = _prefactor(A, emitter, emit)
        emit_name = "the emitter-orbit normalization"
    recv = _orbit_parts(A, p, receiver)
    delta = _assemble(A, _prefactor(A, receiver, recv), pd, emit[-1], recv[-1],
                      emit_name, "the receiver-orbit normalization")
    result = ShiftResult(f=A.dd(A.ONE + delta), delta=A.dd(delta))
    return result if split is None else (result, split(A, emit, recv, delta))


def shift_ground_to_sat(s: LinkScenario, split=None):
    """Shift for a radial photon from a spinning ground station to an orbit;
    with ``split``, also its decomposition (see ``_closed_form``)."""
    if s.scheme is not LinkScheme.GROUND_TO_SAT:
        raise DomainError("shift_ground_to_sat needs a ground-to-sat scenario")
    return _closed_form(s, split)


def shift_sat_to_sat(s: LinkScenario, split=None):
    """Shift for a radial photon between two circular orbits (emitter below);
    with ``split``, also its decomposition (see ``_closed_form``)."""
    if s.scheme is not LinkScheme.SAT_TO_SAT:
        raise DomainError("shift_sat_to_sat needs a sat-to-sat scenario")
    return _closed_form(s, split)


def shift(s: LinkScenario, split=None):
    """Closed-form shift for the scheme the scenario's emitter fixes; with
    ``split``, the scheme's decomposition, the pair (shift, decomposition)."""
    if s.scheme is LinkScheme.GROUND_TO_SAT:
        return shift_ground_to_sat(s, split)
    return shift_sat_to_sat(s, split)


def find_zero_shift_orbit(s: LinkScenario, r_lo: float,
                          r_hi: float) -> tuple[float, DD]:
    """(receiver radius, delta there) where delta changes sign, by bisection
    on the closed form's delta down to two adjacent floats.

    Bisection rather than a derivative method: delta is flat and tiny near the
    root, so slope estimates would be noise.  It stops at a midpoint whose
    delta is zero, or at a bracket of two adjacent floats, and returns the
    end with the smaller |delta|: the float nearest the root, whose every
    digit the closed form resolves.  Raises NoRootInBracketError when delta
    does not change sign over [r_lo, r_hi].
    """
    if not r_lo < r_hi:
        raise DomainError("bracket must satisfy r_lo < r_hi")

    def delta_at(r: float) -> DD:
        return shift(s.with_receiver_radius(r)).delta

    lo, hi = r_lo, r_hi
    d_lo, d_hi = delta_at(lo), delta_at(hi)
    if d_lo.sign() == 0:
        return lo, d_lo
    if d_hi.sign() == 0:
        return hi, d_hi
    if d_lo.sign() == d_hi.sign():
        raise NoRootInBracketError(
            f"delta does not change sign on [{r_lo}, {r_hi}] "
            f"(delta = {d_lo.to_float():.3e} and {d_hi.to_float():.3e})"
        )
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # lo and hi are adjacent floats
            return (lo, d_lo) if abs(d_lo) <= abs(d_hi) else (hi, d_hi)
        d_mid = delta_at(mid)
        if d_mid.sign() == 0:
            return mid, d_mid
        if d_mid.sign() == d_lo.sign():
            lo, d_lo = mid, d_mid
        else:
            hi, d_hi = mid, d_mid
