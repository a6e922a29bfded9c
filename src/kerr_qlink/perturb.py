"""Perturbative decomposition of the shift and propagation of a shift
uncertainty into spacetime-parameter uncertainties.

The decomposition splits delta into the first-order mass term, the leading
rotation term and a residual.  The paper writes the terms in the radii,
with L = r_B - r_A (ground) or r_B - r_C (orbits):

    ground scheme:   delta_S  = (r_S / 4 r_A) (1 - 2L/r_A) / (1 + L/r_A),
                     delta_rot = -(r_A omega_A / c)^2 / 2
    orbit-to-orbit:  delta_S  = -(3/4) (L r_S / r_C^2) / (1 + L/r_C),
                     delta_rot = (r_S a^2 / 4 r_C^3) ((1 + L/r_C)^-3 - 1)

With r_S = 2M these are exactly, in the parts of each end that the closed
form computes (x = 2M/r_A and v = omega_A r_A / c of a station, q = M/r and
a omega = (a/r) sqrt(M/r) of an orbit):

    ground scheme:   delta_S  = (3 q_B - x) / 2,
                     delta_rot = -v^2 / 2
    orbit-to-orbit:  delta_S  = 3 (q_B - q_C) / 2,
                     delta_rot = ((a omega_B)^2 - (a omega_C)^2) / 2

The residual is defined as the exact delta minus the two modelled terms (not
as a truncated series), so the sum identity holds to compensated-arithmetic
accuracy and the residual is directly testable against the oracle.  The
closed form evaluates a link once and hands its fixed-point scale, the parts
of both ends and its unrounded delta to ``decompose_ground`` or
``decompose_sats`` (``shift(link, decompose_ground)``), which round each term
to double-double limbs once.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .ddouble import DD
from .errors import DomainError, HigherOrderRegimeError
# shift_ground_to_sat is not called here.  perfbench/test_perfbench.py uses
# this binding to check that tracing rebinds names imported into other
# modules; drop it once that test points at another module.
from .shift import shift_ground_to_sat  # noqa: F401


class ShiftDecomposition(NamedTuple):
    """delta split into mass term, rotation term and exact residual.

    Compensated values: the sum delta_S + delta_rot + delta_c reproduces the
    exact delta to better than 1e-28 by construction.
    """

    delta_S: DD
    delta_rot: DD
    delta_c: DD

    @property
    def delta_total(self) -> DD:
        return self.delta_S + self.delta_rot + self.delta_c


def delta_mass_term_ground(x, q_B):
    """First-order mass term (3 q_B - x) / 2 of the ground-to-orbit shift,
    x = 2M/r_A and q_B = M/r_B, in their arithmetic."""
    return (3 * q_B - x) / 2


def delta_rotation_term_ground(v):
    """Leading special-relativistic spin term -v^2 / 2, v = r_A omega / c the
    station's surface speed, in its arithmetic."""
    return -(v * v) / 2


def delta_mass_term_sats(q_C, q_B):
    """First-order mass term 3 (q_B - q_C) / 2 of the orbit-to-orbit shift
    (always negative), q = M/r of each orbit, in their arithmetic."""
    return 3 * (q_B - q_C) / 2


def delta_rotation_term_sats(aw_C, aw_B):
    """Leading frame-dragging term ((a omega_B)^2 - (a omega_C)^2) / 2 of the
    orbit-to-orbit shift, a omega of each orbit, in their arithmetic."""
    return (aw_B * aw_B - aw_C * aw_C) / 2


def decompose_ground(A, station, orbit, delta) -> ShiftDecomposition:
    """Split delta of a ground-to-orbit link, whose receiver radius may be a
    column, from the closed form's evaluation of it: its scale A, the parts
    of the station (2M/r_A, v, a omega, deviation) and of the receiver
    (M/r_B, a omega, deviation), and its unrounded delta."""
    x, v, _, _ = station
    return _split(A, delta_mass_term_ground(x, orbit[0]),
                  delta_rotation_term_ground(v), delta)


def decompose_sats(A, emitter, receiver, delta) -> ShiftDecomposition:
    """Split delta of an orbit-to-orbit link, either of whose radii may be a
    column, from the closed form's evaluation of it: its scale A, the parts
    (M/r, a omega, deviation) of both orbits, and its unrounded delta."""
    (q_C, aw_C, _), (q_B, aw_B, _) = emitter, receiver
    return _split(A, delta_mass_term_sats(q_C, q_B),
                  delta_rotation_term_sats(aw_C, aw_B), delta)


def _split(A, d_s, d_rot, delta) -> ShiftDecomposition:
    """The terms and the residual delta - d_s - d_rot, each rounded once."""
    return ShiftDecomposition(A.dd(d_s), A.dd(d_rot),
                              A.dd(delta - d_s - d_rot))


# Refuse first-order error propagation once the mass term no longer dominates
# the residual by this factor; near the zero of delta_S the relation would
# need higher-order corrections.
HIGHER_ORDER_GUARD = 10.0


def error_schwarzschild_radius(delta_S: float, delta_c: float,
                               delta_delta: float) -> float:
    """Relative Schwarzschild-radius error from a shift uncertainty, given a
    decomposition's mass term and residual as floats:
    |Delta delta| = |delta_S| * Delta r_S / r_S."""
    d_s = abs(delta_S)
    # a mass term that underflows to zero dominates nothing, even a zero residual
    if d_s == 0.0 or d_s < HIGHER_ORDER_GUARD * abs(delta_c):
        raise HigherOrderRegimeError(
            "higher-order regime: the first-order mass term "
            f"({delta_S:.3e}) no longer dominates the residual "
            f"({delta_c:.3e}); first-order error propagation refused"
        )
    bound = abs(delta_delta) / d_s
    if not math.isfinite(bound):
        raise DomainError(
            f"mass term ({d_s:.3e}) too small for a finite "
            "Schwarzschild-radius bound")
    return bound


def error_angular_velocity(delta_rot: float, delta_delta: float) -> float:
    """Relative angular-velocity (or spin-parameter) error from a shift
    uncertainty, given a decomposition's rotation term as a float:
    |Delta delta| = 2 |delta_rot| * Delta omega / omega."""
    d_rot = abs(delta_rot)
    if d_rot == 0.0:
        raise DomainError("rotation term vanishes; no angular-velocity sensitivity")
    bound = abs(delta_delta) / (2.0 * d_rot)
    if not math.isfinite(bound):
        raise DomainError(
            f"rotation term ({d_rot:.3e}) too small for a finite "
            "angular-velocity bound")
    return bound
