"""Perturbative decomposition of the shift and propagation of a shift
uncertainty into spacetime-parameter uncertainties.

The decomposition splits delta into the first-order mass term, the leading
rotation term and a residual:

    ground scheme:   delta_S  = (r_S / 4 r_A) (1 - 2L/r_A) / (1 + L/r_A),
                     delta_rot = -(r_A omega_A / c)^2 / 2,        L = r_B - r_A
    orbit-to-orbit:  delta_S  = -(3/4) (L r_S / r_C^2) / (1 + L/r_C),
                     delta_rot = (r_S a^2 / 4 r_C^3) ((1 + L/r_C)^-3 - 1)

The residual is defined as the exact delta minus the two modelled terms (not
as a truncated series), so the sum identity holds to compensated-arithmetic
accuracy and the residual is directly testable against the oracle.  The
caller passes a link, which has refused its radii already, and its exact
delta (from ``shift``), so delta is evaluated once.  The terms are written
on an arithmetic passed in; the decompositions run them, and the residual,
on the link's fixed-point scale (``fixed``), and round each to
double-double limbs once.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .ddouble import DD, DDColumn
from .errors import DomainError, HigherOrderRegimeError
# shift_ground_to_sat is not called here.  perfbench/test_perfbench.py uses
# this binding to check that tracing rebinds names imported into other
# modules; drop it once that test points at another module.
from .shift import LinkScenario, _scale, shift_ground_to_sat  # noqa: F401
from .units import C, SpacetimeParams


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


def delta_mass_term_ground(A, p: SpacetimeParams, r_A: float, r_B):
    """First-order mass term of the ground-to-orbit shift in the arithmetic
    A, for a receiver radius or a column of them: with rho = r_B / r_A,
    (1 - 2L/r_A) / (1 + L/r_A) = (3 - 2 rho) / rho."""
    rho = A.quotient(r_B, r_A)
    return A.quotient(p.r_S, r_A) * ((3 - 2 * rho) / rho) / 4


def delta_rotation_term_ground(A, r_A: float, omega_si: float):
    """Leading special-relativistic spin term -(r_A omega/c)^2 / 2 in the
    arithmetic A."""
    v = A.product(r_A, omega_si) / C
    return -(v * v) / 2


def delta_mass_term_sats(A, p: SpacetimeParams, r_C, r_B):
    """First-order mass term of the orbit-to-orbit shift (always negative)
    in the arithmetic A; either radius may be a column: with L = r_B - r_C,
    (L r_S / r_C^2) / (1 + L/r_C) = (r_S/r_C) (1 - r_C/r_B)."""
    return -3 * A.quotient(p.r_S, r_C) * (A.ONE - A.quotient(r_C, r_B)) / 4


def delta_rotation_term_sats(A, p: SpacetimeParams, r_C, r_B):
    """Leading frame-dragging term r_S a^2 / (4 r_C^3) ((1 + L/r_C)^-3 - 1) of
    the orbit-to-orbit shift in the arithmetic A, 1 + L/r_C = r_B/r_C;
    either radius may be a column."""
    ar = A.quotient(p.a, r_C)
    shape = A.quotient(r_C, r_B) ** 3 - A.ONE
    return A.quotient(p.r_S, r_C) * (ar * ar) * shape / 4


def decompose_ground(link: LinkScenario, delta: DD) -> ShiftDecomposition:
    """Split the exact delta of a ground-to-orbit link, whose receiver radius
    may be a column, delta then the column of their deltas."""
    A = _scale(link)
    if A is None:
        return _per_point(decompose_ground, link, delta)
    r_A = link.emitter.r
    d_s = delta_mass_term_ground(A, link.params, r_A, link.receiver.r)
    d_rot = delta_rotation_term_ground(A, r_A, link.emitter.omega_si)
    return ShiftDecomposition(A.dd(d_s), A.dd(d_rot),
                              A.dd(A.of(delta) - d_s - d_rot))


def decompose_sats(link: LinkScenario, delta: DD) -> ShiftDecomposition:
    """Split the exact delta of an orbit-to-orbit link; either radius may be
    a column, delta then the column of deltas."""
    A = _scale(link)
    if A is None:
        return _per_point(decompose_sats, link, delta)
    p, r_C, r_B = link.params, link.emitter.r, link.receiver.r
    d_s = delta_mass_term_sats(A, p, r_C, r_B)
    d_rot = delta_rotation_term_sats(A, p, r_C, r_B)
    return ShiftDecomposition(A.dd(d_s), A.dd(d_rot),
                              A.dd(A.of(delta) - d_s - d_rot))


def _per_point(decompose, link: LinkScenario, delta) -> ShiftDecomposition:
    """``decompose`` of each point of a column link alone, its terms stacked
    into columns: the column's points need different fixed-point scales."""
    points = [decompose(point, DD(hi, lo))
              for point, (hi, lo) in zip(link.points(), delta.limbs)]
    return ShiftDecomposition(*(DDColumn([(x.hi, x.lo) for x in column])
                                for column in zip(*points)))


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
