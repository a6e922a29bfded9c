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
delta (from ``shift``), so delta is evaluated once.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .ddouble import DD, ONE, floats
from .errors import DomainError, HigherOrderRegimeError
# shift_ground_to_sat is not called here.  perfbench/test_perfbench.py uses
# this binding to check that tracing rebinds names imported into other
# modules; drop it once that test points at another module.
from .shift import LinkScenario, shift_ground_to_sat  # noqa: F401
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


def delta_mass_term_ground(p: SpacetimeParams, r_A: float, r_B) -> DD:
    """First-order mass term of the ground-to-orbit shift, for a receiver
    radius or a column of them."""
    lr = DD.sum2(r_B, -r_A) / r_A  # L/r_A with L = r_B - r_A exact
    return DD.quotient(p.r_S, 4.0 * r_A) * (ONE - 2.0 * lr) / (ONE + lr)


def delta_rotation_term_ground(r_A: float, omega_si: float) -> DD:
    """Leading special-relativistic spin term -(r_A omega/c)^2 / 2."""
    v = DD.product(r_A, omega_si) / C
    return -0.5 * (v * v)


def delta_mass_term_sats(p: SpacetimeParams, r_C, r_B) -> DD:
    """First-order mass term of the orbit-to-orbit shift (always negative);
    either radius may be a column."""
    ell = DD.sum2(r_B, -r_C)  # L = r_B - r_C, exact
    lr = ell / r_C
    return -0.75 * (ell * p.r_S / DD.product(r_C, r_C)) / (ONE + lr)


def delta_rotation_term_sats(p: SpacetimeParams, r_C, r_B) -> DD:
    """Leading frame-dragging term of the orbit-to-orbit shift; either radius
    may be a column."""
    lr = DD.sum2(r_B, -r_C) / r_C
    shape = ONE / (ONE + lr) ** 3 - ONE
    aa = DD.product(p.a, p.a)
    term = 0.25 * (DD.of(p.r_S) * aa / (DD.of(r_C) ** 3)) * shape
    # a^2 past about 1e300 overflows, or a Dekker split of it does, into NaN
    for x in floats(term):
        if not math.isfinite(x):
            raise DomainError(
                f"rotation term: r_S a^2 / 4 r_C^3 with a = {p.a} m leaves "
                "the double-double range")
    return term


def decompose_ground(link: LinkScenario, delta: DD) -> ShiftDecomposition:
    """Split the exact delta of a ground-to-orbit link, whose receiver radius
    may be a column, delta then the column of their deltas."""
    r_A = link.emitter.r
    d_s = delta_mass_term_ground(link.params, r_A, link.receiver.r)
    d_rot = delta_rotation_term_ground(r_A, link.emitter.omega_si)
    return ShiftDecomposition(d_s, d_rot, delta - d_s - d_rot)


def decompose_sats(link: LinkScenario, delta: DD) -> ShiftDecomposition:
    """Split the exact delta of an orbit-to-orbit link; either radius may be
    a column, delta then the column of deltas."""
    p, r_C, r_B = link.params, link.emitter.r, link.receiver.r
    d_s = delta_mass_term_sats(p, r_C, r_B)
    d_rot = delta_rotation_term_sats(p, r_C, r_B)
    return ShiftDecomposition(d_s, d_rot, delta - d_s - d_rot)


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
