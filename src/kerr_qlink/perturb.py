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
caller passes that exact delta in (from ``shift``), so it is evaluated once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ddouble import DD, ONE
from .errors import DomainError, HigherOrderRegimeError
# shift_ground_to_sat is not called here.  perfbench/test_perfbench.py uses
# this binding to check that tracing rebinds names imported into other
# modules; drop it once that test points at another module.
from .shift import LinkScheme, shift_ground_to_sat  # noqa: F401
from .units import C, SpacetimeParams


@dataclass(frozen=True)
class ShiftDecomposition:
    """delta split into mass term, rotation term and exact residual.

    Compensated values: the sum delta_S + delta_rot + delta_c reproduces the
    exact delta to better than 1e-28 by construction.
    """

    scheme: LinkScheme
    delta_S: DD
    delta_rot: DD
    delta_c: DD

    @property
    def delta_total(self) -> DD:
        return self.delta_S + self.delta_rot + self.delta_c


def delta_mass_term_ground(p: SpacetimeParams, r_A: float, r_B: float) -> DD:
    """First-order mass term of the ground-to-orbit shift."""
    lr = DD.sum2(r_B, -r_A) / r_A  # L/r_A with L = r_B - r_A exact
    return DD.quotient(p.r_S, 4.0 * r_A) * (ONE - 2.0 * lr) / (ONE + lr)


def delta_rotation_term_ground(r_A: float, omega_si: float) -> DD:
    """Leading special-relativistic spin term -(r_A omega/c)^2 / 2."""
    v = DD.product(r_A, omega_si) / C
    return -0.5 * (v * v)


def delta_mass_term_sats(p: SpacetimeParams, r_C: float, r_B: float) -> DD:
    """First-order mass term of the orbit-to-orbit shift (always negative)."""
    ell = DD.sum2(r_B, -r_C)  # L = r_B - r_C, exact
    lr = ell / r_C
    return -0.75 * (ell * p.r_S / DD.product(r_C, r_C)) / (ONE + lr)


def delta_rotation_term_sats(p: SpacetimeParams, r_C: float, r_B: float) -> DD:
    """Leading frame-dragging term of the orbit-to-orbit shift."""
    lr = DD.sum2(r_B, -r_C) / r_C
    shape = ONE / (ONE + lr) ** 3 - ONE
    aa = DD.product(p.a, p.a)
    return 0.25 * (DD.of(p.r_S) * aa / (DD.of(r_C) ** 3)) * shape


def decompose_ground(p: SpacetimeParams, r_A: float, omega_si: float,
                     r_B: float, delta: DD) -> ShiftDecomposition:
    """Split the exact ground-to-orbit delta of a station at r_A spinning at
    omega_si (rad/s) and a receiver orbit at r_B."""
    return _decompose_ground(p, r_A, r_B, delta,
                             delta_rotation_term_ground(r_A, omega_si))


def _decompose_ground(p: SpacetimeParams, r_A: float, r_B: float, delta: DD,
                      d_rot: DD) -> ShiftDecomposition:
    """decompose_ground given its rotation term, which depends on the station
    alone."""
    if r_B <= r_A:
        raise DomainError(f"receiver radius {r_B} must exceed the surface radius {r_A}")
    d_s = delta_mass_term_ground(p, r_A, r_B)
    return ShiftDecomposition(LinkScheme.GROUND_TO_SAT, d_s, d_rot,
                              delta - d_s - d_rot)


def decompose_sats(p: SpacetimeParams, r_C: float, r_B: float,
                   delta: DD) -> ShiftDecomposition:
    """Split the exact orbit-to-orbit delta (emitter at r_C below receiver)."""
    if not r_B > r_C:
        raise DomainError(f"receiver radius {r_B} must exceed emitter radius {r_C}")
    d_s = delta_mass_term_sats(p, r_C, r_B)
    d_rot = delta_rotation_term_sats(p, r_C, r_B)
    return ShiftDecomposition(LinkScheme.SAT_TO_SAT, d_s, d_rot,
                              delta - d_s - d_rot)


# Refuse first-order error propagation once the mass term no longer dominates
# the residual by this factor; near the zero of delta_S the relation would
# need higher-order corrections.
HIGHER_ORDER_GUARD = 10.0


def error_schwarzschild_radius(dec: ShiftDecomposition,
                               delta_delta: float) -> float:
    """Relative Schwarzschild-radius error from a shift uncertainty:
    |Delta delta| = |delta_S| * Delta r_S / r_S."""
    d_s = abs(dec.delta_S.to_float())
    # a mass term that underflows to zero dominates nothing, even a zero residual
    if d_s == 0.0 or d_s < HIGHER_ORDER_GUARD * abs(dec.delta_c.to_float()):
        raise HigherOrderRegimeError(
            "higher-order regime: the first-order mass term "
            f"({dec.delta_S.to_float():.3e}) no longer dominates the residual "
            f"({dec.delta_c.to_float():.3e}); first-order error propagation refused"
        )
    return abs(delta_delta) / d_s


def error_angular_velocity(dec: ShiftDecomposition, delta_delta: float) -> float:
    """Relative angular-velocity (or spin-parameter) error from a shift
    uncertainty: |Delta delta| = 2 |delta_rot| * Delta omega / omega."""
    d_rot = abs(dec.delta_rot.to_float())
    if d_rot == 0.0:
        raise DomainError("rotation term vanishes; no angular-velocity sensitivity")
    bound = abs(delta_delta) / (2.0 * d_rot)
    if not math.isfinite(bound):
        raise DomainError(
            f"rotation term ({d_rot:.3e}) too small for a finite "
            "angular-velocity bound")
    return bound
