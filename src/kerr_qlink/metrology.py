"""Quantum Fisher information, Cramer-Rao precision bounds on the
Schwarzschild radius and the equatorial angular velocity, regime
classification, and the quantum bit error rate of a simple entanglement-based
key protocol.

For a two-mode squeezed probe with squeezing s, bandwidth sigma and peak
frequencies omega1, omega2, the fidelity between states whose shift parameters
differ by d_delta is, in the regime |delta| << (W^2/8 sigma^2) delta^2 << 1
with W^2 = (omega1^2 + omega2^2)/2,

    F = 1 - ((omega1^2 + omega2^2) / 4 sigma^2) sinh^2(s) d_delta^2,

whence the quantum Fisher information

    H = ((omega1^2 + omega2^2) / sigma^2) sinh^2(s)

and the single-parameter Cramer-Rao bound |Delta delta| >= 1 / sqrt(N H).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ddouble import DD, ONE
from .errors import DomainError, NumericalError, RegimeError
from .perturb import (
    ShiftDecomposition,
    error_angular_velocity,
    error_schwarzschild_radius,
)

# Relative uncertainty of the equatorial angular velocity achieved by the
# standards community; reference value for reporting only, never computed with.
STATE_OF_THE_ART_OMEGA_RELATIVE = 1e-8


@dataclass(frozen=True)
class MetrologyConfig:
    """Probe resources: count N, squeezing s, bandwidth and peak frequencies."""

    probes: float = 1e10  # N
    squeezing: float = 2.0  # s; zero means an unsqueezed probe with no
    # information in this scheme
    sigma: float = 1e6  # Hz
    omega1: float = 7e14  # Hz
    omega2: float = 7e14  # Hz

    def __post_init__(self):
        for name in ("probes", "squeezing", "sigma", "omega1", "omega2"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"MetrologyConfig.{name} must be finite")
        # the Cramer-Rao bound holds for N >= 1 repetitions (see cramer_rao)
        if self.probes < 1.0:
            raise DomainError("MetrologyConfig.probes must be at least 1")
        for name in ("sigma", "omega1", "omega2"):
            if getattr(self, name) <= 0.0:
                raise DomainError(f"MetrologyConfig.{name} must be positive")
        if self.squeezing < 0.0:
            raise DomainError("MetrologyConfig.squeezing must be non-negative")
        # the information N H of all probes and the floor must come out as
        # the positive floats they stand for; an unsqueezed probe has none
        try:
            total, floor = self.probes * qfi(self), shift_uncertainty_floor(self)
        except (OverflowError, ZeroDivisionError):
            total = floor = math.nan
        if not (total == 0.0 if self.squeezing == 0.0
                else 0.0 < total < math.inf and 0.0 < floor < math.inf):
            raise DomainError(
                "MetrologyConfig: the Fisher information N H or the shift floor "
                "of these probes overflows or underflows double precision")

    @property
    def mean_square_peak(self) -> float:
        """W^2 = (omega1^2 + omega2^2) / 2."""
        return 0.5 * (self.omega1 * self.omega1 + self.omega2 * self.omega2)


@dataclass(frozen=True)
class RegimeStatus:
    valid: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.valid


@dataclass(frozen=True)
class PrecisionBound:
    """Cramer-Rao lower bound on a spacetime parameter."""

    delta_delta_min: float
    relative_bound: float


# The defining inequalities are strict orderings ("much less than"); demand a
# factor-10 separation between the tiers before trusting the local formulas.
REGIME_MARGIN = 10.0


def regime_check(delta: float, cfg: MetrologyConfig) -> RegimeStatus:
    """Classify whether |delta| << (W^2/8 sigma^2) delta^2 << 1 holds."""
    if delta == 0.0:
        return RegimeStatus(False, "degenerate: delta = 0")
    mid = cfg.mean_square_peak * delta * delta / (8.0 * cfg.sigma * cfg.sigma)
    if not REGIME_MARGIN * abs(delta) < mid:
        return RegimeStatus(
            False,
            f"|delta| = {abs(delta):.3e} not well below (W^2/8 sigma^2) delta^2 = {mid:.3e}",
        )
    if not REGIME_MARGIN * mid < 1.0:
        return RegimeStatus(
            False,
            f"(W^2/8 sigma^2) delta^2 = {mid:.3e} not well below 1",
        )
    return RegimeStatus(True)


def fidelity_two_mode(d_delta: float, cfg: MetrologyConfig) -> float:
    """Fidelity between two-mode squeezed states at shift offset d_delta.

    Local expansion: refuses once the quadratic term would drive it negative.
    """
    sh = math.sinh(cfg.squeezing)
    drop = (cfg.omega1 ** 2 + cfg.omega2 ** 2) / (4.0 * cfg.sigma ** 2) \
        * sh * sh * d_delta * d_delta
    if drop > 1.0:
        raise DomainError(
            f"fidelity expansion out of range: quadratic drop {drop:.3e} exceeds 1"
        )
    return 1.0 - drop


def qfi(cfg: MetrologyConfig) -> float:
    """Quantum Fisher information for the shift parameter."""
    sh = math.sinh(cfg.squeezing)
    return (cfg.omega1 ** 2 + cfg.omega2 ** 2) / cfg.sigma ** 2 * sh * sh


# The largest step of qfi_numeric_limit's ladder, and the relative agreement
# its two Richardson estimates must reach.
QFI_LIMIT_STEP = 2e-12
QFI_LIMIT_RTOL = 1e-8


def qfi_numeric_limit(cfg: MetrologyConfig) -> float:
    """QFI as the numeric limit 8 (1 - sqrt(F)) / d_delta^2, d_delta -> 0.

    Evaluated in compensated arithmetic at the steps h, h/2 and h/4, whose
    limit errors are O(h^2); one Richardson level on each adjacent pair
    removes that error, and the two refined estimates must agree.
    """
    sh = math.sinh(cfg.squeezing)
    coef = DD.of(cfg.omega1 ** 2 + cfg.omega2 ** 2) / (4.0 * cfg.sigma ** 2) \
        * (sh * sh)

    def estimate(h: float) -> DD:
        hh = DD.product(h, h)
        fid = ONE - coef * hh
        if fid.sign() <= 0:
            raise DomainError("qfi_numeric_limit step too large for the expansion")
        return 8.0 * (ONE - fid.sqrt()) / hh

    e0, e1, e2 = (estimate(QFI_LIMIT_STEP / 2 ** i) for i in range(3))
    prev = ((4.0 * e1 - e0) / 3.0).to_float()
    best = ((4.0 * e2 - e1) / 3.0).to_float()
    if not math.isfinite(best) or abs(best - prev) > QFI_LIMIT_RTOL * abs(best):
        raise NumericalError("Richardson ladder for the QFI limit did not converge")
    return best


def cramer_rao(H: float, N: float) -> float:
    """Lower bound |Delta delta| >= 1/sqrt(N H); infinite when H vanishes."""
    if H < 0.0:
        raise DomainError("quantum Fisher information cannot be negative")
    if N < 1.0:
        raise DomainError("probe count must be at least 1")
    if H == 0.0:
        return math.inf
    return 1.0 / math.sqrt(N * H)


def shift_uncertainty_floor(cfg: MetrologyConfig) -> float:
    """Closed form of the Cramer-Rao bound:
    |Delta delta| >= sigma / (sqrt(N (omega1^2 + omega2^2)) sinh s)."""
    sh = math.sinh(cfg.squeezing)
    if sh == 0.0:
        return math.inf  # no squeezing, no information in this scheme
    return cfg.sigma / (
        math.sqrt(cfg.probes * (cfg.omega1 ** 2 + cfg.omega2 ** 2)) * sh
    )


def bound_schwarzschild_radius(cfg: MetrologyConfig,
                               dec: ShiftDecomposition) -> PrecisionBound:
    """Optimal relative bound on the Schwarzschild radius for this link."""
    floor = shift_uncertainty_floor(cfg)
    return PrecisionBound(floor, error_schwarzschild_radius(dec, floor))


def bound_angular_velocity(cfg: MetrologyConfig,
                           dec: ShiftDecomposition) -> PrecisionBound:
    """Optimal relative bound on the equatorial angular velocity (equivalently,
    for orbit-to-orbit links, on the spin parameter)."""
    floor = shift_uncertainty_floor(cfg)
    return PrecisionBound(floor, error_angular_velocity(dec, floor))


def orders_vs_state_of_the_art(relative_bound: float) -> int:
    """Whole orders of magnitude separating a bound from the published
    angular-velocity uncertainty (positive = worse than state of the art)."""
    if relative_bound <= 0.0 or not math.isfinite(relative_bound):
        raise DomainError("relative bound must be positive and finite")
    ratio = relative_bound / STATE_OF_THE_ART_OMEGA_RELATIVE
    if not math.isfinite(ratio):
        raise DomainError(
            f"relative bound ({relative_bound:.3e}) too large to compare "
            "with the state of the art")
    return round(math.log10(ratio))


def qber(delta: float, cfg: MetrologyConfig) -> float:
    """Quantum bit error rate ~ delta^2 W^2 / (8 sigma^2) of the two-memory
    entanglement-swapping key protocol, valid only inside the regime."""
    status = regime_check(delta, cfg)
    if not status:
        raise RegimeError(f"QBER formula outside its regime: {status.reason}")
    return _qber_in_regime(delta, cfg)


def _qber_in_regime(delta: float, cfg: MetrologyConfig) -> float:
    """qber for a (delta, cfg) the caller has already found in its regime."""
    return delta * delta * cfg.mean_square_peak / (8.0 * cfg.sigma * cfg.sigma)
