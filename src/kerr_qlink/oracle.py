"""Independent verification backends.

Three unrelated ways to reproduce the fast path's numbers:

* ``shift_exact_*``, ``gamma_exact_*``, ``kappa_exact`` and
  ``delta_exact_*`` -- every closed form re-evaluated in arbitrary-precision
  decimal arithmetic (stdlib Decimal, round-half-even), completely independent
  of the compensated float pipeline;
* ``extract_series_coefficient`` -- perturbative coefficients of delta pulled
  out numerically by central differences on the exact shift at >= 80 digits,
  to confront the analytic decomposition terms;
* ``integrate_schwarzschild_radial`` -- a dynamical route: integrate the
  non-rotating radial null geodesic equations with an embedded Runge-Kutta
  pair and rebuild the shift from the integrated tangent vector.

Accuracy over speed everywhere; the oracle is allowed to be many orders of
magnitude slower than the pipeline it checks.
"""

from __future__ import annotations

import enum
from contextlib import contextmanager
from dataclasses import dataclass
from decimal import Decimal, localcontext

from .ddouble import DD
from .errors import DomainError, NumericalError
from .units import C

_D = Decimal

MIN_DIGITS = 50


def _omega_orbit(M: Decimal, r: Decimal) -> Decimal:
    return (M / (r * r * r)).sqrt()


def _gamma_ground_arg(M: Decimal, a: Decimal, r: Decimal, w: Decimal) -> Decimal:
    return 1 - w * w * (r * r + a * a) - (2 * M / r) * (1 - a * w) ** 2


def _gamma_orbit_arg(M: Decimal, a: Decimal, r: Decimal, eps: int) -> Decimal:
    return 1 - 3 * M / r + 2 * eps * a * _omega_orbit(M, r)


def _require_positive(x: Decimal, what: str) -> None:
    if x <= 0:
        raise DomainError(f"{what} is not positive in the exact evaluation")


def _ground_shift(M, a, r_A, w, r_B, eps) -> Decimal:
    arg_a = _gamma_ground_arg(M, a, r_A, w)
    arg_b = _gamma_orbit_arg(M, a, r_B, eps)
    _require_positive(arg_a, "the ground-station normalization argument")
    _require_positive(arg_b, "the receiver-orbit normalization argument")
    x_a = 2 * M / r_A
    x_b = 2 * M / r_B
    pref = (1 + eps * a * _omega_orbit(M, r_B) / (1 - x_b)) \
        / (1 + x_a * a * w / (1 - x_a))
    return pref * (arg_a / arg_b).sqrt()


@contextmanager
def _exact(digits: int, *values: float):
    """Working context of every exact form: refuses fewer than MIN_DIGITS,
    sets the precision and yields the inputs (floats, and the +-1 direction
    flags) as exact Decimals, so the oracle sees literally the same numbers
    as the pipeline.

    A result is reliable to about ``digits - 10`` significant digits; the
    remaining digits are guard digits for rounding inside the evaluation.
    """
    if digits < MIN_DIGITS:
        raise DomainError(f"oracle precision must be at least {MIN_DIGITS} digits")
    with localcontext() as ctx:
        ctx.prec = digits
        yield [_D(v) for v in values]


def shift_exact_ground(M: float, a: float, r_A: float, omega_A_si: float,
                       r_B: float, eps: int = +1,
                       digits: int = MIN_DIGITS) -> Decimal:
    """Shift f from a ground station at r_A spinning at omega_A_si (rad/s) to
    an orbit at r_B."""
    with _exact(digits, M, a, r_A, omega_A_si, r_B, C, eps) as inputs:
        M, a, r_A, w, r_B, c, eps = inputs
        return _ground_shift(M, a, r_A, w / c, r_B, eps)


def shift_exact_sats(M: float, a: float, r_C: float, r_B: float,
                     eta: int = +1, eps: int = +1,
                     digits: int = MIN_DIGITS) -> Decimal:
    """Shift f from an orbit at r_C (direction eta) to one at r_B (eps)."""
    with _exact(digits, M, a, r_C, r_B, eta, eps) as (M, a, r_C, r_B, eta, eps):
        arg_c = _gamma_orbit_arg(M, a, r_C, eta)
        arg_b = _gamma_orbit_arg(M, a, r_B, eps)
        _require_positive(arg_c, "the emitter-orbit normalization argument")
        _require_positive(arg_b, "the receiver-orbit normalization argument")
        x_c = 2 * M / r_C
        x_b = 2 * M / r_B
        pref = (1 + eps * a * _omega_orbit(M, r_B) / (1 - x_b)) \
            / (1 + eta * a * _omega_orbit(M, r_C) / (1 - x_c))
        return pref * (arg_c / arg_b).sqrt()


def shift_exact_schwarzschild(M: float, r_A: float, r_B: float,
                              digits: int = MIN_DIGITS) -> Decimal:
    """Non-rotating limit f = sqrt((1 - 2M/r_A)/(1 - 3M/r_B))."""
    with _exact(digits, M, r_A, r_B) as (M, r_A, r_B):
        num = 1 - 2 * M / r_A
        den = 1 - 3 * M / r_B
        _require_positive(num, "the emitter factor")
        _require_positive(den, "the receiver factor")
        return (num / den).sqrt()


def gamma_exact_ground(M: float, a: float, r: float, omega_si: float,
                       digits: int = MIN_DIGITS) -> Decimal:
    """Normalization gamma of a ground station at r spinning at omega_si."""
    with _exact(digits, M, a, r, omega_si, C) as (M, a, r, w, c):
        arg = _gamma_ground_arg(M, a, r, w / c)
        _require_positive(arg, "the ground-station normalization argument")
        return 1 / arg.sqrt()


def gamma_exact_orbit(M: float, a: float, r: float, eps: int = +1,
                      digits: int = MIN_DIGITS) -> Decimal:
    """Normalization gamma of a circular orbit at r in direction eps."""
    with _exact(digits, M, a, r, eps) as (M, a, r, eps):
        arg = _gamma_orbit_arg(M, a, r, eps)
        _require_positive(arg, "the orbit normalization argument")
        return 1 / arg.sqrt()


def kappa_exact(M: float, a: float, r: float, digits: int = MIN_DIGITS) -> Decimal:
    """Squared-radial-component factor kappa of a radial photon at r."""
    with _exact(digits, M, a, r) as (M, a, r):
        one_minus_x = 1 - 2 * M / r
        _require_positive(one_minus_x, "1 - 2M/r")
        return 1 + (a * a / (r * r)) * (1 + 2 * M / r) \
            + 4 * M * M * a * a / (r ** 4 * one_minus_x)


def delta_exact_ground(M: float, a: float, r_A: float, omega_A_si: float,
                       r_B: float, eps: int = +1,
                       digits: int = MIN_DIGITS) -> Decimal:
    """delta = f - 1 for the ground link, in decimal arithmetic."""
    with _exact(digits):
        return shift_exact_ground(M, a, r_A, omega_A_si, r_B, eps, digits) - 1


def delta_exact_sats(M: float, a: float, r_C: float, r_B: float,
                     eta: int = +1, eps: int = +1,
                     digits: int = MIN_DIGITS) -> Decimal:
    """delta = f - 1 for the orbit-to-orbit link, in decimal arithmetic."""
    with _exact(digits):
        return shift_exact_sats(M, a, r_C, r_B, eta, eps, digits) - 1


# Central-difference step of the series extraction, relative to the parameter.
SERIES_REL_STEP = _D("0.001")


class SeriesParam(enum.Enum):
    R_S = "r_S"
    OMEGA_A = "omega_A"
    SPIN = "a"


def extract_series_coefficient(param: SeriesParam, order: int, *,
                               M: float, a: float, r_A: float,
                               omega_A_si: float, r_B: float, eps: int = +1,
                               digits: int = 80) -> float:
    """Taylor coefficient of delta with respect to one spacetime parameter.

    Central differences on the exact decimal delta with one Richardson level
    (steps h and h/2); order 1 returns d(delta)/dp, order 2 returns the
    quadratic Taylor coefficient (1/2) d^2(delta)/dp^2.  Raises
    NumericalError when the ladder fails to tighten.
    """
    if order not in (1, 2):
        raise DomainError("series order must be 1 or 2")
    if digits < 80:
        raise DomainError("series extraction needs at least 80 digits")

    with localcontext() as ctx:
        ctx.prec = digits
        base = {
            SeriesParam.R_S: _D(2) * _D(M),
            SeriesParam.OMEGA_A: _D(omega_A_si),
            SeriesParam.SPIN: _D(a),
        }[param]
        if base == 0:
            raise DomainError("cannot take a relative step around zero")
        h0 = base * SERIES_REL_STEP

        def delta_of(p: Decimal) -> Decimal:
            mm = p / 2 if param is SeriesParam.R_S else _D(M)
            aa = p if param is SeriesParam.SPIN else _D(a)
            ww = (p if param is SeriesParam.OMEGA_A else _D(omega_A_si)) / _D(C)
            return _ground_shift(mm, aa, _D(r_A), ww, _D(r_B), eps) - 1

        def stencil(h: Decimal) -> Decimal:
            if order == 1:
                return (delta_of(base + h) - delta_of(base - h)) / (2 * h)
            second = (delta_of(base + h) - 2 * delta_of(base)
                      + delta_of(base - h)) / (h * h)
            return second / 2

        d_h = stencil(h0)
        d_h2 = stencil(h0 / 2)
        # central differences carry O(h^2) error: one Richardson level
        refined = (_D(4) * d_h2 - d_h) / 3
        err_before = abs(d_h - d_h2)
        err_after = abs(refined - d_h2)
        if err_after > err_before and err_before != 0:
            raise NumericalError(
                "Richardson ladder for the series coefficient did not converge"
            )
        return float(refined)


# ---------------------------------------------------------------------------
# Radial null geodesic integration (non-rotating case)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceSample:
    """One accepted integrator step.

    The tangent components are stored as deviations from 1 so that the
    1e-9-scale physics is not buried under the leading unit:
    dt/dlambda = 1 + tdot_dev, dr/dlambda = 1 + rdot_dev.  ``energy_dev`` is
    the conserved-energy deviation (1 - 2M/r) dt/dlambda - 1.
    """

    lam: float
    t: float
    r: float
    tdot_dev: float
    rdot_dev: float
    energy_dev: float



@dataclass(frozen=True)
class GeodesicTrace:
    samples: tuple[TraceSample, ...]
    phidot_max: float  # max |dphi/dlambda| seen; must stay exactly zero

    @property
    def energy_drift(self) -> float:
        devs = [s.energy_dev for s in self.samples]
        return max(devs) - min(devs)


@dataclass(frozen=True)
class RadialGeodesicResult:
    trace: GeodesicTrace
    f_numeric: DD


# Cash-Karp embedded 4(5) coefficients.
_CK_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (3 / 10, -9 / 10, 6 / 5),
    (-11 / 54, 5 / 2, -70 / 27, 35 / 27),
    (1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096),
)
_CK_B5 = (37 / 378, 0.0, 250 / 621, 125 / 594, 0.0, 512 / 1771)
_CK_B4 = (2825 / 27648, 0.0, 18575 / 48384, 13525 / 55296, 277 / 14336, 1 / 4)


def _energy_dev(M: float, r: float, q: float) -> float:
    x = 2.0 * M / r
    return q - x * (1.0 + q)


# Error budget of the radial geodesic integration.
GEODESIC_TOLERANCE = 1e-13


def integrate_schwarzschild_radial(M_geom: float, r_A: float,
                                   r_B: float) -> RadialGeodesicResult:
    """Integrate an outgoing radial null geodesic from r_A to r_B (a = 0) and
    rebuild the shift between a static emitter and a circular-orbit receiver.

    State: (t - lambda, r, q, s, phidot) with dt/dlambda = 1 + q and
    dr/dlambda = 1 + s; working in deviations keeps the integration error far
    below the 1e-10 shift it is meant to resolve.  The affine scale is fixed
    by unit conserved energy, so dr/dlambda = 1 on the exact solution and the
    phi velocity never leaves zero.
    """
    if M_geom < 0.0:
        raise DomainError("geometric mass must be non-negative")
    if M_geom > 0.0 and (r_A <= 3.0 * M_geom or r_B <= 3.0 * M_geom):
        raise DomainError("both radii must exceed 3M")
    if not r_B > r_A:
        raise DomainError("outgoing integration needs r_B > r_A")

    M = M_geom
    x_a = 2.0 * M / r_A
    q0 = x_a / (1.0 - x_a)  # unit-energy initial dt/dlambda deviation

    def rhs(y):
        _t_dev, r, q, s, phidot = y
        one_m_x = 1.0 - 2.0 * M / r
        m_rr = M / (r * r)
        # d(tdot)/dlam = -2 Gamma^t_tr tdot rdot
        dq = -2.0 * m_rr / one_m_x * (1.0 + q) * (1.0 + s)
        # d(rdot)/dlam = -(M/r^2)[(1-x)tdot^2 - rdot^2/(1-x)]; the bracket is
        # the null constraint, expanded in deviations to avoid cancellation
        d_small = (q - s) - (2.0 * M / r) * (1.0 + q)
        bracket = d_small * ((1.0 - 2.0 * M / r) * (1.0 + q) + (1.0 + s)) / one_m_x
        ds = -m_rr * bracket
        dphidot = -2.0 / r * (1.0 + s) * phidot
        return (q, 1.0 + s, dq, ds, dphidot)

    y = (0.0, r_A, q0, 0.0, 0.0)
    lam = 0.0
    samples = [TraceSample(0.0, 0.0, r_A, q0, 0.0, _energy_dev(M, r_A, q0))]
    phidot_max = 0.0

    span = r_B - r_A
    h = span / 64.0
    h_max = span / 8.0
    safety, shrink, grow = 0.9, 0.25, 5.0
    max_steps = 100000

    def step(y, h):
        k = [rhs(y)]
        for i in range(1, 6):
            yi = tuple(y[j] + h * sum(_CK_A[i][m] * k[m][j] for m in range(i))
                       for j in range(5))
            k.append(rhs(yi))
        y5 = tuple(y[j] + h * sum(_CK_B5[m] * k[m][j] for m in range(6))
                   for j in range(5))
        err = tuple(abs(h * sum((_CK_B5[m] - _CK_B4[m]) * k[m][j] for m in range(6)))
                    for j in range(5))
        return y5, err

    def error_ratio(err, h_try):
        # the budget spread over the whole span: meters for r, absolute for
        # the tangent deviations q and s
        frac = h_try / span
        allow_r = GEODESIC_TOLERANCE * h_try + 1e-300
        allow_dev = GEODESIC_TOLERANCE * frac + 1e-300
        return max(err[1] / allow_r, err[2] / allow_dev, err[3] / allow_dev)

    steps = 0
    done = False
    while not done:
        steps += 1
        if steps > max_steps:
            raise NumericalError("integrator exceeded its step budget")
        remaining = (r_B - y[1]) / (1.0 + y[3])
        if remaining <= 0.0:
            break
        h_try = min(h, h_max)
        if remaining <= h_try:
            h_try = remaining
            done = True
        if h_try < span * 1e-15:
            raise NumericalError("integrator step size underflowed")
        y_new, err = step(y, h_try)
        ratio = error_ratio(err, h_try)
        if ratio > 1.0 and not done:
            h = max(h_try * safety * ratio ** -0.2, h_try * shrink)
            continue
        lam += h_try
        y = y_new
        phidot_max = max(phidot_max, abs(y[4]))
        samples.append(TraceSample(lam, lam + y[0], y[1], y[2], y[3],
                                   _energy_dev(M, y[1], y[2])))
        if ratio > 0.0:
            h = min(h_try * safety * ratio ** -0.2, h_try * grow, h_max)
        else:
            h = min(h_try * grow, h_max)

    trace = GeodesicTrace(tuple(samples), phidot_max)

    # Shift from the integrated tangent: static emitter, orbiting receiver.
    q_end = y[2]
    one = DD(1.0)
    x_a_dd = DD.quotient(2.0 * M, r_A) if M else DD(0.0)
    x_b_dd = DD.quotient(2.0 * M, r_B) if M else DD(0.0)
    y_b_dd = (DD.product(3.0, M) / r_B) if M else DD(0.0)
    gamma_a = one / (one - x_a_dd).sqrt()
    gamma_b = one / (one - y_b_dd).sqrt()
    num = gamma_b * (one - x_b_dd) * (one + q_end)
    den = gamma_a * (one - x_a_dd) * (one + q0)
    return RadialGeodesicResult(trace=trace, f_numeric=num / den)
