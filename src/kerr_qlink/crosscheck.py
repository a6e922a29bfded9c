"""Independent routes to the closed forms' numbers, for `kerr-qlink verify`
and the tests.

* the shift rebuilt from first principles: the equatorial metric, the
  observer four-velocities and the radial-photon tangent vector, contracted
  bilinearly (``shift_via_contraction``);
* the non-rotating limit f = sqrt((1 - 2M/r_A)/(1 - 3M/r_B)) written out on
  its own (``shift_schwarzschild``), on the closed form's fixed-point scale,
  so that a link with a = 0 and omega = 0 reproduces it bit for bit;
* the packet overlap by tanh-sinh quadrature (``overlap_numeric``);
* the quantum Fisher information as the numeric limit of the fidelity
  (``qfi_numeric_limit``).

No command but `verify` runs these, so the report, sweep and zero-orbit
paths never load this module.  The observer routes read each endpoint's
deviation from flat space from the one place the closed form reads it,
``geometry._ground_parts`` and ``geometry._orbit_parts``, evaluated here in
double-double (``DD``) on one radius at a time, and refuse what leaves its
range.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .ddouble import DD, ONE
from .errors import DomainError, NumericalError
from .fixed import scale
from .geometry import (
    Worldline,
    WorldlineKind,
    _check_outside_mass_scale,
    _ground_parts,
    _orbit_parts,
)
from .metrology import MetrologyConfig
from .shift import LinkScenario, ShiftResult, _assemble
from .units import SpacetimeParams
from .wavepacket import GaussianWavepacket, OverlapResult


class FourVector(NamedTuple):
    """Equatorial four-vector; the polar component is identically zero."""

    t_comp: DD
    r_comp: DD
    phi_comp: DD


class MetricAt(NamedTuple):
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


def ground_station_normalization(p: SpacetimeParams, w: Worldline) -> tuple[DD, DD]:
    """Return (gamma, gamma_argument) for a spinning ground station outside
    2M.

    gamma_argument = 1 - omega^2 (r^2 + a^2) - (2M/r)(1 - a*omega)^2 must be
    positive, otherwise the station would be superluminal.
    """
    _check_outside_mass_scale(p, w.r, "ground-station normalization")
    dev = _ground_parts(DD, p, w)[3]
    arg = ONE - dev
    # a square past about 1e300 overflows, or a Dekker split of it does,
    # into NaN
    if not math.isfinite(dev.to_float()):
        raise DomainError(
            "ground station: deviation omega^2 (r^2 + a^2) + 2M/r (1 - a omega)^2 "
            f"with r = {w.r} m and a = {p.a} m leaves the double-double range")
    if not arg.to_float() > 0.0:
        raise DomainError(
            "ground-station normalization argument is not positive "
            f"(superluminal worldline at r = {w.r} m)"
        )
    return ONE / arg.sqrt(), arg


def orbit_normalization(p: SpacetimeParams, w: Worldline) -> tuple[DD, DD, DD]:
    """Return (gamma, gamma_argument, omega_orbit) for a circular orbit
    outside 2M, omega_orbit = sqrt(M/r) / r in 1/m.

    gamma_argument = 1 - 3M/r + 2 eps a omega must be positive; it fails close
    to the photon-orbit scale, far inside any planetary application.
    """
    _check_outside_mass_scale(p, w.r, "orbit normalization")
    q, _, dev = _orbit_parts(DD, p, w)
    arg = ONE - dev
    if not arg.to_float() > 0.0:
        raise DomainError(
            "orbit normalization argument is not positive "
            f"(r = {w.r} m is inside the photon-orbit pathology)"
        )
    return ONE / arg.sqrt(), arg, q.sqrt() / w.r


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


class PhotonState(NamedTuple):
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
    rr = DD.product(r, r)
    aa_over_rr = DD.product(p.a, p.a) / rr
    ma_over_rr = DD.product(p.M_geom, p.a) / rr
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


def shift_schwarzschild(M_geom: float, r_A: float, r_B: float) -> ShiftResult:
    """Non-rotating limit: f = sqrt((1 - 2M/r_A)/(1 - 3M/r_B)), on the
    fixed-point scale of a link with these radii."""
    if M_geom < 0.0:
        raise DomainError("geometric mass must be non-negative")
    if M_geom > 0.0 and r_A <= 2.0 * M_geom:
        raise DomainError(f"emitter radius {r_A} m does not exceed 2M")
    if M_geom > 0.0 and r_B <= 3.0 * M_geom:
        raise DomainError(f"receiver radius {r_B} m does not exceed 3M")
    A = scale(M_geom, r_B)
    zero = 0 * A.ONE
    delta = _assemble(A, zero, zero, A.quotient(2.0 * M_geom, r_A),
                      3 * A.quotient(M_geom, r_B), "the emitter factor",
                      "the receiver factor")
    return ShiftResult(f=A.dd(A.ONE + delta), delta=A.dd(delta))


# Half-width of the quadrature window in units of the product's width.
_WINDOW_SIGMAS = 12.0
# Tanh-sinh nodes run over |t| <= _T_MAX, where the weights are below 1e-35;
# the step halves from 1 down to 2**-_MAX_LEVEL.
_T_MAX = 4
_MAX_LEVEL = 12
_TOLERANCE = 1e-13  # relative to theta, which is at most 1


def overlap_numeric(received: GaussianWavepacket,
                    reference: GaussianWavepacket) -> OverlapResult:
    """Overlap by tanh-sinh quadrature of the two amplitudes.

    The product of the two amplitudes is itself a Gaussian in W, centred at
    mu = (p1 s2^2 + p2 s1^2) / S and of width tau = sqrt(2) s1 s2 / sqrt(S),
    with S = s1^2 + s2^2.  The integration runs in coordinates centred at mu
    and scaled by tau, with mu's offsets from the peaks taken from their
    compensated separation, so the integrand only ever sees
    well-conditioned quantities and spans the window however far apart the
    two widths are.  Integration covers [max(0, mu - 12 tau), mu + 12 tau].

    The rule is the trapezoid rule in t after x = c + d tanh(pi/2 sinh t)
    maps the window onto the real line (Takahashi & Mori 1974).  Its error
    falls exponentially as the step shrinks, also when the zero-frequency cut
    leaves the integrand large at the lower end.  The step halves from 1,
    reusing every node; the error estimate is the difference of the last two
    levels, which must fall to 1e-13 of theta (at most 1, so this bounds the
    absolute error too) by step 2**-12, or NumericalError is raised.
    """
    s1 = received.width.to_float()
    s2 = reference.width.to_float()
    if s1 <= 0.0 or s2 <= 0.0:
        raise DomainError("wavepacket widths must be positive")
    sep = (received.peak - reference.peak).to_float()  # exact peak offset
    sbar = math.hypot(s1, s2)
    tau = math.sqrt(2.0) * s1 * (s2 / sbar)
    # mu - p1 and mu - p2
    off1 = -sep * (s1 / sbar) ** 2
    off2 = sep * (s2 / sbar) ** 2
    mu = reference.peak.to_float() + off2
    norm = (2.0 * math.pi * s1 * s2) ** -0.5

    def integrand(x: float) -> float:
        w = tau * x  # frequency offset from mu
        z1 = (w + off1) / (2.0 * s1)
        z2 = (w + off2) / (2.0 * s2)
        return math.exp(-z1 * z1 - z2 * z2)

    x_lo = max(-_WINDOW_SIGMAS, -mu / tau)
    c = 0.5 * (_WINDOW_SIGMAS + x_lo)
    d = 0.5 * (_WINDOW_SIGMAS - x_lo)

    def pair(t: float) -> float:
        # the weight dx/dt without its factor d pi/2, times f at both nodes +-t
        u = 0.5 * math.pi * math.sinh(t)
        dx = d * math.tanh(u)
        return math.cosh(t) / math.cosh(u) ** 2 * (integrand(c - dx) + integrand(c + dx))

    scale = 0.5 * math.pi * d * norm * tau  # Jacobian dW = tau dx
    total = integrand(c) + math.fsum(pair(k) for k in range(1, _T_MAX + 1))
    theta = scale * total
    for level in range(1, _MAX_LEVEL + 1):
        h = 0.5 ** level
        total += math.fsum(pair(k * h) for k in range(1, _T_MAX << level, 2))
        theta, previous = scale * h * total, theta
        # relative, so a tiny overlap is resolved too; below the smallest
        # normal float there are no more digits to resolve
        if abs(theta - previous) <= _TOLERANCE * max(theta, sys.float_info.min):
            return OverlapResult(theta=theta, fidelity=theta * theta,
                                 deficit=1.0 - theta * theta)
    raise NumericalError(
        f"overlap quadrature still moved by {abs(theta - previous):.3e} "
        f"at step 2**-{_MAX_LEVEL}"
    )


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
