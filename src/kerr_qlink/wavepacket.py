"""Gaussian photon frequency distributions, their propagation through the
curved background, and the overlap between sent and received packets.

A packet is the normalised Gaussian amplitude

    F(W) = (2 pi width^2)^(-1/4) exp(-(W - peak)^2 / (4 width^2))

and propagation through a link with shift ratio f maps (peak, width) to
(f*peak, f*width) -- the unique Gaussian image under the frequency rescaling
W -> W/f with unit L2 norm.  Distributions stay parametric; grids appear only
in the quadrature oracle.

Peak and width are stored compensated: the physically meaningful peak offset
delta*peak (~1e5 Hz on a 7e14 Hz carrier) sits a few decades below the float
ulp of the carrier, and the quadrature cross-check needs it exactly.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .ddouble import DD
from .errors import DomainError, NumericalError
from .record import Frozen


class GaussianWavepacket(Frozen):
    """Peak frequency and width (Hz) of a photon frequency distribution."""

    __slots__ = ("peak", "width")

    def __init__(self, peak: DD, width: DD):
        object.__setattr__(self, "peak", peak)
        object.__setattr__(self, "width", width)
        if peak.sign() <= 0 or width.sign() <= 0:
            raise DomainError("wavepacket peak and width must be positive")
        if not (math.isfinite(peak.to_float())
                and math.isfinite(width.to_float())):
            raise DomainError(
                f"wavepacket peak and width must be finite, got {peak!r} "
                f"and {width!r}")

    @staticmethod
    def of(peak: float | DD, width: float | DD) -> "GaussianWavepacket":
        return GaussianWavepacket(DD.of(peak), DD.of(width))

    def amplitude(self, w: float) -> float:
        """F(w) evaluated in double precision (oracle/plotting use)."""
        peak = self.peak.to_float()
        width = self.width.to_float()
        norm = (2.0 * math.pi * width * width) ** -0.25
        z = (w - peak) / (2.0 * width)
        return norm * math.exp(-z * z)


class OverlapResult(NamedTuple):
    """Overlap amplitude of two packets; real for real Gaussians.

    ``deficit`` is 1 - fidelity evaluated without cancellation, usable down to
    deficits far below float epsilon of 1.
    """

    theta: float
    fidelity: float
    deficit: float


def propagate(packet: GaussianWavepacket, f: float | DD) -> GaussianWavepacket:
    """Packet received after traversing a link with shift ratio f."""
    fdd = DD.of(f)
    if fdd.sign() <= 0:
        raise DomainError(f"shift ratio must be positive, got {fdd.to_float()}")
    return GaussianWavepacket(fdd * packet.peak, fdd * packet.width)


def overlap_analytic(sent: GaussianWavepacket, delta: float) -> OverlapResult:
    """Closed-form overlap of a sent packet with its image under f = 1 + delta.

    Theta = sqrt(2(1+delta) / (1 + (1+delta)^2))
            * exp(-delta^2 peak_B^2 / (4 (1 + (1+delta)^2) width_B^2))

    with (peak_B, width_B) the propagated parameters.  The exponent is built
    from delta * peak directly, never from a difference of carrier-scale
    frequencies.
    """
    if delta <= -1.0:
        raise DomainError("delta must exceed -1 for a positive shift ratio")
    if not math.isfinite(delta):
        raise DomainError(f"delta must be finite, got {delta}")
    fp = 1.0 + delta
    denom = 1.0 + fp * fp  # 2 + 2 delta + delta^2
    peak_b = fp * sent.peak.to_float()
    width_b = fp * sent.width.to_float()
    try:
        exponent = (delta * peak_b) ** 2 / (4.0 * denom * width_b * width_b)
    except (OverflowError, ZeroDivisionError):
        raise DomainError("packet overlap exponent overflows or underflows "
                          "double precision") from None
    pref_sq = 2.0 * fp / denom
    theta = math.sqrt(pref_sq) * math.exp(-exponent)
    # 1 - theta^2 = (1 - pref^2) + pref^2 (1 - e^{-2 exponent}), all positive
    deficit = delta * delta / denom - pref_sq * math.expm1(-2.0 * exponent)
    # positional: keywords make the call slower, and a sweep makes it once
    # per point
    return OverlapResult(theta, theta * theta, deficit)


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
