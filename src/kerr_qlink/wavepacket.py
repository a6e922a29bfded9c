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
from dataclasses import dataclass

from .ddouble import DD
from .errors import DomainError, NumericalError


@dataclass(frozen=True)
class GaussianWavepacket:
    """Peak frequency and width (Hz) of a photon frequency distribution."""

    peak: DD
    width: DD

    def __post_init__(self):
        if self.peak.sign() <= 0 or self.width.sign() <= 0:
            raise DomainError("wavepacket peak and width must be positive")

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


@dataclass(frozen=True)
class OverlapResult:
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
    fp = 1.0 + delta
    denom = 1.0 + fp * fp  # 2 + 2 delta + delta^2
    peak_b = fp * sent.peak.to_float()
    width_b = fp * sent.width.to_float()
    exponent = (delta * peak_b) ** 2 / (4.0 * denom * width_b * width_b)
    pref_sq = 2.0 * fp / denom
    theta = math.sqrt(pref_sq) * math.exp(-exponent)
    # 1 - theta^2 = (1 - pref^2) + pref^2 (1 - e^{-2 exponent}), all positive
    deficit = delta * delta / denom - pref_sq * math.expm1(-2.0 * exponent)
    return OverlapResult(theta=theta, fidelity=theta * theta, deficit=deficit)


# Half-width of the quadrature window in units of the combined width.
_WINDOW_SIGMAS = 12.0


def overlap_numeric(received: GaussianWavepacket,
                    reference: GaussianWavepacket,
                    epsabs: float = 1e-13,
                    epsrel: float = 1e-12) -> OverlapResult:
    """Overlap by adaptive quadrature of the two amplitudes.

    The integration runs in coordinates centred between the peaks and scaled
    by the combined width, with the peak separation taken as a compensated
    difference, so the integrand only ever sees well-conditioned quantities.
    Integration covers [max(0, mid - 12 sbar), mid + 12 sbar].
    """
    # imported here: only verification uses scipy, and its import dominates
    # the start-up of every other command
    from scipy.integrate import quad

    s1 = received.width.to_float()
    s2 = reference.width.to_float()
    if s1 <= 0.0 or s2 <= 0.0:
        raise DomainError("wavepacket widths must be positive")
    sep = (received.peak - reference.peak).to_float()  # exact peak offset
    mid = 0.5 * (received.peak.to_float() + reference.peak.to_float())
    sbar = math.hypot(s1, s2)
    norm = (2.0 * math.pi * s1 * s2) ** -0.5

    def integrand(x: float) -> float:
        w = sbar * x  # frequency offset from the midpoint
        z1 = (w - 0.5 * sep) / (2.0 * s1)
        z2 = (w + 0.5 * sep) / (2.0 * s2)
        return math.exp(-z1 * z1 - z2 * z2)

    x_lo = max(-_WINDOW_SIGMAS, -mid / sbar)
    value, abserr = quad(integrand, x_lo, _WINDOW_SIGMAS,
                         epsabs=epsabs, epsrel=epsrel, limit=200)
    theta = norm * sbar * value  # Jacobian dW = sbar dx
    if abserr * norm * sbar > 1e-9:
        raise NumericalError(
            f"overlap quadrature reached only {abserr * norm * sbar:.3e} absolute"
        )
    return OverlapResult(theta=theta, fidelity=theta * theta,
                         deficit=1.0 - theta * theta)
