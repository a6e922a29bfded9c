"""Gaussian photon frequency distributions, their propagation through the
curved background, and the overlap between sent and received packets.

A packet is the normalised Gaussian amplitude

    F(W) = (2 pi width^2)^(-1/4) exp(-(W - peak)^2 / (4 width^2))

and propagation through a link with shift ratio f maps (peak, width) to
(f*peak, f*width) -- the unique Gaussian image under the frequency rescaling
W -> W/f with unit L2 norm.  Distributions stay parametric; grids appear only
in the quadrature cross-check, ``crosscheck.overlap_numeric``.

Peak and width are stored compensated: the physically meaningful peak offset
delta*peak (~1e5 Hz on a 7e14 Hz carrier) sits a few decades below the float
ulp of the carrier, and the quadrature cross-check needs it exactly.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .ddouble import DD
from .errors import DomainError
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
