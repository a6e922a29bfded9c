"""Gaussian packet propagation and overlap, closed form vs quadrature."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import expected
from kerr_qlink.crosscheck import overlap_numeric
from kerr_qlink.ddouble import DD
from kerr_qlink.errors import DomainError, NumericalError
from kerr_qlink.wavepacket import GaussianWavepacket, overlap_analytic, propagate

PACKET = GaussianWavepacket.of(7e14, 1e6)


class TestPropagate:
    def test_identity(self):
        out = propagate(PACKET, 1.0)
        assert (out.peak - PACKET.peak).to_float() == 0.0
        assert (out.width - PACKET.width).to_float() == 0.0

    def test_scales_peak_and_width(self):
        out = propagate(PACKET, 2.0)
        assert out.peak.to_float() == 1.4e15
        assert out.width.to_float() == 2e6

    def test_geo_peak_offset(self):
        # the peak moves by delta * peak, a few 1e5 Hz, comparable to sigma
        f = DD(1.0) + DD(float(expected.DELTA_GEO))
        out = propagate(PACKET, f)
        offset = (out.peak - PACKET.peak).to_float()
        assert offset == pytest.approx(float(expected.DELTA_GEO) * 7e14, rel=1e-12)
        assert abs(offset) == pytest.approx(3.8e5, rel=0.01)

    def test_norm_preserved_under_propagation(self):
        # a moderate carrier keeps the frequency grid exactly resolvable, so
        # the quadrature isolates the norm itself
        packet = GaussianWavepacket.of(5e6, 1e6)
        out = propagate(packet, 1.37)
        peak, width = out.peak.to_float(), out.width.to_float()
        val, _ = quad(lambda w: out.amplitude(w) ** 2,
                      peak - 12 * width, peak + 12 * width, limit=200)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_rejects_nonpositive_ratio(self):
        with pytest.raises(DomainError):
            propagate(PACKET, 0.0)
        with pytest.raises(DomainError):
            propagate(PACKET, -0.5)

    @given(st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=50)
    def test_width_tracks_peak(self, f):
        out = propagate(PACKET, f)
        ratio_peak = out.peak.to_float() / PACKET.peak.to_float()
        ratio_width = out.width.to_float() / PACKET.width.to_float()
        assert ratio_peak == pytest.approx(ratio_width, rel=1e-14)


class TestOverlapAnalytic:
    def test_unit_at_zero_shift(self):
        res = overlap_analytic(PACKET, 0.0)
        assert res.theta == 1.0
        assert res.fidelity == 1.0
        assert res.deficit == 0.0

    def test_geo_value(self):
        res = overlap_analytic(PACKET, float(expected.DELTA_GEO))
        assert res.theta == pytest.approx(expected.THETA_GEO, rel=1e-12)
        assert res.theta == pytest.approx(0.982, abs=5e-4)

    def test_large_shift_kills_overlap(self):
        res = overlap_analytic(PACKET, 1e-2)
        assert res.theta == 0.0  # exponent ~ -6e12: dead packet overlap
        assert res.deficit == pytest.approx(1.0, rel=1e-12)

    def test_rejects_delta_at_minus_one(self):
        with pytest.raises(DomainError, match="exceed -1"):
            overlap_analytic(PACKET, -1.0)
        with pytest.raises(DomainError, match="exceed -1"):
            overlap_analytic(PACKET, -math.inf)

    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_rejects_nonfinite_delta(self, delta):
        # theta would be NaN
        with pytest.raises(DomainError, match="finite"):
            overlap_analytic(PACKET, delta)

    @pytest.mark.parametrize("peak, width", [
        (1e200, 1e6),  # the squared peak offset overflows
        (7e14, 1e-200),  # the squared width underflows to zero
    ])
    def test_unrepresentable_exponent_refused(self, peak, width):
        with pytest.raises(DomainError, match="exponent"):
            overlap_analytic(GaussianWavepacket.of(peak, width), 1e-10)

    @given(st.floats(min_value=-0.9, max_value=2.0))
    @settings(max_examples=300)
    def test_theta_in_unit_interval(self, delta):
        res = overlap_analytic(PACKET, delta)
        assert 0.0 <= res.theta <= 1.0
        assert res.deficit >= 0.0
        if abs(delta) > 1e-150:  # below this the deficit itself underflows
            # the deficit resolves shifts whose theta rounds to exactly 1.0
            assert (res.deficit > 0.0) if delta != 0.0 else res.deficit == 0.0
            assert res.theta < 1.0 or abs(delta) < 1e-15

    @given(st.floats(min_value=-1e-9, max_value=1e-9))
    @settings(max_examples=200)
    def test_deficit_matches_theta_for_resolvable_shifts(self, delta):
        res = overlap_analytic(PACKET, delta)
        assert res.deficit == pytest.approx(1.0 - res.theta ** 2,
                                            rel=1e-10, abs=1e-15)

    def test_deficit_resolves_tiny_shifts(self):
        # at delta = 1e-14 the deficit ~ 6e-13 is invisible in 1 - theta^2
        res = overlap_analytic(PACKET, 1e-14)
        want = (1e-14 * 7e14) ** 2 / (4.0 * 1e12)  # ~ exponent * 2
        assert res.deficit == pytest.approx(2.0 * want / 2.0, rel=1e-3)


class TestOverlapNumeric:
    def test_identical_packets(self):
        res = overlap_numeric(PACKET, PACKET)
        assert res.theta == pytest.approx(1.0, abs=1e-12)

    def test_matches_analytic_on_geo(self):
        f = DD(1.0) + DD(float(expected.DELTA_GEO))
        res = overlap_numeric(propagate(PACKET, f), PACKET)
        assert res.theta == pytest.approx(expected.THETA_GEO, abs=1e-9)

    @pytest.mark.parametrize("delta", [-1e-2, -1e-6, -1e-10, -1e-12,
                                       1e-12, 1e-10, 1e-6, 1e-2])
    def test_quadrature_grid(self, delta):
        analytic = overlap_analytic(PACKET, delta)
        received = propagate(PACKET, DD(1.0) + DD(delta))
        numeric = overlap_numeric(received, PACKET)
        assert abs(numeric.theta - analytic.theta) <= 1e-9

    def test_disjoint_packets(self):
        far = GaussianWavepacket.of(7e14 + 20e6, 1e6)  # peaks 20 sigma apart
        res = overlap_numeric(far, PACKET)
        assert 0.0 < res.theta < 1e-20

    def test_symmetry(self):
        a = GaussianWavepacket.of(7e14, 1e6)
        b = GaussianWavepacket.of(7e14 + 2.5e6, 1.7e6)
        assert overlap_numeric(a, b).theta == pytest.approx(
            overlap_numeric(b, a).theta, abs=1e-12)

    def test_zero_frequency_cut_never_binds_for_narrow_packets(self):
        # the physical lower integration limit is 0, but for peak/width ~ 7e8
        # the window max(0, mu - 12 tau) starts at mu - 12 tau; the tail
        # below zero frequency is bounded by exp(-(peak/width)^2/2), far under
        # any tolerance used here.  Two equal packets have mu = peak and
        # tau = width.
        mu = PACKET.peak.to_float()
        tau = PACKET.width.to_float()
        assert mu - 12.0 * tau > 0.0
        assert mu / tau > 1e8

    @pytest.mark.parametrize("p1, s1, p2, s2", [
        (1e9, 2e3, 1e9 + 1e3, 1e3),
        (10.0, 2.0, 11.0, 2.0),
        (5.0, 1.0, 5.0, 1.0),
        (1.0, 1.0, 2.0, 1.5),
        (7e14 + 2e7, 1e6, 7e14, 1e6),
        (7e14, 1e6, 7e14, 2e8),
        (7e14, 1e6, 7e14, 1e9),
        (7e14, 1e6, 7e14, 1e10),
        (7e14, 1e6, 7e14, 1e12),
    ], ids=["width-mismatch", "cut-10-11", "cut-5-5", "cut-1-2", "disjoint",
            "ratio-200", "ratio-1e3", "ratio-1e4", "ratio-1e6"])
    def test_closed_form_with_zero_frequency_cut(self, p1, s1, p2, s2):
        # the product of the amplitudes is one Gaussian of width tau about
        # mu, integrated over W >= 0; the cut at zero frequency lies inside
        # the 12-sigma window and binds in the three "cut" cases, the
        # disjoint packets (theta = e^-50) need a relative error estimate,
        # and the "ratio" cases have a product far narrower than the wider
        # packet
        S = s1 ** 2 + s2 ** 2
        tau = math.sqrt(2 * s1 ** 2 * s2 ** 2 / S)
        mu = (p1 * s2 ** 2 + p2 * s1 ** 2) / S
        want = (2 * math.pi * s1 * s2) ** -0.5 * math.exp(-(p1 - p2) ** 2 / (4 * S)) \
            * tau * math.sqrt(math.pi / 2) * math.erfc(-mu / (tau * math.sqrt(2)))
        got = overlap_numeric(GaussianWavepacket.of(p1, s1),
                              GaussianWavepacket.of(p2, s2))
        assert got.theta == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_narrow_spike_is_resolved_or_refused(self):
        # a 1 kHz packet against a 1 GHz one: the integrand is a spike about
        # 2e-6 wide in the 24-unit window, and a rule that misses it must say
        # so rather than return 0
        s1, s2 = 1e3, 1e9
        want = math.sqrt(2 * s1 * s2 / (s1 ** 2 + s2 ** 2))
        try:
            theta = overlap_numeric(GaussianWavepacket.of(7e14, s1),
                                    GaussianWavepacket.of(7e14, s2)).theta
        except NumericalError:
            return
        assert abs(theta - want) <= 1e-9


def test_packet_validation():
    with pytest.raises(DomainError):
        GaussianWavepacket.of(-7e14, 1e6)
    with pytest.raises(DomainError):
        GaussianWavepacket.of(7e14, 0.0)
    with pytest.raises(DomainError, match="finite"):
        GaussianWavepacket.of(math.inf, 1e6)
    with pytest.raises(DomainError, match="finite"):
        GaussianWavepacket.of(7e14, math.inf)
    with pytest.raises(DomainError):
        GaussianWavepacket.of(math.nan, 1e6)
