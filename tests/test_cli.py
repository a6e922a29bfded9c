"""Configuration parsing, report/sweep/zero-orbit/verify commands, exit codes."""

import builtins
import contextlib
import csv
import importlib
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import fields, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import expected
import kerr_qlink
from conftest import delta_gap
from kerr_qlink.cli import report as report_module
from kerr_qlink.cli import sweep as sweep_module
from kerr_qlink.cli.main import main, zero_orbit
from kerr_qlink.cli.report import Report, assemble_report, run_sweep
from kerr_qlink.cli.scenario import (
    _SWEPT_FIELDS,
    PRESETS,
    SWEEP_VARIABLES,
    ScenarioConfig,
    SweepSpec,
    build_config,
    load_config,
    parse_config_text,
)
from kerr_qlink.cli.selfcheck import CHECKS, run_verify
from kerr_qlink.cli.sweep import CSV_COLUMNS, SWEEP_CHUNK, _chunk_rows, _rows
from kerr_qlink.crosscheck import metric_at, photon_tangent
from kerr_qlink.ddouble import DDColumn
from kerr_qlink.errors import (
    ConfigError,
    DomainError,
    KerrQlinkError,
)
from kerr_qlink.metrology import (
    MetrologyConfig,
    bound_angular_velocity,
    bound_schwarzschild_radius,
    orders_vs_state_of_the_art,
    qber,
    qfi,
    regime_check,
    shift_uncertainty_floor,
)
from kerr_qlink.oracle import delta_exact_ground, integrate_schwarzschild_radial
from kerr_qlink.perturb import decompose_ground, decompose_sats
from kerr_qlink.record import Frozen
from kerr_qlink.shift import LinkScheme, shift
from kerr_qlink.units import EARTH, C, geo_radius, leo_radius
from kerr_qlink.wavepacket import overlap_analytic


class TestConfigParsing:
    def test_round_trip(self):
        text = """
        # a ground-to-LEO link with a heavier planet
        scheme = ground-to-sat
        receiver_radius_m = 8.378e6
        planet_mass_kg = 6.0e24
        squeezing = 1.5
        """
        cfg, sweep = build_config(parse_config_text(text))
        assert cfg.scheme is LinkScheme.GROUND_TO_SAT
        assert cfg.receiver_radius_m == 8.378e6
        assert cfg.planet_mass_kg == 6.0e24
        assert cfg.squeezing == 1.5
        assert sweep is None

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ConfigError, match="line 2.*frobnicate"):
            parse_config_text("scheme = ground-to-sat\nfrobnicate = 1\n")

    def test_repeated_key_rejected(self):
        with pytest.raises(ConfigError, match="repeated"):
            parse_config_text("squeezing = 1\nsqueezing = 2\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("this is not a key value pair\n")

    def test_bad_number_rejected(self):
        with pytest.raises(ConfigError, match="squeezing"):
            build_config(parse_config_text("squeezing = two\n"))

    def test_bad_direction_rejected(self):
        with pytest.raises(ConfigError,
                           match="receiver_direction must be the int"):
            build_config(parse_config_text(
                "receiver_radius_m = 8.378e6\nreceiver_direction = 0\n"))

    def test_scientific_notation_accepted(self):
        raw = parse_config_text("probes = 1E+10\nreceiver_radius_m = 8.378e6\n")
        cfg, _ = build_config(raw)
        assert cfg.probes == 1e10

    def test_preset_overlay(self):
        raw = parse_config_text("squeezing = 3.0\n")
        cfg, _ = build_config(raw, PRESETS["earth-leo"])
        assert cfg.squeezing == 3.0
        assert cfg.receiver_radius_m == leo_radius()

    def test_link_scheme_is_the_config_scheme(self):
        overlaid, _ = build_config(parse_config_text("scheme = sat-to-sat\n"),
                                   PRESETS["earth-leo"])
        for cfg in (*PRESETS.values(), overlaid):
            assert cfg.link().scheme is cfg.scheme
        assert overlaid.scheme is LinkScheme.SAT_TO_SAT

    @pytest.mark.parametrize("scheme", ["ground-to-sat", None])
    def test_scheme_that_is_not_a_link_scheme_is_refused(self, scheme):
        # a string would make link() an orbit pair; None would fail a report
        with pytest.raises(ConfigError, match="scheme must be a LinkScheme"):
            ScenarioConfig(scheme=scheme, receiver_radius_m=leo_radius())

    def test_sweep_block(self):
        text = (
            "receiver_radius_m = 8.378e6\n"
            "sweep_variable = r_B\nsweep_lo = 7e6\nsweep_hi = 4e7\n"
            "sweep_points = 5\nsweep_scale = log\n")
        cfg, sweep = build_config(parse_config_text(text))
        assert sweep is not None
        assert sweep.points == 5
        assert sweep.scale == "log"

    def test_incomplete_sweep_block(self):
        with pytest.raises(ConfigError, match="sweep_points"):
            build_config(parse_config_text(
                "receiver_radius_m = 8.378e6\n"
                "sweep_variable = r_B\nsweep_lo = 7e6\nsweep_hi = 4e7\n"))

    def test_receiver_radius_required(self):
        with pytest.raises(ConfigError, match="receiver_radius_m must be set"):
            ScenarioConfig()

    def test_byte_order_mark_is_ignored(self, tmp_path):
        text = "receiver_radius_m = 8.378e6\nsqueezing = 1.5\n"
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert load_config(str(marked)) == load_config(str(plain))
        assert load_config(str(marked))[0].receiver_radius_m == 8.378e6


# each refusal a config makes of its own fields when it is built; a sweep
# chunk's column is refused for one bad element
_BUILD_REFUSALS = [
    ("earth-leo", {"receiver_radius_m": math.nan}, "receiver_radius_m must be finite"),
    ("earth-leo", {"planet_mass_kg": math.inf}, "planet_mass_kg must be finite"),
    ("earth-leo", {"squeezing": [1.0, -math.inf]}, "squeezing must be finite"),
    ("earth-leo", {"receiver_radius_m": 0.0},
     "receiver_radius_m must be set to a positive value"),
    ("earth-leo", {"receiver_radius_m": [8e6, -1.0, 9e6]},
     "receiver_radius_m must be set to a positive value"),
    ("leo-geo-sat", {"emitter_radius_m": -8.378e6}, "emitter_radius_m must be positive"),
    ("leo-geo-sat", {"emitter_radius_m": [8e6, 0.0]},
     "emitter_radius_m must be positive"),
    ("leo-geo-sat", {"emitter_direction": 0}, "emitter_direction must be the int"),
    ("leo-geo-sat", {"receiver_direction": 1.0}, "receiver_direction must be the int"),
    ("earth-leo", {"ground_omega_rad_s": 0.0}, "ground_omega_rad_s must be positive"),
    ("earth-leo", {"peak_frequency_hz": -7e14}, "peak_frequency_hz must be positive"),
    ("earth-geo", {"bandwidth_hz": [1e6, 0.0]}, "bandwidth_hz must be positive"),
    ("earth-leo", {"squeezing": 0.0}, "squeezing must be positive"),
    ("earth-leo", {"planet_mass_kg": -1.0}, "planet_mass_kg must be positive"),
    ("leo-geo-sat", {"planet_spin_parameter_m": 0.0},
     "planet_spin_parameter_m must be positive"),
    ("earth-leo", {"probes": 0.5}, "probes must be at least 1"),
    ("earth-leo", {"probes": [1e10, 1.0, 0.99]}, "probes must be at least 1"),
    ("earth-leo", {"receiver_radius_m": []},
     "receiver_radius_m must be a number or a non-empty list of numbers"),
    ("earth-leo", {"squeezing": None}, "squeezing must be a number"),
    ("earth-leo", {"probes": "1e10"}, "probes must be a number"),
    # only a swept field holds a sweep chunk's list
    ("earth-leo", {"planet_mass_kg": [5e24, 6e24]}, "planet_mass_kg must be a number,"),
]


@pytest.mark.parametrize("preset, change, message", _BUILD_REFUSALS)
def test_config_refuses_a_bad_field_when_built(preset, change, message):
    with pytest.raises(ConfigError, match=message):
        replace(PRESETS[preset], **change)


class TestSweepSpec:
    def test_linear_grid_hits_endpoints(self):
        spec = SweepSpec("r_B", 1.0, 2.0, 5)
        vals = spec.values()
        assert vals[0] == 1.0 and vals[-1] == 2.0 and len(vals) == 5

    def test_log_grid(self):
        spec = SweepSpec("sigma", 1e4, 1e8, 5, "log")
        vals = spec.values()
        assert vals[2] == pytest.approx(1e6, rel=1e-12)

    @pytest.mark.parametrize("spec", [
        SweepSpec("r_B", 7.0e6, 4.2e7, 300),
        SweepSpec("r_B", 7.0e6, 4.2e7, 300, "log"),
        SweepSpec("N", -3.0, 1e-3, 7),
        SweepSpec("sigma", 1e4, 1e8, 2, "log"),
    ])
    def test_a_range_of_values_is_that_slice_of_all_of_them(self, spec):
        every = spec.values()
        n = spec.points
        for start, stop in [(0, n), (0, 1), (0, 128), (n - 1, n), (n - 5, n),
                            (1, n - 1), (128, 256), (n - 1, n + 128), (3, 3)]:
            assert spec.values(start, stop) == every[start:stop]

    def test_validation(self):
        with pytest.raises(ConfigError):
            SweepSpec("bogus", 1.0, 2.0, 5)
        with pytest.raises(ConfigError):
            SweepSpec("r_B", 2.0, 1.0, 5)
        with pytest.raises(ConfigError):
            SweepSpec("r_B", 1.0, 2.0, 1)
        with pytest.raises(ConfigError):
            SweepSpec("r_B", -1.0, 2.0, 5, "log")
        with pytest.raises(ConfigError, match="finite"):
            SweepSpec("r_B", 8e6, float("inf"), 3)

    def test_bounds_that_are_not_numbers_are_refused(self):
        with pytest.raises(ConfigError, match="sweep bounds must be finite numbers"):
            SweepSpec("r_B", "1", 2, 3)
        with pytest.raises(ConfigError, match="finite"):
            SweepSpec("r_B", -float("inf"), 8e6, 3)
        # finite bounds whose span overflows would step through inf
        with pytest.raises(ConfigError, match="span hi - lo"):
            SweepSpec("N", -1e308, 1e308, 5)
        for points in (2.5, 3.0, True):
            with pytest.raises(ConfigError, match="must be an int"):
                SweepSpec("r_B", 1.0, 2.0, points)

    def test_apply_r_c_needs_sat_scheme(self):
        spec = SweepSpec("r_C", 7e6, 8e6, 3)
        for refused in (spec.field, lambda cfg: spec.apply(cfg, 7.5e6)):
            with pytest.raises(ConfigError, match="needs a sat-to-sat"):
                refused(PRESETS["earth-leo"])
        assert spec.field(PRESETS["leo-geo-sat"]) == "emitter_radius_m"


# probe counts, squeezings, bandwidths and frequencies across the double range
_LOG_UNIFORM = st.floats(min_value=-300.0, max_value=300.0).map(
    lambda e: 10.0 ** e)


def _floats(tree) -> list:
    """Every float in a JSON-like tree of dicts and lists."""
    if isinstance(tree, dict):
        return [x for v in tree.values() for x in _floats(v)]
    if isinstance(tree, list):
        return [x for v in tree for x in _floats(v)]
    return [tree] if isinstance(tree, float) else []


class TestReport:
    def test_earth_leo_contents(self):
        rep = assemble_report(PRESETS["earth-leo"])
        assert rep.delta_S == pytest.approx(expected.DELTA_S_LEO, rel=1e-12)
        assert rep.bound_schwarzschild_rel == pytest.approx(
            expected.BOUND_RS_LEO, rel=1e-12)
        assert rep.qber == pytest.approx(
            float(expected.DELTA_LEO) ** 2 * 7e14 ** 2 / 8e12, rel=1e-9)
        assert rep.regime == "valid"
        text = rep.render_text()
        assert "delta = f - 1" in text
        assert "QBER" in text

    def test_earth_geo_contents(self):
        rep = assemble_report(PRESETS["earth-geo"])
        assert rep.bound_schwarzschild_rel == pytest.approx(
            expected.BOUND_RS_GEO, rel=1e-12)
        assert rep.theta == pytest.approx(expected.THETA_GEO, rel=1e-9)

    def test_sat_preset_decomposition(self):
        rep = assemble_report(PRESETS["leo-geo-sat"])
        assert rep.delta_S == pytest.approx(expected.DELTA_S_SATS, rel=1e-12)
        assert rep.delta_rot == pytest.approx(expected.DELTA_ROT_SATS, rel=1e-12)
        # the 1e-23-scale rotation term rides far below double epsilon of the
        # mass term; the report says where its digits come from
        assert any("compensated" in n for n in rep.notes)

    def test_parameter_block_reproduces_table(self):
        leo = assemble_report(PRESETS["earth-leo"]).ratios
        assert leo["M/r_emitter"] == pytest.approx(6.95e-10, rel=5e-3)
        assert leo["M/r_receiver"] == pytest.approx(5.29e-10, rel=5e-3)
        assert leo["a/r_emitter"] == pytest.approx(5.11e-7, rel=5e-3)
        assert leo["a/r_receiver"] == pytest.approx(3.89e-7, rel=5e-3)
        assert leo["r_emitter*omega/c"] == pytest.approx(1.55e-6, rel=5e-3)
        geo = assemble_report(PRESETS["earth-geo"]).ratios
        assert geo["M/r_receiver"] == pytest.approx(1.05e-10, rel=5e-3)
        assert geo["a/r_receiver"] == pytest.approx(7.73e-8, rel=5e-3)
        sats = assemble_report(PRESETS["leo-geo-sat"]).ratios
        assert sats["M/r_emitter"] == pytest.approx(5.29e-10, rel=5e-3)
        assert sats["M/r_receiver"] == pytest.approx(1.05e-10, rel=5e-3)
        assert sats["a/r_emitter"] == pytest.approx(3.89e-7, rel=5e-3)
        assert sats["a/r_receiver"] == pytest.approx(7.73e-8, rel=5e-3)
        assert "r_emitter*omega/c" not in sats  # both observers geodesic

    @pytest.mark.parametrize("probes, orders, line", [
        (1e30, -5, "5 orders below (better)"),
        (1e20, 0, "same order of magnitude"),
    ])
    def test_bound_at_or_below_the_state_of_the_art(self, probes, orders,
                                                    line):
        rep = assemble_report(replace(PRESETS["earth-leo"], probes=probes))
        assert rep.omega_orders_vs_reference == orders
        assert rep.as_dict()["omega_orders_vs_reference"] == orders
        text = rep.render_text()
        assert f"  vs reference 1.0e-08:     {line}\n" in text
        assert "above (worse)" not in text

    def test_deterministic_text(self):
        a = assemble_report(PRESETS["earth-geo"]).render_text()
        b = assemble_report(PRESETS["earth-geo"]).render_text()
        assert a == b

    def test_report_at_vanishing_mass_term(self):
        # a receiver at exactly 1.5x the surface radius zeroes the mass term:
        # the radius bound refuses (noted), while the QBER survives on the
        # rotation-dominated shift
        from dataclasses import replace
        cfg = replace(PRESETS["earth-leo"], receiver_radius_m=1.5 * 6.378e6)
        rep = assemble_report(cfg)
        assert rep.delta_S == 0.0
        assert rep.bound_schwarzschild_rel is None
        assert any("higher-order" in n for n in rep.notes)
        assert rep.bound_omega_rel == pytest.approx(
            expected.BOUND_OMEGA_GROUND, rel=1e-12)
        assert rep.qber == pytest.approx(expected.QBER_ZERO_ORBIT, rel=0.05)
        assert "refused" in rep.render_text()

    def test_json_twin(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["report", "--preset", "earth-leo", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["delta"]["hi"] == pytest.approx(9.7442547847861e-11, rel=1e-10)
        assert data["regime"] == "valid"

    def test_tiny_rotation_term_refuses_the_angular_velocity_bound(
            self, tmp_path, capsys):
        # floor / (2 |delta_rot|) overflows for a ground station spinning at
        # 1e-158 rad/s: the bound is refused, never printed as inf
        cfg = tmp_path / "slow.cfg"
        cfg.write_text("ground_omega_rad_s = 1e-158\nbandwidth_hz = 1e12\n")
        out = tmp_path / "slow.json"
        code = main(["report", "--preset", "earth-leo", "--config", str(cfg),
                     "--out", str(out)])
        text = capsys.readouterr().out
        assert code == 0
        assert "bound on Delta w_A / w_A:   refused" in text
        assert not re.search(r"\binf\b", text)
        data = json.loads(out.read_text(), parse_constant=pytest.fail)
        assert data["bound_omega_rel"] is None
        assert all(math.isfinite(x) for x in _floats(data))

    @pytest.mark.parametrize("preset, fields, refused", [
        # a finite angular-velocity bound whose ratio to the state of the
        # art overflows
        ("earth-geo", "ground_omega_rad_s = 6.25813863832812e-158\n",
         "relative bound (1.571e+303) too large to compare"),
        # delta_S and delta_c both underflow to zero
        ("earth-leo", "planet_mass_kg = 1e-290\nground_omega_rad_s = 1e-293\n",
         "bound on Delta r_S / r_S:   refused"),
        # the floor over a tiny mass term overflows
        ("leo-geo-sat", "squeezing = 1.6e-23\nplanet_mass_kg = 3.4e-277\n",
         "bound on Delta r_S / r_S:   refused"),
    ])
    def test_out_of_range_bound_is_refused_in_report_and_sweep(
            self, tmp_path, capsys, preset, fields, refused):
        cfg = tmp_path / "edge.cfg"
        cfg.write_text(fields)
        assert main(["report", "--preset", preset, "--config", str(cfg)]) == 0
        assert refused in capsys.readouterr().out
        cfg.write_text(fields + "sweep_variable = s\nsweep_lo = 0.5\n"
                       "sweep_hi = 4.0\nsweep_points = 3\n")
        out = tmp_path / "edge.csv"
        assert main(["sweep", "--preset", preset, "--config", str(cfg),
                     "--out", str(out), "--no-timestamp"]) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 3
        assert all(row.split(",")[2] for row in rows)  # no error row

    # Each case once left the double-double range and was refused as such.
    # On scaled integers the closed form and the decomposition have no range
    # to leave: five cases are computed, and two are refused by what their
    # numbers mean.
    @pytest.mark.parametrize("preset, fields, sweep, refused", [
        # r^3 of the receiver radius underflowed to zero; delta is computed,
        # and is so small that the packet overlap's exponent underflows
        ("earth-geo", "emitter_radius_m = 5e-227\nreceiver_radius_m = 1e-225\n"
         "planet_mass_kg = 1e-250\n",
         "sweep_variable = r_B\nsweep_lo = 1e-226\nsweep_hi = 1e-224\n"
         "sweep_scale = log\n",
         "DomainError: packet overlap exponent overflows or underflows"),
        # a^2 of the frame-dragging term overflowed, or overflowed its split
        ("leo-geo-sat", "planet_spin_parameter_m = 1e160\n",
         "sweep_variable = r_B\nsweep_lo = 4e7\nsweep_hi = 5e7\n", None),
        ("leo-geo-sat", "planet_spin_parameter_m = 1e152\n",
         "sweep_variable = s\nsweep_lo = 1\nsweep_hi = 3\n", None),
        # a^2 of a ground station's deviation overflowed; computed, a omega/c
        # of 2e147 makes the station superluminal
        ("earth-leo", "planet_spin_parameter_m = 1e160\n",
         "sweep_variable = r_B\nsweep_lo = 7e6\nsweep_hi = 4.2e7\n",
         "DomainError: square-root argument for the ground-station "
         "normalization is not positive"),
        # r^3 was finite, but the Dekker split of it in M / r^3 overflowed
        ("earth-leo", "receiver_radius_m = 1e102\n",
         "sweep_variable = r_B\nsweep_lo = 1e102\nsweep_hi = 2e102\n", None),
        ("leo-geo-sat", "emitter_radius_m = 1e102\nreceiver_radius_m = 2e102\n",
         "sweep_variable = r_C\nsweep_lo = 1e102\nsweep_hi = 1.5e102\n", None),
        # r^3 overflowed, and the split of the overflow was NaN
        ("leo-geo-sat", "emitter_radius_m = 1e300\nreceiver_radius_m = 1.5e300\n",
         "sweep_variable = r_B\nsweep_lo = 1.5e300\nsweep_hi = 1.6e300\n", None),
    ], ids=["r3-underflows", "a2-overflows", "a2-split-overflows",
            "station-a2-overflows", "receiver-r3-split-overflows",
            "emitter-r3-split-overflows", "r3-overflows"])
    def test_term_out_of_range_is_refused_in_report_and_sweep(
            self, tmp_path, capsys, preset, fields, sweep, refused):
        """The report and every sweep row refuse the case with one message,
        or carry finite numbers (``refused`` None)."""
        cfg = tmp_path / "edge.cfg"
        cfg.write_text(fields)
        out = tmp_path / "edge.json"
        code = main(["report", "--preset", preset, "--config", str(cfg),
                     "--out", str(out)])
        err = capsys.readouterr().err
        if refused is None:
            assert code == 0
            data = json.loads(out.read_text(), parse_constant=pytest.fail)
            assert all(math.isfinite(x) for x in _floats(data))
        else:
            assert code == 3
            assert err.startswith(refused) and "nan" not in err
            assert not out.exists()  # no NaN reaches the JSON
        cfg.write_text(fields + sweep + "sweep_points = 3\n")
        out = tmp_path / "edge.csv"
        assert main(["sweep", "--preset", preset, "--config", str(cfg),
                     "--out", str(out), "--no-timestamp"]) == 0
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        assert len(rows) == 3
        if refused is None:
            assert all(r[2] and all(c == "" or math.isfinite(float(c))
                                    for c in r[1:-2]) for r in rows)
        else:
            assert all(r[-1].startswith(refused) and "nan" not in r[-1]
                       for r in rows)

    # the repro cases: a square, a sinh and the information of all N probes
    # overflow, a squared bandwidth underflows
    @example(preset="earth-leo", probes=1e10, squeezing=2.0,
             bandwidth_hz=1e6, peak_frequency_hz=1e200)
    @example(preset="earth-leo", probes=1e10, squeezing=800.0,
             bandwidth_hz=1e6, peak_frequency_hz=7e14)
    @example(preset="earth-leo", probes=1e10, squeezing=334.0,
             bandwidth_hz=1e6, peak_frequency_hz=7e14)
    @example(preset="earth-leo", probes=1e10, squeezing=2.0,
             bandwidth_hz=1e-300, peak_frequency_hz=7e14)
    @given(preset=st.sampled_from(sorted(PRESETS)),
           probes=_LOG_UNIFORM, squeezing=_LOG_UNIFORM,
           bandwidth_hz=_LOG_UNIFORM, peak_frequency_hz=_LOG_UNIFORM)
    @settings(max_examples=300)
    def test_metrology_inputs_give_finite_numbers_or_a_refusal(
            self, preset, **metrology):
        try:
            rep = assemble_report(replace(PRESETS[preset], **metrology))
        except KerrQlinkError:
            return
        values = _floats(rep.as_dict())
        assert values and all(math.isfinite(x) for x in values)


# every float field of a scenario, across the double range and at its edges:
# the smallest subnormal, the smallest normal, where a Dekker split starts to
# overflow, and the largest double (the literal 1.8e308 would be inf)
_FLOAT_FIELDS = [f.name for f in fields(ScenarioConfig) if f.type == "float"]
_EDGE_VALUES = (5e-324, 2.2e-308, 1.3e300, sys.float_info.max)


@st.composite
def _whole_configs(draw):
    """(preset, changes): each float field of the preset kept or redrawn,
    and both directions drawn."""
    preset = draw(st.sampled_from(sorted(PRESETS)))
    value = st.one_of(st.none(), _LOG_UNIFORM, st.sampled_from(_EDGE_VALUES))
    drawn = {name: draw(value) for name in _FLOAT_FIELDS}
    return preset, {k: v for k, v in drawn.items() if v is not None} | {
        "emitter_direction": draw(st.sampled_from((1, -1))),
        "receiver_direction": draw(st.sampled_from((1, -1)))}


class TestWholeConfig:
    """Any config gives finite numbers or a named refusal, in a report and
    in every row of a sweep."""

    @settings(max_examples=150)
    @given(drawn=_whole_configs())
    # the bounds and terms pinned one by one in TestReport's
    # test_out_of_range_bound_is_refused_in_report_and_sweep and
    # test_term_out_of_range_is_refused_in_report_and_sweep
    @example(drawn=("earth-geo", {"ground_omega_rad_s": 6.25813863832812e-158}))
    @example(drawn=("earth-leo", {"planet_mass_kg": 1e-290,
                                  "ground_omega_rad_s": 1e-293}))
    @example(drawn=("leo-geo-sat", {"squeezing": 1.6e-23,
                                    "planet_mass_kg": 3.4e-277}))
    @example(drawn=("earth-geo", {"emitter_radius_m": 5.6,
                                  "receiver_radius_m": 1e-225,
                                  "planet_mass_kg": 1e-250}))
    @example(drawn=("leo-geo-sat", {"planet_spin_parameter_m": 1e160}))
    @example(drawn=("leo-geo-sat", {"planet_spin_parameter_m": 1e152}))
    @example(drawn=("earth-leo", {"planet_spin_parameter_m": 1e160}))
    @example(drawn=("earth-leo", {"receiver_radius_m": 1e102}))
    @example(drawn=("leo-geo-sat", {"emitter_radius_m": 1e102,
                                    "receiver_radius_m": 2e102}))
    # a finite shift whose ratio a/r overflows the report's parameter table
    @example(drawn=("leo-geo-sat", {"emitter_radius_m": 0.1,
                                    "receiver_radius_m": 0.1,
                                    "planet_spin_parameter_m": 1.7976931348623157e+308}))
    def test_finite_numbers_or_a_refusal(self, tmp_path_factory, drawn):
        preset, changes = drawn
        try:
            cfg = replace(PRESETS[preset], **changes)
        except ConfigError:
            return  # no sweep runs on a config that cannot be built
        try:
            rep = assemble_report(cfg)
        except KerrQlinkError:
            pass
        else:
            assert not re.search(r"\b(nan|inf)\b", rep.render_text())
            json.dumps(rep.as_dict(), allow_nan=False)
        out = tmp_path_factory.mktemp("whole") / "sweep.csv"
        for variable, name in _SWEPT_FIELDS.items():
            if variable == "r_C" and cfg.scheme is not LinkScheme.SAT_TO_SAT:
                continue
            value = getattr(cfg, name)
            lo, hi = sorted((value, value * 4.0 if value < 1e300 else value / 4.0))
            spec = SweepSpec(variable, lo, hi, 70, "log")
            assert run_sweep(cfg, spec, str(out), no_timestamp=True) == 70
            with open(out, encoding="utf-8", newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            assert len(rows) == 70
            for row in rows:
                # the sweep value and the 13 quantities
                assert all(cell == "" or math.isfinite(float(cell))
                           for cell in row[1:-2])


    @settings(max_examples=60)
    @given(drawn=_whole_configs())
    @example(drawn=("earth-leo", {}))
    @example(drawn=("leo-geo-sat", {}))
    def test_sweep_rows_are_the_scalar_shift_within_its_bound(
            self, tmp_path_factory, drawn):
        """In either scheme, each sweep row with values carries the limbs of
        a scalar shift() of its point bit for bit, and its delta lies within
        the closed form's bound of the oracle (on the first, middle and last
        such rows)."""
        preset, changes = drawn
        try:
            cfg = replace(PRESETS[preset], **changes)
        except ConfigError:
            return
        out = tmp_path_factory.mktemp("scalar") / "sweep.csv"
        for variable, name in _SWEPT_FIELDS.items():
            if variable == "r_C" and cfg.scheme is not LinkScheme.SAT_TO_SAT:
                continue
            value = getattr(cfg, name)
            lo, hi = sorted((value, value * 4.0 if value < 1e300 else value / 4.0))
            spec = SweepSpec(variable, lo, hi, 70, "log")
            run_sweep(cfg, spec, str(out), no_timestamp=True)
            with open(out, encoding="utf-8", newline="") as fh:
                rows = [row for row in csv.DictReader(fh) if row["f_hi"]]
            for row in rows:
                point = spec.apply(cfg, float(row["sweep_value"]))
                res = shift(point.link())
                assert [float(row[c]) for c in ("f_hi", "f_lo", "delta_hi",
                                                "delta_lo")] \
                    == [res.f.hi, res.f.lo, res.delta.hi, res.delta.lo]
            for row in {id(r): r for r in rows[:1] + rows[len(rows) // 2:][:1]
                        + rows[-1:]}.values():
                point = spec.apply(cfg, float(row["sweep_value"]))
                gap, bound = delta_gap(point, float(row["delta_hi"]),
                                       float(row["delta_lo"]))
                assert gap <= bound


class TestSweep:
    def _write_cfg(self, tmp_path, text):
        path = tmp_path / "scenario.cfg"
        path.write_text(text)
        return str(path)

    def test_zero_crossing_and_reproducibility(self, tmp_path):
        cfg = PRESETS["earth-leo"]
        spec = SweepSpec("r_B", 6.578e6, 4.6378e7, 41)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert run_sweep(cfg, spec, str(out1), no_timestamp=True) == 41
        assert run_sweep(cfg, spec, str(out2), no_timestamp=True) == 41
        a, b = out1.read_bytes(), out2.read_bytes()
        assert a == b  # byte-identical across runs

        lines = out1.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        deltas = []
        for line in lines[1:]:
            cells = line.split(",")
            rb = float(cells[1])
            deltas.append((rb, float(cells[4])))
        signs = [d > 0 for _, d in deltas]
        flip = [i for i in range(1, len(signs)) if signs[i] != signs[i - 1]]
        assert len(flip) == 1
        r_flip = deltas[flip[0]][0]
        assert abs(r_flip - 1.5 * 6.378e6) < 2e6  # crossing near 1.5 r_A

    def test_single_point_sweep_matches_report(self, tmp_path):
        cfg = PRESETS["earth-leo"]
        spec = SweepSpec("r_B", leo_radius(), geo_radius(), 2)
        out = tmp_path / "two.csv"
        run_sweep(cfg, spec, str(out), no_timestamp=True)
        first = out.read_text().splitlines()[1].split(",")
        rep = assemble_report(cfg)
        assert float(first[2]) == rep.f.hi
        assert float(first[3]) == rep.f.lo
        assert float(first[6]) == pytest.approx(rep.delta_S, rel=1e-15)

    def test_error_rows_keep_running(self, tmp_path):
        # sweeping the receiver through the emitter radius produces rows whose
        # scenario is invalid; they carry the message and the sweep continues
        cfg = PRESETS["leo-geo-sat"]
        spec = SweepSpec("r_B", 7.0e6, 5.0e7, 9)
        out = tmp_path / "err.csv"
        assert run_sweep(cfg, spec, str(out), no_timestamp=True) == 9
        rows = out.read_text().splitlines()[1:]
        bad = [r for r in rows if "DomainError" in r or "ConfigError" in r]
        good = [r for r in rows if r.split(",")[2]]
        assert bad and good

    def test_timestamp_header_toggle(self, tmp_path):
        cfg = PRESETS["earth-leo"]
        spec = SweepSpec("s", 0.5, 4.0, 3)
        stamped = tmp_path / "t.csv"
        bare = tmp_path / "p.csv"
        run_sweep(cfg, spec, str(stamped), no_timestamp=False)
        run_sweep(cfg, spec, str(bare), no_timestamp=True)
        assert stamped.read_text().splitlines()[0].startswith("# generated ")
        assert bare.read_text().splitlines()[0] == ",".join(CSV_COLUMNS)

    def test_emitter_radius_sweep_for_orbit_pairs(self, tmp_path):
        cfg = PRESETS["leo-geo-sat"]
        spec = SweepSpec("r_C", 7.0e6, 2.0e7, 5)
        out = tmp_path / "rc.csv"
        assert run_sweep(cfg, spec, str(out), no_timestamp=True) == 5
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        col = CSV_COLUMNS.index("delta_S")
        mass_terms = [float(r[col]) for r in rows if r[col]]
        assert len(mass_terms) == 5
        # lifting the emitter toward the receiver weakens the shift
        assert all(m < 0 for m in mass_terms)
        assert abs(mass_terms[-1]) < abs(mass_terms[0])

    def test_squeezing_sweep_scales_bound(self, tmp_path):
        cfg = PRESETS["earth-leo"]
        spec = SweepSpec("s", 1.0, 3.0, 3)
        out = tmp_path / "s.csv"
        run_sweep(cfg, spec, str(out), no_timestamp=True)
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        import math
        col = CSV_COLUMNS.index("bound_schwarzschild_rel")
        for row in rows:
            s = float(row[1])
            got = float(row[col])
            want = float(rows[0][col]) * math.sinh(1.0) / math.sinh(s)
            assert got == pytest.approx(want, rel=1e-12)


# The reference for the sweep plan: the whole report pipeline evaluated
# afresh for one point through the public functions, with no stage shared
# between points, and the CSV row formatted from it.

def _reference_report(cfg: ScenarioConfig) -> Report:
    link = cfg.link()
    result, dec = shift(link, decompose_ground
                        if cfg.scheme is LinkScheme.GROUND_TO_SAT
                        else decompose_sats)
    delta_f = result.delta.to_float()
    overlap = overlap_analytic(cfg.packet(), delta_f)
    m = cfg.metrology()
    notes = []
    if 0.0 < abs(dec.delta_rot.to_float()) < 2.3e-16:
        notes.append(
            "rotation term sits below double epsilon of the unit shift ratio; "
            "its digits are carried by the compensated pipeline")
    bound_rs = bound_omega = orders = None
    try:
        bound_rs = bound_schwarzschild_radius(m, dec).relative_bound
    except DomainError as exc:
        notes.append(str(exc))
    try:
        bound_omega = bound_angular_velocity(m, dec).relative_bound
        orders = orders_vs_state_of_the_art(bound_omega)
    except DomainError as exc:
        notes.append(str(exc))
    status = regime_check(delta_f, m)
    qber_value = None
    if status:
        qber_value = qber(delta_f, m)
    else:
        notes.append(f"QBER refused: {status.reason}")
    p = cfg.spacetime()
    ratios = {
        "M/r_emitter": p.M_geom / cfg.emitter_radius_m,
        "M/r_receiver": p.M_geom / cfg.receiver_radius_m,
        "a/r_emitter": p.a / cfg.emitter_radius_m,
        "a/r_receiver": p.a / cfg.receiver_radius_m,
    }
    if cfg.scheme is LinkScheme.GROUND_TO_SAT:
        ratios["r_emitter*omega/c"] = (
            cfg.emitter_radius_m * cfg.ground_omega_rad_s / C)
    return Report(
        scheme=cfg.scheme.value, emitter_radius_m=cfg.emitter_radius_m,
        receiver_radius_m=cfg.receiver_radius_m, ratios=ratios,
        f=result.f, delta=result.delta,
        delta_S=dec.delta_S.to_float(), delta_rot=dec.delta_rot.to_float(),
        delta_c=dec.delta_c.to_float(),
        theta=overlap.theta, fidelity=overlap.fidelity,
        qfi=qfi(m), delta_delta_min=shift_uncertainty_floor(m),
        bound_schwarzschild_rel=bound_rs, bound_omega_rel=bound_omega,
        omega_orders_vs_reference=orders, qber=qber_value,
        regime="valid" if status else f"invalid: {status.reason}",
        notes=notes,
    )


def _reference_escape(text: str) -> str:
    if any(ch in text for ch in ",\"\n"):
        return '"' + text.replace('"', '""') + '"'
    return text


def _reference_row(index: int, value: float, cfg_of) -> str:
    """The CSV row of point ``index``, the config ``cfg_of()`` builds."""
    def fmt(x):
        return "" if x is None else format(x, ".17e")

    try:
        rep = _reference_report(cfg_of())
    except KerrQlinkError as exc:
        cells = [str(index), fmt(value)] + [""] * (len(CSV_COLUMNS) - 3) \
            + [_reference_escape(f"{type(exc).__name__}: {exc}")]
        return ",".join(cells)
    values = (value, rep.f.hi, rep.f.lo, rep.delta.hi, rep.delta.lo,
              rep.delta_S, rep.delta_rot, rep.delta_c, rep.theta,
              rep.qfi, rep.delta_delta_min, rep.bound_schwarzschild_rel,
              rep.bound_omega_rel, rep.qber)
    cells = [str(index), *map(fmt, values), rep.regime,
             _reference_escape("; ".join(rep.notes))]
    return ",".join(cells)


def _outcome(evaluate, cfg: ScenarioConfig) -> str:
    """Report text and JSON, or the refusal, of one evaluation."""
    try:
        rep = evaluate(cfg)
    except KerrQlinkError as exc:
        return f"{type(exc).__name__}: {exc}"
    return rep.render_text() + json.dumps(rep.as_dict(), sort_keys=True)


@st.composite
def _sweeps(draw):
    """(config, sweep) pairs whose ranges cross the domain edges: r_B through
    the emitter radius and the delta_S zero near 1.5 r_A, r_C through the
    receiver radius, and s, N and sigma through invalid values and out of the
    QBER regime."""
    variable = draw(st.sampled_from(SWEEP_VARIABLES))
    preset = "leo-geo-sat" if variable == "r_C" else draw(st.sampled_from(sorted(PRESETS)))
    cfg = replace(PRESETS[preset],
                  emitter_direction=draw(st.sampled_from((1, -1))),
                  receiver_direction=draw(st.sampled_from((1, -1))))
    scale = draw(st.sampled_from(("linear", "log")))
    log = scale == "log"
    if variable == "r_B":
        lo = cfg.emitter_radius_m * draw(st.floats(0.5, 1.6))
        hi = lo * draw(st.floats(1.01, 8.0))
    elif variable == "r_C":
        lo = cfg.receiver_radius_m * draw(st.floats(0.1, 1.1))
        hi = lo * draw(st.floats(1.01, 5.0))
    elif variable == "s":
        lo = draw(st.floats(0.05 if log else -1.0, 3.0))
        hi = lo + draw(st.floats(0.1, 3.0))
    elif variable == "N":
        lo = 10.0 ** draw(st.floats(-2.0, 8.0))
        hi = lo * 10.0 ** draw(st.floats(0.5, 8.0))
    else:
        lo = 10.0 ** draw(st.floats(1.0, 10.0))
        hi = lo * 10.0 ** draw(st.floats(0.5, 6.0))
    return cfg, SweepSpec(variable, lo, hi, draw(st.integers(2, 9)), scale)


# one change per config field, and changes that make a stage raise
_CHANGES = {
    "scheme": lambda c: {"scheme": LinkScheme.SAT_TO_SAT
                         if c.scheme is LinkScheme.GROUND_TO_SAT
                         else LinkScheme.GROUND_TO_SAT},
    "emitter_radius_m": lambda c: {"emitter_radius_m": c.emitter_radius_m * 1.01},
    "receiver_radius_m": lambda c: {"receiver_radius_m": c.receiver_radius_m * 1.01},
    "emitter_direction": lambda c: {"emitter_direction": -1},
    "receiver_direction": lambda c: {"receiver_direction": -1},
    "ground_omega_rad_s": lambda c: {"ground_omega_rad_s": c.ground_omega_rad_s * 2.0},
    "peak_frequency_hz": lambda c: {"peak_frequency_hz": c.peak_frequency_hz * 1.5},
    "bandwidth_hz": lambda c: {"bandwidth_hz": c.bandwidth_hz * 3.0},
    "probes": lambda c: {"probes": c.probes * 100.0},
    "squeezing": lambda c: {"squeezing": c.squeezing + 1.0},
    "planet_mass_kg": lambda c: {"planet_mass_kg": c.planet_mass_kg * 1.01},
    "planet_spin_parameter_m": lambda c: {
        "planet_spin_parameter_m": c.planet_spin_parameter_m * 2.0},
    "emitter-inside-2M": lambda c: {"emitter_radius_m": 1e-3},
    "receiver-inside-2M": lambda c: {"receiver_radius_m": 2e-3},
    "receiver-below-station": lambda c: {"receiver_radius_m": c.emitter_radius_m * 0.9},
}


class TestSweepPlan:
    @settings(max_examples=120)
    @given(_sweeps())
    @example((PRESETS["earth-leo"], SweepSpec("r_B", 9566999.9, 9567000.1, 9)))
    @example((PRESETS["leo-geo-sat"], SweepSpec("r_C", 5.162e6, 4.4162e7, 9)))
    # longer than a chunk: receiver radii 0.5-2 r_A are refused up to the
    # station (index 49, mid-chunk) or the emitter orbit (index 80, past the
    # first chunk), emitter radii from the receiver's (index 127) on
    @example((PRESETS["earth-leo"], SweepSpec("r_B", 3.189e6, 1.2756e7, 150)))
    @example((PRESETS["leo-geo-sat"], SweepSpec("r_B", 3.189e6, 1.2756e7, 150)))
    @example((PRESETS["leo-geo-sat"], SweepSpec("r_C", 4.2162e6, 6.3243e7, 150,
                                                "log")))
    # squeezing, probe counts and bandwidths over more than one chunk:
    # squeezing is refused up to index 37 or, from -3, 111 (past the first
    # chunk), probe counts up to index 29, and the bandwidth leaves the QBER
    # regime at both ends, the upper one from index 83
    @example((PRESETS["earth-leo"], SweepSpec("s", -1.0, 3.0, 150)))
    @example((PRESETS["leo-geo-sat"], SweepSpec("s", -3.0, 1.0, 150)))
    @example((PRESETS["earth-leo"], SweepSpec("N", 0.01, 1e8, 150, "log")))
    @example((PRESETS["earth-geo"], SweepSpec("sigma", 1e1, 1e16, 150, "log")))
    # a station spinning so slowly that its rotation term sits below double
    # epsilon: that note shares rows with the refused r_S bound near the
    # delta_S zero; more slowly still, the omega bound is refused in every row
    @example((replace(PRESETS["earth-leo"], ground_omega_rad_s=1e-12),
              SweepSpec("r_B", 9566999.99, 9567000.01, 150)))
    @example((replace(PRESETS["earth-leo"], ground_omega_rad_s=1e-158,
                      bandwidth_hz=1e12),
              SweepSpec("r_B", 9566999.99, 9567000.01, 150)))
    def test_rows_match_the_per_point_reference(self, tmp_path_factory, sweep):
        cfg, spec = sweep
        out = tmp_path_factory.mktemp("plan") / "rows.csv"
        n = run_sweep(cfg, spec, str(out), no_timestamp=True)
        rows = out.read_bytes().decode("utf-8").split("\n")
        want = [_reference_row(i, v, lambda: spec.apply(cfg, v))
                for i, v in enumerate(spec.values())]
        assert n == len(want)
        assert rows == [",".join(CSV_COLUMNS), *want, ""]

    @pytest.mark.parametrize("preset", ["earth-leo", "leo-geo-sat"])
    @pytest.mark.parametrize("change", sorted(_CHANGES))
    def test_no_stage_goes_stale(self, preset, change):
        # configs A, B, A in turn: B differs from A in one field only, so
        # anything kept from one report to the next would hand B A's result
        a = PRESETS[preset]
        b = replace(a, **_CHANGES[change](a))
        for cfg in (a, b, a):
            assert _outcome(assemble_report, cfg) == _outcome(_reference_report, cfg)


def _refusal(cfg_of):
    """The ConfigError text of building a config, or None."""
    try:
        cfg_of()
    except ConfigError as exc:
        return str(exc)
    return None


@st.composite
def _chunk_values(draw):
    """(preset, sweep variable, values) with values on both sides of every
    check a config makes of the swept field when built: signs, zero, non-finite values,
    probe counts below 1 and radii around each preset's other radius."""
    preset = draw(st.sampled_from(sorted(PRESETS)))
    variable = draw(st.sampled_from(SWEEP_VARIABLES))
    cfg = PRESETS[preset]
    radii = [k * r for r in (cfg.emitter_radius_m, cfg.receiver_radius_m)
             for k in (0.5, 1.0, 2.0)]
    value = st.one_of(
        st.sampled_from((0.0, -1.0, 0.5, 1.0, 3.0, math.nan, math.inf,
                         -math.inf, *radii)),
        st.floats(allow_nan=False, allow_infinity=False))
    return preset, variable, draw(st.lists(value, min_size=1, max_size=8))


class TestSweepChunkConfig:
    """A sweep chunk is one config whose swept field is a list."""

    @settings(max_examples=300)
    @given(_chunk_values())
    def test_chunk_is_refused_iff_a_point_is(self, drawn):
        preset, variable, values = drawn
        cfg, spec = PRESETS[preset], SweepSpec(variable, 1.0, 2.0, 2)
        chunk = _refusal(lambda: spec.apply(cfg, values))
        points = [_refusal(lambda: spec.apply(cfg, v)) for v in values]
        if chunk is None:
            assert points == [None] * len(values)
        else:
            assert chunk in points

    @pytest.mark.parametrize("preset, spec", [
        ("earth-leo", SweepSpec("r_B", 6.5e6, 4.2e7, 20, "log")),
        ("earth-geo", SweepSpec("r_B", 6.4e6, 1e9, 20, "log")),
        ("leo-geo-sat", SweepSpec("r_B", 8.4e6, 1e8, 20)),
        ("leo-geo-sat", SweepSpec("r_C", 6.4e6, 4.2e7, 20)),
    ])
    def test_chunk_shift_elements_match_each_point(self, preset, spec):
        cfg = PRESETS[preset]
        values = spec.values()
        link = spec.apply(cfg, values).link()
        if spec.variable == "r_C":
            # the emitter radii straddle 2**24 m, where the fixed-point scale
            # steps: the closed form refuses the column, and the chunk's rows
            # are those of each point alone
            with pytest.raises(DomainError, match="different fixed-point scales"):
                shift(link)
            assert _chunk_rows(0, values, cfg, spec) == [
                row for i, v in enumerate(values)
                for row in _rows(i, [v], spec.apply(cfg, v), spec)]
            return
        chunk = shift(link)
        for i, v in enumerate(values):
            point = shift(spec.apply(cfg, v).link())
            assert chunk.f.limbs[i] == (point.f.hi, point.f.lo)
            assert chunk.delta.limbs[i] == (point.delta.hi, point.delta.lo)
        # the decomposition, from the closed form's evaluation of the link
        decompose = (decompose_ground if cfg.scheme is LinkScheme.GROUND_TO_SAT
                     else decompose_sats)
        chunk = shift(link, decompose)[1]
        for i, v in enumerate(values):
            point = shift(spec.apply(cfg, v).link(), decompose)[1]
            for column, term in zip(chunk, point):
                limbs = (column.limbs[i] if type(column) is DDColumn
                         else (column.hi, column.lo))
                assert limbs == (term.hi, term.lo)


class TestSweepChunks:
    def test_no_column_holds_more_than_a_chunk(self, monkeypatch, tmp_path):
        sizes = []
        original = DDColumn.__init__

        def recording(self, limbs):
            sizes.append(len(limbs))
            original(self, limbs)

        monkeypatch.setattr(DDColumn, "__init__", recording)
        spec = SweepSpec("r_B", 7.0e6, 4.2e7, 2 * SWEEP_CHUNK + 5, "log")
        assert run_sweep(PRESETS["earth-leo"], spec, str(tmp_path / "r.csv"),
                         no_timestamp=True) == 2 * SWEEP_CHUNK + 5
        assert max(sizes) == SWEEP_CHUNK and 5 in sizes

    def test_rows_reach_the_file_a_chunk_at_a_time(self, monkeypatch,
                                                    tmp_path):
        # like the bench tracer's, this open hands back a context manager,
        # not a file: the sweep must open --out by name, in a with statement
        opened, writes = [], []

        class Recording:
            def __init__(self, fh):
                self.fh = fh

            def write(self, text):
                writes.append(text)
                return self.fh.write(text)

        @contextlib.contextmanager
        def recording_open(*args, **kwargs):
            opened.append(args[0])
            with builtins.open(*args, **kwargs) as fh:
                yield Recording(fh)

        monkeypatch.setattr(report_module, "open", recording_open,
                            raising=False)
        out = tmp_path / "r.csv"
        n = 2 * SWEEP_CHUNK + 5
        spec = SweepSpec("r_B", 7.0e6, 4.2e7, n, "log")
        assert run_sweep(PRESETS["earth-leo"], spec, str(out),
                         no_timestamp=True) == n
        assert opened == [str(out)]
        assert writes[0].startswith(",".join(CSV_COLUMNS) + "\n")
        rows = [text.count("\n") for text in writes]
        rows[0] -= 1  # the header line
        assert max(rows) <= SWEEP_CHUNK and sum(rows) == n
        assert "".join(writes) == out.read_text()

    def test_memory_does_not_grow_with_the_sweep(self, tmp_path):
        def peak(chunks):
            spec = SweepSpec("r_B", 7.0e6, 4.2e7, chunks * SWEEP_CHUNK, "log")
            out = str(tmp_path / "r.csv")
            run_sweep(PRESETS["earth-leo"], spec, out, no_timestamp=True)
            tracemalloc.start()
            try:
                run_sweep(PRESETS["earth-leo"], spec, out, no_timestamp=True)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # a chunk's values are computed when it starts: holding the list of
        # all sweep values costs about 34 bytes a point, and holding every
        # row until the end about 1.1 KB a point
        assert peak(40) <= 1.1 * peak(4)


# a long sweep: more than one chunk, the last of them partly filled
LONG = 150
LONG_CHUNKS = -(-LONG // SWEEP_CHUNK)
assert LONG_CHUNKS > 1 and LONG % SWEEP_CHUNK


class TestSweepPlanStages:
    """What a sweep's variable does not reach runs once per chunk."""

    @pytest.fixture
    def counts(self, monkeypatch):
        shift_module = importlib.import_module("kerr_qlink.shift")
        counts = Counter()

        fixed_module = importlib.import_module("kerr_qlink.fixed")
        perturb_module = importlib.import_module("kerr_qlink.perturb")
        metrology_module = importlib.import_module("kerr_qlink.metrology")
        # the originals, captured before any binding is patched
        originals = {
            "link_scale": fixed_module.link_scale,
            "_ground_parts": shift_module._ground_parts,
            "_orbit_parts": shift_module._orbit_parts,
            "_assemble": shift_module._assemble,
            "delta_rotation_term_ground":
                perturb_module.delta_rotation_term_ground,
            "qfi": metrology_module.qfi,
            "shift_uncertainty_floor": metrology_module.shift_uncertainty_floor,
            "error_angular_velocity": report_module.error_angular_velocity,
        }

        def counting(owner, name):
            original = originals[name]

            def counted(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        counting(fixed_module, "link_scale")
        for name in ("_ground_parts", "_orbit_parts", "_assemble"):
            counting(shift_module, name)
        counting(perturb_module, "delta_rotation_term_ground")
        for name in ("qfi", "shift_uncertainty_floor"):
            counting(metrology_module, name)
        counting(report_module, "error_angular_velocity")
        return counts

    def test_receiver_sweep_builds_the_station_once(self, counts, tmp_path):
        # the receiver terms and the shift run once per chunk of points
        spec = SweepSpec("r_B", 7.0e6, 4.2e7, 9, "log")
        run_sweep(PRESETS["earth-leo"], spec, str(tmp_path / "r.csv"))
        assert counts == {"link_scale": 1, "_ground_parts": 1,
                          "delta_rotation_term_ground": 1,
                          "_orbit_parts": 1, "_assemble": 1,
                          "qfi": 1, "shift_uncertainty_floor": 1,
                          "error_angular_velocity": 1}

    def test_squeezing_sweep_evaluates_the_shift_once(self, counts, tmp_path):
        spec = SweepSpec("s", 0.5, 4.0, 9)
        run_sweep(PRESETS["earth-leo"], spec, str(tmp_path / "s.csv"))
        assert counts == {"link_scale": 1, "_ground_parts": 1,
                          "delta_rotation_term_ground": 1,
                          "_orbit_parts": 1, "_assemble": 1,
                          "qfi": 9, "shift_uncertainty_floor": 9,
                          "error_angular_velocity": 9}

    def test_long_squeezing_sweep_evaluates_the_shift_once_per_chunk(
            self, counts, tmp_path):
        spec = SweepSpec("s", 0.5, 4.0, LONG)
        run_sweep(PRESETS["earth-leo"], spec, str(tmp_path / "s.csv"))
        assert counts["link_scale"] == counts["_assemble"] == LONG_CHUNKS
        assert counts["qfi"] == LONG

    def test_long_receiver_sweep_builds_the_station_once_per_chunk(
            self, counts, tmp_path):
        spec = SweepSpec("r_B", 7.0e6, 4.2e7, LONG, "log")
        run_sweep(PRESETS["earth-leo"], spec, str(tmp_path / "r.csv"))
        assert counts["link_scale"] == counts["_ground_parts"] == LONG_CHUNKS
        assert counts["_orbit_parts"] == LONG_CHUNKS

    def test_long_orbit_pair_sweep_evaluates_each_end_once_per_chunk(
            self, counts, tmp_path):
        spec = SweepSpec("r_B", 8.4e6, 4.5e7, LONG, "log")
        run_sweep(PRESETS["leo-geo-sat"], spec, str(tmp_path / "r.csv"))
        assert counts["link_scale"] == counts["_assemble"] == LONG_CHUNKS
        assert counts["_orbit_parts"] == 2 * LONG_CHUNKS

    def test_angular_velocity_bound_runs_once_per_chunk_of_a_constant_term(
            self, counts, tmp_path):
        # a ground link's rotation term does not depend on the receiver
        spec = SweepSpec("r_B", 7.0e6, 4.2e7, LONG, "log")
        run_sweep(PRESETS["earth-leo"], spec, str(tmp_path / "r.csv"))
        assert counts["error_angular_velocity"] == LONG_CHUNKS

    def test_angular_velocity_bound_runs_per_point_of_a_varying_term(
            self, counts, tmp_path):
        # an orbit pair's frame-dragging term depends on both radii
        spec = SweepSpec("r_B", 8.4e6, 4.5e7, LONG, "log")
        run_sweep(PRESETS["leo-geo-sat"], spec, str(tmp_path / "r.csv"))
        assert counts["error_angular_velocity"] == LONG

    def test_long_receiver_sweep_validates_each_chunk_once(
            self, monkeypatch, tmp_path):
        validated = []
        original = ScenarioConfig.__post_init__

        def counted(cfg):
            validated.append(cfg)
            original(cfg)

        monkeypatch.setattr(ScenarioConfig, "__post_init__", counted)
        spec = SweepSpec("r_B", 7.0e6, 4.2e7, LONG, "log")
        run_sweep(PRESETS["earth-leo"], spec, str(tmp_path / "r.csv"))
        assert len(validated) == LONG_CHUNKS
        assert all(type(cfg.receiver_radius_m) is list for cfg in validated)

    @pytest.mark.parametrize("variable, field, lo, hi", [
        ("s", "squeezing", 0.5, 4.0),
        ("N", "probes", 1e2, 1e14),
        ("sigma", "bandwidth_hz", 1e3, 1e12),
    ])
    def test_long_probe_sweep_builds_no_config_per_point(
            self, monkeypatch, tmp_path, variable, field, lo, hi):
        # each point's metrology reads its element of the chunk's column
        built = []
        original = ScenarioConfig.__post_init__

        def counted(cfg):
            built.append(cfg)
            original(cfg)

        monkeypatch.setattr(ScenarioConfig, "__post_init__", counted)
        spec = SweepSpec(variable, lo, hi, LONG, "log")
        run_sweep(PRESETS["earth-leo"], spec, str(tmp_path / "p.csv"))
        assert len(built) == LONG_CHUNKS
        assert all(type(getattr(cfg, field)) is list for cfg in built)

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_report_runs_each_stage_once(self, counts, preset):
        assemble_report(PRESETS[preset])
        if PRESETS[preset].scheme is LinkScheme.GROUND_TO_SAT:
            assert counts == {"link_scale": 1, "_ground_parts": 1,
                              "delta_rotation_term_ground": 1,
                              "_orbit_parts": 1, "_assemble": 1,
                              "qfi": 1, "shift_uncertainty_floor": 1,
                              "error_angular_velocity": 1}
        else:  # both ends are orbits
            assert counts == {"link_scale": 1, "_orbit_parts": 2,
                              "_assemble": 1,
                              "qfi": 1, "shift_uncertainty_floor": 1,
                              "error_angular_velocity": 1}


class TestRegimeClassifiedOnce:
    """A report or sweep point classifies its regime once, whichever module
    looks the classifier up."""

    @pytest.fixture
    def calls(self, monkeypatch):
        metrology_module = importlib.import_module("kerr_qlink.metrology")
        original = metrology_module.regime_check
        calls = []

        def counted(delta, cfg):
            calls.append(delta)
            return original(delta, cfg)

        for owner in (metrology_module, report_module):
            monkeypatch.setattr(owner, "regime_check", counted)
        return calls

    def test_sweep_classifies_each_point_once(self, calls, tmp_path):
        spec = SweepSpec("r_B", 7.0e6, 4.2e7, 9, "log")
        run_sweep(PRESETS["earth-leo"], spec, str(tmp_path / "r.csv"))
        assert len(calls) == 9

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_report_classifies_once(self, calls, preset):
        rep = assemble_report(PRESETS[preset])
        assert rep.regime == "valid" and rep.qber is not None
        assert len(calls) == 1


class TestCliEntry:
    def test_report_preset(self, capsys):
        assert main(["report", "--preset", "earth-leo"]) == 0
        out = capsys.readouterr().out
        assert "ground-to-sat" in out
        assert "QBER" in out

    def test_unknown_preset_is_config_error(self, capsys):
        assert main(["report", "--preset", "mars-leo"]) == 2

    def test_missing_scenario_is_config_error(self, capsys):
        assert main(["report"]) == 2

    def test_config_file_flow(self, tmp_path, capsys):
        path = tmp_path / "geo.cfg"
        path.write_text("scheme = ground-to-sat\nreceiver_radius_m = 4.2162e7\n")
        assert main(["report", "--config", str(path)]) == 0

    def test_bad_config_file_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("nonsense = 1\n")
        assert main(["report", "--config", str(path)]) == 2

    @pytest.mark.parametrize("field", ["emitter_direction", "receiver_direction"])
    @pytest.mark.parametrize("bad", [True, 1.0, -1.0])
    def test_library_config_direction_must_be_an_int(self, field, bad):
        # a config built in code skips the parser's int conversion
        with pytest.raises(ConfigError, match=f"{field} must be the int"):
            replace(PRESETS["leo-geo-sat"], **{field: bad})

    def test_report_into_a_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "absent" / "r.json"
        assert main(["report", "--preset", "earth-leo", "--out", str(out)]) == 3
        stdout, stderr = capsys.readouterr()
        assert stdout == "" and stderr.startswith(f"error: cannot write {out}")

    def test_sweep_into_a_missing_directory(self, monkeypatch, tmp_path,
                                            capsys):
        def no_rows(*args):
            raise AssertionError("a row was computed for an unwritable --out")

        monkeypatch.setattr(sweep_module, "_rows", no_rows)
        cfgp = tmp_path / "sweep.cfg"
        cfgp.write_text("sweep_variable = N\nsweep_lo = 1e8\nsweep_hi = 1e12\n"
                        "sweep_points = 3\n")
        out = tmp_path / "absent" / "n.csv"
        assert main(["sweep", "--preset", "earth-leo", "--config", str(cfgp),
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}")
        assert not out.parent.exists()

    @pytest.mark.parametrize("content", [None, b"\xff"],
                             ids=["absent", "not-utf8"])
    def test_missing_config_file(self, tmp_path, capsys, content):
        path = tmp_path / "config.cfg"
        if content is not None:
            path.write_bytes(content)
        assert main(["report", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            f"configuration error: cannot read config {path}")

    def test_physics_error_exit_code(self, tmp_path, capsys):
        # a receiver inside 2M is a physics domain error, not a config error
        path = tmp_path / "deep.cfg"
        path.write_text("receiver_radius_m = 1e-3\nemitter_radius_m = 5e-4\n")
        assert main(["report", "--config", str(path)]) == 3

    def test_sweep_requires_block(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["sweep", "--preset", "earth-leo", "--out", str(out)]) == 2

    def test_sweep_end_to_end(self, tmp_path, capsys):
        cfgp = tmp_path / "sweep.cfg"
        cfgp.write_text(
            "sweep_variable = N\nsweep_lo = 1e8\nsweep_hi = 1e12\n"
            "sweep_points = 3\nsweep_scale = log\n")
        out = tmp_path / "n.csv"
        code = main(["sweep", "--preset", "earth-geo", "--config", str(cfgp),
                     "--out", str(out), "--no-timestamp"])
        assert code == 0
        assert len(out.read_text().splitlines()) == 4

    def test_zero_orbit_command(self, capsys):
        assert main(["zero-orbit", "--preset", "earth-leo"]) == 0
        out = capsys.readouterr().out
        assert "zero-shift receiver radius" in out
        radius = float(out.splitlines()[0].split(":")[1].strip().split()[0])
        assert radius == pytest.approx(expected.R_ZERO_KERR, rel=1e-8)

    @pytest.mark.parametrize("preset, omega", [
        ("earth-leo", None), ("earth-geo", None),
        *(("earth-leo", EARTH.omega_A * random.Random(seed).uniform(0.2, 3.0))
          for seed in (1, 2, 3))])
    def test_zero_orbit_is_the_oracle_root_to_one_ulp(self, preset, omega):
        # bisect the 60-digit oracle's delta over the command's bracket down
        # to two adjacent floats, and keep the end with the smaller |delta|
        cfg = PRESETS[preset]
        if omega is not None:
            cfg = replace(cfg, ground_omega_rad_s=omega)
        p = cfg.spacetime()

        def delta(r):
            return delta_exact_ground(p.M_geom, p.a, cfg.emitter_radius_m,
                                      cfg.ground_omega_rad_s, r,
                                      cfg.receiver_direction, 60)

        lo, hi = 1.001 * cfg.emitter_radius_m, 3.0 * cfg.emitter_radius_m
        d_lo, d_hi = delta(lo), delta(hi)
        assert (d_lo < 0) != (d_hi < 0)
        while lo < 0.5 * (lo + hi) < hi:
            mid = 0.5 * (lo + hi)
            d_mid = delta(mid)
            if (d_mid < 0) == (d_lo < 0):
                lo, d_lo = mid, d_mid
            else:
                hi, d_hi = mid, d_mid
        root = lo if abs(d_lo) <= abs(d_hi) else hi
        r_star, residual = zero_orbit(cfg)
        assert abs(r_star - root) <= math.ulp(root)
        assert residual.to_float() == float(delta(r_star))

    def test_zero_orbit_sat_scheme_has_no_root(self, capsys):
        assert main(["zero-orbit", "--preset", "leo-geo-sat"]) == 3

    def test_zero_orbit_refuses_a_receiver_below_the_station(self, tmp_path,
                                                            capsys):
        path = tmp_path / "below.cfg"
        path.write_text("receiver_radius_m = 6.0e6\n")
        assert main(["zero-orbit", "--preset", "earth-leo", "--config",
                     str(path)]) == 3
        assert capsys.readouterr() == ("", (
            "DomainError: receiver radius 6000000.0 must exceed the surface "
            "radius 6378000.0\n"))

    def test_presets_listing(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        for name in ("earth-leo", "earth-geo", "leo-geo-sat"):
            assert name in out

    def test_verify_digit_floor(self, capsys):
        assert main(["verify", "fast", "--digits", "30"]) == 2

    def test_verify_fast_through_entry_point(self, capsys):
        assert main(["verify", "fast"]) == 0

    @pytest.mark.parametrize("preset, overlay", [
        ("earth-leo", "receiver_radius_m = nan\n"),
        ("earth-leo", "receiver_radius_m = inf\n"),
        ("earth-leo", "probes = nan\n"),
        ("earth-leo", "probes = 0.5\n"),  # Cramer-Rao needs N >= 1
    ])
    def test_unevaluable_config_is_config_error(self, tmp_path, capsys,
                                                preset, overlay):
        path = tmp_path / "bad.cfg"
        path.write_text(overlay)
        assert main(["report", "--preset", preset, "--config", str(path)]) == 2
        assert capsys.readouterr().out == ""

    def test_identical_orbits_are_a_unit_shift_link(self, tmp_path, capsys):
        path = tmp_path / "equal.cfg"
        path.write_text("receiver_radius_m = 8.378e6\n")  # the emitter's orbit
        assert main(["report", "--preset", "leo-geo-sat", "--config",
                     str(path)]) == 0
        assert "shift ratio f:              1.0 + 0.0\n" in capsys.readouterr().out

    def test_receiver_below_its_emitter_orbit_is_a_domain_error(self, tmp_path,
                                                                capsys):
        path = tmp_path / "below.cfg"
        path.write_text("receiver_radius_m = 7e6\n")
        assert main(["report", "--preset", "leo-geo-sat", "--config",
                     str(path)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(
            "DomainError: sat-to-sat links need receiver radius at or above "
            "emitter radius")

    @pytest.mark.parametrize("overlay", [
        "peak_frequency_hz = 1e200\n",
        "squeezing = 800\n",
        "bandwidth_hz = 1e-300\n",
    ])
    def test_unrepresentable_metrology_is_domain_error(self, tmp_path, capsys,
                                                       overlay):
        path = tmp_path / "huge.cfg"
        path.write_text(overlay)
        assert main(["report", "--preset", "earth-leo", "--config", str(path)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("DomainError: MetrologyConfig")

    def test_unrepresentable_points_become_error_rows(self, tmp_path, capsys):
        path = tmp_path / "s.cfg"
        path.write_text("sweep_variable = s\nsweep_lo = 1\nsweep_hi = 1000\n"
                        "sweep_points = 4\n")
        out = tmp_path / "s.csv"
        code = main(["sweep", "--preset", "earth-leo", "--config", str(path),
                     "--out", str(out), "--no-timestamp"])
        assert code == 0
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        assert len(rows) == 4
        regime, error = CSV_COLUMNS.index("regime"), CSV_COLUMNS.index("error")
        assert rows[0][regime] == "valid"
        assert all(r[error].startswith("DomainError: ") for r in rows[1:])

    @pytest.mark.parametrize("bounds", [
        "sweep_lo = 8e6\nsweep_hi = inf\n",
        "sweep_lo = -inf\nsweep_hi = 8e6\n",
        "sweep_lo = -1e308\nsweep_hi = 1e308\n",  # the span overflows
    ])
    def test_non_finite_sweep_bound_is_config_error(self, tmp_path, capsys,
                                                    bounds):
        path = tmp_path / "bad.cfg"
        path.write_text("sweep_variable = r_B\n" + bounds + "sweep_points = 3\n")
        out = tmp_path / "rows.csv"
        code = main(["sweep", "--preset", "earth-leo", "--config", str(path),
                     "--out", str(out), "--no-timestamp"])
        assert code == 2
        assert capsys.readouterr().out == ""
        assert not out.exists()

    def test_emitter_radius_sweep_on_ground_preset_writes_nothing(
            self, tmp_path, capsys):
        path = tmp_path / "rc.cfg"
        path.write_text("sweep_variable = r_C\nsweep_lo = 7e6\nsweep_hi = 8e6\n"
                        "sweep_points = 3\n")
        out = tmp_path / "rows.csv"
        code = main(["sweep", "--preset", "earth-leo", "--config", str(path),
                     "--out", str(out), "--no-timestamp"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sweeping r_C needs a sat-to-sat scenario" in captured.err
        assert not out.exists()


def _records() -> dict:
    """One instance of each record type the package defines, each built the
    way the program builds it, by class name."""
    cfg = PRESETS["earth-leo"]
    link = cfg.link()
    p, r = link.params, cfg.receiver_radius_m
    result, dec = report_module._link(cfg)
    m, _, _, packet = report_module._metrology(cfg)
    delta = result.delta.to_float()
    k, photon = photon_tangent(p, r, 1.0)
    geodesic = integrate_schwarzschild_radial(p.M_geom, cfg.emitter_radius_m, r)
    found = [
        link, link.emitter, p, EARTH, result,
        dec, m, packet, overlap_analytic(packet, delta), regime_check(delta, m),
        bound_schwarzschild_radius(m, dec), metric_at(p, r), k, photon,
        assemble_report(cfg), SweepSpec("r_B", 7.0e6, 4.2e7, 5), CHECKS[0],
        geodesic, geodesic.trace, geodesic.trace.samples[0],
    ]
    return {type(x).__name__: x for x in found}


RECORDS = _records()


class TestRecords:
    def test_every_record_type_is_covered(self):
        defined = {
            name for m, module in list(sys.modules.items())
            if m.split(".")[0] == "kerr_qlink"
            for name, obj in vars(module).items()
            if isinstance(obj, type) and obj.__module__ == m
            and (obj is not Frozen and issubclass(obj, Frozen)
                 or issubclass(obj, tuple) and hasattr(obj, "_fields"))}
        assert defined == set(RECORDS)

    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_a_record_is_immutable(self, name):
        record = RECORDS[name]
        fields = getattr(record, "_fields", None) or type(record).__slots__
        for field in (*fields, "unknown_field"):
            with pytest.raises(AttributeError):
                setattr(record, field, 1.0)
        for field in fields:
            with pytest.raises(AttributeError):
                delattr(record, field)

    @pytest.mark.parametrize("computed", ["qfi_value", "floor"])
    def test_metrology_config_computes_what_it_stores(self, computed):
        with pytest.raises(TypeError):
            MetrologyConfig(**{computed: 1.0})


class TestLeanReportPath:
    def test_cli_import_loads_neither_scipy_nor_numpy(self):
        src = os.path.dirname(os.path.dirname(kerr_qlink.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        code = ("import sys, kerr_qlink.cli; "
                "print(sorted({'scipy', 'numpy'} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "[]"

    def test_sweep_runs_in_the_calling_thread_without_numpy(self, tmp_path):
        # numpy or scipy on the sweep path would raise its peak memory; the
        # sweep evaluates its rows in order, starting no thread
        src = os.path.dirname(os.path.dirname(kerr_qlink.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        code = (
            "import sys, threading\n"
            "from kerr_qlink.cli import PRESETS, SweepSpec, run_sweep\n"
            "before = threading.active_count()\n"
            "spec = SweepSpec('r_B', 7.0e6, 4.2e7, 5, 'log')\n"
            f"rows = run_sweep(PRESETS['earth-leo'], spec, {str(tmp_path / 's.csv')!r},"
            " no_timestamp=True)\n"
            "print(rows, threading.active_count() - before,"
            " sorted({'scipy', 'numpy'} & set(sys.modules)))\n")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "5 0 []"

    def test_verify_full_loads_neither_scipy_nor_numpy(self):
        # the overlap quadrature cross-check is written with the stdlib
        src = os.path.dirname(os.path.dirname(kerr_qlink.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        code = ("import sys\n"
                "from kerr_qlink.cli.main import main\n"
                "code = main(['verify', 'full'])\n"
                "print(code, sorted({'scipy', 'numpy'} & set(sys.modules)),\n"
                "      'kerr_qlink.crosscheck' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        assert lines[-2:] == ["27/28 checks passed", "4 [] True"]

    def test_report_loads_neither_the_verify_suite_nor_the_oracle(self):
        src = os.path.dirname(os.path.dirname(kerr_qlink.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        # nor the cross-check routes or the sweep rows, after a zero-orbit
        # search, which loads not even the report, and after a report
        code = ("import contextlib, io, sys\n"
                "from kerr_qlink.cli.main import main\n"
                "lazy = {'kerr_qlink.oracle', 'kerr_qlink.cli.selfcheck',\n"
                "        'kerr_qlink.crosscheck', 'kerr_qlink.cli.sweep'}\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    code = main(['zero-orbit', '--preset', 'earth-leo'])\n"
                "print(code, sorted((lazy | {'kerr_qlink.cli.report'})\n"
                "                   & set(sys.modules)))\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    code = main(['report', '--preset', 'earth-leo'])\n"
                "print(code, sorted(lazy & set(sys.modules)))\n"
                # a report without --out uses none of these
                "print(sorted({'json', 'datetime', 'decimal'} & set(sys.modules)))\n"
                # the one dataclass left on the path
                "print(sorted(name for m, module in list(sys.modules.items())\n"
                "             if m.split('.')[0] == 'kerr_qlink'\n"
                "             for name, obj in vars(module).items()\n"
                "             if isinstance(obj, type) and obj.__module__ == m\n"
                "             and '__dataclass_fields__' in vars(obj)))\n"
                "from kerr_qlink.cli import run_verify\n"
                "from kerr_qlink.cli.selfcheck import CHECKS\n"
                "print(len(CHECKS), run_verify.__module__)\n")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.splitlines()[-5:] == [
            "0 []", "0 []", "[]", "['ScenarioConfig']",
            f"{len(CHECKS)} kerr_qlink.cli.selfcheck"]

    def test_cli_serves_what_the_console_script_and_the_harness_read(self):
        import kerr_qlink.cli as cli
        from kerr_qlink.cli import report, scenario, selfcheck
        served = {name: getattr(cli, name) for name in cli.__all__}
        assert served == {
            "main": main, "PRESETS": scenario.PRESETS,
            "SweepSpec": scenario.SweepSpec, "run_report": report.run_report,
            "run_sweep": report.run_sweep, "run_verify": selfcheck.run_verify}
        for name in ("Report", "assemble_report", "ScenarioConfig",
                     "build_config", "load_config", "CHECKS"):
            with pytest.raises(AttributeError, match=name):
                getattr(cli, name)

    def test_package_binds_its_modules_not_their_functions(self):
        src = os.path.dirname(os.path.dirname(kerr_qlink.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        code = ("import sys, types, kerr_qlink\n"
                "print(sorted(m for m in sys.modules if m.startswith('kerr_qlink.')))\n"
                "import kerr_qlink.shift\n"
                "print(isinstance(kerr_qlink.shift, types.ModuleType))\n")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.splitlines() == ["[]", "True"]

    def test_package_refuses_an_unknown_name(self):
        with pytest.raises(AttributeError, match="no_such_route"):
            kerr_qlink.no_such_route

    def test_python_m_kerr_qlink_runs_the_cli_without_a_warning(self):
        src = os.path.dirname(os.path.dirname(kerr_qlink.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "kerr_qlink", "report", "--preset",
             "earth-leo"], env=env, capture_output=True, text=True)
        golden = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "golden", "report_earth-leo.txt")
        with open(golden, encoding="utf-8", newline="") as fh:
            assert (proc.returncode, proc.stdout, proc.stderr) == \
                (0, fh.read(), "")

    @pytest.fixture
    def assemble_calls(self, monkeypatch):
        """The arguments of each call of the closed form's last step."""
        shift_module = importlib.import_module("kerr_qlink.shift")
        calls = []
        original = shift_module._assemble

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(shift_module, "_assemble", counting)
        return calls

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_report_assembles_the_shift_once(self, assemble_calls, preset):
        assemble_report(PRESETS[preset])
        assert len(assemble_calls) == 1

    def test_a_refused_sweep_point_never_reaches_the_shift(self, assemble_calls,
                                                           tmp_path):
        # 0.5, 0.75 and 1.0 r_A lie at or below the station: their links
        # refuse them, so the closed form runs for the other six points alone
        out = tmp_path / "r.csv"
        spec = SweepSpec("r_B", 0.5 * EARTH.r_A, 2.5 * EARTH.r_A, 9)
        assert run_sweep(PRESETS["earth-leo"], spec, str(out),
                         no_timestamp=True) == 9
        rows = csv.DictReader(out.read_text().splitlines())
        refused = [row for row in rows
                   if "must exceed the surface radius" in row["error"]]
        assert len(refused) == 3
        assert len(assemble_calls) == 9 - len(refused)


def _qfi_without_one_sinh(real):
    return lambda cfg: real(cfg) / math.sinh(cfg.squeezing)


def _assemble_without_cross_term(real):
    # delta = u1 + w, the u1 * w of the closed form dropped
    def broken(A, pn, pd, dev_emit, dev_recv, emit_name, recv_name):
        real(A, pn, pd, dev_emit, dev_recv, emit_name, recv_name)  # refusals
        u1 = (pn - pd) / (A.ONE + pd)
        u2 = (dev_recv - dev_emit) / (A.ONE - dev_recv)
        return u1 + u2 / (A.ONE + (A.ONE + u2).sqrt())
    return broken


def _orbit_with_3m_scaled(real):
    # the deviation 3M/r - 2 eps a omega with 3M (1 + 1e-7)
    def broken(A, p, orbit):
        q, aw, dev = real(A, p, orbit)
        return q, aw, dev + A.quotient(3e-7 * p.M_geom, orbit.r)
    return broken


def _ground_without_a2(real):
    # the deviation omega^2 r^2 + 2M/r (1 - a omega)^2, a^2 dropped
    def broken(A, p, station):
        x, v, aw, dev = real(A, p, station)
        return x, v, aw, dev - aw * aw
    return broken


_ORACLES = {"oracle agreement on presets", "oracle agreement on random cloud"}
_PARTS = ("kerr_qlink.geometry", "kerr_qlink.shift", "kerr_qlink.crosscheck")

# each mutant: the function's name, the modules whose binding of it is
# patched (every module that imported the name), how it is broken, and the
# verify checks that must catch it
_MUTANTS = {
    "mass-negated": (
        "delta_mass_term_ground", ("kerr_qlink.perturb",),
        lambda real: lambda *args: -real(*args),
        {"series: mass coefficient"}),
    "mass-scaled": (
        "delta_mass_term_ground", ("kerr_qlink.perturb",),
        lambda real: lambda *args: real(*args) * (1.0 + 1e-6),
        {"series: mass coefficient"}),
    "rotation-negated": (
        "delta_rotation_term_ground", ("kerr_qlink.perturb",),
        lambda real: lambda *args: -real(*args),
        {"series: rotation coefficient"}),
    "qfi-one-sinh": (
        "qfi", ("kerr_qlink.metrology", "kerr_qlink.cli.selfcheck"),
        _qfi_without_one_sinh,
        {"QFI numeric limit"}),
    "qber-doubled": (
        "_qber_in_regime", ("kerr_qlink.metrology", "kerr_qlink.cli.report"),
        lambda real: lambda *args: 2.0 * real(*args),
        {"QBER vs overlap deficit"}),
    "assemble-no-cross-term": (
        "_assemble", ("kerr_qlink.shift", "kerr_qlink.crosscheck"),
        _assemble_without_cross_term,
        {"closed form vs contraction"} | _ORACLES),
    "orbit-3m-scaled": (
        "_orbit_parts", _PARTS,
        _orbit_with_3m_scaled,
        {"non-rotating reduction, bit-exact", "observer norms",
         "zero-shift orbit at 1.5 r_A"} | _ORACLES),
    "ground-no-a2": (
        "_ground_parts", _PARTS,
        _ground_without_a2,
        {"observer norms"} | _ORACLES),
}


class TestVerify:
    def test_fast_suite_green(self, capsys):
        assert run_verify("fast") == 0
        out = capsys.readouterr().out
        assert out.count("[  ok ]") >= 12
        assert "FAIL" not in out

    def test_fast_has_at_least_12_checks(self):
        assert sum(1 for c in CHECKS if c.level == "fast") >= 12

    @pytest.mark.parametrize("name, bindings, breaker, caught",
                             _MUTANTS.values(), ids=_MUTANTS.keys())
    def test_injected_sign_flip_is_caught(self, monkeypatch, name, bindings,
                                          breaker, caught):
        # break one function where every module that imported it calls it:
        # exactly the row's checks must go red, beside the residual check
        # that fails for the correct program too
        modules = [importlib.import_module(m) for m in bindings]
        real = getattr(modules[0], name)
        holders = {m.__name__ for m in list(sys.modules.values())
                   if m is not None and m.__name__.startswith("kerr_qlink")
                   and getattr(m, name, None) is real}
        assert holders == set(bindings)
        for module in modules:
            monkeypatch.setattr(module, name, breaker(real))
        lines = []
        assert run_verify("full", echo=lines.append) == 4
        failed = {c.name for c in CHECKS for line in lines
                  if line.startswith(f"[ FAIL] {c.name}: ")}
        assert failed == caught | {"delta_c residual <= 1e-20"}

    def test_full_suite_reports_known_residual_discrepancy(self, capsys):
        code = run_verify("full")
        out = capsys.readouterr().out
        fails = [l for l in out.splitlines() if l.startswith("[ FAIL]")]
        assert code == 4
        assert len(fails) == 1
        assert "residual" in fails[0]


def test_readme_tour_runs_and_matches_the_report(capsys):
    # the README's Python block, run as written: its last line is the
    # earth-leo QBER that `report --preset earth-leo` prints
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        tour = re.search(r"## Library tour\n\n```python\n(.*?)```", fh.read(),
                         re.S).group(1)
    exec(tour, {})
    last = capsys.readouterr().out.splitlines()[-1]
    assert float(last) == assemble_report(PRESETS["earth-leo"]).qber
