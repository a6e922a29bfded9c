"""Configuration parsing, report/sweep/zero-orbit/verify commands, exit codes."""

import importlib
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import expected
import kerr_qlink
from kerr_qlink.cli import report as report_module
from kerr_qlink.cli.main import main
from kerr_qlink.cli.report import CSV_COLUMNS, Report, assemble_report, run_sweep
from kerr_qlink.cli.scenario import (
    PRESETS,
    SWEEP_VARIABLES,
    ScenarioConfig,
    SweepSpec,
    build_config,
    parse_config_text,
)
from kerr_qlink.cli.selfcheck import CHECKS, run_verify
from kerr_qlink.errors import (
    ConfigError,
    DomainError,
    HigherOrderRegimeError,
    KerrQlinkError,
)
from kerr_qlink.metrology import (
    bound_angular_velocity,
    bound_schwarzschild_radius,
    orders_vs_state_of_the_art,
    qber,
    qfi,
    regime_check,
    shift_uncertainty_floor,
)
from kerr_qlink.perturb import decompose_ground, decompose_sats
from kerr_qlink.shift import LinkScheme, shift
from kerr_qlink.units import C, geo_radius, leo_radius
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
        with pytest.raises(ConfigError):
            build_config(parse_config_text("receiver_direction = 0\n"))

    def test_scientific_notation_accepted(self):
        raw = parse_config_text("probes = 1E+10\nreceiver_radius_m = 8.378e6\n")
        cfg, _ = build_config(raw)
        assert cfg.probes == 1e10

    def test_preset_overlay(self):
        raw = parse_config_text("squeezing = 3.0\n")
        cfg, _ = build_config(raw, PRESETS["earth-leo"])
        assert cfg.squeezing == 3.0
        assert cfg.receiver_radius_m == leo_radius()

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
        with pytest.raises(ConfigError, match="receiver_radius_m"):
            ScenarioConfig().validate()


class TestSweepSpec:
    def test_linear_grid_hits_endpoints(self):
        spec = SweepSpec("r_B", 1.0, 2.0, 5)
        vals = spec.values()
        assert vals[0] == 1.0 and vals[-1] == 2.0 and len(vals) == 5

    def test_log_grid(self):
        spec = SweepSpec("sigma", 1e4, 1e8, 5, "log")
        vals = spec.values()
        assert vals[2] == pytest.approx(1e6, rel=1e-12)

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
        with pytest.raises(ConfigError, match="finite"):
            SweepSpec("r_B", -float("inf"), 8e6, 3)

    def test_apply_r_c_needs_sat_scheme(self):
        spec = SweepSpec("r_C", 7e6, 8e6, 3)
        with pytest.raises(ConfigError):
            spec.apply(PRESETS["earth-leo"], 7.5e6)


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
        assert rep.qber_value == pytest.approx(
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
        assert rep.qber_value == pytest.approx(expected.QBER_ZERO_ORBIT, rel=0.05)
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
    cfg = cfg.validate()
    link = cfg.link()
    result = shift(link)
    delta_f = result.delta.to_float()
    if cfg.scheme is LinkScheme.GROUND_TO_SAT:
        dec = decompose_ground(link.params, cfg.emitter_radius_m,
                               cfg.ground_omega_rad_s, cfg.receiver_radius_m,
                               result.delta)
    else:
        dec = decompose_sats(link.params, cfg.emitter_radius_m,
                             cfg.receiver_radius_m, result.delta)
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
    except HigherOrderRegimeError as exc:
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
        qfi_value=qfi(m), delta_delta_min=shift_uncertainty_floor(m),
        bound_schwarzschild_rel=bound_rs, bound_omega_rel=bound_omega,
        omega_orders_vs_reference=orders, qber_value=qber_value,
        regime="valid" if status else f"invalid: {status.reason}",
        notes=notes,
    )


def _reference_escape(text: str) -> str:
    if any(ch in text for ch in ",\"\n"):
        return '"' + text.replace('"', '""') + '"'
    return text


def _reference_row(index: int, value: float, cfg: ScenarioConfig) -> str:
    def fmt(x):
        return "" if x is None else format(x, ".17e")

    try:
        rep = _reference_report(cfg)
    except KerrQlinkError as exc:
        cells = [str(index), fmt(value)] + [""] * (len(CSV_COLUMNS) - 3) \
            + [_reference_escape(f"{type(exc).__name__}: {exc}")]
        return ",".join(cells)
    values = (value, rep.f.hi, rep.f.lo, rep.delta.hi, rep.delta.lo,
              rep.delta_S, rep.delta_rot, rep.delta_c, rep.theta,
              rep.qfi_value, rep.delta_delta_min, rep.bound_schwarzschild_rel,
              rep.bound_omega_rel, rep.qber_value)
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
    def test_rows_match_the_per_point_reference(self, tmp_path_factory, sweep):
        cfg, spec = sweep
        out = tmp_path_factory.mktemp("plan") / "rows.csv"
        n = run_sweep(cfg, spec, str(out), no_timestamp=True)
        rows = out.read_bytes().decode("utf-8").split("\n")
        want = [_reference_row(i, v, spec.apply(cfg, v))
                for i, v in enumerate(spec.values())]
        assert n == len(want)
        assert rows == [",".join(CSV_COLUMNS), *want, ""]

    @pytest.mark.parametrize("preset", ["earth-leo", "leo-geo-sat"])
    @pytest.mark.parametrize("change", sorted(_CHANGES))
    def test_no_stage_goes_stale(self, preset, change):
        # configs A, B, A through one pipeline: B differs from A in one field
        # only, so a stage key missing that field would hand B A's result
        a = PRESETS[preset]
        b = replace(a, **_CHANGES[change](a))
        pipeline = report_module._Pipeline()
        for cfg in (a, b, a):
            assert _outcome(pipeline.report, cfg) == _outcome(_reference_report, cfg)


class TestSweepPlanStages:
    """Each invariant stage runs once per sweep."""

    @pytest.fixture
    def counts(self, monkeypatch):
        # the package re-exports the function shift, which hides the module
        shift_module = importlib.import_module("kerr_qlink.shift")
        counts = Counter()

        perturb_module = importlib.import_module("kerr_qlink.perturb")

        def counting(owner, name, original):
            def counted(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            # raising=False: a binding the code does not look up counts 0
            monkeypatch.setattr(owner, name, counted, raising=False)

        for name in ("_ground_parts", "_orbit_parts", "_assemble"):
            counting(shift_module, name, getattr(shift_module, name))
        counting(report_module, "delta_rotation_term_ground",
                 perturb_module.delta_rotation_term_ground)
        for name in ("qfi", "shift_uncertainty_floor"):
            counting(report_module, name, getattr(report_module, name))
        return counts

    def test_receiver_sweep_builds_the_station_once(self, counts, tmp_path):
        spec = SweepSpec("r_B", 7.0e6, 4.2e7, 9, "log")
        run_sweep(PRESETS["earth-leo"], spec, str(tmp_path / "r.csv"))
        assert counts == {"_ground_parts": 1, "delta_rotation_term_ground": 1,
                          "_orbit_parts": 9, "_assemble": 9,
                          "qfi": 1, "shift_uncertainty_floor": 1}

    def test_squeezing_sweep_evaluates_the_shift_once(self, counts, tmp_path):
        spec = SweepSpec("s", 0.5, 4.0, 9)
        run_sweep(PRESETS["earth-leo"], spec, str(tmp_path / "s.csv"))
        assert counts == {"_ground_parts": 1, "delta_rotation_term_ground": 1,
                          "_orbit_parts": 1, "_assemble": 1,
                          "qfi": 9, "shift_uncertainty_floor": 9}

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_report_runs_each_stage_once(self, counts, preset):
        assemble_report(PRESETS[preset])
        if PRESETS[preset].scheme is LinkScheme.GROUND_TO_SAT:
            assert counts == {"_ground_parts": 1, "delta_rotation_term_ground": 1,
                              "_orbit_parts": 1, "_assemble": 1,
                              "qfi": 1, "shift_uncertainty_floor": 1}
        else:  # both ends are orbits
            assert counts == {"_orbit_parts": 2, "_assemble": 1,
                              "qfi": 1, "shift_uncertainty_floor": 1}


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
        assert rep.regime == "valid" and rep.qber_value is not None
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
    def test_library_config_direction_must_be_an_int(self, monkeypatch, capsys,
                                                      field, bad):
        # a config built in code skips the parser's int conversion
        cfg = replace(PRESETS["leo-geo-sat"], **{field: bad})
        monkeypatch.setitem(PRESETS, "typed", cfg)
        assert main(["report", "--preset", "typed"]) == 2
        assert capsys.readouterr().out == ""

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

    def test_zero_orbit_sat_scheme_has_no_root(self, capsys):
        assert main(["zero-orbit", "--preset", "leo-geo-sat"]) == 3

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
        ("leo-geo-sat", "receiver_radius_m = 8.378e6\n"),  # equal radii
    ])
    def test_unevaluable_config_is_config_error(self, tmp_path, capsys,
                                                preset, overlay):
        path = tmp_path / "bad.cfg"
        path.write_text(overlay)
        assert main(["report", "--preset", preset, "--config", str(path)]) == 2
        assert capsys.readouterr().out == ""

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
                "print(code, sorted({'scipy', 'numpy'} & set(sys.modules)))\n")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        assert lines[-2:] == ["27/28 checks passed", "4 []"]

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

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_report_assembles_the_shift_once(self, monkeypatch, preset):
        # the package re-exports the function shift, which hides the module
        shift_module = importlib.import_module("kerr_qlink.shift")
        calls = []
        original = shift_module._assemble

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(shift_module, "_assemble", counting)
        assemble_report(PRESETS[preset])
        assert len(calls) == 1


class TestVerify:
    def test_fast_suite_green(self, capsys):
        assert run_verify("fast") == 0
        out = capsys.readouterr().out
        assert out.count("[  ok ]") >= 12
        assert "FAIL" not in out

    def test_fast_has_at_least_12_checks(self):
        assert sum(1 for c in CHECKS if c.level == "fast") >= 12

    def test_injected_sign_flip_is_caught(self, monkeypatch, capsys):
        # flip the sign of the mass term: the series check must go red
        import kerr_qlink.cli.selfcheck as sc
        import kerr_qlink.perturb as perturb
        real = perturb.delta_mass_term_ground

        def flipped(p, r_a, r_b):
            return -real(p, r_a, r_b)

        monkeypatch.setattr(perturb, "delta_mass_term_ground", flipped)
        ok, detail = sc._check_series_mass(80)
        assert not ok

    def test_full_suite_reports_known_residual_discrepancy(self, capsys):
        code = run_verify("full")
        out = capsys.readouterr().out
        fails = [l for l in out.splitlines() if l.startswith("[ FAIL]")]
        assert code == 4
        assert len(fails) == 1
        assert "residual" in fails[0]
