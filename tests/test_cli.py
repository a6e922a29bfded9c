"""Configuration parsing, report/sweep/zero-orbit/verify commands, exit codes."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import expected
import kerr_qlink
from kerr_qlink.cli.main import main
from kerr_qlink.cli.report import CSV_COLUMNS, assemble_report, run_sweep
from kerr_qlink.cli.scenario import (
    PRESETS,
    ScenarioConfig,
    SweepSpec,
    build_config,
    parse_config_text,
)
from kerr_qlink.cli.selfcheck import CHECKS, run_verify
from kerr_qlink.errors import ConfigError
from kerr_qlink.shift import LinkScheme
from kerr_qlink.units import geo_radius, leo_radius


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
