"""Tests of the benchmark's own helpers: the percentile rule, CPU time of
waited children, self time from nested spans, wrapping every binding of a
function, and the output checks that decide whether an operation failed."""

import json
import random
import subprocess
import sys

import pytest

import checks
import layers
import spans
import stats
import workloads
from kerr_qlink.cli import PRESETS, SweepSpec, run_report, run_sweep, run_verify


def test_percentile_needs_ten_samples_beyond_it():
    assert stats.percentile_if_supported(list(range(99)), 0.9) is None
    assert stats.percentile_if_supported(list(range(100)), 0.9) == 89
    assert stats.percentile_if_supported(list(range(100, 0, -1)), 0.9) == 90
    assert stats.percentile_if_supported([], 0.9) is None


def test_relative_spread_is_quartile_distance_over_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    assert stats.relative_spread(values) == pytest.approx((8.25 - 2.75) / 5.5)


def test_cpu_seconds_counts_a_waited_child_but_not_its_sleep():
    busy_then_sleep = ("import time\n"
                       "end = time.process_time() + 0.2\n"
                       "while time.process_time() < end:\n"
                       "    pass\n"
                       "time.sleep(0.3)\n")
    before = workloads.cpu_seconds()
    subprocess.run([sys.executable, "-c", busy_then_sleep], check=True)
    assert 0.2 <= workloads.cpu_seconds() - before < 0.45


def test_self_time_subtracts_the_union_of_child_spans():
    s = spans.Span
    tree = [
        s("root", 0.0, 10.0, 1, None, 1),
        s("a", 1.0, 3.0, 2, 1, 1),
        s("b", 2.0, 5.0, 3, 1, 1),     # overlaps a: covered once
        s("a.1", 1.5, 2.5, 4, 2, 1),  # grandchild: only a's time
        s("late", 9.0, 12.0, 5, 1, 1),  # clipped to the parent's end
    ]
    own = spans.self_times(tree)
    assert own[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[2] == pytest.approx(2.0 - 1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)


def test_recorder_nests_spans_only_inside_an_operation():
    rec = spans.Recorder()
    inner = rec.wrap("inner", lambda: None)
    outer = rec.wrap("outer", lambda: inner())
    outer()
    assert rec.spans == []
    op = rec.begin_op()
    outer()
    rec.end_op()
    by_name = {s.name: s for s in rec.spans}
    assert by_name["inner"].parent_id == by_name["outer"].span_id
    assert by_name["outer"].parent_id is None
    assert {s.op_id for s in rec.spans} == {op}


def test_op_counter_counts_outermost_calls_only():
    counter = spans.OpCounter()
    inner = counter.wrap(lambda: None)
    outer = counter.wrap(lambda: inner())
    outer()
    inner()
    assert counter.count == 2


def test_install_rebinds_names_imported_elsewhere_and_undo_restores():
    perturb = sys.modules["kerr_qlink.perturb"]
    shift_module = sys.modules["kerr_qlink.shift"]
    original = shift_module.shift_ground_to_sat
    assert perturb.shift_ground_to_sat is original
    rec, patches = spans.Recorder(), spans.Patches()
    layers.install(rec, patches)
    try:
        assert perturb.shift_ground_to_sat is not original
        assert shift_module.shift_ground_to_sat is perturb.shift_ground_to_sat
    finally:
        patches.undo()
    assert perturb.shift_ground_to_sat is original
    assert not hasattr(sys.modules["kerr_qlink.cli.report"], "open")


def test_parse_importtime_sums_outermost_scipy_subtrees():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy",
        "import time:        50 |        150 |   scipy",
        "import time:       300 |        300 |     scipy._lib",
        "import time:        20 |        320 |   scipy.integrate",
        "import time:        30 |        500 | kerr_qlink.wavepacket",
        "import time:        10 |         10 | kerr_qlink",
    ])
    got = layers.parse_importtime(text)
    assert got["import.scipy_s"] == pytest.approx((150 + 320) / 1e6)
    assert got["import.kerr_qlink_self_s"] == pytest.approx(40 / 1e6)
    assert got["import.total_s"] == pytest.approx(510 / 1e6)


def _sweep(tmp_path, points=10):
    cfg = PRESETS["earth-leo"]
    spec = SweepSpec("r_B", 1.1 * cfg.emitter_radius_m, 8.0 * cfg.emitter_radius_m,
                     points, "log")
    path = tmp_path / "sweep.csv"
    run_sweep(cfg, spec, str(path), no_timestamp=True)
    return cfg, spec, path


def _rewrite_cell(path, row, column, text):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    cells[header.index(column)] = text
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_sweep_check_accepts_the_program_output(tmp_path):
    cfg, spec, path = _sweep(tmp_path)
    assert checks.check_sweep_csv(str(path), cfg, spec, random.Random(0)) == 10


@pytest.mark.parametrize("column, text", [
    ("delta_lo", "1.00000000000000000e-30"),  # no longer bit-identical
    ("f_hi", ""),                              # an error row
    ("sweep_value", "7.00000000000000000e+06"),
])
def test_sweep_check_rejects_a_corrupted_row(tmp_path, column, text):
    cfg, spec, path = _sweep(tmp_path)
    _rewrite_cell(path, 3, column, text)
    with pytest.raises(checks.CheckFailed):
        checks.check_sweep_csv(str(path), cfg, spec, random.Random(0))


def test_sweep_check_rejects_a_missing_row(tmp_path):
    cfg, spec, path = _sweep(tmp_path)
    path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
    with pytest.raises(checks.CheckFailed):
        checks.check_sweep_csv(str(path), cfg, spec, random.Random(0))


def test_report_json_check_rejects_delta_off_by_1e_27(tmp_path):
    cfg = PRESETS["earth-geo"]
    path = tmp_path / "report.json"
    run_report(cfg, str(path))
    checks.check_report_json(str(path), cfg)
    data = json.loads(path.read_text())
    data["delta"]["lo"] += 1e-27
    path.write_text(json.dumps(data))
    with pytest.raises(checks.CheckFailed):
        checks.check_report_json(str(path), cfg)


@pytest.fixture(scope="module")
def verify_output():
    lines = []
    code = run_verify("full", 50, echo=lines.append)
    return code, lines


def test_verify_check_accepts_the_documented_outcome(verify_output):
    assert checks.check_verify(*verify_output) == 28


def _flip(line):
    if line.startswith("[  ok ] "):
        return "[ FAIL] " + line.removeprefix("[  ok ] ")
    return "[  ok ] " + line.removeprefix("[ FAIL] ")


@pytest.mark.parametrize("change", ["ok_to_fail", "known_fail_to_ok", "exit_code"])
def test_verify_check_rejects_a_changed_verdict(verify_output, change):
    code, lines = verify_output
    lines = list(lines)
    if change == "exit_code":
        code = 0
    else:
        target = "[  ok ] " if change == "ok_to_fail" else "[ FAIL] "
        i = next(k for k, line in enumerate(lines) if line.startswith(target))
        lines[i] = _flip(lines[i])
    with pytest.raises(checks.CheckFailed):
        checks.check_verify(code, lines)
