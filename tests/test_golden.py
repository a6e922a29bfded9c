"""Byte-for-byte comparison of CLI output against committed golden files.

Covers report text and JSON for every preset, reproducible (--no-timestamp)
sweep CSVs over each sweep variable, including ranges that cross domain edges
so that error rows are pinned too, and the console output of `verify full` and
of `zero-orbit` on every preset, a refused bracket included.

Regenerate the files (only when an output change is intended and explained):

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
import sys

import pytest

from kerr_qlink.cli.main import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

PRESET_NAMES = ("earth-leo", "earth-geo", "leo-geo-sat")

# name -> (preset, sweep block)
SWEEPS = {
    # below the surface radius (error rows) and across the delta_S zero
    "sweep_rB_ground_linear": ("earth-leo", "r_B", 6.0e6, 1.2e7, 40, "linear"),
    # within centimetres of the delta_S zero, where first-order propagation
    # is refused
    "sweep_rB_ground_zero": ("earth-leo", "r_B", 9566999.9, 9567000.1, 41,
                             "linear"),
    "sweep_rB_ground_log": ("earth-leo", "r_B", 6.578e6, 4.6e7, 40, "log"),
    # receiver below, at (index 2) and above the emitter radius 8.378e6
    "sweep_rB_sats": ("leo-geo-sat", "r_B", 6.378e6, 4.5378e7, 40, "linear"),
    # emitter below, at (index 37) and above the receiver radius 4.2162e7
    "sweep_rC_sats": ("leo-geo-sat", "r_C", 5.162e6, 4.4162e7, 40, "linear"),
    "sweep_s": ("earth-leo", "s", 0.5, 4.0, 40, "linear"),
    "sweep_N": ("earth-leo", "N", 1e2, 1e14, 40, "log"),
    "sweep_sigma": ("earth-geo", "sigma", 1e3, 1e12, 40, "log"),
}

# name -> (argv, exit code); the golden file holds stdout, then stderr
COMMANDS = {
    # the oracle, series, geodesic, constants and bisection paths; one check
    # fails on purpose (the published residual bound)
    "verify_full": (["verify", "full"], 4),
    "zero-orbit_earth-leo": (["zero-orbit", "--preset", "earth-leo"], 0),
    "zero-orbit_earth-geo": (["zero-orbit", "--preset", "earth-geo"], 0),
    # no sign change of delta in the bracket: NoRootInBracketError
    "zero-orbit_leo-geo-sat": (["zero-orbit", "--preset", "leo-geo-sat"], 3),
}


def _report(preset, tmp_dir):
    """(text, json) of `report --preset <preset> --out <json>`."""
    out_path = os.path.join(tmp_dir, f"{preset}.json")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(["report", "--preset", preset, "--out", out_path])
    assert rc == 0
    with open(out_path, encoding="utf-8") as fh:
        return buf.getvalue(), fh.read()


def _sweep(name, tmp_dir):
    preset, variable, lo, hi, points, scale = SWEEPS[name]
    cfg_path = os.path.join(tmp_dir, f"{name}.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(f"sweep_variable = {variable}\nsweep_lo = {lo!r}\n"
                 f"sweep_hi = {hi!r}\nsweep_points = {points}\n"
                 f"sweep_scale = {scale}\n")
    out_path = os.path.join(tmp_dir, f"{name}.csv")
    rc = main(["sweep", "--preset", preset, "--config", cfg_path,
               "--out", out_path, "--no-timestamp"])
    assert rc == 0
    with open(out_path, encoding="utf-8", newline="") as fh:
        return fh.read()


def _command(name):
    argv, code = COMMANDS[name]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc == code
    return out.getvalue() + err.getvalue()


def _outputs(tmp_dir):
    """Golden file name -> current output text."""
    out = {}
    for preset in PRESET_NAMES:
        text, js = _report(preset, tmp_dir)
        out[f"report_{preset}.txt"] = text
        out[f"report_{preset}.json"] = js
    for name in SWEEPS:
        out[f"{name}.csv"] = _sweep(name, tmp_dir)
    for name in COMMANDS:
        out[f"{name}.txt"] = _command(name)
    return out


def _read_golden(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8", newline="") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def current(tmp_path_factory):
    return _outputs(str(tmp_path_factory.mktemp("golden")))


@pytest.mark.parametrize(
    "name",
    [f"report_{p}.{ext}" for p in PRESET_NAMES for ext in ("txt", "json")]
    + [f"{s}.csv" for s in SWEEPS] + [f"{c}.txt" for c in COMMANDS])
def test_output_matches_golden_bytes(current, name):
    assert current[name] == _read_golden(name)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        files = _outputs(tmp)
    os.makedirs(GOLDEN, exist_ok=True)
    for fname, text in files.items():
        with open(os.path.join(GOLDEN, fname), "w", encoding="utf-8",
                  newline="") as fh:
            fh.write(text)
    print(f"wrote {len(files)} golden files to {GOLDEN}", file=sys.stderr)
