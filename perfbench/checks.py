"""Output checks, run untimed after each operation.

An operation whose output fails a check counts as failed.  The reference
values come from the Decimal oracle and from the scalar ``shift()``; the
functions are bound here at import, before a traced run wraps anything.
"""

from __future__ import annotations

import csv
import json
import random
import re
from decimal import Decimal, localcontext

from kerr_qlink.cli.scenario import ScenarioConfig, SweepSpec
from kerr_qlink.oracle import delta_exact_ground, delta_exact_sats
from kerr_qlink.shift import LinkScheme, shift
from kerr_qlink.units import geometric_mass

ORACLE_DIGITS = 50
DELTA_TOLERANCE = Decimal("1e-28")
SAMPLED_ROWS = 16

# `verify full` fails exactly one check by design: the published residual
# bound is not met (the tier-1 suite keeps the same failure).
VERIFY_EXIT = 4
VERIFY_OK_LINES = 27
VERIFY_KNOWN_FAIL = "delta_c residual <= 1e-20"
VERIFY_SUMMARY = "27/28 checks passed"

ZERO_ORBIT_TARGET = 1e-18


class CheckFailed(Exception):
    """An operation's output is not what the program should produce."""


def check_delta(cfg: ScenarioConfig, hi: float, lo: float) -> None:
    """delta hi + lo within 1e-28 absolute of the 50-digit oracle."""
    m = geometric_mass(cfg.planet_mass_kg)
    a = cfg.planet_spin_parameter_m
    if cfg.scheme is LinkScheme.GROUND_TO_SAT:
        ref = delta_exact_ground(m, a, cfg.emitter_radius_m, cfg.ground_omega_rad_s,
                                 cfg.receiver_radius_m, cfg.receiver_direction,
                                 ORACLE_DIGITS)
    else:
        ref = delta_exact_sats(m, a, cfg.emitter_radius_m, cfg.receiver_radius_m,
                               cfg.emitter_direction, cfg.receiver_direction,
                               ORACLE_DIGITS)
    with localcontext() as ctx:
        ctx.prec = 120  # holds hi + lo exactly
        err = abs(Decimal(hi) + Decimal(lo) - ref)
    if not err <= DELTA_TOLERANCE:
        raise CheckFailed(f"delta {hi!r} + {lo!r} is {err:.2e} from the oracle")


_DELTA_LINE = re.compile(r"^delta = f - 1:.*\(hi (\S+), lo (\S+)\)$", re.M)


def check_report_text(stdout: str, cfg: ScenarioConfig) -> None:
    match = _DELTA_LINE.search(stdout)
    if match is None:
        raise CheckFailed("report text has no delta line")
    check_delta(cfg, float(match[1]), float(match[2]))


def check_report_json(path: str, cfg: ScenarioConfig) -> None:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"report JSON unreadable: {exc}") from None
    if data.get("receiver_radius_m") != cfg.receiver_radius_m:
        raise CheckFailed("report JSON is for another scenario")
    check_delta(cfg, data["delta"]["hi"], data["delta"]["lo"])


_RESIDUAL_LINE = re.compile(r"^residual delta there:\s+(\S+)$", re.M)


def check_zero_orbit(stdout: str) -> None:
    match = _RESIDUAL_LINE.search(stdout)
    if match is None or not abs(float(match[1])) <= ZERO_ORBIT_TARGET:
        raise CheckFailed(f"zero-orbit residual missing or above {ZERO_ORBIT_TARGET}")


def check_verify(code: int, lines: list[str]) -> int:
    """The documented `verify full` outcome; returns the number of checks."""
    ok = [line for line in lines if line.startswith("[  ok ] ")]
    fail = [line for line in lines if line.startswith("[ FAIL] ")]
    expected_fail = f"[ FAIL] {VERIFY_KNOWN_FAIL}: "
    if (code != VERIFY_EXIT or len(ok) != VERIFY_OK_LINES or len(fail) != 1
            or not fail[0].startswith(expected_fail)
            or lines[-1] != VERIFY_SUMMARY):
        raise CheckFailed(
            f"verify full: exit {code}, {len(ok)} ok, failed {fail}")
    return len(ok) + len(fail)


_VALUE_COLUMNS = ("f_hi", "f_lo", "delta_hi", "delta_lo")


def check_sweep_csv(path: str, cfg: ScenarioConfig, spec: SweepSpec,
                    rng: random.Random) -> int:
    """One row per grid point, none failed; on a sampled subset, delta agrees
    with the oracle and (f, delta) is bit-identical to a scalar ``shift()``.
    Returns the number of rows."""
    with open(path, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    col = {name: i for i, name in enumerate(header)}
    values = spec.values()
    if len(rows) != len(values):
        raise CheckFailed(f"{len(rows)} rows for {len(values)} sweep points")
    for i, (row, value) in enumerate(zip(rows, values)):
        if row[col["index"]] != str(i) or float(row[col["sweep_value"]]) != value:
            raise CheckFailed(f"row {i} is not sweep point {i}")
        if not row[col["f_hi"]]:
            raise CheckFailed(f"row {i} failed: {row[col['error']]}")
    for i in rng.sample(range(len(rows)), min(SAMPLED_ROWS, len(rows))):
        got = tuple(float(rows[i][col[name]]) for name in _VALUE_COLUMNS)
        point = spec.apply(cfg, values[i])
        check_delta(point, got[2], got[3])
        res = shift(point.link())
        if got != (res.f.hi, res.f.lo, res.delta.hi, res.delta.lo):
            raise CheckFailed(f"row {i} differs from the scalar shift()")
    return len(rows)


def sample_rng(seed: int, op: int) -> random.Random:
    """Row sampler of one operation, reproducible from the run's seed."""
    return random.Random(f"{seed}:{op}")

