"""Scenario reports and CSV sweeps.

A report aggregates the whole pipeline for one scenario: shift, decomposition,
packet overlap, Fisher information, Cramer-Rao floor, parameter bounds and the
key-protocol error rate.  Quantities whose defining formula refuses (first-
order propagation near a vanishing mass term, error rate outside its regime)
come back as None with the refusal message, so sweeps keep running through
such points.

CSV rows carry the compensated quantities as (hi, lo) column pairs and every
fast-path value with 17 significant digits; identical configurations produce
byte-identical files (modulo the optional timestamp header line).
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Optional

from ..ddouble import DD
from ..errors import ConfigError, DomainError, HigherOrderRegimeError, KerrQlinkError
from ..metrology import (
    bound_angular_velocity,
    bound_schwarzschild_radius,
    orders_vs_state_of_the_art,
    qber,
    qfi,
    regime_check,
    shift_uncertainty_floor,
)
from ..perturb import decompose_ground, decompose_sats
from ..shift import LinkScheme, shift
from ..units import CONSTANTS
from ..wavepacket import overlap_analytic
from .scenario import ScenarioConfig, SweepSpec

THREADS_ENV = "KERR_QLINK_THREADS"


@dataclass
class Report:
    scheme: str
    emitter_radius_m: float
    receiver_radius_m: float
    ratios: dict  # dimensionless parameter block
    f: DD
    delta: DD
    delta_S: float
    delta_rot: float
    delta_c: float
    theta: float
    fidelity: float
    qfi_value: float
    delta_delta_min: float
    bound_schwarzschild_rel: Optional[float]
    bound_omega_rel: Optional[float]
    omega_orders_vs_reference: Optional[int]
    qber_value: Optional[float]
    regime: str
    notes: list = field(default_factory=list)

    def as_dict(self) -> dict:
        out = {
            "scheme": self.scheme,
            "emitter_radius_m": self.emitter_radius_m,
            "receiver_radius_m": self.receiver_radius_m,
            "ratios": self.ratios,
            "f": {"hi": self.f.hi, "lo": self.f.lo, "value": self.f.to_float()},
            "delta": {"hi": self.delta.hi, "lo": self.delta.lo,
                      "value": self.delta.to_float()},
            "delta_S": self.delta_S,
            "delta_rot": self.delta_rot,
            "delta_c": self.delta_c,
            "theta": self.theta,
            "fidelity": self.fidelity,
            "qfi": self.qfi_value,
            "delta_delta_min": self.delta_delta_min,
            "bound_schwarzschild_rel": self.bound_schwarzschild_rel,
            "bound_omega_rel": self.bound_omega_rel,
            "omega_orders_vs_reference": self.omega_orders_vs_reference,
            "qber": self.qber_value,
            "regime": self.regime,
            "notes": self.notes,
        }
        return out

    def render_text(self) -> str:
        def fmt(x, unit=""):
            if x is None:
                return "refused"
            return f"{x:.6e}{unit}"

        lines = [
            f"scheme:                     {self.scheme}",
            f"emitter radius:             {self.emitter_radius_m:.6e} m",
            f"receiver radius:            {self.receiver_radius_m:.6e} m",
            "dimensionless parameters:",
        ]
        for key, value in self.ratios.items():
            lines.append(f"  {key:<24} {value:.6e}")
        lines += [
            f"shift ratio f:              {self.f.hi!r} + {self.f.lo!r}",
            f"delta = f - 1:              {self.delta.to_float():.17e}"
            f"  (hi {self.delta.hi!r}, lo {self.delta.lo!r})",
            f"  mass term delta_S:        {self.delta_S:.6e}",
            f"  rotation term delta_rot:  {self.delta_rot:.6e}",
            f"  residual delta_c:         {self.delta_c:.6e}",
            f"packet overlap theta:       {self.theta:.12f}",
            f"single-photon fidelity:     {self.fidelity:.12f}",
            f"quantum Fisher information: {fmt(self.qfi_value)}",
            f"shift uncertainty floor:    {fmt(self.delta_delta_min)}",
            f"bound on Delta r_S / r_S:   {fmt(self.bound_schwarzschild_rel)}",
            f"bound on Delta w_A / w_A:   {fmt(self.bound_omega_rel)}",
        ]
        if self.omega_orders_vs_reference is not None:
            lines.append(
                "  vs reference 1.0e-08:     "
                f"{self.omega_orders_vs_reference} orders above (worse)")
        lines += [
            f"QBER:                       {fmt(self.qber_value)}",
            f"regime:                     {self.regime}",
        ]
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines) + "\n"


def _ratios_block(cfg: ScenarioConfig) -> dict:
    p = cfg.spacetime()
    out = {
        "M/r_emitter": p.M_geom / cfg.emitter_radius_m,
        "M/r_receiver": p.M_geom / cfg.receiver_radius_m,
        "a/r_emitter": p.a / cfg.emitter_radius_m,
        "a/r_receiver": p.a / cfg.receiver_radius_m,
    }
    if cfg.scheme is LinkScheme.GROUND_TO_SAT:
        out["r_emitter*omega/c"] = (
            cfg.emitter_radius_m * cfg.ground_omega_rad_s / CONSTANTS.c)
    return out


def assemble_report(cfg: ScenarioConfig) -> Report:
    """Run the full pipeline for one scenario.

    Raises DomainError when the scenario itself is unphysical; per-quantity
    refusals are recorded in the report instead of raised.
    """
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
    notes: list[str] = []
    if 0.0 < abs(dec.delta_rot.to_float()) < 2.3e-16:
        notes.append(
            "rotation term sits below double epsilon of the unit shift ratio; "
            "its digits are carried by the compensated pipeline")

    bound_rs = bound_omega = None
    orders = None
    try:
        bound_rs = bound_schwarzschild_radius(m, dec).relative_bound
    except HigherOrderRegimeError as exc:
        notes.append(str(exc))
    try:
        b = bound_angular_velocity(m, dec)
        bound_omega = b.relative_bound
        orders = orders_vs_state_of_the_art(bound_omega)
    except DomainError as exc:
        notes.append(str(exc))

    status = regime_check(delta_f, m)
    qber_value = None
    if status:
        qber_value = qber(delta_f, m)
    else:
        notes.append(f"QBER refused: {status.reason}")

    return Report(
        scheme=cfg.scheme.value,
        emitter_radius_m=cfg.emitter_radius_m,
        receiver_radius_m=cfg.receiver_radius_m,
        ratios=_ratios_block(cfg),
        f=result.f,
        delta=result.delta,
        delta_S=dec.delta_S.to_float(),
        delta_rot=dec.delta_rot.to_float(),
        delta_c=dec.delta_c.to_float(),
        theta=overlap.theta,
        fidelity=overlap.fidelity,
        qfi_value=qfi(m),
        delta_delta_min=shift_uncertainty_floor(m),
        bound_schwarzschild_rel=bound_rs,
        bound_omega_rel=bound_omega,
        omega_orders_vs_reference=orders,
        qber_value=qber_value,
        regime="valid" if status else f"invalid: {status.reason}",
        notes=notes,
    )


def run_report(cfg: ScenarioConfig, out_path: Optional[str] = None) -> str:
    """Render the report; optionally write the machine-readable JSON twin."""
    report = assemble_report(cfg)
    text = report.render_text()
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            raise KerrQlinkError(f"cannot write {out_path}: {exc}") from None
    return text


CSV_COLUMNS = (
    "index", "sweep_value", "f_hi", "f_lo", "delta_hi", "delta_lo",
    "delta_S", "delta_rot", "delta_c", "theta", "qfi", "delta_delta_min",
    "bound_schwarzschild_rel", "bound_omega_rel", "qber", "regime", "error",
)


def _fmt(x: Optional[float]) -> str:
    return "" if x is None else format(x, ".17e")


def _csv_escape(text: str) -> str:
    if any(ch in text for ch in ",\"\n"):
        return '"' + text.replace('"', '""') + '"'
    return text


def _sweep_row(args: tuple[int, float, ScenarioConfig]) -> str:
    index, value, cfg = args
    cells: list[str]
    try:
        rep = assemble_report(cfg)
        cells = [
            str(index), _fmt(value),
            _fmt(rep.f.hi), _fmt(rep.f.lo),
            _fmt(rep.delta.hi), _fmt(rep.delta.lo),
            _fmt(rep.delta_S), _fmt(rep.delta_rot), _fmt(rep.delta_c),
            _fmt(rep.theta), _fmt(rep.qfi_value), _fmt(rep.delta_delta_min),
            _fmt(rep.bound_schwarzschild_rel), _fmt(rep.bound_omega_rel),
            _fmt(rep.qber_value), rep.regime,
            _csv_escape("; ".join(rep.notes)),
        ]
    except KerrQlinkError as exc:
        cells = [str(index), _fmt(value)] + [""] * (len(CSV_COLUMNS) - 3) \
            + [_csv_escape(f"{type(exc).__name__}: {exc}")]
    return ",".join(cells)


def default_thread_count() -> int:
    env = os.environ.get(THREADS_ENV)
    if env:
        try:
            n = int(env)
        except ValueError:
            raise ConfigError(f"{THREADS_ENV} must be an integer, got {env!r}") from None
        if n < 1:
            raise ConfigError(f"{THREADS_ENV} must be >= 1")
        return n
    return min(8, os.cpu_count() or 1)


def run_sweep(cfg: ScenarioConfig, spec: SweepSpec, out_path: str,
              no_timestamp: bool = False,
              threads: Optional[int] = None) -> int:
    """Write one CSV row per sweep point; returns the number of rows.

    Points evaluate in parallel but assemble in sweep order, so the output is
    identical for any thread count.  Per-point domain failures leave their
    value cells empty and carry the message in the error column.
    """
    values = spec.values()
    configs = [(i, v, spec.apply(cfg, v)) for i, v in enumerate(values)]
    workers = threads if threads else default_thread_count()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        rows = list(pool.map(_sweep_row, configs))
    lines = []
    if not no_timestamp:
        stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        lines.append(f"# generated {stamp}")
    lines.append(",".join(CSV_COLUMNS))
    lines.extend(rows)
    try:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise KerrQlinkError(f"cannot write {out_path}: {exc}") from None
    return len(rows)
