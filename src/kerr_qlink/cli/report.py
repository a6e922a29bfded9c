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
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Optional

from ..ddouble import DD
from ..errors import DomainError, HigherOrderRegimeError, KerrQlinkError
from ..metrology import (
    _qber_in_regime,
    orders_vs_state_of_the_art,
    qfi,
    regime_check,
    shift_uncertainty_floor,
)
from ..perturb import (
    _decompose_ground,
    decompose_sats,
    delta_rotation_term_ground,
    error_angular_velocity,
    error_schwarzschild_radius,
)
from ..shift import LinkScheme, _closed_form, _emitter_terms, _receiver_terms
from ..units import C, SpacetimeParams
from ..wavepacket import overlap_analytic
from .scenario import ScenarioConfig, SweepSpec


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


def _ratios_block(cfg: ScenarioConfig, p: SpacetimeParams) -> dict:
    out = {
        "M/r_emitter": p.M_geom / cfg.emitter_radius_m,
        "M/r_receiver": p.M_geom / cfg.receiver_radius_m,
        "a/r_emitter": p.a / cfg.emitter_radius_m,
        "a/r_receiver": p.a / cfg.receiver_radius_m,
    }
    if cfg.scheme is LinkScheme.GROUND_TO_SAT:
        out["r_emitter*omega/c"] = (
            cfg.emitter_radius_m * cfg.ground_omega_rad_s / C)
    return out


# The pipeline's stages.  Each reads only the config fields of its key in
# _Pipeline.report.

def _emitter_stage(p: SpacetimeParams, cfg: ScenarioConfig):
    """Checked emitter terms, and the rotation term of a ground station."""
    terms = _emitter_terms(p, cfg.emitter())
    if cfg.scheme is LinkScheme.GROUND_TO_SAT:
        return terms, delta_rotation_term_ground(cfg.emitter_radius_m,
                                                 cfg.ground_omega_rad_s)
    return terms, None


def _receiver_stage(p: SpacetimeParams, cfg: ScenarioConfig):
    return _receiver_terms(p, cfg.receiver())


def _link_stage(p: SpacetimeParams, cfg: ScenarioConfig, emitter, receiver_terms):
    """The shift and its decomposition."""
    emitter_terms, d_rot = emitter
    result = _closed_form(cfg.scheme, emitter_terms, receiver_terms)
    if cfg.scheme is LinkScheme.GROUND_TO_SAT:
        dec = _decompose_ground(p, cfg.emitter_radius_m, cfg.receiver_radius_m,
                                result.delta, d_rot)
    else:
        dec = decompose_sats(p, cfg.emitter_radius_m, cfg.receiver_radius_m,
                             result.delta)
    return result, dec


def _metrology_stage(cfg: ScenarioConfig):
    m = cfg.metrology()
    return m, qfi(m), shift_uncertainty_floor(m), cfg.packet()


class _Pipeline:
    """The report pipeline as stages that each remember their last key and
    result.

    A stage runs again only when its key, the config fields it reads, differs
    from the previous call's, so a sweep computes what its swept variable
    does not touch once.  A stage that raises leaves its last result in place.
    """

    def __init__(self):
        self._last: dict[str, tuple] = {}

    def _stage(self, name: str, key: tuple, build, *args):
        last = self._last.get(name)
        if last is None or last[0] != key:
            last = self._last[name] = (key, build(*args))
        return last[1]

    def report(self, cfg: ScenarioConfig) -> Report:
        cfg = cfg.validate()
        p = self._stage("spacetime", (cfg.planet_mass_kg,
                                      cfg.planet_spin_parameter_m), cfg.spacetime)
        if cfg.scheme is LinkScheme.GROUND_TO_SAT:
            emitter_key = (p, cfg.scheme, cfg.emitter_radius_m,
                           cfg.ground_omega_rad_s)
        else:
            emitter_key = (p, cfg.scheme, cfg.emitter_radius_m,
                           cfg.emitter_direction)
        receiver_key = (p, cfg.receiver_radius_m, cfg.receiver_direction)
        emitter = self._stage("emitter", emitter_key, _emitter_stage, p, cfg)
        receiver_terms = self._stage("receiver", receiver_key, _receiver_stage,
                                     p, cfg)
        result, dec = self._stage("link", (emitter_key, receiver_key),
                                  _link_stage, p, cfg, emitter, receiver_terms)
        m, qfi_value, floor, packet = self._stage(
            "metrology", (cfg.probes, cfg.squeezing, cfg.bandwidth_hz,
                          cfg.peak_frequency_hz), _metrology_stage, cfg)

        delta_f = result.delta.to_float()
        overlap = overlap_analytic(packet, delta_f)
        notes: list[str] = []
        if 0.0 < abs(dec.delta_rot.to_float()) < 2.3e-16:
            notes.append(
                "rotation term sits below double epsilon of the unit shift "
                "ratio; its digits are carried by the compensated pipeline")

        bound_rs = bound_omega = None
        orders = None
        try:
            bound_rs = error_schwarzschild_radius(dec, floor)
        except HigherOrderRegimeError as exc:
            notes.append(str(exc))
        try:
            bound_omega = error_angular_velocity(dec, floor)
            orders = orders_vs_state_of_the_art(bound_omega)
        except DomainError as exc:
            notes.append(str(exc))

        status = regime_check(delta_f, m)
        qber_value = None
        if status:
            qber_value = _qber_in_regime(delta_f, m)
        else:
            notes.append(f"QBER refused: {status.reason}")

        return Report(
            scheme=cfg.scheme.value,
            emitter_radius_m=cfg.emitter_radius_m,
            receiver_radius_m=cfg.receiver_radius_m,
            ratios=_ratios_block(cfg, p),
            f=result.f,
            delta=result.delta,
            delta_S=dec.delta_S.to_float(),
            delta_rot=dec.delta_rot.to_float(),
            delta_c=dec.delta_c.to_float(),
            theta=overlap.theta,
            fidelity=overlap.fidelity,
            qfi_value=qfi_value,
            delta_delta_min=floor,
            bound_schwarzschild_rel=bound_rs,
            bound_omega_rel=bound_omega,
            omega_orders_vs_reference=orders,
            qber_value=qber_value,
            regime="valid" if status else f"invalid: {status.reason}",
            notes=notes,
        )


def assemble_report(cfg: ScenarioConfig) -> Report:
    """Run the full pipeline for one scenario: a fresh pipeline's one call.

    Raises DomainError when the scenario itself is unphysical; per-quantity
    refusals are recorded in the report instead of raised.
    """
    return _Pipeline().report(cfg)


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


def _sweep_row(pipeline: _Pipeline, index: int, value: float,
               cfg: ScenarioConfig) -> str:
    cells: list[str]
    try:
        rep = pipeline.report(cfg)
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


def run_sweep(cfg: ScenarioConfig, spec: SweepSpec, out_path: str,
              no_timestamp: bool = False,
              threads: Optional[int] = None) -> int:
    """Write one CSV row per sweep point; returns the number of rows.

    All points share one pipeline, so what the swept variable does not touch
    (the emitter for a receiver sweep, the whole shift for a squeezing,
    probe-count or bandwidth sweep) is computed once; each point's config is
    still validated on its own.  Points evaluate in sweep order in the
    calling thread.  Per-point domain failures leave their value cells empty
    and carry the message in the error column.  ``threads`` is accepted and
    ignored; it remains for callers written when the sweep ran on a thread
    pool.
    """
    pipeline = _Pipeline()
    rows = [_sweep_row(pipeline, i, v, spec.apply(cfg, v))
            for i, v in enumerate(spec.values())]
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
