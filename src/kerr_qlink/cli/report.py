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

from ..ddouble import DD, DDColumn, floats
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
    _error_angular_velocity,
    _error_schwarzschild_radius,
    decompose_sats,
    delta_rotation_term_ground,
)
from ..shift import (
    LinkScheme,
    _closed_form,
    _emitter_orbit_terms,
    _emitter_terms,
    _receiver_terms,
)
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
# _Pipeline.stages.  In a chunk of an r_B or r_C sweep the swept radius of
# the config is a DDColumn of the chunk's radii, and the stages it reaches
# return columns.

def _emitter_stage(p: SpacetimeParams, cfg: ScenarioConfig):
    """Checked emitter terms, and the rotation term of a ground station."""
    if cfg.scheme is LinkScheme.GROUND_TO_SAT:
        return (_emitter_terms(p, cfg.emitter()),
                delta_rotation_term_ground(cfg.emitter_radius_m,
                                           cfg.ground_omega_rad_s))
    return _emitter_orbit_terms(p, cfg.emitter_radius_m,
                                cfg.emitter_direction), None


def _receiver_stage(p: SpacetimeParams, cfg: ScenarioConfig):
    return _receiver_terms(p, cfg.receiver_radius_m, cfg.receiver_direction)


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


def _outcomes(delta: float, delta_S: float, delta_rot: float, delta_c: float,
              metrology):
    """Overlap, bounds, QBER, regime and notes of one point from the floats
    of its shift and decomposition: (overlap, bound on r_S, bound on omega,
    orders vs the state of the art, QBER, regime, notes).  A quantity whose
    formula refuses is None, with the refusal as a note."""
    m, _, floor, packet = metrology
    overlap = overlap_analytic(packet, delta)
    notes: list[str] = []
    if 0.0 < abs(delta_rot) < 2.3e-16:
        notes.append(
            "rotation term sits below double epsilon of the unit shift "
            "ratio; its digits are carried by the compensated pipeline")

    bound_rs = bound_omega = None
    orders = None
    try:
        bound_rs = _error_schwarzschild_radius(delta_S, delta_c, floor)
    except HigherOrderRegimeError as exc:
        notes.append(str(exc))
    try:
        bound_omega = _error_angular_velocity(delta_rot, floor)
        orders = orders_vs_state_of_the_art(bound_omega)
    except DomainError as exc:
        notes.append(str(exc))

    status = regime_check(delta, m)
    qber_value = None
    if status:
        qber_value = _qber_in_regime(delta, m)
    else:
        notes.append(f"QBER refused: {status.reason}")
    regime = "valid" if status else f"invalid: {status.reason}"
    return overlap, bound_rs, bound_omega, orders, qber_value, regime, notes


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

    def stages(self, cfg: ScenarioConfig):
        """(spacetime, shift result, decomposition, metrology) of a
        validated config, or of a sweep chunk's config."""
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
        metrology = self._stage(
            "metrology", (cfg.probes, cfg.squeezing, cfg.bandwidth_hz,
                          cfg.peak_frequency_hz), _metrology_stage, cfg)
        return p, result, dec, metrology

    def report(self, cfg: ScenarioConfig) -> Report:
        cfg = cfg.validate()
        p, result, dec, metrology = self.stages(cfg)
        delta_S, delta_rot, delta_c = (dec.delta_S.to_float(),
                                       dec.delta_rot.to_float(),
                                       dec.delta_c.to_float())
        overlap, bound_rs, bound_omega, orders, qber_value, regime, notes = \
            _outcomes(result.delta.to_float(), delta_S, delta_rot, delta_c,
                      metrology)
        _, qfi_value, floor, _ = metrology
        return Report(
            scheme=cfg.scheme.value,
            emitter_radius_m=cfg.emitter_radius_m,
            receiver_radius_m=cfg.receiver_radius_m,
            ratios=_ratios_block(cfg, p),
            f=result.f,
            delta=result.delta,
            delta_S=delta_S,
            delta_rot=delta_rot,
            delta_c=delta_c,
            theta=overlap.theta,
            fidelity=overlap.fidelity,
            qfi_value=qfi_value,
            delta_delta_min=floor,
            bound_schwarzschild_rel=bound_rs,
            bound_omega_rel=bound_omega,
            omega_orders_vs_reference=orders,
            qber_value=qber_value,
            regime=regime,
            notes=notes,
        )

    def column_rows(self, cfg: ScenarioConfig, spec: SweepSpec, start: int,
                    values: list[float]) -> list[str]:
        """CSV rows of the r_B or r_C sweep points ``values``, the first of
        them point ``start``.

        Each point's config is validated; then the stages evaluate the points
        as columns, on a config whose swept radius is the column of
        ``values``, and each row comes from the columns' elements.  When
        anything refuses a point, or arithmetic fails, on the way, the points
        are evaluated again one by one, so a refused row keeps its text and a
        crash stays a crash.
        """
        points = [spec.apply(cfg, v) for v in values]
        try:
            for point in points:
                point.validate()
            _, result, dec, metrology = self.stages(
                spec.apply(cfg, DDColumn.of(values)))
        except (KerrQlinkError, ArithmeticError):
            return [_sweep_row(self, start + i, value, point)
                    for i, (value, point) in enumerate(zip(values, points))]
        n = len(values)
        # a ground station's rotation term is one DD for all the points
        delta_S, delta_rot, delta_c = (
            x if len(x) == n else x * n
            for x in map(floats, (dec.delta_S, dec.delta_rot, dec.delta_c)))
        return [_value_row(start + i, value, f, delta, delta_S[i], delta_rot[i],
                           delta_c[i], metrology)
                for i, (value, f, delta) in enumerate(
                    zip(values, result.f.limbs, result.delta.limbs))]


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


def _error_row(index: int, value: float, exc: KerrQlinkError) -> str:
    cells = [str(index), _fmt(value)] + [""] * (len(CSV_COLUMNS) - 3) \
        + [_csv_escape(f"{type(exc).__name__}: {exc}")]
    return ",".join(cells)


def _value_row(index: int, value: float, f: tuple[float, float],
               delta: tuple[float, float], delta_S: float, delta_rot: float,
               delta_c: float, metrology) -> str:
    """The row of a point from the (hi, lo) limbs of its f and delta and the
    floats of its decomposition; a refused overlap makes it an error row."""
    delta_hi, delta_lo = delta
    try:
        overlap, bound_rs, bound_omega, _, qber_value, regime, notes = \
            _outcomes(delta_hi + delta_lo, delta_S, delta_rot, delta_c,
                      metrology)
    except KerrQlinkError as exc:
        return _error_row(index, value, exc)
    _, qfi_value, floor, _ = metrology
    cells = [str(index), *map(_fmt, (
        value, *f, delta_hi, delta_lo, delta_S, delta_rot, delta_c,
        overlap.theta, qfi_value, floor, bound_rs, bound_omega, qber_value)),
        regime, _csv_escape("; ".join(notes))]
    return ",".join(cells)


def _sweep_row(pipeline: _Pipeline, index: int, value: float,
               cfg: ScenarioConfig) -> str:
    try:
        _, result, dec, metrology = pipeline.stages(cfg.validate())
    except KerrQlinkError as exc:
        return _error_row(index, value, exc)
    return _value_row(index, value, (result.f.hi, result.f.lo),
                      (result.delta.hi, result.delta.lo),
                      dec.delta_S.to_float(), dec.delta_rot.to_float(),
                      dec.delta_c.to_float(), metrology)


# Sweep points evaluated as one column.  Peak memory grows with it (a whole
# 2000-point sweep at once costs about 5 MB more), while the time per point
# levels off from about 32 points.
SWEEP_CHUNK = 64


def run_sweep(cfg: ScenarioConfig, spec: SweepSpec, out_path: str,
              no_timestamp: bool = False,
              threads: Optional[int] = None) -> int:
    """Write one CSV row per sweep point; returns the number of rows.

    All points share one pipeline, so what the swept variable does not touch
    (the emitter for a receiver sweep, the whole shift for a squeezing,
    probe-count or bandwidth sweep) is computed once; each point's config is
    still validated on its own.  A receiver (r_B) or emitter (r_C) radius
    sweep evaluates SWEEP_CHUNK points at a time: the stages the radius
    reaches run once per chunk on DDColumn values, with the same bits as
    point by point, and a chunk in which any point is refused runs point by
    point.  Rows come in sweep order, computed in the calling thread.
    Per-point domain failures leave their value cells empty and carry the
    message in the error column.  ``threads`` is accepted and ignored; it
    remains for callers written when the sweep ran on a thread pool.
    """
    pipeline = _Pipeline()
    values = spec.values()
    if spec.variable in ("r_B", "r_C"):
        rows = []
        for start in range(0, len(values), SWEEP_CHUNK):
            rows += pipeline.column_rows(cfg, spec, start,
                                         values[start:start + SWEEP_CHUNK])
    else:
        rows = [_sweep_row(pipeline, i, v, spec.apply(cfg, v))
                for i, v in enumerate(values)]
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
