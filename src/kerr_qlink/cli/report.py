"""Scenario reports, and the file of a CSV sweep.

A report aggregates the whole pipeline for one scenario: shift, decomposition,
packet overlap, Fisher information, Cramer-Rao floor, parameter bounds and the
key-protocol error rate.  Quantities whose defining formula refuses (first-
order propagation near a vanishing mass term, error rate outside its regime)
come back as None with the refusal message, so sweeps keep running through
such points.

A sweep point takes a report's route: ``_link``, ``_metrology``,
``_rotation`` and ``_outcomes`` here.  ``run_sweep`` opens the CSV file and
writes each chunk's rows; the rows themselves are computed in ``cli.sweep``,
which loads only when a sweep runs, so a report never compiles it.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from ..ddouble import DD
from ..errors import DomainError, KerrQlinkError
from ..metrology import _qber_in_regime, orders_vs_state_of_the_art, regime_check
from ..perturb import (
    decompose_ground,
    decompose_sats,
    error_angular_velocity,
    error_schwarzschild_radius,
)
from ..shift import LinkScheme, shift
from ..wavepacket import overlap_analytic
from .scenario import ScenarioConfig, SweepSpec


class Report(NamedTuple):
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
    qfi: float
    delta_delta_min: float
    bound_schwarzschild_rel: Optional[float]
    bound_omega_rel: Optional[float]
    omega_orders_vs_reference: Optional[int]
    qber: Optional[float]
    regime: str
    notes: Sequence[str] = ()

    def as_dict(self) -> dict:
        """The fields by name, each DD as its limbs and its float value."""
        out = self._asdict()
        for name in ("f", "delta"):
            x = out[name]
            out[name] = {"hi": x.hi, "lo": x.lo, "value": x.to_float()}
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
            f"quantum Fisher information: {fmt(self.qfi)}",
            f"shift uncertainty floor:    {fmt(self.delta_delta_min)}",
            f"bound on Delta r_S / r_S:   {fmt(self.bound_schwarzschild_rel)}",
            f"bound on Delta w_A / w_A:   {fmt(self.bound_omega_rel)}",
        ]
        orders = self.omega_orders_vs_reference
        if orders is not None:
            lines.append("  vs reference 1.0e-08:     " + (
                f"{orders} orders above (worse)" if orders > 0
                else f"{-orders} orders below (better)" if orders < 0
                else "same order of magnitude"))
        lines += [
            f"QBER:                       {fmt(self.qber)}",
            f"regime:                     {self.regime}",
        ]
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines) + "\n"


def _link(cfg: ScenarioConfig):
    """(shift result, decomposition) of a config from one evaluation of its
    link, which refuses what the radii decide: ``shift`` with the scheme's
    decomposition.  In a sweep chunk's config whose swept radius is a
    list, what that radius reaches is a column."""
    link = cfg.link()
    return shift(link, decompose_ground
                 if link.scheme is LinkScheme.GROUND_TO_SAT else decompose_sats)


def _metrology(cfg: ScenarioConfig, **point):
    """(metrology config, QFI, shift floor, packet) of a config, or of one
    point of a sweep chunk's config (see ``ScenarioConfig.metrology``)."""
    m = cfg.metrology(**point)
    return m, m.qfi_value, m.floor, cfg.packet(**point)


_BELOW_EPSILON = ("rotation term sits below double epsilon of the unit shift "
                  "ratio; its digits are carried by the compensated pipeline")


def _rotation(delta_rot: float, floor: float):
    """The rotation part of a point's outcomes, from its rotation term and
    shift floor: (bound on omega, orders vs the state of the art, the note
    that the term sits below double epsilon or None, the refusal of the bound
    or None).  A sweep chunk whose term and floor are constants computes it
    once."""
    below = _BELOW_EPSILON if 0.0 < abs(delta_rot) < 2.3e-16 else None
    bound = orders = refused = None
    try:
        bound = error_angular_velocity(delta_rot, floor)
        orders = orders_vs_state_of_the_art(bound)
    except DomainError as exc:
        refused = str(exc)
    return bound, orders, below, refused


def _outcomes(delta: float, delta_S: float, delta_c: float, rotation,
              metrology):
    """Overlap, bounds, QBER, regime and notes of one point from the floats
    of its shift and decomposition and its ``_rotation``: (overlap, bound on
    r_S, bound on omega, orders vs the state of the art, QBER, regime,
    notes).  A quantity whose formula refuses is None, with the refusal as a
    note."""
    m, _, floor, packet = metrology
    overlap = overlap_analytic(packet, delta)
    bound_omega, orders, below, omega_refused = rotation
    notes: list[str] = [below] if below else []
    bound_rs = None
    try:
        bound_rs = error_schwarzschild_radius(delta_S, delta_c, floor)
    except DomainError as exc:
        notes.append(str(exc))
    if omega_refused:
        notes.append(omega_refused)

    status = regime_check(delta, m)
    qber_value, regime = None, "valid"
    if status:
        qber_value = _qber_in_regime(delta, m)
    else:
        notes.append(f"QBER refused: {status.reason}")
        regime = f"invalid: {status.reason}"
    return overlap, bound_rs, bound_omega, orders, qber_value, regime, notes


def assemble_report(cfg: ScenarioConfig) -> Report:
    """Run the full pipeline for one scenario.

    Raises DomainError when the scenario itself is unphysical; per-quantity
    refusals are recorded in the report instead of raised.
    """
    result, dec = _link(cfg)
    metrology = _metrology(cfg)
    delta_S, delta_rot, delta_c = (dec.delta_S.to_float(),
                                   dec.delta_rot.to_float(),
                                   dec.delta_c.to_float())
    _, qfi_value, floor, _ = metrology
    overlap, bound_rs, bound_omega, orders, qber_value, regime, notes = \
        _outcomes(result.delta.to_float(), delta_S, delta_c,
                  _rotation(delta_rot, floor), metrology)
    return Report(
        scheme=cfg.scheme.value,
        emitter_radius_m=cfg.emitter_radius_m,
        receiver_radius_m=cfg.receiver_radius_m,
        ratios=cfg.ratios(),
        f=result.f,
        delta=result.delta,
        delta_S=delta_S,
        delta_rot=delta_rot,
        delta_c=delta_c,
        theta=overlap.theta,
        fidelity=overlap.fidelity,
        qfi=qfi_value,
        delta_delta_min=floor,
        bound_schwarzschild_rel=bound_rs,
        bound_omega_rel=bound_omega,
        omega_orders_vs_reference=orders,
        qber=qber_value,
        regime=regime,
        notes=notes,
    )


def run_report(cfg: ScenarioConfig, out_path: Optional[str] = None) -> str:
    """Render the report; optionally write the machine-readable JSON twin."""
    report = assemble_report(cfg)
    text = report.render_text()
    if out_path:
        import json

        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            raise KerrQlinkError(f"cannot write {out_path}: {exc}") from None
    return text


def run_sweep(cfg: ScenarioConfig, spec: SweepSpec, out_path: str,
              no_timestamp: bool = False,
              threads: Optional[int] = None) -> int:
    """Write one CSV row per sweep point; returns the number of rows.

    One loop evaluates SWEEP_CHUNK points at a time and writes each chunk's
    rows to ``out_path`` as soon as they are computed, so memory stays flat
    however long the sweep: each chunk's values are computed from their
    indices when it starts.  Each chunk is one config whose swept field
    holds the list of the chunk's values, checked element by element when
    it is built; the link runs on it once, as columns for a receiver (r_B)
    or emitter (r_C) radius sweep, with the same bits as point by point.
    When anything in a chunk is refused, the config or its link, or
    arithmetic fails, or its points need different fixed-point scales (an
    r_C chunk across a step of the scale), each of its points runs alone on
    its own config, so a refused point keeps its text and a crash stays a
    crash, leaving the rows of the chunks before it in the file.  Rows come
    in sweep order, computed in the calling thread.  Per-point domain
    failures leave their value cells empty and carry the message in the
    error column.

    Sweeping r_C on a ground-to-sat config is refused before the file is
    opened, and a file that cannot be opened is refused before any row is
    computed.  The timestamp line, unless ``no_timestamp``, is taken when
    the sweep starts.  ``threads`` is accepted and ignored; it remains for
    callers written when the sweep ran on a thread pool.
    """
    from .sweep import CSV_COLUMNS, SWEEP_CHUNK, _chunk_rows

    spec.field(cfg)  # a variable the scenario cannot sweep writes nothing
    header = ",".join(CSV_COLUMNS) + "\n"
    if not no_timestamp:
        from datetime import datetime, timezone

        stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        header = f"# generated {stamp}\n" + header
    written = 0
    try:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(header)
            for start in range(0, spec.points, SWEEP_CHUNK):
                rows = _chunk_rows(start, spec.values(start, start + SWEEP_CHUNK),
                                   cfg, spec)
                fh.write("\n".join(rows) + "\n")
                written += len(rows)
    except OSError as exc:
        raise KerrQlinkError(f"cannot write {out_path}: {exc}") from None
    return written
