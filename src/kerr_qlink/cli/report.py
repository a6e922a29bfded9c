"""Scenario reports and CSV sweeps.

A report aggregates the whole pipeline for one scenario: shift, decomposition,
packet overlap, Fisher information, Cramer-Rao floor, parameter bounds and the
key-protocol error rate.  Quantities whose defining formula refuses (first-
order propagation near a vanishing mass term, error rate outside its regime)
come back as None with the refusal message, so sweeps keep running through
such points.

A sweep runs one loop over chunks of SWEEP_CHUNK points and shares nothing
between chunks: a chunk is the config whose swept field holds its values as
a DDColumn, validated element by element, and takes a report's route into
the closed form, as columns for a radius sweep.  What every point of a chunk
shares is computed and formatted once, and each row is one %-formatting of
the values that vary from point to point.  Each chunk's rows are written as
soon as they are computed, so a sweep holds one chunk's rows at a time.

CSV rows carry the compensated quantities as (hi, lo) column pairs and every
fast-path value with 17 significant digits; identical configurations produce
byte-identical files (modulo the optional timestamp header line).
"""

from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple, Optional, Sequence

from ..ddouble import DD, DDColumn
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
    """(shift result, decomposition) of a validated config: ``shift`` of its
    link, and the scheme's decomposition.  In a sweep chunk's config whose
    swept radius is a DDColumn, what that radius reaches is a column."""
    link = cfg.link()
    p = link.params
    result = shift(link)
    if cfg.scheme is LinkScheme.GROUND_TO_SAT:
        dec = decompose_ground(p, cfg.emitter_radius_m, cfg.ground_omega_rad_s,
                               cfg.receiver_radius_m, result.delta)
    else:
        dec = decompose_sats(p, cfg.emitter_radius_m, cfg.receiver_radius_m,
                             result.delta)
    return result, dec


def _metrology(cfg: ScenarioConfig):
    """(metrology config, QFI, shift floor, packet) of a config."""
    m = cfg.metrology()
    return m, m.qfi_value, m.floor, cfg.packet()


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
    cfg = cfg.validate()
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


# the float cells whose formula may refuse, in the order of a row's key
_REFUSABLE = ("bound_schwarzschild_rel", "bound_omega_rel", "qber")


def _limbs(x, n: int) -> list[tuple[float, float]]:
    """The (hi, lo) limbs of n points' value x: a column's elements, or a
    DD's limbs n times."""
    return x.limbs if type(x) is DDColumn else [(x.hi, x.lo)] * n


def _template(constants: dict[str, Optional[float]], refused: set) -> str:
    """The %-template of a row whose cells named in ``constants`` hold those
    chunk constants, formatted here.  The other cells take the row's values
    in order: the index, 17-digit floats, "%.0s" (which prints nothing) for a
    refused float named in ``refused``, then the regime and notes as text."""
    return ",".join([
        "%d",
        *(_fmt(constants[name]) if name in constants
          else "%.0s" if name in refused else "%.17e"
          for name in CSV_COLUMNS[1:-2]),
        "%s", "%s"])


def _rows(start: int, values: list[float], cfg: ScenarioConfig,
          spec: SweepSpec) -> list[str]:
    """CSV rows of the sweep points ``values``, the first of them point
    ``start``, from ``cfg``, whose swept field holds them (a DDColumn, or the
    one value); raises what any point's evaluation raises.

    The config is validated once and the link runs on it once; a radius
    sweep's metrology runs once too, any other sweep's per point.  A value
    that is a DD rather than a DDColumn is a chunk constant, and so is the
    one metrology and the rotation outcome of a constant rotation term and
    floor: each is computed and formatted once.  Each row is one
    %-formatting of its point's values; a refused overlap makes it an error
    row.
    """
    cfg.validate()
    n = len(values)
    result, dec = _link(cfg)
    constants: dict[str, Optional[float]] = {}
    for name, x in (("f", result.f), ("delta", result.delta)):
        if type(x) is DD:
            constants[name + "_hi"], constants[name + "_lo"] = x.hi, x.lo
    for name in ("delta_S", "delta_rot", "delta_c"):
        if type(getattr(dec, name)) is DD:
            constants[name] = getattr(dec, name).to_float()
    delta_S, delta_rot, delta_c = (
        [hi + lo for hi, lo in _limbs(x, n)]
        for x in (dec.delta_S, dec.delta_rot, dec.delta_c))
    if spec.variable in ("r_B", "r_C"):
        metrology = [_metrology(cfg)] * n
        _, constants["qfi"], constants["delta_delta_min"], _ = metrology[0]
    else:
        metrology = [_metrology(spec.apply(cfg, v)) for v in values]
    if "delta_rot" in constants and "delta_delta_min" in constants:
        rotation = [_rotation(constants["delta_rot"],
                              constants["delta_delta_min"])] * n
        constants["bound_omega_rel"] = rotation[0][0]
    else:
        rotation = [_rotation(x, m[2]) for x, m in zip(delta_rot, metrology)]
    cells = itemgetter(*(i for i, name in enumerate(CSV_COLUMNS)
                         if name not in constants))
    templates: dict[tuple, str] = {}
    rows = []
    for index, (value, (f_hi, f_lo), (d_hi, d_lo), d_s, d_rot, d_c, m,
                rot) in enumerate(zip(values, _limbs(result.f, n),
                                      _limbs(result.delta, n), delta_S,
                                      delta_rot, delta_c, metrology,
                                      rotation), start):
        try:
            overlap, bound_rs, bound_omega, _, qber_value, regime, notes = \
                _outcomes(d_hi + d_lo, d_s, d_c, rot, m)
        except KerrQlinkError as exc:
            rows.append(_error_row(index, value, exc))
            continue
        key = (bound_rs is None, bound_omega is None, qber_value is None)
        template = templates.get(key)
        if template is None:
            refused = {name for name, none in zip(_REFUSABLE, key) if none}
            template = templates[key] = _template(constants, refused)
        rows.append(template % cells((
            index, value, f_hi, f_lo, d_hi, d_lo, d_s, d_rot, d_c,
            overlap.theta, m[1], m[2], bound_rs, bound_omega, qber_value,
            regime, _csv_escape("; ".join(notes)) if notes else "")))
    return rows


# Sweep points evaluated together, as one column in a radius sweep, and
# written together.  The chunk size bounds a sweep's working memory whatever
# its length: the columns, rows and text of one chunk are alive at a time
# (a tracemalloc peak of about 80 KB for a one-chunk earth-leo r_B sweep);
# only the list of sweep values grows with the sweep.  A refused chunk costs
# more as it grows too, since its points then run alone.  A chunk has a
# fixed cost of about 150 us (validation, the terms and metrology it shares,
# 120-160 us in least-squares fits of _rows time over 4- to 128-point
# earth-leo r_B chunks), about 2.4 us a point at 64.
SWEEP_CHUNK = 64


def _chunk_rows(start: int, chunk: list[float], column: ScenarioConfig,
                cfg: ScenarioConfig, spec: SweepSpec) -> list[str]:
    """The rows of one chunk: ``_rows`` of its column config, or, when
    anything in it is refused or arithmetic fails, of each point alone, a
    refused point as an error row."""
    try:
        return _rows(start, chunk, column, spec)
    except (KerrQlinkError, ArithmeticError):
        rows = []
        for index, value in enumerate(chunk, start):
            try:
                rows += _rows(index, [value], spec.apply(cfg, value), spec)
            except KerrQlinkError as exc:
                rows.append(_error_row(index, value, exc))
        return rows


def run_sweep(cfg: ScenarioConfig, spec: SweepSpec, out_path: str,
              no_timestamp: bool = False,
              threads: Optional[int] = None) -> int:
    """Write one CSV row per sweep point; returns the number of rows.

    One loop evaluates SWEEP_CHUNK points at a time and writes each chunk's
    rows to ``out_path`` as soon as they are computed, so memory stays flat
    however long the sweep.  Each chunk is one config whose swept field
    holds the chunk's values as a DDColumn, validated element by element;
    the link runs on it once, as columns for a receiver (r_B) or emitter
    (r_C) radius sweep, with the same bits as point by point.  When
    anything in a chunk is refused, or arithmetic fails, each of its points
    runs alone on its own config, so a refused point keeps its text and a
    crash stays a crash, leaving the rows of the chunks before it in the
    file.  Rows come in sweep order, computed in the calling thread.
    Per-point domain failures leave their value cells empty and carry the
    message in the error column.

    Sweeping r_C on a ground-to-sat config is refused before the file is
    opened, and a file that cannot be opened is refused before any row is
    computed.  The timestamp line, unless ``no_timestamp``, is taken when
    the sweep starts.  ``threads`` is accepted and ignored; it remains for
    callers written when the sweep ran on a thread pool.
    """
    values = spec.values()
    # built before the file opens, so a variable the scenario cannot sweep
    # is refused with nothing written
    column = spec.apply(cfg, DDColumn.of(values[:SWEEP_CHUNK]))
    header = ",".join(CSV_COLUMNS) + "\n"
    if not no_timestamp:
        from datetime import datetime, timezone

        stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        header = f"# generated {stamp}\n" + header
    written = 0
    try:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(header)
            for start in range(0, len(values), SWEEP_CHUNK):
                chunk = values[start:start + SWEEP_CHUNK]
                if start:
                    column = spec.apply(cfg, DDColumn.of(chunk))
                rows = _chunk_rows(start, chunk, column, cfg, spec)
                fh.write("\n".join(rows) + "\n")
                written += len(rows)
    except OSError as exc:
        raise KerrQlinkError(f"cannot write {out_path}: {exc}") from None
    return written
