"""The rows of a CSV sweep, one chunk of points at a time.

A sweep runs one loop over chunks of SWEEP_CHUNK points and shares nothing
between chunks: a chunk is the config whose swept field holds the list of
its values, which checks them element by element when it is built, and takes
a report's route into the closed form.  In a radius sweep the closed form
and the decomposition run once per chunk, on a column of the link's
fixed-point ints (``fixed``), each element the bits of its point alone.
What every point of a chunk shares is computed and formatted once, and each
row is one %-formatting of the values that vary from point to point.
``report.run_sweep`` opens the file, loads this module and writes each
chunk's rows as soon as they are computed, so a sweep holds one chunk's rows
at a time, and a report never compiles this code.

CSV rows carry the compensated quantities as (hi, lo) column pairs and every
fast-path value with 17 significant digits; identical configurations produce
byte-identical files (modulo the optional timestamp header line).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Optional

from ..ddouble import DD, DDColumn, floats
from ..errors import KerrQlinkError
from .report import _link, _metrology, _outcomes, _rotation
from .scenario import ScenarioConfig, SweepSpec


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
    ``start``, from ``cfg``, whose swept field holds them (the list, or the
    one value); raises what any point's evaluation raises.

    The link runs on the config once; a radius sweep's metrology runs once
    too, any other sweep's per point.  A value that is a DD rather than a
    DDColumn is a chunk constant, and so is the one metrology and the
    rotation outcome of a constant rotation term and floor: each is computed
    and formatted once.  Each row is one %-formatting of its point's values;
    a refused overlap makes it an error row.
    """
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
        [constants[name]] * n if name in constants else floats(getattr(dec, name))
        for name in ("delta_S", "delta_rot", "delta_c"))
    if spec.variable in ("r_B", "r_C"):
        metrology = [_metrology(cfg)] * n
        _, constants["qfi"], constants["delta_delta_min"], _ = metrology[0]
    else:
        field = spec.field(cfg)
        metrology = [_metrology(cfg, **{field: v}) for v in values]
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
# (a tracemalloc peak of about 150 KB for a one-chunk earth-leo r_B sweep,
# half that at 64 points), and each chunk's values are computed when it
# starts.  A refused chunk costs more as it grows too, since its points then
# run alone, and so does a chunk whose points need different fixed-point
# scales.  A chunk has a fixed cost of about 150 us (validation, the terms
# and metrology it shares; least-squares fits of _chunk_rows CPU time over
# 4- to 128-point earth-leo r_B chunks, on a 2-vCPU host where a point
# costs about 17 us), about 1.2 us a point at 128 against 2.3 us at 64.
SWEEP_CHUNK = 128


def _chunk_rows(start: int, chunk: list[float], cfg: ScenarioConfig,
                spec: SweepSpec) -> list[str]:
    """The rows of one chunk of the sweep ``spec`` over ``cfg``: ``_rows`` of
    the config whose swept field holds the chunk's list, or, when
    building it or anything in it is refused or arithmetic fails, of each
    point alone, a refused point as an error row."""
    try:
        return _rows(start, chunk, spec.apply(cfg, chunk), spec)
    except (KerrQlinkError, ArithmeticError):
        rows = []
        for index, value in enumerate(chunk, start):
            try:
                rows += _rows(index, [value], spec.apply(cfg, value), spec)
            except KerrQlinkError as exc:
                rows.append(_error_row(index, value, exc))
        return rows
