"""Scenario and sweep configuration: presets, a strict flat key = value
parser, and the mapping onto the physics types.

The file format is a UTF-8 text of `key = value` lines (a leading byte-order
mark is ignored); `#` starts a comment, numbers accept scientific notation,
unknown or repeated keys are rejected with a line diagnostic.  A
`ScenarioConfig` refuses a field outside its domain when it is built, so every
config in hand is valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from ..ddouble import floats
from ..errors import ConfigError, DomainError
from ..geometry import Worldline
from ..metrology import MetrologyConfig
from ..record import Frozen
from ..shift import LinkScenario, LinkScheme
from ..units import C, EARTH, SpacetimeParams, geo_radius, geometric_mass, leo_radius
from ..wavepacket import GaussianWavepacket


_FLOAT_KEYS = {
    "emitter_radius_m", "receiver_radius_m", "ground_omega_rad_s",
    "peak_frequency_hz", "bandwidth_hz", "probes", "squeezing",
    "planet_mass_kg", "planet_spin_parameter_m",
}
_INT_KEYS = {"emitter_direction", "receiver_direction"}

# the config field each sweep variable sets; only these hold a chunk's list
_SWEPT_FIELDS = {"r_B": "receiver_radius_m", "r_C": "emitter_radius_m",
                 "s": "squeezing", "N": "probes", "sigma": "bandwidth_hz"}
SWEEP_VARIABLES = tuple(_SWEPT_FIELDS)


@dataclass(frozen=True)
class ScenarioConfig:
    """One fully-specified link scenario plus probe resources, refused when
    built unless every field is in its domain.  A float field is a float or
    int; a swept one may instead be a non-empty list of them (a sweep
    chunk), checked element by element.  What the radii decide against each
    other or the planet (orbit order, the horizon, the station) is the
    link's to refuse."""

    scheme: LinkScheme = LinkScheme.GROUND_TO_SAT
    emitter_radius_m: float = EARTH.r_A
    receiver_radius_m: float = 0.0  # must be set
    emitter_direction: int = +1  # orbiting emitters only
    receiver_direction: int = +1
    ground_omega_rad_s: float = EARTH.omega_A
    peak_frequency_hz: float = 7e14
    bandwidth_hz: float = 1e6
    probes: float = 1e10
    squeezing: float = 2.0
    planet_mass_kg: float = EARTH.mass_kg
    planet_spin_parameter_m: float = EARTH.a_m

    def __post_init__(self):
        if not isinstance(self.scheme, LinkScheme):
            raise ConfigError(f"scheme must be a LinkScheme, got {self.scheme!r}")
        for name in sorted(_FLOAT_KEYS):
            value = getattr(self, name)
            swept = name in _SWEPT_FIELDS.values()
            xs = value if swept and type(value) is list else (value,)
            if not xs or not all(isinstance(x, (float, int)) for x in xs):
                raise ConfigError(
                    f"{name} must be a number"
                    + (" or a non-empty list of numbers" if swept else "")
                    + f", got {value!r}")
            if not all(map(math.isfinite, xs)):
                raise ConfigError(f"{name} must be finite")
        if any(r <= 0.0 for r in floats(self.receiver_radius_m)):
            raise ConfigError("receiver_radius_m must be set to a positive value")
        if any(r <= 0.0 for r in floats(self.emitter_radius_m)):
            raise ConfigError("emitter_radius_m must be positive")
        for name in sorted(_INT_KEYS):
            if type(getattr(self, name)) is not int or getattr(self, name) not in (-1, +1):
                raise ConfigError(f"{name} must be the int +1 or -1")
        for name in ("ground_omega_rad_s", "peak_frequency_hz", "bandwidth_hz",
                     "squeezing", "planet_mass_kg", "planet_spin_parameter_m"):
            if any(x <= 0.0 for x in floats(getattr(self, name))):
                raise ConfigError(f"{name} must be positive")
        # the Cramer-Rao bound holds for N >= 1 repetitions (see cramer_rao)
        if any(n < 1.0 for n in floats(self.probes)):
            raise ConfigError("probes must be at least 1")

    # -- physics views ------------------------------------------------------

    def spacetime(self) -> SpacetimeParams:
        return SpacetimeParams(geometric_mass(self.planet_mass_kg),
                               self.planet_spin_parameter_m)

    def ratios(self) -> dict:
        """The small ratios steering the perturbative expansion: M/r and a/r
        at each endpoint, and r omega/c of a ground station; refused when
        one is past the double range."""
        p = self.spacetime()
        out = {
            "M/r_emitter": p.M_geom / self.emitter_radius_m,
            "M/r_receiver": p.M_geom / self.receiver_radius_m,
            "a/r_emitter": p.a / self.emitter_radius_m,
            "a/r_receiver": p.a / self.receiver_radius_m,
        }
        if self.scheme is LinkScheme.GROUND_TO_SAT:
            out["r_emitter*omega/c"] = (
                self.emitter_radius_m * self.ground_omega_rad_s / C)
        for name, value in out.items():
            if not math.isfinite(value):
                raise DomainError(f"{name} = {value} leaves the double range")
        return out

    def link(self) -> LinkScenario:
        if self.scheme is LinkScheme.GROUND_TO_SAT:
            emitter = Worldline.ground_station(self.emitter_radius_m,
                                               self.ground_omega_rad_s)
        else:
            emitter = Worldline.circular_orbit(self.emitter_radius_m,
                                               self.emitter_direction)
        receiver = Worldline.circular_orbit(self.receiver_radius_m,
                                            self.receiver_direction)
        return LinkScenario(emitter, receiver, self.spacetime())

    # In a sweep chunk's config, ``point`` sets the swept probe field
    # (probes, squeezing or bandwidth_hz) to one element of its column, which
    # the config checked when it was built: a point needs no config of its own.
    def metrology(self, **point) -> MetrologyConfig:
        f = vars(self) | point
        return MetrologyConfig(probes=f["probes"], squeezing=f["squeezing"],
                               sigma=f["bandwidth_hz"],
                               omega1=f["peak_frequency_hz"],
                               omega2=f["peak_frequency_hz"])

    def packet(self, **point) -> GaussianWavepacket:
        f = vars(self) | point
        return GaussianWavepacket.of(f["peak_frequency_hz"], f["bandwidth_hz"])


PRESETS: dict[str, ScenarioConfig] = {
    "earth-leo": ScenarioConfig(receiver_radius_m=leo_radius()),
    "earth-geo": ScenarioConfig(receiver_radius_m=geo_radius()),
    "leo-geo-sat": ScenarioConfig(scheme=LinkScheme.SAT_TO_SAT,
                                  emitter_radius_m=leo_radius(),
                                  receiver_radius_m=geo_radius()),
}


class SweepSpec(Frozen):
    """One swept variable over [lo, hi] on a linear or log grid."""

    __slots__ = ("variable", "lo", "hi", "points", "scale")

    def __init__(self, variable: str, lo: float, hi: float, points: int,
                 scale: str = "linear"):
        object.__setattr__(self, "variable", variable)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "scale", scale)
        if variable not in SWEEP_VARIABLES:
            raise ConfigError(
                f"sweep variable must be one of {', '.join(SWEEP_VARIABLES)}")
        if not all(isinstance(x, (float, int)) and math.isfinite(x) for x in (lo, hi)):
            raise ConfigError(f"sweep bounds must be finite numbers, got {lo!r} and {hi!r}")
        if not lo < hi:
            raise ConfigError("sweep needs lo < hi")
        if type(points) is not int:  # 2.0 would fail in values()
            raise ConfigError(f"sweep points must be an int, got {points!r}")
        if points < 2:
            raise ConfigError("sweep needs at least 2 points")
        if scale not in ("linear", "log"):
            raise ConfigError("sweep scale must be linear or log")
        if scale == "log" and lo <= 0.0:
            raise ConfigError("log sweeps need a positive lower bound")
        if scale == "linear" and not math.isfinite(hi - lo):
            raise ConfigError("linear sweep span hi - lo overflows the double range")

    def values(self, start: int = 0, stop: Optional[int] = None) -> list[float]:
        """The grid values of points start .. stop - 1 (as a slice of all of
        them), each from its own index; the endpoints are lo and hi."""
        n = self.points
        indices = range(n)[start:stop]
        if self.scale == "linear":
            stride = (self.hi - self.lo) / (n - 1)
            vals = [self.lo + i * stride for i in indices]
        else:
            la, lb = math.log(self.lo), math.log(self.hi)
            vals = [math.exp(la + i * (lb - la) / (n - 1)) for i in indices]
        if indices and indices[0] == 0:
            vals[0] = self.lo
        if indices and indices[-1] == n - 1:
            vals[-1] = self.hi
        return vals

    def field(self, cfg: ScenarioConfig) -> str:
        """The field of ``cfg`` this sweep sets; an emitter radius (r_C) is
        swept on a sat-to-sat scenario only."""
        if self.variable == "r_C" and cfg.scheme is not LinkScheme.SAT_TO_SAT:
            raise ConfigError("sweeping r_C needs a sat-to-sat scenario")
        return _SWEPT_FIELDS[self.variable]

    def apply(self, cfg: ScenarioConfig, value) -> ScenarioConfig:
        return replace(cfg, **{self.field(cfg): value})


_SCHEMES = {s.value: s for s in LinkScheme}

_SWEEP_KEYS = {"sweep_variable", "sweep_lo", "sweep_hi", "sweep_points", "sweep_scale"}
KNOWN_KEYS = _FLOAT_KEYS | _INT_KEYS | _SWEEP_KEYS | {"scheme"}


def parse_config_text(text: str) -> dict[str, str]:
    """Parse `key = value` lines into a raw string mapping.

    Rejects unknown keys, repeated keys and malformed lines, naming the line.
    """
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = body.partition("=")
        key, value = key.strip(), value.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: repeated key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        raw[key] = value
    return raw


def _convert(key: str, value: str):
    try:
        if key == "scheme":
            if value not in _SCHEMES:
                raise ValueError(f"must be one of {', '.join(_SCHEMES)}")
            return _SCHEMES[value]
        if key in _INT_KEYS or key == "sweep_points":
            return int(value)
        if key in ("sweep_variable", "sweep_scale"):
            return value
        return float(value)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: bad value {value!r} ({exc})") from None


def build_config(raw: dict[str, str],
                 base: Optional[ScenarioConfig] = None
                 ) -> tuple[ScenarioConfig, Optional[SweepSpec]]:
    """Overlay raw keys onto a base scenario (preset or defaults) and pull out
    the optional sweep block."""
    scenario_updates = {}
    sweep_fields: dict[str, object] = {}
    for key, value in raw.items():
        converted = _convert(key, value)
        if key in _SWEEP_KEYS:
            sweep_fields[key.removeprefix("sweep_")] = converted
        else:
            scenario_updates[key] = converted
    cfg = (replace(base, **scenario_updates) if base is not None
           else ScenarioConfig(**scenario_updates))
    sweep = None
    if sweep_fields:
        missing = {"variable", "lo", "hi", "points"} - sweep_fields.keys()
        if missing:
            raise ConfigError(
                "incomplete sweep block, missing: "
                + ", ".join(sorted(f"sweep_{m}" for m in missing)))
        sweep = SweepSpec(**sweep_fields)  # type: ignore[arg-type]
    return cfg, sweep


def load_config(path: str, base: Optional[ScenarioConfig] = None
                ) -> tuple[ScenarioConfig, Optional[SweepSpec]]:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return build_config(parse_config_text(text), base)
