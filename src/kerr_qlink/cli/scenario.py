"""Scenario and sweep configuration: presets, a strict flat key = value
parser, and the mapping onto the physics types.

The file format is a UTF-8 text of `key = value` lines; `#` starts a comment,
numbers accept scientific notation, unknown or repeated keys are rejected with
a line diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from ..errors import ConfigError
from ..geometry import Worldline
from ..metrology import MetrologyConfig
from ..shift import LinkScenario, LinkScheme
from ..units import EARTH, SpacetimeParams, geo_radius, geometric_mass, leo_radius
from ..wavepacket import GaussianWavepacket


@dataclass(frozen=True)
class ScenarioConfig:
    """One fully-specified link scenario plus probe resources."""

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

    def validate(self) -> "ScenarioConfig":
        for name in sorted(_FLOAT_KEYS):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if self.receiver_radius_m <= 0.0:
            raise ConfigError("receiver_radius_m must be set to a positive value")
        if self.emitter_radius_m <= 0.0:
            raise ConfigError("emitter_radius_m must be positive")
        for name in sorted(_INT_KEYS):
            if type(getattr(self, name)) is not int or getattr(self, name) not in (-1, +1):
                raise ConfigError(f"{name} must be the int +1 or -1")
        if self.scheme is LinkScheme.SAT_TO_SAT \
                and self.receiver_radius_m <= self.emitter_radius_m:
            raise ConfigError("sat-to-sat scenarios need receiver above emitter")
        for name in ("ground_omega_rad_s", "peak_frequency_hz", "bandwidth_hz",
                     "squeezing", "planet_mass_kg", "planet_spin_parameter_m"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name} must be positive")
        # the Cramer-Rao bound holds for N >= 1 repetitions (see cramer_rao)
        if self.probes < 1.0:
            raise ConfigError("probes must be at least 1")
        return self

    # -- physics views ------------------------------------------------------

    def spacetime(self) -> SpacetimeParams:
        return SpacetimeParams(geometric_mass(self.planet_mass_kg),
                               self.planet_spin_parameter_m)

    def emitter(self) -> Worldline:
        if self.scheme is LinkScheme.GROUND_TO_SAT:
            return Worldline.ground_station(self.emitter_radius_m,
                                            self.ground_omega_rad_s)
        return Worldline.circular_orbit(self.emitter_radius_m,
                                        self.emitter_direction)

    def receiver(self) -> Worldline:
        return Worldline.circular_orbit(self.receiver_radius_m,
                                        self.receiver_direction)

    def link(self) -> LinkScenario:
        return LinkScenario(self.scheme, self.emitter(), self.receiver(),
                            self.spacetime())

    def metrology(self) -> MetrologyConfig:
        return MetrologyConfig(probes=self.probes, squeezing=self.squeezing,
                               sigma=self.bandwidth_hz,
                               omega1=self.peak_frequency_hz,
                               omega2=self.peak_frequency_hz)

    def packet(self) -> GaussianWavepacket:
        return GaussianWavepacket.of(self.peak_frequency_hz, self.bandwidth_hz)


PRESETS: dict[str, ScenarioConfig] = {
    "earth-leo": ScenarioConfig(receiver_radius_m=leo_radius()),
    "earth-geo": ScenarioConfig(receiver_radius_m=geo_radius()),
    "leo-geo-sat": ScenarioConfig(scheme=LinkScheme.SAT_TO_SAT,
                                  emitter_radius_m=leo_radius(),
                                  receiver_radius_m=geo_radius()),
}


SWEEP_VARIABLES = ("r_B", "r_C", "s", "N", "sigma")


@dataclass(frozen=True)
class SweepSpec:
    """One swept variable over [lo, hi] on a linear or log grid."""

    variable: str
    lo: float
    hi: float
    points: int
    scale: str = "linear"

    def __post_init__(self):
        if self.variable not in SWEEP_VARIABLES:
            raise ConfigError(
                f"sweep variable must be one of {', '.join(SWEEP_VARIABLES)}")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ConfigError("sweep bounds must be finite")
        if not self.lo < self.hi:
            raise ConfigError("sweep needs lo < hi")
        if self.points < 2:
            raise ConfigError("sweep needs at least 2 points")
        if self.scale not in ("linear", "log"):
            raise ConfigError("sweep scale must be linear or log")
        if self.scale == "log" and self.lo <= 0.0:
            raise ConfigError("log sweeps need a positive lower bound")

    def values(self) -> list[float]:
        n = self.points
        if self.scale == "linear":
            stride = (self.hi - self.lo) / (n - 1)
            vals = [self.lo + i * stride for i in range(n)]
        else:
            la, lb = math.log(self.lo), math.log(self.hi)
            vals = [math.exp(la + i * (lb - la) / (n - 1)) for i in range(n)]
        vals[0], vals[-1] = self.lo, self.hi
        return vals

    def apply(self, cfg: ScenarioConfig, value: float) -> ScenarioConfig:
        if self.variable == "r_B":
            return replace(cfg, receiver_radius_m=value)
        if self.variable == "r_C":
            if cfg.scheme is not LinkScheme.SAT_TO_SAT:
                raise ConfigError("sweeping r_C needs a sat-to-sat scenario")
            return replace(cfg, emitter_radius_m=value)
        if self.variable == "s":
            return replace(cfg, squeezing=value)
        if self.variable == "N":
            return replace(cfg, probes=value)
        return replace(cfg, bandwidth_hz=value)


_SCHEMES = {s.value: s for s in LinkScheme}

_FLOAT_KEYS = {
    "emitter_radius_m", "receiver_radius_m", "ground_omega_rad_s",
    "peak_frequency_hz", "bandwidth_hz", "probes", "squeezing",
    "planet_mass_kg", "planet_spin_parameter_m",
}
_INT_KEYS = {"emitter_direction", "receiver_direction"}
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
        if key in _INT_KEYS:
            n = int(value)
            if n not in (-1, +1):
                raise ValueError("must be +1 or -1")
            return n
        if key == "sweep_variable":
            return value
        if key == "sweep_scale":
            return value
        if key == "sweep_points":
            return int(value)
        return float(value)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: bad value {value!r} ({exc})") from None


def build_config(raw: dict[str, str],
                 base: Optional[ScenarioConfig] = None
                 ) -> tuple[ScenarioConfig, Optional[SweepSpec]]:
    """Overlay raw keys onto a base scenario (preset or defaults) and pull out
    the optional sweep block."""
    cfg = base if base is not None else ScenarioConfig()
    scenario_updates = {}
    sweep_fields: dict[str, object] = {}
    for key, value in raw.items():
        converted = _convert(key, value)
        if key in _SWEEP_KEYS:
            sweep_fields[key.removeprefix("sweep_")] = converted
        else:
            scenario_updates[key] = converted
    if scenario_updates:
        cfg = replace(cfg, **scenario_updates)
    cfg = cfg.validate()
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
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return build_config(parse_config_text(text), base)
