"""Command-line front end.

Subcommands: report, sweep, verify, zero-orbit, presets.
Exit codes: 0 success, 2 configuration error, 3 physics/numerical domain
error or an output file that cannot be written, 4 verification failure.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from ..errors import ConfigError, DomainError, KerrQlinkError, NumericalError
from ..shift import LinkScheme, find_zero_shift_orbit
from .scenario import PRESETS, ScenarioConfig, load_config


def _resolve_config(args) -> tuple[ScenarioConfig, Optional[object]]:
    base = None
    if args.preset:
        if args.preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {args.preset!r}; available: "
                + ", ".join(sorted(PRESETS)))
        base = PRESETS[args.preset]
    sweep = None
    if args.config:
        cfg, sweep = load_config(args.config, base)
    elif base is not None:
        cfg = base
    else:
        raise ConfigError("provide --preset, --config, or both")
    return cfg, sweep


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kerr-qlink",
        description=(
            "Frequency shift, wavepacket overlap, quantum-metrology bounds "
            "and QBER for photon links around a rotating planet."),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--preset", help="named scenario preset")
        p.add_argument("--config", help="path to a key = value scenario file")

    p_report = sub.add_parser("report", help="full pipeline report for one scenario")
    add_common(p_report)
    p_report.add_argument("--out", help="also write the report as JSON")

    p_sweep = sub.add_parser("sweep", help="CSV sweep over one variable")
    add_common(p_sweep)
    p_sweep.add_argument("--out", required=True, help="CSV output path")
    p_sweep.add_argument("--no-timestamp", action="store_true",
                         help="omit the timestamp header line (reproducible output)")

    p_verify = sub.add_parser("verify", help="run the built-in verification suite")
    p_verify.add_argument("level", nargs="?", default="fast",
                          choices=("fast", "full"))
    p_verify.add_argument("--digits", type=int, default=50,
                          help="oracle precision in decimal digits (>= 50)")

    p_zero = sub.add_parser("zero-orbit",
                            help="receiver radius with vanishing frequency shift")
    add_common(p_zero)

    sub.add_parser("presets", help="list the named presets")
    return parser


def _cmd_report(args) -> int:
    cfg, _ = _resolve_config(args)
    from .report import run_report  # zero-orbit never compiles the report
    sys.stdout.write(run_report(cfg, args.out))
    return 0


def _cmd_sweep(args) -> int:
    cfg, sweep = _resolve_config(args)
    if sweep is None:
        raise ConfigError(
            "sweep needs the sweep_* keys in the config file "
            "(sweep_variable, sweep_lo, sweep_hi, sweep_points)")
    from .report import run_sweep
    rows = run_sweep(cfg, sweep, args.out, no_timestamp=args.no_timestamp)
    print(f"wrote {rows} rows to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    if args.digits < 50:
        raise ConfigError("--digits must be at least 50")
    from .selfcheck import run_verify  # the suite and its oracle load here only
    return run_verify(args.level, args.digits)


def zero_orbit(cfg: ScenarioConfig):
    """(radius, delta there) of the zero-shift receiver orbit of a config,
    bisected over the bracket the command searches."""
    if cfg.scheme is LinkScheme.GROUND_TO_SAT:
        bracket = (1.001 * cfg.emitter_radius_m, 3.0 * cfg.emitter_radius_m)
    else:
        bracket = (1.0001 * cfg.emitter_radius_m, 3.0 * cfg.receiver_radius_m)
    return find_zero_shift_orbit(cfg.link(), *bracket)


def _cmd_zero_orbit(args) -> int:
    cfg, _ = _resolve_config(args)
    r_star, residual = zero_orbit(cfg)
    print(f"zero-shift receiver radius: {r_star:.9e} m")
    print(f"radius / emitter radius:    {r_star / cfg.emitter_radius_m:.9f}")
    print(f"residual delta there:       {residual.to_float():.3e}")
    return 0


def _cmd_presets(_args) -> int:
    for name in sorted(PRESETS):
        cfg = PRESETS[name]
        print(f"{name}: {cfg.scheme.value}, emitter {cfg.emitter_radius_m:.4e} m"
              f" -> receiver {cfg.receiver_radius_m:.4e} m")
    return 0


_COMMANDS = {
    "report": _cmd_report,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
    "zero-orbit": _cmd_zero_orbit,
    "presets": _cmd_presets,
}


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, NumericalError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except KerrQlinkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
