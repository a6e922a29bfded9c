"""Command-line layer: scenario configuration, report/sweep assembly and the
built-in verification suites."""

from .main import main
from .report import Report, assemble_report, run_report, run_sweep
from .scenario import PRESETS, ScenarioConfig, SweepSpec, build_config, load_config

__all__ = [
    "main",
    "Report",
    "assemble_report",
    "run_report",
    "run_sweep",
    "PRESETS",
    "ScenarioConfig",
    "SweepSpec",
    "build_config",
    "load_config",
    "CHECKS",
    "run_verify",
]


def __getattr__(name: str):
    # the verification suite and the Decimal oracle it runs load only when
    # asked for, so report, sweep and zero-orbit never compile them
    if name in ("CHECKS", "run_verify"):
        from . import selfcheck
        return getattr(selfcheck, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
