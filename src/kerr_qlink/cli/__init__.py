"""Command-line layer: scenario configuration, report/sweep assembly and the
built-in verification suites.

The package serves what the console script and the benchmark harness read
from it.  Everything else is imported from its module (``cli.report``,
``cli.scenario``, ``cli.selfcheck``, ``cli.sweep``).
"""

# eager: a lazy ``main`` would be shadowed by the submodule of the same name
from .main import main
from .scenario import PRESETS, SweepSpec

__all__ = ["main", "PRESETS", "SweepSpec", "run_report", "run_sweep", "run_verify"]


def __getattr__(name: str):
    # the report and the verification suite load only when asked for, so
    # zero-orbit compiles neither, and report, sweep and zero-orbit never
    # compile the suite or the Decimal oracle it runs
    if name in ("run_report", "run_sweep"):
        from . import report as module
    elif name == "run_verify":
        from . import selfcheck as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)
