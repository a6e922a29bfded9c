"""The benchmark's workloads and the closed loop that times them.

Each workload makes its inputs from the seed, runs one operation at a time
(one client; the next operation starts when the previous one ends) and checks
every output after its timing has been taken.  The program runs with its own
defaults: nothing here sets the sweep thread count.

Each operation is timed twice: wall time, and CPU time (user plus system, of
every thread of this process and of the child processes it waited for during
the operation).  The gated metrics use CPU time: on a shared virtual machine
the wall time of a run also counts the time the host did not run it, which
drifts by half or more over minutes while the CPU time moves little.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import resource
import subprocess
import sys
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter, process_time

from kerr_qlink import cli
from kerr_qlink.cli.scenario import PRESETS, SweepSpec

import checks

ROOT = Path(__file__).resolve().parent.parent
POOL = 64  # distinct seeded inputs per workload; operations cycle through them

# What the installed `kerr-qlink` console script runs.
CONSOLE_SCRIPT = "import sys; from kerr_qlink.cli.main import main; sys.exit(main())"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_child(argv: list[str], stdout_path: Path) -> tuple[int, str, int]:
    """Run one fresh interpreter to completion: (exit code, stdout, peak RSS
    in KiB of that child alone)."""
    with open(stdout_path, "wb") as out:
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL,
                                env=child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, stdout_path.read_text(encoding="utf-8"), usage.ru_maxrss


def self_peak_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class CliCold:
    """One `kerr-qlink` command per fresh interpreter, in a fixed rotation.

    Interpreter start and imports dominate, so import-time work shows here
    and the double-double kernels barely do.
    """

    name = "cli-cold"
    item = "commands"
    warmup = 0
    ROTATION = ("report earth-leo", "report earth-geo", "report leo-geo-sat",
                "report-json earth-leo", "zero-orbit earth-leo", "verify full")
    CONFIGS_PER_PRESET = 8
    # relative jitter of (emitter, receiver) radius in the overlay configs
    JITTER = {"earth-leo": (0.005, 0.05), "earth-geo": (0.005, 0.05),
              "leo-geo-sat": (0.05, 0.05)}

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.workdir = workdir
        self.json_out = workdir / "report.json"
        self.configs = {}
        for preset, (j_emit, j_recv) in self.JITTER.items():
            base = PRESETS[preset]
            pool = []
            for k in range(self.CONFIGS_PER_PRESET):
                cfg = replace(
                    base,
                    emitter_radius_m=base.emitter_radius_m * (1 + rng.uniform(-j_emit, j_emit)),
                    receiver_radius_m=base.receiver_radius_m * (1 + rng.uniform(-j_recv, j_recv)))
                path = workdir / f"{preset}-{k}.cfg"
                path.write_text(f"emitter_radius_m = {cfg.emitter_radius_m!r}\n"
                                f"receiver_radius_m = {cfg.receiver_radius_m!r}\n",
                                encoding="utf-8")
                pool.append((str(path), cfg))
            self.configs[preset] = pool
        self.peak_rss_kib = 0

    def command(self, i: int):
        """(kind, argv, scenario) of operation i."""
        kind, target = self.ROTATION[i % len(self.ROTATION)].split()
        if kind == "verify":
            return kind, ["verify", "full"], None
        if kind == "zero-orbit":
            return kind, ["zero-orbit", "--preset", target], None
        path, cfg = self.configs[target][(i // len(self.ROTATION)) % self.CONFIGS_PER_PRESET]
        argv = ["report", "--preset", target, "--config", path]
        if kind == "report-json":
            argv += ["--out", str(self.json_out)]
        return kind, argv, cfg

    def run(self, i: int):
        _, argv, _ = self.command(i)
        code, stdout, rss = run_child([sys.executable, "-c", CONSOLE_SCRIPT, *argv],
                                      self.workdir / "stdout.txt")
        self.peak_rss_kib = max(self.peak_rss_kib, rss)
        return code, stdout

    def run_in_process(self, i: int):
        _, argv, _ = self.command(i)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def check(self, i: int, output) -> int:
        code, stdout = output
        kind, _, cfg = self.command(i)
        if kind == "verify":
            checks.check_verify(code, stdout.splitlines())
            return 1
        if code != 0:
            raise checks.CheckFailed(f"{kind} exited {code}")
        if kind == "zero-orbit":
            checks.check_zero_orbit(stdout)
        else:
            checks.check_report_text(stdout, cfg)
        if kind == "report-json":
            checks.check_report_json(str(self.json_out), cfg)
            self.json_out.unlink()
        return 1

    def peak_rss(self) -> int:
        return self.peak_rss_kib


class SweepGround:
    """In-process `run_sweep` over 2000 log-spaced receiver radii of the
    earth-leo ground-to-satellite link.

    Every point has its own geometry, so the time is scalar double-double
    arithmetic in shift/perturb, with the sweep's thread pool around it.
    """

    name = "sweep-ground"
    item = "sweep points"
    warmup = 1
    POINTS = 2000

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.seed = seed
        self.cfg = PRESETS["earth-leo"]
        r_a = self.cfg.emitter_radius_m
        # lo lies below the delta_S zero near 1.5 r_A; hi lies past GEO (6.6 r_A)
        self.specs = [SweepSpec("r_B", r_a * rng.uniform(1.02, 1.3),
                                r_a * rng.uniform(7.0, 9.0), self.POINTS, "log")
                      for _ in range(POOL)]
        self.out = workdir / "sweep.csv"

    def run(self, i: int) -> int:
        return cli.run_sweep(self.cfg, self.specs[i % POOL], str(self.out),
                             no_timestamp=True)

    run_in_process = run

    def check(self, i: int, output: int) -> int:
        rows = checks.check_sweep_csv(str(self.out), self.cfg, self.specs[i % POOL],
                                      checks.sample_rng(self.seed, i))
        if rows != output:
            raise checks.CheckFailed(f"run_sweep reported {output} rows, wrote {rows}")
        return rows

    def peak_rss(self) -> int:
        return self_peak_rss_kib()


class VerifyFull:
    """In-process `run_verify("full", digits)`, digits drawn from 50-64.

    Scattered scalar calls through geometry, the Decimal oracle, the
    Cash-Karp integrator and scipy quadrature: layers the sweep never uses.
    """

    name = "verify-full"
    item = "verification checks"
    warmup = 1

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.digits = [rng.randint(50, 64) for _ in range(POOL)]

    def run(self, i: int):
        lines: list[str] = []
        code = cli.run_verify("full", self.digits[i % POOL], echo=lines.append)
        return code, lines

    run_in_process = run

    def check(self, i: int, output) -> int:
        return checks.check_verify(*output)

    def peak_rss(self) -> int:
        return self_peak_rss_kib()


WORKLOADS = {w.name: w for w in (CliCold, SweepGround, VerifyFull)}


@dataclass
class Measurement:
    walls: list[float] = field(default_factory=list)  # timed operations only
    cpus: list[float] = field(default_factory=list)  # CPU seconds of the same
    items: int = 0  # work completed by the timed operations
    attempted: int = 0
    failed: int = 0


def cpu_seconds() -> float:
    """User plus system CPU seconds of this process (all its threads) and of
    the children it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def attempt(wl, i: int, in_process: bool = False, recorder=None):
    """Run operation i, then check its output untimed: (wall time, CPU time,
    items completed, or None when the operation raised or failed its check)."""
    run = wl.run_in_process if in_process else wl.run
    if recorder is not None:
        recorder.begin_op()
    cpu_start = cpu_seconds()
    start = perf_counter()
    try:
        output = run(i)
    except Exception:  # an operation that raises is a failed operation
        output = None
        traceback.print_exc()
    wall = perf_counter() - start
    cpu = cpu_seconds() - cpu_start
    if recorder is not None:
        recorder.end_op()
    try:
        if output is None:
            raise checks.CheckFailed("operation raised")
        return wall, cpu, wl.check(i, output)
    except Exception as exc:  # a malformed output fails the check
        print(f"{wl.name} operation {i}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return wall, cpu, None


def measure(wl, seconds: float) -> Measurement:
    """Closed loop for ``seconds`` of wall time, and at least one timed
    operation after the warm-up ones."""
    m = Measurement()
    deadline = perf_counter() + seconds
    while True:
        wall, cpu, items = attempt(wl, m.attempted)
        if m.attempted >= wl.warmup:
            m.walls.append(wall)
            m.cpus.append(cpu)
            m.items += items or 0
        m.attempted += 1
        m.failed += items is None
        if m.walls and perf_counter() >= deadline:
            return m
