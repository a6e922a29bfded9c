"""kerr-qlink benchmark.

    python3 perfbench/run.py --workload sweep-ground --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Workloads (``--workload all`` runs each in turn):

* ``cli-cold``: one ``kerr-qlink`` command per fresh interpreter;
* ``sweep-ground``: in-process 2000-point ``run_sweep`` on the earth-leo link;
* ``verify-full``: in-process ``run_verify("full", digits)``.

BENCHMARK.json gates the first two; verify-full runs on request, and one of
its operations runs traced in every traced run.

``--trace 0`` measures the end-to-end metrics with tracing off.  Their times
are CPU seconds (see workloads.py for why); the wall-clock figures are
printed beside them but not gated.
``--trace 1`` is the traced run: half the time untraced, half with spans
recorded around each layer, and reports the per-layer metrics (the spans
are written to ``.perfbench-spans.csv``).  Every operation's output is
checked; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter, process_time

import stats

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 5
WORKLOAD_NAMES = ("cli-cold", "sweep-ground", "verify-full")

END_TO_END_UNITS = {"setup_s": "s", "op_cpu_p50_s": "s", "items_per_cpu_s": "1/s",
                    "peak_rss_mb": "MB"}


def work_dir():
    return tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT)


def setup_sample(name: str, seed: int) -> tuple[float, float]:
    """(CPU seconds, wall seconds) of a fresh interpreter from its start until
    it has imported the program and built this workload's inputs; it prints
    its own CPU time then."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__)), "--setup-only", "--workload", name,
         "--seed", str(seed)], stdout=subprocess.PIPE, cwd=ROOT)
    line = proc.stdout.readline()
    elapsed = perf_counter() - start
    proc.stdout.close()
    word, _, cpu = line.decode().partition(" ")
    if proc.wait() != 0 or word != "ready":
        raise RuntimeError(f"setup of {name} failed")
    return float(cpu), elapsed


def end_to_end(name: str, seed: int, seconds: float):
    import workloads

    setups = [setup_sample(name, seed) for _ in range(SETUP_SAMPLES)]
    setup_cpu = [cpu for cpu, _ in setups]
    setup_wall = [wall for _, wall in setups]
    with work_dir() as tmp:
        wl = workloads.WORKLOADS[name](seed, Path(tmp))
        m = workloads.measure(wl, seconds)
        rss_mb = wl.peak_rss() / 1024
    metrics = {
        "setup_s": statistics.median(setup_cpu),
        "op_cpu_p50_s": statistics.median(m.cpus),
        "items_per_cpu_s": m.items / sum(m.cpus),
        "peak_rss_mb": rss_mb,
    }
    n = len(m.walls)
    lines = [
        f"  setup_s          {metrics['setup_s']:.4f} s CPU, median of {len(setups)} "
        f"fresh interpreters (wall {statistics.median(setup_wall):.4f} s)",
        f"  op_cpu_p50_s     {metrics['op_cpu_p50_s']:.4f} s CPU, median of {n} operations",
        percentile_line("op_cpu_p90_s", m.cpus, "s CPU"),
        f"  items_per_cpu_s  {metrics['items_per_cpu_s']:.2f} 1/s  {m.items} {wl.item} in "
        f"{sum(m.cpus):.2f} CPU s of {n} operations",
        f"  op_wall_p50_s    {statistics.median(m.walls):.4f} s wall, not gated",
        percentile_line("op_wall_p90_s", m.walls, "s wall, not gated"),
        f"  items_per_wall_s {m.items / sum(m.walls):.2f} 1/s wall, not gated",
        f"  peak_rss_mb      {rss_mb:.2f} MB",
        f"  failed_ratio     {m.failed}/{m.attempted} = {m.failed / m.attempted:g}",
    ]
    return metrics, {key: END_TO_END_UNITS[key] for key in metrics}, m, lines


def percentile_line(label: str, samples: list[float], unit: str) -> str:
    p90 = stats.percentile_if_supported(samples, 0.9)
    if p90 is None:
        return (f"  {label:<16} omitted: {len(samples)} operations leave fewer than "
                f"{stats.MIN_SAMPLES_BEYOND} beyond the 90th percentile")
    return f"  {label:<16} {p90:.4f} {unit}, of {len(samples)} operations"


def traced(name: str, seed: int, seconds: float):
    import layers

    with work_dir() as tmp:
        metrics, m = layers.run_traced(name, seed, seconds, Path(tmp),
                                       ROOT / ".perfbench-spans.csv")
    units = {key: layers.UNITS[key] for key in metrics}
    lines = [f"  {key:<32} {value:.6g} {units[key]}" for key, value in metrics.items()]
    return metrics, units, m, lines


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    metrics, units, m, lines = (traced if trace else end_to_end)(name, seed, seconds)
    mode = "traced, per-layer" if trace else "end-to-end"
    print(f"{name} (seed {seed}, {seconds:g} s, {mode}):")
    print("\n".join(lines), flush=True)
    return {"correct": m.failed == 0, "attempted": m.attempted, "failed": m.failed,
            "metrics": {key: {"value": value, "unit": units[key]}
                        for key, value in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kerr_qlink" / "__init__.py").is_file():
        print(f"no kerr_qlink sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # the program's default sweep thread count, whatever the caller's shell says
    os.environ.pop("KERR_QLINK_THREADS", None)

    if args.setup_only:
        import workloads
        with work_dir() as tmp:
            workloads.WORKLOADS[args.workload](args.seed, Path(tmp))
            print("ready", repr(process_time()), flush=True)
        return 0

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {name: run_one(name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
