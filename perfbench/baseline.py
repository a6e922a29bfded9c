"""Record the machine, the provenance and the first baseline of the
benchmark in perfbench/baseline.json.

    python3 perfbench/baseline.py --runs runs.jsonl

``--runs`` is the JSON-lines output of ``spread.py --out``; the median and
quartiles of its runs become the end-to-end baseline.  The script also
times the rows of the ROADMAP's hand-measured table that the benchmark
covers (bare interpreter, ``import kerr_qlink.cli``, a cold ``report``, a
2000-point sweep at 1 thread and at the default thread count, in-process
``verify full``) and records one traced run per workload at seed 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402
from kerr_qlink import cli  # noqa: E402
from stats import relative_spread  # noqa: E402


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "platform": platform.platform()}


def git(*args: str):
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def child(*code: str):
    return lambda: subprocess.run([sys.executable, *code], env=workloads.child_env(),
                                  cwd=ROOT, stdout=subprocess.DEVNULL, check=False)


def median_walls(jobs: dict, samples: int) -> dict:
    """Median wall time of each job; the jobs take turns, so drift in
    machine speed reaches them alike."""
    walls = defaultdict(list)
    for _ in range(samples):
        for name, job in jobs.items():
            start = perf_counter()
            job()
            walls[name].append(perf_counter() - start)
    return {name: {"median_s": statistics.median(w), "samples": samples}
            for name, w in walls.items()}


def roadmap_rows() -> dict:
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        sweep = workloads.SweepGround(1, Path(tmp))
        out = str(Path(tmp) / "sweep.csv")
        spec = sweep.specs[0]
        rows = median_walls({
            "bare interpreter (python -c pass)": child("-c", "pass"),
            "import kerr_qlink.cli": child("-c", "import kerr_qlink.cli"),
            "kerr-qlink report --preset earth-leo (wall)": child(
                "-c", workloads.CONSOLE_SCRIPT, "report", "--preset", "earth-leo"),
            "2000-point r_B sweep, 1 thread": lambda: cli.run_sweep(
                sweep.cfg, spec, out, no_timestamp=True, threads=1),
            "2000-point r_B sweep, default threads": lambda: cli.run_sweep(
                sweep.cfg, spec, out, no_timestamp=True),
        }, 7)
        rows.update(median_walls({"verify full (in-process)": lambda: cli.run_verify(
            "full", 50, echo=lambda line: None)}, 21))
        return rows


def end_to_end(records: list[dict]) -> dict:
    values = defaultdict(lambda: defaultdict(list))
    units = {}
    for rec in records:
        for name, metric in rec["result"]["metrics"].items():
            values[rec["workload"]][name].append(metric["value"])
            units[name] = metric["unit"]
    out = {}
    for wl, metrics in values.items():
        out[wl] = {}
        for name, vals in metrics.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            out[wl][name] = {"median": median, "q1": q1, "q3": q3,
                             "spread": relative_spread(vals), "unit": units[name],
                             "runs": len(vals)}
    return out


def traced(seconds: int) -> dict:
    out = {}
    for wl in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", "1",
             "--seconds", str(seconds), "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        out[wl] = {name: m["value"] for name, m in result["metrics"].items()}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", required=True,
                        help="JSON lines written by spread.py --out")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs = Path(args.runs).read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in runs if line.strip()]
    baseline = {
        "machine": machine(),
        "provenance": {
            "commit": git("rev-parse", "HEAD"),
            "src_tree": git("rev-parse", "HEAD:src"),
            "recorded": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
            "run_seconds": bench["run_seconds"],
            "end_to_end_seeds": sorted({rec["seed"] for rec in records}),
            "per_layer_seed": 1,
        },
        "roadmap_rows": roadmap_rows(),
        "end_to_end": end_to_end(records),
        "per_layer": traced(bench["run_seconds"]),
    }
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=2) + "\n",
                                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
