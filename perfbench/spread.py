"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --seeds 10 [--workload sweep-ground] [--out runs.jsonl]

Runs the benchmark once per seed (1..N) on each workload, untraced, for the
run length in BENCHMARK.json, and prints for each metric the median of the
runs and the distance between their first and third quartile as a share of
the median.  A spread at or above a third of the metric's bound is flagged:
the benchmark is steady when no metric but setup_s is flagged.  ``--out``
appends every run's result as one JSON line (baseline.py reads it).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

from stats import relative_spread

ROOT = Path(__file__).resolve().parent.parent


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(records: list[dict], bench: dict) -> list[str]:
    values = defaultdict(list)
    failed = defaultdict(int)
    for rec in records:
        result = rec["result"]
        failed[rec["workload"]] += result["failed"]
        for name, metric in result["metrics"].items():
            values[rec["workload"], name].append(metric["value"])
    lines = [f"{'workload':<14} {'metric':<12} {'runs':>4} {'median':>12} "
             f"{'spread':>8} {'bound':>6}"]
    for metric in bench["end_to_end"]:
        for wl in bench["workloads"]:
            vals = values.get((wl["name"], metric["name"]))
            if not vals or len(vals) < 2:
                continue
            spread = relative_spread(vals)
            flag = "  <-- spread >= bound/3" if spread >= metric["bound"] / 3 else ""
            lines.append(f"{wl['name']:<14} {metric['name']:<12} {len(vals):>4} "
                         f"{statistics.median(vals):>12.6g} {spread:>8.4f} "
                         f"{metric['bound']:>6}{flag}")
    lines.append("failed operations: " + ", ".join(f"{k} {v}" for k, v in failed.items()))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--out", help="append each run's result to this JSON-lines file")
    args = parser.parse_args(argv)
    bench = load_benchmark()

    records = []
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        for seed in range(1, args.seeds + 1):
            rec = {"workload": workload, "seed": seed,
                   "result": run_once(workload, seed, bench["run_seconds"])}
            records.append(rec)
            print(json.dumps(rec), flush=True)
            if args.out:
                with open(args.out, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(rec) + "\n")
    print("\n".join(summarise(records, bench)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
