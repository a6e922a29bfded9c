"""The traced run: per-layer metrics from spans recorded around kerr_qlink's
public functions, exact counters, double-double primitive timings and the
import-time profile.

``UNITS`` names each per-layer metric and the end-to-end metric it should
move.  Timings are medians per call in the traced run, so they carry the
wrapper's cost; ``trace.overhead_ratio`` states it.  Counters come from fixed operations (index 0 of the seed's
inputs), never from the timed loop, so they repeat exactly at one seed.
"""

from __future__ import annotations

import contextlib
import random
import statistics
import subprocess
import sys
import timeit
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from kerr_qlink.cli import selfcheck
from kerr_qlink.cli.selfcheck import Check
from kerr_qlink.ddouble import DD

import workloads
from spans import OpCounter, Patches, Recorder, find_defined, self_times

# function defined in kerr_qlink -> span name (one per layer boundary)
TRACED_FUNCTIONS = {
    "metric_at": "geometry.metric_at",
    "photon_tangent": "geometry.photon_tangent",
    "contract": "geometry.contract",
    "shift_ground_to_sat": "shift.closed_form",
    "shift_sat_to_sat": "shift.closed_form",
    "shift_via_contraction": "shift.contraction",
    "find_zero_shift_orbit": "shift.zero_orbit",
    "decompose_ground": "perturb.decompose",
    "decompose_sats": "perturb.decompose",
    "overlap_analytic": "wavepacket.overlap_analytic",
    "overlap_numeric": "wavepacket.overlap_numeric",
    "regime_check": "metrology.regime_check",
    "qfi": "metrology.qfi",
    "shift_uncertainty_floor": "metrology.floor",
    "bound_schwarzschild_radius": "metrology.bound",
    "bound_angular_velocity": "metrology.bound",
    "orders_vs_state_of_the_art": "metrology.orders",
    "qber": "metrology.qber",
    "delta_exact_ground": "oracle.delta_exact",
    "delta_exact_sats": "oracle.delta_exact",
    "integrate_schwarzschild_radial": "oracle.geodesic",
    "extract_series_coefficient": "oracle.series",
    "load_config": "cli.scenario.load_config",
    "assemble_report": "cli.report.assemble",
    "run_report": "cli.report.run_report",
    "run_sweep": "cli.report.run_sweep",
    "run_verify": "cli.selfcheck.run_verify",
}
# (class, method) defined in kerr_qlink -> span name
TRACED_METHODS = {
    ("ScenarioConfig", "link"): "cli.scenario.link",
    ("Report", "render_text"): "cli.report.render_text",
}

# Per-layer metric -> unit, with the end-to-end metric and workload each
# should move.  verify-full is not gated in BENCHMARK.json; what moves it
# also moves cli-cold's `verify full` command, diluted by start-up time.
UNITS = {
    # setup_s on every workload; op_cpu_p50_s on cli-cold
    "import.total_s": "s",
    "import.scipy_s": "s",
    "import.kerr_qlink_self_s": "s",
    # items_per_cpu_s on sweep-ground; op_cpu_p50_s on verify-full
    "ddouble.add_us": "us",
    "ddouble.mul_us": "us",
    "ddouble.div_us": "us",
    "ddouble.sqrt_us": "us",
    "ddouble.ops_per_point": "count",
    # op_cpu_p50_s on verify-full
    "geometry.metric_at_us": "us",
    "geometry.photon_tangent_us": "us",
    "geometry.contract_us": "us",
    # items_per_cpu_s on sweep-ground
    "shift.shift_us": "us",
    "shift.calls_per_point": "count",
    # op_cpu_p50_s on verify-full and cli-cold
    "shift.contraction_us": "us",
    "shift.zero_orbit_us": "us",
    "shift.zero_orbit_evals": "count",
    # items_per_cpu_s on sweep-ground
    "perturb.decompose_self_us": "us",
    "wavepacket.overlap_analytic_us": "us",
    # op_cpu_p50_s on verify-full
    "wavepacket.overlap_numeric_us": "us",
    # items_per_cpu_s on sweep-ground
    "metrology.bounds_us": "us",
    # op_cpu_p50_s on verify-full
    "oracle.delta_exact_us": "us",
    "oracle.geodesic_us": "us",
    "oracle.series_us": "us",
    "oracle.calls_per_op": "count",
    # op_cpu_p50_s on cli-cold
    "cli.scenario.load_config_us": "us",
    "cli.scenario.link_us": "us",
    # items_per_cpu_s on sweep-ground, op_cpu_p50_s on cli-cold
    "cli.report.assemble_self_us": "us",
    "cli.report.render_text_us": "us",
    "cli.report.csv_write_ms": "ms",
    # items_per_cpu_s on sweep-ground: summed assemble_report time over sweep
    # wall time; above 1, the sweep's threads slow each other under the GIL
    "cli.report.busy_over_wall": "ratio",
    # op_cpu_p50_s on verify-full: its two largest checks
    "cli.selfcheck.null_identity_ms": "ms",
    "cli.selfcheck.oracle_cloud_ms": "ms",
    # traced over untraced operation time, same workload
    "trace.overhead_ratio": "ratio",
}

# DD arithmetic counted by ddouble.ops_per_point
DD_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                "__truediv__", "__rtruediv__", "__neg__", "__pow__", "__abs__", "sqrt",
                "sum2", "product", "quotient")

IMPORT_SAMPLES = 3


def install(recorder: Recorder, patches: Patches) -> None:
    for fn_name, span_name in TRACED_FUNCTIONS.items():
        fn = find_defined(fn_name)
        if fn is not None:
            patches.replace_everywhere(fn, recorder.wrap(span_name, fn))
    for (cls_name, method), span_name in TRACED_METHODS.items():
        cls = find_defined(cls_name)
        if cls is not None:
            patches.set(cls, method, recorder.wrap(span_name, vars(cls)[method]))
    # each verification check gets its own span, e.g. cli.selfcheck.null_identity
    patches.set(selfcheck, "CHECKS", tuple(
        Check(c.name, c.level, recorder.wrap(
            "cli.selfcheck." + c.run.__name__.removeprefix("_check_"), c.run))
        for c in selfcheck.CHECKS))
    # report.py writes its CSV and JSON through the builtin open()
    @contextlib.contextmanager
    def traced_open(*args, **kwargs):
        with recorder.span("cli.report.write"), open(*args, **kwargs) as fh:
            yield fh

    patches.set(sys.modules["kerr_qlink.cli.report"], "open", traced_open)


class SpanIndex:
    def __init__(self, spans):
        self.spans = spans
        self.self_time = self_times(spans)
        self.by_id = {s.span_id: s for s in spans}
        self.by_name = defaultdict(list)
        for s in spans:
            self.by_name[s.name].append(s)

    def per_call(self, name: str, own: bool = False, scale: float = 1e6) -> float:
        """Median time per call of span ``name``: total, or self time when
        ``own``; 0 when the span never occurred."""
        spans = self.by_name.get(name)
        if not spans:
            return 0.0
        return scale * statistics.median(
            self.self_time[s.span_id] if own else s.end - s.start for s in spans)

    def count(self, name: str, op_id: int) -> int:
        return sum(1 for s in self.by_name.get(name, ()) if s.op_id == op_id)

    def children_of(self, parent_name: str, child_prefix: str):
        for s in self.spans:
            if s.name.startswith(child_prefix) and s.parent_id is not None \
                    and self.by_id[s.parent_id].name == parent_name:
                yield s


def import_metrics() -> dict[str, float]:
    """``python -X importtime -c "import kerr_qlink.cli"``, median of runs."""
    samples = defaultdict(list)
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import kerr_qlink.cli"],
            env=workloads.child_env(), cwd=workloads.ROOT, capture_output=True,
            text=True, check=True)
        for key, value in parse_importtime(proc.stderr).items():
            samples[key].append(value)
    return {key: statistics.median(values) for key, values in samples.items()}


def parse_importtime(text: str) -> dict[str, float]:
    """import.total_s (all modules' self time), import.scipy_s (scipy subtrees
    not nested in another scipy import) and import.kerr_qlink_self_s."""
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, cum_us, name = line.removeprefix("import time:").split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, int(self_us), int(cum_us), name.strip()))
    total = sum(r[1] for r in rows)
    own = sum(r[1] for r in rows if r[3].split(".")[0] == "kerr_qlink")
    # importtime prints children before their parent; walking backwards
    # meets each parent first, so the stack holds a row's ancestors
    scipy, stack = 0, []
    for depth, _, cum, name in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = name.split(".")[0] == "scipy"
        if is_scipy and not any(anc_scipy for _, anc_scipy in stack):
            scipy += cum
        stack.append((depth, is_scipy))
    return {"import.total_s": total / 1e6, "import.scipy_s": scipy / 1e6,
            "import.kerr_qlink_self_s": own / 1e6}


def dd_primitive_us(seed: int) -> dict[str, float]:
    """Median µs per DD add/mul/div/sqrt on seeded operands."""
    rng = random.Random(seed)
    a = DD.quotient(1.0 + rng.random(), 3.0)
    b = DD.quotient(1.0 + rng.random(), 7.0)
    out = {}
    for name, stmt in (("add", "a + b"), ("mul", "a * b"), ("div", "a / b"),
                       ("sqrt", "a.sqrt()")):
        number = 20000
        runs = timeit.repeat(stmt, globals={"a": a, "b": b}, number=number, repeat=7)
        out[f"ddouble.{name}_us"] = statistics.median(runs) / number * 1e6
    return out


def dd_ops_per_point(seed: int, workdir: Path) -> float:
    """Outermost DD operations per point of the seed's first sweep."""
    sweep = workloads.SweepGround(seed, workdir)
    counter, patches = OpCounter(), Patches()
    for name in DD_OPERATORS:
        attr = vars(DD)[name]
        if isinstance(attr, staticmethod):
            patches.set(DD, name, staticmethod(counter.wrap(attr.__func__)))
        else:
            patches.set(DD, name, counter.wrap(attr))
    try:
        rows = sweep.run(0)
    finally:
        patches.undo()
    return counter.count / rows


def run_traced(name: str, seed: int, seconds: float, workdir: Path,
               spans_path: Path) -> tuple[dict, workloads.Measurement]:
    """Each operation of the workload twice in a row, untraced then traced,
    for half of ``seconds``; then one fixed operation of each workload, traced, for
    the counters.  Returns (per-layer metrics, operations attempted and
    failed)."""
    wl = workloads.WORKLOADS[name](seed, workdir)
    recorder = Recorder()
    walls = {False: [], True: []}
    done = workloads.Measurement()

    def attempt(workload, i, traced):
        patches = Patches()
        if traced:
            install(recorder, patches)
        try:
            wall, _, items = workloads.attempt(workload, i, in_process=True,
                                            recorder=recorder if traced else None)
        finally:
            patches.undo()
        done.attempted += 1
        done.failed += items is None
        return wall

    # untraced and traced runs alternate, so drift in machine speed
    # reaches both sides of trace.overhead_ratio alike
    deadline = perf_counter() + seconds / 2
    i = 0
    while i <= wl.warmup or perf_counter() < deadline:
        for traced in (False, True):
            wall = attempt(wl, i, traced)
            if i >= wl.warmup:
                walls[traced].append(wall)
        i += 1
    probe_ops = {}
    for cls in workloads.WORKLOADS.values():
        probe = cls(seed, workdir)
        n_ops = len(cls.ROTATION) if cls is workloads.CliCold else 1
        for i in range(n_ops):
            attempt(probe, i, traced=True)
            kind = probe.command(i)[0] if cls is workloads.CliCold else cls.name
            probe_ops[kind] = recorder.last_op_id
    recorder.write_csv(str(spans_path))

    idx = SpanIndex(recorder.spans)
    sweep_op, verify_op, zero_op = (probe_ops["sweep-ground"], probe_ops["verify-full"],
                                    probe_ops["zero-orbit"])
    sweep_rows = workloads.SweepGround.POINTS
    zero_spans = [s for s in idx.by_name["shift.zero_orbit"] if s.op_id == zero_op]
    zero_ids = {s.span_id for s in zero_spans}
    assemble_calls = len(idx.by_name["cli.report.assemble"])
    sweep_spans = idx.by_name["cli.report.run_sweep"]
    sweep_op_ids = {s.op_id for s in sweep_spans}
    busy = sum(s.end - s.start for s in idx.by_name["cli.report.assemble"]
               if s.op_id in sweep_op_ids)
    csv_writes = list(idx.children_of("cli.report.run_sweep", "cli.report.write"))

    metrics = {}
    metrics.update(import_metrics())
    metrics.update(dd_primitive_us(seed))
    metrics.update({
        "ddouble.ops_per_point": dd_ops_per_point(seed, workdir),
        "geometry.metric_at_us": idx.per_call("geometry.metric_at"),
        "geometry.photon_tangent_us": idx.per_call("geometry.photon_tangent"),
        "geometry.contract_us": idx.per_call("geometry.contract"),
        "shift.shift_us": idx.per_call("shift.closed_form", own=True),
        "shift.calls_per_point": idx.count("shift.closed_form", sweep_op) / sweep_rows,
        "shift.contraction_us": idx.per_call("shift.contraction"),
        "shift.zero_orbit_us": idx.per_call("shift.zero_orbit"),
        "shift.zero_orbit_evals": sum(1 for s in idx.by_name["shift.closed_form"]
                                      if s.parent_id in zero_ids) / len(zero_spans),
        "perturb.decompose_self_us": idx.per_call("perturb.decompose", own=True),
        "wavepacket.overlap_analytic_us": idx.per_call("wavepacket.overlap_analytic"),
        "wavepacket.overlap_numeric_us": idx.per_call("wavepacket.overlap_numeric"),
        "metrology.bounds_us": 1e6 * sum(
            s.end - s.start for s in idx.children_of("cli.report.assemble", "metrology."))
        / assemble_calls,
        "oracle.delta_exact_us": idx.per_call("oracle.delta_exact"),
        "oracle.geodesic_us": idx.per_call("oracle.geodesic"),
        "oracle.series_us": idx.per_call("oracle.series"),
        "oracle.calls_per_op": sum(idx.count(n, verify_op) for n in (
            "oracle.delta_exact", "oracle.geodesic", "oracle.series")),
        "cli.scenario.load_config_us": idx.per_call("cli.scenario.load_config"),
        "cli.scenario.link_us": idx.per_call("cli.scenario.link"),
        "cli.report.assemble_self_us": idx.per_call("cli.report.assemble", own=True),
        "cli.report.render_text_us": idx.per_call("cli.report.render_text"),
        "cli.report.csv_write_ms": 1e3 * statistics.median(
            s.end - s.start for s in csv_writes),
        "cli.report.busy_over_wall": busy / sum(s.end - s.start for s in sweep_spans),
        "cli.selfcheck.null_identity_ms": idx.per_call(
            "cli.selfcheck.null_identity", scale=1e3),
        "cli.selfcheck.oracle_cloud_ms": idx.per_call(
            "cli.selfcheck.oracle_cloud", scale=1e3),
        "trace.overhead_ratio": statistics.median(walls[True])
        / statistics.median(walls[False]),
    })
    return metrics, done
