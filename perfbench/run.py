#!/usr/bin/env python3
"""evsl benchmark: run one workload against the checkout's ``src/evsl``.

Usage, from the repository root:

    python3 perfbench/run.py --workload guided_motion --seed 0 --seconds 15 --trace 0

One client runs a closed loop: each operation (one pipeline call) starts when
the previous one has finished, on the main thread; only ``parallel_guided``
adds the harness's own 2-worker pool. The seed goes into ``Scenario.seed``.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` alternates untraced and traced operations and reports the
per-layer metrics; spans are kept in memory and written at the end to
``.perfbench/trace-<workload>-seed<seed>.jsonl``. Every operation is checked
(see ``check_op``); the last line on stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Operation times are in
reference seconds (see ``Yardstick``); set-up times are host seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"
WORK_DIR = ROOT / ".perfbench"
DUMP_DIR = WORK_DIR / "dump"
SPEC = ROOT / "BENCHMARK.json"
REFERENCE = HERE / "reference.json"

SETUP_REPEATS = 5
DUMP_KINDS = ("events", "masks", "depth", "ply")
LAYERS = ("scene", "policy", "events", "projector", "depth", "formats")

# Fresh interpreter, as a CLI user pays it on every call. Prints import and load seconds.
_SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import evsl
t1 = time.perf_counter()
evsl.load_scenario(sys.argv[1])
t2 = time.perf_counter()
print(t1 - t0, t2 - t1)
"""


def _src_env() -> dict[str, str]:
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


class Yardstick:
    """Fixed numpy work, timed after every operation.

    The shared 2-core host the benchmark was built on changes speed by 20-30 %
    over minutes, and process CPU time slows with wall time, so the cause is
    the hardware, not descheduling. Operation times are reported in reference
    seconds: host seconds x ``speed()``, where ``speed()`` is REFERENCE_S over
    the median time of this yardstick within the run. On that host, scaling
    halved the spread of medians over windows of ten operations. The
    yardstick does frame-sized numpy work like the pipeline's (elementwise
    math, nonzero, a sort) and holds a few MB, so it barely moves peak_rss_mb.
    It does not track interpreter start-up, so set-up times stay in host
    seconds.
    """

    REFERENCE_S = 0.03  # the yardstick's usual median on that host
    EVERY_S = 0.5  # samples per operation grow with its length

    def __init__(self) -> None:
        self.frame = np.random.default_rng(0).random((480, 640))
        self.samples: list[float] = []

    def __call__(self) -> None:
        start = time.perf_counter()
        for _ in range(4):
            logs = np.log(self.frame + 1.0)
            np.nonzero(np.floor(np.abs(logs) / 0.03) > 10)
            np.sort(logs, axis=None)
        self.samples.append(time.perf_counter() - start)

    def follow(self, op_seconds: float) -> None:
        for _ in range(max(1, math.ceil(op_seconds / self.EVERY_S))):
            self()

    def speed(self) -> float:
        return self.REFERENCE_S / statistics.median(self.samples)


def measure_setup(scenario_path: Path) -> tuple[list[float], list[float]]:
    """Import and load host seconds of SETUP_REPEATS fresh interpreters.

    One extra interpreter runs first and is discarded: it writes the bytecode
    cache of a fresh checkout, which a returning CLI user already has.
    """
    imports, loads = [], []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(scenario_path)],
            cwd=ROOT, env=_src_env(), capture_output=True, text=True, check=True, timeout=120,
        )
        if i:
            import_s, load_s = map(float, out.stdout.split())
            imports.append(import_s)
            loads.append(load_s)
    return imports, loads


# --------------------------------------------------------------------------
# Probe: wrappers on the attributes of evsl.harness
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Span:
    layer: str
    name: str
    start: float
    end: float
    op: int
    thread: int


class Probe:
    """Checks every operation and, while ``tracing`` is set, times each layer call.

    evsl.harness binds its callees with ``from .x import name``, so the
    wrappers replace attributes of evsl.harness; patching the defining modules
    would time nothing. Records are appended to lists (atomic under the GIL),
    so calls from the harness's worker threads need no lock.
    """

    def __init__(self) -> None:
        self.tracing = False
        self.op = -1
        self.spans: list[Span] = []
        self.counts: list[tuple[int, str, float]] = []
        self.checked: list[tuple[str, Any]] = []

    def wrap(self, fn: Callable, layer: str | None, name: str | None,
             count: Callable | None = None, check: Callable | None = None) -> Callable:
        def wrapper(*args, **kwargs):
            op = self.op
            if self.tracing and layer is not None:
                start = time.perf_counter()
                result = fn(*args, **kwargs)
                self.spans.append(Span(layer, name, start, time.perf_counter(), op, threading.get_ident()))
                if count is not None:
                    self.counts.extend((op, k, v) for k, v in count(args, result).items())
            else:
                result = fn(*args, **kwargs)
            if check is not None:
                self.checked.append(check(args, result))
            return result

        return wrapper

    def pool_class(self, base: type) -> type:
        """``base`` with its ``with`` block recorded as the main thread waiting on the pool."""
        probe = self

        class TracedPool(base):
            def __enter__(self):
                self._probe_start = time.perf_counter()
                return super().__enter__()

            def __exit__(self, *exc):
                result = super().__exit__(*exc)
                if probe.tracing:
                    probe.spans.append(Span("harness", "harness.pool_wait_s", self._probe_start,
                                            time.perf_counter(), probe.op, threading.get_ident()))
                return result

        return TracedPool


def _guide_counts(args, stream) -> dict[str, float]:
    script, camera, (t0, t1) = args[0], args[1], args[2]
    w, h = script.resolution
    steps = math.ceil((t1 - t0) / (1e6 / camera.render_rate_hz))  # as scene._render_times
    return {"scene.guide_calls": 1, "scene.guide_events": len(stream), "scene.pixel_steps": w * h * steps}


def _reflect_counts(args, result) -> dict[str, float]:
    tally = result[1]
    return {f"projector.{k}": tally[k] for k in ("fired", "emitted", "dropped", "out_of_frame")}


def _decode_counts(args, result) -> dict[str, float]:
    tally = result[1]
    w, h = args[0].resolution
    return {"depth.valid": tally["valid"], "depth.occupied": w * h - tally["no_event"],
            "depth.row_mismatch": tally["row_mismatch"]}


# (attribute of evsl.harness, layer, span name, counter, checker)
HARNESS_HOOKS = (
    ("generate_guide_events", "scene", "scene.guide_s", _guide_counts, None),
    ("render_scene", "scene", "scene.render_s", None, None),
    ("active_pixel_fraction", "policy", "policy.active_s", None, None),
    ("median_filter_frame", "policy", "policy.median_s", None, None),
    ("detect_roi", "policy", "policy.roi_s", lambda a, r: {"policy.rois": len(r)}, None),
    ("build_mask", "policy", "policy.build_mask_s", None, None),
    ("make_event_frame", "events", "events.frame_s", None, None),
    ("make_time_surface", "events", "events.surface_s", None, None),
    ("build_scan_plan", "projector", "projector.plan_s", None, None),
    ("simulate_reflection_events", "projector", "projector.reflect_s", _reflect_counts,
     lambda a, r: ("reflect", r[1])),
    ("reconstruct_depth", "depth", "depth.reconstruct_s", _decode_counts,
     lambda a, r: ("decode", (r[1], a[0].resolution))),
    ("depth_to_points", "depth", "depth.points_s", None, None),
    ("fit_plane", "depth", "depth.fit_s", None, None),
    ("write_event_stream", "formats", "formats.write_events_s", None, None),
    ("write_pbm", "formats", "formats.write_image_s", None, None),
    ("write_depth_pgm", "formats", "formats.write_image_s", None, None),
    ("write_ply", "formats", "formats.write_ply_s", None, None),
    ("write_csv", "formats", "formats.write_csv_s", None, None),
    ("run_scenario", None, None, None, lambda a, r: ("reports", r)),
)


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------

PERIOD_FIELDS = ("period", "active_pixel_fraction", "mask_fraction", "guide_event_rate",
                 "reflection_event_rate", "valid_depth_pixels", "plane_rms_m", "power_proxy", "error")
COMPARE_FIELDS = ("policy", "mean_mask_fraction", "mean_reflection_rate_ev_s", "mean_plane_rms_m",
                  "mean_valid_depth_pixels", "power_reduction_vs_dense_pct")


def _cell(value) -> str:
    # The precision of evsl's CSV output: a digest over these cells is a digest of output bytes.
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def _digest_rows(rows):
    h = hashlib.sha256()
    for row in rows:
        h.update((",".join(_cell(v) for v in row) + "\n").encode())
    return h


def _report_rows(reports):
    return ([getattr(r, f) for f in PERIOD_FIELDS] for r in reports)


def _sim_from_reports(reports) -> dict[str, float | None]:
    """Simulated metrics, skipping period 0 (the event-guided fallback) like compare_sampling."""
    steady = reports[1:] if len(reports) > 1 else reports
    rms = [r.plane_rms_m for r in steady if r.plane_rms_m is not None]
    return {
        "sim.power_proxy": statistics.fmean(r.power_proxy for r in steady),
        "sim.valid_depth_px": statistics.fmean(r.valid_depth_pixels for r in steady),
        "sim.plane_rms_mm": 1000.0 * statistics.fmean(rms) if rms else None,
    }


class Runner:
    """The evsl modules a workload calls, with the probe's wrappers installed."""

    def __init__(self, probe: Probe) -> None:
        sys.path.insert(0, str(SRC))
        import evsl
        import evsl.formats
        import evsl.harness

        if Path(evsl.__file__).resolve().parent != (SRC / "evsl").resolve():
            raise RuntimeError(f"imported evsl from {evsl.__file__}, not from {SRC}")
        self.harness = evsl.harness
        self.probe = probe
        for attr, layer, name, count, check in HARNESS_HOOKS:
            setattr(evsl.harness, attr, probe.wrap(getattr(evsl.harness, attr), layer, name, count, check))
        evsl.harness.ThreadPoolExecutor = probe.pool_class(evsl.harness.ThreadPoolExecutor)
        self.read_event_stream = probe.wrap(
            evsl.formats.read_event_stream, "formats", "formats.read_events_s",
            lambda a, r: {"formats.bytes_read": os.path.getsize(a[0])})

    def load(self, scenario_file: str, seed: int):
        return replace(self.harness.load_scenario(SCENARIOS / scenario_file), seed=seed)


@dataclass(frozen=True)
class Workload:
    scenario_file: str
    op: Callable            # (runner, scenario) -> result
    digest: Callable        # result -> hex digest of its deterministic outputs
    sim: Callable           # result -> simulated metrics
    periods: Callable       # scenario -> scan periods simulated per operation
    reference_op: Callable | None = None   # op whose digest the result must equal, if not op itself
    check: Callable | None = None          # (result, reflect tallies) -> failure messages


def _run_serial(runner: Runner, s):
    return runner.harness.run_scenario(s)


def _run_parallel(runner: Runner, s):
    return runner.harness.run_scenario(s, parallel=True)


def _compare(runner: Runner, s):
    return runner.harness.compare_sampling(s)


def _dump_readback(runner: Runner, s):
    reports = runner.harness.run_scenario(s, dump=DUMP_KINDS, out_dir=DUMP_DIR)
    streams = {}
    for path in sorted(DUMP_DIR.glob("*.txt")):
        resolution = s.script.resolution if path.name.startswith("guide_") else s.geometry.cam_resolution
        streams[path.name] = runner.read_event_stream(path, resolution)
    return reports, streams


def _digest_reports(reports) -> str:
    return _digest_rows(_report_rows(reports)).hexdigest()


def _digest_compare(rows) -> str:
    return _digest_rows([row[f] for f in COMPARE_FIELDS] for row in rows).hexdigest()


def _digest_dump(result) -> str:
    """Period rows, every dumped file but periods.csv, and the streams read back.

    periods.csv renders the period rows already digested; leaving its bytes
    out lets its header gain columns without failing every operation.
    """
    reports, streams = result
    h = _digest_rows(_report_rows(reports))
    for path in sorted(DUMP_DIR.iterdir()):
        if path.name != "periods.csv":
            h.update(path.name.encode())
            h.update(path.read_bytes())
    for name, stream in streams.items():
        h.update(name.encode())
        for column in (stream.t, stream.x, stream.y, stream.p):
            h.update(column.tobytes())
    return h.hexdigest()


def _compare_sim(rows) -> dict[str, float | None]:
    guided = next(r for r in rows if r["policy"] == "event_guided")
    rms = guided["mean_plane_rms_m"]
    return {
        "sim.power_proxy": guided["mean_mask_fraction"],
        "sim.valid_depth_px": guided["mean_valid_depth_pixels"],
        "sim.plane_rms_mm": None if rms is None else 1000.0 * rms,
    }


def _check_readback(result, reflect_tallies) -> list[str]:
    _, streams = result
    reflect = [len(st) for name, st in streams.items() if name.startswith("reflect_")]
    emitted = [t["emitted"] for t in reflect_tallies]
    return [] if reflect == emitted else [f"read back {reflect} reflection events, emitted {emitted}"]


WORKLOADS = {
    "guided_motion": Workload("moving_object.yaml", _run_serial, _digest_reports, _sim_from_reports,
                              lambda s: s.periods),
    "policy_compare": Workload("plane_compare.yaml", _compare, _digest_compare, _compare_sim,
                               lambda s: 3 * s.periods),
    "dump_readback": Workload("moving_object.yaml", _dump_readback, _digest_dump,
                              lambda r: _sim_from_reports(r[0]), lambda s: s.periods,
                              check=_check_readback),
    "parallel_guided": Workload("plane_compare.yaml", _run_parallel, _digest_reports, _sim_from_reports,
                                lambda s: s.periods, reference_op=_run_serial),
}


def load_reference() -> dict[str, dict[str, str]]:
    return json.loads(REFERENCE.read_text())["digests"] if REFERENCE.exists() else {}


# --------------------------------------------------------------------------
# Measurement
# --------------------------------------------------------------------------

def check_op(records, result, workload: Workload, expected: str | None) -> tuple[list[str], str]:
    """Failure messages for one operation, and its digest.

    An operation fails if a PeriodReport carries an error, a conservation
    identity breaks, a workload-specific check fails, or the digest differs
    from the expected one.
    """
    failures = []
    reflect = []
    for kind, value in records:
        if kind == "reports":
            failures += [f"period {r.period}: {r.error}" for r in value if r.error is not None]
        elif kind == "reflect":
            reflect.append(value)
            if value["fired"] != value["emitted"] + value["dropped"] + value["out_of_frame"] + value["invalid_depth"]:
                failures.append(f"firing tally does not add up: {value}")
        elif kind == "decode":
            tally, (w, h) = value
            if tally["no_event"] + tally["row_mismatch"] + tally["nonpositive_disparity"] + tally["valid"] != w * h:
                failures.append(f"decode tally does not add up to {w}x{h}: {tally}")
    if workload.check is not None:
        failures += workload.check(result, reflect)
    digest = workload.digest(result)
    if expected is not None and digest != expected:
        failures.append(f"output digest {digest[:12]} differs from {expected[:12]}")
    return failures, digest


class Bench:
    """One workload at one seed: runs operations and keeps their timings and failures."""

    def __init__(self, runner: Runner, name: str, seed: int) -> None:
        self.runner = runner
        self.probe = runner.probe
        self.name = name
        self.workload = WORKLOADS[name]
        self.scenario = runner.load(self.workload.scenario_file, seed)
        self.expected = load_reference().get(name, {}).get(str(seed))
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.sim: dict[str, float | None] | None = None
        self.op_windows: dict[int, tuple[float, float]] = {}

    def call(self, op: Callable, index: int, traced: bool):
        probe = self.probe
        shutil.rmtree(DUMP_DIR, ignore_errors=True)
        DUMP_DIR.mkdir(parents=True)
        probe.checked.clear()
        probe.op, probe.tracing = index, traced
        start = time.perf_counter()
        try:
            result = op(self.runner, self.scenario)
        finally:
            end = time.perf_counter()
            probe.tracing = False
        return result, start, end

    def reference_digest(self) -> str:
        """Digest of the reference operation, for a seed with no recorded reference."""
        op = self.workload.reference_op or self.workload.op
        result, _, _ = self.call(op, -1, False)
        return self.workload.digest(result)

    def operation(self, index: int, traced: bool) -> float | None:
        """Run, time and check one operation; its seconds, or None if it failed."""
        self.attempted += 1
        try:
            result, start, end = self.call(self.workload.op, index, traced)
        except Exception as exc:  # an operation that raises counts as failed
            self.failed += 1
            self.failures.append(f"op {index}: {type(exc).__name__}: {exc}")
            return None
        failures, digest = check_op(self.probe.checked, result, self.workload, self.expected)
        if self.expected is None:
            self.expected = digest
        sim = self.workload.sim(result)
        if self.sim is None:
            self.sim = sim
        elif sim != self.sim:
            failures.append(f"simulated metrics changed between operations: {sim} != {self.sim}")
        if traced:
            written = sum(p.stat().st_size for p in DUMP_DIR.iterdir())
            self.probe.counts.append((index, "formats.bytes_written", written))
        if failures:
            self.failed += 1
            self.failures += [f"op {index}: {f}" for f in failures]
            return None
        self.op_windows[index] = (start, end)
        return end - start

    def run(self, seconds: float, trace: bool, yardstick: Yardstick) -> tuple[list[float], list[float]]:
        """Warm up, then run operations for ``seconds``; untraced and traced host seconds.

        With ``trace`` every second operation is traced, so both kinds see
        the same machine state; at least one of each runs.
        """
        if self.expected is None and self.workload.reference_op is not None:
            self.expected = self.reference_digest()
        # Warm-up on a two-period copy: first-call costs without a full-length operation.
        warm = replace(self.scenario, periods=min(2, self.scenario.periods))
        self.workload.op(self.runner, warm)
        plain, traced = [], []
        start = time.perf_counter()
        index, seconds_taken = 1, 0.0
        while True:
            enough = plain and (traced or not trace)
            # Past the deadline, run on only to get a missing kind of sample, and never after a failure.
            if time.perf_counter() - start >= seconds and (enough or seconds_taken is None):
                break
            is_traced = trace and index % 2 == 0
            seconds_taken = self.operation(index, is_traced)
            yardstick.follow(seconds_taken or 0.0)
            if seconds_taken is not None:
                (traced if is_traced else plain).append(seconds_taken)
            index += 1
        shutil.rmtree(DUMP_DIR, ignore_errors=True)
        return plain, traced


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(bench: Bench, main_thread: int, speed: float) -> dict[str, float]:
    """Per-layer metrics of each traced operation, then their medians; times in reference seconds."""
    per_op = defaultdict(lambda: defaultdict(float))
    for span in bench.probe.spans:
        if span.op in bench.op_windows:
            per_op[span.op][span.name] += span.end - span.start
    for op, key, value in bench.probe.counts:
        if op in bench.op_windows:
            per_op[op][key] += value

    values = defaultdict(list)
    for op, m in per_op.items():
        start, end = bench.op_windows[op]
        wall = end - start
        spans = [s for s in bench.probe.spans if s.op == op]
        self_s = wall - _covered((s.start, s.end) for s in spans if s.thread == main_thread)
        busy = defaultdict(float)
        for s in spans:
            busy[s.layer] += s.end - s.start
        m["harness.self_s"] = self_s
        m["harness.share"] = self_s / wall
        m["harness.concurrency"] = (sum(v for k, v in busy.items() if k != "harness") + self_s) / wall
        for layer in LAYERS:
            m[f"{layer}.share"] = busy[layer] / wall
        m["scene.guide_yield"] = m["scene.guide_events"] / m["scene.pixel_steps"] if m["scene.pixel_steps"] else 0.0
        m["projector.emit_ratio"] = m["projector.emitted"] / m["projector.fired"] if m["projector.fired"] else 0.0
        m["depth.decode_yield"] = m["depth.valid"] / m["depth.occupied"] if m["depth.occupied"] else 0.0
        for key, value in m.items():
            values[key].append(value)
    return {key: statistics.median(v) * (speed if key.endswith("_s") else 1.0) for key, v in values.items()}


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its value.

    With 20 samples or fewer no percentile above the median qualifies, and
    the median is reported.
    """
    n = len(samples)
    q = max(50.0, 100.0 * (1.0 - 10.0 / n))
    ordered = sorted(samples)
    pos = (n - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return q, ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def write_trace(bench: Bench, seed: int) -> Path:
    path = WORK_DIR / f"trace-{bench.name}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for op, (start, end) in sorted(bench.op_windows.items()):
            fh.write(json.dumps({"name": "operation", "layer": "harness", "start": start, "end": end,
                                 "op": op, "thread": threading.main_thread().ident}) + "\n")
        for s in bench.probe.spans:
            fh.write(json.dumps(s.__dict__) + "\n")
        for op, key, value in bench.probe.counts:
            fh.write(json.dumps({"count": key, "value": value, "op": op}) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    scenario_path = SCENARIOS / workload.scenario_file
    for needed in (SPEC, SRC / "evsl" / "__init__.py", scenario_path):
        if not needed.exists():
            print(f"run.py: {needed} not found; run from a full evsl checkout", file=sys.stderr)
            return 2
    spec = json.loads(SPEC.read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    import_s, load_s = measure_setup(scenario_path)
    setup_s = [a + b for a, b in zip(import_s, load_s)]

    WORK_DIR.mkdir(exist_ok=True)
    bench = Bench(Runner(Probe()), args.workload, args.seed)
    yardstick = Yardstick()
    plain, traced = bench.run(args.seconds, bool(args.trace), yardstick)
    speed = yardstick.speed()
    failed = bench.failed
    for failure in bench.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    if not plain or (args.trace and not traced):
        print("run.py: no operation succeeded", file=sys.stderr)
        return 1

    p50 = statistics.median(plain)
    q, tail_s = tail(plain)
    metrics: dict[str, float | None] = {
        "setup_s": statistics.median(setup_s),
        "run_s_p50": p50 * speed,
        "run_s_tail": tail_s * speed,
        "periods_per_s": workload.periods(bench.scenario) / (p50 * speed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error_rate": failed / bench.attempted,
        **bench.sim,
    }
    notes = [f"seed {args.seed}: {len(plain)} untraced operations, run_s_tail is p{q:.0f} of {len(plain)}",
             f"host speed {speed:.4f} (reference s = host s x speed), host run_s_p50 {p50:.6g} s"]
    if args.trace:
        metrics = layer_metrics(bench, threading.main_thread().ident, speed)
        metrics["cli.import_s"] = statistics.median(import_s)
        metrics["cli.load_s"] = statistics.median(load_s)
        metrics["trace.run_s_p50"] = statistics.median(traced) * speed
        metrics["trace.overhead"] = statistics.median(traced) / p50
        metrics["host.speed"] = speed
        notes.append(f"{len(traced)} traced operations, spans in {write_trace(bench, args.seed).relative_to(ROOT)}")

    # Shown but not declared: error_rate is 0 at baseline (the JSON line carries
    # failed/attempted), and the moving_object workloads fit no plane.
    shown = [(m["name"], m["unit"]) for m in declared]
    if not args.trace:
        shown += [("error_rate", "ratio"), ("sim.plane_rms_mm", "mm")]
    print(f"# {args.workload}: " + "; ".join(notes))
    for name, unit in shown:
        value = metrics.get(name, 0.0)
        print(f"{name:<24} " + ("n/a (no plane fit on this workload)" if value is None else f"{value:.6g} {unit}"))
    result = {
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
