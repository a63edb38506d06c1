"""Scenario runner: scene -> guide events -> policy -> scan -> depth -> metrics.

A scenario (parsed from a YAML file by :mod:`evsl.config`) wires one scene to
one camera-projector rig and one sampling policy, then steps through scan
periods. Guide events observed during period p-1 choose the illumination mask
for period p (the tightest causal choice); in the first, :func:`build_mask`
applies the policy's fallback. Everything downstream of the seed is
deterministic, and all cross-stage handoff is by immutable value. Each table's
columns are declared once, by the :class:`PeriodReport` fields or the keys of
the rows returned here; every run mean covers :func:`steady_periods`.

A period has a policy-independent guide stage (:func:`_guide_period`) and a
period stage (:func:`run_period`, mask to plane fit). With ``parallel=True`` a
2-worker thread pool runs the guide stage of every period, then whole periods;
the output is byte-identical to the serial path.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import astuple, dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .config import ConfigError, Scenario, load_scenario, parse_scenario  # the loaders are re-exported
from .depth import DegenerateInputError, depth_to_points, fit_plane, reconstruct_depth
from .events import DepthMap, EventFrame, EventStream, make_event_frame, make_time_surface
from .formats import write_csv, write_depth_pgm, write_event_stream, write_pbm, write_ply
from .policy import (
    DensePolicy, EventGuidedPolicy, IlluminationMask, Policy, RoiSet, SparsePolicy,
    active_pixel_fraction, build_mask, detect_roi, median_filter_frame,
)
from .projector import (
    SENSOR_PRESETS, build_scan_plan, pixel_dwell_time, raster_event_rate, simulate_reflection_events,
)
from .scene import generate_guide_events, render_scene


@dataclass(frozen=True)
class PeriodReport:
    """Per-scan-period metrics; the power proxy is the mask's on-fraction.

    ``valid_depth_pixels`` counts the pixels whose decode is plausible (an
    event, a decoded row within one of the camera row, positive disparity),
    not pixels whose depth is verified correct.

    ``error`` is set (and ``plane_rms_m`` is None) when the plane fit found
    the reconstruction degenerate; every other metric and the period's dumps
    are kept, and the run continues. Any other failure is raised.
    """

    period: int
    active_pixel_fraction: float
    mask_fraction: float
    guide_event_rate: float = field(metadata={"unit": "ev_s"})       # events/second over the period window
    reflection_event_rate: float = field(metadata={"unit": "ev_s"})  # events/second emitted by the camera
    valid_depth_pixels: int
    plane_rms_m: float | None
    power_proxy: float
    error: str | None = None


PERIOD_CSV_HEADER = [f"{f.name}_{f.metadata['unit']}" if "unit" in f.metadata else f.name for f in fields(PeriodReport)]


def _resample_depth(depth_map: DepthMap, resolution: tuple[int, int]) -> DepthMap:
    """Nearest-neighbor resample onto another grid (rectified, axis-aligned)."""
    if depth_map.resolution == resolution:
        return depth_map
    w_src, h_src = depth_map.resolution
    w_dst, h_dst = resolution
    xs = np.minimum(((np.arange(w_dst) + 0.5) * w_src / w_dst).astype(np.int64), w_src - 1)
    ys = np.minimum(((np.arange(h_dst) + 0.5) * h_src / h_dst).astype(np.int64), h_src - 1)
    return DepthMap(resolution, depth_map.depth[np.ix_(ys, xs)], depth_map.valid[np.ix_(ys, xs)])


@dataclass(frozen=True)
class PeriodResult:
    """What the reports and dumps use of one period's stage outputs."""

    report: PeriodReport
    mask: IlluminationMask
    reflection: EventStream
    depth: DepthMap


def _window(scenario: Scenario, p: int) -> tuple[float, float]:
    """Half-open ``[t0, t1)`` window of scan period ``p``, in microseconds."""
    return p * scenario.projector.period_us, (p + 1) * scenario.projector.period_us


def _guide_period(scenario: Scenario, p: int) -> tuple[EventStream, float, RoiSet | None]:
    """Guide stream of period ``p``, its active-pixel fraction, and the event-guided
    ROIs that the next period's mask uses (None where there is none); the frame is not kept.

    The median and the ROI search see only a read-only view of the counts over
    the events' bounding box, widened by ``median_kernel_px // 2 + dilation_px``
    and clipped to the sensor; their boxes are then shifted by the crop's
    origin. Both work alike wherever the frame sits: outside the events' box
    every count is zero, the median is nonzero only within ``k // 2`` of it,
    and a dilated box then reaches at most ``dilation_px`` further, so the
    crop's zero padding and its clip give what the full frame gives.
    """
    window = _window(scenario, p)
    stream = generate_guide_events(scenario.script, scenario.guide_camera, window, seed=scenario.seed + p)
    frame = make_event_frame(stream, window)
    policy = scenario.policy
    guided = isinstance(policy, EventGuidedPolicy)
    active = active_pixel_fraction(frame, policy.active_threshold if guided else 1)
    if not guided or p + 1 == scenario.periods:
        return stream, active, None
    if not len(stream):
        return stream, active, RoiSet(())
    margin = policy.median_kernel_px // 2 + policy.dilation_px
    w, h = frame.resolution
    xa, xb = max(int(stream.x.min()) - margin, 0), min(int(stream.x.max()) + margin + 1, w)
    ya, yb = max(int(stream.y.min()) - margin, 0), min(int(stream.y.max()) + margin + 1, h)
    crop = EventFrame((xb - xa, yb - ya), frame.counts[ya:yb, xa:xb], frame.window)
    filtered = median_filter_frame(crop, policy.median_kernel_px)
    rois = detect_roi(filtered, policy.active_threshold, policy.min_area_px, policy.dilation_px)
    return stream, active, RoiSet(tuple((x0 + xa, y0 + ya, x1 + xa, y1 + ya) for x0, y0, x1, y1 in rois.boxes))


def run_period(
    scenario: Scenario, policies: Sequence[Policy], p: int, guide: EventStream, active: float, prev_rois: RoiSet | None
) -> list[PeriodResult]:
    """Period ``p`` of ``scenario``'s rig under each of ``policies``, rendered once at mid-period.

    Each policy runs mask, scan plan and reflection, then, with the render
    freed, time surface, decode and plane fit. ``guide`` and ``active`` come
    from this period's guide stage, ``prev_rois`` from the previous one's.
    Each tally must account for every firing and every camera pixel, and the
    decode's valid count for its map; a tally that does not is a programming
    error and raises RuntimeError.
    """
    w0, w1 = window = _window(scenario, p)
    proj_res = scenario.projector.resolution
    proj_depth = _resample_depth(render_scene(scenario.script, (w0 + w1) / 2.0), proj_res)
    scale = (proj_res[0] / scenario.script.resolution[0], proj_res[1] / scenario.script.resolution[1])
    scans = []
    for policy in policies:
        mask = build_mask(policy, proj_res, prev_rois, scale)
        plan = build_scan_plan(scenario.projector, mask, t0_us=w0)
        reflection, tally = simulate_reflection_events(plan, proj_depth, scenario.geometry, scenario.noise,
                                                       sequence=p, seed=scenario.seed)
        lost = tally["dropped"] + tally["out_of_frame"] + tally["invalid_depth"]
        if tally["fired"] != tally["emitted"] + lost or len(reflection) != tally["emitted"]:
            raise RuntimeError(f"period {p}: reflection tally {tally} does not account for its firings "
                               f"and {len(reflection)} events")
        scans.append((mask, reflection))
    del proj_depth, plan  # two periods may be in flight: free what the decode does not use

    period_s = scenario.projector.period_us * 1e-6
    results = []
    for mask, reflection in scans:
        depth_map, tally = reconstruct_depth(make_time_surface(reflection, window),
                                             scenario.geometry, scenario.projector, w0)
        w, h = depth_map.resolution
        valid = tally["valid"]
        failed = tally["no_event"] + tally["row_mismatch"] + tally["nonpositive_disparity"]
        if failed + valid != w * h or valid != np.count_nonzero(depth_map.valid):
            raise RuntimeError(f"period {p}: decode tally {tally} does not account for {w}x{h} pixels "
                               f"and {depth_map.valid_count} valid")
        plane_rms = error = None
        if scenario.evaluate_plane and valid >= 3:
            try:  # the cloud is freed straight after its fit
                plane_rms = fit_plane(depth_to_points(depth_map, scenario.geometry)).rms
            except DegenerateInputError as exc:  # record the failure and keep scanning
                error = f"{type(exc).__name__}: {exc}"
        fraction = mask.fraction
        report = PeriodReport(
            period=p, active_pixel_fraction=active, mask_fraction=fraction,
            guide_event_rate=len(guide) / period_s, reflection_event_rate=len(reflection) / period_s,
            valid_depth_pixels=valid, plane_rms_m=plane_rms, power_proxy=fraction, error=error,
        )
        results.append(PeriodResult(report, mask, reflection, depth_map))
    return results


def _in_order(submit, fn, *iterables) -> Iterator:
    """``map`` through ``submit``, in order, with at most two calls submitted ahead of the consumer."""
    ahead = deque()
    for args in zip(*iterables):
        ahead.append(submit(fn, *args))
        if len(ahead) > 2:
            yield ahead.popleft().result()
    yield from (future.result() for future in ahead)


def _run_periods(scenario: Scenario, policies: Sequence[Policy], parallel: bool) -> Iterator[tuple]:
    """Yield each period's guide stream and its results under each of ``policies``, in period order.

    The guide stage runs once, under ``scenario.policy``. With ``parallel`` one
    2-worker thread pool runs the guide stage of every period and then whole
    periods; it stays two periods ahead, so finished periods do not pile up.
    """
    periods = range(scenario.periods)
    with (ThreadPoolExecutor(max_workers=2) if parallel else nullcontext()) as pool:
        run = partial(_in_order, pool.submit) if parallel else map
        streams, actives, rois = zip(*run(partial(_guide_period, scenario), periods))
        prev_rois = (None, *rois[:-1])
        yield from zip(streams, run(partial(run_period, scenario, policies), periods, streams, actives, prev_rois))


DUMP_KINDS = ("events", "masks", "depth", "ply")


def run_scenario(
    scenario: Scenario,
    parallel: bool = False,
    dump: Iterable[str] = (),
    out_dir: str | os.PathLike | None = None,
) -> list[PeriodReport]:
    """Run every scan period and return one report each.

    ``dump`` may contain any of :data:`DUMP_KINDS`; artifacts land in
    ``out_dir``, in period order, with periods.csv. Nothing is written when
    ``out_dir`` is None. With ``parallel=True`` a 2-worker thread pool runs the
    guide stage of every period and then whole periods; outputs are identical
    either way.
    """
    dump = frozenset(dump)
    if unknown := dump - set(DUMP_KINDS):
        raise ConfigError(f"unknown dump kind(s): {sorted(unknown)}")
    if out_dir is not None:
        out_path = Path(out_dir)
        out_path.mkdir(parents=True, exist_ok=True)

    reports: list[PeriodReport] = []
    for p, (guide, (result,)) in enumerate(_run_periods(scenario, (scenario.policy,), parallel)):
        reports.append(result.report)
        if out_dir is None:
            continue
        tag = f"p{p:03d}"
        if "events" in dump:
            write_event_stream(guide, out_path / f"guide_{tag}.txt")
            write_event_stream(result.reflection, out_path / f"reflect_{tag}.txt")
        if "masks" in dump:
            write_pbm(out_path / f"mask_{tag}.pbm", result.mask)
        if "depth" in dump:
            write_depth_pgm(out_path / f"depth_{tag}.pgm", result.depth)
        if "ply" in dump:
            write_ply(out_path / f"cloud_{tag}.ply", depth_to_points(result.depth, scenario.geometry))

    if out_dir is not None:
        write_csv(out_path / "periods.csv", PERIOD_CSV_HEADER, map(astuple, reports))
    return reports


def steady_periods(reports: Sequence[PeriodReport]) -> Sequence[PeriodReport]:
    """Periods 1+, or a one-period run's only one: every run mean skips the event-guided fallback in period 0."""
    return reports[1:] if len(reports) > 1 else reports


def _mean(values: Iterable[float]) -> float | None:
    values = [v for v in values if v is not None]
    return float(np.mean(values)) if values else None


def _compare_policies(scenario: Scenario) -> tuple[Scenario, dict[str, Policy]]:
    """``scenario`` under the event-guided policy its guide stage runs, and the compared policies by row name."""
    guided = scenario.policy if isinstance(scenario.policy, EventGuidedPolicy) else EventGuidedPolicy()
    policies = {"dense": DensePolicy(), "sparse": SparsePolicy(stride=guided.background_stride), "event_guided": guided}
    return replace(scenario, policy=guided), policies


def compare_sampling(scenario: Scenario, parallel: bool = False) -> list[dict]:
    """Run dense, sparse, and event-guided policies over identical seeds; one row each.

    The sparse stride mirrors the event-guided background stride so the two
    share a noise floor. Aggregates cover :func:`steady_periods`. The three
    policies share one guide stage and one scene render per period;
    ``parallel`` runs as in :func:`run_scenario`, with identical rows. Each
    row's keys, in order, are the columns of ``compare_sampling.csv``, which
    the CLI, not this function, writes.
    """
    rig, policies = _compare_policies(scenario)
    per_period = [[r.report for r in results] for _, results in _run_periods(rig, tuple(policies.values()), parallel)]

    rows = []
    for name, reports in zip(policies, zip(*per_period)):
        steady = steady_periods(reports)
        mask_fraction = _mean(r.mask_fraction for r in steady)
        rows.append({
            "policy": name,
            "mean_mask_fraction": mask_fraction,
            "mean_reflection_rate_ev_s": _mean(r.reflection_event_rate for r in steady),
            "mean_plane_rms_m": _mean(r.plane_rms_m for r in steady),
            "mean_valid_depth_pixels": _mean(r.valid_depth_pixels for r in steady),
            "power_reduction_vs_dense_pct": 100.0 * (1.0 - mask_fraction),
        })
    return rows


def sweep_dwell_time(frequencies_hz: Iterable[float]) -> list[dict]:
    """Dense dwell time per sensor preset across projector scan frequencies.

    Rows whose dwell time falls below the 1 us event-camera clock are
    flagged: those configurations cannot keep consecutive firings distinct.
    """
    frequencies_hz = tuple(frequencies_hz)  # iterated once per preset
    dts = [(p.name, f, pixel_dwell_time(f, *p.resolution)) for p in SENSOR_PRESETS for f in frequencies_hz]
    return [{"preset": name, "f_hz": float(f), "delta_t_s": dt, "below_1us": dt < 1e-6} for name, f, dt in dts]


def sweep_event_rate(frequencies_hz: Iterable[float]) -> list[dict]:
    """Theoretical dense reflection event rate per preset across scan frequencies."""
    frequencies_hz = tuple(frequencies_hz)  # iterated once per preset
    return [{"preset": p.name, "f_hz": float(f), "event_rate_ev_s": raster_event_rate(f, *p.resolution)}
            for p in SENSOR_PRESETS for f in frequencies_hz]
