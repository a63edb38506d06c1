"""Scenario runner: scene -> guide events -> policy -> scan -> depth -> metrics.

A scenario (parsed from a YAML file by :mod:`evsl.config`) wires one scene to
one camera-projector rig and one sampling policy, then steps through scan
periods. Guide events observed during period p-1 choose the illumination mask
for period p (the tightest causal choice); the first period falls back to a
dense or sparse mask per the policy config. Everything downstream of the seed
is deterministic, and all cross-stage handoff is by immutable value. With
``parallel=True`` a 2-worker thread pool computes every period's guide events
before the period loop starts; the output is byte-identical to the serial
path.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .config import ConfigError, Scenario, load_scenario, parse_scenario  # the loaders are re-exported
from .depth import DegenerateInputError, depth_to_points, fit_plane, reconstruct_depth
from .events import DepthMap, EventFrame, EventStream, make_event_frame, make_time_surface
from .formats import (
    write_csv,
    write_depth_pgm,
    write_event_stream,
    write_pbm,
    write_ply,
)
from .policy import (
    DensePolicy,
    EventGuidedPolicy,
    SparsePolicy,
    active_pixel_fraction,
    build_mask,
    detect_roi,
    median_filter_frame,
)
from .projector import (
    SensorPreset,
    SENSOR_PRESETS,
    build_scan_plan,
    pixel_dwell_time,
    raster_event_rate,
    simulate_reflection_events,
)
from .scene import generate_guide_events, render_scene


@dataclass(frozen=True)
class PeriodReport:
    """Per-scan-period metrics; the power proxy is the mask's on-fraction.

    ``error`` is set (and ``plane_rms_m`` is None) when the plane fit found
    the reconstruction degenerate; every other metric and the period's dumps
    are kept, and the run continues. Any other failure is raised.
    """

    period: int
    active_pixel_fraction: float
    mask_fraction: float
    guide_event_rate: float       # events/second over the period window
    reflection_event_rate: float  # events/second emitted by the camera
    valid_depth_pixels: int
    plane_rms_m: float | None
    power_proxy: float
    error: str | None = None


PERIOD_CSV_HEADER = [
    "period",
    "active_pixel_fraction",
    "mask_fraction",
    "guide_event_rate_ev_s",
    "reflection_event_rate_ev_s",
    "valid_depth_pixels",
    "plane_rms_m",
    "power_proxy",
    "error",
]


def write_period_csv(reports: Sequence[PeriodReport], path: str | os.PathLike) -> None:
    write_csv(path, PERIOD_CSV_HEADER, map(astuple, reports))


def _resample_depth(depth_map: DepthMap, resolution: tuple[int, int]) -> DepthMap:
    """Nearest-neighbor resample onto another grid (rectified, axis-aligned)."""
    if depth_map.resolution == resolution:
        return depth_map
    w_src, h_src = depth_map.resolution
    w_dst, h_dst = resolution
    xs = np.minimum(((np.arange(w_dst) + 0.5) * w_src / w_dst).astype(np.int64), w_src - 1)
    ys = np.minimum(((np.arange(h_dst) + 0.5) * h_src / h_dst).astype(np.int64), h_src - 1)
    return DepthMap(resolution, depth_map.depth[np.ix_(ys, xs)], depth_map.valid[np.ix_(ys, xs)])


def _mask_for_period(scenario: Scenario, prev_frame: EventFrame | None):
    """Illumination mask from the guide frame of the previous period (None in period 0)."""
    policy = scenario.policy
    proj_res = scenario.projector.resolution
    if isinstance(policy, (DensePolicy, SparsePolicy)):
        return build_mask(policy, proj_res)
    if prev_frame is None:
        fallback = DensePolicy() if policy.first_period == "dense" else SparsePolicy(policy.background_stride)
        return build_mask(fallback, proj_res)
    filtered = median_filter_frame(prev_frame, policy.median_kernel_px)
    rois = detect_roi(filtered, policy.active_threshold, policy.min_area_px, policy.dilation_px)
    scene_w, scene_h = scenario.script.resolution
    scale = (proj_res[0] / scene_w, proj_res[1] / scene_h)
    return build_mask(policy, proj_res, rois, scale)


def run_scenario(
    scenario: Scenario,
    parallel: bool = False,
    dump: Iterable[str] = (),
    out_dir: str | os.PathLike | None = None,
    guide_streams: Sequence[EventStream] | None = None,
) -> list[PeriodReport]:
    """Run every scan period and return one report each.

    ``dump`` may contain any of "events", "masks", "depth", "ply"; artifacts
    land in ``out_dir`` (which also receives periods.csv when set). With
    ``parallel=True`` the guide events of every period are computed on a
    2-worker thread pool before the period loop starts; outputs are identical
    either way. ``guide_streams`` lets callers share precomputed guide events
    across runs of the same scene; ``parallel`` is then unused.
    """
    dump = frozenset(dump)
    unknown = dump - {"events", "masks", "depth", "ply"}
    if unknown:
        raise ConfigError(f"unknown dump kind(s): {sorted(unknown)}")
    out_path = Path(out_dir) if out_dir is not None else (Path(scenario.out_dir) if scenario.out_dir else None)
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    windows = _period_windows(scenario)
    if guide_streams is None:
        guide_streams = _guide_streams(scenario, parallel)
    elif len(guide_streams) < scenario.periods:
        raise ValueError("guide_streams must cover every period")

    noise = replace(scenario.noise, seed=scenario.seed)
    active_threshold = (
        scenario.policy.active_threshold if isinstance(scenario.policy, EventGuidedPolicy) else 1
    )

    period_s = scenario.projector.period_us * 1e-6
    reports: list[PeriodReport] = []
    prev_frame = None
    for p, (w0, w1) in enumerate(windows):
        guide_frame = make_event_frame(guide_streams[p], (w0, w1))
        guide_rate = len(guide_streams[p]) / period_s
        active = active_pixel_fraction(guide_frame, active_threshold)
        mask = _mask_for_period(scenario, prev_frame)
        prev_frame = guide_frame
        plan = build_scan_plan(scenario.projector, mask, t0_us=w0)
        _, scene_depth = render_scene(scenario.script, (w0 + w1) / 2.0)
        proj_depth = _resample_depth(scene_depth, scenario.projector.resolution)
        reflection, _ = simulate_reflection_events(plan, proj_depth, scenario.geometry, noise, sequence=p)
        surface = make_time_surface(reflection, (w0, w1))
        depth_map, _ = reconstruct_depth(surface, scenario.geometry, scenario.projector, w0)

        plane_rms = None
        error = None
        cloud = None
        if scenario.evaluate_plane and depth_map.valid_count >= 3:
            cloud = depth_to_points(depth_map, scenario.geometry)
            try:
                plane_rms = fit_plane(cloud).rms
            except DegenerateInputError as exc:  # record the failure and keep scanning
                error = f"{type(exc).__name__}: {exc}"

        reports.append(PeriodReport(
            period=p,
            active_pixel_fraction=active,
            mask_fraction=mask.fraction,
            guide_event_rate=guide_rate,
            reflection_event_rate=len(reflection) / period_s,
            valid_depth_pixels=depth_map.valid_count,
            plane_rms_m=plane_rms,
            power_proxy=mask.fraction,
            error=error,
        ))

        if out_path is not None:
            tag = f"p{p:03d}"
            if "events" in dump:
                write_event_stream(guide_streams[p], out_path / f"guide_{tag}.txt")
                write_event_stream(reflection, out_path / f"reflect_{tag}.txt")
            if "masks" in dump:
                write_pbm(out_path / f"mask_{tag}.pbm", mask)
            if "depth" in dump:
                write_depth_pgm(out_path / f"depth_{tag}.pgm", depth_map)
            if "ply" in dump:
                if cloud is None:
                    cloud = depth_to_points(depth_map, scenario.geometry)
                write_ply(out_path / f"cloud_{tag}.ply", cloud)

    if out_path is not None:
        write_period_csv(reports, out_path / "periods.csv")
    return reports


def generate_guide_for(scenario: Scenario, window: tuple[float, float], period: int) -> EventStream:
    return generate_guide_events(scenario.script, scenario.guide_camera, window, seed=scenario.seed + period)


def _period_windows(scenario: Scenario) -> list[tuple[float, float]]:
    """Half-open ``[t0, t1)`` window of every scan period, in microseconds."""
    period_us = scenario.projector.period_us
    return [(p * period_us, (p + 1) * period_us) for p in range(scenario.periods)]


def _guide_streams(scenario: Scenario, parallel: bool) -> list[EventStream]:
    """Guide events of every period window, on a 2-worker thread pool when ``parallel``."""
    windows = _period_windows(scenario)
    if not parallel:
        return [generate_guide_for(scenario, w, p) for p, w in enumerate(windows)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(generate_guide_for, scenario, w, p) for p, w in enumerate(windows)]
        return [f.result() for f in futures]


def _mean(values: Iterable[float]) -> float | None:
    values = [v for v in values if v is not None]
    return float(np.mean(values)) if values else None


COMPARE_CSV_HEADER = [
    "policy",
    "mean_mask_fraction",
    "mean_reflection_rate_ev_s",
    "mean_plane_rms_m",
    "mean_valid_depth_pixels",
    "power_reduction_vs_dense_pct",
]


def compare_sampling(
    scenario: Scenario,
    parallel: bool = False,
    out_dir: str | os.PathLike | None = None,
) -> list[dict]:
    """Run dense, sparse, and event-guided policies over identical seeds.

    The sparse stride mirrors the event-guided background stride so the two
    share a noise floor. Aggregates skip the first period (the event-guided
    policy has no guidance yet and runs its fallback there); a single-period
    scenario aggregates that period as-is. The guide events are computed once
    and shared by the three runs; ``parallel`` computes them as in
    :func:`run_scenario`.
    """
    if isinstance(scenario.policy, EventGuidedPolicy):
        guided = scenario.policy
    else:
        guided = EventGuidedPolicy()
    policies = [
        ("dense", DensePolicy()),
        ("sparse", SparsePolicy(stride=guided.background_stride)),
        ("event_guided", guided),
    ]
    shared_guides = _guide_streams(scenario, parallel)

    rows = []
    for name, policy in policies:
        variant = replace(scenario, policy=policy)
        reports = run_scenario(variant, guide_streams=shared_guides)
        steady = reports[1:] if len(reports) > 1 else reports
        mask_fraction = _mean(r.mask_fraction for r in steady)
        rows.append({
            "policy": name,
            "mean_mask_fraction": mask_fraction,
            "mean_reflection_rate_ev_s": _mean(r.reflection_event_rate for r in steady),
            "mean_plane_rms_m": _mean(r.plane_rms_m for r in steady),
            "mean_valid_depth_pixels": _mean(r.valid_depth_pixels for r in steady),
            "power_reduction_vs_dense_pct": 100.0 * (1.0 - mask_fraction),
        })
    if out_dir is not None:
        out_path = Path(out_dir)
        out_path.mkdir(parents=True, exist_ok=True)
        write_csv(out_path / "compare_sampling.csv", COMPARE_CSV_HEADER,
                  ([r[k] for k in COMPARE_CSV_HEADER] for r in rows))
    return rows


DWELL_CSV_HEADER = ["preset", "f_hz", "delta_t_s", "below_1us"]
RATE_CSV_HEADER = ["preset", "f_hz", "event_rate_ev_s"]


def sweep_dwell_time(
    presets: Sequence[SensorPreset] = SENSOR_PRESETS,
    frequencies_hz: Iterable[float] = range(50, 291, 10),
) -> list[dict]:
    """Dense dwell time per sensor preset across projector scan frequencies.

    Rows whose dwell time falls below the 1 us event-camera clock are
    flagged: those configurations cannot keep consecutive firings distinct.
    """
    rows = []
    for preset in presets:
        w, h = preset.resolution
        for f in frequencies_hz:
            dt = pixel_dwell_time(f, w, h)
            rows.append({"preset": preset.name, "f_hz": float(f), "delta_t_s": dt, "below_1us": dt < 1e-6})
    return rows


def sweep_event_rate(
    presets: Sequence[SensorPreset] = SENSOR_PRESETS,
    frequencies_hz: Iterable[float] = range(50, 291, 10),
    lit_fraction: float = 1.0,
) -> list[dict]:
    """Theoretical reflection event rate per preset across scan frequencies."""
    rows = []
    for preset in presets:
        w, h = preset.resolution
        for f in frequencies_hz:
            rows.append({
                "preset": preset.name,
                "f_hz": float(f),
                "event_rate_ev_s": raster_event_rate(f, w, h, lit_fraction),
            })
    return rows


def write_sweep_csv(rows: Sequence[dict], header: Sequence[str], path: str | os.PathLike) -> None:
    write_csv(path, header, ([row[k] for k in header] for row in rows))
