"""Scenario runner: scene -> guide events -> policy -> scan -> depth -> metrics.

A scenario wires one scene to one camera-projector rig and one sampling
policy, then steps through scan periods. Guide events observed during period
p-1 choose the illumination mask for period p (the tightest causal choice);
the first period falls back to a dense or sparse mask per the policy config.
Everything downstream of the seed is deterministic, and all cross-stage
handoff is by immutable value. With ``parallel=True`` a 2-worker thread pool
computes every period's guide events before the period loop starts; the
output is byte-identical to the serial path.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
import yaml

from .depth import DegenerateInputError, depth_to_points, fit_plane, reconstruct_depth
from .events import DepthMap, EventStream, make_event_frame, make_time_surface
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
    Policy,
    SparsePolicy,
    active_pixel_fraction,
    build_mask,
    detect_roi,
    median_filter_frame,
)
from .projector import (
    NoiseModel,
    ProjectorModel,
    SensorGeometry,
    SensorPreset,
    SENSOR_PRESETS,
    build_scan_plan,
    pixel_dwell_time,
    raster_event_rate,
    simulate_reflection_events,
)
from .scene import (
    Background,
    CheckerTexture,
    GuideCameraModel,
    MovingObject,
    SceneScript,
    generate_guide_events,
    render_scene,
)


class ConfigError(ValueError):
    """Scenario configuration problem; the message carries the field path."""


@dataclass(frozen=True)
class Scenario:
    script: SceneScript
    geometry: SensorGeometry
    projector: ProjectorModel
    noise: NoiseModel
    policy: Policy
    periods: int
    guide_camera: GuideCameraModel = GuideCameraModel()
    seed: int = 0
    evaluate_plane: bool = True
    out_dir: str | None = None
    name: str = "scenario"

    def __post_init__(self):
        if self.periods < 1:
            raise ConfigError("run.periods: must be >= 1")
        needed = self.periods * self.projector.period_us
        if self.script.duration_us + 1e-6 < needed:
            raise ConfigError(
                f"scene.duration_us: {self.script.duration_us} is shorter than "
                f"{self.periods} scan periods ({needed:.3f} us)"
            )


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


def _mask_for_period(
    scenario: Scenario,
    period: int,
    prev_guide: EventStream | None,
    prev_window: tuple[float, float] | None,
):
    policy = scenario.policy
    proj_res = scenario.projector.resolution
    if isinstance(policy, (DensePolicy, SparsePolicy)):
        return build_mask(policy, proj_res)
    if period == 0 or prev_guide is None:
        fallback = DensePolicy() if policy.first_period == "dense" else SparsePolicy(policy.background_stride)
        return build_mask(fallback, proj_res)
    frame = make_event_frame(prev_guide, prev_window)
    filtered = median_filter_frame(frame, policy.median_kernel_px)
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

    period_us = scenario.projector.period_us
    windows = [(p * period_us, (p + 1) * period_us) for p in range(scenario.periods)]

    if guide_streams is None:
        guide_streams = _guide_streams(scenario, windows, parallel)
    elif len(guide_streams) < scenario.periods:
        raise ValueError("guide_streams must cover every period")

    noise = replace(scenario.noise, seed=scenario.seed)
    active_threshold = (
        scenario.policy.active_threshold if isinstance(scenario.policy, EventGuidedPolicy) else 1
    )

    period_s = period_us * 1e-6
    reports: list[PeriodReport] = []
    for p, (w0, w1) in enumerate(windows):
        guide_frame = make_event_frame(guide_streams[p], (w0, w1))
        guide_rate = len(guide_streams[p]) / period_s
        active = active_pixel_fraction(guide_frame, active_threshold)
        mask = _mask_for_period(scenario, p, guide_streams[p - 1] if p else None, windows[p - 1] if p else None)
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


def _guide_streams(
    scenario: Scenario, windows: Sequence[tuple[float, float]], parallel: bool
) -> list[EventStream]:
    """Guide events of every period window, on a 2-worker thread pool when ``parallel``."""
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
    period_us = scenario.projector.period_us
    windows = [(p * period_us, (p + 1) * period_us) for p in range(scenario.periods)]
    shared_guides = _guide_streams(scenario, windows, parallel)

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


# --------------------------------------------------------------------------
# Scenario files
# --------------------------------------------------------------------------

_MISSING = object()


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class _Section:
    """Mapping wrapper that tracks consumed keys and error paths."""

    def __init__(self, mapping, path: str = ""):
        if mapping is None:
            mapping = {}
        if not isinstance(mapping, dict):
            raise ConfigError(f"{path or '<root>'}: expected a mapping")
        self._d = dict(mapping)
        self._path = path

    def key(self, key: str) -> str:
        return f"{self._path}.{key}" if self._path else key

    def child(self, key: str, required: bool = True) -> "_Section | None":
        value = self._d.pop(key, _MISSING)
        if value is _MISSING or value is None:
            if required:
                raise ConfigError(f"{self.key(key)}: missing required section")
            return None
        return _Section(value, self.key(key))

    def take(self, key: str, default=_MISSING):
        value = self._d.pop(key, _MISSING)
        if value is _MISSING:
            if default is _MISSING:
                raise ConfigError(f"{self.key(key)}: missing required key")
            return default
        return value

    def take_number(self, key: str, default=_MISSING, minimum=None, exclusive=False, maximum=None) -> float:
        value = self.take(key, default)
        if not _is_number(value):
            raise ConfigError(f"{self.key(key)}: expected a number, got {value!r}")
        value = float(value)
        if minimum is not None and (value <= minimum if exclusive else value < minimum):
            bound = "greater than" if exclusive else "at least"
            raise ConfigError(f"{self.key(key)}: must be {bound} {minimum}")
        if maximum is not None and value > maximum:
            raise ConfigError(f"{self.key(key)}: must be at most {maximum}")
        return value

    def take_int(self, key: str, default=_MISSING, minimum=None) -> int:
        value = self.take(key, default)
        if not _is_int(value):
            raise ConfigError(f"{self.key(key)}: expected an integer, got {value!r}")
        if minimum is not None and value < minimum:
            raise ConfigError(f"{self.key(key)}: must be at least {minimum}")
        return value

    def take_bool(self, key: str, default=_MISSING) -> bool:
        value = self.take(key, default)
        if not isinstance(value, bool):
            raise ConfigError(f"{self.key(key)}: expected true/false, got {value!r}")
        return value

    def take_str(self, key: str, default=_MISSING, choices: Sequence[str] | None = None) -> str:
        value = self.take(key, default)
        if not isinstance(value, str):
            raise ConfigError(f"{self.key(key)}: expected a string, got {value!r}")
        if choices is not None and value not in choices:
            raise ConfigError(f"{self.key(key)}: must be one of {list(choices)}, got {value!r}")
        return value

    def take_pair(self, key: str, default=_MISSING, integer: bool = False) -> tuple:
        value = self.take(key, default)
        if isinstance(value, tuple):
            return value
        if not isinstance(value, list) or len(value) != 2:
            raise ConfigError(f"{self.key(key)}: expected a pair [a, b], got {value!r}")
        if integer:
            if not all(_is_int(v) for v in value):
                raise ConfigError(f"{self.key(key)}: expected integer pair, got {value!r}")
            return tuple(value)
        if not all(_is_number(v) for v in value):
            raise ConfigError(f"{self.key(key)}: expected numeric pair, got {value!r}")
        return tuple(float(v) for v in value)

    def take_list(self, key: str, default=_MISSING) -> list | None:
        """A list; ``null`` is accepted only where the default is None."""
        value = self.take(key, default)
        if isinstance(value, list) or value is default:
            return value
        raise ConfigError(f"{self.key(key)}: expected a list, got {value!r}")

    def finish(self) -> None:
        if self._d:
            names = ", ".join(sorted(self.key(k) for k in self._d))
            raise ConfigError(f"unknown key(s): {names}")


def _parse_background(sec: _Section) -> Background:
    checker = None
    texture = sec.child("texture", required=False)
    if texture is not None:
        kind = texture.take_str("kind", choices=["checker"])
        checker = CheckerTexture(
            tile_px=texture.take_int("tile_px", 16, minimum=1),
            low=texture.take_number("low", 0.4, minimum=0, exclusive=True, maximum=1.0),
            high=texture.take_number("high", 0.6, minimum=0, exclusive=True, maximum=1.0),
        )
        texture.finish()
    background = Background(
        depth_m=sec.take_number("depth_m", minimum=0, exclusive=True),
        intensity=sec.take_number("intensity", 0.5, minimum=0, exclusive=True, maximum=1.0),
        checker=checker,
    )
    sec.finish()
    return background


def _parse_object(sec: _Section) -> MovingObject:
    rect = sec.take("rect_px")
    if not isinstance(rect, list) or len(rect) != 4:
        raise ConfigError(f"{sec.key('rect_px')}: expected [x0, y0, width, height]")
    x0, y0, w, h = rect
    if not (_is_number(x0) and _is_number(y0) and _is_int(w) and _is_int(h) and w >= 1 and h >= 1):
        raise ConfigError(
            f"{sec.key('rect_px')}: expected numbers x0, y0 and integers width, height >= 1, got {rect!r}"
        )
    obj = MovingObject(
        x0=float(x0),
        y0=float(y0),
        width=w,
        height=h,
        velocity=sec.take_pair("velocity_px_per_us", (0.0, 0.0)),
        depth_m=sec.take_number("depth_m", minimum=0, exclusive=True),
        intensity=sec.take_number("intensity", 0.9, minimum=0, exclusive=True, maximum=1.0),
    )
    sec.finish()
    return obj


def parse_scene_config(mapping: dict, duration_us: float | None = None, path: str = "scene") -> SceneScript:
    """Build a SceneScript from the scenario file's scene section."""
    sec = _Section(mapping, path)
    resolution = sec.take_pair("resolution", integer=True)
    duration = sec.take_number("duration_us", duration_us if duration_us is not None else _MISSING,
                               minimum=0)
    background = _parse_background(sec.child("background"))
    objects = []
    for i, entry in enumerate(sec.take_list("objects", [])):
        objects.append(_parse_object(_Section(entry, f"{path}.objects[{i}]")))
    sec.finish()
    try:
        return SceneScript(resolution, duration, background, tuple(objects))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _parse_policy(sec: _Section) -> Policy:
    kind = sec.take_str("kind", choices=["dense", "sparse", "event_guided"])
    try:
        if kind == "dense":
            policy = DensePolicy()
        elif kind == "sparse":
            policy = SparsePolicy(
                stride=sec.take_int("stride", 16, minimum=1),
                grid=sec.take_bool("grid", False),
            )
        else:
            policy = EventGuidedPolicy(
                median_kernel_px=sec.take_int("median_kernel_px", 3, minimum=1),
                active_threshold=sec.take_int("active_threshold", 1, minimum=1),
                min_area_px=sec.take_int("min_area_px", 4, minimum=1),
                dilation_px=sec.take_int("dilation_px", 4, minimum=0),
                background_stride=sec.take_int("background_stride", 16, minimum=1),
                first_period=sec.take_str("first_period", "dense", choices=["dense", "sparse"]),
            )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{sec.key(kind)}: {exc}") from None
    sec.finish()
    return policy


def parse_scenario(mapping: dict, name: str = "scenario") -> Scenario:
    root = _Section(mapping)

    run = root.child("run")
    periods = run.take_int("periods", 1, minimum=1)
    seed = run.take_int("seed", 0, minimum=0)
    evaluate_plane = run.take_bool("evaluate_plane", True)
    out_dir = run.take("out_dir", None)
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError(f"{run.key('out_dir')}: expected a string path")
    run.finish()

    proj_sec = root.child("projector")
    frequency = proj_sec.take_number("scan_frequency_hz", 60.0, minimum=0, exclusive=True)
    proj_sec.finish()

    geo = root.child("geometry")
    try:
        geometry = SensorGeometry(
            cam_resolution=geo.take_pair("cam_resolution", integer=True),
            proj_resolution=geo.take_pair("proj_resolution", integer=True),
            focal_length_px=geo.take_number("focal_length_px", minimum=0, exclusive=True),
            baseline_m=geo.take_number("baseline_m", 0.04, minimum=0, exclusive=True),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"geometry: {exc}") from None
    geo.finish()
    projector = ProjectorModel(geometry.proj_resolution, frequency)

    guide = root.child("guide_camera", required=False)
    if guide is None:
        camera = GuideCameraModel()
    else:
        camera = GuideCameraModel(
            contrast_threshold=guide.take_number("contrast_threshold", 0.3, minimum=0, exclusive=True),
            render_rate_hz=guide.take_number("render_rate_hz", 1000.0, minimum=0, exclusive=True),
            noise_rate_hz=guide.take_number("noise_rate_hz", 0.0, minimum=0),
        )
        guide.finish()

    noise_sec = root.child("noise", required=False)
    if noise_sec is None:
        noise = NoiseModel()
    else:
        anchors = noise_sec.take_list("jitter_anchors", None)
        if anchors is None:
            anchor_tuple = NoiseModel().jitter_anchors
        else:
            anchor_tuple = []
            for i, pair in enumerate(anchors):
                if not (isinstance(pair, list) and len(pair) == 2 and all(map(_is_number, pair))):
                    raise ConfigError(f"{noise_sec.key('jitter_anchors')}[{i}]: expected [rate_mev_s, std_us]")
                anchor_tuple.append((float(pair[0]), float(pair[1])))
            anchor_tuple = tuple(anchor_tuple)
        try:
            noise = NoiseModel(
                latency_us=noise_sec.take_number("latency_us", 0.0, minimum=0),
                jitter_anchors=anchor_tuple,
                drop_probability=noise_sec.take_number("drop_probability", 0.0, minimum=0),
                quantization_us=noise_sec.take_number("quantization_us", 1.0, minimum=0),
            )
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"noise: {exc}") from None
        noise_sec.finish()

    policy = _parse_policy(root.child("policy"))

    default_duration = periods * projector.period_us
    script = parse_scene_config(root.take("scene"), duration_us=default_duration)

    root.finish()
    return Scenario(
        script=script,
        geometry=geometry,
        projector=projector,
        noise=noise,
        policy=policy,
        periods=periods,
        guide_camera=camera,
        seed=seed,
        evaluate_plane=evaluate_plane,
        out_dir=out_dir,
        name=name,
    )


def load_scenario(path: str | os.PathLike) -> Scenario:
    p = Path(path)
    try:
        mapping = yaml.safe_load(p.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ConfigError(f"{p}: invalid YAML ({exc})") from None
    if not isinstance(mapping, dict):
        raise ConfigError(f"{p}: scenario file must contain a mapping")
    return parse_scenario(mapping, name=p.stem)
