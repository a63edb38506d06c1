"""Raster-scanning laser projector and the reflection event camera.

The projector visits pixels in row-major order on a fixed raster clock: the
pixel with raster index k fires at T0 + k / (f * W * H). Masking pixels off
never compresses the clock; a skipped pixel simply leaves the laser dark for
that slot. The reflection camera sees one positive event per firing, shifted
by the rectified disparity, with timing noise applied per the noise model.

Per-firing noise draws are counter-based: they are keyed by (seed, sequence,
raster index) through a splitmix64 hash, so generating events for any subset
of firings, in any order or in parallel, yields the same draws per firing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .events import DepthMap, EventStream
from .policy import IlluminationMask


@dataclass(frozen=True)
class SensorGeometry:
    """Rectified camera-projector pair: rows are aligned, disparity is horizontal."""

    cam_resolution: tuple[int, int]
    proj_resolution: tuple[int, int]
    focal_length_px: float
    baseline_m: float = 0.04

    def __post_init__(self):
        for name, (w, h) in (("cam_resolution", self.cam_resolution), ("proj_resolution", self.proj_resolution)):
            if w < 1 or h < 1:
                raise ValueError(f"invalid {name} {(w, h)!r}")
        if self.focal_length_px <= 0:
            raise ValueError("focal_length_px must be positive")
        if self.baseline_m <= 0:
            raise ValueError("baseline_m must be positive")


@dataclass(frozen=True)
class ProjectorModel:
    resolution: tuple[int, int]
    frequency_hz: float = 60.0

    def __post_init__(self):
        w, h = self.resolution
        if w < 1 or h < 1:
            raise ValueError(f"invalid resolution {self.resolution!r}")
        if self.frequency_hz <= 0:
            raise ValueError("frequency_hz must be positive")

    @property
    def pixel_count(self) -> int:
        return self.resolution[0] * self.resolution[1]

    @property
    def dwell_time_us(self) -> float:
        """Time the laser spends per raster slot, in microseconds."""
        return 1e6 / (self.frequency_hz * self.pixel_count)

    @property
    def period_us(self) -> float:
        return 1e6 / self.frequency_hz


@dataclass(frozen=True)
class SensorPreset:
    name: str
    resolution: tuple[int, int]


SENSOR_PRESETS: tuple[SensorPreset, ...] = (
    SensorPreset("DVS128", (128, 128)),
    SensorPreset("DAVIS240", (240, 180)),
    SensorPreset("DAVIS346", (346, 260)),
    SensorPreset("ATIS", (302, 240)),
    SensorPreset("Gen3_CD", (640, 480)),
    SensorPreset("Gen3_ATIS", (480, 360)),
    SensorPreset("Gen4_CD", (1280, 720)),
)


def get_preset(name: str) -> SensorPreset:
    for preset in SENSOR_PRESETS:
        if preset.name == name:
            return preset
    raise KeyError(f"unknown sensor preset {name!r}")


def pixel_dwell_time(frequency_hz: float, width: int, height: int, stride: int = 1) -> float:
    """Seconds between consecutive illuminated pixels for a given raster stride."""
    if frequency_hz <= 0 or width <= 0 or height <= 0 or stride <= 0:
        raise ValueError("all arguments must be positive")
    return stride / (frequency_hz * width * height)


def raster_event_rate(frequency_hz: float, width: int, height: int, lit_fraction: float = 1.0) -> float:
    """Reflection events per second when a fraction of the raster is illuminated."""
    if frequency_hz <= 0 or width <= 0 or height <= 0:
        raise ValueError("frequency and resolution must be positive")
    if not (0.0 <= lit_fraction <= 1.0):
        raise ValueError("lit_fraction must lie in [0, 1]")
    return frequency_hz * width * height * lit_fraction


DEFAULT_JITTER_ANCHORS: tuple[tuple[float, float], ...] = ((1.0, 1.0), (10.0, 10.0), (265.0, 200.0))


@dataclass(frozen=True)
class NoiseModel:
    """Timing noise of the reflection camera.

    ``jitter_anchors`` are (event rate in MEv/s, timestamp std in us) pairs;
    the std at other rates is interpolated log-log and clamped at the ends.
    An empty anchor tuple disables jitter. ``quantization_us`` rounds event
    timestamps to the camera clock; 0 disables quantization.
    """

    latency_us: float = 0.0
    jitter_anchors: tuple[tuple[float, float], ...] = DEFAULT_JITTER_ANCHORS
    drop_probability: float = 0.0
    quantization_us: float = 1.0
    seed: int = 0

    def __post_init__(self):
        anchors = tuple((float(r), float(s)) for r, s in self.jitter_anchors)
        rates = [r for r, _ in anchors]
        stds = [s for _, s in anchors]
        if any(r <= 0 for r in rates) or any(s <= 0 for s in stds):
            raise ValueError("jitter anchors must have positive rate and std")
        if any(b <= a for a, b in zip(rates, rates[1:])):
            raise ValueError("jitter anchor rates must be strictly increasing")
        if any(b < a for a, b in zip(stds, stds[1:])):
            raise ValueError("jitter anchor stds must be non-decreasing")
        if not (0.0 <= self.drop_probability <= 1.0):
            raise ValueError("drop_probability must lie in [0, 1]")
        if self.quantization_us < 0:
            raise ValueError("quantization_us must be non-negative")
        if self.latency_us < 0:
            raise ValueError("latency_us must be non-negative")
        object.__setattr__(self, "jitter_anchors", anchors)

    @classmethod
    def noiseless(cls) -> "NoiseModel":
        """Exact timestamps: no latency, jitter, drops, or quantization."""
        return cls(latency_us=0.0, jitter_anchors=(), drop_probability=0.0, quantization_us=0.0)


def timestamp_jitter_std(model: NoiseModel, rate_ev_s: float) -> float:
    """Timestamp jitter std (us) at a given event rate (events/second)."""
    if rate_ev_s < 0:
        raise ValueError("rate must be non-negative")
    anchors = model.jitter_anchors
    if not anchors:
        return 0.0
    rates = np.array([r for r, _ in anchors])
    stds = np.array([s for _, s in anchors])
    if len(anchors) == 1 or rate_ev_s <= 0:
        return float(stds[0])
    rate_mev = rate_ev_s / 1e6
    return float(np.exp(np.interp(np.log(rate_mev), np.log(rates), np.log(stds))))


@dataclass(frozen=True)
class ScanPlan:
    """Firing schedule for one scan period.

    ``k`` holds raster indices (row * W + col) of the illuminated pixels in
    raster order; fire times follow the dense raster clock, so masked-off
    pixels leave gaps instead of compressing the schedule.
    """

    resolution: tuple[int, int]
    t0_us: float
    period_us: float
    k: np.ndarray         # int64 raster indices, strictly increasing
    rows: np.ndarray      # int32
    cols: np.ndarray      # int32
    fire_t_us: np.ndarray  # float64

    def __len__(self) -> int:
        return len(self.k)

    @property
    def mean_event_rate(self) -> float:
        """Firings per second over the scan period."""
        return len(self.k) / (self.period_us * 1e-6)


def build_scan_plan(projector: ProjectorModel, mask: IlluminationMask, t0_us: float = 0.0) -> ScanPlan:
    """Schedule fire times for every masked-on pixel in raster order."""
    if mask.resolution != projector.resolution:
        raise ValueError(
            f"mask resolution {mask.resolution} does not match projector {projector.resolution}"
        )
    w, _ = projector.resolution
    k = np.flatnonzero(mask.on.ravel()).astype(np.int64)
    dwell = projector.dwell_time_us
    return ScanPlan(
        resolution=projector.resolution,
        t0_us=float(t0_us),
        period_us=projector.period_us,
        k=k,
        rows=(k // w).astype(np.int32),
        cols=(k % w).astype(np.int32),
        fire_t_us=t0_us + k * dwell,
    )


_U64 = np.uint64
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _splitmix64(x: np.ndarray) -> np.ndarray:
    x = x + _U64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> _U64(27))) * _U64(0x94D049BB133111EB)
    return x ^ (x >> _U64(31))


def _keyed_uniforms(seed: int, sequence: int, ks: np.ndarray, stream: int, open_low: bool = False) -> np.ndarray:
    """Deterministic uniforms in [0, 1) (or (0, 1]) keyed by raster index."""
    keys = _splitmix64(np.array([seed & _MASK64, (sequence + 1) * 0x9E3779B9 & _MASK64], dtype=_U64))
    base = _splitmix64(keys[:1] ^ keys[1:])[0]  # a scalar: xor with a (1,) array defeats temporary reuse
    h = _splitmix64(ks.astype(_U64) ^ base)
    h = _splitmix64(h + _U64(stream * 0xBF58476D1CE4E5B9 & _MASK64))
    mantissa = (h >> _U64(11)).astype(np.float64)
    if open_low:
        return (mantissa + 1.0) * 2.0**-53
    return mantissa * 2.0**-53


def _keyed_normals(seed: int, sequence: int, ks: np.ndarray) -> np.ndarray:
    u1 = _keyed_uniforms(seed, sequence, ks, stream=1, open_low=True)
    u2 = _keyed_uniforms(seed, sequence, ks, stream=2)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def simulate_reflection_events(
    plan: ScanPlan,
    scene_depth: DepthMap,
    geometry: SensorGeometry,
    noise: NoiseModel,
    sequence: int = 0,
) -> tuple[EventStream, dict[str, int]]:
    """Simulate the reflection camera's events for one scan plan.

    ``scene_depth`` must be sampled on the projector grid at scan time. Each
    firing at projector (row, col) with depth Z lands on camera column
    col - f * b / Z (nearest pixel, same row) and produces one positive event
    at fire time + latency + jitter, optionally dropped and quantized.
    Firings that leave the camera frame or hit invalid depth are discarded
    and counted in the returned tally. ``sequence`` keys the noise draws so
    distinct scan periods get independent noise under one seed.

    Returns the time-sorted stream and a tally of discarded firings.
    """
    if scene_depth.resolution != plan.resolution:
        raise ValueError(
            f"depth resolution {scene_depth.resolution} does not match plan {plan.resolution}"
        )
    cam_w, cam_h = geometry.cam_resolution
    tally = {"fired": len(plan), "emitted": 0, "invalid_depth": 0, "out_of_frame": 0, "dropped": 0}
    if len(plan) == 0:
        return EventStream.empty(geometry.cam_resolution), tally

    z = scene_depth.depth[plan.rows, plan.cols]
    depth_ok = scene_depth.valid[plan.rows, plan.cols]
    with np.errstate(divide="ignore", invalid="ignore"):
        disparity = geometry.focal_length_px * geometry.baseline_m / z
    cam_col = np.floor(plan.cols - disparity + 0.5)
    in_frame = depth_ok & (cam_col >= 0) & (cam_col < cam_w) & (plan.rows < cam_h)

    t = plan.fire_t_us + noise.latency_us
    if noise.jitter_anchors:
        # Modelling choice: sigma follows the period's mean firing rate, not the
        # local burst rate inside an ROI, so a sparser mask means less jitter.
        # Acceptance criterion 4's noise ordering across policies rests on it.
        sigma = timestamp_jitter_std(noise, plan.mean_event_rate)
        if sigma > 0:
            t = t + sigma * _keyed_normals(noise.seed, sequence, plan.k)
    dropped = np.zeros(len(plan), dtype=bool)
    if noise.drop_probability > 0:
        u = _keyed_uniforms(noise.seed, sequence, plan.k, stream=3)
        dropped = u < noise.drop_probability
    if noise.quantization_us > 0:
        t = np.floor(t / noise.quantization_us + 0.5) * noise.quantization_us
    t = np.maximum(t, 0.0)

    keep = in_frame & ~dropped
    tally["invalid_depth"] = int((~depth_ok).sum())
    tally["out_of_frame"] = int((depth_ok & ~in_frame).sum())
    tally["dropped"] = int((in_frame & dropped).sum())
    tally["emitted"] = int(keep.sum())

    stream = EventStream.from_arrays(
        geometry.cam_resolution,
        t[keep],
        cam_col[keep].astype(np.int32),
        plan.rows[keep],
        np.ones(int(keep.sum()), dtype=np.int8),
        sort=True,
    )
    return stream, tally
