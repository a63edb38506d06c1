"""Raster-scanning laser projector and the reflection event camera.

The projector visits pixels in row-major order on a fixed raster clock: the
pixel with raster index k fires at T0 + k / (f * W * H). Masking pixels off
never compresses the clock; a skipped pixel simply leaves the laser dark for
that slot. The reflection camera sees one positive event per firing, shifted
by the rectified disparity, with timing noise applied per the noise model.

Per-firing noise draws are counter-based: they are keyed by (seed, sequence,
raster index) through a splitmix64 hash, so generating events for any subset
of firings, in any order or in parallel, yields the same draws per firing.
The reflection simulator therefore draws them over blocks of at most
``_NOISE_BLOCK`` landing firings, so that the hash and the draws, computed in
place on arrays the noise chain owns, stay in cache on a dense period.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .events import DepthMap, EventStream, _check_resolution, _frozen, _row_col
from .policy import IlluminationMask


@dataclass(frozen=True)
class SensorGeometry:
    """Rectified camera-projector pair: rows are aligned, disparity is horizontal."""

    cam_resolution: tuple[int, int]
    proj_resolution: tuple[int, int]
    focal_length_px: float
    baseline_m: float = 0.04

    def __post_init__(self):
        _check_resolution(self.proj_resolution, "proj_resolution")  # first: the only grid a scenario file sets
        _check_resolution(self.cam_resolution, "cam_resolution")
        if self.focal_length_px <= 0:
            raise ValueError("focal_length_px must be positive")
        if self.baseline_m <= 0:
            raise ValueError("baseline_m must be positive")
        if not np.isfinite(self.focal_length_px * self.baseline_m):
            raise ValueError("focal_length_px * baseline_m must be finite")


@dataclass(frozen=True)
class ProjectorModel:
    resolution: tuple[int, int]
    frequency_hz: float = 60.0

    def __post_init__(self):
        _check_resolution(self.resolution)
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


def pixel_dwell_time(frequency_hz: float, width: int, height: int) -> float:
    """Seconds between consecutive raster slots of a dense scan."""
    return 1.0 / raster_event_rate(frequency_hz, width, height)


def raster_event_rate(frequency_hz: float, width: int, height: int) -> float:
    """Reflection events per second of a dense scan."""
    if frequency_hz <= 0 or width <= 0 or height <= 0:
        raise ValueError("frequency and resolution must be positive")
    return float(frequency_hz * width * height)


DEFAULT_JITTER_ANCHORS: tuple[tuple[float, float], ...] = ((1.0, 1.0), (10.0, 10.0), (265.0, 200.0))


@dataclass(frozen=True)
class NoiseModel:
    """Timing noise of the reflection camera.

    ``jitter_anchors`` are (event rate in MEv/s, timestamp std in us) pairs;
    the std at other rates is interpolated log-log and clamped at the ends.
    An empty anchor tuple disables jitter. ``quantization_us`` rounds event
    timestamps to the camera clock; 0 disables quantization.
    """

    jitter_anchors: tuple[tuple[float, float], ...] = DEFAULT_JITTER_ANCHORS
    drop_probability: float = 0.0
    quantization_us: float = 1.0

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
        object.__setattr__(self, "jitter_anchors", anchors)

    @classmethod
    def noiseless(cls) -> "NoiseModel":
        """Exact timestamps: no jitter, drops, or quantization."""
        return cls(jitter_anchors=(), drop_probability=0.0, quantization_us=0.0)


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

    def __post_init__(self):
        for name, dtype in (("k", np.int64), ("rows", np.int32), ("cols", np.int32), ("fire_t_us", np.float64)):
            object.__setattr__(self, name, _frozen(getattr(self, name), dtype))

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
    k = np.flatnonzero(mask.on)
    rows, cols = _row_col(k, projector.resolution[0])
    return ScanPlan(projector.resolution, float(t0_us), projector.period_us, k, rows, cols,
                    t0_us + k * projector.dwell_time_us)


_U64 = np.uint64
_MASK64 = 0xFFFFFFFFFFFFFFFF
_NOISE_BLOCK = 1 << 15  # landing keys per noise draw: keeps the hash and Box-Muller passes in cache


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer of uint64 ``x``, written over ``x``, which is returned."""
    x += _U64(0x9E3779B97F4A7C15)
    shifted = x >> _U64(30)
    x ^= shifted
    x *= _U64(0xBF58476D1CE4E5B9)
    x ^= np.right_shift(x, _U64(27), out=shifted)
    x *= _U64(0x94D049BB133111EB)
    x ^= np.right_shift(x, _U64(31), out=shifted)
    return x


def _keyed_hash(seed: int, sequence: int, ks: np.ndarray) -> np.ndarray:
    """Hash of (seed, sequence, raster index) per key, in a new array; each noise stream derives from it."""
    keys = _splitmix64(np.array([seed & _MASK64, (sequence + 1) * 0x9E3779B9 & _MASK64], dtype=_U64))
    h = ks.astype(_U64)
    h ^= _splitmix64(keys[:1] ^ keys[1:])[0]  # a scalar: xor with a (1,) array defeats temporary reuse
    return _splitmix64(h)


def _keyed_uniforms(h: np.ndarray, stream: int, open_low: bool = False) -> np.ndarray:
    """Deterministic uniforms in [0, 1) (or (0, 1]) of one stream, from :func:`_keyed_hash` values ``h``,
    which are left as they are: one hash of a block of keys serves every stream drawn for that block."""
    x = _splitmix64(h + _U64(stream * 0xBF58476D1CE4E5B9 & _MASK64))
    x >>= _U64(11)
    u = x.astype(np.float64)
    if open_low:
        u += 1.0
    u *= 2.0**-53
    return u


def _keyed_normals(h: np.ndarray) -> np.ndarray:
    """Box-Muller normals from streams 1 and 2 of ``h``, computed in the arrays of the two draws."""
    r = _keyed_uniforms(h, stream=1, open_low=True)
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    c = _keyed_uniforms(h, stream=2)
    c *= 2.0 * np.pi
    r *= np.cos(c, out=c)
    return r


@dataclass(frozen=True)
class ReflectionEvents:
    """A period's reflection events in fire order: the raster order of the firings that land.

    Timestamps are quantized but not sorted, so ``t`` may step back where
    jitter reorders neighbouring firings. The time surface needs no order;
    :meth:`time_sorted` gives the :class:`EventStream` a dump writes. The value
    takes its arrays over and marks them read-only, like the stream.
    """

    resolution: tuple[int, int]
    t: np.ndarray  # float64 microseconds, n * quantization_us for integer ticks n when quantized
    x: np.ndarray  # int32
    y: np.ndarray  # int32
    quantization_us: float

    def __post_init__(self):
        for name, dtype in (("t", np.float64), ("x", np.int32), ("y", np.int32)):
            object.__setattr__(self, name, _frozen(getattr(self, name), dtype))

    def __len__(self) -> int:
        return len(self.t)

    def time_sorted(self) -> EventStream:
        """The events stably sorted by time, by integer clock tick when quantized, as an :class:`EventStream`.

        When quantized, the ticks come back as n = ``rint(t / q)``: exactly n,
        for ticks below 2**51, since ``t`` is n * q rounded once. Ticks keep
        the order of their times n * q; when a period's ticks span at most
        0xFFFF, a uint16 key n - min(n) makes the stable sort a radix sort.
        The float ticks are freed before the sort, and the sorted ticks rebuilt
        as ``key[order] + min(n)``, exactly, since both are integers. The sort
        order permutes the columns and rows and is freed before the stream is
        built.
        """
        q = self.quantization_us
        t = self.t
        tick_key = False
        if q > 0:
            t = t / q
            np.rint(t, out=t)
            lo = t.min(initial=np.inf)
            tick_key = t.max(initial=0.0) - lo <= 0xFFFF
            if tick_key:
                t -= lo
                t = t.astype(np.uint16)  # the sort key; the float ticks are freed before the sort
        order = np.argsort(t, kind="stable")
        t = t[order]
        x = self.x[order]
        y = self.y[order]
        del order
        if tick_key:
            t = t + lo  # the sorted ticks n, exactly: integers that add without rounding
        if q > 0:
            t *= q
        return EventStream(self.resolution, t, x, y, np.ones(len(t), np.int8))


def simulate_reflection_events(
    plan: ScanPlan,
    scene_depth: DepthMap,
    geometry: SensorGeometry,
    noise: NoiseModel,
    sequence: int = 0,
    seed: int = 0,
) -> tuple[ReflectionEvents, dict[str, int]]:
    """Simulate the reflection camera's events for one scan plan.

    ``scene_depth`` must be sampled on the projector grid at scan time. Each
    firing at projector (row, col) with depth Z lands on camera column
    col - f * b / Z (nearest pixel, same row) and produces one positive event
    at fire time + jitter, optionally dropped and quantized.
    Firings that leave the camera frame or hit invalid depth are discarded
    and counted in the returned tally. ``seed`` and ``sequence`` key the noise
    draws: a run passes its scenario's seed and the period index, so distinct
    scan periods get independent noise under one seed.

    Noise is drawn only for firings that land in frame. That is exact: each
    draw is keyed by raster index, so a firing's jitter and drop do not depend
    on which others are drawn. Jitter sigma still follows all the plan's firings.
    For the same reason the draws run over blocks of ``_NOISE_BLOCK`` landing
    keys, in order: each block's one hash serves its jitter, added to its slice
    of the times, and its drop draws, written to its slice of one keep mask;
    the landing set is compressed by that mask once, after the last block.
    A landing set within one block runs the unblocked computation. Geometry,
    noise and quantization run on whole arrays, in place on the arrays they
    own, and the draws per firing are the same as computing each step in a
    new array.

    Each array is freed once nothing later reads it, so a dense period holds
    little more than its landing set: the camera columns of the landing
    firings are gathered, as int32, and the fired-size arrays freed before the
    draws; the rows are gathered and the landing indices freed after them.

    The events are returned unsorted, in fire order (the raster order of the
    landing firings), as :class:`ReflectionEvents`; its ``time_sorted()``
    gives them as a time-sorted :class:`EventStream`. The tally counts the
    discarded firings.
    """
    if scene_depth.resolution != plan.resolution:
        raise ValueError(
            f"depth resolution {scene_depth.resolution} does not match plan {plan.resolution}"
        )
    cam_w, cam_h = geometry.cam_resolution
    cam_col = np.take(scene_depth.depth, plan.k)  # Z, overwritten with floor(col - f * b / Z + 0.5)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(geometry.focal_length_px * geometry.baseline_m, cam_col, out=cam_col)
        np.subtract(plan.cols, cam_col, out=cam_col)
        cam_col += 0.5
        np.floor(cam_col, out=cam_col)
    in_frame = np.take(scene_depth.valid, plan.k)
    invalid_depth = len(plan) - int(np.count_nonzero(in_frame))
    in_frame &= (cam_col >= 0) & (cam_col < cam_w)
    in_frame &= plan.rows < cam_h
    landed = np.flatnonzero(in_frame)
    n_landed = len(landed)
    x = cam_col[landed]
    del cam_col, in_frame  # nothing reads the fired-size arrays past here
    x = x.astype(np.int32)  # integral: the stream then checks int32 coordinates in no extra pass

    t = plan.fire_t_us[landed]
    # Modelling choice: sigma follows the period's mean firing rate, not the
    # local burst rate inside an ROI, so a sparser mask means less jitter.
    # Acceptance criterion 4's noise ordering across policies rests on it.
    # numpy elides the temporary: sigma scales the normals in their own array.
    sigma = timestamp_jitter_std(noise, plan.mean_event_rate)  # 0 without jitter anchors
    drops = noise.drop_probability > 0
    if sigma > 0 or drops:
        kept = np.empty(n_landed, bool) if drops else None
        for i in range(0, n_landed, _NOISE_BLOCK):  # the last block may be short
            j = i + _NOISE_BLOCK
            h = _keyed_hash(seed, sequence, plan.k[landed[i:j]])  # one hash for the jitter and the drop draws
            if sigma > 0:
                t[i:j] += sigma * _keyed_normals(h)
            if drops:
                np.greater_equal(_keyed_uniforms(h, stream=3), noise.drop_probability, out=kept[i:j])
            del h  # freed before the next block's hash
        if drops:
            landed, t, x = landed[kept], t[kept], x[kept]
    y = plan.rows[landed]
    del landed
    q = noise.quantization_us
    if q > 0:  # t becomes the clock tick n = max(floor(t / q + 0.5), 0)
        t /= q
        t += 0.5
        np.floor(t, out=t)
    np.maximum(t, 0.0, out=t)

    tally = {"fired": len(plan), "emitted": len(t), "invalid_depth": invalid_depth,
             "out_of_frame": len(plan) - invalid_depth - n_landed, "dropped": n_landed - len(t)}
    if q > 0:
        t *= q
    return ReflectionEvents(geometry.cam_resolution, t, x, y, q), tally
