"""Core event data types and windowed representations.

Timestamps are real-valued microseconds throughout, so sub-microsecond
raster steps and timing noise stay representable; quantization to a camera's
clock is an explicit step in the projector simulator. Every time window is
half-open, [t_start, t_end), so consecutive windows partition a stream
without double-counting boundary events. The exception is ``make_voxel_grid``'s
``(t0, span)``: an event weighs on the bins by its distance from their times,
so one less than ``span / (bins - 1)`` outside [t0, t0 + span] still counts
in part. Frames and
time surfaces address pixels by flat raster index ``y * W + x``. A time
surface starts as NaN and takes each event with ``np.fmax.at``, which keeps
the number over a NaN, so a pixel without an event holds NaN with no second
pass over the frame. Flat indices are split back into row and column in
int32, so a sensor, projector or scene holds fewer than 2**31 pixels.

Handing an array to a value type hands it over: the type keeps an array of
its dtype without copying and marks it read-only, so a later write raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np


class Event(NamedTuple):
    """One sensor event: timestamp in microseconds, pixel column/row, polarity."""

    t: float
    x: int
    y: int
    p: int


def _frozen(a, dtype) -> np.ndarray:
    """``a`` as a read-only array of ``dtype``, converted only if its dtype differs."""
    a = np.asarray(a, dtype=dtype)
    a.flags.writeable = False
    return a


def _take_frames(value, **dtypes) -> None:
    """Take over each named field of ``value`` as a read-only ``dtype`` array of shape (H, W)."""
    w, h = value.resolution
    for name, dtype in dtypes.items():
        a = _frozen(getattr(value, name), dtype)
        if a.shape != (h, w):
            raise ValueError(f"{name} shape must be (height, width)")
        object.__setattr__(value, name, a)


def _check_resolution(resolution: tuple[int, int], name: str = "resolution") -> None:
    """Reject a side below 1, and 2**31 pixels or more: flat raster indices are split in int32."""
    w, h = resolution
    if w < 1 or h < 1:
        raise ValueError(f"invalid {name} {resolution!r}")
    if w * h >= 2**31:
        raise ValueError(f"{name} {resolution!r} has {w * h} pixels; at most 2**31 - 1 are supported")


def _row_col(flat: np.ndarray, w: int) -> tuple[np.ndarray, np.ndarray]:
    """``(flat // w, flat % w)`` as int32, of flat indices in [0, 2**31): one division, no remainder."""
    col = flat.astype(np.int32)
    row = col // w
    col -= row * w
    return row, col


@dataclass(frozen=True)
class EventStream:
    """Time-sorted events bound to a sensor resolution.

    Events are stored as parallel 1-D arrays (t: float64 microseconds, x/y:
    int32, p: int8 in {-1, +1}). The stream takes the arrays over and marks
    them read-only; streams are plain values, safe to share across threads.
    Coordinates must be integral and inside the resolution, in any dtype: a
    fractional or NaN one is rejected, not truncated by the cast.
    """

    resolution: tuple[int, int]
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        _check_resolution(self.resolution)
        w, h = self.resolution
        # p, x and y are checked as given: the casts below would wrap 257 to 1 and 2**32 + 3 to 3,
        # and truncate 2.7 to 2. Each check is written so that a NaN fails, directly or through a
        # comparison with it; integer coordinates skip the integrality pass.
        t, x, y, p = (np.asarray(getattr(self, name)) for name in "txyp")
        if not np.all(np.abs(p) == 1):
            raise ValueError("polarity must be -1 or +1")
        if not (t.ndim == 1 and t.shape == x.shape == y.shape == p.shape):
            raise ValueError("event arrays must be 1-D and of equal length")
        if len(t) and not (x.min() >= 0 and x.max() < w and y.min() >= 0 and y.max() < h):
            raise ValueError("event coordinates outside resolution")
        if not all(a.dtype.kind in "biu" or np.array_equal(a, np.trunc(a)) for a in (x, y)):
            raise ValueError("event coordinates must be integers")
        for name, a, dtype in (("t", t, np.float64), ("x", x, np.int32), ("y", y, np.int32), ("p", p, np.int8)):
            object.__setattr__(self, name, _frozen(a, dtype))
        t = self.t
        if len(t):
            if not t[0] >= 0.0:
                raise ValueError("event timestamps must be non-negative")
            if not np.all(t[1:] >= t[:-1]):
                raise ValueError("event timestamps must be non-decreasing")
            if not np.isfinite(t[-1]):
                raise ValueError("event timestamps must be finite")
        object.__setattr__(self, "resolution", (int(w), int(h)))

    @classmethod
    def empty(cls, resolution: tuple[int, int]) -> "EventStream":
        z = np.empty(0)
        return cls(resolution, z, z, z, z)

    @classmethod
    def from_arrays(cls, resolution, t, x, y, p) -> "EventStream":
        """Build a stream from unsorted arrays with a stable sort by time."""
        t = np.asarray(t, dtype=np.float64)
        order = np.argsort(t, kind="stable")
        return cls(resolution, t[order], np.asarray(x)[order], np.asarray(y)[order], np.asarray(p)[order])

    @staticmethod
    def merge(streams: Iterable["EventStream"]) -> "EventStream":
        """Concatenate streams over the same resolution and re-sort by time."""
        streams = list(streams)
        if not streams:
            raise ValueError("nothing to merge")
        res = streams[0].resolution
        if any(s.resolution != res for s in streams):
            raise ValueError("streams have mismatched resolutions")
        t = np.concatenate([s.t for s in streams])
        x = np.concatenate([s.x for s in streams])
        y = np.concatenate([s.y for s in streams])
        p = np.concatenate([s.p for s in streams])
        return EventStream.from_arrays(res, t, x, y, p)

    def window_indices(self, t_start: float, t_end: float) -> tuple[int, int]:
        """Index range [i0, i1) of events with t_start <= t < t_end."""
        i0 = int(np.searchsorted(self.t, t_start, side="left"))
        i1 = int(np.searchsorted(self.t, t_end, side="left"))
        return i0, i1

    def __len__(self) -> int:
        return len(self.t)

    def __iter__(self) -> Iterator[Event]:
        for i in range(len(self.t)):
            yield Event(float(self.t[i]), int(self.x[i]), int(self.y[i]), int(self.p[i]))


@dataclass(frozen=True)
class EventFrame:
    """Per-pixel event counts accumulated over a time window."""

    resolution: tuple[int, int]
    counts: np.ndarray  # (H, W) int64
    window: tuple[float, float]

    def __post_init__(self):
        _take_frames(self, counts=np.int64)


@dataclass(frozen=True)
class TimeSurface:
    """Per-pixel timestamp of the most recent event in a window.

    Pixels without any event in the window hold NaN.
    """

    resolution: tuple[int, int]
    last_t: np.ndarray  # (H, W) float64, NaN where no event
    window: tuple[float, float]

    def __post_init__(self):
        _take_frames(self, last_t=np.float64)

    @property
    def occupied(self) -> np.ndarray:
        return np.isfinite(self.last_t)


@dataclass(frozen=True)
class VoxelGrid:
    """Spatio-temporal event tensor with bilinear temporal binning."""

    bins: int
    values: np.ndarray  # (B, H, W) float64
    window: tuple[float, float]  # (t0, t0 + span)

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values, np.float64))


@dataclass(frozen=True)
class DepthMap:
    """Per-pixel metric depth in meters plus a validity flag.

    Valid pixels carry strictly positive, finite depth. The type leaves this unchecked: ``render_scene``,
    ``reconstruct_depth`` and ``decode_log_depth`` build maps that meet it; ``encode_log_depth`` rejects others.
    """

    resolution: tuple[int, int]
    depth: np.ndarray  # (H, W) float64
    valid: np.ndarray  # (H, W) bool

    def __post_init__(self):
        _take_frames(self, depth=np.float64, valid=bool)

    @classmethod
    def constant(cls, resolution: tuple[int, int], depth_m: float) -> "DepthMap":
        w, h = resolution
        return cls(resolution, np.full((h, w), float(depth_m)), np.ones((h, w), dtype=bool))

    @property
    def valid_count(self) -> int:
        return int(np.count_nonzero(self.valid))


def _window_pixels(stream: EventStream, window: tuple[float, float]):
    """Flat ``y * W + x`` indices and timestamps (a view) of the events in [t_start, t_end), and the float window."""
    t0, t1 = window
    if t1 < t0:
        raise ValueError(f"invalid window ({t0}, {t1})")
    i0, i1 = stream.window_indices(t0, t1)
    flat = stream.y[i0:i1].astype(np.intp) * stream.resolution[0] + stream.x[i0:i1]
    return flat, stream.t[i0:i1], (float(t0), float(t1))


def make_event_frame(stream: EventStream, window: tuple[float, float]) -> EventFrame:
    """Count events per pixel over [t_start, t_end)."""
    w, h = stream.resolution
    flat, _, window = _window_pixels(stream, window)
    return EventFrame(stream.resolution, np.bincount(flat, minlength=w * h).reshape(h, w), window)


def make_time_surface(stream: EventStream, window: tuple[float, float]) -> TimeSurface:
    """Keep, per pixel, the latest event timestamp within [t_start, t_end)."""
    w, h = stream.resolution
    flat, t, window = _window_pixels(stream, window)
    last = np.full(w * h, np.nan)
    np.fmax.at(last, flat, t)
    return TimeSurface(stream.resolution, last.reshape(h, w), window)


def make_voxel_grid(stream: EventStream, window: tuple[float, float], bins: int = 5) -> VoxelGrid:
    """Accumulate polarities into temporal bins with a bilinear kernel.

    ``window`` is (t0, span). Each event lands at normalized time
    t* = (bins - 1) * (t - t0) / span and contributes p * max(0, 1 - |b - t*|)
    to bin b. Contributions falling outside [0, bins - 1] are clipped, so
    boundary bins only ever receive in-range weight.
    """
    if not isinstance(bins, (int, np.integer)) or bins < 2:
        raise ValueError("bins must be an integer >= 2")
    t0, span = window
    if span <= 0:
        raise ValueError("window span must be positive")
    w, h = stream.resolution
    values = np.zeros((bins, h, w))
    if len(stream):
        tstar = (bins - 1) / span * (stream.t - t0)
        i0 = np.floor(tstar).astype(np.int64)
        w1 = tstar - i0
        pol = stream.p.astype(np.float64)
        lo = (i0 >= 0) & (i0 <= bins - 1)
        np.add.at(values, (i0[lo], stream.y[lo], stream.x[lo]), pol[lo] * (1.0 - w1[lo]))
        hi = (i0 + 1 >= 0) & (i0 + 1 <= bins - 1) & (w1 > 0)
        np.add.at(values, (i0[hi] + 1, stream.y[hi], stream.x[hi]), pol[hi] * w1[hi])
    return VoxelGrid(int(bins), values, (float(t0), float(t0 + span)))


# The fixed log-depth encoding: alpha and d_max (meters).
_LOG_DEPTH_ALPHA = 5.7
_LOG_DEPTH_D_MAX_M = 1000.0


def encode_log_depth(depth_map: DepthMap) -> np.ndarray:
    """Encode metric depth d to log(d / 1000 m) / 5.7 + 1 (alpha 5.7, d_max 1000 m); invalid pixels become NaN."""
    d = depth_map.depth
    valid = depth_map.valid
    if np.any(valid & ~((d > 0) & (d < np.inf))):
        raise ValueError("valid pixels must have strictly positive, finite depth")
    out = np.full(d.shape, np.nan)
    out[valid] = np.log(d[valid] / _LOG_DEPTH_D_MAX_M) / _LOG_DEPTH_ALPHA + 1.0
    return out


def decode_log_depth(values: np.ndarray) -> DepthMap:
    """Decode v to d = 1000 m * exp(5.7 * (v - 1)); a pixel is valid only where d is finite and positive."""
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):
        depth = _LOG_DEPTH_D_MAX_M * np.exp(_LOG_DEPTH_ALPHA * (values - 1.0))
    valid = (depth > 0) & (depth < np.inf)
    depth[~valid] = 0.0
    h, w = values.shape
    return DepthMap((w, h), depth, valid)
