"""Synthetic scene engine and the guide event camera.

Scenes are a textured background plane plus axis-aligned rectangles moving in
a fronto-parallel plane. The guide camera samples the scene at a fixed
internal rate, tracks a per-pixel reference log-intensity, and emits an event
whenever the log intensity crosses a multiple of the contrast threshold,
with the inter-frame crossing time recovered by linear interpolation.

Only moving rectangles change the image, so the camera keeps its per-pixel
state only over the box that every object rectangle of the interval spans
(outside it no pixel ever changes). At each internal step one boolean re-test
mask marks just the pixels that a moved rectangle left or entered, plus the
pixels that fired at the previous step (their reference moved by a multiple
of the threshold, and the floating-point residual can still reach it). A
pixel inside both the old and the new rectangle of every object that covers
it, or inside neither, is painted with the same value as before, so it has
the same intensity and reference as at a test that gave no event.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .events import DepthMap, EventStream, _check_resolution, _row_col

_Box = tuple[int, int, int, int]  # (ya, yb, xa, xb), half-open pixel ranges


@dataclass(frozen=True)
class CheckerTexture:
    """Two-level checkerboard used to texture the background plane."""

    tile_px: int = 16
    low: float = 0.4
    high: float = 0.6

    def __post_init__(self):
        if self.tile_px < 1:
            raise ValueError("tile_px must be >= 1")
        if not (0 < self.low <= 1 and 0 < self.high <= 1):
            raise ValueError("texture intensities must lie in (0, 1]")


@dataclass(frozen=True)
class Background:
    depth_m: float
    intensity: float = 0.5
    checker: CheckerTexture | None = None

    def __post_init__(self):
        if self.depth_m <= 0:
            raise ValueError("background depth must be positive")
        if not (0 < self.intensity <= 1):
            raise ValueError("background intensity must lie in (0, 1]")

    def _intensity_window(self, box: _Box) -> np.ndarray:
        """Intensity over the frame pixels of ``box``; checker tiles stay anchored at pixel (0, 0)."""
        ya, yb, xa, xb = box
        if self.checker is None:
            return np.full((yb - ya, xb - xa), self.intensity)
        tile = self.checker.tile_px
        parity = (np.arange(ya, yb)[:, None] // tile + np.arange(xa, xb) // tile) % 2
        return np.where(parity == 0, self.checker.low, self.checker.high).astype(np.float64)


@dataclass(frozen=True)
class MovingObject:
    """Axis-aligned rectangle translating at constant pixel velocity.

    Position is (x0 + vx * t, y0 + vy * t) at scene time t (microseconds),
    rounded to the nearest pixel at render time. The rectangle may leave the
    frame; rendering clips.
    """

    x0: float
    y0: float
    width: int
    height: int
    velocity: tuple[float, float] = (0.0, 0.0)
    depth_m: float = 1.0
    intensity: float = 0.9

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("object width/height must be >= 1")
        if self.depth_m <= 0:
            raise ValueError("object depth must be positive")
        if not (0 < self.intensity <= 1):
            raise ValueError("object intensity must lie in (0, 1]")


@dataclass(frozen=True)
class SceneScript:
    resolution: tuple[int, int]
    background: Background
    objects: tuple[MovingObject, ...] = ()

    def __post_init__(self):
        _check_resolution(self.resolution)
        for i, obj in enumerate(self.objects):
            if not obj.depth_m < self.background.depth_m:
                raise ValueError(f"objects[{i}]: object depth must be in front of the background")
        object.__setattr__(self, "objects", tuple(self.objects))


@dataclass(frozen=True)
class GuideCameraModel:
    """Threshold model of the guide event camera.

    ``contrast_threshold`` is the log-intensity step per event. The camera
    renders the scene at ``render_rate_hz`` to detect crossings.
    ``noise_rate_hz`` adds uniformly distributed spurious events per pixel
    per second (zero by default).
    """

    contrast_threshold: float = 0.3
    render_rate_hz: float = 1000.0
    noise_rate_hz: float = 0.0

    def __post_init__(self):
        if self.contrast_threshold <= 0:
            raise ValueError("contrast_threshold must be positive")
        if self.render_rate_hz <= 0:
            raise ValueError("render_rate_hz must be positive")
        if self.noise_rate_hz < 0:
            raise ValueError("noise_rate_hz must be non-negative")


def _object_box(obj: MovingObject, t_us: float, resolution: tuple[int, int]) -> _Box | None:
    """Frame-clipped pixel box of ``obj`` at ``t_us``; None when off-frame."""
    w, h = resolution
    x0 = int(math.floor(obj.x0 + obj.velocity[0] * t_us + 0.5))
    y0 = int(math.floor(obj.y0 + obj.velocity[1] * t_us + 0.5))
    xa, xb = max(x0, 0), min(x0 + obj.width, w)
    ya, yb = max(y0, 0), min(y0 + obj.height, h)
    return (ya, yb, xa, xb) if xa < xb and ya < yb else None


def _paint_order(script: SceneScript) -> list[MovingObject]:
    """Objects farthest-first, so painting in this order leaves the nearest on top."""
    return sorted(script.objects, key=lambda o: -o.depth_m)


def render_scene(script: SceneScript, t_us: float) -> DepthMap:
    """Render per-pixel metric depth at scene time ``t_us``.

    Objects are painted over the background farthest-first, so the nearest
    object wins where rectangles overlap. The guide camera paints intensity
    itself, on the pixels that change. ``t_us`` must be finite and
    non-negative.
    """
    if not (0.0 <= t_us < math.inf):
        raise ValueError(f"t={t_us} must be finite and non-negative")
    w, h = script.resolution
    depth = np.full((h, w), script.background.depth_m)
    objects = _paint_order(script)
    _paint(depth, [_object_box(obj, t_us, script.resolution) for obj in objects], [obj.depth_m for obj in objects])
    return DepthMap(script.resolution, depth, np.ones((h, w), dtype=bool))


def _render_times(t0: float, t1: float, step_us: float) -> np.ndarray:
    n = int(math.ceil((t1 - t0) / step_us))
    times = t0 + step_us * np.arange(n + 1)
    times[-1] = t1
    if n >= 1 and times[-2] >= t1:
        times = times[:-1]
        times[-1] = t1
    return times


def _bounding_box(a: _Box | None, b: _Box | None) -> _Box | None:
    """Smallest box holding both boxes; either may be None."""
    if a is None or b is None:
        return a if b is None else b
    return (min(a[0], b[0]), max(a[1], b[1]), min(a[2], b[2]), max(a[3], b[3]))


def _intersect(a: _Box | None, b: _Box | None) -> _Box | None:
    """Pixels of both boxes; None when they do not overlap or either is None."""
    if a is None or b is None:
        return None
    ya, yb, xa, xb = max(a[0], b[0]), min(a[1], b[1]), max(a[2], b[2]), min(a[3], b[3])
    return (ya, yb, xa, xb) if ya < yb and xa < xb else None


def _minus(a: _Box | None, b: _Box | None) -> list[_Box]:
    """Pixels of ``a`` outside ``b``, as at most four disjoint boxes."""
    common = _intersect(a, b)
    if common is None:
        return [] if a is None else [a]
    ya, yb, xa, xb = a
    ca, cb, cxa, cxb = common
    parts = [(ya, ca, xa, xb), (cb, yb, xa, xb), (ca, cb, xa, cxa), (ca, cb, cxb, xb)]
    return [(y0, y1, x0, x1) for y0, y1, x0, x1 in parts if y0 < y1 and x0 < x1]


def _paint(image: np.ndarray, boxes: list[_Box | None], values: np.ndarray) -> None:
    """Fill each box of ``image`` with its value, in order; None boxes are skipped."""
    for box, value in zip(boxes, values):
        if box is not None:
            ya, yb, xa, xb = box
            image[ya:yb, xa:xb] = value


def generate_guide_events(
    script: SceneScript,
    camera: GuideCameraModel,
    interval: tuple[float, float],
    seed: int = 0,
) -> EventStream:
    """Emit brightness-change events for ``interval`` (half-open).

    The interval ``(t0, t1)`` must be finite, with ``0 <= t0 <= t1``; an
    empty one gives no events.

    Per pixel the camera keeps a reference log-intensity; at each internal
    render step it emits floor(|dL| / C) events of sign(dL), where dL is the
    change relative to the reference, then advances the reference by the
    emitted multiple of C. Event timestamps are placed where the linear
    intensity ramp crosses each successive threshold level.

    The reference starts from the scene rendered at the interval start. The
    intensity and the reference are kept only over the bounding box of every
    object's clipped rectangle at every render step of the interval: outside
    it the background is never covered, so nothing changes and nothing fires.
    At each step a boolean re-test mask over the window marks two kinds of
    pixel: those that an object whose rectangle changed left (old minus new
    rectangle) or entered (new minus old), and those that fired at the
    previous step, because after ``ref += sign * n * C`` the floating-point
    residual can still reach C. Any other pixel is covered by the same
    objects as at the previous step, so it kept its intensity and its
    reference since a test that gave no event, and it cannot fire. The marked
    pixels are tested, and fire, in row-major order, as over the full frame.
    """
    t0, t1 = interval
    if not (0.0 <= t0 <= t1 < math.inf):
        raise ValueError(f"interval ({t0}, {t1}) must be finite, non-negative and ordered")
    if t1 <= t0:
        return EventStream.empty(script.resolution)

    c = camera.contrast_threshold
    step_us = 1e6 / camera.render_rate_hz
    times = _render_times(t0, t1, step_us)

    objects = _paint_order(script)
    obj_log = np.log(np.array([o.intensity for o in objects], dtype=np.float64))
    frame_boxes = [[_object_box(o, t, script.resolution) for o in objects] for t in times]
    # the state window: (0, 0, 0, 0) when no object is ever in frame
    window = reduce(_bounding_box, (b for boxes in frame_boxes for b in boxes), None) or (0, 0, 0, 0)
    oy, _, ox, _ = window
    steps = [[None if b is None else (b[0] - oy, b[1] - oy, b[2] - ox, b[3] - ox) for b in boxes]
             for boxes in frame_boxes]  # in window coordinates
    bg_log = np.log(script.background._intensity_window(window))
    ww = bg_log.shape[1]
    boxes = steps[0]
    cur = bg_log.copy()  # log intensity at the current render step, over the window
    _paint(cur, boxes, obj_log)
    ref = cur.copy()
    cur_flat, ref_flat = cur.ravel(), ref.ravel()
    retest = np.zeros(cur.shape, dtype=bool)  # the pixels to test at the next step
    retest_flat = retest.ravel()
    parts: list[tuple[np.ndarray, ...]] = []  # (t, x, y, p) per step; x and y int32, as _row_col gives

    for t_prev, t_cur, new_boxes in zip(times[:-1], times[1:], steps[1:]):
        strips = [s for a, b in zip(boxes, new_boxes) if a != b for s in (*_minus(a, b), *_minus(b, a))]
        boxes = new_boxes
        for strip in strips:
            ya, yb, xa, xb = strip
            cur[ya:yb, xa:xb] = bg_log[ya:yb, xa:xb]
            _paint(cur, [_intersect(box, strip) for box in boxes], obj_log)
            retest[ya:yb, xa:xb] = True

        tested = np.flatnonzero(retest)  # window flat indices in row-major order
        hit = np.abs(cur_flat[tested] - ref_flat[tested]) / c >= 1
        retest_flat[tested] = hit  # the firings stay marked for the next step
        fired = tested[hit]
        if len(fired):
            dl = cur_flat[fired] - ref_flat[fired]
            mag = np.abs(dl)
            n_px = np.floor(mag / c).astype(np.int64)
            sign = np.sign(dl)
            ys, xs = _row_col(fired, ww)
            # per-event crossing index j = 1..n within each firing pixel
            total = int(n_px.sum())
            rep = np.repeat(np.arange(len(fired)), n_px)
            j = np.arange(total) - np.repeat(np.cumsum(n_px) - n_px, n_px) + 1
            frac = (j * c) / mag[rep]
            parts.append((t_prev + (t_cur - t_prev) * frac, xs[rep] + ox, ys[rep] + oy, sign[rep].astype(np.int8)))
            ref_flat[fired] += sign * n_px * c

    if camera.noise_rate_hz > 0:
        w, h = script.resolution
        rng = np.random.default_rng((seed, int(round(t0 * 1000)), 0xD1CE))
        lam = camera.noise_rate_hz * w * h * (t1 - t0) * 1e-6
        n_noise = int(rng.poisson(lam))
        if n_noise:
            parts.append((rng.uniform(t0, t1, size=n_noise),
                          rng.integers(0, w, size=n_noise, dtype=np.int32),
                          rng.integers(0, h, size=n_noise, dtype=np.int32),
                          rng.choice(np.array([-1, 1], dtype=np.int8), size=n_noise)))

    if not parts:
        return EventStream.empty(script.resolution)
    t, x, y, p = map(np.concatenate, zip(*parts))
    keep = t < t1  # a crossing exactly at the interval end belongs to the next window
    return EventStream.from_arrays(script.resolution, t[keep], x[keep], y[keep], p[keep])
