"""The windowed guide stage gives the bytes of the full-frame one it replaced.

The parent's ``generate_guide_events`` (state over the whole frame, the box
spanning each moved rectangle's old and new position re-tested) and its
``_guide_period`` (median and ROI search over the whole frame) are kept below
verbatim as oracles, apart from their names, their interval check (a scene
has no length of its own) and the full-frame background, which
``test_scene.intensity_image`` now gives.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evsl
from evsl.events import EventStream, make_event_frame
from evsl.harness import Scenario, _guide_period, _window
from evsl.policy import EventGuidedPolicy, RoiSet, active_pixel_fraction, detect_roi, median_filter_frame
from evsl.scene import (
    Background, CheckerTexture, GuideCameraModel, MovingObject, SceneScript,
    _bounding_box, _object_box, _paint, _paint_order, _render_times,
)
from test_scene import assert_same_stream, intensity_image


# --------------------------------------------------------------------------
# Oracles: the parent's guide camera and guide stage, verbatim

def _parent_generate_guide_events(
    script: SceneScript,
    camera: GuideCameraModel,
    interval: tuple[float, float],
    seed: int = 0,
) -> EventStream:
    """Emit brightness-change events for ``interval`` (half-open).

    Per pixel the camera keeps a reference log-intensity; at each internal
    render step it emits floor(|dL| / C) events of sign(dL), where dL is the
    change relative to the reference, then advances the reference by the
    emitted multiple of C. Event timestamps are placed where the linear
    intensity ramp crosses each successive threshold level.

    The reference starts from the scene rendered at the interval start. At
    each step only two kinds of pixel are re-tested: those inside the
    bounding box of an object's clipped rectangle at the previous and the
    current step, for every object whose rectangle changed, and those that
    fired at the previous step, because after ``ref += sign * n * C`` the
    floating-point residual can still reach C. Any other pixel kept its
    intensity and its reference since a test that gave no event, so it
    cannot fire. Within a step, events are ordered by pixel in row-major
    order, as a test over the full frame would order them.
    """
    t0, t1 = interval
    if not (0.0 <= t0 <= t1 < math.inf):
        raise ValueError(f"interval ({t0}, {t1}) must be finite, non-negative and ordered")
    if t1 <= t0:
        return EventStream.empty(script.resolution)

    c = camera.contrast_threshold
    step_us = 1e6 / camera.render_rate_hz
    times = _render_times(t0, t1, step_us)
    w = script.resolution[0]

    objects = _paint_order(script)
    obj_log = np.log(np.array([o.intensity for o in objects], dtype=np.float64))
    bg_log = np.log(intensity_image(script.background, script.resolution))
    boxes = [_object_box(o, times[0], script.resolution) for o in objects]
    cur = bg_log.copy()  # log intensity at the current render step
    _paint(cur, boxes, obj_log)
    ref = cur.copy()
    cur_flat, ref_flat = cur.ravel(), ref.ravel()
    fired = np.empty(0, dtype=np.intp)  # flat indices that fired at the previous step
    ts_parts: list[np.ndarray] = []
    xs_parts: list[np.ndarray] = []
    ys_parts: list[np.ndarray] = []
    ps_parts: list[np.ndarray] = []

    for t_prev, t_cur in zip(times[:-1], times[1:]):
        new_boxes = [_object_box(o, t_cur, script.resolution) for o in objects]
        moved = [_bounding_box(a, b) for a, b in zip(boxes, new_boxes) if a != b]
        boxes = new_boxes
        if moved:
            for ya, yb, xa, xb in moved:
                cur[ya:yb, xa:xb] = bg_log[ya:yb, xa:xb]
            _paint(cur, boxes, obj_log)

        hits = [fired[np.abs(cur_flat[fired] - ref_flat[fired]) / c >= 1]]
        for ya, yb, xa, xb in moved:
            ys, xs = np.nonzero(np.abs(cur[ya:yb, xa:xb] - ref[ya:yb, xa:xb]) / c >= 1)
            hits.append((ys + ya) * w + (xs + xa))
        fired = np.unique(np.concatenate(hits))  # sorted flat indices: row-major order
        if len(fired):
            dl = cur_flat[fired] - ref_flat[fired]
            mag = np.abs(dl)
            n_px = np.floor(mag / c).astype(np.int64)
            sign = np.sign(dl)
            ys, xs = np.divmod(fired, w)
            # per-event crossing index j = 1..n within each firing pixel
            total = int(n_px.sum())
            rep = np.repeat(np.arange(len(fired)), n_px)
            j = np.arange(total) - np.repeat(np.cumsum(n_px) - n_px, n_px) + 1
            frac = (j * c) / mag[rep]
            ts_parts.append(t_prev + (t_cur - t_prev) * frac)
            xs_parts.append(xs[rep].astype(np.int32))
            ys_parts.append(ys[rep].astype(np.int32))
            ps_parts.append(sign[rep].astype(np.int8))
            ref_flat[fired] += sign * n_px * c

    if camera.noise_rate_hz > 0:
        w, h = script.resolution
        rng = np.random.default_rng((seed, int(round(t0 * 1000)), 0xD1CE))
        lam = camera.noise_rate_hz * w * h * (t1 - t0) * 1e-6
        n_noise = int(rng.poisson(lam))
        if n_noise:
            ts_parts.append(rng.uniform(t0, t1, size=n_noise))
            xs_parts.append(rng.integers(0, w, size=n_noise, dtype=np.int32))
            ys_parts.append(rng.integers(0, h, size=n_noise, dtype=np.int32))
            ps_parts.append(rng.choice(np.array([-1, 1], dtype=np.int8), size=n_noise))

    if not ts_parts:
        return EventStream.empty(script.resolution)
    t = np.concatenate(ts_parts)
    x = np.concatenate(xs_parts)
    y = np.concatenate(ys_parts)
    p = np.concatenate(ps_parts)
    keep = t < t1  # a crossing exactly at the interval end belongs to the next window
    return EventStream.from_arrays(script.resolution, t[keep], x[keep], y[keep], p[keep])


def _parent_guide_period(scenario: Scenario, p: int) -> tuple[EventStream, float, RoiSet | None]:
    """Guide stream of period ``p``, its active-pixel fraction, and the event-guided
    ROIs that the next period's mask uses (None where there is none); the frame is not kept."""
    window = _window(scenario, p)
    stream = _parent_generate_guide_events(scenario.script, scenario.guide_camera, window, seed=scenario.seed + p)
    frame = make_event_frame(stream, window)
    policy = scenario.policy
    guided = isinstance(policy, EventGuidedPolicy)
    active = active_pixel_fraction(frame, policy.active_threshold if guided else 1)
    if not guided or p + 1 == scenario.periods:
        return stream, active, None
    filtered = median_filter_frame(frame, policy.median_kernel_px)
    return stream, active, detect_roi(filtered, policy.active_threshold, policy.min_area_px, policy.dilation_px)


# --------------------------------------------------------------------------


def guide_scenario(resolution, objects, checker=None, camera=GuideCameraModel(), policy=EventGuidedPolicy(),
                   frequency_hz=200.0, periods=3, seed=0):
    script = SceneScript(resolution, Background(3.0, 0.45, checker), tuple(objects))
    return Scenario(
        script=script,
        geometry=evsl.SensorGeometry((8, 8), (8, 8), 600.0, 0.04),
        projector=evsl.ProjectorModel((8, 8), frequency_hz),
        noise=evsl.NoiseModel.noiseless(),
        policy=policy,
        periods=periods,
        guide_camera=camera,
        seed=seed,
    )


def assert_same_guide_stage(scenario, p):
    got, want = _guide_period(scenario, p), _parent_guide_period(scenario, p)
    assert_same_stream(got[0], want[0])
    assert got[1] == want[1]
    assert got[2] == want[2]
    return want


UNIT = st.floats(0.05, 1.0)
SPEED = st.sampled_from([0.0, 0.0004, -0.0007, 0.0013, -0.0025, 0.004, -0.011])  # px/us
# an object as fractions of the frame: it starts anywhere from one frame left
# (or above) to one frame right (or below), and spans up to the whole frame
OBJECT = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                   SPEED, SPEED, st.sampled_from([0.5, 1.0, 1.5, 2.5]), UNIT)  # depth ties included
CAMERA = st.builds(
    GuideCameraModel,
    contrast_threshold=st.sampled_from([0.05, 0.15, 0.3]),
    render_rate_hz=st.sampled_from([1000.0, 700.0, 1300.0, 3000.0]),
    noise_rate_hz=st.sampled_from([0.0, 0.0, 2000.0]),
)
POLICY = st.builds(
    EventGuidedPolicy,
    median_kernel_px=st.sampled_from([1, 3, 5, 7]),
    active_threshold=st.integers(1, 2),
    min_area_px=st.integers(1, 6),
    dilation_px=st.integers(0, 12),
)


class TestGuideStageMatchesParent:
    @settings(max_examples=150)
    @given(
        size=st.tuples(st.integers(1, 40), st.integers(1, 30)),
        objects=st.lists(OBJECT, min_size=1, max_size=4),
        checker=st.none() | st.builds(CheckerTexture, st.integers(1, 8), UNIT, UNIT),
        camera=CAMERA,
        policy=POLICY,
        frequency_hz=st.sampled_from([100.0, 200.0, 450.0]),
        seed=st.integers(0, 2**16),
        period=st.integers(0, 1),
    )
    def test_property(self, size, objects, checker, camera, policy, frequency_hz, seed, period):
        w, h = size
        objects = [
            MovingObject(fx * w, fy * h, 1 + int(fw * (w - 1)), 1 + int(fh * (h - 1)), (vx, vy), depth, intensity)
            for fx, fy, fw, fh, vx, vy, depth, intensity in objects
        ]
        scenario = guide_scenario(size, objects, checker, camera, policy, frequency_hz, seed=seed)
        assert_same_guide_stage(scenario, period)

    @pytest.mark.parametrize("edge", ["left", "right", "top", "bottom"])
    def test_events_on_each_sensor_edge(self, edge):
        # a tall or wide bar leaves through one edge; the dilation reaches past every edge
        w, h = 24, 16
        x0, y0, width, height, velocity = {
            "left": (1.0, 0.0, 4, h, (-0.002, 0.0)),
            "right": (w - 5.0, 0.0, 4, h, (0.002, 0.0)),
            "top": (0.0, 1.0, w, 4, (0.0, -0.002)),
            "bottom": (0.0, h - 5.0, w, 4, (0.0, 0.002)),
        }[edge]
        bar = MovingObject(x0, y0, width, height, velocity, 1.0, 0.9)
        scenario = guide_scenario((w, h), [bar], CheckerTexture(3, 0.3, 0.7),
                                  policy=EventGuidedPolicy(median_kernel_px=3, dilation_px=20))
        stream, _, rois = assert_same_guide_stage(scenario, 0)
        on_edge = {"left": stream.x == 0, "right": stream.x == w - 1,
                   "top": stream.y == 0, "bottom": stream.y == h - 1}[edge]
        assert on_edge.any()
        assert len(rois)

    def test_empty_guide_stream(self):
        still = MovingObject(3.0, 2.0, 5, 4, (0.0, 0.0), 1.0, 0.9)
        scenario = guide_scenario((16, 12), [still])
        stream, active, rois = assert_same_guide_stage(scenario, 0)
        assert len(stream) == 0 and active == 0.0 and rois == RoiSet(())
