import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evsl.events import EventStream, make_event_frame
from evsl.harness import load_scenario
from evsl.scene import (
    Background,
    CheckerTexture,
    GuideCameraModel,
    MovingObject,
    SceneScript,
    _object_box,
    _paint_order,
    _render_times,
    generate_guide_events,
    render_scene,
)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def plane_script(resolution=(32, 24), objects=()):
    return SceneScript(resolution, Background(2.0, 0.5), tuple(objects))


def intensity_image(background, resolution):
    """The background's intensity over the whole frame, as a new array."""
    w, h = resolution
    return background._intensity_window((0, h, 0, w))


def render_intensity(script, t_us):
    """Per-pixel intensity at ``t_us``: objects painted over the background farthest-first."""
    intensity = intensity_image(script.background, script.resolution)
    for obj in _paint_order(script):
        box = _object_box(obj, t_us, script.resolution)
        if box is not None:
            ya, yb, xa, xb = box
            intensity[ya:yb, xa:xb] = obj.intensity
    return intensity


class TestRenderScene:
    def test_background_only(self):
        img, dm = render_intensity(plane_script(), 0.0), render_scene(plane_script(), 0.0)
        assert np.all(img == 0.5)
        assert np.all(dm.depth == 2.0)
        assert dm.valid.all()

    def test_object_pixel_count(self):
        obj = MovingObject(5, 5, 10, 10, (0.0, 0.0), 1.0, 0.9)
        dm = render_scene(plane_script(objects=[obj]), 0.0)
        assert (dm.depth == 1.0).sum() == 100

    def test_kinematics_shift(self):
        obj = MovingObject(2, 5, 4, 4, (0.001, 0.0), 1.0, 0.9)
        at0 = render_scene(plane_script(objects=[obj]), 0.0)
        at10k = render_scene(plane_script(objects=[obj]), 10000.0)
        assert np.array_equal(np.roll(at0.depth == 1.0, 10, axis=1), at10k.depth == 1.0)

    def test_nearest_object_wins(self):
        near = MovingObject(4, 4, 6, 6, (0.0, 0.0), 0.5, 0.8)
        far = MovingObject(4, 4, 6, 6, (0.0, 0.0), 1.5, 0.3)
        dm = render_scene(plane_script(objects=[far, near]), 0.0)
        assert np.all(dm.depth[4:10, 4:10] == 0.5)

    def test_clipping_at_frame_edge(self):
        obj = MovingObject(-3, -3, 6, 6, (0.0, 0.0), 1.0, 0.9)
        dm = render_scene(plane_script(objects=[obj]), 0.0)
        assert (dm.depth == 1.0).sum() == 9

    @pytest.mark.parametrize("t_us", [-1.0, math.nan, math.inf])
    def test_time_not_finite_and_non_negative_rejected(self, t_us):
        with pytest.raises(ValueError, match=r"must be finite and non-negative$"):
            render_scene(plane_script(), t_us)

    def test_object_behind_background_rejected(self):
        with pytest.raises(ValueError, match="front"):
            plane_script(objects=[MovingObject(0, 0, 2, 2, (0, 0), 3.0, 0.9)])

    def test_resolution_of_2_31_pixels_rejected(self):
        with pytest.raises(ValueError, match=r"2\*\*31"):
            plane_script(resolution=(65536, 32768))

    def test_checker_texture(self):
        script = SceneScript((8, 8), Background(2.0, checker=CheckerTexture(2, 0.3, 0.7)))
        img = render_intensity(script, 0.0)
        assert img[0, 0] == 0.3
        assert img[0, 2] == 0.7
        assert img[2, 0] == 0.7

    @settings(max_examples=100)
    @given(tile=st.integers(1, 9), w=st.integers(1, 30), h=st.integers(1, 20), data=st.data())
    def test_window_of_checker_is_slice_of_full_image(self, tile, w, h, data):
        background = Background(2.0, checker=CheckerTexture(tile, 0.3, 0.7))
        ya, yb = sorted(data.draw(st.tuples(st.integers(0, h), st.integers(0, h)), label="rows"))
        xa, xb = sorted(data.draw(st.tuples(st.integers(0, w), st.integers(0, w)), label="cols"))
        window = background._intensity_window((ya, yb, xa, xb))
        full = intensity_image(background, (w, h))[ya:yb, xa:xb]
        assert window.dtype == full.dtype == np.float64
        np.testing.assert_array_equal(window, full)


class TestGuideEvents:
    def test_static_scene_is_silent(self):
        stream = generate_guide_events(plane_script(), GuideCameraModel(), (0.0, 50000.0))
        assert len(stream) == 0

    def test_threshold_multiples(self):
        # an object edge entering a pixel jumps its log intensity by 2.5 C
        c = 0.3
        bg = 0.2
        obj_intensity = bg * math.exp(2.5 * c)
        obj = MovingObject(-1.0, 0.0, 1, 1, (0.0008, 0.0), 1.0, obj_intensity)
        script = SceneScript((3, 1), Background(2.0, bg), (obj,))
        cam = GuideCameraModel(contrast_threshold=c, render_rate_hz=1000.0)
        # the object covers pixel 0 by the t=1000 render and stays until 1875
        stream = generate_guide_events(script, cam, (0.0, 1200.0))
        at0 = [e for e in stream if (e.x, e.y) == (0, 0)]
        assert len(at0) == 2
        assert all(e.p == 1 for e in at0)

    def test_edge_only_against_reference_model(self):
        obj = MovingObject(4, 6, 8, 6, (0.0008, 0.0), 1.0, 0.9)
        script = plane_script((32, 24), [obj])
        cam = GuideCameraModel(contrast_threshold=0.3, render_rate_hz=1000.0)
        stream = generate_guide_events(script, cam, (0.0, 40000.0))
        counts = make_event_frame(stream, (0.0, 40000.0)).counts

        # reference model: per-pixel sequential threshold bookkeeping over the
        # same render instants
        step = 1000.0
        times = [i * step for i in range(41)]
        ref = np.log(render_intensity(script, times[0]))
        expected = np.zeros((24, 32), dtype=int)
        for t in times[1:]:
            cur = np.log(render_intensity(script, t))
            dl = cur - ref
            n = np.floor(np.abs(dl) / 0.3).astype(int)
            expected += n
            ref += np.sign(dl) * n * 0.3
        assert np.array_equal(counts, expected)

    def test_interior_and_background_silent(self):
        obj = MovingObject(4, 6, 8, 6, (0.0008, 0.0), 1.0, 0.9)
        script = plane_script((32, 24), [obj])
        stream = generate_guide_events(script, GuideCameraModel(), (0.0, 20000.0))
        counts = make_event_frame(stream, (0.0, 20000.0)).counts
        # the object's vertical edges sweep x in [4, 4+16) and [12, 12+16);
        # rows outside the object must stay silent
        assert counts[:6, :].sum() == 0
        assert counts[12:, :].sum() == 0

    def test_doubling_threshold_never_raises_counts(self):
        obj = MovingObject(4, 6, 8, 6, (0.0006, 0.0004), 1.0, 0.95)
        script = plane_script((32, 24), [obj])
        lo = generate_guide_events(script, GuideCameraModel(contrast_threshold=0.2), (0.0, 30000.0))
        hi = generate_guide_events(script, GuideCameraModel(contrast_threshold=0.4), (0.0, 30000.0))
        lo_counts = make_event_frame(lo, (0.0, 30000.0)).counts
        hi_counts = make_event_frame(hi, (0.0, 30000.0)).counts
        assert np.all(hi_counts <= lo_counts)

    def test_sorted_and_inside_interval(self):
        obj = MovingObject(0, 0, 6, 6, (0.001, 0.0), 1.0, 0.9)
        script = plane_script((32, 24), [obj])
        stream = generate_guide_events(script, GuideCameraModel(), (10000.0, 30000.0))
        assert np.all(np.diff(stream.t) >= 0)
        assert len(stream) > 0
        assert stream.t[0] >= 10000.0
        assert stream.t[-1] < 30000.0

    @pytest.mark.parametrize("interval", [
        (-1.0, 20.0), (math.nan, 20.0), (0.0, math.nan), (20.0, 10.0), (0.0, math.inf), (math.inf, math.inf),
    ])
    def test_interval_not_finite_non_negative_and_ordered_rejected(self, interval):
        with pytest.raises(ValueError, match=r"must be finite, non-negative and ordered$"):
            generate_guide_events(plane_script(), GuideCameraModel(), interval)

    def test_background_noise_rate(self):
        cam = GuideCameraModel(noise_rate_hz=50.0)
        script = plane_script((32, 24))
        stream = generate_guide_events(script, cam, (0.0, 1_000_000.0), seed=123)
        expected = 50.0 * 32 * 24 * 1.0  # rate * pixels * seconds
        assert len(stream) == pytest.approx(expected, rel=0.2)
        again = generate_guide_events(script, cam, (0.0, 1_000_000.0), seed=123)
        assert np.array_equal(stream.t, again.t)

    def test_timestamps_interpolated_between_steps(self):
        c = 0.3
        bg = 0.2
        obj_intensity = bg * math.exp(2.2 * c)
        obj = MovingObject(-1.0, 0.0, 1, 1, (0.0008, 0.0), 1.0, obj_intensity)
        script = SceneScript((3, 1), Background(2.0, bg), (obj,))
        cam = GuideCameraModel(contrast_threshold=c, render_rate_hz=1000.0)
        stream = generate_guide_events(script, cam, (0.0, 1200.0))
        at0 = [e.t for e in stream if (e.x, e.y) == (0, 0)]
        assert len(at0) == 2
        step_start = math.floor(at0[0] / 1000.0) * 1000.0
        dl = math.log(obj_intensity) - math.log(bg)
        assert at0[0] == pytest.approx(step_start + 1000.0 * c / dl)
        assert at0[1] == pytest.approx(step_start + 1000.0 * 2 * c / dl)


def _full_frame_guide_events(script, camera, interval, seed=0):
    """Reference guide camera: re-renders and tests every pixel at every step."""
    t0, t1 = interval
    if not (0.0 <= t0 <= t1 < math.inf):
        raise ValueError(f"interval ({t0}, {t1}) must be finite, non-negative and ordered")
    if t1 <= t0:
        return EventStream.empty(script.resolution)

    c = camera.contrast_threshold
    step_us = 1e6 / camera.render_rate_hz
    times = _render_times(t0, t1, step_us)

    ref = np.log(render_intensity(script, times[0]))
    ts_parts: list[np.ndarray] = []
    xs_parts: list[np.ndarray] = []
    ys_parts: list[np.ndarray] = []
    ps_parts: list[np.ndarray] = []

    for t_prev, t_cur in zip(times[:-1], times[1:]):
        cur = np.log(render_intensity(script, t_cur))
        dl = cur - ref
        mag = np.abs(dl)
        cnt = np.floor(mag / c).astype(np.int64)
        ys, xs = np.nonzero(cnt)
        if len(ys):
            n_px = cnt[ys, xs]
            sign = np.sign(dl[ys, xs])
            # per-event crossing index j = 1..n within each firing pixel
            total = int(n_px.sum())
            rep = np.repeat(np.arange(len(ys)), n_px)
            j = np.arange(total) - np.repeat(np.cumsum(n_px) - n_px, n_px) + 1
            frac = (j * c) / mag[ys, xs][rep]
            ts_parts.append(t_prev + (t_cur - t_prev) * frac)
            xs_parts.append(xs[rep].astype(np.int32))
            ys_parts.append(ys[rep].astype(np.int32))
            ps_parts.append(sign[rep].astype(np.int8))
            ref[ys, xs] += sign * n_px * c

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


def assert_same_stream(got, want):
    assert got.resolution == want.resolution
    for name in ("t", "x", "y", "p"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


class TestGuideEventsMatchFullFrame:
    @pytest.mark.parametrize("name", ["moving_object", "plane_compare", "stationary"])
    def test_every_period_of_bundled_scenario(self, name):
        scenario = load_scenario(SCENARIOS / f"{name}.yaml")
        period_us = scenario.projector.period_us
        for p in range(scenario.periods):
            window = (p * period_us, (p + 1) * period_us)
            want = _full_frame_guide_events(scenario.script, scenario.guide_camera, window,
                                            seed=scenario.seed + p)
            got = generate_guide_events(scenario.script, scenario.guide_camera, window, seed=scenario.seed + p)
            assert_same_stream(got, want)

    def test_residual_reaching_threshold_fires_on_a_still_step(self):
        # log(o / bg) is 2 C up to rounding: the t=2000 step emits one event,
        # and the residual left in the reference is still C, so the pixel
        # fires again at t=3000 although the object's rectangle did not move
        c, bg = 0.3, 0.075
        obj = MovingObject(-1.0, 0.0, 1, 1, (0.0003, 0.0), 1.0, bg * math.exp(2 * c))
        script = SceneScript((3, 1), Background(2.0, bg), (obj,))
        camera = GuideCameraModel(contrast_threshold=c, render_rate_hz=1000.0)
        want = _full_frame_guide_events(script, camera, (0.0, 5000.0))
        assert np.count_nonzero((want.t > 2000.0) & (want.t <= 3000.0)) == 1
        assert_same_stream(generate_guide_events(script, camera, (0.0, 5000.0)), want)

    @settings(max_examples=200)
    @given(data=st.data())
    def test_random_scenes(self, data):
        w = data.draw(st.integers(4, 40), label="width")
        h = data.draw(st.integers(1, 30), label="height")
        unit = st.floats(0.05, 1.0)
        speed = st.sampled_from([0.0, 0.0004, -0.0007, 0.0013, -0.0025, 0.004, -0.011])  # px/us
        checker = data.draw(st.none() | st.builds(CheckerTexture, st.integers(1, 8), unit, unit),
                            label="checker")
        objects = [
            MovingObject(
                x0=data.draw(st.floats(-1.0 * w, 1.0 * w)),
                y0=data.draw(st.floats(-1.0 * h, 1.0 * h)),
                width=data.draw(st.integers(1, w)),
                height=data.draw(st.integers(1, h)),
                velocity=(data.draw(speed), data.draw(speed)),
                depth_m=data.draw(st.sampled_from([0.5, 1.0, 1.5, 2.5])),  # ties included
                intensity=data.draw(unit),
            )
            for _ in range(data.draw(st.integers(0, 4), label="objects"))
        ]
        script = SceneScript((w, h), Background(3.0, data.draw(unit), checker), tuple(objects))
        camera = GuideCameraModel(
            contrast_threshold=data.draw(st.sampled_from([0.05, 0.15, 0.3])),
            render_rate_hz=data.draw(st.sampled_from([1000.0, 700.0, 1300.0, 3000.0])),
            noise_rate_hz=data.draw(st.sampled_from([0.0, 400.0])),
        )
        t0 = data.draw(st.floats(0.0, 12000.0), label="t0")
        t1 = min(t0 + data.draw(st.floats(200.0, 8000.0), label="length"), 20000.0)
        seed = data.draw(st.integers(0, 2**16), label="seed")
        want = _full_frame_guide_events(script, camera, (t0, t1), seed)
        assert_same_stream(generate_guide_events(script, camera, (t0, t1), seed), want)
