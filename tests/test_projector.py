import numpy as np
import pytest

from evsl.events import DepthMap
from evsl.policy import DensePolicy, IlluminationMask, SparsePolicy, build_mask
from evsl.projector import (
    NoiseModel,
    ProjectorModel,
    SENSOR_PRESETS,
    SensorGeometry,
    build_scan_plan,
    pixel_dwell_time,
    raster_event_rate,
    simulate_reflection_events,
    timestamp_jitter_std,
)


class TestDwellTime:
    def test_dense_1080p_at_60hz(self):
        assert pixel_dwell_time(60, 1920, 1080) == pytest.approx(1.0 / (60 * 1920 * 1080), rel=1e-12)
        assert pixel_dwell_time(60, 1920, 1080) == pytest.approx(8.038e-9, rel=1e-4)

    def test_full_stride_gives_period(self):
        assert pixel_dwell_time(60, 100, 50, stride=100 * 50) == pytest.approx(1.0 / 60, rel=1e-12)

    def test_dvs128_at_60hz_above_1us(self):
        dt = pixel_dwell_time(60, 128, 128)
        assert dt == pytest.approx(1.0 / (60 * 128 * 128), rel=1e-12)
        assert dt > 1e-6

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            pixel_dwell_time(0, 128, 128)
        with pytest.raises(ValueError):
            pixel_dwell_time(60, 128, 128, stride=0)


class TestEventRate:
    def test_gen4_anchors(self):
        at50 = raster_event_rate(50, 1280, 720)
        assert at50 == pytest.approx(46.08e6, rel=1e-12)
        assert abs(at50 - 44e6) / 44e6 < 0.06
        at290 = raster_event_rate(290, 1280, 720)
        assert at290 == pytest.approx(267.264e6, rel=1e-12)
        assert abs(at290 - 265e6) / 265e6 < 0.02

    def test_zero_fraction(self):
        assert raster_event_rate(60, 640, 480, 0.0) == 0.0

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            raster_event_rate(60, 640, 480, 1.5)


class TestPresets:
    def test_preset_resolutions(self):
        table = {p.name: p.resolution for p in SENSOR_PRESETS}
        assert table == {
            "DVS128": (128, 128),
            "DAVIS240": (240, 180),
            "DAVIS346": (346, 260),
            "ATIS": (302, 240),
            "Gen3_CD": (640, 480),
            "Gen3_ATIS": (480, 360),
            "Gen4_CD": (1280, 720),
        }


class TestScanPlan:
    def test_dense_gaps_equal_dwell(self):
        proj = ProjectorModel((16, 8), 60.0)
        plan = build_scan_plan(proj, build_mask(DensePolicy(), (16, 8)), 0.0)
        assert len(plan) == 128
        gaps = np.diff(plan.fire_t_us)
        assert np.allclose(gaps, proj.dwell_time_us, rtol=1e-9)

    def test_stride_gaps(self):
        proj = ProjectorModel((16, 8), 60.0)
        plan = build_scan_plan(proj, build_mask(SparsePolicy(4), (16, 8)), 0.0)
        gaps = np.diff(plan.fire_t_us)
        assert np.allclose(gaps, 4 * proj.dwell_time_us, rtol=1e-9)

    def test_empty_mask(self):
        proj = ProjectorModel((16, 8), 60.0)
        mask = IlluminationMask((16, 8), np.zeros((8, 16), bool))
        assert len(build_scan_plan(proj, mask, 0.0)) == 0

    def test_resolution_mismatch_rejected(self):
        proj = ProjectorModel((16, 8), 60.0)
        with pytest.raises(ValueError, match="resolution"):
            build_scan_plan(proj, build_mask(DensePolicy(), (8, 8)), 0.0)

    def test_masking_never_shifts_fire_times(self):
        # the raster clock never compresses: a pixel fires at the same time
        # under any mask that includes it
        proj = ProjectorModel((32, 16), 75.0)
        rng = np.random.default_rng(2)
        dense = build_scan_plan(proj, build_mask(DensePolicy(), (32, 16)), 100.0)
        dense_times = dict(zip(dense.k.tolist(), dense.fire_t_us.tolist()))
        for _ in range(5):
            mask = IlluminationMask((32, 16), rng.random((16, 32)) < 0.3)
            plan = build_scan_plan(proj, mask, 100.0)
            assert np.all(np.diff(plan.fire_t_us) > 0)
            for k, t in zip(plan.k.tolist(), plan.fire_t_us.tolist()):
                assert t == dense_times[k]

    def test_raster_order_row_major(self):
        proj = ProjectorModel((4, 3), 60.0)
        plan = build_scan_plan(proj, build_mask(DensePolicy(), (4, 3)), 0.0)
        assert list(plan.rows[:5]) == [0, 0, 0, 0, 1]
        assert list(plan.cols[:5]) == [0, 1, 2, 3, 0]


class TestJitterStd:
    def test_anchor_points(self):
        model = NoiseModel()
        assert timestamp_jitter_std(model, 10e6) == pytest.approx(10.0, rel=1e-9)
        assert timestamp_jitter_std(model, 265e6) == pytest.approx(200.0, rel=1e-9)

    def test_clamped_below_first_anchor(self):
        assert timestamp_jitter_std(NoiseModel(), 0.1e6) == pytest.approx(1.0)
        assert timestamp_jitter_std(NoiseModel(), 0.0) == pytest.approx(1.0)

    def test_clamped_above_last_anchor(self):
        assert timestamp_jitter_std(NoiseModel(), 1e9) == pytest.approx(200.0)

    def test_monotone_in_rate(self):
        model = NoiseModel()
        rates = np.logspace(4, 9, 60)
        stds = [timestamp_jitter_std(model, r) for r in rates]
        assert all(b >= a for a, b in zip(stds, stds[1:]))

    def test_empty_anchors_disable_jitter(self):
        assert timestamp_jitter_std(NoiseModel.noiseless(), 50e6) == 0.0

    def test_anchor_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            NoiseModel(jitter_anchors=((10.0, 10.0), (1.0, 1.0)))
        with pytest.raises(ValueError, match="non-decreasing"):
            NoiseModel(jitter_anchors=((1.0, 5.0), (10.0, 1.0)))

    def test_drop_probability_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(drop_probability=1.5)


def plane_setup(resolution=(64, 48), z=2.0, fx=600.0, b=0.04, f_hz=60.0):
    geom = SensorGeometry(resolution, resolution, fx, b)
    proj = ProjectorModel(resolution, f_hz)
    depth = DepthMap.constant(resolution, z)
    return geom, proj, depth


class TestSimulateReflection:
    def test_exact_disparity_and_times_with_zero_noise(self):
        geom, proj, depth = plane_setup()
        plan = build_scan_plan(proj, build_mask(DensePolicy(), (64, 48)), 0.0)
        stream, tally = simulate_reflection_events(plan, depth, geom, NoiseModel.noiseless())
        # disparity f*b/z = 12 px: projector columns < 12 leave the frame
        assert tally["out_of_frame"] == 12 * 48
        assert len(stream) == (64 - 12) * 48
        kept = plan.cols >= 12
        assert np.array_equal(np.sort(stream.t), np.sort(plan.fire_t_us[kept]))
        # each event sits 12 columns left of its firing
        surfed = {(int(y), int(x)) for x, y in zip(stream.x, stream.y)}
        expected = {(int(r), int(c) - 12) for r, c in zip(plan.rows[kept], plan.cols[kept])}
        assert surfed == expected

    def test_drop_probability_one_gives_empty_stream(self):
        geom, proj, depth = plane_setup()
        plan = build_scan_plan(proj, build_mask(DensePolicy(), (64, 48)), 0.0)
        nm = NoiseModel(jitter_anchors=(), quantization_us=0.0, drop_probability=1.0)
        stream, tally = simulate_reflection_events(plan, depth, geom, nm)
        assert len(stream) == 0
        assert tally["dropped"] == (64 - 12) * 48

    def test_seeded_jitter_is_bitwise_reproducible(self):
        geom, proj, depth = plane_setup()
        plan = build_scan_plan(proj, build_mask(DensePolicy(), (64, 48)), 0.0)
        nm = NoiseModel(seed=42)
        a, _ = simulate_reflection_events(plan, depth, geom, nm, sequence=3)
        b, _ = simulate_reflection_events(plan, depth, geom, nm, sequence=3)
        assert np.array_equal(a.t, b.t)
        assert np.array_equal(a.x, b.x)

    def test_noise_keyed_by_raster_index(self):
        # draws for a firing depend only on (seed, sequence, raster index), so
        # a sub-mask sees the same per-firing timestamps as the full mask
        geom, proj, depth = plane_setup()
        full = build_scan_plan(proj, build_mask(DensePolicy(), (64, 48)), 0.0)
        sub = build_scan_plan(proj, build_mask(SparsePolicy(7), (64, 48)), 0.0)
        nm = NoiseModel(seed=9)
        fs, _ = simulate_reflection_events(full, depth, geom, nm, sequence=1)
        ss, _ = simulate_reflection_events(sub, depth, geom, nm, sequence=1)
        full_by_pixel = {(int(x), int(y)): t for x, y, t in zip(fs.x, fs.y, fs.t)}
        for x, y, t in zip(ss.x, ss.y, ss.t):
            assert full_by_pixel[(int(x), int(y))] == t

    def test_different_sequences_differ(self):
        geom, proj, depth = plane_setup()
        plan = build_scan_plan(proj, build_mask(DensePolicy(), (64, 48)), 0.0)
        nm = NoiseModel(seed=42)
        a, _ = simulate_reflection_events(plan, depth, geom, nm, sequence=0)
        b, _ = simulate_reflection_events(plan, depth, geom, nm, sequence=1)
        assert not np.array_equal(a.t, b.t)

    def test_latency_shifts_timestamps(self):
        geom, proj, depth = plane_setup()
        plan = build_scan_plan(proj, build_mask(DensePolicy(), (64, 48)), 0.0)
        nm = NoiseModel(latency_us=250.0, jitter_anchors=(), quantization_us=0.0)
        stream, _ = simulate_reflection_events(plan, depth, geom, nm)
        base, _ = simulate_reflection_events(plan, depth, geom, NoiseModel.noiseless())
        assert np.allclose(np.sort(stream.t), np.sort(base.t) + 250.0)

    def test_quantization_snaps_to_clock(self):
        geom, proj, depth = plane_setup()
        plan = build_scan_plan(proj, build_mask(DensePolicy(), (64, 48)), 0.0)
        nm = NoiseModel(jitter_anchors=(), quantization_us=1.0)
        stream, _ = simulate_reflection_events(plan, depth, geom, nm)
        assert np.allclose(stream.t, np.round(stream.t))

    def test_invalid_depth_tallied(self):
        geom, proj, _ = plane_setup()
        w, h = 64, 48
        depth = DepthMap((w, h), np.full((h, w), 2.0), np.zeros((h, w), bool))
        plan = build_scan_plan(proj, build_mask(DensePolicy(), (64, 48)), 0.0)
        stream, tally = simulate_reflection_events(plan, depth, geom, NoiseModel.noiseless())
        assert len(stream) == 0
        assert tally["invalid_depth"] == w * h

    def test_mean_rate_matches_theory_with_drops(self):
        # rig with near-zero disparity so every firing stays in frame
        geom = SensorGeometry((200, 20), (200, 20), 100.0, 0.02)
        proj = ProjectorModel((200, 20), 60.0)
        depth = DepthMap.constant((200, 20), 10.0)
        nm = NoiseModel(jitter_anchors=(), quantization_us=0.0, drop_probability=0.25, seed=5)
        mask = build_mask(SparsePolicy(2), (200, 20))
        emitted = 0
        periods = 50
        for p in range(periods):
            plan = build_scan_plan(proj, mask, p * proj.period_us)
            stream, _ = simulate_reflection_events(plan, depth, geom, nm, sequence=p)
            emitted += len(stream)
        mean_rate = emitted / (periods * proj.period_us * 1e-6)
        theory = raster_event_rate(60, 200, 20, mask.fraction) * (1 - 0.25)
        assert mean_rate == pytest.approx(theory, rel=0.01)

    def test_timestamps_sorted_under_jitter(self):
        geom, proj, depth = plane_setup()
        plan = build_scan_plan(proj, build_mask(DensePolicy(), (64, 48)), 0.0)
        stream, _ = simulate_reflection_events(plan, depth, geom, NoiseModel(seed=1), sequence=2)
        assert np.all(np.diff(stream.t) >= 0)
        assert np.all(stream.t >= 0)
