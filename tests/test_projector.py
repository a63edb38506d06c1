import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evsl import harness, projector
from evsl.depth import reconstruct_depth
from evsl.events import DepthMap, EventStream, make_time_surface
from evsl.policy import DensePolicy, IlluminationMask, SparsePolicy, build_mask
from evsl.projector import (
    DEFAULT_JITTER_ANCHORS,
    NoiseModel,
    ProjectorModel,
    ReflectionEvents,
    SENSOR_PRESETS,
    ScanPlan,
    SensorGeometry,
    _MASK64,
    _U64,
    _keyed_hash,
    _keyed_normals,
    _keyed_uniforms,
    _splitmix64,
    build_scan_plan,
    pixel_dwell_time,
    raster_event_rate,
    simulate_reflection_events,
    timestamp_jitter_std,
)
from evsl.scene import render_scene
from test_events import _parent_make_time_surface

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


class TestDwellTime:
    def test_dense_1080p_at_60hz(self):
        assert pixel_dwell_time(60, 1920, 1080) == pytest.approx(1.0 / (60 * 1920 * 1080), rel=1e-12)
        assert pixel_dwell_time(60, 1920, 1080) == pytest.approx(8.038e-9, rel=1e-4)

    def test_dvs128_at_60hz_above_1us(self):
        dt = pixel_dwell_time(60, 128, 128)
        assert dt == pytest.approx(1.0 / (60 * 128 * 128), rel=1e-12)
        assert dt > 1e-6

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            pixel_dwell_time(0, 128, 128)


class TestEventRate:
    def test_gen4_anchors(self):
        at50 = raster_event_rate(50, 1280, 720)
        assert at50 == pytest.approx(46.08e6, rel=1e-12)
        assert abs(at50 - 44e6) / 44e6 < 0.06
        at290 = raster_event_rate(290, 1280, 720)
        assert at290 == pytest.approx(267.264e6, rel=1e-12)
        assert abs(at290 - 265e6) / 265e6 < 0.02


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


class TestResolutionGuard:
    """Flat raster indices are split in int32, so a raster holds fewer than 2**31 pixels."""

    def test_projector_at_2_31_pixels_rejected(self):
        # checked before any array exists: the rejected raster allocates nothing
        with pytest.raises(ValueError, match=r"2\*\*31"):
            ProjectorModel((65536, 32768))

    def test_geometry_checks_both_resolutions(self):
        with pytest.raises(ValueError, match="cam_resolution"):
            SensorGeometry((65536, 32768), (64, 48), 600.0)
        with pytest.raises(ValueError, match="proj_resolution"):
            SensorGeometry((64, 48), (2**31, 1), 600.0)

    def test_largest_raster_accepted(self):
        assert ProjectorModel((2**31 - 1, 1)).pixel_count == 2**31 - 1

    def test_event_stream_at_2_31_pixels_rejected(self):
        with pytest.raises(ValueError, match=r"2\*\*31"):
            EventStream.empty((65536, 32768))


def _parent_build_scan_plan(projector: ProjectorModel, mask: IlluminationMask, t0_us: float = 0.0) -> ScanPlan:
    """Schedule fire times for every masked-on pixel in raster order."""
    if mask.resolution != projector.resolution:
        raise ValueError(
            f"mask resolution {mask.resolution} does not match projector {projector.resolution}"
        )
    w, _ = projector.resolution
    k = np.flatnonzero(mask.on)
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


# widths of one pixel, primes, and the bundled scenarios' widths
WIDTHS = (1, 2, 3, 5, 7, 13, 31, 127, 640, 1024)


class TestScanPlanMatchesOracle:
    """The int32 row and column split gives the int64 ``//`` and ``%`` plan's bytes."""

    @settings(max_examples=60)
    @given(w=st.sampled_from(WIDTHS), h=st.integers(1, 24), lit=st.sampled_from([0.0, 0.3, 1.0]),
           seed=st.integers(0, 2**32 - 1), t0=st.sampled_from([0.0, 12345.6]))
    def test_property(self, w, h, lit, seed, t0):
        self.check(ProjectorModel((w, h)), np.random.default_rng(seed).random((h, w)) < lit, t0)

    @pytest.mark.parametrize("resolution", [(640, 480), (1024, 320)])
    def test_bundled_dense(self, resolution):
        self.check(ProjectorModel(resolution), np.ones(resolution[::-1], bool), 1000.0)

    @staticmethod
    def check(projector, on, t0):
        mask = IlluminationMask(projector.resolution, on)
        got, want = build_scan_plan(projector, mask, t0), _parent_build_scan_plan(projector, mask, t0)
        assert (got.resolution, got.t0_us, got.period_us) == (want.resolution, want.t0_us, want.period_us)
        for name in ("k", "rows", "cols", "fire_t_us"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


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
        nm = NoiseModel()
        a, _ = simulate_reflection_events(plan, depth, geom, nm, sequence=3, seed=42)
        b, _ = simulate_reflection_events(plan, depth, geom, nm, sequence=3, seed=42)
        assert np.array_equal(a.t, b.t)
        assert np.array_equal(a.x, b.x)

    def test_noise_keyed_by_raster_index(self):
        # draws for a firing depend only on (seed, sequence, raster index), so
        # a sub-mask sees the same per-firing timestamps as the full mask
        geom, proj, depth = plane_setup()
        full = build_scan_plan(proj, build_mask(DensePolicy(), (64, 48)), 0.0)
        sub = build_scan_plan(proj, build_mask(SparsePolicy(7), (64, 48)), 0.0)
        nm = NoiseModel()
        fs, _ = simulate_reflection_events(full, depth, geom, nm, sequence=1, seed=9)
        ss, _ = simulate_reflection_events(sub, depth, geom, nm, sequence=1, seed=9)
        full_by_pixel = {(int(x), int(y)): t for x, y, t in zip(fs.x, fs.y, fs.t)}
        for x, y, t in zip(ss.x, ss.y, ss.t):
            assert full_by_pixel[(int(x), int(y))] == t

    def test_different_sequences_differ(self):
        geom, proj, depth = plane_setup()
        plan = build_scan_plan(proj, build_mask(DensePolicy(), (64, 48)), 0.0)
        nm = NoiseModel()
        a, _ = simulate_reflection_events(plan, depth, geom, nm, sequence=0, seed=42)
        b, _ = simulate_reflection_events(plan, depth, geom, nm, sequence=1, seed=42)
        assert not np.array_equal(a.t, b.t)

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
        nm = NoiseModel(jitter_anchors=(), quantization_us=0.0, drop_probability=0.25)
        mask = build_mask(SparsePolicy(2), (200, 20))
        emitted = 0
        periods = 50
        for p in range(periods):
            plan = build_scan_plan(proj, mask, p * proj.period_us)
            stream, _ = simulate_reflection_events(plan, depth, geom, nm, sequence=p, seed=5)
            emitted += len(stream)
        mean_rate = emitted / (periods * proj.period_us * 1e-6)
        theory = raster_event_rate(60, 200, 20) * mask.fraction * (1 - 0.25)
        assert mean_rate == pytest.approx(theory, rel=0.01)

    def test_timestamps_sorted_under_jitter(self):
        geom, proj, depth = plane_setup()
        plan = build_scan_plan(proj, build_mask(DensePolicy(), (64, 48)), 0.0)
        events, _ = simulate_reflection_events(plan, depth, geom, NoiseModel(), sequence=2, seed=1)
        assert np.any(np.diff(events.t) < 0)  # jitter reorders neighbouring firings in fire order
        stream = events.time_sorted()
        assert np.all(np.diff(stream.t) >= 0)
        assert np.all(stream.t >= 0)


def _parent_splitmix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 as it was before it worked in place: each step makes a new array."""
    x = x + _U64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> _U64(27))) * _U64(0x94D049BB133111EB)
    return x ^ (x >> _U64(31))


def oracle_keyed_uniforms(seed: int, sequence: int, ks: np.ndarray, stream: int, open_low: bool = False) -> np.ndarray:
    """The keyed uniforms as they were before one hash per key served every stream
    and before the chain worked in place."""
    keys = _parent_splitmix64(np.array([seed & _MASK64, (sequence + 1) * 0x9E3779B9 & _MASK64], dtype=_U64))
    base = _parent_splitmix64(keys[:1] ^ keys[1:])[0]  # a scalar: xor with a (1,) array defeats temporary reuse
    h = _parent_splitmix64(ks.astype(_U64) ^ base)
    h = _parent_splitmix64(h + _U64(stream * 0xBF58476D1CE4E5B9 & _MASK64))
    mantissa = (h >> _U64(11)).astype(np.float64)
    if open_low:
        return (mantissa + 1.0) * 2.0**-53
    return mantissa * 2.0**-53


def oracle_keyed_normals(seed: int, sequence: int, ks: np.ndarray) -> np.ndarray:
    u1 = oracle_keyed_uniforms(seed, sequence, ks, stream=1, open_low=True)
    u2 = oracle_keyed_uniforms(seed, sequence, ks, stream=2)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


class TestKeyedNoiseMatchesOracle:
    """Hashing each key once, in place, gives every stream the bytes of hashing it per stream
    in new arrays; the draws leave the hash as it was."""

    def test_splitmix64_writes_over_its_argument(self):
        x = np.random.default_rng(3).integers(0, 2**64 - 1, 1000, dtype=np.uint64, endpoint=True)
        want = _parent_splitmix64(x)
        assert _splitmix64(x) is x and x.tobytes() == want.tobytes()

    @settings(max_examples=100)
    @given(
        seed=st.integers(0, 2**64 - 1) | st.sampled_from([0, 2**31, 2**63]),
        sequence=st.integers(0, 2**40),
        n=st.integers(0, 300),
        key_seed=st.integers(0, 2**32 - 1),
    )
    def test_property(self, seed, sequence, n, key_seed):
        ks = np.random.default_rng(key_seed).integers(0, 2**40, n)
        h = _keyed_hash(seed, sequence, ks)
        before = h.copy()
        got = (_keyed_uniforms(h, 1, open_low=True), _keyed_uniforms(h, 2), _keyed_uniforms(h, 3), _keyed_normals(h))
        assert h.tobytes() == before.tobytes()
        want = (
            oracle_keyed_uniforms(seed, sequence, ks, 1, open_low=True),
            oracle_keyed_uniforms(seed, sequence, ks, 2),
            oracle_keyed_uniforms(seed, sequence, ks, 3),
            oracle_keyed_normals(seed, sequence, ks),
        )
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def oracle_simulate_reflection_events(
    plan: ScanPlan,
    scene_depth: DepthMap,
    geometry: SensorGeometry,
    noise: NoiseModel,
    sequence: int = 0,
    seed: int = 0,
) -> tuple[EventStream, dict[str, int]]:
    """The simulator as it was before it drew noise only for landing firings:
    every firing gets its jitter and drop, and the out-of-frame ones are
    discarded afterwards. It quantizes to float times and orders them with the
    stable float sort of ``EventStream.from_arrays``, not on clock ticks."""
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

    t = plan.fire_t_us
    if noise.jitter_anchors:
        # Modelling choice: sigma follows the period's mean firing rate, not the
        # local burst rate inside an ROI, so a sparser mask means less jitter.
        # Acceptance criterion 4's noise ordering across policies rests on it.
        sigma = timestamp_jitter_std(noise, plan.mean_event_rate)
        if sigma > 0:
            t = t + sigma * oracle_keyed_normals(seed, sequence, plan.k)
    dropped = np.zeros(len(plan), dtype=bool)
    if noise.drop_probability > 0:
        u = oracle_keyed_uniforms(seed, sequence, plan.k, stream=3)
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
    )
    return stream, tally


@st.composite
def reflection_cases(draw):
    """A plan, a depth map with invalid pixels, a rig, a noise model, and the sequence and seed of the draws.

    Camera and projector sizes are drawn apart, so firings leave the camera
    frame past its right edge and below its last row as well as past the
    left edge (disparity larger than the projector column).
    """
    pw, ph = draw(st.integers(1, 40), label="proj_w"), draw(st.integers(1, 12), label="proj_h")
    cw, ch = draw(st.integers(1, 40), label="cam_w"), draw(st.integers(1, 12), label="cam_h")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    on = rng.random((ph, pw)) < draw(st.sampled_from([0.0, 0.2, 0.5, 1.0]), label="lit")
    valid = rng.random((ph, pw)) < draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]), label="valid")
    depth = np.where(valid, rng.uniform(0.05, 2.0, (ph, pw)), draw(st.sampled_from([0.0, np.nan, 1.0])))
    projector = ProjectorModel((pw, ph), draw(st.sampled_from([60.0, 2000.0]), label="hz"))
    plan = build_scan_plan(projector, IlluminationMask((pw, ph), on), draw(st.sampled_from([0.0, 12345.6])))
    geometry = SensorGeometry((cw, ch), (pw, ph), draw(st.sampled_from([1.0, 10.0, 40.0])), 0.05)
    noise = NoiseModel(
        # these tiny rasters fire at 60 Ev/s to 1 MEv/s, below the default anchors,
        # so the last anchors make sigma depend on the plan's firing rate
        jitter_anchors=draw(st.sampled_from([(), DEFAULT_JITTER_ANCHORS, ((1e-4, 0.5), (0.1, 40.0))])),
        drop_probability=draw(st.sampled_from([0.0, 0.1, 1.0])),
        # at 60 Hz a 0.25 us clock gives a period more ticks than a uint16 key holds
        quantization_us=draw(st.sampled_from([0.0, 0.25, 1.0, 2.5])),
    )
    sequence, seed = draw(st.integers(0, 50), label="sequence"), draw(st.integers(0, 2**31), label="noise_seed")
    return plan, DepthMap((pw, ph), depth, valid), geometry, noise, sequence, seed


class TestReflectionMatchesOracle:
    """Drawing noise only for landing firings, in blocks of landing keys, gives the oracle's bytes and tally."""

    @settings(max_examples=300)
    @given(reflection_cases())
    def test_property(self, case):
        assert_matches_oracle(*case)

    @pytest.mark.parametrize("block", [1, 7, 64])
    @settings(max_examples=100)
    @given(case=reflection_cases())
    def test_property_at_block_size(self, block, case):
        # up to 480 landing keys: block sizes this small put many block edges in every case
        with mock.patch.object(projector, "_NOISE_BLOCK", block):
            assert_matches_oracle(*case)

    @pytest.mark.parametrize(
        "quantization_us, f_hz",
        [(0.0, 60.0), (0.25, 60.0), (1.0, 60.0), (2.5, 60.0), (0.0, 2000.0)],
        ids=["0.0", "0.25", "1.0", "2.5", "0.0-2kHz"],
    )
    def test_dense_period_each_sort_key(self, quantization_us, f_hz):
        # a dense 64x48 period at 60 Hz spans 66,667 ticks of 0.25 us, past the uint16 key;
        # at 2 kHz firings are 0.16 us apart, so jitter reorders them within one microsecond
        geom, proj, depth = plane_setup(f_hz=f_hz)
        plan = build_scan_plan(proj, build_mask(DensePolicy(), (64, 48)), 1000.0)
        assert_matches_oracle(plan, depth, geom, NoiseModel(quantization_us=quantization_us), 2, 4)

    @pytest.mark.parametrize("block", [1, 7, 64, 1 << 15])
    def test_dense_period_with_drops_at_block_size(self, block):
        # 2,496 landing keys: 2,496 blocks of one key down to one block of all of them
        geom, proj, depth = plane_setup()
        plan = build_scan_plan(proj, build_mask(DensePolicy(), (64, 48)), 1000.0)
        with mock.patch.object(projector, "_NOISE_BLOCK", block):
            assert_matches_oracle(plan, depth, geom, NoiseModel(drop_probability=0.1), 2, 4)

    @pytest.mark.parametrize("quantization_us", [0.1, 0.3])
    def test_dense_period_on_an_inexact_clock(self, quantization_us):
        # n * q / q misses n by an ulp for some ticks: the sort rounds the ticks back. A dense 64x48
        # period at 60 Hz spans 166,667 ticks of 0.1 us, past the uint16 key, and 55,556 of 0.3 us
        geom, proj, depth = plane_setup()
        plan = build_scan_plan(proj, build_mask(DensePolicy(), (64, 48)), 1000.0)
        assert_matches_oracle(plan, depth, geom, NoiseModel(quantization_us=quantization_us), 2, 4)


def assert_matches_oracle(plan, depth, geometry, noise, sequence, seed):
    got, got_tally = simulate_reflection_events(plan, depth, geometry, noise, sequence, seed)
    want, want_tally = oracle_simulate_reflection_events(plan, depth, geometry, noise, sequence, seed)
    assert list(got_tally.items()) == list(want_tally.items())
    assert_fire_order_sorts_to(got, want, plan)


def assert_fire_order_sorts_to(events, want, plan):
    """``events`` are in fire order, sort to the stream ``want`` and give its time surfaces."""
    assert isinstance(events, ReflectionEvents)
    assert np.all(events.y[1:] >= events.y[:-1])  # the raster order of the landing firings: rows first
    assert_same_stream(events.time_sorted(), want)
    t = want.t
    windows = [(plan.t0_us, plan.t0_us + plan.period_us), (0.0, 0.0)]
    if len(t):  # ends on event times: events before the start and at or after the end fall outside
        n = len(t)
        windows += [(t[n // 4], t[3 * n // 4]), (t[0], t[-1]), (t[n // 2], t[n // 2])]
    for window in windows:  # as the sorted stream's surface under the parent's search of its sorted times
        a, b = make_time_surface(events, window), _parent_make_time_surface(want, window)
        assert a.window == b.window, window
        assert a.last_t.tobytes() == b.last_t.tobytes(), window


def _parent_simulate_reflection_events(
    plan: ScanPlan,
    scene_depth: DepthMap,
    geometry: SensorGeometry,
    noise: NoiseModel,
    sequence: int = 0,
    seed: int = 0,
) -> tuple[EventStream, dict[str, int]]:
    """The simulator as it was before it drew the noise in blocks of landing keys:
    one hash and one chain of draws over every landing key at once."""
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

    t = plan.fire_t_us[landed]
    # Modelling choice: sigma follows the period's mean firing rate, not the
    # local burst rate inside an ROI, so a sparser mask means less jitter.
    # Acceptance criterion 4's noise ordering across policies rests on it.
    # numpy elides the temporary: sigma scales the normals in their own array.
    sigma = timestamp_jitter_std(noise, plan.mean_event_rate)  # 0 without jitter anchors
    if sigma > 0 or noise.drop_probability > 0:
        h = _keyed_hash(seed, sequence, plan.k[landed])  # one hash for the jitter and the drop draws
        if sigma > 0:
            t += sigma * _keyed_normals(h)
        if noise.drop_probability > 0:
            kept = _keyed_uniforms(h, stream=3) >= noise.drop_probability
            landed, t = landed[kept], t[kept]
        del h  # freed before the sort
    if noise.quantization_us > 0:
        # t becomes the tick n = max(floor(t / q + 0.5), 0); n * q keeps the order of
        # distinct ticks, and a uint16 key n - min(n) makes the stable sort a radix sort
        t /= noise.quantization_us
        t += 0.5
        np.floor(t, out=t)
    np.maximum(t, 0.0, out=t)
    lo = t.min(initial=np.inf)
    tick_key = noise.quantization_us > 0 and t.max(initial=0.0) - lo <= 0xFFFF
    order = np.argsort((t - lo).astype(np.uint16) if tick_key else t, kind="stable")
    t = t[order]
    if noise.quantization_us > 0:
        t *= noise.quantization_us

    tally = {"fired": len(plan), "emitted": len(landed), "invalid_depth": invalid_depth,
             "out_of_frame": len(plan) - invalid_depth - n_landed, "dropped": n_landed - len(landed)}
    landed = landed[order]
    return EventStream(geometry.cam_resolution, t, cam_col[landed], plan.rows[landed], np.ones(len(t), np.int8)), tally


@pytest.fixture(scope="module")
def moving_object_period_0():
    """The dense first period of ``moving_object`` as ``run_period`` simulates it: 301,440 landing keys."""
    sc = harness.load_scenario(SCENARIOS / "moving_object.yaml")
    w0, w1 = harness._window(sc, 0)
    depth = harness._resample_depth(render_scene(sc.script, (w0 + w1) / 2.0), sc.projector.resolution)
    return sc, build_scan_plan(sc.projector, build_mask(sc.policy, sc.projector.resolution), t0_us=w0), depth


@pytest.mark.parametrize("drop_probability", [0.0, 0.1], ids=["no-drops", "drops"])
def test_blocked_noise_matches_parent_on_dense_bundled_period(moving_object_period_0, drop_probability):
    sc, plan, depth = moving_object_period_0
    noise = replace(sc.noise, drop_probability=drop_probability)
    got, got_tally = simulate_reflection_events(plan, depth, sc.geometry, noise, 0, sc.seed)
    want, want_tally = _parent_simulate_reflection_events(plan, depth, sc.geometry, noise, 0, sc.seed)
    assert got_tally["emitted"] + got_tally["dropped"] > 9 * projector._NOISE_BLOCK  # ten blocks of landing keys
    assert list(got_tally.items()) == list(want_tally.items())
    assert_fire_order_sorts_to(got, want, plan)  # jitter reorders neighbouring firings, on the uint16 tick key


def peak_above_entry(fn, *args):
    """``fn(*args)`` and the most memory it held at once above what was allocated at entry, in bytes."""
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()


def test_dense_bundled_period_peak_memory(moving_object_period_0):
    # each fired-size array is freed once nothing reads it, and the decode runs in blocks: about 25 and
    # 23 bytes, where whole-array passes held about 51 per fired slot and 52 per camera pixel
    sc, plan, depth = moving_object_period_0
    (events, _), reflect_peak = peak_above_entry(
        simulate_reflection_events, plan, depth, sc.geometry, sc.noise, 0, sc.seed)
    assert reflect_peak <= 32 * len(plan)
    # the sort frees the float ticks before it sorts the uint16 key: about 19 bytes per event, with
    # the 17 of the stream it returns
    _, sort_peak = peak_above_entry(events.time_sorted)
    assert sort_peak <= 24 * len(events)
    w0, w1 = harness._window(sc, 0)
    surface = make_time_surface(events, (w0, w1))
    _, decode_peak = peak_above_entry(reconstruct_depth, surface, sc.geometry, sc.projector, w0)
    assert decode_peak <= 32 * surface.last_t.size


def assert_same_stream(got, want):
    assert got.resolution == want.resolution
    for name in "txyp":
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
