from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evsl.depth import (
    DegenerateInputError,
    PlaneFit,
    PointCloud,
    decode_projector_indices,
    depth_to_points,
    fit_plane,
    reconstruct_depth,
)
from evsl.events import DepthMap, EventStream, TimeSurface, make_event_frame, make_time_surface
from evsl.harness import _compare_policies, _run_periods, _window, load_scenario
from evsl.policy import DensePolicy, IlluminationMask, active_pixel_fraction, build_mask
from evsl.projector import (
    NoiseModel,
    ProjectorModel,
    SensorGeometry,
    build_scan_plan,
    simulate_reflection_events,
)
import test_events
from test_policy import _summed_active_pixel_fraction, _summed_mask_fraction, _summed_valid_count

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


class TestDecode:
    def test_period_start_is_origin(self):
        proj = ProjectorModel((16, 8), 60.0)
        rows, cols = decode_projector_indices(np.array([100.0]), proj, 100.0)
        assert (rows[0], cols[0]) == (0, 0)

    def test_first_pixel_of_second_row(self):
        proj = ProjectorModel((16, 8), 60.0)
        t = 16 * proj.dwell_time_us
        rows, cols = decode_projector_indices(np.array([t]), proj, 0.0)
        assert (rows[0], cols[0]) == (1, 0)

    def test_nearest_rounding(self):
        proj = ProjectorModel((16, 8), 60.0)
        k = 37
        t = np.array([k - 0.4, k + 0.4]) * proj.dwell_time_us
        rows, cols = decode_projector_indices(t, proj, 0.0)
        assert rows.tolist() == [k // 16] * 2
        assert cols.tolist() == [k % 16] * 2

    def test_round_trip_over_random_plans(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            w, h = int(rng.integers(8, 60)), int(rng.integers(8, 60))
            proj = ProjectorModel((w, h), float(rng.uniform(30, 200)))
            t0 = float(rng.uniform(0, 1e6))
            mask = IlluminationMask((w, h), rng.random((h, w)) < 0.5)
            plan = build_scan_plan(proj, mask, t0)
            rows, cols = decode_projector_indices(plan.fire_t_us, proj, t0)
            assert np.array_equal(rows, plan.rows)
            assert np.array_equal(cols, plan.cols)

    def test_decode_exact_under_bounded_perturbation(self):
        # any perturbation smaller than half a raster slot rounds away
        rng = np.random.default_rng(8)
        proj = ProjectorModel((64, 48), 60.0)
        plan = build_scan_plan(proj, build_mask(DensePolicy(), (64, 48)), 0.0)
        jitter = rng.uniform(-0.49, 0.49, len(plan)) * proj.dwell_time_us
        rows, cols = decode_projector_indices(plan.fire_t_us + jitter, proj, 0.0)
        assert np.array_equal(rows, plan.rows)
        assert np.array_equal(cols, plan.cols)


def single_row_events(geom, proj, cam_cols, proj_cols):
    """Reconstruct a surface with one event per row: camera column ``cam_cols[i]``
    on row i, timestamped at the firing of projector slot (i, ``proj_cols[i]``)."""
    w, h = geom.cam_resolution
    last = np.full((h, w), np.nan)
    for row, (cam_col, proj_col) in enumerate(zip(cam_cols, proj_cols)):
        last[row, cam_col] = (row * proj.resolution[0] + proj_col) * proj.dwell_time_us
    surface = TimeSurface((w, h), last, (0.0, proj.period_us))
    return reconstruct_depth(surface, geom, proj, 0.0)


class TestTriangulate:
    """z = f * b / (proj_col - cam_col), as computed by reconstruct_depth."""

    def test_anchor_case(self):
        geom = SensorGeometry((640, 480), (640, 480), 600.0, 0.04)
        depth_map, _ = single_row_events(geom, ProjectorModel((640, 480), 60.0), [100], [112])
        assert depth_map.depth[0, 100] == pytest.approx(2.0, rel=1e-12)

    def test_algebraic_round_trip(self):
        geom = SensorGeometry((640, 480), (640, 480), 600.0, 0.04)
        disparities = np.arange(1, 301)
        depth_map, tally = single_row_events(
            geom, ProjectorModel((640, 480), 60.0), [50] * len(disparities), 50 + disparities
        )
        assert tally["valid"] == len(disparities)
        expected = geom.focal_length_px * geom.baseline_m / disparities
        assert np.allclose(depth_map.depth[: len(disparities), 50], expected, rtol=1e-12, atol=0)

    def test_zero_disparity_rejected(self):
        geom = SensorGeometry((640, 480), (640, 480), 600.0, 0.04)
        depth_map, tally = single_row_events(geom, ProjectorModel((640, 480), 60.0), [10], [10])
        assert depth_map.valid_count == 0
        assert tally["nonpositive_disparity"] == 1


def noiseless_reconstruction(resolution=(64, 48), z=2.0):
    geom = SensorGeometry(resolution, resolution, 600.0, 0.04)
    proj = ProjectorModel(resolution, 60.0)
    plan = build_scan_plan(proj, build_mask(DensePolicy(), resolution), 0.0)
    depth = DepthMap.constant(resolution, z)
    stream, _ = simulate_reflection_events(plan, depth, geom, NoiseModel.noiseless())
    surface = make_time_surface(stream, (0.0, proj.period_us))
    return geom, proj, stream, surface


class TestNoiselessRoundTrip:
    """Any mask, fronto-parallel plane, no noise: decoding recovers every firing."""

    @settings(max_examples=100)
    @given(
        w=st.integers(2, 48),
        h=st.integers(1, 24),
        lit=st.sampled_from([0.05, 0.3, 0.7, 1.0]),
        seed=st.integers(0, 2**32 - 1),
        hz=st.sampled_from([30.0, 60.0, 200.0]),
        t0=st.sampled_from([0.0, 1e6 / 60, 98765.4321]),
        data=st.data(),
    )
    def test_decode_round_trips_for_any_mask(self, w, h, lit, seed, hz, t0, data):
        disparity = data.draw(st.integers(1, w - 1), label="disparity")
        geom = SensorGeometry((w, h), (w, h), 600.0, 0.04)
        proj = ProjectorModel((w, h), hz)
        rng = np.random.default_rng(seed)
        plan = build_scan_plan(proj, IlluminationMask((w, h), rng.random((h, w)) < lit), t0)
        fb = geom.focal_length_px * geom.baseline_m
        depth = DepthMap.constant((w, h), fb / disparity)
        stream, fired = simulate_reflection_events(plan, depth, geom, NoiseModel.noiseless())
        surface = make_time_surface(stream, (t0, t0 + proj.period_us))
        depth_map, tally = reconstruct_depth(surface, geom, proj, t0)
        assert tally["valid"] == depth_map.valid_count == fired["emitted"]
        assert tally["row_mismatch"] == tally["nonpositive_disparity"] == 0
        # every firing that landed decodes at its camera pixel, and nothing else does
        landed = plan.cols >= disparity
        want = np.zeros((h, w), dtype=bool)
        want[plan.rows[landed], plan.cols[landed] - disparity] = True
        assert np.array_equal(depth_map.valid, want)
        assert np.all(depth_map.depth[depth_map.valid] == fb / disparity)


def _oracle_reconstruct_depth(
    surface: TimeSurface,
    geometry: SensorGeometry,
    projector: ProjectorModel,
    t0_us: float,
) -> tuple[DepthMap, dict[str, int]]:
    """Recover a sparse depth map from one scan period's time surface.

    Pixels with no event, a decoded projector row disagreeing with the camera
    row by more than one (timing noise near row boundaries flips rows), or
    non-positive disparity come back invalid; the tally reports each failure
    class.
    """
    w0, w1 = surface.window
    if abs((w1 - w0) - projector.period_us) > 1e-6 * projector.period_us or abs(w0 - t0_us) > 1e-6 * max(1.0, abs(t0_us)):
        raise ValueError("surface window must equal the scan period being decoded")
    cam_w, cam_h = surface.resolution
    depth = np.zeros((cam_h, cam_w))
    valid = np.zeros((cam_h, cam_w), dtype=bool)

    ys, xs = np.nonzero(surface.occupied)
    tally = {
        "no_event": cam_w * cam_h - len(ys),
        "row_mismatch": 0,
        "nonpositive_disparity": 0,
        "valid": 0,
    }
    if len(ys):
        rows, cols = decode_projector_indices(surface.last_t[ys, xs], projector, t0_us)
        row_ok = np.abs(rows - ys) <= 1
        disparity = cols - xs
        disp_ok = disparity > 0
        ok = row_ok & disp_ok
        z = np.zeros(len(ys))
        z[ok] = geometry.focal_length_px * geometry.baseline_m / disparity[ok]
        depth[ys[ok], xs[ok]] = z[ok]
        valid[ys[ok], xs[ok]] = True
        tally["row_mismatch"] = int((~row_ok).sum())
        tally["nonpositive_disparity"] = int((row_ok & ~disp_ok).sum())
        tally["valid"] = int(ok.sum())
    return DepthMap(surface.resolution, depth, valid), tally


def _oracle_depth_to_points(depth_map: DepthMap, geometry: SensorGeometry) -> PointCloud:
    """Back-project valid pixels through the pinhole with the principal point at the frame center."""
    cam_w, cam_h = geometry.cam_resolution
    ys, xs = np.nonzero(depth_map.valid)
    z = depth_map.depth[ys, xs]
    x = (xs - cam_w / 2.0) * z / geometry.focal_length_px
    y = (ys - cam_h / 2.0) * z / geometry.focal_length_px
    return PointCloud(np.column_stack([x, y, z]))


@st.composite
def decode_cases(draw):
    """A time surface, a depth map of random validity, the rig and the period start.

    The camera is often one row or one column, and the projector is sized
    apart from it. Each event sits near the slot of a projector pixel in the
    camera pixel's row or a neighbour row, a few columns to either side, so
    pixels decode valid, off-row and at non-positive disparity. Timestamps are
    clipped to the period, so events land on both of its edges; the one on
    the end edge falls outside the half-open window.
    """
    shape = draw(st.sampled_from(["one row", "one column", "any"]), label="shape")
    cw = 1 if shape == "one column" else draw(st.integers(2, 32), label="cam_w")
    ch = 1 if shape == "one row" else draw(st.integers(2, 32), label="cam_h")
    pw, ph = draw(st.integers(1, 32), label="proj_w"), draw(st.integers(1, 32), label="proj_h")
    projector = ProjectorModel((pw, ph), draw(st.sampled_from([60.0, 2000.0]), label="hz"))
    geometry = SensorGeometry((cw, ch), (pw, ph), draw(st.sampled_from([1.0, 40.0, 600.0]), label="f"), 0.04)
    t0 = draw(st.sampled_from([0.0, 12345.6]), label="t0")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    n = draw(st.integers(0, 80), label="n")
    cam = rng.integers(0, cw * ch, n)
    x, y = cam % cw, cam // cw
    slot = np.clip((y + rng.integers(-2, 3, n)) * pw + x + rng.integers(-3, 9, n), 0, pw * ph - 1)
    t = np.clip(t0 + (slot + rng.uniform(-0.6, 0.6, n)) * projector.dwell_time_us, t0, t0 + projector.period_us)
    stream = EventStream.from_arrays((cw, ch), t, x, y, np.ones(n))
    surface = make_time_surface(stream, (t0, t0 + projector.period_us))
    valid = rng.random((ch, cw)) < draw(st.sampled_from([0.0, 0.5, 1.0]), label="valid")
    depth_map = DepthMap((cw, ch), np.where(valid, rng.uniform(0.1, 5.0, (ch, cw)), 0.0), valid)
    return surface, depth_map, geometry, projector, t0


def assert_same_bytes(a, b, name):
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


class TestDecodeMatchesOracle:
    """Decode and back-projection on flat raster indices give the 2-D code's bytes."""

    @settings(max_examples=300)
    @given(decode_cases())
    def test_property(self, case):
        decoded = assert_decode_matches_oracle(*case)
        # the DepthMap contract, which the type leaves to its producers: valid pixels carry finite depth above 0
        depth = decoded.depth[decoded.valid]
        assert np.all((depth > 0) & np.isfinite(depth))

    @pytest.mark.parametrize("block", [1, 7, 64])
    @settings(max_examples=100)
    @given(case=decode_cases())
    def test_property_at_block_size(self, block, case):
        # up to 80 occupied pixels: block sizes this small put many block edges in every case
        with mock.patch("evsl.depth._DECODE_BLOCK", block):
            assert_decode_matches_oracle(*case)


def assert_decode_matches_oracle(surface, depth_map, geometry, projector, t0):
    got, got_tally = reconstruct_depth(surface, geometry, projector, t0)
    want, want_tally = _oracle_reconstruct_depth(surface, geometry, projector, t0)
    assert list(got_tally.items()) == list(want_tally.items())
    assert all(type(v) is int for v in got_tally.values())
    assert_same_bytes(got.depth, want.depth, "depth")
    assert_same_bytes(got.valid, want.valid, "valid")
    for decoded in (got, depth_map):
        got_xyz = depth_to_points(decoded, geometry).xyz
        assert_same_bytes(got_xyz, _oracle_depth_to_points(decoded, geometry).xyz, "xyz")
    return got


def _parent_decode_projector_indices(t_us: np.ndarray, projector: ProjectorModel, t0_us: float):
    """Vectorized timestamp -> (row, col) decode against the dense raster clock.

    Rounds to the nearest raster slot and clamps to the frame; callers are
    responsible for period-bounds checks.
    """
    w, h = projector.resolution
    k = np.floor((np.asarray(t_us, dtype=np.float64) - t0_us) / projector.dwell_time_us + 0.5)
    k = np.clip(k, 0, w * h - 1).astype(np.int64)
    return k // w, k % w


def _parent_reconstruct_depth(
    surface: TimeSurface,
    geometry: SensorGeometry,
    projector: ProjectorModel,
    t0_us: float,
) -> tuple[DepthMap, dict[str, int]]:
    """The flat-index decode as it was before it wrote every occupied pixel:
    ``flat[ok]`` and ``disparity[ok]`` compresses, an int64 ``np.divmod``."""
    w0, w1 = surface.window
    if abs((w1 - w0) - projector.period_us) > 1e-6 * projector.period_us or abs(w0 - t0_us) > 1e-6 * max(1.0, abs(t0_us)):
        raise ValueError("surface window must equal the scan period being decoded")
    if surface.resolution != geometry.cam_resolution:
        raise ValueError(f"surface resolution {surface.resolution} does not match camera {geometry.cam_resolution}")
    cam_h, cam_w = surface.last_t.shape
    depth = np.zeros(cam_w * cam_h)
    valid = np.zeros(cam_w * cam_h, dtype=bool)

    flat = np.flatnonzero(surface.occupied)
    ys, xs = np.divmod(flat, cam_w)
    rows, cols = _parent_decode_projector_indices(np.take(surface.last_t, flat), projector, t0_us)
    row_ok = np.abs(rows - ys) <= 1
    disparity = cols - xs
    disp_ok = disparity > 0
    ok = row_ok & disp_ok
    depth[flat[ok]] = geometry.focal_length_px * geometry.baseline_m / disparity[ok]
    valid[flat[ok]] = True
    tally = {
        "no_event": cam_w * cam_h - len(flat),
        "row_mismatch": int((~row_ok).sum()),
        "nonpositive_disparity": int((row_ok & ~disp_ok).sum()),
        "valid": int(ok.sum()),
    }
    return DepthMap(surface.resolution, depth.reshape(cam_h, cam_w), valid.reshape(cam_h, cam_w)), tally


def _parent_depth_to_points(depth_map: DepthMap, geometry: SensorGeometry) -> PointCloud:
    """Back-project valid pixels through the pinhole with the principal point at the frame center."""
    if depth_map.resolution != geometry.cam_resolution:
        raise ValueError(f"depth resolution {depth_map.resolution} does not match camera {geometry.cam_resolution}")
    cam_w, cam_h = geometry.cam_resolution
    flat = np.flatnonzero(depth_map.valid)
    ys, xs = np.divmod(flat, cam_w)
    z = np.take(depth_map.depth, flat)
    x = (xs - cam_w / 2.0) * z / geometry.focal_length_px
    y = (ys - cam_h / 2.0) * z / geometry.focal_length_px
    return PointCloud(np.column_stack([x, y, z]))


# widths of one pixel, primes, and the bundled scenarios' widths
WIDTHS = (1, 2, 3, 5, 7, 13, 31, 127, 640, 1024)


def lean_decode_case(cam, proj, f, t0, occupancy, seed):
    """A surface on camera ``cam`` whose timestamps decode on projector ``proj``.

    Each occupied pixel holds a time near a slot in its row or a neighbour
    row, a few columns to either side (so disparities are often zero or
    negative), exactly on the half-slot boundary between two rows, or before
    or after the period.
    """
    (cw, ch), (pw, ph) = cam, proj
    projector = ProjectorModel(proj, 2000.0)
    rng = np.random.default_rng(seed)
    ys, xs = np.indices((ch, cw))
    dwell = projector.dwell_time_us
    near = (ys + rng.integers(-1, 2, ys.shape)) * pw + xs + rng.integers(-4, 9, ys.shape) + rng.uniform(-0.6, 0.6, ys.shape)
    boundary = (ys + rng.integers(0, 2, ys.shape)) * pw - 0.5
    outside = np.where(rng.random(ys.shape) < 0.5, -rng.uniform(0.0, 50.0, ys.shape), pw * ph + rng.uniform(0.0, 50.0, ys.shape))
    slot = np.choose(rng.integers(0, 4, ys.shape), [near, near, boundary, outside])
    last = np.where(rng.random((ch, cw)) < occupancy, t0 + slot * dwell, np.nan)
    surface = TimeSurface(cam, last, (t0, t0 + projector.period_us))
    return surface, SensorGeometry(cam, proj, f, 0.04), projector


class TestLeanDecodeMatchesOracle:
    """The unmasked scatter and the int32 splits give the parent decode's bytes and tally."""

    @settings(max_examples=60)
    @given(cw=st.sampled_from(WIDTHS), ch=st.integers(1, 12), pw=st.sampled_from(WIDTHS), ph=st.integers(1, 12),
           f=st.sampled_from([1.0, 600.0]), t0=st.sampled_from([0.0, 12345.6]),
           occupancy=st.sampled_from([0.0, 0.3, 1.0]), seed=st.integers(0, 2**32 - 1))
    def test_property(self, cw, ch, pw, ph, f, t0, occupancy, seed):
        self.check(*lean_decode_case((cw, ch), (pw, ph), f, t0, occupancy, seed))

    @pytest.mark.parametrize("resolution", [(640, 480), (1024, 320)])
    @pytest.mark.parametrize("occupancy", [0.0, 1.0])
    def test_bundled(self, resolution, occupancy):
        self.check(*lean_decode_case(resolution, resolution, 600.0, 1000.0, occupancy, 7))

    @staticmethod
    def check(surface, geometry, projector):
        t, t0 = surface.last_t[surface.occupied], surface.window[0]
        got, want = decode_projector_indices(t, projector, t0), _parent_decode_projector_indices(t, projector, t0)
        for a, b in zip(got, want):  # the one dtype change: int32, as in ScanPlan
            assert a.dtype == np.int32 and np.array_equal(a, b)
        got, got_tally = reconstruct_depth(surface, geometry, projector, t0)
        want, want_tally = _parent_reconstruct_depth(surface, geometry, projector, t0)
        assert list(got_tally.items()) == list(want_tally.items())
        assert all(type(v) is int for v in got_tally.values())
        assert_same_bytes(got.depth, want.depth, "depth")
        assert_same_bytes(got.valid, want.valid, "valid")
        assert_same_bytes(depth_to_points(got, geometry).xyz, _parent_depth_to_points(want, geometry).xyz, "xyz")


class TestReconstructDepth:
    def test_noiseless_dense_plane_is_exact(self):
        geom, proj, stream, surface = noiseless_reconstruction()
        depth_map, tally = reconstruct_depth(surface, geom, proj, 0.0)
        assert depth_map.valid_count == len(stream)
        assert tally["row_mismatch"] == 0
        assert np.allclose(depth_map.depth[depth_map.valid], 2.0, rtol=1e-12)

    def test_empty_surface_all_invalid(self):
        geom = SensorGeometry((16, 8), (16, 8), 600.0, 0.04)
        proj = ProjectorModel((16, 8), 60.0)
        surface = TimeSurface((16, 8), np.full((8, 16), np.nan), (0.0, proj.period_us))
        depth_map, tally = reconstruct_depth(surface, geom, proj, 0.0)
        assert depth_map.valid_count == 0
        assert tally["no_event"] == 16 * 8

    def test_window_must_match_period(self):
        geom = SensorGeometry((16, 8), (16, 8), 600.0, 0.04)
        proj = ProjectorModel((16, 8), 60.0)
        surface = TimeSurface((16, 8), np.full((8, 16), np.nan), (0.0, proj.period_us / 2))
        with pytest.raises(ValueError, match="window"):
            reconstruct_depth(surface, geom, proj, 0.0)

    def test_row_mismatch_marked_invalid(self):
        geom = SensorGeometry((16, 8), (16, 8), 32.0, 1.0)
        proj = ProjectorModel((16, 8), 60.0)
        last = np.full((8, 16), np.nan)
        # event at row 5, but timestamp of a row-0 firing: off by 5 rows
        last[5, 2] = 4 * proj.dwell_time_us
        surface = TimeSurface((16, 8), last, (0.0, proj.period_us))
        depth_map, tally = reconstruct_depth(surface, geom, proj, 0.0)
        assert depth_map.valid_count == 0
        assert tally["row_mismatch"] == 1

    def test_row_tolerance_accepts_neighbor_row(self):
        geom = SensorGeometry((16, 8), (16, 8), 32.0, 1.0)
        proj = ProjectorModel((16, 8), 60.0)
        last = np.full((8, 16), np.nan)
        k = 1 * 16 + 9  # row 1, col 9
        last[2, 2] = k * proj.dwell_time_us  # camera row 2: decoded row differs by 1
        surface = TimeSurface((16, 8), last, (0.0, proj.period_us))
        depth_map, tally = reconstruct_depth(surface, geom, proj, 0.0)
        assert depth_map.valid_count == 1
        assert depth_map.depth[2, 2] == pytest.approx(32.0 * 1.0 / (9 - 2))

    def test_nonpositive_disparity_marked(self):
        geom = SensorGeometry((16, 8), (16, 8), 32.0, 1.0)
        proj = ProjectorModel((16, 8), 60.0)
        last = np.full((8, 16), np.nan)
        last[0, 10] = 3 * proj.dwell_time_us  # decoded col 3 left of camera col 10
        surface = TimeSurface((16, 8), last, (0.0, proj.period_us))
        depth_map, tally = reconstruct_depth(surface, geom, proj, 0.0)
        assert depth_map.valid_count == 0
        assert tally["nonpositive_disparity"] == 1

    def test_resolution_must_match_camera(self):
        # same pixel count, transposed: a flat index would land on the wrong pixel
        geom = SensorGeometry((16, 8), (16, 8), 600.0, 0.04)
        proj = ProjectorModel((16, 8), 60.0)
        surface = TimeSurface((8, 16), np.full((16, 8), np.nan), (0.0, proj.period_us))
        with pytest.raises(ValueError, match="camera"):
            reconstruct_depth(surface, geom, proj, 0.0)

    def test_adding_events_never_removes_pixels(self):
        geom, proj, stream, surface = noiseless_reconstruction()
        base_map, _ = reconstruct_depth(surface, geom, proj, 0.0)
        # add a later event at a previously silent pixel
        extra = np.array(surface.last_t)
        silent = np.argwhere(~surface.occupied)
        y, x = silent[0]
        extra[y, x] = (x + 5.0) * proj.dwell_time_us  # same-row firing, positive disparity
        grown, _ = reconstruct_depth(TimeSurface(surface.resolution, extra, surface.window), geom, proj, 0.0)
        assert grown.valid[base_map.valid].all()
        assert grown.valid_count == base_map.valid_count + 1


class TestDepthToPoints:
    def test_center_pixel_on_axis(self):
        geom = SensorGeometry((64, 48), (64, 48), 600.0, 0.04)
        depth = np.zeros((48, 64))
        valid = np.zeros((48, 64), bool)
        depth[24, 32] = 2.0
        valid[24, 32] = True
        pts = depth_to_points(DepthMap((64, 48), depth, valid), geom)
        assert np.allclose(pts.xyz, [[0.0, 0.0, 2.0]])

    def test_one_focal_length_off_axis(self):
        geom = SensorGeometry((2000, 100), (2000, 100), 600.0, 0.04)
        depth = np.zeros((100, 2000))
        valid = np.zeros((100, 2000), bool)
        depth[50, 1600] = 2.0  # x - cx = 1600 - 1000 = 600 = f
        valid[50, 1600] = True
        pts = depth_to_points(DepthMap((2000, 100), depth, valid), geom)
        assert pts.xyz[0][0] == pytest.approx(2.0)

    def test_point_count_equals_valid_count(self):
        rng = np.random.default_rng(2)
        valid = rng.random((30, 40)) < 0.3
        depth = np.where(valid, rng.uniform(0.5, 5.0, (30, 40)), 0.0)
        pts = depth_to_points(DepthMap((40, 30), depth, valid), SensorGeometry((40, 30), (40, 30), 50.0, 0.1))
        assert len(pts) == valid.sum()


    def test_resolution_must_match_camera(self):
        # a mismatched map would be centred on the wrong principal point
        depth_map = DepthMap.constant((30, 40), 2.0)
        with pytest.raises(ValueError, match="camera"):
            depth_to_points(depth_map, SensorGeometry((40, 30), (40, 30), 50.0, 0.1))


class TestFitPlane:
    def test_exact_plane(self):
        xs, ys = np.meshgrid(np.linspace(-1, 1, 20), np.linspace(-1, 1, 20))
        pts = PointCloud(np.column_stack([xs.ravel(), ys.ravel(), np.full(400, 2.0)]))
        fit = fit_plane(pts)
        assert abs(fit.normal[2]) == pytest.approx(1.0, abs=1e-12)
        assert fit.d == pytest.approx(2.0, rel=1e-12)
        assert fit.rms == pytest.approx(0.0, abs=1e-12)

    def test_uniform_noise_monte_carlo(self):
        rng = np.random.default_rng(6)
        n = 10_000
        xyz = np.column_stack([
            rng.uniform(-1, 1, n),
            rng.uniform(-1, 1, n),
            2.0 + rng.uniform(-1e-3, 1e-3, n),
        ])
        fit = fit_plane(PointCloud(xyz))
        expected = 1e-3 / np.sqrt(3.0)  # std of uniform(-1mm, 1mm)
        assert abs(fit.rms - expected) / expected < 0.10

    def test_two_points_rejected(self):
        with pytest.raises(DegenerateInputError):
            fit_plane(PointCloud(np.array([[0, 0, 1], [1, 0, 1]])))

    def test_collinear_rejected(self):
        pts = PointCloud(np.array([[float(i), 2 * i, 3 * i] for i in range(10)]))
        with pytest.raises(DegenerateInputError):
            fit_plane(pts)

    def test_rms_invariant_under_rotation(self):
        rng = np.random.default_rng(12)
        xyz = np.column_stack([
            rng.uniform(-1, 1, 500),
            rng.uniform(-1, 1, 500),
            rng.normal(0.0, 0.01, 500),
        ])
        base = fit_plane(PointCloud(xyz)).rms
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        rotated = fit_plane(PointCloud(xyz @ q.T)).rms
        assert rotated == pytest.approx(base, rel=1e-9)

    def test_normal_is_unit(self):
        rng = np.random.default_rng(19)
        xyz = rng.normal(size=(100, 3)) * [1, 1, 0.01] + [0, 0, 5]
        fit = fit_plane(PointCloud(xyz))
        assert np.linalg.norm(fit.normal) == pytest.approx(1.0, abs=1e-9)



def _oracle_fit_plane(points: PointCloud) -> PlaneFit:
    """Total-least-squares plane fit: minimizes squared point-to-plane distance.

    The SVD-only fit as it was before the scatter-matrix eigenvector path."""
    xyz = points.xyz
    if len(xyz) < 3:
        raise DegenerateInputError(f"plane fit needs >= 3 points, got {len(xyz)}")
    centroid = xyz.mean(axis=0)
    centered = xyz - centroid
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    if s[0] <= 0 or s[1] <= 1e-12 * s[0]:
        raise DegenerateInputError("plane fit needs >= 3 non-collinear points")
    normal = vt[-1]
    d = float(normal @ centroid)
    if d < 0 or (d == 0 and normal[np.flatnonzero(normal)[0]] < 0):
        normal, d = -normal, -d
    rms = float(np.sqrt(np.mean((centered @ normal) ** 2)))
    return PlaneFit(tuple(float(v) for v in normal), d, rms)


@st.composite
def plane_clouds(draw):
    """Planar clouds with noise 1e-9..1e-1, exact planes, near-collinear clouds and duplicates."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    n = draw(st.integers(3, 300), label="n")
    kind = draw(st.sampled_from(["noisy", "exact", "axis_exact", "near_collinear", "duplicates"]), label="kind")
    origin = rng.normal(size=3) * draw(st.sampled_from([0.0, 1.0, 100.0]), label="offset")
    u, v = rng.normal(size=3), rng.normal(size=3)
    a, b = rng.uniform(-1, 1, (n, 1)) * draw(st.sampled_from([0.01, 1.0, 5.0])), rng.uniform(-1, 1, (n, 1))
    if kind == "noisy":
        noise = 10.0 ** draw(st.floats(-9, -1), label="log10_noise")
        return origin + a * u + b * v + rng.normal(size=(n, 1)) * noise * np.cross(u, v)
    if kind == "exact":
        return origin + a * u + b * v
    if kind == "axis_exact":
        return np.column_stack([a[:, 0], b[:, 0], np.full(n, origin[2])])
    if kind == "near_collinear":
        return origin + a * u + b * 10.0 ** draw(st.floats(-15, -3), label="log10_offset") * v
    distinct = origin + np.vstack([a * u + b * v, np.zeros((1, 3))])[: draw(st.integers(1, 4), label="distinct")]
    return distinct[rng.integers(0, len(distinct), n)]


def _fit_text(fit, xyz):
    try:
        return "%.9g" % fit(PointCloud(xyz)).rms
    except DegenerateInputError:
        return "degenerate"


class TestFitPlaneMatchesOracle:
    """The scatter-matrix fit gives the SVD fit's verdict and its rms at %.9g."""

    @settings(max_examples=150)
    @given(plane_clouds())
    def test_property(self, xyz):
        assert _fit_text(fit_plane, xyz) == _fit_text(_oracle_fit_plane, xyz)


def _rowwise_fit_plane(points: PointCloud) -> PlaneFit:
    """The scatter-matrix fit as it was before its column passes:
    ``xyz.mean(axis=0)`` and a broadcast ``xyz - centroid``."""
    xyz = points.xyz
    if len(xyz) < 3:
        raise DegenerateInputError(f"plane fit needs >= 3 points, got {len(xyz)}")
    centroid = xyz.mean(axis=0)
    centered = xyz - centroid
    lam, vec = np.linalg.eigh(centered.T @ centered)
    normal = vec[:, 0]
    if not lam[0] >= 1e-10 * lam[2] > 0:
        _, s, vt = np.linalg.svd(centered, full_matrices=False)
        if s[0] <= 0 or s[1] <= 1e-12 * s[0]:
            raise DegenerateInputError("plane fit needs >= 3 non-collinear points")
        normal = vt[-1]
    d = float(normal @ centroid)
    if d < 0 or (d == 0 and normal[np.flatnonzero(normal)[0]] < 0):
        normal, d = -normal, -d
    rms = float(np.sqrt(np.mean((centered @ normal) ** 2)))
    return PlaneFit(tuple(float(v) for v in normal), d, rms)


def _fit_bytes(fit, cloud):
    """The fit's normal, d and rms as bytes, or its verdict on a degenerate cloud."""
    try:
        result = fit(cloud)
    except DegenerateInputError as exc:
        return str(exc)
    return np.array([*result.normal, result.d, result.rms]).tobytes()


class TestFitMatchesRowwise:
    """The column-pass plane fit gives the row-wise fit's normal, d and rms bit for bit."""

    @settings(max_examples=200)
    @given(plane_clouds())
    def test_property(self, xyz):
        cloud = PointCloud(xyz)
        assert _fit_bytes(fit_plane, cloud) == _fit_bytes(_rowwise_fit_plane, cloud)

    @pytest.mark.parametrize("n", [3, 8191, 8193, 65537, 120_000])
    def test_large_clouds(self, n):
        rng = np.random.default_rng(n)
        xyz = rng.normal(size=(n, 3)) * [3.0, 1.0, 1e-3] + [0.5, -0.2, 2.0]
        cloud = PointCloud(xyz @ np.linalg.qr(rng.normal(size=(3, 3)))[0])
        assert _fit_bytes(fit_plane, cloud) == _fit_bytes(_rowwise_fit_plane, cloud)

    def test_any_layout(self):
        # the centroid is summed in row order whatever the layout: an F-order cloud fits as its C-order copy
        xyz = np.random.default_rng(3).normal(size=(5000, 3)) * [1.0, 1.0, 1e-2]
        assert _fit_bytes(fit_plane, PointCloud(np.asfortranarray(xyz))) == _fit_bytes(fit_plane, PointCloud(xyz))


class TestBundledPeriodsMatchParentBodies:
    """Every period of the bundled scenarios under all three policies: the time
    surface, the cloud, the plane fit and the three counts equal, bit for bit,
    what the code they replaced gives."""

    @pytest.mark.parametrize("name", ["moving_object", "noiseless_plane", "plane_compare", "stationary"])
    def test_bundled(self, name):
        rig, policies = _compare_policies(load_scenario(SCENARIOS / f"{name}.yaml"))
        for p, (guide, results) in enumerate(_run_periods(rig, tuple(policies.values()), parallel=True)):
            frame = make_event_frame(guide, _window(rig, p))
            assert active_pixel_fraction(frame) == _summed_active_pixel_fraction(frame)
            for result in results:
                test_events.TestSurfaceMatchesParent.check(result.reflection, _window(rig, p))
                assert result.mask.fraction == _summed_mask_fraction(result.mask)
                assert result.depth.valid_count == _summed_valid_count(result.depth)
                cloud = depth_to_points(result.depth, rig.geometry)
                assert_same_bytes(cloud.xyz, _parent_depth_to_points(result.depth, rig.geometry).xyz, "xyz")
                assert _fit_bytes(fit_plane, cloud) == _fit_bytes(_rowwise_fit_plane, cloud)
        assert p + 1 == rig.periods
