import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evsl.depth import PointCloud
from evsl.events import (
    DepthMap,
    Event,
    EventFrame,
    EventStream,
    TimeSurface,
    VoxelGrid,
    decode_log_depth,
    encode_log_depth,
    make_event_frame,
    make_time_surface,
    make_voxel_grid,
)
from evsl.policy import IlluminationMask
from evsl.projector import ScanPlan


def random_stream(rng, resolution=(32, 32), n=200, t_max=1000.0):
    w, h = resolution
    return EventStream.from_arrays(
        resolution,
        rng.uniform(0.0, t_max, n),
        rng.integers(0, w, n),
        rng.integers(0, h, n),
        rng.choice([-1, 1], n),
    )


class TestEventStream:
    def test_sorted_on_construction(self):
        s = EventStream.from_arrays((4, 4), [5.0, 2.0, 5.0], [1, 0, 3], [1, 0, 3], [1, -1, -1])
        assert list(s.t) == [2.0, 5.0, 5.0]
        assert list(s.x) == [0, 1, 3]  # stable: equal timestamps keep their order
        assert list(s.p) == [-1, 1, -1]

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            EventStream((4, 4), [2.0, 1.0], [0, 0], [0, 0], [1, 1])

    def test_rejects_out_of_bounds(self):
        with pytest.raises(ValueError, match="coordinates"):
            EventStream((4, 4), [1.0], [4], [0], [1])

    def test_rejects_bad_polarity(self):
        with pytest.raises(ValueError, match="polarity"):
            EventStream((4, 4), [1.0], [0], [0], [2])

    @pytest.mark.parametrize("p", [np.array([257]), np.array([-255]), np.array([1.5]), [257], [-1, 1.5]])
    def test_rejects_polarity_the_int8_cast_would_wrap(self, p):
        # 257 and -255 wrap to 1 and 1.5 truncates to 1 in int8, so check before the cast
        t = np.arange(len(p), dtype=np.float64)
        with pytest.raises(ValueError, match="polarity"):
            EventStream((4, 4), t, np.zeros(len(p)), np.zeros(len(p)), p)

    @pytest.mark.parametrize("x, y", [
        (np.array([2**32 + 3, 5], dtype=np.int64), [1, 2]),
        (np.array([-2**32, 5], dtype=np.int64), [1, 2]),
        ([3, 5], np.array([1, 2**32 + 2], dtype=np.int64)),
        ([np.nan, 5.0], [1, 2]),
        ([3.0, 5.0], [1.0, np.nan]),
    ])
    def test_rejects_coordinates_the_int32_cast_would_wrap(self, x, y):
        # 2**32 + 3 wraps to 3 and -2**32 to 0 in int32, so check before the cast; a NaN fails too
        with pytest.raises(ValueError, match="coordinates outside resolution"):
            EventStream((640, 480), [1.0, 2.0], x, y, [1, 1])

    @pytest.mark.parametrize("x, y, message", [
        ([2.7], [0], "must be integers"),
        ([2], [0.9], "must be integers"),
        (np.array([1.0, 2.7]), np.array([0, 0], dtype=np.int64), "must be integers"),
        ([np.nan], [0.0], "outside resolution"),
        ([1.0], [np.nan], "outside resolution"),
    ], ids=["x-2.7", "y-0.9", "array-x-2.7", "nan-x", "nan-y"])
    def test_rejects_fractional_coordinates(self, x, y, message):
        # the int32 cast would truncate 2.7 to 2 and 0.9 to 0
        t = np.arange(len(x), dtype=np.float64)
        with pytest.raises(ValueError, match="event coordinates " + message):
            EventStream((4, 4), t, x, y, np.ones(len(x)))
        with pytest.raises(ValueError, match="event coordinates " + message):
            EventStream.from_arrays((4, 4), t, x, y, np.ones(len(x)))

    def test_integral_float_coordinates_accepted(self):
        s = EventStream((4, 4), [0.0, 1.0, 2.0], np.array([0.0, 3.0, -0.0]), [1.0, 3.0, 0.0], [1, 1, -1])
        assert s.x.dtype == s.y.dtype == np.int32
        assert list(s.x) == [0, 3, 0] and list(s.y) == [1, 3, 0]

    def test_float_unit_polarity_accepted(self):
        s = EventStream((4, 4), [0.0, 1.0], [0, 1], [0, 1], np.array([1.0, -1.0]))
        assert s.p.dtype == np.int8 and list(s.p) == [1, -1]

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError, match="non-negative"):
            EventStream((4, 4), [-1.0], [0], [0], [1])

    @pytest.mark.parametrize("t, error", [
        ([np.nan], "non-negative"),
        ([np.nan, 1.0], "non-negative"),
        ([1.0, np.nan, 2.0], "non-decreasing"),
        ([1.0, 2.0, np.nan], "non-decreasing"),
        ([1.0, np.inf], "finite"),
        ([np.inf], "finite"),
        ([-np.inf, 1.0], "non-negative"),
    ])
    def test_rejects_non_finite_time(self, t, error):
        n = len(t)
        with pytest.raises(ValueError, match=error):
            EventStream((4, 4), t, [0] * n, [0] * n, [1] * n)
        with pytest.raises(ValueError, match="timestamps"):
            EventStream.from_arrays((4, 4), t, [0] * n, [0] * n, [1] * n)

    @settings(max_examples=100)
    @given(st.lists(st.sampled_from([0.0, -0.0, 5e-324, 1.0, 2.0, 1e308, np.inf, -np.inf, np.nan, -1.0]),
                    min_size=1, max_size=7))
    @example([np.nan, 1.0, 2.0, 3.0])  # NaN first: "non-negative"
    @example([1.0, 2.0, np.nan, 3.0, 4.0])  # NaN in the middle: "non-decreasing"
    @example([1.0, 2.0, 3.0, np.nan])  # NaN last: "non-decreasing"
    @example([1.0, 2.0, 3.0, np.inf])  # inf last: "finite"
    def test_time_verdict_as_differences_gave(self, values):
        # comparing neighbours fails where their difference fails: a NaN, and a decrease
        t = np.array(values)
        n = len(t)
        try:
            EventStream((4, 4), t, [0] * n, [0] * n, [1] * n)
        except ValueError as exc:
            got = str(exc).removeprefix("event timestamps must be ")
        else:
            got = None
        assert got == _diff_time_verdict(t)

    def test_arrays_read_only(self):
        s = EventStream((4, 4), [1.0], [0], [0], [1])
        with pytest.raises(ValueError):
            s.t[0] = 2.0

    def test_rejects_arrays_that_are_not_1d(self):
        with pytest.raises(ValueError, match="1-D"):
            EventStream((4, 4), [[1.0]], [[0]], [[0]], [[1]])

    def test_window_indices_half_open(self):
        s = EventStream((4, 4), [1.0, 2.0, 3.0], [0, 1, 2], [0, 0, 0], [1, 1, 1])
        assert s.window_indices(1.0, 3.0) == (0, 2)

    def test_merge(self):
        a = EventStream((4, 4), [1.0, 3.0], [0, 0], [0, 0], [1, 1])
        b = EventStream((4, 4), [2.0], [1], [1], [-1])
        m = EventStream.merge([a, b])
        assert list(m.t) == [1.0, 2.0, 3.0]

    def test_iter_yields_events(self):
        s = EventStream((4, 4), [1.5], [2], [3], [-1])
        assert list(s) == [Event(1.5, 2, 3, -1)]


def _diff_time_verdict(t: np.ndarray) -> str | None:
    """The three timestamp checks as they were with ``np.diff``: the failing one's word, or None."""
    if not t[0] >= 0.0:
        return "non-negative"
    with np.errstate(invalid="ignore"):  # inf - inf
        if not np.all(np.diff(t) >= 0.0):
            return "non-decreasing"
    if not np.isfinite(t[-1]):
        return "finite"
    return None


# Per value type, constructor arguments whose arrays already have the type's dtypes.
HANDED_OVER = {
    EventStream: dict(resolution=(4, 4), t=np.array([1.0, 2.0]), x=np.array([0, 3], np.int32),
                      y=np.array([1, 2], np.int32), p=np.array([1, -1], np.int8)),
    EventFrame: dict(resolution=(3, 2), counts=np.ones((2, 3), np.int64), window=(0.0, 1.0)),
    TimeSurface: dict(resolution=(3, 2), last_t=np.full((2, 3), np.nan), window=(0.0, 1.0)),
    VoxelGrid: dict(bins=2, values=np.zeros((2, 2, 3)), window=(0.0, 1.0)),
    DepthMap: dict(resolution=(3, 2), depth=np.full((2, 3), 2.0), valid=np.ones((2, 3), bool)),
    IlluminationMask: dict(resolution=(3, 2), on=np.ones((2, 3), bool)),
    PointCloud: dict(xyz=np.ones((4, 3))),
    ScanPlan: dict(resolution=(3, 2), t0_us=0.0, period_us=6.0, k=np.arange(6, dtype=np.int64),
                   rows=np.arange(6, dtype=np.int32) // 3, cols=np.arange(6, dtype=np.int32) % 3,
                   fire_t_us=np.arange(6.0)),
}


@pytest.mark.parametrize("cls", HANDED_OVER, ids=lambda cls: cls.__name__)
def test_value_types_take_arrays_over(cls):
    # handing an array to a value type hands it over: no copy, and the
    # caller's name for it can no longer write
    kwargs = {name: a.copy() if isinstance(a, np.ndarray) else a for name, a in HANDED_OVER[cls].items()}
    value = cls(**kwargs)
    arrays = {name: a for name, a in kwargs.items() if isinstance(a, np.ndarray)}
    assert arrays
    for name, a in arrays.items():
        assert np.shares_memory(getattr(value, name), a), name
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


FRAME_FIELDS = [(EventFrame, "counts"), (TimeSurface, "last_t"), (DepthMap, "depth"), (DepthMap, "valid"),
                (IlluminationMask, "on")]


@pytest.mark.parametrize("cls, field", FRAME_FIELDS, ids=[f"{cls.__name__}.{field}" for cls, field in FRAME_FIELDS])
@pytest.mark.parametrize("shape", [(3, 2), (2, 2), (2, 3, 1), (6,)])
def test_frame_types_reject_other_shapes(cls, field, shape):
    # each (H, W) array of a frame type must match its (W, H) resolution, and the error names the field
    kwargs = {name: a.copy() if isinstance(a, np.ndarray) else a for name, a in HANDED_OVER[cls].items()}
    cls(**kwargs)
    kwargs[field] = np.zeros(shape, kwargs[field].dtype)
    with pytest.raises(ValueError, match=rf"^{field} shape must be \(height, width\)$"):
        cls(**kwargs)


def test_point_cloud_rejects_other_shapes():
    with pytest.raises(ValueError, match=r"\(N, 3\)"):
        PointCloud(np.zeros(6))


class TestEventFrame:
    def test_empty_stream_gives_zero_frame(self):
        frame = make_event_frame(EventStream.empty((8, 8)), (0.0, 100.0))
        assert frame.counts.sum() == 0

    def test_direct_count(self):
        s = EventStream((10, 10), [1.0, 2.0, 3.0], [5, 5, 5], [7, 7, 7], [1, 1, 1])
        frame = make_event_frame(s, (0.0, 10.0))
        assert frame.counts[7, 5] == 3
        assert frame.counts.sum() == 3

    def test_window_is_half_open(self):
        s = EventStream((4, 4), [1.0, 2.0], [0, 0], [0, 0], [1, 1])
        frame = make_event_frame(s, (1.0, 2.0))
        assert frame.counts.sum() == 1

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            make_event_frame(EventStream.empty((4, 4)), (5.0, 1.0))

    @pytest.mark.parametrize("shape", [(5, 3), (4, 4), (3, 5, 1), (15,)])
    def test_counts_not_of_shape_height_width_rejected(self, shape):
        EventFrame((5, 3), np.zeros((3, 5)), (0.0, 1.0))
        with pytest.raises(ValueError, match="counts shape"):
            EventFrame((5, 3), np.zeros(shape), (0.0, 1.0))

    def test_matches_bruteforce_count(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            s = random_stream(rng, (10, 10), 100)
            frame = make_event_frame(s, (250.0, 500.0))
            expected = sum(1 for e in s if 250.0 <= e.t < 500.0)
            assert frame.counts.sum() == expected


class TestTimeSurface:
    def test_keeps_latest(self):
        s = EventStream((4, 4), [10.0, 20.0, 30.0], [2, 2, 2], [2, 2, 2], [1, 1, 1])
        surf = make_time_surface(s, (0.0, 100.0))
        assert surf.last_t[2, 2] == 30.0

    def test_window_cut(self):
        s = EventStream((4, 4), [10.0, 20.0, 30.0], [2, 2, 2], [2, 2, 2], [1, 1, 1])
        surf = make_time_surface(s, (0.0, 25.0))
        assert surf.last_t[2, 2] == 20.0

    def test_no_event_marker(self):
        surf = make_time_surface(EventStream.empty((4, 4)), (0.0, 1.0))
        assert np.isnan(surf.last_t).all()
        assert not surf.occupied.any()

    @pytest.mark.parametrize("shape", [(5, 3), (4, 4), (3, 5, 1), (15,)])
    def test_last_t_not_of_shape_height_width_rejected(self, shape):
        TimeSurface((5, 3), np.zeros((3, 5)), (0.0, 1.0))
        with pytest.raises(ValueError, match="last_t shape"):
            TimeSurface((5, 3), np.zeros(shape), (0.0, 1.0))

    def test_matches_bruteforce_max(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            s = random_stream(rng, (8, 8), 120)
            surf = make_time_surface(s, (100.0, 900.0))
            expected = np.full((8, 8), np.nan)
            for e in s:
                if 100.0 <= e.t < 900.0:
                    cur = expected[e.y, e.x]
                    expected[e.y, e.x] = e.t if np.isnan(cur) else max(cur, e.t)
            assert np.array_equal(np.isnan(surf.last_t), np.isnan(expected))
            assert np.allclose(surf.last_t[surf.occupied], expected[~np.isnan(expected)])


def _oracle_make_event_frame(stream: EventStream, window: tuple[float, float]) -> EventFrame:
    """Count events per pixel over [t_start, t_end)."""
    t0, t1 = window
    if t1 < t0:
        raise ValueError(f"invalid window ({t0}, {t1})")
    w, h = stream.resolution
    counts = np.zeros((h, w), dtype=np.int64)
    i0, i1 = stream.window_indices(t0, t1)
    np.add.at(counts, (stream.y[i0:i1], stream.x[i0:i1]), 1)
    return EventFrame(stream.resolution, counts, (float(t0), float(t1)))


def _oracle_make_time_surface(stream: EventStream, window: tuple[float, float]) -> TimeSurface:
    """Keep, per pixel, the latest event timestamp within [t_start, t_end)."""
    t0, t1 = window
    if t1 < t0:
        raise ValueError(f"invalid window ({t0}, {t1})")
    w, h = stream.resolution
    last = np.full((h, w), -np.inf)
    i0, i1 = stream.window_indices(t0, t1)
    np.maximum.at(last, (stream.y[i0:i1], stream.x[i0:i1]), stream.t[i0:i1])
    last[~np.isfinite(last)] = np.nan
    return TimeSurface(stream.resolution, last, (float(t0), float(t1)))


@st.composite
def windowed_streams(draw):
    """A stream on a small sensor, often one row or one column, and a window.

    Pixels come from a small pool and timestamps from a few values, so pixels
    repeat with equal and with different timestamps. The window edges are
    event timestamps or the ends of the time range, and a window may be empty.
    """
    shape = draw(st.sampled_from(["one row", "one column", "any"]), label="shape")
    w = 1 if shape == "one column" else draw(st.integers(2, 40), label="w")
    h = 1 if shape == "one row" else draw(st.integers(2, 40), label="h")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    n = draw(st.integers(0, 60), label="n")
    pixels = rng.integers(0, w * h, draw(st.integers(1, 8), label="pixels"))
    times = np.round(rng.uniform(0.0, 100.0, draw(st.integers(1, 6), label="times")), 1)
    k, t = rng.choice(pixels, n), rng.choice(times, n)
    stream = EventStream.from_arrays((w, h), t, k % w, k // w, rng.choice([-1, 1], n))
    edges = np.concatenate([times, [0.0, 100.0]])
    a = float(rng.choice(edges))
    b = a if draw(st.sampled_from(["empty", "any", "any", "any"]), label="window") == "empty" else float(rng.choice(edges))
    return stream, (min(a, b), max(a, b))


class TestFrameAndSurfaceMatchOracle:
    """Frames and surfaces built on flat raster indices give the 2-D code's bytes."""

    @settings(max_examples=300)
    @given(windowed_streams())
    def test_property(self, case):
        stream, window = case
        for make, oracle, field in ((make_event_frame, _oracle_make_event_frame, "counts"),
                                    (make_time_surface, _oracle_make_time_surface, "last_t")):
            got, want = make(stream, window), oracle(stream, window)
            assert (got.resolution, got.window) == (want.resolution, want.window)
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), field

    @settings(max_examples=150)
    @given(windowed_streams())
    def test_matches_parent_body(self, case):
        TestSurfaceMatchesParent.check(*case)

    @pytest.mark.parametrize("times", [[-0.0, 0.0], [0.0, -0.0], [-0.0, 0.0, -0.0], [0.0, 0.0, -0.0, 1.0]])
    def test_signed_zero_ties(self, times):
        # a tie between 0.0 and -0.0 keeps the later event's sign under fmax.at, as under maximum.at
        n = len(times)
        stream = EventStream((2, 1), times, [1] * n, [0] * n, [1] * n)
        for window in ((0.0, 1.0), (-0.0, 2.0)):
            TestSurfaceMatchesParent.check(stream, window)
            got, want = make_time_surface(stream, window).last_t, _oracle_make_time_surface(stream, window).last_t
            assert got.tobytes() == want.tobytes()


def _parent_make_time_surface(stream: EventStream, window: tuple[float, float]) -> TimeSurface:
    """Keep, per pixel, the latest event timestamp within [t_start, t_end)."""
    t0, t1 = window
    if t1 < t0:
        raise ValueError(f"invalid window ({t0}, {t1})")
    w, h = stream.resolution
    last = np.full(w * h, -np.inf)
    i0, i1 = stream.window_indices(t0, t1)
    np.maximum.at(last, stream.y[i0:i1].astype(np.intp) * w + stream.x[i0:i1], stream.t[i0:i1])
    last[~np.isfinite(last)] = np.nan
    return TimeSurface(stream.resolution, last.reshape(h, w), (float(t0), float(t1)))


# widths of one pixel, primes, and the bundled scenarios' widths
WIDTHS = (1, 2, 3, 5, 7, 13, 31, 127, 640, 1024)


def surface_case(resolution, occupancy, repeats, seed):
    """A stream over ``resolution`` and the window [10, 20).

    Each pixel is occupied with probability ``occupancy`` and then holds
    ``repeats`` events (one of them where repeats is 0), timed on the window
    edges, inside it, before it, after it, and at 0 and -0.0.
    """
    w, h = resolution
    rng = np.random.default_rng(seed)
    k = np.repeat(np.flatnonzero(rng.random(w * h) < occupancy), max(repeats, 1))
    times = np.concatenate([[10.0, 20.0, 0.0, -0.0, 25.0], rng.uniform(0.0, 30.0, 4), rng.uniform(10.0, 20.0, 4)])
    stream = EventStream.from_arrays(resolution, rng.choice(times, len(k)), k % w, k // w, np.ones(len(k)))
    return stream, (10.0, 20.0)


class TestSurfaceMatchesParent:
    """A surface that starts at NaN and takes ``fmax`` gives the ``-inf`` and ``maximum`` surface's bytes."""

    @settings(max_examples=60)
    @given(w=st.sampled_from(WIDTHS), h=st.integers(1, 12), occupancy=st.sampled_from([0.0, 0.3, 1.0]),
           repeats=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
    def test_property(self, w, h, occupancy, repeats, seed):
        self.check(*surface_case((w, h), occupancy, repeats, seed))

    @pytest.mark.parametrize("resolution", [(640, 480), (1024, 320)])
    @pytest.mark.parametrize("occupancy", [0.0, 1.0])
    def test_bundled(self, resolution, occupancy):
        self.check(*surface_case(resolution, occupancy, 1, 5))

    @staticmethod
    def check(stream, window):
        got, want = make_time_surface(stream, window), _parent_make_time_surface(stream, window)
        assert (got.resolution, got.window) == (want.resolution, want.window)
        a, b = got.last_t, want.last_t
        assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)
        assert a.tobytes() == b.tobytes()  # also the NaN bits and the sign of zero


class TestVoxelGrid:
    def test_event_at_window_start(self):
        s = EventStream((4, 4), [0.0], [1], [2], [1])
        grid = make_voxel_grid(s, (0.0, 4.0), bins=5)
        assert grid.values[0, 2, 1] == 1.0
        assert grid.values.sum() == 1.0

    def test_bilinear_midpoint(self):
        # normalized time 1.5 with 5 bins over span 4 -> half weight in bins 1 and 2
        s = EventStream((4, 4), [1.5], [0], [0], [1])
        grid = make_voxel_grid(s, (0.0, 4.0), bins=5)
        assert grid.values[1, 0, 0] == pytest.approx(0.5)
        assert grid.values[2, 0, 0] == pytest.approx(0.5)

    def test_opposite_polarities_cancel(self):
        s = EventStream((4, 4), [1.0, 1.0], [2, 2], [2, 2], [1, -1])
        grid = make_voxel_grid(s, (0.0, 4.0), bins=5)
        assert np.all(grid.values == 0.0)

    def test_rejects_small_bin_count(self):
        with pytest.raises(ValueError):
            make_voxel_grid(EventStream.empty((4, 4)), (0.0, 1.0), bins=1)

    def test_rejects_nonpositive_span(self):
        with pytest.raises(ValueError):
            make_voxel_grid(EventStream.empty((4, 4)), (0.0, 0.0), bins=5)

    def test_mass_conservation(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = 500
            s = EventStream.from_arrays(
                (16, 16),
                rng.uniform(0.0, 100.0, n),
                rng.integers(0, 16, n),
                rng.integers(0, 16, n),
                np.ones(n),
            )
            grid = make_voxel_grid(s, (0.0, 100.0 * 5 / 4), bins=5)  # t* spans [0, 4]
            assert grid.values.sum() == pytest.approx(n, rel=1e-9)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        a = random_stream(rng, (8, 8), 300, t_max=50.0)
        b = random_stream(rng, (8, 8), 200, t_max=50.0)
        merged = EventStream.merge([a, b])
        ga = make_voxel_grid(a, (0.0, 50.0), bins=5).values
        gb = make_voxel_grid(b, (0.0, 50.0), bins=5).values
        gm = make_voxel_grid(merged, (0.0, 50.0), bins=5).values
        assert np.allclose(gm, ga + gb, rtol=1e-9, atol=1e-12)

    def test_boundary_bin_gets_only_inrange_weight(self):
        # t* slightly negative: only the in-range part of the kernel lands in bin 0
        s = EventStream((4, 4), [0.0], [0], [0], [1])
        grid = make_voxel_grid(s, (1.0, 4.0), bins=5)  # t* = (4/4)*(0-1) = -1 -> no weight
        assert grid.values.sum() == 0.0
        s2 = EventStream((4, 4), [0.5], [0], [0], [1])
        grid2 = make_voxel_grid(s2, (1.0, 4.0), bins=5)  # t* = -0.5 -> bin 0 gets 0.5
        assert grid2.values[0, 0, 0] == pytest.approx(0.5)
        assert grid2.values.sum() == pytest.approx(0.5)


class TestLogDepthCodec:
    def test_d_max_encodes_to_one(self):
        dm = DepthMap.constant((2, 2), 1000.0)
        assert np.allclose(encode_log_depth(dm), 1.0)

    def test_alpha_point_encodes_to_zero(self):
        dm = DepthMap.constant((2, 2), 1000.0 * math.exp(-5.7))
        assert np.allclose(encode_log_depth(dm), 0.0, atol=1e-12)

    def test_hand_value_100m(self):
        dm = DepthMap.constant((1, 1), 100.0)
        expected = 1.0 - math.log(10.0) / 5.7  # ~0.59603
        assert encode_log_depth(dm)[0, 0] == pytest.approx(expected, rel=1e-12)
        assert encode_log_depth(dm)[0, 0] == pytest.approx(0.59603, abs=1e-5)

    def test_invalid_pixels_carry_marker(self):
        dm = DepthMap((2, 1), [[1.0, 5.0]], [[True, False]])
        out = encode_log_depth(dm)
        assert np.isfinite(out[0, 0])
        assert np.isnan(out[0, 1])

    def test_nonpositive_valid_depth_rejected(self):
        dm = DepthMap((2, 1), [[-1.0, 5.0]], [[True, True]])
        with pytest.raises(ValueError, match="positive"):
            encode_log_depth(dm)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_nonfinite_valid_depth_rejected(self, bad):
        dm = DepthMap((2, 1), [[bad, 5.0]], [[True, True]])
        with pytest.raises(ValueError, match="strictly positive, finite"):
            encode_log_depth(dm)

    def test_nonfinite_invalid_depth_encodes_to_marker(self):
        dm = DepthMap((2, 1), [[np.inf, 5.0]], [[False, True]])
        assert np.isnan(encode_log_depth(dm)[0, 0])

    def test_out_of_range_values_decode_invalid(self):
        # -1000 underflows to depth 0 and 1000 overflows to inf: neither is a valid depth, and no
        # overflow warning escapes (warnings are errors under this suite)
        values = np.array([[-1000.0, 1000.0, np.inf, -np.inf, np.nan, 1e308, 1.0]])
        out = decode_log_depth(values)
        assert out.valid.tolist() == [[False] * 6 + [True]]
        assert out.depth.tolist() == [[0.0] * 6 + [1000.0]]
        back = encode_log_depth(out)  # a decoded map keeps DepthMap's invariant, so it encodes again
        assert np.isnan(back[0, :6]).all() and back[0, 6] == 1.0

    def test_decode_points(self):
        out = decode_log_depth(np.array([[1.0, 0.0]]))
        assert out.depth[0, 0] == pytest.approx(1000.0)
        assert out.depth[0, 1] == pytest.approx(1000.0 * math.exp(-5.7), rel=1e-12)
        assert out.depth[0, 1] == pytest.approx(3.3460, abs=5e-5)

    def test_round_trip(self):
        rng = np.random.default_rng(13)
        depths = rng.uniform(0.1, 1000.0, size=(100, 100))
        dm = DepthMap((100, 100), depths, np.ones((100, 100), bool))
        back = decode_log_depth(encode_log_depth(dm))
        assert np.allclose(back.depth, depths, rtol=1e-9)

    def test_encode_monotone(self):
        d = np.sort(np.random.default_rng(17).uniform(0.01, 1000.0, 500))
        dm = DepthMap((500, 1), d[None, :], np.ones((1, 500), bool))
        enc = encode_log_depth(dm)[0]
        assert np.all(np.diff(enc) > 0)
