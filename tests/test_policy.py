from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy import ndimage

from evsl import harness
from evsl.events import DepthMap, EventFrame, make_event_frame
from evsl.policy import (
    DensePolicy,
    EventGuidedPolicy,
    IlluminationMask,
    RoiSet,
    SparsePolicy,
    _MEDIAN_CHUNK,
    active_pixel_fraction,
    build_mask,
    detect_roi,
    median_filter_frame,
    scale_roi,
)
from evsl.scene import generate_guide_events


def frame_of(counts, window=(0.0, 1.0)):
    counts = np.asarray(counts, dtype=np.int64)
    h, w = counts.shape
    return EventFrame((w, h), counts, window)


def median_oracle(counts, k):
    h, w = counts.shape
    pad = k // 2
    padded = np.zeros((h + 2 * pad, w + 2 * pad), dtype=counts.dtype)
    padded[pad:pad + h, pad:pad + w] = counts
    out = np.zeros_like(counts)
    for y in range(h):
        for x in range(w):
            out[y, x] = np.median(padded[y:y + k, x:x + k])
    return out


def components_oracle(binary):
    """8-connected components by flood fill; returns list of pixel sets."""
    h, w = binary.shape
    seen = np.zeros_like(binary, dtype=bool)
    comps = []
    for sy in range(h):
        for sx in range(w):
            if binary[sy, sx] and not seen[sy, sx]:
                stack = [(sy, sx)]
                seen[sy, sx] = True
                pixels = set()
                while stack:
                    y, x = stack.pop()
                    pixels.add((y, x))
                    for dy in (-1, 0, 1):
                        for dx in (-1, 0, 1):
                            ny, nx = y + dy, x + dx
                            if 0 <= ny < h and 0 <= nx < w and binary[ny, nx] and not seen[ny, nx]:
                                seen[ny, nx] = True
                                stack.append((ny, nx))
                comps.append(pixels)
    return comps


# --------------------------------------------------------------------------
# Oracle: the scipy mask stage that median_filter_frame and detect_roi
# replaced, verbatim
# --------------------------------------------------------------------------

def scipy_median_filter_frame(frame: EventFrame, kernel_px: int = 3) -> EventFrame:
    """Median of the k x k count neighborhood per pixel; borders zero-padded."""
    if kernel_px < 1 or kernel_px % 2 == 0:
        raise ValueError("kernel size must be odd and >= 1")
    if kernel_px == 1:
        return frame
    filtered = ndimage.median_filter(frame.counts, size=kernel_px, mode="constant", cval=0)
    return EventFrame(frame.resolution, filtered, frame.window)


_EIGHT_CONNECTED = np.ones((3, 3), dtype=int)


def scipy_detect_roi(
    frame: EventFrame,
    active_threshold: int = 1,
    min_area_px: int = 1,
    dilation_px: int = 0,
) -> RoiSet:
    """Bounding boxes of 8-connected active components, dilated and clipped.

    A pixel is active when its count reaches ``active_threshold``; components
    smaller than ``min_area_px`` are discarded as specks.
    """
    if active_threshold < 1:
        raise ValueError("active_threshold must be >= 1")
    w, h = frame.resolution
    binary = frame.counts >= active_threshold
    labels, n = ndimage.label(binary, structure=_EIGHT_CONNECTED)
    if n == 0:
        return RoiSet(())
    areas = np.bincount(labels.ravel(), minlength=n + 1)
    boxes = []
    for label, sl in enumerate(ndimage.find_objects(labels), start=1):
        if sl is None or areas[label] < min_area_px:
            continue
        ys, xs = sl
        boxes.append((
            max(xs.start - dilation_px, 0),
            max(ys.start - dilation_px, 0),
            min(xs.stop - 1 + dilation_px, w - 1),
            min(ys.stop - 1 + dilation_px, h - 1),
        ))
    return RoiSet(tuple(boxes))


class TestMedianFilter:
    def test_salt_noise_removed(self):
        counts = np.zeros((7, 7), dtype=int)
        counts[3, 3] = 1
        out = median_filter_frame(frame_of(counts), 3)
        assert out.counts.sum() == 0

    def test_kernel_one_is_identity(self):
        rng = np.random.default_rng(0)
        counts = rng.integers(0, 4, (6, 6))
        out = median_filter_frame(frame_of(counts), 1)
        assert np.array_equal(out.counts, counts)

    def test_solid_block_against_oracle(self):
        counts = np.zeros((9, 9), dtype=int)
        counts[2:7, 2:7] = 1
        out = median_filter_frame(frame_of(counts), 3)
        assert np.array_equal(out.counts, median_oracle(counts, 3))
        assert np.all(out.counts[3:6, 3:6] == 1)  # interior survives

    def test_random_frames_match_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            counts = (rng.random((12, 12)) < 0.3).astype(np.int64) * rng.integers(1, 5, (12, 12))
            for k in (3, 5):
                out = median_filter_frame(frame_of(counts), k)
                assert np.array_equal(out.counts, median_oracle(counts, k))

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            median_filter_frame(frame_of(np.zeros((4, 4), int)), 2)


class TestDetectRoi:
    def test_empty_frame(self):
        assert len(detect_roi(frame_of(np.zeros((8, 8), int)))) == 0

    @pytest.mark.parametrize("counts", [np.zeros((1, 1), int), np.ones((6, 9), int)])
    def test_no_pixel_reaches_threshold(self, counts):
        assert detect_roi(frame_of(counts), active_threshold=2).boxes == ()

    def test_single_pixel_dilated_box(self):
        counts = np.zeros((21, 21), dtype=int)
        counts[10, 10] = 1
        rois = detect_roi(frame_of(counts), active_threshold=1, min_area_px=1, dilation_px=4)
        assert rois.boxes == ((6, 6, 14, 14),)

    def test_two_separated_clusters(self):
        counts = np.zeros((20, 40), dtype=int)
        counts[4:8, 3:7] = 2
        counts[10:15, 25:30] = 1
        rois = detect_roi(frame_of(counts), 1, 1, 2)
        assert len(rois) == 2
        for pixels in components_oracle(counts >= 1):
            xs = [x for _, x in pixels]
            ys = [y for y, _ in pixels]
            covered = any(
                bx0 <= min(xs) and max(xs) <= bx1 and by0 <= min(ys) and max(ys) <= by1
                for bx0, by0, bx1, by1 in rois.boxes
            )
            assert covered

    def test_min_area_prunes_specks(self):
        counts = np.zeros((10, 10), dtype=int)
        counts[1, 1] = 1
        counts[5:8, 5:8] = 1
        rois = detect_roi(frame_of(counts), 1, min_area_px=4, dilation_px=0)
        assert rois.boxes == ((5, 5, 7, 7),)

    def test_threshold_selects_pixels(self):
        counts = np.zeros((6, 6), dtype=int)
        counts[2, 2] = 1
        counts[3, 3] = 5
        rois = detect_roi(frame_of(counts), active_threshold=2, min_area_px=1, dilation_px=0)
        assert rois.boxes == ((3, 3, 3, 3),)

    def test_boxes_match_component_oracle_random(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            counts = (rng.random((14, 14)) < 0.2).astype(np.int64)
            rois = detect_roi(frame_of(counts), 1, 1, 0)
            comps = components_oracle(counts >= 1)
            expected = {
                (min(x for _, x in c), min(y for y, _ in c), max(x for _, x in c), max(y for y, _ in c))
                for c in comps
            }
            assert set(rois.boxes) == expected

    def test_dilation_clips_to_frame(self):
        counts = np.zeros((5, 5), dtype=int)
        counts[0, 0] = 1
        rois = detect_roi(frame_of(counts), 1, 1, 3)
        assert rois.boxes == ((0, 0, 3, 3),)


@st.composite
def count_frames(draw, max_side=24):
    """Frames from empty to fully active, with counts 1-4 where active."""
    h = draw(st.integers(1, max_side), label="height")
    w = draw(st.integers(1, max_side), label="width")
    density = draw(st.sampled_from([0.0, 0.03, 0.1, 0.25, 0.5, 0.8, 1.0]), label="density")
    rng = np.random.default_rng(draw(st.integers(0, 2**16), label="seed"))
    return frame_of((rng.random((h, w)) < density) * rng.integers(1, 5, (h, w)))


def serpentine(h, w):
    """Every other row active, joined at alternating ends: one long path."""
    counts = np.zeros((h, w), dtype=np.int64)
    counts[::2] = 1
    counts[1::4, -1] = 1
    counts[3::4, 0] = 1
    return counts


def spiral(n):
    """A one-pixel-wide square spiral walked inward from the top-left corner."""
    counts = np.zeros((n, n), dtype=np.int64)
    y, x, dy, dx = 0, 0, 0, 1
    counts[y, x] = 1
    while True:
        for _ in range(2):  # straight on, else turn right
            ny, nx, fy, fx = y + dy, x + dx, y + 2 * dy, x + 2 * dx
            inside = 0 <= ny < n and 0 <= nx < n
            blocked = 0 <= fy < n and 0 <= fx < n and counts[fy, fx]
            if inside and not counts[ny, nx] and not blocked:
                break
            dy, dx = dx, -dy
        else:
            return counts
        y, x = ny, nx
        counts[y, x] = 1


def border_clusters(h, w):
    """Two-pixel clusters on every corner and the middle of every edge."""
    counts = np.zeros((h, w), dtype=np.int64)
    for y in (0, h // 2, h - 1):
        for x in (0, w // 2, w - 1):
            if (y, x) != (h // 2, w // 2):
                counts[y, x] = 2
                counts[min(y + 1, h - 1) if y == 0 else y - 1, x] = 3
    return counts


SHAPES = {
    "empty": np.zeros((9, 13), dtype=np.int64),
    "full": np.full((9, 13), 2, dtype=np.int64),
    "serpentine": serpentine(41, 37),
    "spiral": spiral(40),
    "border_clusters": border_clusters(15, 22),
    # more median candidates than one gather of median_filter_frame takes
    "busy": (np.random.default_rng(4).random((150, 140)) < 0.6) * np.random.default_rng(5).integers(1, 4, (150, 140)),
}


class TestMaskStageMatchesScipy:
    """median_filter_frame and detect_roi against the scipy calls they replaced."""

    @settings(max_examples=100)
    @given(frame=count_frames(), k=st.sampled_from([1, 3, 5, 7]))
    def test_median_property(self, frame, k):
        got, want = median_filter_frame(frame, k), scipy_median_filter_frame(frame, k)
        assert got.resolution == want.resolution and got.window == want.window
        assert np.array_equal(got.counts, want.counts)

    @settings(max_examples=100)
    @given(frame=count_frames(), threshold=st.integers(1, 3), min_area=st.integers(1, 8),
           dilation=st.integers(0, 5))
    def test_roi_property(self, frame, threshold, min_area, dilation):
        got = detect_roi(frame, threshold, min_area, dilation)
        assert got.boxes == scipy_detect_roi(frame, threshold, min_area, dilation).boxes

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    def test_shapes(self, shape, k):
        frame = frame_of(SHAPES[shape])
        filtered = median_filter_frame(frame, k)
        assert np.array_equal(filtered.counts, scipy_median_filter_frame(frame, k).counts)
        for target in (frame, filtered):
            for threshold, min_area, dilation in ((1, 1, 0), (2, 3, 2), (3, 1, 30), (1, 200, 1)):
                got = detect_roi(target, threshold, min_area, dilation)
                assert got.boxes == scipy_detect_roi(target, threshold, min_area, dilation).boxes

    @pytest.mark.parametrize("name", ["moving_object", "plane_compare"])
    def test_every_guide_frame_of_bundled_scenario(self, name):
        scenario = harness.load_scenario(Path(__file__).resolve().parents[1] / "scenarios" / f"{name}.yaml")
        policy = scenario.policy
        args = (policy.active_threshold, policy.min_area_px, policy.dilation_px)
        for p in range(scenario.periods):
            window = harness._window(scenario, p)
            stream = generate_guide_events(scenario.script, scenario.guide_camera, window, seed=scenario.seed + p)
            frame = make_event_frame(stream, window)
            filtered = median_filter_frame(frame, policy.median_kernel_px)
            want = scipy_median_filter_frame(frame, policy.median_kernel_px)
            assert np.array_equal(filtered.counts, want.counts)
            assert detect_roi(filtered, *args).boxes == scipy_detect_roi(want, *args).boxes


def _parent_median_filter_frame(frame: EventFrame, kernel_px: int = 3) -> EventFrame:
    """Median of the k x k count neighborhood per pixel; borders zero-padded.

    Only pixels within k // 2 of a nonzero count are visited: every other
    pixel sees an all-zero neighborhood, so its median is 0.
    """
    if kernel_px < 1 or kernel_px % 2 == 0:
        raise ValueError("kernel size must be odd and >= 1")
    if kernel_px == 1:
        return frame
    k, r = kernel_px, kernel_px // 2
    h, w = frame.counts.shape
    padded = np.zeros((h + 2 * r, w + 2 * r), dtype=frame.counts.dtype)
    padded[r:r + h, r:r + w] = frame.counts
    nonzero = padded != 0
    near = np.zeros((h, w), dtype=bool)
    for dy, dx in np.ndindex(k, k):
        near |= nonzero[dy:dy + h, dx:dx + w]
    flat = np.flatnonzero(near)
    windows = sliding_window_view(padded, (k, k))
    filtered = np.zeros(h * w, dtype=frame.counts.dtype)
    for i in range(0, len(flat), _MEDIAN_CHUNK):
        chunk = flat[i:i + _MEDIAN_CHUNK]
        values = windows[np.divmod(chunk, w)].reshape(len(chunk), k * k)
        filtered[chunk] = np.partition(values, k * k // 2, axis=1)[:, k * k // 2]
    return EventFrame(frame.resolution, filtered.reshape(h, w), frame.window)


def _parent_detect_roi(
    frame: EventFrame,
    active_threshold: int = 1,
    min_area_px: int = 1,
    dilation_px: int = 0,
) -> RoiSet:
    """Bounding boxes of 8-connected active components, dilated and clipped.

    A pixel is active when its count reaches ``active_threshold``; components
    smaller than ``min_area_px`` are discarded as specks. Only active pixels
    are visited: each is linked to its active right, lower-left, lower and
    lower-right neighbours, and every component takes the smallest raster
    index among its pixels as its label (minimum-label hooking with pointer
    jumping). Boxes come out in the raster order of each component's first
    pixel.
    """
    if active_threshold < 1:
        raise ValueError("active_threshold must be >= 1")
    w, h = frame.resolution
    active = np.flatnonzero(frame.counts >= active_threshold)
    if active.size == 0:
        return RoiSet(())
    ys, xs = np.divmod(active, w)
    ends = []
    for offset, in_row in ((1, xs < w - 1), (w - 1, xs > 0), (w, True), (w + 1, xs < w - 1)):
        pos = np.searchsorted(active, active + offset)
        hit = (pos < active.size) & in_row
        hit[hit] = active[pos[hit]] == active[hit] + offset
        ends.append((np.flatnonzero(hit), pos[hit]))
    a, b = (np.concatenate(e) for e in zip(*ends))
    root = np.arange(active.size)
    while not np.array_equal(ra := root[a], rb := root[b]):
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while not np.array_equal(jumped := root[root], root):
            root = jumped
    first, comp = np.unique(root, return_inverse=True)
    x0, x1, y1 = np.full(first.size, w), np.zeros(first.size, int), np.zeros(first.size, int)
    np.minimum.at(x0, comp, xs)
    np.maximum.at(x1, comp, xs)
    np.maximum.at(y1, comp, ys)
    keep = np.bincount(comp) >= min_area_px
    boxes = np.stack([
        np.maximum(x0 - dilation_px, 0),
        np.maximum(ys[first] - dilation_px, 0),
        np.minimum(x1 + dilation_px, w - 1),
        np.minimum(y1 + dilation_px, h - 1),
    ], axis=1)[keep]
    return RoiSet(tuple(map(tuple, boxes.tolist())))


# widths of one pixel, primes, and the bundled scenarios' widths
WIDTHS = (1, 2, 3, 5, 7, 13, 31, 127, 640, 1024)


class TestMaskStageMatchesParent:
    """The int32 row and column split gives the int64 ``np.divmod`` median and ROIs."""

    @settings(max_examples=60)
    @given(w=st.sampled_from(WIDTHS), h=st.integers(1, 12), density=st.sampled_from([0.0, 0.1, 1.0]),
           seed=st.integers(0, 2**16), k=st.sampled_from([3, 5, 7]), dilation=st.sampled_from([0, 3, 2**31 + 5]))
    def test_property(self, w, h, density, seed, k, dilation):
        rng = np.random.default_rng(seed)
        self.check(frame_of((rng.random((h, w)) < density) * rng.integers(1, 4, (h, w))), k, dilation)

    def test_full_frame_past_one_gather(self):
        frame = frame_of(np.ones((20, 1024), np.int64))
        assert frame.counts.size > _MEDIAN_CHUNK
        self.check(frame, 3, 4)

    @staticmethod
    def check(frame, k, dilation):
        got, want = median_filter_frame(frame, k), _parent_median_filter_frame(frame, k)
        assert got.counts.dtype == want.counts.dtype and np.array_equal(got.counts, want.counts)
        assert detect_roi(frame, 1, 2, dilation).boxes == _parent_detect_roi(frame, 1, 2, dilation).boxes


class TestBuildMask:
    def test_dense_fraction_is_one(self):
        mask = build_mask(DensePolicy(), (100, 100))
        assert mask.fraction == 1.0

    def test_sparse_fraction_exact_when_divisible(self):
        mask = build_mask(SparsePolicy(4), (100, 100))
        assert mask.fraction == 0.25

    def test_sparse_fraction_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            w, h = int(rng.integers(5, 40)), int(rng.integers(5, 40))
            n = int(rng.integers(1, 20))
            frac = build_mask(SparsePolicy(n), (w, h)).fraction
            assert 1.0 / n <= frac <= 1.0 / n + 1.0 / (w * h)

    def test_sparse_stride_one_equals_dense(self):
        assert np.array_equal(
            build_mask(SparsePolicy(1), (13, 7)).on,
            build_mask(DensePolicy(), (13, 7)).on,
        )

    def test_event_guided_matches_bruteforce(self):
        rng = np.random.default_rng(5)
        policy = EventGuidedPolicy(background_stride=16)
        for _ in range(20):
            w, h = int(rng.integers(20, 60)), int(rng.integers(20, 60))
            boxes = []
            for _ in range(int(rng.integers(0, 4))):
                x0 = int(rng.integers(0, w - 1))
                y0 = int(rng.integers(0, h - 1))
                boxes.append((x0, y0, int(rng.integers(x0, w)), int(rng.integers(y0, h))))
            mask = build_mask(policy, (w, h), RoiSet(tuple(boxes)))
            expected = np.zeros((h, w), dtype=bool)
            for idx in range(w * h):
                y, x = divmod(idx, w)
                in_roi = any(bx0 <= x <= bx1 and by0 <= y <= by1 for bx0, by0, bx1, by1 in boxes)
                expected[y, x] = in_roi or idx % 16 == 0
            assert np.array_equal(mask.on, expected)

    def test_first_period_fallback_without_rois(self):
        # rois=None: no guide period seen yet, so first_period picks the mask
        stride = build_mask(SparsePolicy(8), (13, 7)).on
        assert build_mask(EventGuidedPolicy(background_stride=8, first_period="dense"), (13, 7)).on.all()
        sparse = build_mask(EventGuidedPolicy(background_stride=8, first_period="sparse"), (13, 7))
        assert np.array_equal(sparse.on, stride)

    @pytest.mark.parametrize("first_period", ["dense", "sparse"])
    def test_empty_rois_give_the_stride(self, first_period):
        policy = EventGuidedPolicy(background_stride=8, first_period=first_period)
        assert np.array_equal(build_mask(policy, (13, 7), RoiSet(())).on, build_mask(SparsePolicy(8), (13, 7)).on)

    def test_event_guided_fraction_floor(self):
        policy = EventGuidedPolicy(background_stride=8)
        rois = RoiSet(((10, 10, 20, 20),))
        eg = build_mask(policy, (64, 48), rois).fraction
        floor = build_mask(SparsePolicy(8), (64, 48)).fraction
        assert floor <= eg <= 1.0

    def test_mask_monotone_under_roi_growth(self):
        policy = EventGuidedPolicy(background_stride=16)
        small = build_mask(policy, (40, 40), RoiSet(((10, 10, 14, 14),)))
        large = build_mask(policy, (40, 40), RoiSet(((8, 8, 20, 20),)))
        assert np.all(large.on[small.on])

    def test_roi_membership_wins_over_stride(self):
        policy = EventGuidedPolicy(background_stride=16)
        mask = build_mask(policy, (32, 32), RoiSet(((4, 4, 9, 9),)))
        assert mask.on[4:10, 4:10].all()

    def test_scaling_guide_to_projector(self):
        # guide at 32x24, projector at 64x48: a guide box doubles
        assert scale_roi((4, 3, 7, 5), (2.0, 2.0), (64, 48)) == (8, 6, 15, 11)
        # identity scale keeps the box
        assert scale_roi((4, 3, 7, 5), (1.0, 1.0), (32, 24)) == (4, 3, 7, 5)

    def test_coverage_every_active_pixel_in_mask(self):
        # with min_area 1, every active pixel of the filtered frame lies in a
        # box, hence inside the mask
        rng = np.random.default_rng(17)
        policy = EventGuidedPolicy(min_area_px=1, dilation_px=2, background_stride=16)
        for _ in range(20):
            counts = (rng.random((24, 24)) < 0.15).astype(np.int64)
            frame = frame_of(counts)
            rois = detect_roi(frame, policy.active_threshold, 1, policy.dilation_px)
            mask = build_mask(policy, (24, 24), rois)
            ys, xs = np.nonzero(counts >= policy.active_threshold)
            assert mask.on[ys, xs].all()

    @settings(max_examples=150)
    @given(
        frame=count_frames(),
        kernel=st.sampled_from([1, 3, 5]),
        threshold=st.integers(1, 3),
        dilation=st.integers(0, 3),
        proj_w=st.integers(1, 60),
        proj_h=st.integers(1, 60),
    )
    def test_coverage_after_filter_and_scale(self, frame, kernel, threshold, dilation, proj_w, proj_h):
        # the guide stage as the harness runs it, then the mask on a projector
        # of another resolution: every projector pixel that overlaps an
        # active pixel of the filtered guide frame is lit
        w, h = frame.resolution
        if (proj_w, proj_h) == (w, h):
            proj_w += 1
        policy = EventGuidedPolicy(kernel, threshold, min_area_px=1, dilation_px=dilation, background_stride=7)
        filtered = median_filter_frame(frame, policy.median_kernel_px)
        rois = detect_roi(filtered, policy.active_threshold, policy.min_area_px, policy.dilation_px)
        sx, sy = proj_w / w, proj_h / h
        mask = build_mask(policy, (proj_w, proj_h), rois, (sx, sy))
        for y, x in zip(*np.nonzero(filtered.counts >= threshold)):
            x0, x1 = int(np.floor(x * sx)), min(int(np.ceil((x + 1) * sx)), proj_w)
            y0, y1 = int(np.floor(y * sy)), min(int(np.ceil((y + 1) * sy)), proj_h)
            assert x0 < x1 and y0 < y1
            assert mask.on[y0:y1, x0:x1].all(), (y, x)


class TestActivePixelFraction:
    def test_empty(self):
        assert active_pixel_fraction(frame_of(np.zeros((8, 8), int))) == 0.0

    def test_saturated(self):
        assert active_pixel_fraction(frame_of(np.ones((8, 8), int))) == 1.0

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(9)
        counts = rng.integers(0, 3, (16, 16))
        frac = active_pixel_fraction(frame_of(counts), 2)
        assert frac == (counts >= 2).sum() / 256

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            active_pixel_fraction(frame_of(np.zeros((4, 4), int)), 0)


def _summed_mask_fraction(mask: IlluminationMask) -> float:
    w, h = mask.resolution
    return float(mask.on.sum()) / (w * h)


def _summed_valid_count(depth_map: DepthMap) -> int:
    return int(depth_map.valid.sum())


def _summed_active_pixel_fraction(frame: EventFrame, active_threshold: int = 1) -> float:
    w, h = frame.resolution
    return float((frame.counts >= active_threshold).sum()) / (w * h)


def count_cases(resolution, density, seed):
    """A count frame on ``resolution`` whose nonzero pixels are drawn at ``density``, and a mask and a
    depth map on/valid where the count reaches 1 (so the three counts see the same pixels)."""
    w, h = resolution
    rng = np.random.default_rng(seed)
    counts = np.where(rng.random((h, w)) < density, rng.integers(1, 4, (h, w)), 0)
    on = counts >= 1
    return frame_of(counts), IlluminationMask(resolution, on), DepthMap(resolution, np.where(on, 2.0, 0.0), on)


class TestCountsMatchSums:
    """``np.count_nonzero`` gives the ``bool.sum()`` counts, and the fractions the same floats."""

    @settings(max_examples=60)
    @given(w=st.sampled_from([1, 2, 3, 7, 64, 1024]), h=st.integers(1, 40),
           density=st.sampled_from([0.0, 0.01, 0.5, 1.0]), seed=st.integers(0, 2**32 - 1))
    def test_property(self, w, h, density, seed):
        self.check(*count_cases((w, h), density, seed))

    @pytest.mark.parametrize("resolution", [(640, 480), (1024, 320)])
    @pytest.mark.parametrize("density", [0.0, 0.083, 1.0])
    def test_bundled(self, resolution, density):
        self.check(*count_cases(resolution, density, 11))

    @staticmethod
    def check(frame, mask, depth_map):
        for threshold in (1, 2, 4):
            got, want = active_pixel_fraction(frame, threshold), _summed_active_pixel_fraction(frame, threshold)
            assert type(got) is float and got == want
        assert type(mask.fraction) is float and mask.fraction == _summed_mask_fraction(mask)
        assert type(depth_map.valid_count) is int and depth_map.valid_count == _summed_valid_count(depth_map)


class TestPolicyValidation:
    def test_sparse_stride(self):
        with pytest.raises(ValueError):
            SparsePolicy(0)

    def test_even_kernel(self):
        with pytest.raises(ValueError):
            EventGuidedPolicy(median_kernel_px=4)

    def test_first_period_choices(self):
        with pytest.raises(ValueError):
            EventGuidedPolicy(first_period="nope")

    def test_roi_set_rejects_degenerate(self):
        with pytest.raises(ValueError):
            RoiSet(((5, 5, 4, 5),))
