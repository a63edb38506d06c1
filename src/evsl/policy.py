"""Illumination sampling policies: dense, sparse, and event-guided.

The event-guided policy turns guide-camera activity into projector regions
of interest: median-filter the event frame, binarize, extract 8-connected
components, and dilate each component's bounding box. Pixels inside a region
are scanned densely; the rest of the field of view keeps a sparse background
stride. Guide events cover a small part of the frame, so the median and the
labelling work on the pixels near events and on the active pixels only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .events import EventFrame, _row_col, _take_frames


@dataclass(frozen=True)
class DensePolicy:
    """Illuminate every projector pixel."""


@dataclass(frozen=True)
class SparsePolicy:
    """Illuminate every Nth slot of the row-major raster scan."""

    stride: int = 16

    def __post_init__(self):
        if self.stride < 1:
            raise ValueError("stride must be >= 1")


@dataclass(frozen=True)
class EventGuidedPolicy:
    median_kernel_px: int = 3
    active_threshold: int = 1
    min_area_px: int = 4
    dilation_px: int = 4
    background_stride: int = 16
    first_period: str = "dense"  # build_mask's mask while no guide period has been seen (rois=None)

    def __post_init__(self):
        if self.median_kernel_px < 1 or self.median_kernel_px % 2 == 0:
            raise ValueError("median_kernel_px must be odd and >= 1")
        if self.active_threshold < 1:
            raise ValueError("active_threshold must be >= 1")
        if self.min_area_px < 1:
            raise ValueError("min_area_px must be >= 1")
        if self.dilation_px < 0:
            raise ValueError("dilation_px must be >= 0")
        if self.background_stride < 1:
            raise ValueError("background_stride must be >= 1")
        if self.first_period not in ("dense", "sparse"):
            raise ValueError("first_period must be 'dense' or 'sparse'")


Policy = Union[DensePolicy, SparsePolicy, EventGuidedPolicy]


@dataclass(frozen=True)
class IlluminationMask:
    """Per-projector-pixel on/off pattern for one scan period; takes ``on`` over read-only."""

    resolution: tuple[int, int]
    on: np.ndarray  # (H, W) bool

    def __post_init__(self):
        _take_frames(self, on=bool)

    @property
    def fraction(self) -> float:
        """On-pixel count over total pixels; doubles as the power proxy."""
        w, h = self.resolution
        return float(np.count_nonzero(self.on)) / (w * h)


@dataclass(frozen=True)
class RoiSet:
    """Axis-aligned boxes (x_min, y_min, x_max, y_max), inclusive, in-frame."""

    boxes: tuple[tuple[int, int, int, int], ...]

    def __post_init__(self):
        for box in self.boxes:
            x0, y0, x1, y1 = box
            if x1 < x0 or y1 < y0:
                raise ValueError(f"degenerate box {box!r}")
        object.__setattr__(self, "boxes", tuple(tuple(int(v) for v in b) for b in self.boxes))

    def __len__(self) -> int:
        return len(self.boxes)


_MEDIAN_CHUNK = 1 << 14  # candidates per gather: bounds the k*k copies on a busy frame


def median_filter_frame(frame: EventFrame, kernel_px: int = 3) -> EventFrame:
    """Median of the k x k count neighborhood per pixel; borders zero-padded.

    Only pixels within k // 2 of a nonzero count are visited: every other
    pixel sees an all-zero neighborhood, so its median is 0.
    """
    if kernel_px < 1 or kernel_px % 2 == 0:
        raise ValueError("kernel size must be odd and >= 1")
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
        values = windows[_row_col(chunk, w)].reshape(len(chunk), k * k)
        filtered[chunk] = np.partition(values, k * k // 2, axis=1)[:, k * k // 2]
    return EventFrame(frame.resolution, filtered.reshape(h, w), frame.window)


def detect_roi(
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
    ys, xs = _row_col(active, w)
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
    # int32 like xs and ys: ufunc.at with values of another dtype leaves numpy's fast path
    x0, x1, y1 = np.full(first.size, w, np.int32), np.zeros(first.size, np.int32), np.zeros(first.size, np.int32)
    np.minimum.at(x0, comp, xs)
    np.maximum.at(x1, comp, xs)
    np.maximum.at(y1, comp, ys)
    keep = np.bincount(comp) >= min_area_px
    boxes = np.stack([x0, ys[first], x1, y1], axis=1)[keep].astype(np.int64)  # int64: dilation may pass 2**31
    boxes[:, :2] = np.maximum(boxes[:, :2] - dilation_px, 0)
    boxes[:, 2:] = np.minimum(boxes[:, 2:] + dilation_px, (w - 1, h - 1))
    return RoiSet(tuple(map(tuple, boxes.tolist())))


def _stride_mask(resolution: tuple[int, int], stride: int) -> np.ndarray:
    w, h = resolution
    on = np.zeros((h, w), dtype=bool)
    on.reshape(-1)[::stride] = True
    return on


def scale_roi(box: tuple[int, int, int, int], scale: tuple[float, float], resolution: tuple[int, int]):
    """Map an inclusive pixel box through a per-axis scale, covering conservatively."""
    sx, sy = scale
    w, h = resolution
    x0, y0, x1, y1 = box
    return (
        min(max(int(np.floor(x0 * sx)), 0), w - 1),
        min(max(int(np.floor(y0 * sy)), 0), h - 1),
        min(max(int(np.ceil((x1 + 1) * sx)) - 1, 0), w - 1),
        min(max(int(np.ceil((y1 + 1) * sy)) - 1, 0), h - 1),
    )


def build_mask(
    policy: Policy,
    proj_resolution: tuple[int, int],
    rois: RoiSet | None = None,
    scale: tuple[float, float] = (1.0, 1.0),
) -> IlluminationMask:
    """Compute the illumination mask for one scan period.

    ``scale`` maps guide-camera pixel coordinates onto the projector plane
    (rectified, axis-aligned). For the event-guided policy, pixels inside any
    scaled region are on; elsewhere the background stride applies. A pixel on
    a region border is on (region membership wins over the stride pattern).
    ``rois=None`` means no guide period yet: the event-guided policy then
    lights every slot under ``first_period: dense`` and, under ``sparse``, its
    background stride.
    """
    w, h = proj_resolution
    guided = isinstance(policy, EventGuidedPolicy)
    if isinstance(policy, DensePolicy) or (guided and rois is None and policy.first_period == "dense"):
        on = np.ones((h, w), dtype=bool)
    elif isinstance(policy, SparsePolicy):
        on = _stride_mask(proj_resolution, policy.stride)
    elif guided:
        on = _stride_mask(proj_resolution, policy.background_stride)
        for box in (rois.boxes if rois is not None else ()):
            x0, y0, x1, y1 = scale_roi(box, scale, proj_resolution)
            on[y0:y1 + 1, x0:x1 + 1] = True
    else:
        raise TypeError(f"unknown policy {policy!r}")
    return IlluminationMask(proj_resolution, on)


def active_pixel_fraction(frame: EventFrame, active_threshold: int = 1) -> float:
    """Fraction of pixels whose event count reaches the threshold."""
    if active_threshold < 1:
        raise ValueError("active_threshold must be >= 1")
    w, h = frame.resolution
    return float(np.count_nonzero(frame.counts >= active_threshold)) / (w * h)
