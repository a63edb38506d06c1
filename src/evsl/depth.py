"""Depth recovery from reflection-event time surfaces, and evaluation tools.

Each camera pixel's latest event timestamp identifies the projector raster
slot that produced it; depth follows from the disparity between the slot's
column and the camera column in the rectified geometry. Reconstructions of
planar targets are scored by total-least-squares plane fitting. Decode and
back-projection address camera pixels by flat raster index ``y * W + x``
and split it into row and column in int32. The decode writes validity for
every occupied pixel, so a pixel that fails a check is written invalid.
It decodes the occupied pixels in raster order, in blocks of at most
``_DECODE_BLOCK``, and sums the tally over the blocks: the temporaries of a
dense period then stay block-sized, and a period with at most one block of
occupied pixels (every sparse and event-guided one of the bundled
scenarios) runs a single pass. Each pixel's result does not depend on the
block it falls in.

Clouds are C-order ``(N, 3)`` arrays, worked on column by column rather
than through numpy's 3-wide loops over rows. Back-projection writes x, y and
z straight into their columns. The plane fit sums each column from 0 in row
order, as ``xyz.mean(axis=0)`` does on a C-order array, and centres each
column into a C-order array, so BLAS is handed the same scatter product and
every bit of the fit is the row-wise code's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .events import DepthMap, TimeSurface, _frozen, _row_col
from .projector import ProjectorModel, SensorGeometry


_DECODE_BLOCK = 1 << 15  # occupied pixels per decode pass: a dense period's temporaries stay block-sized


class DegenerateInputError(ValueError):
    """Input carries too little structure (too few or rank-deficient points)."""


@dataclass(frozen=True)
class PlaneFit:
    """Plane n . X = d with unit normal, plus the rms point-to-plane residual."""

    normal: tuple[float, float, float]
    d: float
    rms: float


@dataclass(frozen=True)
class PointCloud:
    """Points in the camera frame; takes ``xyz`` over read-only."""

    xyz: np.ndarray  # (N, 3) float64, camera frame, Z > 0

    def __post_init__(self):
        object.__setattr__(self, "xyz", _frozen(self.xyz, np.float64))
        if self.xyz.ndim != 2 or self.xyz.shape[1] != 3:
            raise ValueError("xyz must have shape (N, 3)")

    def __len__(self) -> int:
        return len(self.xyz)


def decode_projector_indices(t_us: np.ndarray, projector: ProjectorModel, t0_us: float):
    """Vectorized timestamp -> (row, col) decode against the dense raster clock.

    Rounds to the nearest raster slot and clamps to the frame; callers are
    responsible for period-bounds checks. Rows and columns are int32, as in
    :class:`~evsl.projector.ScanPlan`.
    """
    w, h = projector.resolution
    k = np.subtract(t_us, t0_us, dtype=np.float64)  # floor((t - t0) / dwell + 0.5), in place
    k /= projector.dwell_time_us
    k += 0.5
    return _row_col(np.clip(np.floor(k, out=k), 0, w * h - 1, out=k), w)


def reconstruct_depth(
    surface: TimeSurface,
    geometry: SensorGeometry,
    projector: ProjectorModel,
    t0_us: float,
) -> tuple[DepthMap, dict[str, int]]:
    """Recover a sparse depth map from one scan period's time surface.

    Pixels with no event, a decoded projector row disagreeing with the camera
    row by more than one (timing noise near row boundaries flips rows), or
    non-positive disparity come back invalid; the tally reports each failure
    class. Every occupied pixel gets its validity and its depth written, +0.0
    where it is invalid, so no mask compresses the decoded pixels.
    """
    w0, w1 = surface.window
    if abs((w1 - w0) - projector.period_us) > 1e-6 * projector.period_us or abs(w0 - t0_us) > 1e-6 * max(1.0, abs(t0_us)):
        raise ValueError("surface window must equal the scan period being decoded")
    if surface.resolution != geometry.cam_resolution:
        raise ValueError(f"surface resolution {surface.resolution} does not match camera {geometry.cam_resolution}")
    cam_h, cam_w = surface.last_t.shape
    depth = np.zeros(cam_w * cam_h)
    valid = np.zeros(cam_w * cam_h, dtype=bool)

    flat = np.flatnonzero(surface.occupied)
    fb = geometry.focal_length_px * geometry.baseline_m  # finite, so an invalid pixel gets fb / inf = +0.0
    n_ok = n_row_ok = 0
    for i in range(0, len(flat), _DECODE_BLOCK):  # the last block may be short
        block = flat[i:i + _DECODE_BLOCK]
        ys, xs = _row_col(block, cam_w)
        rows, disparity = decode_projector_indices(np.take(surface.last_t, block), projector, t0_us)
        row_ok = np.abs(rows - ys) <= 1
        disparity -= xs
        ok = (disparity > 0) & row_ok
        valid[block] = ok
        z = np.where(ok, disparity, np.inf)
        depth[block] = np.divide(fb, z, out=z)
        n_ok += int(np.count_nonzero(ok))
        n_row_ok += int(np.count_nonzero(row_ok))
    tally = {"no_event": cam_w * cam_h - len(flat), "row_mismatch": len(flat) - n_row_ok,
             "nonpositive_disparity": n_row_ok - n_ok, "valid": n_ok}
    return DepthMap(surface.resolution, depth.reshape(cam_h, cam_w), valid.reshape(cam_h, cam_w)), tally


def depth_to_points(depth_map: DepthMap, geometry: SensorGeometry) -> PointCloud:
    """Back-project valid pixels through the pinhole with the principal point at the frame center."""
    if depth_map.resolution != geometry.cam_resolution:
        raise ValueError(f"depth resolution {depth_map.resolution} does not match camera {geometry.cam_resolution}")
    cam_w, cam_h = geometry.cam_resolution
    flat = np.flatnonzero(depth_map.valid)
    ys, xs = _row_col(flat, cam_w)
    z = np.take(depth_map.depth, flat)
    xyz = np.empty((len(flat), 3))
    xyz[:, 2] = z
    u = np.empty_like(z)
    for j, v, c in ((0, xs, cam_w / 2.0), (1, ys, cam_h / 2.0)):
        np.subtract(v, c, out=u)  # ((v - c) * z) / f, the last step written into its column
        u *= z
        np.divide(u, geometry.focal_length_px, out=xyz[:, j])
    return PointCloud(xyz)


def fit_plane(points: PointCloud) -> PlaneFit:
    """Total-least-squares plane fit: minimizes squared point-to-plane distance.

    The normal is the 3x3 scatter matrix's eigenvector of least eigenvalue. Where
    its eigenvalues span more than 1e10 the squared condition number costs digits,
    so the SVD of the centred points gives the normal and rejects collinear points.
    """
    xyz = np.ascontiguousarray(points.xyz)  # rows the outer loop, as the row-order sums below need
    if len(xyz) < 3:
        raise DegenerateInputError(f"plane fit needs >= 3 points, got {len(xyz)}")
    # xyz.mean(axis=0) bit for bit: each column summed from 0 in row order, then divided by N
    centroid = np.einsum("ij->j", xyz) / len(xyz)
    centered = np.empty_like(xyz)
    for j in range(3):
        np.subtract(xyz[:, j], centroid[j], out=centered[:, j])
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
