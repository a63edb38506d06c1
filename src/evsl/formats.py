"""File formats shared across the toolkit.

- Event streams: text, header ``t_us,x,y,p`` then one event per line,
  timestamps printed with six decimal places. The reader is strict: the
  header is required, each line holds exactly four comma-separated numbers,
  x, y and p are integers that fit their int32/int8 columns, and there are
  no comment lines. Empty lines are skipped.
- Images: 16-bit binary PGM (P5, big-endian, maxval 65535). Depth maps get a
  sidecar ``<file>.meta`` declaring meters per grey unit; value 0 marks an
  invalid pixel.
- Masks: binary PBM (P4), bit 1 = illuminated.
- Point clouds: ASCII PLY with float32 x/y/z properties.
- Tables: UTF-8 CSV with a header row; floats printed with %.9g so repeated
  runs are byte-identical.

The PLY writer formats a whole array, the event writer each 65,536 events,
with one ``%`` operation over the ``tolist()`` values, which prints each value
exactly as formatting it alone would. When every timestamp is a non-negative
integer (no ``-0.0``), the event writer prints them from int64 as ``%d.000000``.
"""

from __future__ import annotations

import os
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .depth import PointCloud
from .events import DepthMap, EventStream
from .policy import IlluminationMask


def write_event_stream(stream: EventStream, path: str | os.PathLike) -> None:
    t = stream.t
    # Integral timestamps print exactly as int64 values, but -0.0 must stay "-0.000000".
    integral = not np.signbit(t).any() and t.max(initial=0.0) < 2.0**63 and np.array_equal(t, np.floor(t))
    line = "%d.000000,%d,%d,%d\n" if integral else "%.6f,%d,%d,%d\n"
    t = t.astype(np.int64) if integral else t
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t_us,x,y,p\n")
        for i in range(0, len(t), 65536):  # bounds the Python objects alive at once
            columns = [c[i:i + 65536].tolist() for c in (t, stream.x, stream.y, stream.p)]
            fh.write((line * len(columns[0])) % tuple(chain.from_iterable(zip(*columns))))


def read_event_stream(path: str | os.PathLike, resolution: tuple[int, int] | None = None) -> EventStream:
    """Load a stream; when ``resolution`` is omitted it is inferred as max+1.

    Raises ``ValueError`` on a wrong header, a line that is not four
    comma-separated numbers, an x, y or p that is not an integer of its
    column's type, or a body with no events and no ``resolution``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "t_us,x,y,p":
            raise ValueError(f"unexpected event stream header {header!r}")
        start = fh.tell()
        # np.loadtxt only warns on a body without data, so look for it first.
        if not any(line.strip() for line in iter(fh.readline, "")):
            if resolution is None:
                raise ValueError("resolution required for an empty stream file")
            return EventStream.empty(resolution)
        fh.seek(start)
        data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    if data.shape[1] != 4:
        raise ValueError(f"event lines must hold 4 fields t_us,x,y,p, got {data.shape[1]}")
    t, x, y, p = data.T
    for name, column, dtype in (("x", x, np.int32), ("y", y, np.int32), ("p", p, np.int8)):
        info = np.iinfo(dtype)
        if not (info.min <= column.min() and column.max() <= info.max and np.array_equal(column, np.trunc(column))):
            raise ValueError(f"event field {name} must hold {info.dtype} integers")
    if resolution is None:
        resolution = (int(x.max()) + 1, int(y.max()) + 1)
    return EventStream.from_arrays(resolution, t, x.astype(np.int32), y.astype(np.int32), p.astype(np.int8))


def write_pgm16(path: str | os.PathLike, values: np.ndarray) -> None:
    """Write a (H, W) array of 0..65535 levels as binary big-endian PGM."""
    arr = np.asarray(values)
    if arr.ndim != 2:
        raise ValueError("PGM data must be 2-D")
    if arr.min() < 0 or arr.max() > 65535:
        raise ValueError("PGM levels must lie in [0, 65535]")
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n65535\n".encode("ascii"))
        fh.write(arr.astype(">u2").tobytes())


def read_pgm16(path: str | os.PathLike) -> np.ndarray:
    with open(path, "rb") as fh:
        if fh.readline().strip() != b"P5":
            raise ValueError("not a binary PGM file")
        line = fh.readline()
        while line.startswith(b"#"):
            line = fh.readline()
        w, h = (int(v) for v in line.split())
        maxval = int(fh.readline())
        if maxval != 65535:
            raise ValueError(f"expected 16-bit PGM, got maxval {maxval}")
        data = np.frombuffer(fh.read(w * h * 2), dtype=">u2")
    return data.reshape(h, w).astype(np.uint16)


def write_depth_pgm(path: str | os.PathLike, depth_map: DepthMap) -> None:
    """Dump a depth map as 16-bit PGM plus a ``<path>.meta`` sidecar.

    Grey level 0 marks invalid pixels; valid depths are stored as
    round(depth / meters_per_unit) clamped to [1, 65535].
    """
    valid = depth_map.valid
    if valid.any():
        meters_per_unit = float(depth_map.depth[valid].max()) / 65535.0
    else:
        meters_per_unit = 1.0
    levels = np.zeros(depth_map.depth.shape, dtype=np.int64)
    if valid.any():
        levels[valid] = np.clip(np.floor(depth_map.depth[valid] / meters_per_unit + 0.5), 1, 65535).astype(np.int64)
    write_pgm16(path, levels)
    with open(f"{os.fspath(path)}.meta", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"meters_per_unit {meters_per_unit:.12g}\n")
        fh.write("invalid_value 0\n")


def read_depth_pgm(path: str | os.PathLike) -> DepthMap:
    levels = read_pgm16(path)
    meters_per_unit = 1.0
    with open(f"{os.fspath(path)}.meta", "r", encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if len(parts) == 2 and parts[0] == "meters_per_unit":
                meters_per_unit = float(parts[1])
    valid = levels > 0
    h, w = levels.shape
    return DepthMap((w, h), levels.astype(np.float64) * meters_per_unit, valid)


def write_pbm(path: str | os.PathLike, mask: IlluminationMask) -> None:
    """Write a mask as binary PBM; bit 1 = illuminated pixel."""
    w, h = mask.resolution
    with open(path, "wb") as fh:
        fh.write(f"P4\n{w} {h}\n".encode("ascii"))
        fh.write(np.packbits(mask.on, axis=1).tobytes())


def read_pbm(path: str | os.PathLike) -> IlluminationMask:
    with open(path, "rb") as fh:
        if fh.readline().strip() != b"P4":
            raise ValueError("not a binary PBM file")
        line = fh.readline()
        while line.startswith(b"#"):
            line = fh.readline()
        w, h = (int(v) for v in line.split())
        row_bytes = (w + 7) // 8
        data = np.frombuffer(fh.read(row_bytes * h), dtype=np.uint8).reshape(h, row_bytes)
    bits = np.unpackbits(data, axis=1)[:, :w].astype(bool)
    return IlluminationMask((w, h), bits)


def write_ply(path: str | os.PathLike, cloud: PointCloud) -> None:
    xyz = cloud.xyz.astype(np.float32)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("ply\nformat ascii 1.0\n")
        fh.write(f"element vertex {len(xyz)}\n")
        fh.write("property float x\nproperty float y\nproperty float z\n")
        fh.write("end_header\n")
        fh.write(("%.9g %.9g %.9g\n" * len(xyz)) % tuple(xyz.ravel().tolist()))


def read_ply(path: str | os.PathLike) -> PointCloud:
    with open(path, "r", encoding="utf-8") as fh:
        if fh.readline().strip() != "ply":
            raise ValueError("not a PLY file")
        n = 0
        for line in fh:
            line = line.strip()
            if line.startswith("element vertex"):
                n = int(line.split()[-1])
            elif line == "end_header":
                break
        xyz = np.loadtxt(fh, max_rows=n, ndmin=2) if n else np.empty((0, 3))
    return PointCloud(xyz)


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.9g}"
    return str(value)


def write_csv(path: str | os.PathLike, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_cell(v) for v in row) + "\n")
