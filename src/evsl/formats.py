"""File formats the toolkit writes, and the event-stream reader ``evsl active-pixels`` uses.

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
  runs are byte-identical; ``write_csv`` renders every table, to a file or
  to stdout alike, under the columns :mod:`evsl.harness` declares.

The event writer works 65,536 events at a time. When every timestamp is a
non-negative integer below 2**63 (no ``-0.0``), it builds each event as a
row of digit bytes in numpy; otherwise it runs one ``%`` operation over the
``tolist()`` values. The PLY writer runs one ``%`` operation per 21,845
points. Each prints exactly the bytes that ``%.6f`` or ``%.9g`` per value
would.
"""

from __future__ import annotations

import os
from functools import partial
from itertools import chain
from typing import Iterable, Sequence, TextIO

import numpy as np

from .depth import PointCloud
from .events import DepthMap, EventStream
from .policy import IlluminationMask


def write_event_stream(stream: EventStream, path: str | os.PathLike) -> None:
    t = stream.t
    # Integral timestamps print exactly as int64 values, but -0.0 must stay "-0.000000".
    integral = not np.signbit(t).any() and t.max(initial=0.0) < 2.0**63 and np.array_equal(t, np.floor(t))
    t = t.astype(np.int64) if integral else t
    with open(path, "wb") as fh:
        fh.write(b"t_us,x,y,p\n")
        for i in range(0, len(t), 65536):  # bounds the memory alive at once
            columns = [c[i:i + 65536] for c in (t, stream.x, stream.y, stream.p)]
            if integral:
                fh.write(_integral_rows(*columns))
            else:
                values = chain.from_iterable(zip(*(c.tolist() for c in columns)))
                fh.write((("%.6f,%d,%d,%d\n" * len(columns[0])) % tuple(values)).encode("ascii"))


def _integral_rows(t: np.ndarray, x: np.ndarray, y: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The bytes of ``"%d.000000,%d,%d,%d\\n"`` for non-negative t, x, y and p in {-1, +1}.

    Each event is one uint8 row with as many digit columns per field as the
    chunk's largest value needs; ``keep`` drops the leading zeros and the
    ``-`` of positive polarities, so ``out[keep]`` reads row by row.
    """
    widths = [len(str(int(c.max(initial=0)))) for c in (t, x, y)]
    template = b"0" * widths[0] + b".000000," + b"0" * widths[1] + b"," + b"0" * widths[2] + b",-1\n"
    out = np.tile(np.frombuffer(template, np.uint8), (len(t), 1))
    keep = np.ones(out.shape, dtype=bool)
    keep[:, -3] = p < 0
    ends = (widths[0], widths[0] + 8 + widths[1], sum(widths) + 9)  # one past each field's last digit
    for v, width, end in zip((t, x, y), widths, ends):
        for col in range(end - 1, end - width - 1, -1):
            if col < end - 1:
                keep[:, col] = v > 0  # v = value // 10**(end - 1 - col)
            v, digit = np.divmod(v, 10)
            out[:, col] += digit.astype(np.uint8)
    return out[keep]


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
        # One pass over the body looks for data, since np.loadtxt only warns on a body
        # without any, and counts its lines. Told that count, loadtxt allocates its rows
        # once. Left to grow them, it reallocates, and a realloc that cannot extend in place
        # holds the old and the new buffer at once, so the read's peak memory would depend
        # on the heap layout.
        lines, blank, empty_line, last = 0, True, False, "\n"
        for chunk in iter(partial(fh.read, 1 << 16), ""):
            lines += chunk.count("\n")
            blank = blank and chunk.isspace()
            empty_line = empty_line or "\n\n" in chunk or last == chunk[0] == "\n"
            last = chunk[-1]
    if blank:
        if resolution is None:
            raise ValueError("resolution required for an empty stream file")
        return EventStream.empty(resolution)
    # Given the path, loadtxt reads the file in its own chunks, faster than through the text
    # handle. It skips empty lines but warns that they do not count toward max_rows, so a
    # body with one is read without the count.
    data = np.loadtxt(path, delimiter=",", comments=None, ndmin=2, skiprows=1, encoding="utf-8",
                      max_rows=None if empty_line else lines + (last != "\n"))
    if data.shape[1] != 4:
        raise ValueError(f"event lines must hold 4 fields t_us,x,y,p, got {data.shape[1]}")
    t, x, y, p = data.T
    for name, column, dtype in (("x", x, np.int32), ("y", y, np.int32), ("p", p, np.int8)):
        info = np.iinfo(dtype)
        if not (info.min <= column.min() and column.max() <= info.max and np.array_equal(column, np.trunc(column))):
            raise ValueError(f"event field {name} must hold {info.dtype} integers")
    if resolution is None:
        resolution = (int(x.max()) + 1, int(y.max()) + 1)
    # the parsed rows, which ``column`` still views, are the read's largest array: freed before the sort's gathers
    t, x, y, p = t.copy(), x.astype(np.int32), y.astype(np.int32), p.astype(np.int8)
    del data, column
    return EventStream.from_arrays(resolution, t, x, y, p)


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
    levels[valid] = np.clip(np.floor(depth_map.depth[valid] / meters_per_unit + 0.5), 1, 65535).astype(np.int64)
    write_pgm16(path, levels)
    with open(f"{os.fspath(path)}.meta", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"meters_per_unit {meters_per_unit:.12g}\n")
        fh.write("invalid_value 0\n")


def write_pbm(path: str | os.PathLike, mask: IlluminationMask) -> None:
    """Write a mask as binary PBM; bit 1 = illuminated pixel."""
    w, h = mask.resolution
    with open(path, "wb") as fh:
        fh.write(f"P4\n{w} {h}\n".encode("ascii"))
        fh.write(np.packbits(mask.on, axis=1).tobytes())


def write_ply(path: str | os.PathLike, cloud: PointCloud) -> None:
    xyz = cloud.xyz.astype(np.float32)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("ply\nformat ascii 1.0\n")
        fh.write(f"element vertex {len(xyz)}\n")
        fh.write("property float x\nproperty float y\nproperty float z\n")
        fh.write("end_header\n")
        for i in range(0, len(xyz), 21845):  # 65,535 values per % operation, as in the event writer
            chunk = xyz[i:i + 21845]
            fh.write(("%.9g %.9g %.9g\n" * len(chunk)) % tuple(chunk.ravel().tolist()))


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


def write_csv(out: str | os.PathLike | TextIO, header: Sequence[str], rows: Iterable[Iterable]) -> None:
    """Write a header line, then one line per row, to a path or to an open text stream such as stdout."""
    if isinstance(out, (str, os.PathLike)):
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            return write_csv(fh, header, rows)
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(format_cell(v) for v in row) + "\n")
