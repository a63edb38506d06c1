"""Readers for the binary and PLY dumps, used by the tests to read written files back.

The package writes these files (``evsl.formats``) but never reads them; only
the event-stream reader, which ``evsl active-pixels`` uses, stays there.
"""

import os

import numpy as np

from evsl.depth import PointCloud
from evsl.events import DepthMap
from evsl.policy import IlluminationMask


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
