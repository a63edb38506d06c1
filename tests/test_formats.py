import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evsl import harness
from evsl.cli import main as cli_main
from evsl.depth import PointCloud
from evsl.events import DepthMap, EventStream
from evsl.formats import (
    read_depth_pgm,
    read_event_stream,
    read_pbm,
    read_pgm16,
    read_ply,
    write_csv,
    write_depth_pgm,
    write_event_stream,
    write_pbm,
    write_pgm16,
    write_ply,
)
from evsl.harness import load_scenario, run_scenario
from evsl.policy import IlluminationMask, SparsePolicy, build_mask

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


# Per-element codecs the vectorised ones replaced, kept as exact oracles.

def _oracle_write_event_stream(stream, path, decimals=6):
    if decimals < 3:
        raise ValueError("timestamps must carry at least 3 decimal places")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t_us,x,y,p\n")
        for i in range(len(stream)):
            fh.write(f"{stream.t[i]:.{decimals}f},{stream.x[i]},{stream.y[i]},{stream.p[i]}\n")


def _oracle_read_event_stream(path, resolution=None):
    """Load a stream; when ``resolution`` is omitted it is inferred as max+1."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "t_us,x,y,p":
            raise ValueError(f"unexpected event stream header {header!r}")
        body = fh.read().strip()
    if not body:
        if resolution is None:
            raise ValueError("resolution required for an empty stream file")
        return EventStream.empty(resolution)
    data = np.array([[float(v) for v in line.split(",")] for line in body.splitlines()])
    t, x, y, p = data[:, 0], data[:, 1], data[:, 2], data[:, 3]
    if resolution is None:
        resolution = (int(x.max()) + 1, int(y.max()) + 1)
    return EventStream.from_arrays(resolution, t, x.astype(np.int32), y.astype(np.int32), p.astype(np.int8))


def _oracle_write_ply(path, cloud):
    xyz = cloud.xyz.astype(np.float32)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("ply\nformat ascii 1.0\n")
        fh.write(f"element vertex {len(xyz)}\n")
        fh.write("property float x\nproperty float y\nproperty float z\n")
        fh.write("end_header\n")
        for px, py, pz in xyz:
            fh.write(f"{px:.9g} {py:.9g} {pz:.9g}\n")


def assert_same_stream(got, want):
    assert got.resolution == want.resolution
    for name in ("t", "x", "y", "p"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


class TestEventStreamText:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        stream = EventStream.from_arrays(
            (32, 24),
            rng.uniform(0, 1000, 50),
            rng.integers(0, 32, 50),
            rng.integers(0, 24, 50),
            rng.choice([-1, 1], 50),
        )
        path = tmp_path / "events.txt"
        write_event_stream(stream, path)
        back = read_event_stream(path, (32, 24))
        assert np.allclose(back.t, stream.t, atol=1e-6)
        assert np.array_equal(back.x, stream.x)
        assert np.array_equal(back.y, stream.y)
        assert np.array_equal(back.p, stream.p)

    def test_header_and_line_format(self, tmp_path):
        stream = EventStream((400, 300), [12.5], [305, ], [211], [1])
        path = tmp_path / "one.txt"
        write_event_stream(stream, path, decimals=3)
        lines = path.read_text().splitlines()
        assert lines[0] == "t_us,x,y,p"
        assert lines[1] == "12.500,305,211,1"

    def test_minimum_decimals_enforced(self, tmp_path):
        stream = EventStream.empty((4, 4))
        with pytest.raises(ValueError):
            write_event_stream(stream, tmp_path / "x.txt", decimals=2)

    def test_empty_file_needs_resolution(self, tmp_path):
        path = tmp_path / "empty.txt"
        write_event_stream(EventStream.empty((4, 4)), path)
        assert len(read_event_stream(path, (4, 4))) == 0
        with pytest.raises(ValueError):
            read_event_stream(path)
        for body in ("\n", "\n\n   \n\t\n"):  # blank lines only
            path.write_text("t_us,x,y,p\n" + body)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                stream = read_event_stream(path, (5, 3))
                with pytest.raises(ValueError, match="resolution required"):
                    read_event_stream(path)
            assert len(stream) == 0 and stream.resolution == (5, 3)

    def test_resolution_inferred(self, tmp_path):
        stream = EventStream((10, 10), [1.0], [9], [4], [-1])
        path = tmp_path / "infer.txt"
        write_event_stream(stream, path)
        back = read_event_stream(path)  # a one-event file parses as one row
        assert back.resolution == (10, 5)
        assert back.p.tolist() == [-1]

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("time,x,y,p\n")
        with pytest.raises(ValueError, match="header"):
            read_event_stream(path, (4, 4))

    @pytest.mark.parametrize("line, error", [
        ("1.0,2,3", "4 fields"),
        ("1.0,2,3,1,0", "4 fields"),
        ("1.0,2,3,one", "convert"),
        ("#1.0,2,3,1", "convert"),  # comment lines are not part of the format
    ])
    def test_malformed_line_rejected(self, tmp_path, line, error):
        path = tmp_path / "bad.txt"
        path.write_text(f"t_us,x,y,p\n1.0,0,0,1\n{line}\n")
        with pytest.raises(ValueError):
            read_event_stream(path, (8, 8))
        path.write_text(f"t_us,x,y,p\n{line}\n")
        with pytest.raises(ValueError, match=error):
            read_event_stream(path)
        assert cli_main(["active-pixels", str(path)]) == 2


class TestTextCodecMatchesOracle:
    @pytest.mark.parametrize("name", ["moving_object", "plane_compare"])
    def test_every_dump_of_bundled_scenario(self, name, tmp_path, monkeypatch):
        written = []

        def recording(writer):
            def wrapper(*args):
                written.append((writer, args))
                return writer(*args)
            return wrapper

        monkeypatch.setattr(harness, "write_event_stream", recording(write_event_stream))
        monkeypatch.setattr(harness, "write_ply", recording(write_ply))
        run_scenario(load_scenario(SCENARIOS / f"{name}.yaml"), dump=("events", "ply"), out_dir=tmp_path / "run")
        assert {w for w, _ in written} == {write_event_stream, write_ply}
        for writer, args in written:
            if writer is write_event_stream:
                stream, path = args
                _oracle_write_event_stream(stream, tmp_path / "oracle")
                assert_same_stream(read_event_stream(path, stream.resolution),
                                   _oracle_read_event_stream(path, stream.resolution))
            else:
                path, cloud = args
                _oracle_write_ply(tmp_path / "oracle", cloud)
            assert path.read_bytes() == (tmp_path / "oracle").read_bytes()

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        n=st.integers(0, 300),
        decimals=st.integers(3, 9),
        t_max=st.sampled_from([1.0, 1e3, 1e7]),
        t_drawn=st.lists(st.floats(0.0, 1e7) | st.integers(0, 10**13).map(lambda v: v / 10**6), max_size=5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_streams(self, tmp_path_factory, n, decimals, t_max, t_drawn, seed):
        # bulk timestamps come from a seeded generator, since drawing 300
        # values per example through hypothesis dominates the run time
        rng = np.random.default_rng(seed)
        t = np.concatenate([rng.uniform(0.0, t_max, n), t_drawn])
        w, h = (int(v) for v in rng.integers(1, 2000, 2))
        stream = EventStream.from_arrays(
            (w, h), t, rng.integers(0, w, len(t)), rng.integers(0, h, len(t)), rng.choice([-1, 1], len(t))
        )
        path = tmp_path_factory.mktemp("events") / "events.txt"
        _oracle_write_event_stream(stream, path, decimals)
        want = path.read_bytes()
        write_event_stream(stream, path, decimals)
        assert path.read_bytes() == want
        assert_same_stream(read_event_stream(path, (w, h)), _oracle_read_event_stream(path, (w, h)))
        if len(stream):
            assert_same_stream(read_event_stream(path), _oracle_read_event_stream(path))

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(xyz=st.lists(st.tuples(*[st.floats(-3e38, 3e38) | st.floats(-1e-40, 1e-40)] * 3), max_size=200))
    def test_random_clouds(self, tmp_path_factory, xyz):
        cloud = PointCloud(np.array(xyz, dtype=np.float64).reshape(-1, 3))
        path = tmp_path_factory.mktemp("cloud") / "cloud.ply"
        _oracle_write_ply(path, cloud)
        want = path.read_bytes()
        write_ply(path, cloud)
        assert path.read_bytes() == want


class TestPgm:
    def test_pgm16_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        values = rng.integers(0, 65536, (12, 7))
        path = tmp_path / "img.pgm"
        write_pgm16(path, values)
        assert np.array_equal(read_pgm16(path), values)

    def test_pgm16_is_big_endian_binary(self, tmp_path):
        path = tmp_path / "be.pgm"
        write_pgm16(path, np.array([[0x0102]]))
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n1 1\n65535\n")
        assert raw[-2:] == b"\x01\x02"

    def test_depth_pgm_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        valid = rng.random((20, 30)) < 0.6
        depth = np.where(valid, rng.uniform(0.5, 4.0, (20, 30)), 0.0)
        dm = DepthMap((30, 20), depth, valid)
        path = tmp_path / "depth.pgm"
        write_depth_pgm(path, dm)
        back = read_depth_pgm(path)
        assert np.array_equal(back.valid, valid)
        # quantized to 16-bit levels of the max depth
        scale = depth.max() / 65535
        assert np.allclose(back.depth[valid], depth[valid], atol=scale)

    def test_depth_pgm_sidecar(self, tmp_path):
        path = tmp_path / "depth.pgm"
        write_depth_pgm(path, DepthMap.constant((4, 4), 2.0))
        meta = (tmp_path / "depth.pgm.meta").read_text()
        assert "meters_per_unit" in meta
        assert "invalid_value 0" in meta

    def test_level_range_enforced(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm16(tmp_path / "x.pgm", np.array([[70000]]))


class TestPbm:
    def test_mask_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        for w in (8, 13, 16, 31):
            mask = IlluminationMask((w, 9), rng.random((9, w)) < 0.4)
            path = tmp_path / f"m{w}.pbm"
            write_pbm(path, mask)
            back = read_pbm(path)
            assert back.resolution == mask.resolution
            assert np.array_equal(back.on, mask.on)

    def test_header(self, tmp_path):
        mask = build_mask(SparsePolicy(2), (16, 4))
        path = tmp_path / "m.pbm"
        write_pbm(path, mask)
        assert path.read_bytes().startswith(b"P4\n16 4\n")


class TestPly:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        cloud = PointCloud(rng.normal(size=(40, 3)))
        path = tmp_path / "c.ply"
        write_ply(path, cloud)
        back = read_ply(path)
        assert len(back) == 40
        assert np.allclose(back.xyz, cloud.xyz, atol=1e-6)  # float32 storage

    def test_header_layout(self, tmp_path):
        path = tmp_path / "h.ply"
        write_ply(path, PointCloud(np.zeros((3, 3))))
        lines = path.read_text().splitlines()
        assert lines[0] == "ply"
        assert lines[1] == "format ascii 1.0"
        assert "element vertex 3" in lines
        assert "property float x" in lines
        assert lines[6] == "end_header"


class TestCsv:
    def test_deterministic_formatting(self, tmp_path):
        rows = [[1, 0.1 + 0.2, None, True, "x"]]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(a, ["i", "f", "none", "b", "s"], rows)
        write_csv(b, ["i", "f", "none", "b", "s"], rows)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().splitlines()[1] == "1,0.3,,true,x"

