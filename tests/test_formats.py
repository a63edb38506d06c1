import warnings
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dump_readers import read_depth_pgm, read_pbm, read_pgm16, read_ply
from evsl import harness
from evsl.cli import main as cli_main
from evsl.depth import PointCloud
from evsl.events import DepthMap, EventStream
from evsl.formats import (
    read_event_stream,
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

def _oracle_write_event_stream(stream, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t_us,x,y,p\n")
        for i in range(len(stream)):
            fh.write(f"{stream.t[i]:.6f},{stream.x[i]},{stream.y[i]},{stream.p[i]}\n")


def _oracle_write_event_stream_f6(stream, path):
    """The vectorised writer before integral timestamps got their own path: ``%.6f`` always."""
    columns = (stream.t.tolist(), stream.x.tolist(), stream.y.tolist(), stream.p.tolist())
    body = ("%.6f,%d,%d,%d\n" * len(stream)) % tuple(chain.from_iterable(zip(*columns)))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t_us,x,y,p\n")
        fh.write(body)


def _oracle_write_event_stream_int(stream, path):
    """The writer before integral streams were built as numpy digit rows: one ``%`` per 65,536 events."""
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
        write_event_stream(stream, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t_us,x,y,p"
        assert lines[1] == "12.500000,305,211,1"

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

    @pytest.mark.parametrize("layout", ["no_final_newline", "crlf", "cr", "empty_lines", "empty_line_past_first_read",
                                        "out_of_order"])
    def test_line_layouts_the_writer_never_makes(self, tmp_path, layout):
        # The reader counts the body's lines to bound loadtxt's rows and reads a body with an
        # empty line without that bound.
        events = [(1.0, 1, 2, 1)] * 6552 + [(1000000.0, 1, 2, 1), (1000000.5, 3, 0, -1), (2000000.0, 0, 1, 1)]
        lines = [f"{t},{x},{y},{p}" for t, x, y, p in events]
        body = "\n".join(lines) + "\n"
        assert len(body) - len(lines[-1]) - len(lines[-2]) - 2 == 65536  # the first read ends after line 6553
        body = {
            "no_final_newline": body[:-1],
            "crlf": body.replace("\n", "\r\n"),
            "cr": body.replace("\n", "\r"),
            "empty_lines": "\n" + body.replace("\n1000000.5", "\n\n1000000.5") + "\n\n",
            "empty_line_past_first_read": body.replace("\n1000000.5", "\n\n1000000.5"),
            "out_of_order": "\n".join([lines[-1]] + lines[:-1]) + "\n",
        }[layout]
        path = tmp_path / "events.txt"
        path.write_bytes(("t_us,x,y,p\n" + body).encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = read_event_stream(path)
        assert_same_stream(got, EventStream.from_arrays((4, 3), *(np.array(c) for c in zip(*events))))

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
        ("nan,2,3,1", "non-negative"),  # after an event: "non-decreasing"
        ("inf,2,3,1", "finite"),
        ("0,1.5,2,1", "x must hold int32 integers"),  # a cast would truncate these
        ("0,1,2.5,1", "y must hold int32 integers"),
        ("0,1,2,1.5", "p must hold int8 integers"),
        ("0,4294967297,2,1", "x must hold int32 integers"),
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
        assert cli_main(["active-pixels", str(path), "--resolution", "8", "8"]) == 2


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

    @settings(max_examples=200)
    @given(
        n=st.integers(0, 300),
        t_max=st.sampled_from([1.0, 1e3, 1e7]),
        t_drawn=st.lists(st.floats(0.0, 1e7) | st.integers(0, 10**13).map(lambda v: v / 10**6), max_size=5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_streams(self, tmp_path_factory, n, t_max, t_drawn, seed):
        # bulk timestamps come from a seeded generator, since drawing 300
        # values per example through hypothesis dominates the run time
        rng = np.random.default_rng(seed)
        t = np.concatenate([rng.uniform(0.0, t_max, n), t_drawn])
        w, h = (int(v) for v in rng.integers(1, 2000, 2))
        stream = EventStream.from_arrays(
            (w, h), t, rng.integers(0, w, len(t)), rng.integers(0, h, len(t)), rng.choice([-1, 1], len(t))
        )
        path = tmp_path_factory.mktemp("events") / "events.txt"
        _oracle_write_event_stream(stream, path)
        want = path.read_bytes()
        write_event_stream(stream, path)
        assert path.read_bytes() == want
        assert_same_stream(read_event_stream(path, (w, h)), _oracle_read_event_stream(path, (w, h)))
        if len(stream):
            assert_same_stream(read_event_stream(path), _oracle_read_event_stream(path))

    @settings(max_examples=100)
    @given(
        n=st.integers(0, 300),
        kind=st.sampled_from(["integral", "mixed", "fractional"]),
        t_max=st.sampled_from([10.0, 1e4, 1e7, 1e12, 2.0**53, 2.0**62]),
        t_drawn=st.lists(
            st.sampled_from([0.0, -0.0, 0.5, 1e7, 1e7 + 0.25, 2.0**53, 2.0**63 - 1024, 2.0**63, 1e19, 1e300])
            | st.floats(0.0, 1e8) | st.integers(0, 10**12).map(float), max_size=4),
        negative_zero=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_integral_timestamps_match_f6_writer(self, tmp_path_factory, n, kind, t_max, t_drawn, negative_zero, seed):
        # streams that are all integral, hold -0.0, reach 2**63 and beyond, or mix in fractions
        rng = np.random.default_rng(seed)
        t = np.floor(rng.uniform(0.0, t_max, n))
        if kind != "integral":
            fractional = rng.random(n) < (1.0 if kind == "fractional" else 0.05)
            t[fractional] += rng.choice([0.5, 0.25, 1e-6, 0.9999995], int(fractional.sum()))
        t = np.concatenate([t, t_drawn, [-0.0] * negative_zero])
        w, h = (int(v) for v in rng.integers(1, 2000, 2))
        stream = EventStream.from_arrays(
            (w, h), t, rng.integers(0, w, len(t)), rng.integers(0, h, len(t)), rng.choice([-1, 1], len(t))
        )
        path = tmp_path_factory.mktemp("events") / "events.txt"
        _oracle_write_event_stream_f6(stream, path)
        want = path.read_bytes()
        write_event_stream(stream, path)
        assert path.read_bytes() == want

    @pytest.mark.parametrize("fraction", [0.0, 0.5])
    def test_streams_longer_than_one_chunk(self, tmp_path, fraction):
        # the writer formats 65,536 events at a time; cross a chunk boundary
        n = 65536 + 1
        t = np.arange(n, dtype=np.float64) + np.where(np.arange(n) == n - 1, fraction, 0.0)
        stream = EventStream((7, 5), t, np.arange(n) % 7, np.arange(n) % 5, np.where(np.arange(n) % 3, 1, -1))
        _oracle_write_event_stream_f6(stream, tmp_path / "oracle")
        write_event_stream(stream, tmp_path / "events")
        assert (tmp_path / "events").read_bytes() == (tmp_path / "oracle").read_bytes()

    @pytest.mark.parametrize(
        "t", [[2.0**63 - 1024, 2.0**63], [1e19, 1e300], [2.0**53, 2.0**53 + 2], [0.0, 1e7, 1e7 + 0.5]])
    def test_integral_edges_match_f6_writer(self, tmp_path, t):
        # int64 holds integral floats exactly only below 2**63
        stream = EventStream((4, 4), np.array(t), np.zeros(len(t)), np.zeros(len(t)), np.ones(len(t)))
        _oracle_write_event_stream_f6(stream, tmp_path / "oracle")
        write_event_stream(stream, tmp_path / "events")
        assert (tmp_path / "events").read_bytes() == (tmp_path / "oracle").read_bytes()

    def assert_matches_both_oracles(self, tmp_path, stream):
        write_event_stream(stream, tmp_path / "events")
        got = (tmp_path / "events").read_bytes()
        for oracle in (_oracle_write_event_stream_f6, _oracle_write_event_stream_int):
            oracle(stream, tmp_path / "oracle")
            assert got == (tmp_path / "oracle").read_bytes(), oracle.__name__

    @pytest.mark.parametrize("w", [1, 9, 10, 2000])
    def test_integral_digit_rows_at_the_resolution_edge(self, tmp_path, w):
        # x = w - 1 and y = h - 1 take the most digits their column allows
        h = w
        t = np.array([0.0, 9.0, 10.0, 99.0, 100.0, 12345.0, 2.0**63 - 1024])
        stream = EventStream((w, h), t, [w - 1, 0, w - 1, 0, w // 2, w - 1, w - 1],
                             [h - 1, h - 1, 0, 0, h // 2, h - 1, 0], [-1, 1, -1, -1, 1, -1, 1])
        self.assert_matches_both_oracles(tmp_path, stream)
        lines = (tmp_path / "events").read_text().splitlines()
        assert lines[1] == f"0.000000,{w - 1},{h - 1},-1"
        assert lines[-1] == f"9223372036854774784.000000,{w - 1},0,1"

    @pytest.mark.parametrize("t", [[0.0], [9.0], [10.0], [2.0**63 - 1024], [0.0, 9.0, 10.0, 2.0**63 - 1024]])
    @pytest.mark.parametrize("p", [1, -1])
    def test_integral_timestamp_edges(self, tmp_path, t, p):
        stream = EventStream((4, 3), np.array(t), [3] * len(t), [2] * len(t), [p] * len(t))
        self.assert_matches_both_oracles(tmp_path, stream)

    def test_empty_stream_is_the_header(self, tmp_path):
        self.assert_matches_both_oracles(tmp_path, EventStream.empty((3, 2)))
        assert (tmp_path / "events").read_bytes() == b"t_us,x,y,p\n"

    def test_digit_widths_change_across_the_chunk_boundary(self, tmp_path):
        # the first chunk's timestamps have at most 4 digits, the second's at least 6
        rng = np.random.default_rng(7)
        first = np.sort(rng.integers(0, 10**4, 65536))
        second = np.sort(rng.integers(10**5, 10**7, 1000))
        n = len(first) + len(second)
        stream = EventStream((640, 480), np.concatenate([first, second]).astype(np.float64),
                             rng.integers(0, 640, n), rng.integers(0, 480, n), rng.choice([-1, 1], n))
        self.assert_matches_both_oracles(tmp_path, stream)

    def test_negative_zero_timestamp_keeps_its_sign(self, tmp_path):
        stream = EventStream((4, 4), np.array([-0.0, 0.0, 3.0]), [0, 1, 2], [0, 0, 0], [1, -1, 1])
        write_event_stream(stream, tmp_path / "e.txt")
        lines = (tmp_path / "e.txt").read_text().splitlines()
        assert lines[1:] == ["-0.000000,0,0,1", "0.000000,1,0,-1", "3.000000,2,0,1"]

    def test_cloud_longer_than_one_chunk(self, tmp_path):
        # the PLY writer formats 21,845 points (65,535 values) at a time
        rng = np.random.default_rng(8)
        cloud = PointCloud(rng.normal(0.0, 3.0, (2 * 21845 + 1, 3)))
        _oracle_write_ply(tmp_path / "oracle", cloud)
        write_ply(tmp_path / "cloud.ply", cloud)
        assert (tmp_path / "cloud.ply").read_bytes() == (tmp_path / "oracle").read_bytes()

    @settings(max_examples=200)
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

    def test_depth_pgm_without_valid_pixel(self, tmp_path):
        path = tmp_path / "depth.pgm"
        write_depth_pgm(path, DepthMap((5, 3), np.full((3, 5), 2.0), np.zeros((3, 5), dtype=bool)))
        assert np.array_equal(read_pgm16(path), np.zeros((3, 5)))
        assert (tmp_path / "depth.pgm.meta").read_text() == "meters_per_unit 1\ninvalid_value 0\n"

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

