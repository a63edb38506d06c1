"""Dumped bytes of the bundled scenarios whose dumps ``perfbench/reference.json`` does not cover.

``noiseless_plane`` is the only bundled scenario without timestamp
quantization or jitter, so it alone takes the float-sorted reflection order
and an exactly planar (rms 0) fit; ``stationary`` repeats one mask for
several periods. For both, the SHA-256 of every file ``run_scenario`` writes
with every dump kind is pinned here. ``plane_compare`` is the only one with
``first_period: sparse``, ``dilation_px: 8`` and a 1024x320 raster; its 127
dumped files are pinned by one SHA-256 over their sorted names and digests,
so the table does not grow by a line per file. ``compare_sampling.csv`` is
pinned for the three scenarios whose table the reference does not hold;
only ``noiseless_plane``'s one-period table includes a ``first_period:
dense`` fallback, so its event-guided row equals its dense row. A change to
any of these output bytes is a deliberate step: re-record the digest and
say why.
"""

import hashlib
import io
from pathlib import Path

import pytest

from evsl.formats import write_csv
from evsl.harness import DUMP_KINDS, compare_sampling, load_scenario, run_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

DIGESTS = {
    "noiseless_plane": {
        "cloud_p000.ply": "24819190e39b06ac25e37b2080620159fabef7ecf314a160fb561e9c9efaf208",
        "depth_p000.pgm": "2702162ba47162b4a7ad58904f67762dfa70abfad8b97bfd5d89a3114e1912e9",
        "depth_p000.pgm.meta": "9dbbc07dcc3a697594a8e90dad9d3e100cf45c9972b6153da8bc3ac38ae89e0a",
        "guide_p000.txt": "2d1c75c05e548d8eee77e1b62453de4bf54dd9d99415355aa29986205d16b05d",
        "mask_p000.pbm": "3c60ce7dbaede96da386fbda7369f4355a5e16a847468924fb3c86875944a474",
        "periods.csv": "4e8f44c76a64cc34d04dfa1650011b8048b11fdde4ca16cecca1b3b3679e788d",
        "reflect_p000.txt": "514035bd8aa1336d52b9d004680743a238bc817bda30da22e60b1d0ad019a2ed",
    },
    "stationary": {
        "cloud_p000.ply": "a4d1f2d1c13f0d72580820c2c527b28c412cc76a341df24a7d204d34b9991184",
        "cloud_p001.ply": "f8b2d8d2b3997e2273718b2a170218cba27aee047dace5ded7eb6b80ba23c40d",
        "cloud_p002.ply": "63d3c95567b915316513ab9541727a6ea4014becaf56b1f9b374b69d122e0a92",
        "cloud_p003.ply": "037aeae1f47706dbb590e9c81d688a8d973b9b85ab5e9b062abb0508bd12c446",
        "depth_p000.pgm": "186fed36a678561d6efcbaa2350929235b9729abc4229065e98633bf66512a86",
        "depth_p000.pgm.meta": "093076acb717912b12a6c1facbc0a80221ba0181eb5de44baace5a1c46e6161c",
        "depth_p001.pgm": "1a7fb85c973bfb51ec957803817bc7d17ecf39d45f31ffade210defb977d3082",
        "depth_p001.pgm.meta": "093076acb717912b12a6c1facbc0a80221ba0181eb5de44baace5a1c46e6161c",
        "depth_p002.pgm": "a7c995dfd637cb614df898dd539ce48eb5ee9649b1ced3a813fd7217d8e5792b",
        "depth_p002.pgm.meta": "093076acb717912b12a6c1facbc0a80221ba0181eb5de44baace5a1c46e6161c",
        "depth_p003.pgm": "3f80a2fb2550cc4cd7942e719e3d3fd692818d18905b31eb0d87b6c514cb3f5b",
        "depth_p003.pgm.meta": "093076acb717912b12a6c1facbc0a80221ba0181eb5de44baace5a1c46e6161c",
        "guide_p000.txt": "2d1c75c05e548d8eee77e1b62453de4bf54dd9d99415355aa29986205d16b05d",
        "guide_p001.txt": "2d1c75c05e548d8eee77e1b62453de4bf54dd9d99415355aa29986205d16b05d",
        "guide_p002.txt": "2d1c75c05e548d8eee77e1b62453de4bf54dd9d99415355aa29986205d16b05d",
        "guide_p003.txt": "2d1c75c05e548d8eee77e1b62453de4bf54dd9d99415355aa29986205d16b05d",
        "mask_p000.pbm": "3c60ce7dbaede96da386fbda7369f4355a5e16a847468924fb3c86875944a474",
        "mask_p001.pbm": "3ce9cd5249fd4dd108a1c293f6e324de60c6f002369b46599249d04021f474f2",
        "mask_p002.pbm": "3ce9cd5249fd4dd108a1c293f6e324de60c6f002369b46599249d04021f474f2",
        "mask_p003.pbm": "3ce9cd5249fd4dd108a1c293f6e324de60c6f002369b46599249d04021f474f2",
        "periods.csv": "68bf0b36e4031f9ae7679ceed7301c6c6d1d7383edb834671e58ec02b5716810",
        "reflect_p000.txt": "eab85f78b448de0d7611b367d7333b9fc0eda417ae971e06aadd9727f7487028",
        "reflect_p001.txt": "ff9829a387c5e325f523419d9a5aba8aec255eb325767bd93f6a930ef205e169",
        "reflect_p002.txt": "702b0a6cc3c295c1b894f940b763ec18abb6af0000a5ccc219133edfbe9a11c1",
        "reflect_p003.txt": "7ee4697b12bee29aa8c83d0e6e23f9b19430a6420e1c13744773480c37907f3a",
    },
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_dumped_files_match_digests(tmp_path, name):
    run_scenario(load_scenario(SCENARIOS / f"{name}.yaml"), dump=DUMP_KINDS, out_dir=tmp_path)
    written = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tmp_path.iterdir()}
    assert written == DIGESTS[name]


# SHA-256 over (name, NUL, SHA-256 of the bytes) of every dumped file, in name order
PLANE_COMPARE_DUMPS = (127, "56971d35250cfb93d2cd357a6a7ccaeaf748faf82f05f5cc8eecc05cbe450fb5")


def test_plane_compare_dumps_match_digest(tmp_path):
    run_scenario(load_scenario(SCENARIOS / "plane_compare.yaml"), dump=DUMP_KINDS, out_dir=tmp_path)
    files = sorted(tmp_path.iterdir())
    combined = hashlib.sha256()
    for f in files:
        combined.update(f.name.encode() + b"\0")
        combined.update(hashlib.sha256(f.read_bytes()).digest())
    assert (len(files), combined.hexdigest()) == PLANE_COMPARE_DUMPS


# SHA-256 of compare_sampling.csv as ``evsl compare-sampling <scenario> --out-dir`` writes it
COMPARE_DIGESTS = {
    "moving_object": "6c84e2564c047cbbeb9695b3b154d24157a9b3566f5235b2bb2bcf274b63c4ba",
    "noiseless_plane": "bc41b6d7846d93e0e7c45d39767f8132aa55f290b42eccd98a1839f9d7563126",
    "stationary": "41ef067c888e88e5bec6e572a844c53af5bb1bb3eb916556f28051b91120294c",
}


@pytest.mark.parametrize("name", sorted(COMPARE_DIGESTS))
def test_compare_table_matches_digest(name):
    rows = compare_sampling(load_scenario(SCENARIOS / f"{name}.yaml"))
    table = io.StringIO()
    write_csv(table, list(rows[0]), (row.values() for row in rows))
    assert hashlib.sha256(table.getvalue().encode()).hexdigest() == COMPARE_DIGESTS[name]
