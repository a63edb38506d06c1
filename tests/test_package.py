import subprocess
import sys
from pathlib import Path

import evsl


def test_all_names_resolve_once():
    assert len(evsl.__all__) == len(set(evsl.__all__))
    for name in evsl.__all__:
        assert getattr(evsl, name) is not None, name


def test_import_leaves_scipy_spatial_unloaded():
    src = str(Path(evsl.__file__).resolve().parents[1])
    code = "import sys, evsl; print('scipy.spatial' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "False"
