import subprocess
import sys
import textwrap
from pathlib import Path

import evsl

SRC = str(Path(evsl.__file__).resolve().parents[1])


def run_python(code: str, cwd) -> str:
    return subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, capture_output=True, text=True, check=True
    ).stdout


def test_all_names_resolve_once():
    assert len(evsl.__all__) == len(set(evsl.__all__))
    for name in evsl.__all__:
        assert getattr(evsl, name) is not None, name


def test_import_leaves_scipy_spatial_unloaded():
    # scipy is a test-only dependency: importing evsl loads no scipy module at all
    code = "import sys, evsl; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert run_python(code, SRC).strip() == "[]"


def test_event_guided_run_needs_no_scipy(tmp_path):
    # a None entry in sys.modules makes any later "import scipy..." raise ImportError
    code = textwrap.dedent(f"""\
        import sys
        sys.modules["scipy"] = None
        sys.path.insert(0, {SRC!r})
        sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
        import evsl
        from test_harness import tiny_scenario
        scenario = tiny_scenario(periods=2, noise=evsl.NoiseModel())
        assert isinstance(scenario.policy, evsl.EventGuidedPolicy)
        reports = evsl.run_scenario(scenario, dump=("events", "masks", "depth", "ply"), out_dir="out")
        # period 0 runs the sparse fallback; period 1 adds the boxes the mask stage found
        print(len(reports), reports[1].mask_fraction > reports[0].mask_fraction)
    """)
    assert run_python(code, tmp_path).split() == ["2", "True"]
    assert (tmp_path / "out" / "mask_p001.pbm").exists()
