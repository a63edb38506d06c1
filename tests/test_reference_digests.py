"""Output bytes against the digests recorded in ``perfbench/reference.json``.

Every other test compares runs made in the same test run, so a change that
alters every output the same way passes them. This one runs one operation of
each benchmark workload at seed 0 through ``perfbench/run.py`` (loaded
unedited) and checks it with that script's ``check_op``: the digest of the
outputs must equal the recorded one, and the firing and decode tallies must
add up. Re-recording the digests is a deliberate step through
``perfbench/record_reference.py``.
"""

import sys

import pytest

from evsl import harness
from test_perfbench_hooks import load_bench


@pytest.mark.parametrize("name", ["guided_motion", "policy_compare", "dump_readback", "parallel_guided"])
def test_seed_0_matches_reference(monkeypatch, tmp_path, name):
    bench = load_bench(monkeypatch)
    monkeypatch.setattr(bench, "DUMP_DIR", tmp_path / "dump")
    # Runner wraps these attributes of evsl.harness in place and prepends src/ to sys.path
    for attr, *_ in bench.HARNESS_HOOKS:
        monkeypatch.setattr(harness, attr, getattr(harness, attr))
    monkeypatch.setattr(harness, "ThreadPoolExecutor", harness.ThreadPoolExecutor)
    monkeypatch.setattr(sys, "path", list(sys.path))
    runner = bench.Runner(bench.Probe())
    expected = bench.load_reference()[name]["0"]

    case = bench.Bench(runner, name, seed=0)
    result, _, _ = case.call(case.workload.op, 0, traced=False)
    failures, digest = bench.check_op(runner.probe.checked, result, case.workload, expected)
    assert failures == []
    assert digest == expected
