"""perfbench/run.py times the pipeline by wrapping attributes of ``evsl.harness``.

The wrappers only see stage calls made through ``evsl.harness`` globals. If a
stage call moves to another module, the per-layer trace goes blind without
an error, so every hook the benchmark installs must be called by the runs
its workloads make.
"""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import evsl
from evsl import harness
from test_harness import tiny_scenario

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def load_bench(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_hook_is_called(monkeypatch, tmp_path):
    bench = load_bench(monkeypatch)
    names = [hook[0] for hook in bench.HARNESS_HOOKS]
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(harness, name, counting(name, getattr(harness, name)))

    class CountingPool(harness.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            calls["ThreadPoolExecutor"] += 1
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(harness, "ThreadPoolExecutor", CountingPool)

    sc = tiny_scenario(periods=2, noise=evsl.NoiseModel())
    assert sc.evaluate_plane and isinstance(sc.policy, evsl.EventGuidedPolicy)
    phases = {}
    for phase, run in (
        ("dump", lambda: harness.run_scenario(sc, dump=bench.DUMP_KINDS, out_dir=tmp_path)),
        ("parallel", lambda: harness.run_scenario(sc, parallel=True)),
        ("compare", lambda: harness.compare_sampling(sc)),
    ):
        calls.clear()
        run()
        phases[phase] = Counter(calls)

    total = sum(phases.values(), Counter())
    assert [name for name in [*names, "ThreadPoolExecutor"] if not total[name]] == []
    assert phases["parallel"]["ThreadPoolExecutor"] == 1
    # the guide stage runs once and each period's scene renders once for all three policies
    assert phases["compare"]["render_scene"] == phases["compare"]["make_event_frame"] == sc.periods
