#!/usr/bin/env python3
"""Record the output digest of every workload for a range of seeds.

Usage, from the repository root: python3 perfbench/record_reference.py 0 31

Writes perfbench/reference.json. run.py fails an operation whose digest
differs from the one recorded for its workload and seed; parallel_guided is
recorded from the serial run, so the parallel path must reproduce it. Run
only on a commit whose outputs are known good, and only after a deliberate
change of output bytes.
"""

from __future__ import annotations

import json
import sys

from run import REFERENCE, WORKLOADS, Bench, Probe, Runner, check_op


def main(first: int, last: int) -> int:
    runner = Runner(Probe())
    digests: dict[str, dict[str, str]] = {name: {} for name in WORKLOADS}
    for seed in range(first, last + 1):
        for name, workload in WORKLOADS.items():
            bench = Bench(runner, name, seed)
            op = workload.reference_op or workload.op
            result, _, _ = bench.call(op, 0, False)
            failures, digest = check_op(runner.probe.checked, result, workload, None)
            if failures:
                print(f"{name} seed {seed}: {failures}", file=sys.stderr)
                return 1
            digests[name][str(seed)] = digest
        print(f"seed {seed} recorded", flush=True)
    REFERENCE.write_text(json.dumps({"digests": digests}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]), int(sys.argv[2])))
