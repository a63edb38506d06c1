#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric's spread.

Usage, from the repository root:

    python3 perfbench/collect.py --seeds 0-9 --trace-seeds 0-2 --out perfbench/BENCH_1.json

For every workload (or those given with --workloads) it runs run.py once per
seed, one run at a time, with the run_seconds of BENCHMARK.json. For each
end-to-end metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median,
flagged when the spread exceeds a third of the metric's bound. The traced
runs add each per-layer metric's median. --out writes all of it as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - start
    result["note"] = lines[0]
    result["host_run_s_p50"] = float(re.search(r"host run_s_p50 (\S+) s", lines[0]).group(1))
    return result


def summarise(values: list[float], bound: float | None = None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    row = {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}
    if bound is not None:
        row["bound"] = bound
        row["spread"] = (q3 - q1) / row["median"] if row["median"] else 0.0
    return row


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("0-9"), help="untraced seeds, e.g. 0-9")
    parser.add_argument("--trace-seeds", type=_seeds, default=[], help="traced seeds, e.g. 0-2")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    report = {
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus, Python {platform.python_version()}",
        "run_seconds": seconds,
        "seeds": args.seeds,
        "trace_seeds": args.trace_seeds,
        "workloads": {},
    }
    steady = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, seconds, 0) for s in args.seeds]
        traced = [run_once(workload, s, seconds, 1) for s in args.trace_seeds]
        entry = {
            "attempted": sum(r["attempted"] for r in runs + traced),
            "failed": sum(r["failed"] for r in runs + traced),
            "max_run_wall_s": max(r["wall_s"] for r in runs + traced),
            "end_to_end": {},
            "per_layer": {},
        }
        print(f"== {workload}: {len(runs)} runs, {entry['failed']} of {entry['attempted']} operations failed, "
              f"longest run {entry['max_run_wall_s']:.1f} s")
        for m in spec["end_to_end"]:
            row = summarise([r["metrics"][m["name"]]["value"] for r in runs], m["bound"])
            row["unit"] = m["unit"]
            entry["end_to_end"][m["name"]] = row
            flag = ""
            if m["name"] != "setup_s" and row["spread"] > m["bound"] / 3:
                flag = "  <-- spread above a third of the bound"
                steady = False
            print(f"  {m['name']:<22} median {row['median']:<12.6g} {m['unit']:<6} q1 {row['q1']:<10.6g} "
                  f"q3 {row['q3']:<10.6g} spread {row['spread']:.4f} (bound {m['bound']}){flag}")
        host = summarise([r["host_run_s_p50"] for r in runs])
        entry["host_run_s_p50"] = host
        print(f"  {'(host run_s_p50)':<22} median {host['median']:<12.6g} {'s':<6} q1 {host['q1']:<10.6g} "
              f"q3 {host['q3']:<10.6g} spread {(host['q3'] - host['q1']) / host['median']:.4f} (not scaled)")
        entry["notes"] = [r["note"] for r in runs + traced]
        if traced:
            for m in spec["per_layer"]:
                values = [r["metrics"][m["name"]]["value"] for r in traced]
                entry["per_layer"][m["name"]] = {"median": statistics.median(values), "unit": m["unit"],
                                                 "values": values}
            shares = {k: v["median"] for k, v in entry["per_layer"].items() if k.endswith(".share")}
            print("  shares: " + ", ".join(f"{k[:-6]} {v:.3f}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
        report["workloads"][workload] = entry
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
