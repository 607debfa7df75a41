#!/usr/bin/env python3
"""Record one point of the performance trajectory.

    python3 benchmarks/trajectory.py --out benchmarks/BENCH_baseline.json

For every workload it makes ten untraced runs of ``run.py`` with seeds 0
to 9 and one traced run with seed 0 (the reference seed), one process at a
time.  It writes, per workload, each end-to-end metric's values with their
median, quartiles and spread (the distance between the quartiles over the
median), and the per-layer metrics of the traced run.  A claimed speed-up compares two such files.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def _run(workload, seed, seconds, trace) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=900,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stderr)
    return result


def summarise(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    doc = {
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": len(os.sched_getaffinity(0)),
            "run_seconds": spec["run_seconds"],
            "runs": RUNS,
        },
        "workloads": {},
    }
    correct = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [_run(workload, seed, spec["run_seconds"], 0) for seed in range(RUNS)]
        traced = _run(workload, 0, spec["run_seconds"], 1)
        ok = all(r["correct"] for r in runs) and traced["correct"]
        correct &= ok
        end_to_end = {
            m["name"]: dict(unit=m["unit"], **summarise([r["metrics"][m["name"]]["value"] for r in runs]))
            for m in spec["end_to_end"]
        }
        doc["workloads"][workload] = {
            "correct": ok,
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
        }
        for name, s in end_to_end.items():
            print(f"{workload} {name}: median {s['median']:.6g} spread {s['spread']:.3f}", flush=True)
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
