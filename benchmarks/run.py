#!/usr/bin/env python3
"""Run one cartanlab benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload verify-default --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the run repeats passes of the workload for
``--seconds`` seconds (at least one pass) and reports the end-to-end
metrics.  With ``--trace 1`` it makes one untraced and one traced pass and
reports the per-layer metrics; spans go to ``.bench_out/``.  Either way
the outputs are checked, and the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Problems found by the checks go to standard error.

``--write-reference`` runs one pass at the reference seed and stores its
outputs under ``benchmarks/reference/`` instead.
"""

import os

# one BLAS thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("verify-default", "verify-highdim", "point-query")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "request_ms_p50": "ms",
    "request_ms_p90": "ms",
    "ok_share": "ratio",
    "peak_rss_mb": "MB",
}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time from starting a fresh process until it has imported,
    built the inputs and warmed the jet tables.

    The probe prints the wall clock when it is done; reading the time there
    keeps its exit and the wait for it out of the figure.
    """
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.time()
        probe = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, check=True, timeout=PROBE_TIMEOUT_S, capture_output=True, text=True,
        )
        times.append(float(probe.stdout) - t0)
    return statistics.median(times)


def run_untraced(wl, seed: int, seconds: float) -> tuple:
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(wl.run_pass())
    problems = []
    for result in passes:
        problems += wl.check(result, seed)
    if any(result.text != passes[0].text for result in passes):
        problems.append("passes over the same inputs gave different outputs")
    latencies = [t for result in passes for t in result.latencies_s]
    attempted = sum(r.attempted for r in passes)
    failed = sum(r.failed for r in passes)
    metrics = {
        "request_ms_p50": 1e3 * workloads.percentile(latencies, 50),
        "request_ms_p90": 1e3 * workloads.percentile(latencies, 90),
        "ok_share": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"{wl.name}: {len(passes)} pass(es), {len(latencies)} requests", file=sys.stderr)
    return metrics, attempted, failed, problems


def run_traced(wl, seed: int, spans_path: Path) -> tuple:
    plain = wl.run_pass()
    tracer = tracing.Tracer().install()
    try:
        traced = wl.run_pass()
    finally:
        tracer.uninstall()
    problems = wl.check(plain, seed) + wl.check(traced, seed)
    if traced.text != plain.text:
        problems.append("the traced pass gave other outputs than the untraced one")
    if tracer.missing:
        print(f"not traced (absent): {', '.join(tracer.missing)}", file=sys.stderr)
    by_check, failed, errored = {}, 0, 0
    if traced.report is not None:
        for r in traced.report["checks"]:
            by_check[r["check_id"]] = by_check.get(r["check_id"], 0) + 1
            failed += not r["pass"]
            errored += r["residual"] is None
    metrics = tracer.metrics(by_check, failed, errored)
    metrics["trace.overhead_s"] = sum(traced.latencies_s) - sum(plain.latencies_s)
    tracer.write(spans_path)
    return metrics, plain.attempted + traced.attempted, plain.failed + traced.failed, problems


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (ROOT / "src" / "cartanlab" / "__init__.py").is_file():
        print(f"benchmark error: no cartanlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT_DIR.mkdir(exist_ok=True)
    if args.setup_probe:
        workloads.build(args.workload, ROOT, args.seed, OUT_DIR)
        print(time.time())
        return 0

    # fresh processes time the set-up before this one builds its own inputs
    setup_s = setup_seconds(args.workload, args.seed) if not (args.trace or args.write_reference) else None
    wl = workloads.build(args.workload, ROOT, args.seed, OUT_DIR)

    if args.write_reference:
        if args.seed != workloads.REFERENCE_SEED:
            print(f"references are kept for seed {workloads.REFERENCE_SEED}", file=sys.stderr)
            return 2
        print(workloads.write_reference(wl, wl.run_pass()))
        return 0

    if args.trace:
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv"
        metrics, attempted, failed, problems = run_traced(wl, args.seed, spans_path)
        units = tracing.metric_units()
    else:
        metrics, attempted, failed, problems = run_untraced(wl, args.seed, args.seconds)
        metrics["setup_s"] = setup_s
        units = END_TO_END_UNITS
    for line in problems:
        print(line, file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
