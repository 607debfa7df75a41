"""Tests of the benchmark's own code: report matching, span arithmetic and
the repeatability of the traced counts.

    python3 -m pytest benchmarks/tests
"""

import json
from pathlib import Path

import report_diff
import run
import tracing

ROOT = Path(__file__).resolve().parents[2]


def _record(cid, tag, idx, residual, tol=1e-9, ok=True):
    return {
        "check_id": cid, "anchor": "a", "structure": tag,
        "point": {"index": idx, "x": [0.0, 0.0], "p": [1.0, 0.0]},
        "residual": residual, "tolerance": tol, "pass": ok,
    }


def test_report_diff_finds_added_dropped_flipped_and_drift():
    old = {"checks": [
        _record("a.kept", "s", 0, 1e-12),
        _record("a.drifts", "s", 0, 1e-12),
        _record("a.flips", "s", 0, 1e-12),
        _record("a.dropped", "s", 0, 1e-12),
    ]}
    new = {"checks": [
        _record("a.kept", "s", 0, 1e-12),
        _record("a.drifts", "s", 0, 5e-10),
        _record("a.flips", "s", 0, 2e-9, ok=False),
        _record("a.added", "s", 1, 1e-12),
    ]}
    d = report_diff.diff(old, new)
    assert d.added == [("a.added", "s", 1)]
    assert d.dropped == [("a.dropped", "s", 0)]
    assert d.flipped == [("a.flips", "s", 0)]
    assert d.worst_key == ("a.flips", "s", 0)
    assert abs(d.worst_drift - (2e-9 - 1e-12) / 1e-9) < 1e-12
    assert not d.clean()

    # drift alone, on a record that keeps passing, is caught by the limit
    only_drift = report_diff.diff({"checks": old["checks"][:2]}, {"checks": new["checks"][:2]})
    assert not only_drift.added and not only_drift.dropped and not only_drift.flipped
    assert abs(only_drift.worst_drift - (5e-10 - 1e-12) / 1e-9) < 1e-12
    assert not only_drift.clean()
    assert only_drift.clean(drift_limit=1.0)

    assert report_diff.diff(old, report_diff.compact(old)).clean()
    assert report_diff.diff(old, old).worst_drift == 0.0


def test_self_time_subtracts_children_only():
    # root [0, 100] has children a [10, 40] and b [50, 90]; a has child c [20, 25]
    spans = [
        ["root", 0, 100, -1],
        ["a", 10, 40, 0],
        ["c", 20, 25, 1],
        ["b", 50, 90, 0],
    ]
    assert tracing.self_times(spans) == [100 - 30 - 40, 30 - 5, 5, 40]


def test_outermost_skips_nested_spans_of_the_same_group():
    spans = [
        ["check/x", 0, 10, -1, 0, None],
        ["geometry.g/g_up", 1, 2, 0, 0, None],
        ["check/y", 3, 4, 1, 0, None],
        ["check/z", 11, 12, -1, 0, None],
    ]
    assert tracing.outermost(spans, {"check"}) == [0, 3]


def _tiny_manifest():
    from cartanlab.manifest import parse_manifest

    return parse_manifest(json.dumps({
        "structures": [{"family": "riemannian_conformal", "n": 2, "c": -1.0}],
        "params": [{"label": "hyperbolic", "alpha": 1.0, "beta": 1.0, "c": -1.0}],
        "sampling": {"seed": 3, "count": 2},
    }))


def test_traced_counts_repeat_and_tracing_leaves_results_unchanged():
    from cartanlab import jets
    from cartanlab.checks import run_suite

    only = [
        "berwald.momentum_parallel",
        "berwald.curvature_fd_oracle",
        "kahler.j_squared",
        "levicivita.koszul_agreement",
    ]
    manifest = _tiny_manifest()
    mul = jets.Jet.__mul__
    plain = json.dumps(run_suite(manifest, only=only), sort_keys=True)
    runs = []
    for _ in range(2):
        tracer = tracing.Tracer().install()
        try:
            report = run_suite(manifest, only=only)
        finally:
            tracer.uninstall()
        assert json.dumps(report, sort_keys=True) == plain
        assert tracer.missing == []
        by_check = {}
        for r in report["checks"]:
            by_check[r["check_id"]] = by_check.get(r["check_id"], 0) + 1
        runs.append(tracer.metrics(by_check, 0, 0))
    assert jets.Jet.__mul__ is mul

    first, second = runs
    for name in ("jets.mul_count", "jets.mul_madds", "berwald.cov_calls",
                 *(f"geometry.built.order{k}" for k in tracing.GEOMETRY_ORDERS)):
        assert first[name] == second[name], name
    assert first["jets.mul_count"] > 0
    assert first["berwald.cov_calls"] > 0
    assert first["geometry.built.order2"] > 0  # the Koszul oracle's metric stencil
    assert first["checks.levicivita.koszul_agreement.ms_per_record"] > 0


def test_benchmark_json_names_every_metric_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END_UNITS
    assert layers == tracing.metric_units()
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
