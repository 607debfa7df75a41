"""The benchmark tracer (benchmarks/tracing.py) still finds every entry point
it patches, so deleting or renaming one fails here and not only in the
traced benchmark run."""
from pathlib import Path

from cartanlab import checks, jets, levicivita

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_tracer_finds_every_entry_point(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tracing

    originals = (levicivita.koszul_oracle, checks.curvature_defn, jets.Jet.__mul__)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
        assert checks.koszul_oracle is not originals[0]  # the patch reached its callers
    finally:
        tracer.uninstall()
    assert (levicivita.koszul_oracle, checks.curvature_defn, jets.Jet.__mul__) == originals


def test_traced_run_of_the_batched_fd_oracles(monkeypatch):
    # the tracer's geometry wrappers read obj.n and obj.at.key() of every
    # PointGeometry, the batched stencil geometries of the two structure
    # oracles included; they count one build per stencil
    import json

    from cartanlab.manifest import parse_manifest

    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tracing

    n, points = 3, 2
    manifest = parse_manifest(json.dumps({
        "structures": [{"family": "riemannian_conformal", "n": n, "c": -1.0}],
        "params": [{"label": "hyperbolic", "alpha": 1.0, "beta": 1.0, "c": -1.0}],
        "sampling": {"seed": 0, "count": points, "p_norm": [0.5, 1.5]},
    }))
    tracer = tracing.Tracer()
    try:
        tracer.install()
        report = checks.run_suite(manifest, only=["berwald.curvature_fd_oracle", "berwald.n_fd_oracle"])
    finally:
        tracer.uninstall()
    assert report["summary"]["total"] == 2 * points and report["summary"]["failed"] == 0
    counts = tracer.counts
    assert [counts[f"geometry.built.order{k}"] for k in (5, 4, 2)] == [points, points, points]
    geometry_spans = [row for row in tracer.spans if row[0].startswith("geometry.")]
    assert geometry_spans and all(row[4] == n and row[5] is not None for row in geometry_spans)


def test_structure_checks_evaluate_k2_once_per_point(monkeypatch):
    # the jet-vs-FD, delta K^2 and metric-delta checks read K^2 and its
    # derivatives off the point's geometry: one jet evaluation per point
    import json

    from cartanlab.manifest import parse_manifest

    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tracing

    points = 2
    manifest = parse_manifest(json.dumps({
        "structures": [{"family": "riemannian_conformal", "n": 2, "c": -1.0}],
        "params": [{"label": "hyperbolic", "alpha": 1.0, "beta": 1.0, "c": -1.0}],
        "sampling": {"seed": 0, "count": points, "p_norm": [0.5, 1.5]},
    }))
    only = ["jets.jet_vs_fd", "berwald.delta_k2", "berwald.metric_delta"]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        report = checks.run_suite(manifest, only=only)
    finally:
        tracer.uninstall()
    assert report["summary"]["total"] == len(only) * points and report["summary"]["failed"] == 0
    assert tracer.counts["jets.jet_eval_calls"] == points
