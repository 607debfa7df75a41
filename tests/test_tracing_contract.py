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
