"""The benchmark's workloads: input generation, one measured pass, and the
correctness gate for each.

* ``verify-default``: ``cartanlab verify`` (manifest load, ``run_suite``,
  report) on the shipped ``manifests/default.json`` with the workload seed
  as its sampling seed.
* ``verify-highdim``: the same on a generated manifest of n = 3 and n = 4
  structures at a small sample count.
* ``point-query``: a closed loop with one client making in-process
  ``cartanlab tensor`` calls over a seeded list of admissible points.

The program only receives the generated manifest or points.  A pass is
one verify request, or the whole query list once.  ``point-query`` is not
in ``BENCHMARK.json``: its timings spread too widely on a shared host (see
README.md), but it stays runnable by name.
"""

from __future__ import annotations

import gzip
import io
import json
import math
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import report_diff

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
# the seed whose outputs the benchmark holds as its reference
REFERENCE_SEED = 0

HIGHDIM_STRUCTURES = [
    {"family": "riemannian_conformal", "n": 3, "c": -1.0},
    {"family": "randers", "n": 3, "c": 0.0, "drift": 0.3},
    {"family": "riemannian_conformal", "n": 4, "c": -1.0},
]
HYPERBOLIC = {"label": "hyperbolic", "alpha": 1.0, "beta": 1.0, "c": -1.0}
# the smallest cap in the registry: the costliest oracles run at their cap
# while the full-count checks stay cheap
HIGHDIM_COUNT = 3

QUERY_STRUCTURES = [
    # (manifest entry, number of queries in one pass of the list)
    ({"family": "riemannian_conformal", "n": 2, "c": -1.0}, 20),
    ({"family": "expression", "n": 2, "label": "anisotropic-quadratic-2d",
      "k2": "(1 + 0.5*x1*x1) * p2*p2 + p1*p1"}, 20),
    ({"family": "randers", "n": 3, "c": -1.0, "drift": 0.3}, 40),
    ({"family": "riemannian_conformal", "n": 4, "c": -1.0}, 20),
]
QUERY_OBJECTS = "g,C,N,B,L,G,J,theta,connection,curvature,ricci,operators"
P_NORM = (0.5, 1.5)
# reference outputs must agree to this share of the object's norm
QUERY_RTOL = 1e-9
# the paper's Einstein factor lambda_hat = c n beta must hold this closely
EINSTEIN_TOL = 1e-8


def warm_jet_tables(dims) -> None:
    """Build the jet product and derivative tables a run will use."""
    from cartanlab import jets

    tables = getattr(jets, "_tables", None)
    if tables is None:
        return
    for n in dims:
        for order in range(6):
            tab = tables(2 * n, order)
            tab.mul
            if order:
                for var in range(2 * n):
                    tab.deriv_map(var)


@dataclass
class Pass:
    latencies_s: list
    attempted: int
    failed: int
    text: str  # every output, serialised; equal texts mean equal results
    report: dict = None
    outputs: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# verify workloads


class VerifyWorkload:
    """``cartanlab verify`` in process: manifest load, ``run_suite`` and the
    report, with the workload seed as sampling seed."""

    def __init__(self, name, manifest_path: Path, seed: int):
        from cartanlab.manifest import load_manifest

        self.name = name
        self.argv = ["verify", "--manifest", str(manifest_path), "--seed", str(seed)]
        self.dims = sorted({s.dim for s in load_manifest(str(manifest_path)).structures})

    def run_pass(self) -> Pass:
        from cartanlab.cli import main

        buf = io.StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(buf):
            main(self.argv)
        elapsed = time.perf_counter() - t0
        text = buf.getvalue()
        report = json.loads(text)
        bad = sum(1 for r in report["checks"] if not r["pass"] or r["residual"] is None)
        # exit 1 means failed records, which the count holds; an internal
        # fault (exit 3) prints no report and stops the run in json.loads
        return Pass([elapsed], len(report["checks"]), bad, text, report=report)

    def check(self, result: Pass, seed: int) -> list:
        problems = []
        checks = result.report["checks"]
        failed = sum(1 for r in checks if not r["pass"])
        nulls = sum(1 for r in checks if r["residual"] is None)
        if failed or nulls:
            problems.append(f"{self.name}: {failed} failed records, {nulls} null residuals")
        if seed == REFERENCE_SEED:
            ref = report_diff.load(reference_path(self.name))
            diff = report_diff.diff(ref, result.report)
            if not diff.clean():
                problems.append(f"{self.name}: report differs from the reference")
                problems.extend(diff.lines())
        return problems

    def reference_doc(self, result: Pass) -> dict:
        return report_diff.compact(result.report)


def verify_default(root: Path, seed: int, out_dir: Path) -> VerifyWorkload:
    return VerifyWorkload("verify-default", root / "manifests" / "default.json", seed)


def highdim_manifest(seed: int) -> str:
    return json.dumps({
        "structures": HIGHDIM_STRUCTURES,
        "params": [HYPERBOLIC],
        "sampling": {"seed": seed, "count": HIGHDIM_COUNT, "p_norm": list(P_NORM)},
    }, indent=1)


def verify_highdim(root: Path, seed: int, out_dir: Path) -> VerifyWorkload:
    path = out_dir / "verify-highdim-manifest.json"
    path.write_text(highdim_manifest(seed), encoding="utf-8")
    return VerifyWorkload("verify-highdim", path, seed)


# ---------------------------------------------------------------------------
# point queries


@dataclass(frozen=True)
class Query:
    structure: str
    point: str  # 'x1,..,xn;p1,..,pn' with every digit of each float
    einstein: float = None  # c n beta on conformal structures, else None


def _sample_point(structure, accept, rng):
    from cartanlab.jets import ChartPoint

    n = structure.dim
    while True:
        x = rng.uniform(-structure.x_box, structure.x_box, size=n)
        d = rng.normal(size=n)
        norm = float(np.linalg.norm(d))
        if norm == 0.0:
            continue
        p = d * (rng.uniform(*P_NORM) / norm)
        pt = ChartPoint(x, p)
        if structure.admissible(pt) and accept(pt):
            return pt


def _flatten(value, out) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(value[key], out)
    elif isinstance(value, list):
        for item in value:
            _flatten(item, out)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        out.append(float(value))


def object_digest(obj) -> list:
    """[norm, weighted sum] of every number in one tensor object."""
    values = []
    _flatten(obj, values)
    v = np.array(values)
    w = np.cos(np.arange(v.size) * 0.7548776662466927)
    return [float(np.linalg.norm(v)), float(v @ w)]


class PointQueryWorkload:
    name = "point-query"
    dims = [2, 3, 4]

    def __init__(self, manifest_path: Path, queries):
        self.manifest_path = manifest_path
        self.queries = queries

    def argv(self, q: Query) -> list:
        return [
            "tensor", "--manifest", str(self.manifest_path), "--structure", q.structure,
            "--params", "hyperbolic", f"--point={q.point}", "--objects", QUERY_OBJECTS,
        ]

    def run_pass(self) -> Pass:
        from cartanlab.cli import main

        latencies, outputs, failed = [], [], 0
        for q in self.queries:
            buf = io.StringIO()
            t0 = time.perf_counter()
            with redirect_stdout(buf):
                code = main(self.argv(q))
            latencies.append(time.perf_counter() - t0)
            failed += code != 0
            outputs.append(buf.getvalue())
        return Pass(latencies, len(self.queries), failed, "".join(outputs), outputs=outputs)

    def check(self, result: Pass, seed: int) -> list:
        problems = []
        reference = None
        if seed == REFERENCE_SEED:
            reference = report_diff.load(reference_path(self.name))["queries"]
        for i, (q, text) in enumerate(zip(self.queries, result.outputs)):
            try:
                objects = json.loads(text)["objects"]
            except (ValueError, KeyError):
                problems.append(f"query {i} ({q.structure}): no tensor document")
                continue
            if q.einstein is not None:
                got = objects["ricci"]["lambda_hat"]
                if not abs(got - q.einstein) <= EINSTEIN_TOL * abs(q.einstein):
                    problems.append(
                        f"query {i} ({q.structure}): lambda_hat {got!r} != c n beta = {q.einstein}"
                    )
            if reference is None:
                continue
            want = reference[i]
            if want["point"] != q.point:
                problems.append(f"query {i}: reference holds another point")
                continue
            for name, (norm, weighted) in want["objects"].items():
                got_norm, got_weighted = object_digest(objects[name])
                bound = QUERY_RTOL * max(1.0, norm)
                if abs(got_norm - norm) > bound or abs(got_weighted - weighted) > bound:
                    problems.append(
                        f"query {i} ({q.structure}) object {name}: digest "
                        f"{[got_norm, got_weighted]} != reference {[norm, weighted]}"
                    )
        return problems

    def reference_doc(self, result: Pass) -> dict:
        queries = []
        for q, text in zip(self.queries, result.outputs):
            objects = json.loads(text)["objects"]
            queries.append({
                "structure": q.structure,
                "point": q.point,
                "objects": {name: object_digest(obj) for name, obj in sorted(objects.items())},
            })
        return {"queries": queries}


def point_query(root: Path, seed: int, out_dir: Path) -> PointQueryWorkload:
    from cartanlab.kahler import tube_predicate
    from cartanlab.manifest import parse_manifest

    text = json.dumps({
        "structures": [entry for entry, _count in QUERY_STRUCTURES],
        "params": [HYPERBOLIC],
    }, indent=1)
    manifest = parse_manifest(text)
    path = out_dir / "point-query-manifest.json"
    path.write_text(text, encoding="utf-8")

    rng = np.random.default_rng(seed)
    params = manifest.params[0]
    queries = []
    for structure, config, (_entry, count) in zip(
        manifest.structures, manifest.structure_configs, QUERY_STRUCTURES
    ):
        accept = tube_predicate(structure, params)
        einstein = None
        if config["family"] == "riemannian_conformal":
            einstein = params.c * structure.dim * params.beta
        for _ in range(count):
            pt = _sample_point(structure, accept, rng)
            point = ",".join(map(repr, map(float, pt.x))) + ";" + ",".join(map(repr, map(float, pt.p)))
            queries.append(Query(structure.label, point, einstein))
    order = rng.permutation(len(queries))
    return PointQueryWorkload(path, [queries[i] for i in order])


def build(name: str, root: Path, seed: int, out_dir: Path):
    """Generate a workload's inputs and warm the jet tables it will use."""
    if name == "verify-default":
        wl = verify_default(root, seed, out_dir)
    elif name == "verify-highdim":
        wl = verify_highdim(root, seed, out_dir)
    elif name == "point-query":
        wl = point_query(root, seed, out_dir)
    else:
        raise ValueError(f"unknown workload {name!r}")
    warm_jet_tables(wl.dims)
    return wl


def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.seed{REFERENCE_SEED}.json.gz"


def write_reference(wl, result: Pass) -> Path:
    path = reference_path(wl.name)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = json.dumps(wl.reference_doc(result), sort_keys=True, separators=(",", ":"))
    # mtime=0 keeps the file identical when regenerated from the same outputs
    with gzip.GzipFile(path, "wb", mtime=0) as fh:
        fh.write(data.encode("utf-8"))
    return path


def percentile(values, q) -> float:
    """The q-th percentile (0 < q < 100) by linear interpolation."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
