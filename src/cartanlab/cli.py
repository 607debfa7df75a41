"""Command-line front end.

Two subcommands:

* ``cartanlab verify --manifest m.json``: run the whole check registry
  over the manifest's structures, params, and sampling; emit a JSON
  report (top-level keys ``checks``, ``meta``, ``points``, ``summary``)
  with one check record per line.  Exit code
  0 when every check passes, 1 when any check fails, 2 on manifest
  errors, 3 on internal evaluation errors.
* ``cartanlab tensor --manifest m.json --point "x1,x2;p1,p2" --objects
  G,ricci``: evaluate named component arrays at one chart point for one
  structure/params selection from the manifest.

Reports are deterministic: same manifest, same seed, same engine
version give byte-identical bytes (keys sorted, no timestamps).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cached_property

import numpy as np

from . import __version__
from .errors import CartanLabError, EvaluationDomainError, ManifestError
from .geometry import PointGeometry, frame_block
from .jets import ChartPoint
from .kahler import BundleMetric, theta_matrix
from .levicivita import CURVATURE_BLOCKS, curvature_closed, lc_closed_form, ricci
from .manifest import load_manifest, with_seed
from .checks import run_suite
from .operators import (
    divergence,
    geodesic_spray,
    laplacian,
    liouville_field,
    operator_context,
)

__all__ = ["main"]

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cartanlab",
        description="Numerical verification of momentum-space Hamiltonian geometry.",
    )
    parser.add_argument("--version", action="version", version=f"cartanlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--manifest", required=True, help="path to a JSON manifest")
    common.add_argument("--out", default=None, help="write the document here instead of stdout")

    verify = sub.add_parser("verify", parents=[common], help="run the full check suite")
    verify.add_argument("--seed", type=int, default=None, help="override the manifest seed")

    tensor = sub.add_parser("tensor", parents=[common], help="evaluate tensors at one point")
    tensor.add_argument(
        "--point", required=True, help="chart point as 'x1,..,xn;p1,..,pn'"
    )
    tensor.add_argument(
        "--objects",
        required=True,
        help=f"comma-separated object names from {','.join(TENSORS)}",
    )
    tensor.add_argument("--structure", default=None, help="structure label (default: first)")
    tensor.add_argument("--params", default=None, help="params label (default: first)")
    return parser


def _write_report(report: dict, fh) -> None:
    """The verify report as one JSON document with sorted keys, streamed one
    check record per line ("checks" sorts first).  Each line is one
    ``json.dumps`` call, which runs the C encoder (``indent`` does not).
    NaN and infinity raise ValueError: the report is standard JSON."""
    fh.write('{\n"checks": [')
    for i, record in enumerate(report["checks"]):
        fh.write((",\n" if i else "\n") + json.dumps(record, sort_keys=True, allow_nan=False))
    rest = ",\n".join(
        f"{json.dumps(k)}: {json.dumps(report[k], sort_keys=True, allow_nan=False)}"
        for k in sorted(report)
        if k != "checks"
    )
    fh.write(f"\n],\n{rest}\n}}\n")


def _emit(write, out_path) -> None:
    """Run ``write(fh)`` on stdout or on the file at ``out_path``."""
    if out_path is None:
        write(sys.stdout)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            write(fh)


def _cmd_verify(args) -> int:
    manifest = load_manifest(args.manifest)
    if args.seed is not None:
        manifest = with_seed(manifest, args.seed)
    report = run_suite(manifest)
    _emit(lambda fh: _write_report(report, fh), args.out)
    return 0 if report["summary"]["failed"] == 0 else 1


# ---------------------------------------------------------------------------
# tensor subcommand


def _parse_point(text: str, n: int) -> ChartPoint:
    halves = text.split(";")
    if len(halves) != 2:
        raise ManifestError(f"--point must be 'x1,..,xn;p1,..,pn', got {text!r}")
    try:
        x = [float(v) for v in halves[0].split(",")]
        p = [float(v) for v in halves[1].split(",")]
    except ValueError:
        raise ManifestError(f"--point has non-numeric entries: {text!r}") from None
    if len(x) != n or len(p) != n:
        raise ManifestError(
            f"--point needs {n} base and {n} momentum coordinates for this "
            f"structure, got {len(x)} and {len(p)}"
        )
    if not np.all(np.isfinite(x + p)):
        raise ManifestError(f"--point has non-finite entries: {text!r}")
    if not any(p):
        raise ManifestError(f"--point needs a nonzero momentum on the slit bundle, got {text!r}")
    return ChartPoint(np.array(x), np.array(p))


def _select(labels, wanted, what):
    if wanted is None:
        return 0
    for i, label in enumerate(labels):
        if label == wanted:
            return i
    raise ManifestError(f"unknown {what} label {wanted!r}; manifest has {list(labels)}")


class _Query:
    """The query point: its geometry, and the bundle metric built on first
    use, so that g, C, N, B and L need no positive deformed metric."""

    def __init__(self, structure, params, at: ChartPoint):
        self.structure, self.params, self.at = structure, params, at
        self.geom = PointGeometry(structure, at)

    @cached_property
    def metric(self) -> BundleMetric:
        return BundleMetric(self.geom, self.params)


def _connection(q: _Query) -> dict:
    conn = lc_closed_form(q.structure, q.at, q.params, q.metric)
    doc = {key: {t: frame_block(conn, key + t) for t in "hv"} for key in ("v_v", "h_v", "v_h", "h_h")}
    return {"c_effective": q.params.c_at(q.geom.tau), **doc}


def _curvature(q: _Query) -> dict:
    k = curvature_closed(q.structure, q.at, q.params, q.metric)
    return {which: {t: frame_block(k, which + t) for t in "hv"} for which in CURVATURE_BLOCKS}


def _ricci(q: _Query) -> dict:
    rd = ricci(q.structure, q.at, q.params, q.metric)
    ric = {f"Ric_{kinds}": frame_block(rd.ric, kinds) for kinds in ("hh", "vv", "hv", "vh")}
    return {**ric, "lambda_hat": rd.lambda_hat, "defect": rd.defect}


def _operators(q: _Query) -> dict:
    m = operator_context(q.structure, q.at, q.params, q.metric)
    # at an extreme |p| the float products overflow; `_as_lists` then names
    # the object, with no numpy warning before it
    with np.errstate(over="ignore", invalid="ignore"):
        lap = laplacian(m, lambda pt: q.structure.k2_values(pt.x, pt.p))
        return {
            "div_spray": divergence(m, geodesic_spray(m)),
            "div_liouville": divergence(m, liouville_field(m)),
            "laplacian_k2_direct": lap.direct,
            "laplacian_k2_closed": lap.closed,
        }


#: each object of ``cartanlab tensor``: name -> (formula anchor, builder of
#: its arrays and numbers from the `_Query`)
TENSORS = {
    "g": ("fundamental-tensor", lambda q: {
        "g_up": q.geom.g_up, "g_down": q.geom.g_down, "p_up": q.geom.p_up, "tau": q.geom.tau,
    }),
    "C": ("cartan-tensor", lambda q: {"C_upupup": q.geom.C_uuu, "mean_cartan": q.geom.I_up}),
    "N": ("nonlinear-connection", lambda q: {"N": q.geom.N}),
    "B": ("berwald-coefficients", lambda q: {"B": q.geom.B}),
    "L": ("landsberg", lambda q: {"L_uud": q.geom.L_uud, "mean_landsberg": q.geom.J_down}),
    "G": ("bundle-metric", lambda q: {"G_down": q.metric.G_down, "G_up": q.metric.G_up}),
    # column b holds the adapted components of J(F_b)
    "J": ("almost-complex", lambda q: {"matrix": q.metric.complex_jets.value.T}),
    "theta": ("canonical-form", lambda q: {"matrix": theta_matrix(q.metric)}),
    "connection": ("connection-blocks", _connection),
    "curvature": ("curvature-blocks", _curvature),
    "ricci": ("ricci-traces", _ricci),
    "operators": ("frame-divergence", _operators),
}


def _as_lists(value, name: str):
    """``value`` with every array or number as (nested lists of) floats,
    recursing into dicts; a non-finite number raises EvaluationDomainError
    naming the object."""
    if isinstance(value, dict):
        return {key: _as_lists(v, name) for key, v in value.items()}
    a = np.asarray(value, dtype=float)
    if not np.isfinite(a).all():
        raise EvaluationDomainError(f"object {name!r} has a non-finite value")
    return a.tolist()


def _tensor_objects(structure, params, at, names) -> dict:
    unknown = [name for name in names if name not in TENSORS]
    if unknown:
        raise ManifestError(f"unknown object {unknown[0]!r}; choose from {', '.join(TENSORS)}")
    q = _Query(structure, params, at)
    out = {}
    for name in names:
        anchor, build = TENSORS[name]
        out[name] = {"anchor": anchor, **_as_lists(build(q), name)}
    return out


def _cmd_tensor(args) -> int:
    manifest = load_manifest(args.manifest)
    si = _select([s.label for s in manifest.structures], args.structure, "structure")
    param_labels = [entry["label"] for entry in manifest.document["params"]]
    pi = _select(param_labels, args.params, "params")
    structure = manifest.structures[si]
    params = manifest.params[pi]
    at = _parse_point(args.point, structure.dim)
    if not structure.admissible(at):
        raise ManifestError(
            f"point {args.point!r} is not admissible for structure {structure.label!r}"
        )
    names = [n.strip() for n in args.objects.split(",") if n.strip()]
    if not names:
        raise ManifestError("--objects must name at least one object")
    objects = _tensor_objects(structure, params, at, names)
    document = {
        "meta": {
            "engine_version": __version__,
            "format": "cartanlab-tensor-v1",
            "structure": structure.label,
            "params": param_labels[pi],
            "point": {"x": [float(v) for v in at.x], "p": [float(v) for v in at.p]},
        },
        "objects": objects,
    }
    _emit(lambda fh: fh.write(json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"), args.out)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_tensor(args)
    except ManifestError as exc:
        print(f"manifest error: {exc}", file=sys.stderr)
        return 2
    except CartanLabError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # internal faults must not masquerade as results
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
