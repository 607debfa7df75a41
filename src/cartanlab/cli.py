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

import numpy as np

from . import __version__
from .errors import CartanLabError, ManifestError
from .geometry import PointGeometry, frame_block
from .jets import ChartPoint
from .kahler import BundleMetric, theta_matrix
from .levicivita import CURVATURE_BLOCKS, curvature_closed, lc_closed_form, ricci
from .manifest import Manifest, load_manifest, with_overrides
from .checks import run_suite
from .operators import (
    divergence,
    geodesic_spray,
    laplacian,
    liouville_field,
    operator_context,
)

__all__ = ["main"]

TENSOR_OBJECTS = (
    "g",
    "C",
    "N",
    "B",
    "L",
    "G",
    "J",
    "theta",
    "connection",
    "curvature",
    "ricci",
    "operators",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cartanlab",
        description="Numerical verification of momentum-space Hamiltonian geometry.",
    )
    parser.add_argument("--version", action="version", version=f"cartanlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--manifest", required=True, help="path to a JSON manifest")
    common.add_argument("--seed", type=int, default=None, help="override the manifest seed")
    common.add_argument("--points", type=int, default=None, help="override the sample count")
    common.add_argument("--tol-scale", type=float, default=None, help="scale all tolerances")
    common.add_argument("--out", default=None, help="write the report here instead of stdout")

    sub.add_parser("verify", parents=[common], help="run the full check suite")

    tensor = sub.add_parser("tensor", parents=[common], help="evaluate tensors at one point")
    tensor.add_argument(
        "--point", required=True, help="chart point as 'x1,..,xn;p1,..,pn'"
    )
    tensor.add_argument(
        "--objects",
        required=True,
        help=f"comma-separated object names from {','.join(TENSOR_OBJECTS)}",
    )
    tensor.add_argument("--structure", default=None, help="structure label (default: first)")
    tensor.add_argument("--params", default=None, help="params label (default: first)")
    return parser


def _write_report(report: dict, fh) -> None:
    """The verify report as one JSON document with sorted keys, streamed one
    check record per line ("checks" sorts first).  Each line is one
    ``json.dumps`` call, which runs the C encoder (``indent`` does not)."""
    fh.write('{\n"checks": [')
    for i, record in enumerate(report["checks"]):
        fh.write((",\n" if i else "\n") + json.dumps(record, sort_keys=True))
    rest = ",\n".join(
        f"{json.dumps(k)}: {json.dumps(report[k], sort_keys=True)}" for k in sorted(report) if k != "checks"
    )
    fh.write(f"\n],\n{rest}\n}}\n")


def _emit(write, out_path) -> None:
    """Run ``write(fh)`` on stdout or on the file at ``out_path``."""
    if out_path is None:
        write(sys.stdout)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            write(fh)


def _load(args) -> Manifest:
    m = load_manifest(args.manifest)
    return with_overrides(m, seed=args.seed, count=args.points, tol_scale=args.tol_scale)


def _cmd_verify(args) -> int:
    manifest = _load(args)
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


def _arr(a) -> list:
    return np.asarray(a, dtype=float).tolist()


def _tensor_objects(structure, params, at, names):
    geom = PointGeometry(structure, at)
    out = {}
    metric = None

    def need_metric():
        nonlocal metric
        if metric is None:
            metric = BundleMetric(geom, params)
        return metric

    for name in names:
        if name == "g":
            out[name] = {
                "anchor": "fundamental-tensor",
                "g_up": _arr(geom.g_up),
                "g_down": _arr(geom.g_down),
                "p_up": _arr(geom.p_up),
                "tau": float(geom.tau),
            }
        elif name == "C":
            out[name] = {
                "anchor": "cartan-tensor",
                "C_upupup": _arr(geom.C_uuu),
                "mean_cartan": _arr(geom.I_up),
            }
        elif name == "N":
            out[name] = {"anchor": "nonlinear-connection", "N": _arr(geom.N)}
        elif name == "B":
            out[name] = {"anchor": "berwald-coefficients", "B": _arr(geom.B)}
        elif name == "L":
            out[name] = {
                "anchor": "landsberg",
                "L_uud": _arr(geom.L_uud),
                "mean_landsberg": _arr(geom.J_down),
            }
        elif name == "G":
            m = need_metric()
            out[name] = {
                "anchor": "bundle-metric",
                "G_down": _arr(m.G_down),
                "G_up": _arr(m.G_up),
            }
        elif name == "J":
            # column b holds the adapted components of J(F_b)
            out[name] = {
                "anchor": "almost-complex",
                "matrix": _arr(need_metric().complex_jets.value.T),
            }
        elif name == "theta":
            out[name] = {
                "anchor": "canonical-form",
                "matrix": _arr(theta_matrix(need_metric())),
            }
        elif name == "connection":
            conn = lc_closed_form(structure, at, params, geom=geom, metric=need_metric())
            doc = {"anchor": "connection-blocks", "c_effective": float(params.c_at(geom.tau))}
            for key in ("v_v", "h_v", "v_h", "h_h"):
                doc[key] = {t: _arr(frame_block(conn, key + t)) for t in "hv"}
            out[name] = doc
        elif name == "curvature":
            k = curvature_closed(structure, at, params, geom=geom, metric=need_metric())
            doc = {"anchor": "curvature-blocks"}
            for which in CURVATURE_BLOCKS:
                doc[which] = {t: _arr(frame_block(k, which + t)) for t in "hv"}
            out[name] = doc
        elif name == "ricci":
            rd = ricci(structure, at, params, geom=geom, metric=need_metric())
            out[name] = {
                "anchor": "ricci-traces",
                **{f"Ric_{kinds}": _arr(frame_block(rd.ric, kinds)) for kinds in ("hh", "vv", "hv", "vh")},
                "lambda_hat": float(rd.lambda_hat),
                "defect": float(rd.defect),
            }
        elif name == "operators":
            m = operator_context(structure, at, params, geom=geom, metric=need_metric())
            lap = laplacian(m, lambda q: structure.k2_values(q.x, q.p))
            out[name] = {
                "anchor": "frame-divergence",
                "div_spray": float(divergence(m, geodesic_spray(m))),
                "div_liouville": float(divergence(m, liouville_field(m))),
                "laplacian_k2_direct": float(lap.direct),
                "laplacian_k2_closed": float(lap.closed),
            }
        else:
            raise ManifestError(
                f"unknown object {name!r}; choose from {', '.join(TENSOR_OBJECTS)}"
            )
    return out


def _cmd_tensor(args) -> int:
    manifest = _load(args)
    si = _select([s.label for s in manifest.structures], args.structure, "structure")
    pi = _select(list(manifest.param_labels), args.params, "params")
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
            "params": manifest.param_labels[pi],
            "point": {"x": [float(v) for v in at.x], "p": [float(v) for v in at.p]},
        },
        "objects": objects,
    }
    _emit(lambda fh: fh.write(json.dumps(document, indent=2, sort_keys=True) + "\n"), args.out)
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
