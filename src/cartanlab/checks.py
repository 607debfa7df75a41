"""Check registry and suite runner for the batch verification front end.

Each check is a named, anchored property evaluated per sampled chart
point.  Checks come in two scopes:

* ``structure`` -- properties of one Hamiltonian structure alone
  (fundamental tensors, Berwald calculus);
* ``pair``      -- properties of a structure together with one
  deformation-parameter set (bundle metric, connection, curvature,
  operators).

Points are rejection-sampled per scope from a deterministic seed stream
derived from the manifest seed, so two runs of the same manifest emit
identical reports.  Each record is built once, as the JSON object the
report lists (``check_id``, ``structure``, ``point: {index}``, ``residual``,
``tolerance``, ``pass``).  A per-point evaluation error, a non-finite
residual among them, gives a failing record with ``residual: null`` and an
``error`` naming the exception; it never aborts the suite.  The report
(``cartanlab-report-v2``) keeps each scope's points once, in
``points[tag]``; records refer to them by index.

Applicability gating (resolved empirically; see the formula index):

* Checks marked *matching only* require the structure to carry a known
  constant ``c`` for the shape of its nonlinear-connection curvature and
  the parameter set to use the same ``c``.  These are the ones whose
  closed forms substitute that shape: Koszul agreement, torsion, the two
  horizontal-horizontal curvature blocks, the Einstein checks, the
  Nijenhuis checks, and the spray-divergence identity.
* Everything else is an identity of the coefficient field and runs on
  every structure/params pairing.

Runners compare whole tables over the adapted basis: the Koszul check the
oracle table with the closed connection table, the curvature-block checks
``geometry.frame_block`` slices of the closed and the definition curvature
tables, and the Ricci checks the one Ricci table and its blocks.  All
pair-scope state of a point (the tables, the connection defects and the
operators' tables) is kept on the point's ``BundleMetric``.  A scope runs
point by point, every applicable check whose cap admits the point there,
so its context holds one point's geometry and metric (and the Randers
limit structures).  Records are sorted when the suite ends.

A bound check's tolerance is its category's entry of ``TOLERANCES``
times its spec's ``tol_factor``; no manifest key or command-line option
changes it.  Two checks run in *detection* mode: instead of requiring a
residual below tolerance they require it **above** a floor (a deliberately
broken input must be seen to fail).  Their ``tolerance`` field records the
floor.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Callable, Optional

import numpy as np

from . import __version__
from .berwald import DTensor, berwald_curvature_fd, nonlinear_connection_fd
from .cartan import sample_points
from .errors import CartanLabError, EvaluationDomainError
from .geometry import PointGeometry, frame_block
from .jets import ChartPoint, fd_partial
from .kahler import (
    BundleMetric,
    DeformationParams,
    nijenhuis_table,
    theta_matrix,
    tube_predicate,
)
from .levicivita import (
    connection_defects,
    curvature_closed,
    curvature_defn,
    koszul_oracle,
    lc_closed_form,
    ricci,
    vertical_ricci_obstruction,
)
from .manifest import Manifest, build_structure, drift_vector
from .operators import (
    directional_derivative,
    divergence,
    fd_dln_sqrtg_h,
    geodesic_spray,
    gradient,
    laplacian,
    liouville_field,
    operator_context,
)

__all__ = ["CheckSpec", "REGISTRY", "TOLERANCES", "run_suite"]


class SkipPoint(Exception):
    """Raised by a runner to exclude one point without emitting a record
    (e.g. a perturbed parameter set loses positivity there)."""


@dataclass(frozen=True)
class CheckSpec:
    check_id: str
    anchor: str
    category: str  # tolerance category: a key of TOLERANCES
    scope: str  # "structure" | "pair"
    run: Callable  # (ctx, idx, pt) -> float residual
    tol_factor: float = 1.0
    cap: Optional[int] = None  # max points; None = full sample
    mode: str = "bound"  # "bound": residual <= tol; "exceeds": residual >= floor
    floor: float = 0.0  # detection threshold for "exceeds" mode
    applies: Callable = lambda ctx: True


class CheckContext:
    """Sampled points plus the memoized geometry and metric of the point
    being checked, for one scope."""

    def __init__(self, manifest, structure, config, s_index, params=None, param_label=None, p_index=None):
        self.manifest = manifest
        self.structure = structure
        self.config = config
        self.params = params
        self.param_label = param_label
        self._scope_key = (s_index, 0 if p_index is None else p_index + 1)
        sampling = manifest.sampling
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=sampling.seed, spawn_key=self._scope_key)
        )
        accept = tube_predicate(structure, params) if params is not None else None
        self.points = sample_points(
            structure, sampling.count, rng, sampling.p_norm, accept=accept
        )
        self.memo = {}  # scope-wide state: the Randers limit structures
        # the point being checked, with its geometry and metric
        self._idx, self._geom, self._metric = None, None, None

    @property
    def tag(self) -> str:
        if self.params is None:
            return self.structure.label
        return f"{self.structure.label}|{self.param_label}"

    def rng_for(self, check_id: str) -> np.random.Generator:
        key = self._scope_key + (zlib.crc32(check_id.encode()),)
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.manifest.sampling.seed, spawn_key=key)
        )

    def _memo(self, key, build):
        if key not in self.memo:
            self.memo[key] = build()
        return self.memo[key]

    def geometry(self, idx) -> PointGeometry:
        if idx != self._idx:
            self._idx, self._geom, self._metric = idx, None, None
        if self._geom is None:
            self._geom = PointGeometry(self.structure, self.points[idx])
        return self._geom

    def metric(self, idx) -> BundleMetric:
        geom = self.geometry(idx)
        if self._metric is None:
            self._metric = BundleMetric(geom, self.params)
        return self._metric


# ---------------------------------------------------------------------------
# applicability predicates


def _matching(ctx) -> bool:
    s, p = ctx.structure, ctx.params
    return (
        s.constant_curvature is not None
        and p.c is not None
        and abs(s.constant_curvature - p.c) < 1e-12
    )


def _matching_riemannian(ctx) -> bool:
    return _matching(ctx) and ctx.structure.is_riemannian


def _matching_nonriemannian(ctx) -> bool:
    return _matching(ctx) and not ctx.structure.is_riemannian


def _randers_family(ctx) -> bool:
    return ctx.config is not None and ctx.config.get("family") == "randers"


# ---------------------------------------------------------------------------
# structure-scope runners


def _r_jet_vs_fd(ctx, idx, pt):
    s, chart = ctx.structure, range(2 * pt.n)
    exact = ctx.geometry(idx).k2.derivs(chart).value
    fd = fd_partial(lambda q: s.k2_values(q.x, q.p), pt, chart)
    return float((np.abs(exact - fd) / np.maximum(1.0, np.abs(fd))).max())


def _r_euler(ctx, idx, pt):
    g = ctx.geometry(idx)
    n = pt.n
    lhs = sum(pt.p[i] * g.k2.deriv(n + i).value for i in range(n))
    return abs(lhs - 2.0 * g.k2.value) / max(1.0, abs(g.k2.value))


def _r_metric_reconstruction(ctx, idx, pt):
    g = ctx.geometry(idx)
    return abs(float(pt.p @ g.g_up @ pt.p) - g.k2.value) / max(1.0, abs(g.k2.value))


def _r_metric_homogeneity(ctx, idx, pt):
    g = ctx.geometry(idx)
    dg = g.g_up_jets.derivs(g.pvars).value  # pdot^k g^ij at [i, j, k]
    return float(np.abs(dg @ pt.p).max())


def _r_cartan_symmetry(ctx, idx, pt):
    C = ctx.geometry(idx).C_uuu
    worst = 0.0
    for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
        worst = max(worst, float(np.abs(C - np.transpose(C, perm)).max()))
    return worst


def _r_cartan_transversality(ctx, idx, pt):
    C = ctx.geometry(idx).C_uuu
    return float(np.abs(np.einsum("ijk,k->ij", C, pt.p)).max())


def _r_vertical_metric_derivative(ctx, idx, pt):
    g = ctx.geometry(idx)
    dg = g.g_up_jets.derivs(g.pvars).value
    return float(np.abs(dg + 2.0 * g.C_uuu).max())


def _r_randers_degeneration(ctx, idx, pt):
    def build():
        drift = drift_vector(ctx.config)
        return [build_structure(dict(ctx.config, drift=list(drift * s))) for s in (1e-7, 0.0)]

    eps, zero = ctx._memo(("randers-limit",), build)
    a = eps.k2_values(pt.x, pt.p)
    b = zero.k2_values(pt.x, pt.p)
    return abs(a - b) / max(1.0, abs(b))


def _r_momentum_parallel(ctx, idx, pt):
    g = ctx.geometry(idx)
    pd = DTensor(g, g.p_coord(3), "d")
    return float(np.abs(pd.h_cov().values).max())


def _r_delta_k2(ctx, idx, pt):
    g = ctx.geometry(idx)
    return float(np.abs(g.delta(g.k2).value).max()) / max(1.0, abs(g.k2.value))


def _r_r_transversality(ctx, idx, pt):
    g = ctx.geometry(idx)
    p_up = g.p_up
    return float(np.abs(np.einsum("i,ijk->jk", p_up, g.R_vv)).max())


def _r_metric_delta(ctx, idx, pt):
    g = ctx.geometry(idx)
    return float(np.abs(g.h_cov(g.g_down_jets, "dd").value).max())


def _r_landsberg_h_derivative(ctx, idx, pt):
    g = ctx.geometry(idx)
    gupt = DTensor(g, g.g_up_jets, "uu")
    return float(np.abs(gupt.h_cov().values + 2.0 * g.L_uud).max())


def _r_connection_homogeneity(ctx, idx, pt):
    g = ctx.geometry(idx)
    r1 = np.abs(np.einsum("i,ijk->jk", pt.p, g.B) - g.N).max()
    r2 = np.abs(np.einsum("h,ihjk->ijk", pt.p, g.P_curv)).max()
    return float(max(r1, r2))


def _r_n_fd_oracle(ctx, idx, pt):
    g = ctx.geometry(idx)
    fd = nonlinear_connection_fd(ctx.structure, pt, geom=g)
    return float(np.abs(g.N - fd).max()) / max(1.0, float(np.abs(g.N).max()))


def _r_curvature_fd_oracle(ctx, idx, pt):
    g = ctx.geometry(idx)
    fd = berwald_curvature_fd(ctx.structure, pt, geom=g)
    return float(np.abs(g.R_curv - fd).max()) / max(1.0, float(np.abs(g.R_curv).max()))


def _r_r_contraction(ctx, idx, pt):
    g = ctx.geometry(idx)
    contracted = np.einsum("h,hikj->ijk", pt.p, g.R_curv)
    return float(np.abs(contracted - g.R_vv).max())


# ---------------------------------------------------------------------------
# pair-scope runners: bundle metric algebra


def _r_j_squared(ctx, idx, pt):
    j = ctx.metric(idx).complex_jets.value
    return float(np.abs(j @ j + np.eye(len(j))).max())


def _r_hermitian(ctx, idx, pt):
    # G(J F_a, J F_b) - G(F_a, F_b) over a <= b
    m = ctx.metric(idx)
    j, gram = m.complex_jets.value, m.gram
    a, b = np.triu_indices(len(j))
    return float(np.abs((j @ gram @ j.T - gram)[a, b]).max())


def _r_theta_canonical(ctx, idx, pt):
    m = ctx.metric(idx)
    n = m.n
    eye = np.eye(n)
    zero = np.zeros((n, n))
    canonical = np.block([[zero, -eye], [eye, zero]])
    return float(np.abs(theta_matrix(m) - canonical).max())


def _r_positive_definite(ctx, idx, pt):
    m = ctx.metric(idx)
    low = min(
        float(np.linalg.eigvalsh(m.G_down).min()),
        float(np.linalg.eigvalsh(m.G_up).min()),
    )
    return max(0.0, -low)


def _nijenhuis_worst(m) -> float:
    """Largest |N_J(F_a, F_b)| component over the slot pairs a < b."""
    a, b = np.triu_indices(2 * m.n, 1)
    return float(np.abs(nijenhuis_table(m)[a, b]).max())


def _r_nijenhuis_integrable(ctx, idx, pt):
    return _nijenhuis_worst(ctx.metric(idx))


def _r_nijenhuis_detects(ctx, idx, pt):
    base = ctx.params
    tau = ctx.geometry(idx).tau
    v0 = float(base.v_at(tau))
    perturbed = DeformationParams(alpha=base.alpha, beta=base.beta, v=v0 + 0.1)
    if not tube_predicate(ctx.structure, perturbed)(pt):
        raise SkipPoint
    return _nijenhuis_worst(BundleMetric(ctx.geometry(idx), perturbed))


# ---------------------------------------------------------------------------
# pair-scope runners: Levi-Civita connection and curvature


def _at(fn, ctx, idx, pt):
    """``fn(s, pt, params, geom=, metric=)`` on the point's memoized geometry
    and metric, which keeps whatever ``fn`` derives."""
    return fn(ctx.structure, pt, ctx.params, geom=ctx.geometry(idx), metric=ctx.metric(idx))


def _r_koszul(ctx, idx, pt):
    got = _at(koszul_oracle, ctx, idx, pt)
    return float(np.abs(got - _at(lc_closed_form, ctx, idx, pt)).max())


def _r_torsion(ctx, idx, pt):
    return float(_at(connection_defects, ctx, idx, pt)[0])


def _r_metric_compat(ctx, idx, pt):
    return float(_at(connection_defects, ctx, idx, pt)[1])


def _block_residual(ctx, idx, pt, names):
    """Largest |closed - defn| over the curvature blocks ``names``, each
    slot triple (x, y, z) scaled by max(1, |defn[x, y, z, :]|)."""
    closed = _at(curvature_closed, ctx, idx, pt)
    defn = _at(curvature_defn, ctx, idx, pt)
    scale = np.maximum(1.0, np.abs(defn).max(axis=3))
    rel = np.abs(defn - closed).max(axis=3) / scale
    return max(float(frame_block(rel, which).max()) for which in names)


def _r_blocks_universal(ctx, idx, pt):
    return _block_residual(ctx, idx, pt, ("vv_v", "hv_v", "vv_h", "hv_h"))


def _r_blocks_paired(ctx, idx, pt):
    return _block_residual(ctx, idx, pt, ("hh_h", "hh_v"))


def _r_einstein_forward(ctx, idx, pt):
    rd = _at(ricci, ctx, idx, pt)
    g = ctx.geometry(idx)
    target = ctx.params.c_at(g.tau) * g.n * ctx.params.beta
    return max(abs(rd.lambda_hat - target), rd.defect)


def _r_einstein_defect(ctx, idx, pt):
    return float(_at(ricci, ctx, idx, pt).defect)


def _r_ricci_symmetry(ctx, idx, pt):
    ric = _at(ricci, ctx, idx, pt).ric
    return float(np.abs(frame_block(ric, "hv") - frame_block(ric, "vh").T).max())


def _r_obstruction_identity(ctx, idx, pt):
    res, mean_cartan = _at(vertical_ricci_obstruction, ctx, idx, pt)
    return float(np.abs(res - mean_cartan).max())


# ---------------------------------------------------------------------------
# pair-scope runners: operators


def _r_vertical_divergence(ctx, idx, pt):
    m = _at(operator_context, ctx, idx, pt)
    # div(pdot^i) for each vertical basis field, the v rows of the identity
    return float(np.abs([divergence(m, x) for x in frame_block(np.eye(2 * m.n), "v")]).max())


def _r_liouville_divergence(ctx, idx, pt):
    m = _at(operator_context, ctx, idx, pt)
    return abs(divergence(m, liouville_field(m)))


def _r_spray_divergence(ctx, idx, pt):
    m = _at(operator_context, ctx, idx, pt)
    got = divergence(m, geodesic_spray(m))
    p_up = ctx.geometry(idx).p_up
    ref = float(p_up @ fd_dln_sqrtg_h(m))
    return abs(got - ref)


def _r_gradient_duality(ctx, idx, pt):
    m = _at(operator_context, ctx, idx, pt)
    s = ctx.structure
    fields = [
        lambda q: float(q.x @ q.p),
        lambda q: math.log(s.k2_values(q.x, q.p)),
    ]
    rng = ctx.rng_for("operators.gradient_duality")
    n = ctx.geometry(idx).n
    gram = m.gram
    worst = 0.0
    for f in fields:
        gf = gradient(m, f)
        for _ in range(5):
            x = np.concatenate([rng.normal(size=n), rng.normal(size=n)])  # h, then v
            worst = max(worst, abs(gf @ gram @ x - directional_derivative(m, f, x)))
    return worst


def _field_corpus(s):
    return [
        lambda q: float(q.x[0]),
        lambda q: float(q.p[0]),
        lambda q: float(q.x @ q.p),
        lambda q: s.k2_values(q.x, q.p),
        lambda q: math.log(s.k2_values(q.x, q.p)),
    ]


def _r_laplacian_routes(ctx, idx, pt):
    m = _at(operator_context, ctx, idx, pt)
    worst = 0.0
    for f in _field_corpus(ctx.structure):
        res = laplacian(m, f)
        worst = max(worst, abs(res.difference))
    return worst


def _r_k2_harmonic(ctx, idx, pt):
    m = _at(operator_context, ctx, idx, pt)
    s = ctx.structure
    res = laplacian(m, lambda q: s.k2_values(q.x, q.p))
    return max(abs(res.direct), abs(res.closed))


# ---------------------------------------------------------------------------
# the registry


#: the tolerance of each category: identities on jets alone, one
#: finite-difference layer, two stacked layers
TOLERANCES = {"jet_exact": 1e-9, "fd_single": 1e-5, "fd_double": 1e-3}

REGISTRY = (
    # ---- structure scope
    CheckSpec("jets.jet_vs_fd", "ad-jets", "fd_single", "structure", _r_jet_vs_fd, cap=10),
    CheckSpec("cartan.euler_homogeneity", "hamiltonian-k2", "jet_exact", "structure", _r_euler),
    CheckSpec("cartan.metric_reconstruction", "fundamental-tensor", "jet_exact", "structure", _r_metric_reconstruction),
    CheckSpec("cartan.metric_homogeneity", "fundamental-tensor", "jet_exact", "structure", _r_metric_homogeneity),
    CheckSpec("cartan.cartan_symmetry", "cartan-tensor", "jet_exact", "structure", _r_cartan_symmetry),
    CheckSpec("cartan.cartan_transversality", "cartan-tensor", "jet_exact", "structure", _r_cartan_transversality),
    CheckSpec("cartan.vertical_metric_derivative", "cartan-tensor", "jet_exact", "structure", _r_vertical_metric_derivative),
    CheckSpec("cartan.randers_degeneration", "riemannian-reduction", "fd_single", "structure", _r_randers_degeneration, cap=10, applies=_randers_family),
    CheckSpec("berwald.momentum_parallel", "metric-delta", "jet_exact", "structure", _r_momentum_parallel),
    CheckSpec("berwald.delta_k2", "metric-delta", "jet_exact", "structure", _r_delta_k2),
    CheckSpec("berwald.metric_delta", "metric-delta", "jet_exact", "structure", _r_metric_delta),
    CheckSpec("berwald.r_transversality", "vv-curvature", "jet_exact", "structure", _r_r_transversality),
    CheckSpec("berwald.landsberg_h_derivative", "landsberg", "jet_exact", "structure", _r_landsberg_h_derivative),
    CheckSpec("berwald.connection_homogeneity", "nonlinear-connection", "jet_exact", "structure", _r_connection_homogeneity),
    CheckSpec("berwald.n_fd_oracle", "fd-oracles", "fd_single", "structure", _r_n_fd_oracle, cap=8),
    CheckSpec("berwald.curvature_fd_oracle", "fd-oracles", "fd_single", "structure", _r_curvature_fd_oracle, tol_factor=10.0, cap=6),
    CheckSpec("berwald.r_contraction", "berwald-curvature", "jet_exact", "structure", _r_r_contraction),
    # ---- pair scope: bundle metric algebra
    CheckSpec("kahler.j_squared", "almost-complex", "jet_exact", "pair", _r_j_squared),
    CheckSpec("kahler.hermitian", "almost-complex", "jet_exact", "pair", _r_hermitian),
    CheckSpec("kahler.theta_canonical", "canonical-form", "jet_exact", "pair", _r_theta_canonical),
    CheckSpec("kahler.positive_definite", "bundle-metric", "jet_exact", "pair", _r_positive_definite),
    CheckSpec("kahler.nijenhuis_integrable", "nijenhuis", "jet_exact", "pair", _r_nijenhuis_integrable, cap=6, applies=_matching),
    CheckSpec("kahler.nijenhuis_detects_mismatch", "nijenhuis", "fd_single", "pair", _r_nijenhuis_detects, cap=4, mode="exceeds", floor=1e-2, applies=_matching),
    # ---- pair scope: Levi-Civita
    CheckSpec("levicivita.koszul_agreement", "koszul", "fd_single", "pair", _r_koszul, tol_factor=10.0, cap=4, applies=_matching),
    CheckSpec("levicivita.torsion_free", "connection-blocks", "jet_exact", "pair", _r_torsion, tol_factor=10.0, cap=8, applies=_matching),
    CheckSpec("levicivita.metric_compatible", "connection-blocks", "jet_exact", "pair", _r_metric_compat, tol_factor=10.0, cap=8),
    CheckSpec("levicivita.curvature_blocks_universal", "curvature-blocks", "jet_exact", "pair", _r_blocks_universal, cap=3),
    CheckSpec("levicivita.curvature_blocks_paired", "curvature-blocks", "jet_exact", "pair", _r_blocks_paired, cap=3, applies=_matching),
    CheckSpec("levicivita.einstein_forward", "einstein-forward", "jet_exact", "pair", _r_einstein_forward, cap=5, applies=_matching_riemannian),
    CheckSpec("levicivita.einstein_defect_nonriemannian", "einstein-obstruction", "fd_double", "pair", _r_einstein_defect, cap=4, mode="exceeds", floor=1e-2, applies=_matching_nonriemannian),
    CheckSpec("levicivita.einstein_obstruction_identity", "einstein-obstruction", "jet_exact", "pair", _r_obstruction_identity, tol_factor=10.0, cap=5),
    CheckSpec("levicivita.ricci_mixed_symmetry", "ricci-traces", "jet_exact", "pair", _r_ricci_symmetry, tol_factor=10.0, cap=5),
    # ---- pair scope: operators
    CheckSpec("operators.vertical_divergence", "frame-divergence", "jet_exact", "pair", _r_vertical_divergence, cap=6),
    CheckSpec("operators.liouville_divergence", "frame-divergence", "jet_exact", "pair", _r_liouville_divergence, cap=6),
    CheckSpec("operators.spray_divergence", "spray-divergence", "fd_single", "pair", _r_spray_divergence, cap=4, applies=_matching),
    CheckSpec("operators.gradient_duality", "gradient-duality", "jet_exact", "pair", _r_gradient_duality, tol_factor=10.0, cap=4),
    CheckSpec("operators.laplacian_routes", "laplacian-closed", "fd_single", "pair", _r_laplacian_routes, tol_factor=10.0, cap=3),
    CheckSpec("operators.k2_harmonic", "laplacian-closed", "fd_single", "pair", _r_k2_harmonic, tol_factor=0.1, cap=3),
)


def _record(spec: CheckSpec, ctx: CheckContext, idx: int, pt: ChartPoint) -> Optional[dict]:
    """The report's record of one check at one sampled point, or None if
    the runner skips the point."""
    tol = TOLERANCES[spec.category] * spec.tol_factor if spec.mode == "bound" else spec.floor
    record = {"check_id": spec.check_id, "structure": ctx.tag, "point": {"index": idx}, "tolerance": tol}
    try:
        residual = float(spec.run(ctx, idx, pt))
        if not math.isfinite(residual):
            raise EvaluationDomainError(f"non-finite residual {residual}")
    except SkipPoint:
        return None
    except CartanLabError as exc:
        residual, record["error"] = None, f"{type(exc).__name__}: {exc}"
    record["residual"] = residual
    record["pass"] = residual is not None and (residual <= tol if spec.mode == "bound" else residual >= tol)
    return record


def _margin(spec: CheckSpec, record: dict) -> float:
    """residual / tolerance (bound) or floor / residual (detection): a
    record passes exactly when its margin is at most 1.  A detection record
    with residual 0 has an unbounded margin, which `_by_check` writes as
    null."""
    residual, tolerance = record["residual"], record["tolerance"]
    if spec.mode == "bound":
        return residual / tolerance
    return tolerance / residual if residual > 0.0 else math.inf


def _by_check(selected, records) -> dict:
    """Per check id of the sorted ``records``: anchor, record counts, and
    the residual and margin of the record closest to failing (or furthest
    past it); an unbounded margin is null beside its residual of 0."""
    specs = {spec.check_id: spec for spec in selected}
    out = {}
    for cid, group in groupby(records, key=itemgetter("check_id")):
        mine = list(group)
        scored = [(_margin(specs[cid], r), r["residual"]) for r in mine if r["residual"] is not None]
        worst = max(scored, key=lambda mr: mr[0], default=(None, None))
        out[cid] = {
            "anchor": specs[cid].anchor,
            "records": len(mine),
            "failed": sum(1 for r in mine if not r["pass"]),
            "errored": len(mine) - len(scored),
            "worst_residual": worst[1],
            "worst_margin": None if worst[0] == math.inf else worst[0],
        }
    return out


def run_suite(manifest: Manifest, only=None) -> dict:
    """Execute every applicable check of the registry over the manifest's
    structures, params, and sampling; return the report document.

    ``only`` optionally restricts the run to an iterable of check ids
    (used by targeted harnesses; the CLI always runs the full registry).
    """
    selected = REGISTRY if only is None else tuple(spec for spec in REGISTRY if spec.check_id in set(only))
    records, points = [], {}

    def run_scope(ctx, scope):
        # point by point, so the context holds one point's geometry and metric
        specs = [spec for spec in selected if spec.scope == scope and spec.applies(ctx)]
        got = []
        for idx, pt in enumerate(ctx.points):
            for spec in specs:
                if spec.cap is None or idx < spec.cap:
                    rec = _record(spec, ctx, idx, pt)
                    if rec is not None:
                        got.append(rec)
        if got:
            points[ctx.tag] = [{"x": pt.x.tolist(), "p": pt.p.tolist()} for pt in ctx.points]
            records.extend(got)

    for si, (structure, config) in enumerate(zip(manifest.structures, manifest.structure_configs)):
        run_scope(CheckContext(manifest, structure, config, si), "structure")
        if not any(spec.scope == "pair" for spec in selected):
            continue
        for pi, (params, plabel) in enumerate(zip(manifest.params, manifest.param_labels)):
            run_scope(CheckContext(manifest, structure, config, si, params, plabel, pi), "pair")
    records.sort(key=lambda r: (r["check_id"], r["structure"], r["point"]["index"]))
    passed = sum(1 for r in records if r["pass"])
    return {
        "summary": {
            "total": len(records),
            "passed": passed,
            "failed": len(records) - passed,
            "by_check": _by_check(selected, records),
        },
        "checks": records,
        "points": points,
        "meta": {
            "engine_version": __version__,
            "format": "cartanlab-report-v2",
            "manifest": manifest.echo,
        },
    }
