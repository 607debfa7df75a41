"""Connection, curvature, and Einstein analysis of the bundle metric."""
import itertools
import json
from types import SimpleNamespace

import numpy as np
import pytest

from cartanlab import checks, geometry, levicivita
from cartanlab.cartan import conformal_structure, flat_structure, randers_dual
from cartanlab.checks import TOLERANCES, run_suite
from cartanlab.errors import EvaluationDomainError, ValenceError
from cartanlab.geometry import PointGeometry, frame_block, slot_index
from cartanlab.jets import Jet, fd_partial
from cartanlab.kahler import BundleMetric, DeformationParams, tube_predicate
from cartanlab.levicivita import (
    CURVATURE_BLOCKS,
    connection_defects,
    curvature_closed,
    curvature_context,
    curvature_defn,
    koszul_oracle,
    lc_closed_form,
    ricci,
    vertical_ricci_obstruction,
)
from cartanlab.manifest import parse_manifest
from cartanlab.operators import operator_context

from conftest import general_randers, pt

# structures paired with deformation parameters whose effective constant
# matches the horizontal curvature of the structure (the domain on which the
# closed forms are the actual Levi-Civita connection)
def _matching_cases(n=2):
    return [
        (flat_structure(n), DeformationParams(c=0.0)),
        (conformal_structure(n, -1.0), DeformationParams(c=-1.0)),
        (conformal_structure(n, 1.0), DeformationParams(c=1.0)),
        (randers_dual(n=n), DeformationParams(c=0.0)),
        (conformal_structure(n, -1.0), DeformationParams(alpha=1.5, beta=0.7, c=-1.0)),
    ]


def _sample_points(s, params, n, count, seed=0):
    """Seeded chart points inside the structure box and the metric gauge."""
    rng = np.random.default_rng(seed)
    accept = tube_predicate(s, params)
    out = []
    guard = 0
    while len(out) < count and guard < 400:
        guard += 1
        x = rng.uniform(-0.4, 0.4, n) * s.x_box
        p = rng.uniform(-1.0, 1.0, n)
        nrm = np.linalg.norm(p)
        if nrm < 0.3:
            continue
        p *= rng.uniform(0.5, 1.2) / nrm
        cand = pt(x, p)
        if s.admissible is not None and not s.admissible(cand):
            continue
        if not accept(cand):
            continue
        out.append(cand)
    assert len(out) == count, "could not sample enough admissible points"
    return out


def _slots(n):
    return [("h", i) for i in range(n)] + [("v", i) for i in range(n)]


# ---------------------------------------------------------------------------
# connection


def test_flat_connection_and_curvature_vanish():
    s = flat_structure(2)
    params = DeformationParams(c=0.0)
    at = pt([0.3, -0.2], [0.8, 1.1])
    assert np.abs(lc_closed_form(s, at, params)).max() == 0.0
    assert np.abs(curvature_closed(s, at, params)).max() == 0.0
    rd = ricci(s, at, params)
    assert rd.lambda_hat == 0.0
    assert rd.defect == 0.0


def test_riemannian_vertical_vertical_connection():
    # on a Riemannian dual the Cartan and Landsberg tensors vanish, so
    # nabla_{pdot^i} pdot^j keeps only the metric-deformation term
    s = conformal_structure(2, -1.0)
    params = DeformationParams(c=-1.0)
    for at in _sample_points(s, params, 2, 3):
        geom = PointGeometry(s, at)
        metric = BundleMetric(geom, params)
        conn = lc_closed_form(s, at, params, metric)
        c = params.c_at(geom.tau)
        beta = params.beta
        want = c * beta * np.einsum("ij,s->ijs", metric.G_up, at.p)
        assert np.abs(frame_block(conn, "vvh")).max() <= 1e-12
        assert np.abs(frame_block(conn, "vvv") - want).max() <= 1e-10


def test_closed_form_matches_koszul():
    for s, params in _matching_cases(2):
        for at in _sample_points(s, params, 2, 2):
            geom = PointGeometry(s, at)
            metric = BundleMetric(geom, params)
            conn = lc_closed_form(s, at, params, metric)
            got = koszul_oracle(s, at, params, metric=metric)
            worst = np.abs(got - conn).max()
            assert worst <= 1e-4, f"{s.label}: koszul mismatch {worst}"


def test_koszul_horizontal_horizontal_vertical_spot():
    # vertical part of nabla_{delta_i} delta_j on a Riemannian dual is the
    # pure deformation term c beta G_js p_i
    s = conformal_structure(2, 1.0)
    params = DeformationParams(c=1.0)
    at = pt([0.2, 0.1], [0.35, 0.2])
    geom = PointGeometry(s, at)
    metric = BundleMetric(geom, params)
    c = params.c_at(geom.tau)
    got = koszul_oracle(s, at, params, metric=metric)[:2, :2, 2:]
    want = c * params.beta * np.einsum("js,i->ijs", metric.G_down, at.p)
    assert np.abs(got - want).max() <= 1e-6


def test_torsion_free_and_metric_compatible():
    for s, params in _matching_cases(2):
        for at in _sample_points(s, params, 2, 2, seed=1):
            torsion, compat = connection_defects(s, at, params)
            assert torsion <= 1e-4, f"{s.label}: torsion {torsion}"
            assert compat <= 1e-4, f"{s.label}: nabla G {compat}"


# ---------------------------------------------------------------------------
# curvature blocks vs the definition oracle


def _block_residuals(s, at, params, metric, names=CURVATURE_BLOCKS) -> dict:
    """Per named block: max |defn - closed| / max(1, max |closed block|)."""
    closed = curvature_closed(s, at, params, metric=metric)
    defn = curvature_defn(s, at, params, metric=metric)
    out = {}
    for which in names:
        blk = frame_block(closed, which)
        out[which] = np.abs(frame_block(defn, which) - blk).max() / max(np.abs(blk).max(), 1.0)
    return out


def test_curvature_blocks_match_definition():
    for s, params in _matching_cases(2):
        for at in _sample_points(s, params, 2, 2, seed=2):
            metric = BundleMetric(PointGeometry(s, at), params)
            for which, rel in _block_residuals(s, at, params, metric).items():
                assert rel <= 1e-3, f"{s.label} {which}: {rel}"


def test_curvature_blocks_match_definition_3d():
    s = conformal_structure(3, -1.0)
    params = DeformationParams(c=-1.0)
    at = pt([0.2, -0.1, 0.15], [0.8, 0.5, -0.3])
    metric = BundleMetric(PointGeometry(s, at), params)
    for which, rel in _block_residuals(s, at, params, metric).items():
        assert rel <= 1e-3, which


def test_universal_blocks_on_curved_randers():
    # these four blocks are identities of the coefficient field for any
    # structure; the curved Randers base turns on the Landsberg tensor and
    # the momentum derivative of the Berwald coefficients, which no
    # constant-curvature or locally Minkowski structure exercises
    s = general_randers()
    for params in (DeformationParams(c=0.0), DeformationParams(alpha=1.3, beta=0.8, c=0.0)):
        for at in _sample_points(s, params, 2, 2, seed=3):
            geom = PointGeometry(s, at)
            assert np.abs(geom.L_uuu).max() > 1e-4  # Landsberg really active
            metric = BundleMetric(geom, params)
            universal = ("vv_v", "hv_v", "vv_h", "hv_h")
            for which, rel in _block_residuals(s, at, params, metric, universal).items():
                assert rel <= 1e-3, f"{which}: {rel}"


def test_curvature_defn_riemannian_reductions():
    # K(delta_i, delta_j) delta_k = c beta (G_kj d^s_i - G_ki d^s_j) delta_s
    s = conformal_structure(2, 1.0)
    params = DeformationParams(c=1.0)
    at = pt([0.2, 0.1], [0.35, 0.2])
    geom = PointGeometry(s, at)
    metric = BundleMetric(geom, params)
    c = params.c_at(geom.tau)
    eye = np.eye(2)
    defn = curvature_defn(s, at, params, metric=metric)
    want = c * params.beta * (
        np.einsum("kj,si->ijks", metric.G_down, eye) - np.einsum("ki,sj->ijks", metric.G_down, eye)
    )
    assert np.abs(frame_block(defn, "hh_hh") - want).max() <= 1e-4
    assert np.abs(frame_block(defn, "hh_hv")).max() <= 1e-4
    # K(pdot^i, delta_j) delta_k = c beta G_sk d^i_j pdot^s, so by antisymmetry
    # in the pair K(delta_i, pdot^j) delta_k = -c beta G_sk d^i_j pdot^s
    s = conformal_structure(2, -1.0)
    params = DeformationParams(c=-1.0)
    at = pt([0.25, -0.1], [0.9, 0.55])
    geom = PointGeometry(s, at)
    metric = BundleMetric(geom, params)
    c = params.c_at(geom.tau)
    defn = curvature_defn(s, at, params, metric=metric)
    want = -c * params.beta * np.einsum("sk,ij->ijks", metric.G_down, np.eye(2))
    assert np.abs(frame_block(defn, "hv_hv") - want).max() <= 1e-4
    assert np.abs(frame_block(defn, "hv_hh")).max() <= 1e-4


def test_closed_block_riemannian_reductions():
    s = conformal_structure(2, -1.0)
    params = DeformationParams(c=-1.0)
    at = pt([0.25, -0.1], [0.9, 0.55])
    geom = PointGeometry(s, at)
    metric = BundleMetric(geom, params)
    c = params.c_at(geom.tau)
    b = params.beta
    eye = np.eye(2)
    Gu, Gd = metric.G_up, metric.G_down
    k = curvature_closed(s, at, params, metric=metric)
    want_vv_v = c * b * (
        np.einsum("jk,ih->ijkh", Gu, eye) - np.einsum("ik,jh->ijkh", Gu, eye)
    )
    assert np.abs(frame_block(k, "vv_vv") - want_vv_v).max() <= 1e-10
    assert np.abs(frame_block(k, "vv_vh")).max() <= 1e-10
    want_hv_v = c * b * np.einsum("kh,ji->ijkh", Gu, eye)
    assert np.abs(frame_block(k, "hv_vh") - want_hv_v).max() <= 1e-10
    want_vv_h = c * b * (
        np.einsum("ih,jk->ijkh", Gu, eye) - np.einsum("jh,ik->ijkh", Gu, eye)
    )
    assert np.abs(frame_block(k, "vv_hh") - want_vv_h).max() <= 1e-10
    assert np.abs(frame_block(k, "vv_hv")).max() <= 1e-10
    # K(pdot^i, delta_j) delta_k = c beta G_sk d^i_j pdot^s, i.e. the
    # (h,v)-ordered block with its first two slots swapped and negated
    want_hv_h_v = -c * b * np.einsum("hk,ji->jikh", Gd, eye)
    assert np.abs(frame_block(k, "hv_hv") - want_hv_h_v).max() <= 1e-10
    assert np.abs(frame_block(k, "hv_hh")).max() <= 1e-10


def test_curvature_antisymmetry_in_first_pair():
    s = general_randers()
    params = DeformationParams(c=0.0)
    at = pt([0.25, -0.1], [0.9, 0.55])
    k = curvature_closed(s, at, params)
    for which in ("vv_v", "vv_h", "hh_h", "hh_v"):
        blk = frame_block(k, which)
        assert np.abs(blk + np.einsum("ijkh->jikh", blk)).max() <= 1e-12
    # the (v, h, .) kinds are the (h, v, .) blocks with the pair swapped
    assert np.array_equal(frame_block(k, "vh"), -frame_block(k, "hv").transpose(1, 0, 2, 3))


# ---------------------------------------------------------------------------
# Ricci and Einstein


def test_einstein_forward_constant_curvature():
    cases = [
        (conformal_structure(2, -1.0), DeformationParams(c=-1.0), 2),
        (conformal_structure(2, 1.0), DeformationParams(c=1.0), 2),
        (conformal_structure(2, -1.0), DeformationParams(alpha=1.5, beta=0.7, c=-1.0), 2),
        (conformal_structure(3, -1.0), DeformationParams(c=-1.0), 3),
    ]
    for s, params, n in cases:
        want = params.c_at(0.0) * n * params.beta
        for at in _sample_points(s, params, n, 2, seed=4):
            rd = ricci(s, at, params)
            assert abs(rd.lambda_hat - want) <= 1e-3, f"{s.label}: {rd.lambda_hat}"
            assert rd.defect <= 1e-3, f"{s.label}: defect {rd.defect}"


def test_einstein_lambda_is_minus_two_for_unit_hyperbolic():
    s = conformal_structure(2, -1.0)
    params = DeformationParams(c=-1.0)
    at = pt([0.25, -0.1], [0.9, 0.55])
    rd = ricci(s, at, params)
    assert abs(rd.lambda_hat + 2.0) <= 1e-3
    assert rd.defect <= 1e-3


def test_mixed_ricci_and_transpose_symmetry():
    s = conformal_structure(2, -1.0)
    params = DeformationParams(c=-1.0)
    at = pt([0.25, -0.1], [0.9, 0.55])
    rd = ricci(s, at, params)
    assert np.abs(frame_block(rd.ric, "hv")).max() <= 1e-4
    assert np.abs(frame_block(rd.ric, "vh")).max() <= 1e-4
    # the transpose relation also holds where the mixed blocks do not vanish
    s = general_randers()
    params = DeformationParams(c=0.0)
    at = pt([0.25, -0.1], [0.9, 0.55])
    rd = ricci(s, at, params)
    assert np.abs(frame_block(rd.ric, "hv")).max() > 1e-3
    assert np.abs(frame_block(rd.ric, "hv") - frame_block(rd.ric, "vh").T).max() <= 1e-10


def test_einstein_obstruction_on_randers():
    s = randers_dual(n=2)
    params = DeformationParams(c=0.0)
    for at in _sample_points(s, params, 2, 3, seed=5):
        rd = ricci(s, at, params)
        assert rd.defect >= 1e-2, f"defect {rd.defect}"
        residual, mean_cartan = vertical_ricci_obstruction(s, at, params)
        assert np.abs(mean_cartan).max() >= 1e-2
        assert np.abs(residual - mean_cartan).max() <= 1e-3


def test_distribution_geodesy():
    # horizontal part of nabla_{pdot^i} pdot^j is beta^2 L^{ijs}: zero
    # whenever the Landsberg tensor vanishes, nonzero on the curved Randers
    s = randers_dual(n=2)
    params = DeformationParams(c=0.0)
    at = pt([0.3, -0.2], [0.8, 1.1])
    conn = lc_closed_form(s, at, params)
    assert np.abs(frame_block(conn, "vvh")).max() <= 1e-12
    s = general_randers()
    at = pt([0.25, -0.1], [0.9, 0.55])
    geom = PointGeometry(s, at)
    conn = lc_closed_form(s, at, params, BundleMetric(geom, params))
    assert np.abs(frame_block(conn, "vvh") - params.beta**2 * geom.L_uuu).max() <= 1e-12
    assert np.abs(frame_block(conn, "vvh")).max() > 1e-6
    # vertical part of nabla_{delta_i} delta_j contracted with p^j equals
    # c p_i p_s (1 - 2 c beta^2 tau): never identically zero when c != 0
    s = conformal_structure(2, -1.0)
    params = DeformationParams(c=-1.0)
    at = pt([0.25, -0.1], [0.9, 0.55])
    geom = PointGeometry(s, at)
    conn = lc_closed_form(s, at, params, BundleMetric(geom, params))
    p_up = geom.p_up_jets.value
    got = np.einsum("ijs,j->is", frame_block(conn, "hhv"), p_up)
    c = params.c_at(geom.tau)
    want = c * np.outer(at.p, at.p) * (1.0 - 2.0 * c * params.beta**2 * geom.tau)
    assert np.abs(got - want).max() <= 1e-10
    assert np.abs(got).max() > 1e-6


# ---------------------------------------------------------------------------
# a point's pair-scope state is its metric


PAIR_ROUTES = (
    lc_closed_form, koszul_oracle, connection_defects, curvature_closed, curvature_defn,
    curvature_context, ricci, vertical_ricci_obstruction, operator_context,
)


@pytest.mark.parametrize("route", PAIR_ROUTES, ids=lambda f: f.__name__)
def test_a_metric_built_for_other_arguments_is_refused(route):
    # the c = -1 conformal dual with params c = +1: a metric built for
    # c = -1 would give the c = -1 connection table (1.39 off the c = +1
    # one) and lambda_hat = -2.0 where 1.387 is right
    s = conformal_structure(2, -1.0)
    at = pt([0.1, -0.2], [0.6, 0.3])
    own = DeformationParams(c=-1.0)
    metric = BundleMetric(PointGeometry(s, at), own)
    with pytest.raises(ValueError, match="params"):
        route(s, at, DeformationParams(c=1.0), metric)
    with pytest.raises(ValueError, match="built at"):
        route(s, pt([0.1, -0.2], [0.6, 0.31]), own, metric)
    with pytest.raises(ValueError, match="structure"):
        route(conformal_structure(2, -1.0), at, own, metric)
    route(s, at, own, metric)  # its own arguments


def test_each_route_builds_the_metric_of_its_arguments():
    s = conformal_structure(2, -1.0)
    at = pt([0.1, -0.2], [0.6, 0.3])
    plus, minus = DeformationParams(c=1.0), DeformationParams(c=-1.0)
    assert np.abs(lc_closed_form(s, at, plus) - lc_closed_form(s, at, minus)).max() > 1.39
    assert abs(ricci(s, at, plus).lambda_hat - 1.3866) <= 1e-4
    assert ricci(s, at, minus).lambda_hat == pytest.approx(-2.0, abs=1e-12)


# ---------------------------------------------------------------------------
# per-point tables: built once, reused for every slot, and changing no number


@pytest.mark.parametrize("n", [2, 3])
def test_koszul_tables_reused_match_fresh(n):
    s = conformal_structure(n, -1.0)
    params = DeformationParams(c=-1.0)
    at = _sample_points(s, params, n, 1, seed=6)[0]
    geom = PointGeometry(s, at)
    shared = BundleMetric(geom, params)
    reused = koszul_oracle(s, at, params, metric=shared)
    assert not reused.flags.writeable
    assert koszul_oracle(s, at, params, metric=shared) is reused
    fresh = koszul_oracle(s, at, params, metric=BundleMetric(geom, params))
    assert np.array_equal(reused, fresh)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("first", ["koszul", "definition"])
def test_koszul_and_definition_share_one_evaluation_per_shifted_point(n, first, monkeypatch):
    # the Koszul oracle evaluates its stencil over all 2n chart variables
    # as one batched order-2 geometry, one K^2 evaluation for the whole
    # stencil; the definition route reads the connection jet the point
    # already holds and evaluates none; and whichever asks first, the
    # tables equal those each oracle gets alone
    s = conformal_structure(n, -1.0)
    params = DeformationParams(c=-1.0)
    at = _sample_points(s, params, n, 1, seed=8)[0]
    geom = PointGeometry(s, at)

    def tables(metric):
        if first == "koszul":
            k = koszul_oracle(s, at, params, metric=metric)
            return k, curvature_context(s, at, params, metric=metric)
        d = curvature_context(s, at, params, metric=metric)
        return koszul_oracle(s, at, params, metric=metric), d

    alone = (
        koszul_oracle(s, at, params, metric=BundleMetric(geom, params)),
        curvature_context(s, at, params, metric=BundleMetric(geom, params)),
    )
    built = []
    geom_init = geometry.PointGeometry.__init__

    def counted_geom(self, structure, at, order=5):
        built.append(order)
        geom_init(self, structure, at, order)

    monkeypatch.setattr(geometry.PointGeometry, "__init__", counted_geom)
    metric = BundleMetric(geom, params)
    shared = tables(metric)
    assert built == [2]
    assert all(np.array_equal(got, want) for got, want in zip(shared, alone))
    assert set(metric.derived) == {"gram_partials", "koszul", "connection", "defn"}
    # the Gram partials are one read-only array on the metric
    partials = metric.derived["gram_partials"]
    assert type(partials) is np.ndarray and partials.shape == (2 * n, 2 * n, 2 * n)
    assert not partials.flags.writeable


# ---------------------------------------------------------------------------
# exact partials against finite-difference partials: the connection's
# partials of the definition route, and the Koszul oracle's metric partials


_FD_CASES = [(conformal_structure(n, -1.0), DeformationParams(c=-1.0)) for n in (2, 3, 4)] + [
    (general_randers(3), DeformationParams(alpha=1.3, beta=0.8, c=0.0)),
    # a profile that varies with tau, so each stencil point has its own v
    (conformal_structure(3, -1.0), DeformationParams(v="0.4 + 0.3*tau")),
]
_FD_IDS = [f"{s.label}|{params.describe()}" for s, params in _FD_CASES]


@pytest.mark.parametrize("s, params", _FD_CASES, ids=_FD_IDS)
def test_connection_partials_match_finite_differences(s, params):
    n = s.dim
    at = _sample_points(s, params, n, 1, seed=40 + n)[0]
    geom = PointGeometry(s, at)
    metric = BundleMetric(geom, params)
    exact = geometry.chart_partials(levicivita._connection(metric))
    # an order-4 geometry keeps the values of the connection table
    fd = fd_partial(
        lambda q: lc_closed_form(s, q, params, metric=BundleMetric(PointGeometry(s, q, 4), params)),
        at,
        range(2 * n),
    )
    assert exact.shape == fd.shape == (2 * n,) + (2 * n,) * 3
    assert np.abs(exact - fd).max() <= 1e-9


@pytest.mark.parametrize("s, params", _FD_CASES, ids=_FD_IDS)
def test_koszul_oracle_matches_the_koszul_table_from_metric_jets(s, params):
    n = s.dim
    at = _sample_points(s, params, n, 1, seed=50 + n)[0]
    geom = PointGeometry(s, at)
    metric = BundleMetric(geom, params)
    # exact F_a(G(F_b, F_c)) from the first partials of the metric's jets
    dG = metric.gram_derivatives
    gram = metric.gram
    bG = geom.basis_brackets @ gram
    rhs = dG + np.einsum("yxz->xyz", dG) - np.einsum("zxy->xyz", dG)
    rhs += bG - np.einsum("xzy->xyz", bG) - np.einsum("yzx->xyz", bG)
    exact = np.einsum("ab,xyb->xya", np.linalg.inv(gram), 0.5 * rhs)
    fd = koszul_oracle(s, at, params, metric=metric)
    assert np.abs(exact - fd).max() <= 1e-9


def test_curvature_ingredients_shared_match_fresh():
    s = general_randers()
    params = DeformationParams(alpha=1.3, beta=0.8, c=0.0)
    at = pt([0.25, -0.1], [0.9, 0.55])
    geom = PointGeometry(s, at)
    shared = BundleMetric(geom, params)
    got = curvature_closed(s, at, params, metric=shared)
    want = curvature_closed(s, at, params, metric=BundleMetric(geom, params))
    assert np.array_equal(got, want)
    got = ricci(s, at, params, metric=shared)
    want = ricci(s, at, params, metric=BundleMetric(geom, params))
    assert np.array_equal(got.ric, want.ric)
    assert (got.lambda_hat, got.defect) == (want.lambda_hat, want.defect)
    res, mean = vertical_ricci_obstruction(s, at, params, metric=shared)
    res0, mean0 = vertical_ricci_obstruction(
        s, at, params, metric=BundleMetric(geom, params)
    )
    assert np.array_equal(res, res0) and np.array_equal(mean, mean0)


def test_each_ingredient_built_once_per_point(monkeypatch):
    counts = {"bracket_tables": 0, "blocks": 0, "ricci": 0}
    brackets = geometry.lie_brackets
    for name, key in (("_closed_blocks", "blocks"), ("_ricci_data", "ricci")):
        def counted(*args, _build=getattr(levicivita, name), _key=key):
            counts[_key] += 1
            return _build(*args)

        monkeypatch.setattr(levicivita, name, counted)

    def counted_brackets(*args):
        counts["bracket_tables"] += 1
        return brackets(*args)

    monkeypatch.setattr(geometry, "lie_brackets", counted_brackets)
    n, points = 2, 2
    manifest = parse_manifest(json.dumps({
        "structures": [{"family": "riemannian_conformal", "n": n, "c": -1.0}],
        "params": [{"label": "hyperbolic", "alpha": 1.0, "beta": 1.0, "c": -1.0}],
        "sampling": {"seed": 0, "count": points, "p_norm": [0.5, 1.5]},
    }))
    only = (
        "levicivita.koszul_agreement",
        "levicivita.torsion_free",
        "levicivita.curvature_blocks_universal",
        "levicivita.curvature_blocks_paired",
        "levicivita.einstein_obstruction_identity",
        "levicivita.ricci_mixed_symmetry",
    )
    report = run_suite(manifest, only=only)
    assert set(report["summary"].pop("by_check")) == set(only)
    assert report["summary"] == {"total": len(only) * points, "passed": len(only) * points, "failed": 0}
    assert counts == {
        "bracket_tables": points,
        "blocks": points,
        "ricci": points,
    }


def test_cached_koszul_tables_still_detect_mismatch():
    # structure curvature +1 against params tuned for -1: the closed form is
    # not the Levi-Civita connection there, and the Koszul oracle must say so
    # just as loudly from cached tables as from a first call
    s = conformal_structure(2, 1.0)
    params = DeformationParams(c=-1.0)
    at = _sample_points(s, params, 2, 1, seed=7)[0]
    geom = PointGeometry(s, at)
    metric = BundleMetric(geom, params)
    conn = lc_closed_form(s, at, params, metric)
    first = koszul_oracle(s, at, params, metric=metric)
    assert metric.derived["koszul"] is first
    got = koszul_oracle(s, at, params, metric=metric)
    worst = np.abs(got - conn).max()
    # measured 0.481 here, 4.8e3 times the koszul_agreement tolerance of 1e-4
    assert worst >= 0.4, f"mismatch only {worst}"


@pytest.mark.parametrize("n", [2, 3])
def test_planted_connection_defect_seen_for_every_slot_pair(n, monkeypatch):
    # 1e-6 added to one entry of the closed table, nabla_{F_a} F_b gaining
    # 1e-6 F_b, must reach the torsion, compatibility and Koszul residuals for
    # every ordered slot pair: a mask or transpose slip in the whole-table
    # maxima would drop a pair.  Torsion is antisymmetric, so it cannot see
    # a pair with a == b.  The table is kept on the metric, so each plant
    # gets a fresh one.
    s = conformal_structure(n, -1.0)
    params = DeformationParams(c=-1.0)
    at = _sample_points(s, params, n, 1, seed=5)[0]
    geom = PointGeometry(s, at)
    state = {}
    ctx = SimpleNamespace(
        structure=s,
        params=params,
        geometry=lambda idx: geom,
        metric=lambda idx: state["metric"],
    )
    clean = levicivita._connection_jet

    def plant(m):
        jet = clean(m)
        a, b = state["pair"]
        coeffs = jet.c.copy()
        coeffs[a, b, b, 0] += 1e-6
        return Jet(jet.nvars, jet.order, coeffs)

    monkeypatch.setattr(levicivita, "_connection_jet", plant)
    for a, b in itertools.product(range(2 * n), repeat=2):
        state["pair"], state["metric"] = (a, b), BundleMetric(geom, params)
        if a != b:
            assert checks._r_torsion(ctx, 0, at) >= 5e-7, (a, b)
        assert checks._r_metric_compat(ctx, 0, at) >= 5e-7, (a, b)
        assert checks._r_koszul(ctx, 0, at) >= 5e-7, (a, b)


def test_planted_curvature_defect_seen_for_every_slot_triple(monkeypatch):
    # 1e-6 added to one entry of the closed curvature table must raise the
    # block residual of the one block that holds it, and of the check that
    # reads that block, for every slot triple of the six blocks: a kind or
    # slicing slip that drops a triple would leave it at the clean value.
    # The definition table stays on the metric; each plant drops the
    # closed table kept there.
    n = 2
    s = conformal_structure(n, -1.0)
    params = DeformationParams(c=-1.0)
    at = _sample_points(s, params, n, 1, seed=5)[0]
    geom = PointGeometry(s, at)
    metric = BundleMetric(geom, params)
    state = {}
    ctx = SimpleNamespace(
        structure=s,
        params=params,
        geometry=lambda idx: geom,
        metric=lambda idx: metric,
    )
    clean = checks._block_residual(ctx, 0, at, CURVATURE_BLOCKS)
    assert clean < 1e-9
    closed = levicivita._closed_curvature

    def plant(m):
        k = closed(m).copy()
        k[state["triple"] + (state["triple"][2],)] += 1e-6
        return k

    monkeypatch.setattr(levicivita, "_closed_curvature", plant)
    runners = {"hh_h": checks._r_blocks_paired, "hh_v": checks._r_blocks_paired}
    for which in CURVATURE_BLOCKS:
        kinds = [range(n) if kind == "h" else range(n, 2 * n) for kind in which.replace("_", "")]
        for triple in itertools.product(*kinds):
            state["triple"] = triple
            del metric.derived["curvature"]
            assert checks._block_residual(ctx, 0, at, (which,)) >= 5e-7, (which, triple)
            others = tuple(w for w in CURVATURE_BLOCKS if w != which)
            assert checks._block_residual(ctx, 0, at, others) < 1e-9, (which, triple)
            run = runners.get(which, checks._r_blocks_universal)
            assert run(ctx, 0, at) >= 5e-7, (which, triple)


# ---------------------------------------------------------------------------
# test-only references: the five-deep float loops the einsum blocks replaced,
# and the per-slot composition the whole-block definition oracle replaced,
# both kept as they stood before the rewrite


def _loop_inputs(geom, metric):
    """The point values and covariant derivatives the loop blocks read, under
    the names they read them by, taken off the geometry and the metric."""
    jets = {
        "C_uud": (geom.C_uud_jets, "uud"),
        "C_ddd": (geom.C_ddd_jets, "ddd"),
        "L_uuu": (geom.L_uuu_jets, "uuu"),
        "L_udd": (geom.L_udd_jets, "udd"),
    }
    return SimpleNamespace(
        n=geom.n,
        beta=metric.params.beta,
        c=metric.params.c_at(geom.tau),
        p=geom.at.p,
        C_uud=geom.C_uud_jets.value,
        C_ddd=geom.C_ddd,
        C_mixed=geom.C_mixed,
        L_uuu=geom.L_uuu,
        L_udd=geom.L_udd,
        L_uud=geom.L_uud,
        P=geom.P_curv,
        R_curv=geom.R_curv,
        R_vv=geom.R_vv,
        Gd=metric.G_down,
        Gu=metric.G_up,
        **{f"h{name}": geom.h_cov(t, valence).value for name, (t, valence) in jets.items()},
        **{f"d{name}": t.derivs(geom.pvars).value for name, (t, _) in jets.items()},
    )


def _block_vv_v(w):
    n, c, b = w.n, w.c, w.beta
    H = np.zeros((n, n, n, n))
    V = np.zeros((n, n, n, n))
    eye = np.eye(n)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for h in range(n):
                    H[i, j, k, h] = b * b * (w.dL_uuu[j, k, h, i] - w.dL_uuu[i, k, h, j])
                    t = (
                        w.dC_uud[i, k, h, j]
                        - w.dC_uud[j, k, h, i]
                        + c * b * (w.Gu[j, k] * eye[i, h] - w.Gu[i, k] * eye[j, h])
                    )
                    for s_ in range(n):
                        t += (
                            w.C_uud[j, k, s_] * w.C_uud[i, s_, h]
                            - w.C_uud[i, k, s_] * w.C_uud[j, s_, h]
                        )
                        t += b * b * (
                            w.L_udd[j, s_, h] * w.L_uuu[s_, i, k]
                            - w.L_udd[i, s_, h] * w.L_uuu[s_, j, k]
                        )
                    V[i, j, k, h] = t
    return H, V


def _block_hv_v(w):
    n, c, b = w.n, w.c, w.beta
    H = np.zeros((n, n, n, n))
    V = np.zeros((n, n, n, n))
    eye = np.eye(n)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for h in range(n):
                    t = (
                        c * b * w.Gu[k, h] * eye[j, i]
                        - w.dC_uud[k, h, i, j]
                        + b * b * w.hL_uuu[h, j, k, i]
                    )
                    u = (
                        w.P[k, j, i, h]
                        - w.hC_uud[j, k, h, i]
                        - c * b * b * w.L_uud[j, k, i] * w.p[h]
                        + w.dL_udd[k, h, i, j]
                    )
                    for s_ in range(n):
                        t -= w.C_uud[j, h, s_] * w.C_uud[k, s_, i]
                        t -= w.C_uud[j, k, s_] * w.C_uud[h, s_, i]
                        t += b * b * (
                            w.L_uuu[s_, j, k] * w.L_udd[h, i, s_]
                            + w.L_udd[k, s_, i] * w.L_uuu[h, j, s_]
                        )
                        u -= w.C_ddd[i, s_, h] * w.L_uuu[j, s_, k]
                        u += w.C_uud[j, k, s_] * w.L_udd[s_, i, h]
                        u += w.C_uud[s_, k, i] * w.L_udd[j, s_, h]
                        u -= w.C_uud[j, s_, h] * w.L_udd[k, i, s_]
                    H[i, j, k, h] = t
                    V[i, j, k, h] = u
    return H, V


def _block_hh_h(w):
    n, c, b = w.n, w.c, w.beta
    H = np.zeros((n, n, n, n))
    V = np.zeros((n, n, n, n))
    eye = np.eye(n)
    inv_b2 = 1.0 / (b * b)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for h in range(n):
                    t = (
                        w.R_curv[h, k, j, i]
                        + c * c * b * b * (w.p[i] * eye[h, j] - w.p[j] * eye[h, i]) * w.p[k]
                        + w.hL_udd[h, k, j, i]
                        - w.hL_udd[h, k, i, j]
                    )
                    u = inv_b2 * (w.hC_ddd[i, k, h, j] - w.hC_ddd[j, k, h, i])
                    for s_ in range(n):
                        t += inv_b2 * (
                            w.C_ddd[i, k, s_] * w.C_uud[h, s_, j]
                            - w.C_ddd[j, k, s_] * w.C_uud[h, s_, i]
                        )
                        t += (
                            w.L_udd[s_, k, j] * w.L_udd[h, i, s_]
                            - w.L_udd[s_, k, i] * w.L_udd[h, j, s_]
                        )
                        u += 2.0 * w.R_vv[s_, i, j] * w.L_udd[s_, h, k]
                        u += inv_b2 * (
                            w.C_ddd[j, k, s_] * w.L_udd[s_, i, h]
                            - w.C_ddd[i, k, s_] * w.L_udd[s_, j, h]
                            + w.C_ddd[j, h, s_] * w.L_udd[s_, k, i]
                            - w.C_ddd[i, h, s_] * w.L_udd[s_, j, k]
                        )
                    H[i, j, k, h] = t
                    V[i, j, k, h] = u
    return H, V


def _block_hh_v(w):
    n, c, b = w.n, w.c, w.beta
    H = np.zeros((n, n, n, n))
    V = np.zeros((n, n, n, n))
    eye = np.eye(n)
    inv_b2 = 1.0 / (b * b)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for h in range(n):
                    t = (
                        w.hC_uud[k, h, j, i]
                        - w.hC_uud[k, h, i, j]
                        + c * b * b * (w.p[j] * w.L_uud[k, h, i] - w.p[i] * w.L_uud[k, h, j])
                    )
                    u = (
                        -w.R_curv[k, h, j, i]
                        + c * c * b * b * w.p[h] * (w.p[j] * eye[k, i] - w.p[i] * eye[k, j])
                        + w.hL_udd[k, h, i, j]
                        - w.hL_udd[k, h, j, i]
                    )
                    for s_ in range(n):
                        t += (
                            w.C_uud[k, s_, j] * w.L_udd[h, s_, i]
                            - w.C_uud[k, s_, i] * w.L_udd[h, s_, j]
                        )
                        t += (
                            w.C_uud[s_, h, j] * w.L_udd[k, s_, i]
                            - w.C_uud[s_, h, i] * w.L_udd[k, s_, j]
                        )
                        u += inv_b2 * (
                            w.C_uud[k, s_, i] * w.C_ddd[j, h, s_]
                            - w.C_uud[k, s_, j] * w.C_ddd[i, h, s_]
                        )
                        u += (
                            w.L_udd[k, s_, j] * w.L_udd[s_, h, i]
                            - w.L_udd[k, s_, i] * w.L_udd[s_, h, j]
                        )
                    H[i, j, k, h] = t
                    V[i, j, k, h] = u
    return H, V


def _block_vv_h(w):
    n, c, b = w.n, w.c, w.beta
    H = np.zeros((n, n, n, n))
    V = np.zeros((n, n, n, n))
    eye = np.eye(n)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for h in range(n):
                    t = (
                        w.dC_uud[j, h, k, i]
                        - w.dC_uud[i, h, k, j]
                        + c * b * (w.Gu[i, h] * eye[j, k] - w.Gu[j, h] * eye[i, k])
                    )
                    for s_ in range(n):
                        t += (
                            w.C_uud[j, s_, k] * w.C_uud[i, h, s_]
                            - w.C_uud[i, s_, k] * w.C_uud[j, h, s_]
                        )
                        t += b * b * (
                            w.L_uuu[j, s_, h] * w.L_udd[i, s_, k]
                            - w.L_uuu[i, s_, h] * w.L_udd[j, s_, k]
                        )
                    H[i, j, k, h] = t
                    V[i, j, k, h] = w.dL_udd[i, k, h, j] - w.dL_udd[j, k, h, i]
    return H, V


def _block_hv_h(w):
    n, c, b = w.n, w.c, w.beta
    H = np.zeros((n, n, n, n))
    V = np.zeros((n, n, n, n))
    eye = np.eye(n)
    inv_b2 = 1.0 / (b * b)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for h in range(n):
                    t = (
                        w.hC_uud[j, h, k, i]
                        + c * b * b * w.L_uud[j, h, i] * w.p[k]
                        - w.dL_udd[h, k, i, j]
                        - w.P[h, j, i, k]
                    )
                    u = (
                        inv_b2 * w.dC_ddd[i, k, h, j]
                        + c * w.p[h] * w.C_mixed[j, i, k]
                        + c * w.p[k] * w.C_mixed[j, i, h]
                        - c * b * w.Gd[k, h] * eye[j, i]
                        - w.hL_udd[j, h, k, i]
                    )
                    for s_ in range(n):
                        t += w.C_uud[j, s_, k] * w.L_udd[h, s_, i]
                        t -= w.C_uud[j, h, s_] * w.L_udd[s_, k, i]
                        t -= w.C_uud[s_, h, i] * w.L_udd[j, s_, k]
                        t += w.C_ddd[i, k, s_] * w.L_uuu[h, j, s_]
                        u -= inv_b2 * (
                            w.C_ddd[i, s_, h] * w.C_uud[j, s_, k]
                            + w.C_ddd[i, k, s_] * w.C_uud[j, s_, h]
                        )
                        u += (
                            w.L_udd[j, s_, k] * w.L_udd[s_, h, i]
                            + w.L_udd[j, s_, h] * w.L_udd[s_, k, i]
                        )
                    H[i, j, k, h] = t
                    V[i, j, k, h] = u
    return H, V


_LOOP_BLOCKS = {
    "vv_v": _block_vv_v,
    "hv_v": _block_hv_v,
    "hh_h": _block_hh_h,
    "hh_v": _block_hh_v,
    "vv_h": _block_vv_h,
    "hv_h": _block_hv_h,
}


def _connection_blocks(table) -> dict:
    """Block name "ky_kz" -> the (h, v) parts of a table over [y, z, s, ...]
    whose first two axes are the slots of nabla_{F_y} F_z."""
    return {
        f"{ky}_{kz}": tuple(frame_block(table, ky + kz + t) for t in "hv")
        for ky in "hv"
        for kz in "hv"
    }


class _PerSlotDefn:
    """The per-slot definition composition; its block inputs (values,
    momentum derivatives, x-partials) are sliced out of the connection
    jet."""

    def __init__(self, geom, metric):
        self.geom = geom
        self.jet = levicivita._connection(metric)
        self.conn_x = np.moveaxis(self.jet.derivs(geom.xvars).value, -1, 0)

    @property
    def values(self):
        return _connection_blocks(self.jet.value)

    @property
    def vderivs(self):
        return _connection_blocks(self.jet.derivs(self.geom.pvars).value)

    def nabla_values(self, x_slot, y_slot):
        """(h, v) component vectors of nabla_X Y at the center."""
        (kx, ix), (ky, iy) = x_slot, y_slot
        hv, vv = self.values[f"{kx}_{ky}"]
        return hv[ix, iy].copy(), vv[ix, iy].copy()

    def frame_derivative_of_table(self, x_slot, key, iy, iz):
        """X applied to the 2n coefficient fields of nabla_{F_iy} F_iz for
        the block named by key; returns (dh[s], dv[s])."""
        kx, ix = x_slot
        dh_p, dv_p = self.vderivs[key]
        if kx == "v":
            return dh_p[iy, iz, :, ix].copy(), dv_p[iy, iz, :, ix].copy()
        part = _connection_blocks(self.conn_x[ix])
        dh = part[key][0][iy, iz, :].copy()
        dv = part[key][1][iy, iz, :].copy()
        for l in range(self.geom.n):
            nl = self.geom.N[ix, l]
            if nl != 0.0:
                dh += nl * dh_p[iy, iz, :, l]
                dv += nl * dv_p[iy, iz, :, l]
        return dh, dv

    def nabla_of_vector(self, x_slot, h_comp, v_comp):
        """nabla_X W for a point vector W given by frame components."""
        kx, ix = x_slot
        hh, hv = self.values[f"{kx}_h"]
        vh, vv = self.values[f"{kx}_v"]
        return h_comp @ hh[ix] + v_comp @ vh[ix], h_comp @ hv[ix] + v_comp @ vv[ix]

    def covariant_of_field(self, x_slot, y_slot, z_slot):
        """nabla_X (nabla_Y Z) treating nabla_Y Z as a frame-coefficient field."""
        ky, kz = y_slot[0], z_slot[0]
        key = f"{ky}_{kz}"
        iy, iz = y_slot[1], z_slot[1]
        dh, dv = self.frame_derivative_of_table(x_slot, key, iy, iz)
        wh, wv = self.nabla_values(y_slot, z_slot)
        th, tv = self.nabla_of_vector(x_slot, wh, wv)
        return dh + th, dv + tv

    def bracket_vertical(self, x_slot, y_slot) -> np.ndarray:
        """Vertical components of [X, Y] for adapted-frame fields (the
        horizontal components vanish identically)."""
        (kx, ix), (ky, iy) = x_slot, y_slot
        g = self.geom
        if kx == "h" and ky == "h":
            return g.R_vv[:, ix, iy].copy()
        if kx == "h" and ky == "v":
            return -g.B[iy, ix, :].copy()
        if kx == "v" and ky == "h":
            return g.B[ix, iy, :].copy()
        return np.zeros(g.n)


def _defn_per_slot(ctx, x_slot, y_slot, z_slot) -> tuple:
    n = ctx.geom.n
    x_slot, y_slot, z_slot = (
        (sl[0], slot_index(sl, n) % n) for sl in (x_slot, y_slot, z_slot)
    )
    h1, v1 = ctx.covariant_of_field(x_slot, y_slot, z_slot)
    h2, v2 = ctx.covariant_of_field(y_slot, x_slot, z_slot)
    w = ctx.bracket_vertical(x_slot, y_slot)
    vh, vv = ctx.values["v_h" if z_slot[0] == "h" else "v_v"]
    h3 = w @ vh[:, z_slot[1], :]
    v3 = w @ vv[:, z_slot[1], :]
    return h1 - h2 - h3, v1 - v2 - v3


_TRANSCRIPTION_PARAMS = (
    DeformationParams(alpha=1.0, beta=1.0, c=-1.0),
    DeformationParams(alpha=1.5, beta=0.7, c=-1.0),
)


def _transcription_structures(n):
    return (conformal_structure(n, -1.0), randers_dual(n=n), general_randers(n))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_einsum_blocks_match_loop_reference(n):
    for s in _transcription_structures(n):
        for params in _TRANSCRIPTION_PARAMS:
            at = _sample_points(s, params, n, 1, seed=10 + n)[0]
            geom = PointGeometry(s, at)
            metric = BundleMetric(geom, params)
            w = _loop_inputs(geom, metric)
            k = curvature_closed(s, at, params, metric=metric)
            for which in CURVATURE_BLOCKS:
                H, V = _LOOP_BLOCKS[which](w)
                scale = max(1.0, np.abs(H).max(), np.abs(V).max())
                rel = max(
                    np.abs(frame_block(k, which + "h") - H).max(),
                    np.abs(frame_block(k, which + "v") - V).max(),
                ) / scale
                assert rel <= 1e-13, f"{s.label} {params} {which}: {rel}"


@pytest.mark.parametrize("n", [2, 3])
def test_whole_block_definition_matches_per_slot_reference(n):
    for s, params in (
        (conformal_structure(n, -1.0), _TRANSCRIPTION_PARAMS[1]),
        (general_randers(n), DeformationParams(alpha=1.3, beta=0.8, c=0.0)),
    ):
        at = _sample_points(s, params, n, 1, seed=20 + n)[0]
        metric = BundleMetric(PointGeometry(s, at), params)
        ref = _PerSlotDefn(metric.geom, metric)
        defn = curvature_defn(s, at, params, metric=metric)
        assert defn.shape == (2 * n,) * 4
        # all eight kind patterns, (v, h, .) included
        for kx, ky, kz in itertools.product("hv", repeat=3):
            blk = frame_block(defn, kx + ky + kz)
            for i, j, k in itertools.product(range(n), repeat=3):
                want = np.concatenate(_defn_per_slot(ref, (kx, i), (ky, j), (kz, k)))
                scale = max(1.0, np.abs(want).max())
                assert np.abs(blk[i, j, k] - want).max() / scale <= 1e-13, (kx, ky, kz, i, j, k)
        # the table is composed once, kept on the metric and handed out as
        # it is
        assert curvature_defn(s, at, params, metric=metric) is defn
    with pytest.raises(ValenceError):
        frame_block(defn, "hx_v")


def test_ricci_is_the_four_block_trace():
    # the four-block trace formula of the ricci-traces entry, as the
    # Ricci blocks were computed before Ricci became one trace
    def four_block(k):
        b = {w: (frame_block(k, w + "h"), frame_block(k, w + "v")) for w in CURVATURE_BLOCKS}
        tr = lambda t, spec="ijki->jk": np.einsum(spec, t)
        hh = tr(b["hh_h"][0]) - tr(b["hv_h"][1], "jiki->jk")
        vv = tr(b["hv_v"][0]) + tr(b["vv_v"][1])
        hv = tr(b["hh_v"][0]) - tr(b["hv_v"][1], "jiki->jk")
        vh = tr(b["hv_h"][0]) + tr(b["vv_h"][1])
        return hh, vv, hv, vh

    for n in (2, 3, 4):
        for s, params in (
            (conformal_structure(n, -1.0), DeformationParams(alpha=1.5, beta=0.7, c=-1.0)),
            (general_randers(n), DeformationParams(alpha=1.3, beta=0.8, c=0.0)),
        ):
            at = _sample_points(s, params, n, 1, seed=30 + n)[0]
            geom = PointGeometry(s, at)
            metric = BundleMetric(geom, params)
            rd = ricci(s, at, params, metric=metric)
            hh, vv, hv, vh = four_block(curvature_closed(s, at, params, metric=metric))
            want = np.block([[hh, hv], [vh, vv]])
            scale = max(1.0, np.abs(want).max())
            assert np.abs(rd.ric - want).max() / scale <= 1e-13, (s.label, n)
            gd, gu = metric.G_down, metric.G_up
            lam = (np.sum(hh * gd) + np.sum(vv * gu)) / (np.sum(gd * gd) + np.sum(gu * gu))
            defect = max(
                np.abs(hh - lam * gd).max(), np.abs(vv - lam * gu).max(),
                np.abs(hv).max(), np.abs(vh).max(),
            )
            assert abs(rd.lambda_hat - lam) <= 1e-13 * max(1.0, abs(lam)), (s.label, n)
            assert abs(rd.defect - defect) <= 1e-13 * max(1.0, defect), (s.label, n)


def test_cached_blocks_and_ricci_are_read_only():
    s = general_randers()
    params = DeformationParams(alpha=1.3, beta=0.8, c=0.0)
    at = pt([0.25, -0.1], [0.9, 0.55])
    geom = PointGeometry(s, at)
    metric = BundleMetric(geom, params)
    first = curvature_closed(s, at, params, metric=metric)
    kept = first.copy()
    with pytest.raises(ValueError):
        first[0, 0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        first += 1.0
    with pytest.raises(ValueError):
        frame_block(first, "hv_h")[0, 0, 0, 0] = 1.0
    again = curvature_closed(s, at, params, metric=metric)
    assert again is first and np.array_equal(again, kept)
    conn = lc_closed_form(s, at, params, metric=metric)
    with pytest.raises(ValueError):
        conn[0, 0, 0] = 1.0
    defn = curvature_defn(s, at, params, metric=metric)
    with pytest.raises(ValueError):
        defn[0, 0, 0, 0] = 1.0
    rd = ricci(s, at, params, metric=metric)
    with pytest.raises(ValueError):
        rd.ric[0, 0] = 1.0
    assert ricci(s, at, params, metric=metric) is rd


def test_planted_hv_h_defect_fails_every_universal_block_record(monkeypatch):
    # the definition route differentiates the connection jet exactly, so the
    # block checks are jet_exact: a +1e-7 plant in the hv_h h-part, which
    # fd_single's 1e-5 would pass, fails every record while the clean blocks
    # pass
    manifest = parse_manifest(json.dumps({
        "structures": [
            {"family": "riemannian_conformal", "n": 2, "c": -1.0},
            {"family": "randers", "n": 2, "c": 0.0, "drift": [0.3, 0.0]},
        ],
        "params": [{"label": "hyperbolic", "alpha": 1.0, "beta": 1.0, "c": -1.0}],
        "sampling": {"seed": 0, "count": 3, "p_norm": [0.5, 1.5]},
    }))
    only = ["levicivita.curvature_blocks_universal"]
    clean = run_suite(manifest, only=only)
    assert clean["summary"]["total"] == 6 and clean["summary"]["failed"] == 0
    assert {r["tolerance"] for r in clean["checks"]} == {TOLERANCES["jet_exact"]}
    closed_blocks = levicivita._closed_blocks

    def planted(metric):
        blocks = dict(closed_blocks(metric))
        H, V = blocks["hv_h"]
        blocks["hv_h"] = (H + 1e-7, V)
        return blocks

    monkeypatch.setattr(levicivita, "_closed_blocks", planted)
    report = run_suite(manifest, only=only)
    assert report["summary"]["failed"] == report["summary"]["total"] == 6
    assert max(r["residual"] for r in report["checks"]) < TOLERANCES["fd_single"]


def test_the_closed_curvature_refuses_a_profile_that_reads_tau():
    # the closed blocks freeze c at the point's tau: with v = 0.4 + 0.3 tau
    # they would differ from the definition by about 0.1 in the universal
    # hv_h and vv_v blocks, so the closed route and its traces refuse
    s, at = conformal_structure(2, -1.0), pt([0.1, -0.2], [0.6, 0.3])
    params = DeformationParams(v="0.4 + 0.3*tau")
    for route in (curvature_closed, ricci, vertical_ricci_obstruction):
        with pytest.raises(EvaluationDomainError, match=r"profile '0\.4 \+ 0\.3\*tau' reads tau"):
            route(s, at, params)
    # the definition route still takes it
    assert np.isfinite(curvature_defn(s, at, params)).all()


def test_a_constant_profile_keeps_its_closed_curvature_table():
    s, at = conformal_structure(2, -1.0), pt([0.1, -0.2], [0.6, 0.3])
    text, number = DeformationParams(v="0.4"), DeformationParams(v=0.4)
    assert not text.reads_tau
    table = curvature_closed(s, at, text)
    assert np.array_equal(table, curvature_closed(s, at, number))
    metric = BundleMetric(PointGeometry(s, at), text)
    for which, rel in _block_residuals(s, at, text, metric, ("vv_v", "hv_v", "vv_h", "hv_h")).items():
        assert rel <= 1e-12, which
