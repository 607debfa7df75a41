"""Connection, curvature, and Einstein analysis of the bundle metric."""
import json

import numpy as np
import pytest

from cartanlab import levicivita
from cartanlab.cartan import conformal_structure, flat_structure, randers_dual
from cartanlab.checks import run_suite
from cartanlab.errors import ValenceError
from cartanlab.geometry import PointGeometry
from cartanlab.kahler import BundleMetric, DeformationParams, tube_predicate
from cartanlab.levicivita import (
    CURVATURE_BLOCKS,
    MetricStencil,
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
    conn = lc_closed_form(s, at, params)
    for blk in (conn.v_v, conn.h_v, conn.v_h, conn.h_h):
        assert np.abs(blk.h).max() == 0.0
        assert np.abs(blk.v).max() == 0.0
    for which in CURVATURE_BLOCKS:
        blk = curvature_closed(s, at, params, which)
        assert np.abs(blk.h).max() == 0.0
        assert np.abs(blk.v).max() == 0.0
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
        conn = lc_closed_form(s, at, params, geom, metric)
        c = params.c_at(geom.tau)
        beta = params.beta
        want = c * beta * np.einsum("ij,s->ijs", metric.G_up, at.p)
        assert np.abs(conn.v_v.h).max() <= 1e-12
        assert np.abs(conn.v_v.v - want).max() <= 1e-10


def test_closed_form_matches_koszul():
    for s, params in _matching_cases(2):
        stencil = MetricStencil(s, params)
        for at in _sample_points(s, params, 2, 2):
            geom = PointGeometry(s, at)
            metric = BundleMetric(geom, params)
            conn = lc_closed_form(s, at, params, geom, metric)
            worst = 0.0
            for xs in _slots(2):
                for ys in _slots(2):
                    got = koszul_oracle(
                        s, at, params, xs, ys, geom=geom, metric=metric, stencil=stencil
                    )
                    blk = conn.block(xs[0], ys[0])
                    worst = max(
                        worst,
                        np.abs(got.h_values - blk.h[xs[1], ys[1]]).max(),
                        np.abs(got.v_values - blk.v[xs[1], ys[1]]).max(),
                    )
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
    for i in range(2):
        for j in range(2):
            got = koszul_oracle(s, at, params, ("h", i), ("h", j), geom=geom, metric=metric)
            want = c * params.beta * metric.G_down[j, :] * at.p[i]
            assert np.abs(got.v_values - want).max() <= 1e-6


def test_torsion_free_and_metric_compatible():
    for s, params in _matching_cases(2):
        for at in _sample_points(s, params, 2, 2, seed=1):
            torsion, compat = connection_defects(s, at, params)
            assert torsion <= 1e-4, f"{s.label}: torsion {torsion}"
            assert compat <= 1e-4, f"{s.label}: nabla G {compat}"


# ---------------------------------------------------------------------------
# curvature blocks vs the definition oracle


def test_curvature_blocks_match_definition():
    for s, params in _matching_cases(2):
        for at in _sample_points(s, params, 2, 2, seed=2):
            ctx = curvature_context(s, at, params)
            for which in CURVATURE_BLOCKS:
                a, b, cnt = which[0], which[1], which[3]
                blk = curvature_closed(
                    s, at, params, which, geom=ctx.geom, metric=ctx.metric
                )
                scale = max(np.abs(blk.h).max(), np.abs(blk.v).max(), 1.0)
                for i in range(2):
                    for j in range(2):
                        for k in range(2):
                            fv = curvature_defn(
                                s, at, params, (a, i), (b, j), (cnt, k), ctx=ctx
                            )
                            res = max(
                                np.abs(fv.h_values - blk.h[i, j, k]).max(),
                                np.abs(fv.v_values - blk.v[i, j, k]).max(),
                            )
                            assert res / scale <= 1e-3, (
                                f"{s.label} {which} ({i},{j},{k}): {res / scale}"
                            )


def test_curvature_blocks_match_definition_3d():
    s = conformal_structure(3, -1.0)
    params = DeformationParams(c=-1.0)
    at = pt([0.2, -0.1, 0.15], [0.8, 0.5, -0.3])
    ctx = curvature_context(s, at, params)
    for which in CURVATURE_BLOCKS:
        a, b, cnt = which[0], which[1], which[3]
        blk = curvature_closed(s, at, params, which, geom=ctx.geom, metric=ctx.metric)
        scale = max(np.abs(blk.h).max(), np.abs(blk.v).max(), 1.0)
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    fv = curvature_defn(s, at, params, (a, i), (b, j), (cnt, k), ctx=ctx)
                    res = max(
                        np.abs(fv.h_values - blk.h[i, j, k]).max(),
                        np.abs(fv.v_values - blk.v[i, j, k]).max(),
                    )
                    assert res / scale <= 1e-3


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
            ctx = curvature_context(s, at, params, geom=geom)
            for which in ("vv_v", "hv_v", "vv_h", "hv_h"):
                a, b, cnt = which[0], which[1], which[3]
                blk = curvature_closed(
                    s, at, params, which, geom=ctx.geom, metric=ctx.metric
                )
                scale = max(np.abs(blk.h).max(), np.abs(blk.v).max(), 1.0)
                for i in range(2):
                    for j in range(2):
                        for k in range(2):
                            fv = curvature_defn(
                                s, at, params, (a, i), (b, j), (cnt, k), ctx=ctx
                            )
                            res = max(
                                np.abs(fv.h_values - blk.h[i, j, k]).max(),
                                np.abs(fv.v_values - blk.v[i, j, k]).max(),
                            )
                            assert res / scale <= 1e-3, f"{which}: {res / scale}"


def test_curvature_defn_riemannian_reductions():
    # K(delta_i, delta_j) delta_k = c beta (G_kj d^s_i - G_ki d^s_j) delta_s
    s = conformal_structure(2, 1.0)
    params = DeformationParams(c=1.0)
    at = pt([0.2, 0.1], [0.35, 0.2])
    geom = PointGeometry(s, at)
    metric = BundleMetric(geom, params)
    ctx = curvature_context(s, at, params, geom=geom, metric=metric)
    c = params.c_at(geom.tau)
    eye = np.eye(2)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                fv = curvature_defn(s, at, params, ("h", i), ("h", j), ("h", k), ctx=ctx)
                want = c * params.beta * (
                    metric.G_down[k, j] * eye[:, i] - metric.G_down[k, i] * eye[:, j]
                )
                assert np.abs(fv.h_values - want).max() <= 1e-4
                assert np.abs(fv.v_values).max() <= 1e-4
    # K(pdot^i, delta_j) delta_k = c beta G_sk d^i_j pdot^s
    s = conformal_structure(2, -1.0)
    params = DeformationParams(c=-1.0)
    at = pt([0.25, -0.1], [0.9, 0.55])
    geom = PointGeometry(s, at)
    metric = BundleMetric(geom, params)
    ctx = curvature_context(s, at, params, geom=geom, metric=metric)
    c = params.c_at(geom.tau)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                fv = curvature_defn(s, at, params, ("v", i), ("h", j), ("h", k), ctx=ctx)
                want = c * params.beta * metric.G_down[:, k] * (1.0 if i == j else 0.0)
                assert np.abs(fv.v_values - want).max() <= 1e-4
                assert np.abs(fv.h_values).max() <= 1e-4


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
    vv_v = curvature_closed(s, at, params, "vv_v", geom=geom, metric=metric)
    hv_v = curvature_closed(s, at, params, "hv_v", geom=geom, metric=metric)
    vv_h = curvature_closed(s, at, params, "vv_h", geom=geom, metric=metric)
    hv_h = curvature_closed(s, at, params, "hv_h", geom=geom, metric=metric)
    want_vv_v = c * b * (
        np.einsum("jk,ih->ijkh", Gu, eye) - np.einsum("ik,jh->ijkh", Gu, eye)
    )
    assert np.abs(vv_v.v - want_vv_v).max() <= 1e-10
    assert np.abs(vv_v.h).max() <= 1e-10
    want_hv_v = c * b * np.einsum("kh,ji->ijkh", Gu, eye)
    assert np.abs(hv_v.h - want_hv_v).max() <= 1e-10
    want_vv_h = c * b * (
        np.einsum("ih,jk->ijkh", Gu, eye) - np.einsum("jh,ik->ijkh", Gu, eye)
    )
    assert np.abs(vv_h.h - want_vv_h).max() <= 1e-10
    assert np.abs(vv_h.v).max() <= 1e-10
    # K(pdot^i, delta_j) delta_k = c beta G_sk d^i_j pdot^s, i.e. the
    # (h,v)-ordered block with its first two slots swapped and negated
    want_hv_h_v = -c * b * np.einsum("hk,ji->jikh", Gd, eye)
    assert np.abs(hv_h.v - want_hv_h_v).max() <= 1e-10
    assert np.abs(hv_h.h).max() <= 1e-10


def test_curvature_antisymmetry_in_first_pair():
    s = general_randers()
    params = DeformationParams(c=0.0)
    at = pt([0.25, -0.1], [0.9, 0.55])
    for which in ("vv_v", "vv_h", "hh_h", "hh_v"):
        blk = curvature_closed(s, at, params, which)
        assert np.abs(blk.h + np.einsum("ijkh->jikh", blk.h)).max() <= 1e-12
        assert np.abs(blk.v + np.einsum("ijkh->jikh", blk.v)).max() <= 1e-12


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
    assert np.abs(rd.Ric_hv).max() <= 1e-4
    assert np.abs(rd.Ric_vh).max() <= 1e-4
    # the transpose relation also holds where the mixed blocks do not vanish
    s = general_randers()
    params = DeformationParams(c=0.0)
    at = pt([0.25, -0.1], [0.9, 0.55])
    rd = ricci(s, at, params)
    assert np.abs(rd.Ric_hv).max() > 1e-3
    assert np.abs(rd.Ric_hv - rd.Ric_vh.T).max() <= 1e-10


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
    assert np.abs(conn.v_v.h).max() <= 1e-12
    s = general_randers()
    at = pt([0.25, -0.1], [0.9, 0.55])
    geom = PointGeometry(s, at)
    conn = lc_closed_form(s, at, params, geom=geom)
    assert np.abs(conn.v_v.h - params.beta**2 * geom.L_uuu).max() <= 1e-12
    assert np.abs(conn.v_v.h).max() > 1e-6
    # vertical part of nabla_{delta_i} delta_j contracted with p^j equals
    # c p_i p_s (1 - 2 c beta^2 tau): never identically zero when c != 0
    s = conformal_structure(2, -1.0)
    params = DeformationParams(c=-1.0)
    at = pt([0.25, -0.1], [0.9, 0.55])
    geom = PointGeometry(s, at)
    conn = lc_closed_form(s, at, params, geom=geom)
    p_up = geom.p_up_jets.value
    got = np.einsum("ijs,j->is", conn.h_h.v, p_up)
    c = params.c_at(geom.tau)
    want = c * np.outer(at.p, at.p) * (1.0 - 2.0 * c * params.beta**2 * geom.tau)
    assert np.abs(got - want).max() <= 1e-10
    assert np.abs(got).max() > 1e-6


# ---------------------------------------------------------------------------
# per-point tables: built once, reused for every slot, and changing no number


def _same_frame_vector(a, b):
    return np.array_equal(a.h_values, b.h_values) and np.array_equal(a.v_values, b.v_values)


@pytest.mark.parametrize("n", [2, 3])
def test_koszul_tables_reused_match_fresh(n):
    s = conformal_structure(n, -1.0)
    params = DeformationParams(c=-1.0)
    at = _sample_points(s, params, n, 1, seed=6)[0]
    geom = PointGeometry(s, at)
    shared = BundleMetric(geom, params)
    stencil = MetricStencil(s, params)
    for xs in _slots(n):
        for ys in _slots(n):
            reused = koszul_oracle(s, at, params, xs, ys, geom=geom, metric=shared, stencil=stencil)
            fresh = koszul_oracle(
                s, at, params, xs, ys, geom=geom, metric=BundleMetric(geom, params)
            )
            assert _same_frame_vector(reused, fresh), f"{xs} {ys}"


def test_curvature_ingredients_shared_match_fresh():
    s = general_randers()
    params = DeformationParams(alpha=1.3, beta=0.8, c=0.0)
    at = pt([0.25, -0.1], [0.9, 0.55])
    geom = PointGeometry(s, at)
    shared = BundleMetric(geom, params)
    for which in CURVATURE_BLOCKS:
        got = curvature_closed(s, at, params, which, geom=geom, metric=shared)
        want = curvature_closed(s, at, params, which, geom=geom, metric=BundleMetric(geom, params))
        assert np.array_equal(got.h, want.h) and np.array_equal(got.v, want.v), which
    got = ricci(s, at, params, geom=geom, metric=shared)
    want = ricci(s, at, params, geom=geom, metric=BundleMetric(geom, params))
    for name in ("Ric_hh", "Ric_vv", "Ric_hv", "Ric_vh"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert (got.lambda_hat, got.defect) == (want.lambda_hat, want.defect)
    res, mean = vertical_ricci_obstruction(s, at, params, geom=geom, metric=shared)
    res0, mean0 = vertical_ricci_obstruction(
        s, at, params, geom=geom, metric=BundleMetric(geom, params)
    )
    assert np.array_equal(res, res0) and np.array_equal(mean, mean0)


def test_each_ingredient_built_once_per_point(monkeypatch):
    counts = {"ingredients": 0, "brackets": 0}
    ingredients_init = levicivita._Ingredients.__init__
    bracket = levicivita.FrameVector.bracket

    def counted_ingredients(self, *args):
        counts["ingredients"] += 1
        ingredients_init(self, *args)

    def counted_bracket(self, other):
        counts["brackets"] += 1
        return bracket(self, other)

    monkeypatch.setattr(levicivita._Ingredients, "__init__", counted_ingredients)
    monkeypatch.setattr(levicivita.FrameVector, "bracket", counted_bracket)
    n, points = 2, 2
    manifest = parse_manifest(json.dumps({
        "structures": [{"family": "riemannian_conformal", "n": n, "c": -1.0}],
        "params": [{"label": "hyperbolic", "alpha": 1.0, "beta": 1.0, "c": -1.0}],
        "sampling": {"seed": 0, "count": points, "p_norm": [0.5, 1.5]},
    }))
    only = (
        "levicivita.koszul_agreement",
        "levicivita.curvature_blocks_universal",
        "levicivita.curvature_blocks_paired",
        "levicivita.einstein_obstruction_identity",
        "levicivita.ricci_mixed_symmetry",
    )
    report = run_suite(manifest, only=only)
    assert report["summary"] == {"total": len(only) * points, "passed": len(only) * points, "failed": 0}
    assert counts == {"ingredients": points, "brackets": points * (2 * n) ** 2}


def test_cached_koszul_tables_still_detect_mismatch():
    # structure curvature +1 against params tuned for -1: the closed form is
    # not the Levi-Civita connection there, and the Koszul oracle must say so
    # just as loudly from cached tables as from a first call
    s = conformal_structure(2, 1.0)
    params = DeformationParams(c=-1.0)
    at = _sample_points(s, params, 2, 1, seed=7)[0]
    geom = PointGeometry(s, at)
    metric = BundleMetric(geom, params)
    conn = lc_closed_form(s, at, params, geom, metric)
    koszul_oracle(s, at, params, ("h", 0), ("h", 0), geom=geom, metric=metric)
    assert "koszul" in metric.derived
    worst = 0.0
    for xs in _slots(2):
        for ys in _slots(2):
            got = koszul_oracle(s, at, params, xs, ys, geom=geom, metric=metric)
            blk = conn.block(xs[0], ys[0])
            worst = max(
                worst,
                np.abs(got.h_values - blk.h[xs[1], ys[1]]).max(),
                np.abs(got.v_values - blk.v[xs[1], ys[1]]).max(),
            )
    # measured 0.481 here, 4.8e3 times the koszul_agreement tolerance of 1e-4
    assert worst >= 0.4, f"mismatch only {worst}"


def test_koszul_rejects_bad_slots():
    s = conformal_structure(2, -1.0)
    params = DeformationParams(c=-1.0)
    at = pt([0.25, -0.1], [0.9, 0.55])
    for bad in (("h", 2), ("v", -1), ("x", 0)):
        with pytest.raises(ValenceError):
            koszul_oracle(s, at, params, bad, ("h", 0))
