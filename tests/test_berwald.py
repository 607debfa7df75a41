"""Nonlinear connection, Berwald coefficients, Landsberg tensors, curvatures.

Dual routes: the closed jet pipeline against FD oracles for the nonlinear
connection and the h-curvature; structural identities at seeded points.
"""
import json
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import builtin_structures, christoffel_fd, general_randers, pt

from cartanlab import checks, geometry
from cartanlab.checks import run_suite
from cartanlab.berwald import DTensor, berwald_curvature_fd, nonlinear_connection_fd
from cartanlab.cartan import (
    CartanStructure,
    conformal_structure,
    flat_structure,
    randers_dual,
    sample_points,
)
from cartanlab.errors import (
    ConditioningError,
    EvaluationDomainError,
    RegularityError,
    ValenceError,
)
from cartanlab.geometry import PointGeometry
from cartanlab.jets import ChartPoint, fd_partial, fd_stencil, jet_eval
from cartanlab.manifest import build_structure, parse_manifest


# ---------------------------------------------------------------------------
# trivial vanishing cases


def test_flat_everything_vanishes():
    s = flat_structure(2)
    at = pt([0.4, -0.2], [1.0, 0.7])
    geom = PointGeometry(s, at)
    np.testing.assert_allclose(geom.N, 0.0, atol=1e-14)
    np.testing.assert_allclose(geom.B, 0.0, atol=1e-14)
    np.testing.assert_allclose(geom.L_uud, 0.0, atol=1e-14)
    np.testing.assert_allclose(geom.R_vv, 0.0, atol=1e-14)
    np.testing.assert_allclose(geom.R_curv, 0.0, atol=1e-14)


def test_locally_minkowski_randers():
    # constant a, b: x-independence kills gamma, N, L, R; C stays nonzero
    s = randers_dual(n=2)
    at = pt([0.3, 0.5], [1.0, 0.2])
    geom = PointGeometry(s, at)
    np.testing.assert_allclose(geom.N, 0.0, atol=1e-10)
    np.testing.assert_allclose(geom.B, 0.0, atol=1e-10)
    np.testing.assert_allclose(geom.L_uud, 0.0, atol=1e-10)
    np.testing.assert_allclose(geom.R_vv, 0.0, atol=1e-10)
    assert np.max(np.abs(geom.h_cov(geom.g_down_jets, "dd").value)) <= 1e-8


# ---------------------------------------------------------------------------
# nonlinear connection vs FD oracle


def test_nonlinear_connection_matches_fd_at_pinned_point():
    s = conformal_structure(2, 1.0)
    at = pt([0.3, 0.0], [1.0, 0.4])
    closed = PointGeometry(s, at).N
    oracle = nonlinear_connection_fd(s, at)
    assert np.max(np.abs(closed - oracle)) <= 1e-5
    assert np.max(np.abs(closed)) > 1e-3  # non-vacuous


@pytest.mark.parametrize("s", [conformal_structure(2, -1.0), general_randers(2)],
                         ids=lambda s: s.label)
def test_nonlinear_connection_fd_random_points(s):
    for at in sample_points(s, 4, 5):
        closed = PointGeometry(s, at).N
        oracle = nonlinear_connection_fd(s, at)
        scale = max(1.0, np.max(np.abs(closed)))
        assert np.max(np.abs(closed - oracle)) <= 1e-5 * scale
        np.testing.assert_allclose(closed, closed.T, atol=1e-12)
        asym = np.max(np.abs(oracle - oracle.T))
        assert asym <= 1e-6


# ---------------------------------------------------------------------------
# adapted frame derivative


def _n_fd_without_momentum_term(s, at, geom=None):
    """`nonlinear_connection_fd` with its momentum-correction term
    -0.5 gamma00^h pdot^h g_ij dropped: a planted defect (it takes the
    oracle's ``geom`` argument and builds its own center instead)."""
    n = at.n
    dg = fd_partial(lambda q: PointGeometry(s, q, order=2).g_down, at, range(2 * n), steps=(1e-4,))
    dg_x = dg[:n]
    gu = PointGeometry(s, at, order=2).g_up
    first = np.einsum("kjm->jkm", dg_x) + np.einsum("jmk->jkm", dg_x) - np.einsum("mjk->jkm", dg_x)
    return np.einsum("ijk,i->jk", 0.5 * np.einsum("im,jkm->ijk", gu, first), at.p)


@pytest.mark.parametrize("n", [2, 3])
def test_n_fd_oracle_covers_the_momentum_term_on_curved_randers(n, monkeypatch):
    # the shipped manifests have either dot g = 0 or gamma = 0, which hides
    # the momentum-correction term; curved Randers has neither, and points
    # with |p_k| > 1 also exercise the step scaling
    s = build_structure({"family": "randers", "n": n, "c": -1.0, "drift": 0.3})
    pts = [q for q in sample_points(s, 40, 3 + n, p_norm=(1.2, 2.0)) if np.abs(q.p).max() > 1.0]
    tol = checks.TOLERANCES["fd_single"]
    clean = checks.nonlinear_connection_fd
    for at in pts[:2]:
        ctx = SimpleNamespace(structure=s, geometry=lambda idx, at=at: PointGeometry(s, at))
        term = np.abs(clean(s, at) - _n_fd_without_momentum_term(s, at)).max()
        assert term >= 1e-3
        assert checks._r_n_fd_oracle(ctx, 0, at) <= tol
        monkeypatch.setattr(checks, "nonlinear_connection_fd", _n_fd_without_momentum_term)
        assert checks._r_n_fd_oracle(ctx, 0, at) > tol
        monkeypatch.setattr(checks, "nonlinear_connection_fd", clean)


def test_fd_oracle_runners_reuse_the_scope_geometry(monkeypatch):
    # the two FD oracles read their center values from the scope's order-5
    # geometry, so the only other builds are their shifted stencils, one
    # batched geometry per record: 2n variables x 2 signs at one step (N)
    # or two steps (B)
    built = {2: 0, 4: 0, 5: 0}
    stencil_points = {2: 0, 4: 0, 5: 0}
    geom_init = geometry.PointGeometry.__init__

    def counted_geom(self, structure, at, order=5):
        built[order] += 1
        stencil_points[order] += len(at.points())
        geom_init(self, structure, at, order)

    monkeypatch.setattr(geometry.PointGeometry, "__init__", counted_geom)
    n, points = 2, 3
    manifest = parse_manifest(json.dumps({
        "structures": [{"family": "randers", "n": n, "c": -1.0, "drift": 0.3}],
        "params": [{"label": "flat", "c": 0.0}],
        "sampling": {"seed": 0, "count": points, "p_norm": [0.5, 1.5]},
    }))
    only = ("berwald.curvature_fd_oracle", "berwald.n_fd_oracle")
    report = run_suite(manifest, only=only)
    assert report["summary"]["total"] == 2 * points and report["summary"]["failed"] == 0
    assert built == {5: points, 2: points, 4: points}
    assert stencil_points == {5: points, 2: 4 * n * points, 4: 8 * n * points}


def _stencil_structure(family, n):
    """The three kinds of structure the batched stencils are held to: a
    Riemannian conformal one, the x-independent Randers one, and an
    anisotropic expression with an x-dependent momentum weight."""
    if family == "conformal":
        return build_structure({"family": "riemannian_conformal", "n": n, "c": -1.0})
    if family == "randers":
        return build_structure({"family": "randers", "n": n, "c": 0.0, "drift": 0.3})
    rest = " + ".join(f"p{k}*p{k}" for k in range(3, n + 1))
    return build_structure({
        "family": "expression", "n": n, "label": f"anisotropic-quadratic-{n}d",
        "k2": "(1 + 0.5*x1*x1) * p2*p2 + p1*p1" + (" + " + rest if rest else ""),
    })


@pytest.mark.parametrize("family", ["conformal", "randers", "expression"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_batched_stencil_values_match_per_point_geometries(family, n):
    # one geometry over a whole stencil gives each shifted point the values
    # a geometry of that point alone gives, and the FD oracles built on the
    # batch equal their per-point fd_partial formulation
    s = _stencil_structure(family, n)
    at = sample_points(s, 1, 40 + n)[0]
    chart = range(2 * n)
    for steps, order, attr in (((1e-3, 5e-4), 4, "B"), ((1e-4,), 2, "g_down")):
        pts = fd_stencil(at, chart, steps)
        assert pts.batch_shape == (2 * n, len(steps), 2)
        batched = getattr(PointGeometry(s, pts, order), attr)
        single = np.array([getattr(PointGeometry(s, q, order), attr) for q in pts.points()])
        single = single.reshape(batched.shape)
        scale = max(1.0, float(np.abs(single).max()))
        assert float(np.abs(batched - single).max()) <= 1e-15 * scale
    geom = PointGeometry(s, at)

    def per_point(attr, order, steps):
        return fd_partial(lambda q: getattr(PointGeometry(s, q, order), attr), at, chart, steps)

    db, dg = per_point("B", 4, (1e-3, 5e-4)), per_point("g_down", 2, (1e-4,))
    nval, b0, gu = geom.N, geom.B, geom.g_up
    delta_b = db[:n] + np.einsum("hj,jabc->habc", nval, db[n:])
    want_r = (
        np.einsum("hijk->ijkh", delta_b) - np.einsum("kijh->ijkh", delta_b)
        + np.einsum("mjk,imh->ijkh", b0, b0) - np.einsum("mjh,imk->ijkh", b0, b0)
    )
    first = np.einsum("kjm->jkm", dg[:n]) + np.einsum("jmk->jkm", dg[:n]) - np.einsum("mjk->jkm", dg[:n])
    gamma0 = np.einsum("ijk,i->jk", 0.5 * np.einsum("im,jkm->ijk", gu, first), at.p)
    want_n = gamma0 - 0.5 * np.einsum("h,hij->ij", gamma0 @ geom.p_up, dg[n:])
    for got, want in ((berwald_curvature_fd(s, at, geom=geom), want_r),
                      (nonlinear_connection_fd(s, at, geom=geom), want_n)):
        scale = max(1.0, float(np.abs(want).max()))
        assert float(np.abs(got - want).max()) <= 1e-15 * scale


def _one_bad_stencil_point(kind, step):
    """A structure and a center point whose FD stencil along x^1 has exactly
    one bad point, the one a step ``step`` down: there K^2 <= 0
    (EvaluationDomainError), g is indefinite (RegularityError), or g is
    positive but singular past the conditioning bound (ConditioningError).
    K^2 = p1^2 + w(x1) p2^2 with w(x1) = x1 - a, zero just above that point
    (or 1e-13 below it)."""
    x1 = 0.3
    edge = (x1 - step) + (-1e-13 if kind == "conditioning" else 1e-7)
    if kind == "k2":
        k2 = lambda xs, ps: (xs[0] - edge) * (ps[0] * ps[0] + ps[1] * ps[1])
    else:
        k2 = lambda xs, ps: ps[0] * ps[0] + (xs[0] - edge) * ps[1] * ps[1]
    s = CartanStructure(dim=2, k2=k2, label=f"bad-{kind}")
    return s, pt([x1, 0.1], [0.8, 0.6])


@pytest.mark.parametrize(
    "kind, error",
    [("k2", EvaluationDomainError), ("regularity", RegularityError), ("conditioning", ConditioningError)],
)
def test_a_bad_stencil_point_is_its_records_typed_error(kind, error):
    for check_id, step in (("berwald.curvature_fd_oracle", 1e-3), ("berwald.n_fd_oracle", 1e-4)):
        s, at = _one_bad_stencil_point(kind, step)
        geom = PointGeometry(s, at)
        geom.B  # the center point itself is fine
        spec = next(spec for spec in checks.REGISTRY if spec.check_id == check_id)
        ctx = SimpleNamespace(structure=s, geometry=lambda idx: geom, tag=s.label)
        record = checks._record(spec, ctx, 0, at)
        assert record.residual is None and not record.passed
        assert record.error.startswith(error.__name__ + ":"), record.error


def test_an_order4_stencil_geometry_keeps_values_and_refuses_second_x_derivatives():
    # x-linear jets keep N, B, C and L exact, but R_vv needs a second
    # x-derivative of K^2's momentum Hessian (and R_curv one more order)
    for s in (conformal_structure(3, -1.0), general_randers(3)):
        at = sample_points(s, 1, 5)[0]
        low, high = PointGeometry(s, at, order=4), PointGeometry(s, at)
        assert low.xcap == 1 and PointGeometry(s, at, order=2).xcap == 0 and high.xcap == 5
        for attr in ("g_down", "C_ddd", "N", "B", "L_udd"):
            want = getattr(high, attr)
            scale = max(1.0, float(np.abs(want).max()))
            assert float(np.abs(getattr(low, attr) - want).max()) <= 1e-13 * scale
        with pytest.raises(ValueError, match="x-derivative"):
            low.R_vv
        with pytest.raises(ValueError):
            low.R_curv


def test_delta_of_k2_vanishes():
    for s in [conformal_structure(2, -1.0), general_randers(2)]:
        for at in sample_points(s, 5, 11):
            geom = PointGeometry(s, at)
            d = geom.delta(geom.k2).value
            assert np.max(np.abs(d)) <= 1e-8 * max(1.0, s.k2_values(at.x, at.p))


def test_delta_reduces_to_base_derivative_off_momentum():
    s = conformal_structure(2, 1.0)
    at = pt([0.2, -0.1], [0.9, 0.3])
    d = PointGeometry(s, at).delta(jet_eval(lambda xs, ps: xs[0] * xs[0] * xs[1], at, 1)).value
    np.testing.assert_allclose(d, [2 * 0.2 * (-0.1), 0.2**2], rtol=1e-12)


def test_delta_of_momentum_coordinate_is_connection():
    s = conformal_structure(2, -1.0)
    at = pt([0.4, 0.1], [1.2, -0.5])
    geom = PointGeometry(s, at)
    for k in range(2):
        d = geom.delta(jet_eval(lambda xs, ps, k=k: ps[k], at, 1)).value
        np.testing.assert_allclose(d, geom.N[:, k], rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Berwald coefficients against the base Christoffel symbols


@pytest.mark.parametrize("c", [1.0, -1.0])
def test_berwald_equals_christoffel_on_riemannian(c):
    s = conformal_structure(2, c)

    def a_fn(x):
        phi = 1.0 + (c / 4.0) * float(np.asarray(x) @ np.asarray(x))
        return np.eye(2) / phi**2

    for at in sample_points(s, 5, 3):
        geom = PointGeometry(s, at)
        gam = christoffel_fd(a_fn, at.x)
        assert np.max(np.abs(geom.B - gam)) <= 1e-6
        # Riemannian B is p-independent, so the P-curvature vanishes
        np.testing.assert_allclose(geom.P_curv, 0.0, atol=1e-10)


# ---------------------------------------------------------------------------
# curvature identities of the base geometry


@pytest.mark.parametrize("c", [1.0, -1.0])
def test_constant_curvature_form_of_R(c):
    s = conformal_structure(2, c)
    for at in sample_points(s, 6, 17):
        geom = PointGeometry(s, at)
        k2 = geom.k2.value
        g = geom.g_down
        p = at.p
        # contracted form: R_hjk p^j = c (K^2 g_hk - p_h p_k)
        lhs = np.einsum("hjk,j->hk", geom.R_vv, geom.p_up)
        rhs = c * (k2 * g - np.outer(p, p))
        assert np.max(np.abs(lhs - rhs)) <= 1e-5 * max(1.0, np.max(np.abs(rhs)))
        # full form: R_kij = c (g_jk p_i - g_ik p_j)
        full = np.empty((2, 2, 2))
        for k in range(2):
            for i in range(2):
                for j in range(2):
                    full[k, i, j] = c * (g[j, k] * p[i] - g[i, k] * p[j])
        assert np.max(np.abs(geom.R_vv - full)) <= 1e-5 * max(1.0, np.max(np.abs(full)))


@pytest.mark.parametrize("s", builtin_structures(2) + [general_randers(2)],
                         ids=lambda s: s.label)
def test_R_transversal_to_momentum(s):
    for at in sample_points(s, 10, 23):
        geom = PointGeometry(s, at)
        res = np.einsum("kij,k->ij", geom.R_vv, geom.p_up)
        assert np.max(np.abs(res)) <= 1e-7 * max(1.0, np.max(np.abs(geom.R_vv)))


@pytest.mark.parametrize("s", [conformal_structure(2, -1.0), general_randers(2)],
                         ids=lambda s: s.label)
def test_h_curvature_closed_vs_fd(s):
    for at in sample_points(s, 2, 29):
        closed = PointGeometry(s, at).R_curv
        oracle = berwald_curvature_fd(s, at)
        scale = max(1.0, np.max(np.abs(oracle)))
        assert np.max(np.abs(closed - oracle)) <= 1e-4 * scale


def test_R_vv_is_contraction_of_h_curvature():
    # R_ijk = p_h R^h_ikj links the two curvature routes: by 1-homogeneity
    # of N in p, p_h B^h_jk = N_jk, which cancels the quadratic terms; the
    # last two slots of R^h are swapped because R_ijk is oriented to match
    # the adapted-frame bracket [delta_j, delta_k].
    s = general_randers(2)
    at = pt([0.2, -0.4], [1.1, 0.3])
    geom = PointGeometry(s, at)
    lhs = geom.R_vv
    rhs = np.einsum("h,hikj->ijk", at.p, geom.R_curv)
    assert np.max(np.abs(lhs - rhs)) <= 1e-9 * max(1.0, np.max(np.abs(lhs)))


# ---------------------------------------------------------------------------
# covariant derivative rules


def test_h_cov_of_metric_is_minus_twice_landsberg():
    s = general_randers(2)
    for at in sample_points(s, 3, 31):
        geom = PointGeometry(s, at)
        gupt = DTensor(geom, geom.g_up_jets, "uu")
        got = gupt.h_cov().values
        want = -2.0 * geom.L_uud
        assert np.max(np.abs(geom.L_uud)) > 1e-4  # non-vacuous: L != 0 here
        assert np.max(np.abs(got - want)) <= 1e-7 * max(1.0, np.max(np.abs(want)))


def test_v_cov_of_metric_is_minus_twice_cartan():
    s = general_randers(2)
    at = pt([0.3, 0.2], [0.9, -0.6])
    geom = PointGeometry(s, at)
    got = DTensor(geom, geom.g_up_jets, "uu").v_cov().values
    assert np.max(np.abs(got + 2.0 * geom.C_uuu)) <= 1e-8


def test_momentum_coordinate_covariant_derivatives():
    s = general_randers(2)
    at = pt([-0.2, 0.5], [1.3, 0.4])
    geom = PointGeometry(s, at)
    pd = DTensor(geom, geom.p_coord(3), "d")
    np.testing.assert_allclose(pd.h_cov().values, 0.0, atol=1e-10)
    np.testing.assert_allclose(pd.v_cov().values, np.eye(2), atol=1e-12)


def test_antisymmetrized_metric_derivative_vanishes():
    # g_jk|i - g_ik|j = 2 L_jki - 2 L_ikj = 0 by total symmetry of L
    s = general_randers(2)
    for at in sample_points(s, 3, 37):
        geom = PointGeometry(s, at)
        gdt = DTensor(geom, geom.g_down_jets, "dd").h_cov().values
        a = np.transpose(gdt, (2, 0, 1))  # a[i,j,k] = g_jk|i
        res = a - np.transpose(a, (1, 0, 2))
        assert np.max(np.abs(res)) <= 1e-7


def test_metric_delta_residual_equals_twice_landsberg():
    s = general_randers(2)
    at = pt([0.25, -0.15], [1.0, 0.55])
    geom = PointGeometry(s, at)
    res = float(np.max(np.abs(geom.h_cov(geom.g_down_jets, "dd").value)))
    assert res == pytest.approx(2.0 * np.max(np.abs(geom.L_ddd)), rel=1e-6)
    assert res > 1e-4
    # and elementwise: g_jk|i = 2 L_jki
    gdt = DTensor(geom, geom.g_down_jets, "dd").h_cov().values
    for j in range(2):
        for k in range(2):
            for i in range(2):
                assert gdt[j, k, i] == pytest.approx(2.0 * geom.L_ddd[j, k, i], abs=1e-9)


def test_landsberg_structure():
    s = general_randers(2)
    at = pt([0.4, -0.3], [0.8, 0.9])
    geom = PointGeometry(s, at)
    # total symmetry of the lowered tensor
    l = geom.L_ddd
    for perm in [(0, 2, 1), (1, 0, 2), (2, 1, 0)]:
        assert np.max(np.abs(l - np.transpose(l, perm))) <= 1e-9
    # momentum transversality in up and down slots
    assert np.max(np.abs(np.einsum("ijk,i->jk", geom.L_udd, at.p))) <= 1e-8
    assert np.max(np.abs(np.einsum("ijk,j->ik", geom.L_udd, geom.p_up))) <= 1e-8
    # mean Landsberg is the trace of the mixed form
    trace = np.einsum("sis->i", np.einsum("ijk,kl->ijl", geom.L_udd, np.eye(2)))
    np.testing.assert_allclose(trace, geom.J_down, atol=1e-9)


def test_dtensor_valence_errors():
    s = flat_structure(2)
    geom = PointGeometry(s, pt([0.0, 0.0], [1.0, 0.0]))
    with pytest.raises(ValenceError):
        DTensor(geom, geom.g_up_jets, "u")
    with pytest.raises(ValenceError):
        DTensor(geom, geom.g_up_jets, "ux")


# ---------------------------------------------------------------------------
# homogeneity in the momenta


@pytest.mark.parametrize("s", [conformal_structure(2, 1.0), general_randers(2)],
                         ids=lambda s: s.label)
def test_connection_homogeneity_degrees(s):
    at = pt([0.3, -0.2], [0.7, 0.5])
    at2 = ChartPoint(at.x, 2.0 * at.p)
    g1, g2 = PointGeometry(s, at), PointGeometry(s, at2)
    np.testing.assert_allclose(g2.N, 2.0 * g1.N, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(g2.B, g1.B, rtol=1e-9, atol=1e-12)
