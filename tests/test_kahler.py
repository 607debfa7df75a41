"""Deformed bundle metric, almost complex structure, fundamental form,
bracket relations, and integrability.

Pinned values: the rank-one-update inverse is checked against guarded dense
inversion; the flat beta=1, c=-1 case is worked out by hand; the canonical
form of theta is asserted to near machine precision.
"""
import json
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import builtin_structures, general_randers, pt

from cartanlab import checks, geometry, kahler
from cartanlab.cartan import conformal_structure, flat_structure, randers_dual, sample_points
from cartanlab.errors import EvaluationDomainError, ValenceError
from cartanlab.geometry import PointGeometry, frame_block, lie_brackets, slot_index
from cartanlab.jets import invert
from cartanlab.kahler import (
    BundleMetric,
    DeformationParams,
    nijenhuis_table,
    theta_matrix,
    tube_predicate,
)
from cartanlab.manifest import parse_manifest

PARAM_SETS = [
    DeformationParams(alpha=1.0, beta=1.0, c=-1.0),
    DeformationParams(alpha=1.0, beta=1.0, c=0.0),
    DeformationParams(alpha=1.5, beta=0.7, c=-1.0),
    DeformationParams(alpha=1.0, beta=1.0, c=1.0),
    DeformationParams(alpha=2.0, beta=0.5, v="-(1 + tau)/4"),
]


def _sample(s, params, count, seed):
    return sample_points(s, count, seed, accept=tube_predicate(s, params))


# test-only references on (2n,) adapted components, built from G_down and
# G_up by the paper's rules, never from `complex_jets` or `gram`


def _j_of(m, x):
    """J(X): delta_i -> G_ik pdot^k, pdot^i -> -G^ik delta_k."""
    n = m.n
    return np.concatenate([-m.G_up @ x[n:], m.G_down @ x[:n]])


def _g_of(m, x, y):
    """G(X, Y) = G_ij X^i Y^j + G^ij Xbar_i Ybar_j."""
    n = m.n
    return float(x[:n] @ m.G_down @ y[:n] + x[n:] @ m.G_up @ y[n:])


def _theta_of(m, x, y):
    """theta(X, Y) = G(X, JY)."""
    return _g_of(m, x, _j_of(m, y))


def _bracket(geom, x, y):
    """[X, Y] of two (2n,) jet fields: `lie_brackets` on one row each."""
    return lie_brackets(geom, x[None], y[None]).value[0, 0]


# ---------------------------------------------------------------------------
# parameter validation


def test_params_validation():
    with pytest.raises(ValueError):
        DeformationParams(alpha=0.0)
    with pytest.raises(ValueError):
        DeformationParams(beta=-1.0)
    with pytest.raises(ValueError):
        DeformationParams(c=1.0, v=0.5)
    with pytest.raises(ValueError, match="unsupported deformation profile"):
        DeformationParams(v=lambda tau: 0.5)  # a profile is a number or a string in tau
    p = DeformationParams(alpha=2.0, beta=0.5, c=3.0)
    assert p.v_at(0.7) == pytest.approx(-3.0 * 2.0 * 0.25)
    assert p.c_at(0.7) == pytest.approx(3.0)
    q = DeformationParams(v="-2*tau")
    assert q.v_at(0.5) == pytest.approx(-1.0)
    assert q.gauge(0.5) == pytest.approx(1.0 + 2.0 * 0.5 * -1.0)
    assert "alpha=2" in p.describe()
    assert "alpha=1" in q.describe()


# ---------------------------------------------------------------------------
# metric blocks


def test_zero_deformation_rescales_fundamental():
    s = randers_dual(n=2)
    at = pt([0.1, 0.3], [1.0, 0.2])
    geom = PointGeometry(s, at)
    m = BundleMetric(geom, DeformationParams(beta=2.0, c=0.0))
    np.testing.assert_allclose(m.G_down, geom.g_down / 2.0, rtol=1e-13)
    np.testing.assert_allclose(m.G_up, 2.0 * geom.g_up, rtol=1e-13)


def test_flat_hand_computed_blocks():
    s = flat_structure(2)
    at = pt([0.0, 0.0], [1.0, 0.0])
    m = BundleMetric(PointGeometry(s, at), DeformationParams(alpha=1.0, beta=1.0, c=-1.0))
    np.testing.assert_allclose(m.G_down, [[2.0, 0.0], [0.0, 1.0]], atol=1e-14)
    np.testing.assert_allclose(m.G_up, [[0.5, 0.0], [0.0, 1.0]], atol=1e-14)
    assert m.G_up[0, 0] == pytest.approx(0.5, abs=1e-14)
    np.testing.assert_allclose(invert(m.G_down), m.G_up, atol=1e-12)


def test_g_down_and_g_up_are_read_only_blocks_of_the_one_gram_matrix():
    s = conformal_structure(2, -1.0)
    m = BundleMetric(PointGeometry(s, pt([0.1, -0.2], [0.6, 0.3])), DeformationParams(c=-1.0))
    assert np.shares_memory(m.G_down, m.gram) and np.shares_memory(m.G_up, m.gram)
    np.testing.assert_array_equal(m.G_down, frame_block(m.gram_jets.value, "hh"))
    np.testing.assert_array_equal(m.G_up, frame_block(m.gram_jets.value, "vv"))
    for name in ("_jets", "G_down_jets", "G_up_jets"):
        assert not hasattr(m, name), name
    for name in ("G_down", "G_up"):
        with pytest.raises(AttributeError):
            setattr(m, name, np.eye(2))
        with pytest.raises(ValueError):
            getattr(m, name)[0, 0] = 1.0


def test_positivity_domain_boundary():
    s = flat_structure(2)
    params = DeformationParams(alpha=1.0, beta=1.0, c=1.0)
    ok = BundleMetric(PointGeometry(s, pt([0.0, 0.0], [0.99, 0.0])), params)  # 2 tau = 0.9801
    assert np.linalg.eigvalsh(ok.G_down)[0] > 0
    with pytest.raises(EvaluationDomainError) as ei:
        BundleMetric(PointGeometry(s, pt([0.0, 0.0], [1.0, 0.0])), params)  # 2 tau = 1 exactly
    assert "alpha + 2 tau v" in str(ei.value)
    with pytest.raises(EvaluationDomainError):
        BundleMetric(PointGeometry(s, pt([0.0, 0.0], [1.2, 0.0])), params)


@pytest.mark.parametrize("params", PARAM_SETS, ids=lambda p: p.describe())
def test_inverse_pair_and_positivity(params):
    for s in [conformal_structure(2, -1.0), general_randers(2)]:
        for at in _sample(s, params, 4, 13):
            m = BundleMetric(PointGeometry(s, at), params)
            np.testing.assert_allclose(m.G_down @ m.G_up, np.eye(2), atol=1e-10)
            np.testing.assert_allclose(invert(m.G_down), m.G_up, atol=1e-10)
            assert np.linalg.eigvalsh(m.G_down)[0] > 0
            assert np.linalg.eigvalsh(m.G_up)[0] > 0


# ---------------------------------------------------------------------------
# bracket relations of the adapted frame


def test_frame_bracket_relations():
    s = general_randers(2)
    at = pt([0.2, -0.3], [1.0, 0.6])
    geom = PointGeometry(s, at)
    n = 2
    delta, vdot = geom.basis_jets[:n], geom.basis_jets[n:]
    for i in range(n):
        for j in range(n):
            # [delta_i, delta_j] = R_kij pdot^k
            br = _bracket(geom, delta[i], delta[j])
            np.testing.assert_allclose(br[:n], 0.0, atol=1e-12)
            want = np.array([geom.R_vv[k, i, j] for k in range(n)])
            np.testing.assert_allclose(br[n:], want, atol=1e-10)
            # [delta_i, pdot^j] = -B^j_ik pdot^k
            br = _bracket(geom, delta[i], vdot[j])
            np.testing.assert_allclose(br[:n], 0.0, atol=1e-12)
            np.testing.assert_allclose(br[n:], -geom.B[j, i, :], atol=1e-10)
            # [pdot^i, pdot^j] = 0
            br = _bracket(geom, vdot[i], vdot[j])
            np.testing.assert_allclose(br[:n], 0.0, atol=1e-14)
            np.testing.assert_allclose(br[n:], 0.0, atol=1e-14)


@pytest.mark.parametrize(
    "s, at",
    [
        (general_randers(3), pt([0.2, -0.3, 0.1], [1.0, 0.6, -0.4])),
        (conformal_structure(4, -1.0), pt([0.3, -0.2, 0.1, 0.25], [0.7, -0.5, 0.4, 0.6])),
    ],
    ids=["randers-curved-3d", "conformal-4d"],
)
def test_basis_bracket_table_relations(s, at):
    geom = PointGeometry(s, at)
    n = geom.n
    h, v = slice(0, n), slice(n, 2 * n)
    br = geom.basis_brackets  # [F_a, F_b] at [a, b, :]
    if s.label.startswith("randers"):
        assert np.abs(geom.L_uud).max() > 1e-3  # a non-Landsberg point
    # every bracket of the adapted basis is vertical
    np.testing.assert_allclose(br[:, :, h], 0.0, atol=1e-12)
    # [delta_i, delta_j] = R_kij pdot^k
    np.testing.assert_allclose(br[h, h, v], np.einsum("kij->ijk", geom.R_vv), atol=1e-12)
    # [delta_i, pdot^j] = -B^j_ik pdot^k and [pdot^i, delta_j] = B^i_jk pdot^k
    np.testing.assert_allclose(br[h, v, v], -np.einsum("jik->ijk", geom.B), atol=1e-12)
    np.testing.assert_allclose(br[v, h, v], geom.B, atol=1e-12)
    # [pdot^i, pdot^j] = 0
    np.testing.assert_allclose(br[v, v, v], 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# almost complex structure


def test_j_on_basis_fields():
    s = flat_structure(2)
    at = pt([0.0, 0.0], [1.0, 0.5])
    m = BundleMetric(PointGeometry(s, at), DeformationParams(c=-1.0))
    j = m.complex_jets.value  # row a is J(F_a)
    jd1 = j[0]
    np.testing.assert_allclose(jd1[:2], 0.0, atol=1e-14)
    np.testing.assert_allclose(jd1[2:], m.G_down[0], atol=1e-14)
    jv2 = j[3]
    np.testing.assert_allclose(jv2[2:], 0.0, atol=1e-14)
    np.testing.assert_allclose(jv2[:2], -m.G_up[1], atol=1e-14)


@pytest.mark.parametrize("n", [2, 3])
def test_j_keeps_the_x_cap_of_the_metric_jets(n):
    # an order-4 geometry gives x-capped G jets: J must declare the same
    # capped table, and its derivatives must be those of its two blocks
    s = conformal_structure(n, -1.0)
    at = pt(np.linspace(0.1, -0.2, n), np.linspace(0.7, 0.4, n))
    geom = PointGeometry(s, at, order=4)
    m = BundleMetric(geom, DeformationParams(c=-1.0))
    j = m.complex_jets
    assert j.xcap < j.order  # non-vacuous: the metric jets are capped
    assert j.c.shape[-1] == j._table.size
    for chart in (geom.pvars, geom.xvars):
        d = j.derivs(chart).value
        g = m.gram_jets.derivs(chart).value
        np.testing.assert_array_equal(frame_block(d, "hv"), frame_block(g, "hh"))
        np.testing.assert_array_equal(frame_block(d, "vh"), -frame_block(g, "vv"))
        np.testing.assert_array_equal(frame_block(d, "hh"), 0.0)
        np.testing.assert_array_equal(frame_block(d, "vv"), 0.0)


@pytest.mark.parametrize("params", PARAM_SETS[:3], ids=lambda p: p.describe())
def test_j_squared_is_minus_identity(params):
    rng = np.random.default_rng(5)
    for s in [general_randers(2), conformal_structure(2, 1.0)]:
        for at in _sample(s, params, 3, rng):
            m = BundleMetric(PointGeometry(s, at), params)
            j = m.complex_jets.value  # J(X) is x @ j
            for x in np.eye(4):
                np.testing.assert_allclose(x @ j @ j, -x, atol=1e-10)
            x = np.concatenate([rng.normal(size=2), rng.normal(size=2)])
            np.testing.assert_allclose(x @ j @ j, -x, atol=1e-10)


def test_metric_is_hermitian_under_j():
    rng = np.random.default_rng(71)
    s = general_randers(2)
    params = DeformationParams(alpha=1.5, beta=0.7, c=-1.0)
    at = pt([0.3, -0.1], [0.9, 0.8])
    m = BundleMetric(PointGeometry(s, at), params)
    j, gram = m.complex_jets.value, m.gram
    for _ in range(20):
        x = np.concatenate([rng.normal(size=2), rng.normal(size=2)])
        y = np.concatenate([rng.normal(size=2), rng.normal(size=2)])
        jx, jy = x @ j, y @ j
        assert jx @ gram @ jy == pytest.approx(x @ gram @ y, rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("s", [conformal_structure(3, -1.0), general_randers(3)], ids=lambda s: s.label)
def test_j_is_the_gram_jet_times_omega_exactly(s):
    # J = gram_jets Omega takes each entry as +-1 times one Gram coefficient,
    # so J holds the coefficients of the two Gram blocks bit for bit
    params = DeformationParams(alpha=2.0, beta=0.5, v="-(1 + tau)/4")
    m = BundleMetric(PointGeometry(s, _sample(s, params, 1, 61)[0]), params)
    gram, j = m.gram_jets.c, m.complex_jets.c
    down, up = frame_block(gram, "hh"), frame_block(gram, "vv")
    assert np.array_equal(frame_block(j, "hv"), down) and np.array_equal(frame_block(j, "vh"), -up)
    for zero in ("hv", "vh"):
        assert not frame_block(gram, zero).any()
    for zero in ("hh", "vv"):
        assert not frame_block(j, zero).any()


# ---------------------------------------------------------------------------
# fundamental 2-form


def test_theta_is_canonical_and_params_independent():
    s = general_randers(2)
    at = pt([0.2, 0.4], [1.1, -0.3])
    canonical = np.block(
        [[np.zeros((2, 2)), -np.eye(2)], [np.eye(2), np.zeros((2, 2))]]
    )
    mats = []
    for params in [DeformationParams(c=0.0), DeformationParams(c=-1.0)]:
        th = theta_matrix(BundleMetric(PointGeometry(s, at), params))
        np.testing.assert_allclose(th, canonical, atol=1e-12)
        mats.append(th)
    np.testing.assert_allclose(mats[0], mats[1], atol=1e-12)
    # spot values
    m = BundleMetric(PointGeometry(s, at), DeformationParams(c=-1.0))
    d1, d2, v1, _ = np.eye(4)
    assert _theta_of(m, v1, d1) == pytest.approx(1.0, abs=1e-12)
    assert _theta_of(m, d1, d2) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# whole-matrix Kahler checks against a per-basis reference


def _kahler_reference(m):
    """J^2 + 1, hermitian and theta residuals and the theta matrix, from
    `_j_of` and `_g_of` one basis field at a time."""
    n = m.n
    basis = np.eye(2 * n)
    jb = [_j_of(m, b) for b in basis]
    j_sq = max(float(np.abs(_j_of(m, jx) + x).max()) for x, jx in zip(basis, jb))
    herm = max(
        abs(_g_of(m, jb[a], jb[b]) - _g_of(m, basis[a], basis[b]))
        for a in range(len(basis))
        for b in range(a, len(basis))
    )
    theta = np.array([[_g_of(m, x, y) for y in jb] for x in basis])
    canonical = np.block([[np.zeros((n, n)), -np.eye(n)], [np.eye(n), np.zeros((n, n))]])
    return j_sq, herm, float(np.abs(theta - canonical).max()), theta


KAHLER_RUNNERS = (checks._r_j_squared, checks._r_hermitian, checks._r_theta_canonical)
KAHLER_PARAMS = [DeformationParams(c=-1.0), DeformationParams(alpha=1.5, beta=0.7)]


def _scaled_g_up(n, factor):
    """A multiplier of the 2n x 2n Gram matrix that plants ``factor`` in its
    G^ij block alone."""
    scale = np.ones((2 * n, 2 * n))
    frame_block(scale, "vv")[...] = factor
    return scale


@pytest.mark.parametrize("params", KAHLER_PARAMS, ids=["matching", "mismatched"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_matrix_kahler_checks_match_per_basis_reference(n, params):
    for s in (conformal_structure(n, -1.0), general_randers(n)):
        at = _sample(s, params, 1, 17 + n)[0]
        m = BundleMetric(PointGeometry(s, at), params)
        assert not m.gram.flags.writeable
        ctx = SimpleNamespace(metric=lambda idx: m)
        *want, theta = _kahler_reference(m)
        got = [run(ctx, 0, at) for run in KAHLER_RUNNERS]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(theta_matrix(m), theta, rtol=0.0, atol=1e-13)
        assert max(got) <= 1e-13


@pytest.mark.parametrize("params", KAHLER_PARAMS, ids=["matching", "mismatched"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_matrix_kahler_checks_see_a_planted_metric_defect(n, params):
    # G^ij scaled by (1 + 1e-6) in the Gram matrix and its jet at one point,
    # before J is first read, reaches J^2, G(JX, JY) and theta alike
    s = conformal_structure(n, -1.0)
    at = _sample(s, params, 1, 29 + n)[0]
    m = BundleMetric(PointGeometry(s, at), params)
    m.gram_jets = m.gram_jets * _scaled_g_up(n, 1.0 + 1e-6)
    m.gram = m.gram_jets.value
    ctx = SimpleNamespace(metric=lambda idx: m)
    for run in KAHLER_RUNNERS:
        assert run(ctx, 0, at) >= 5e-7, run.__name__


# the check ids that fail at every point once every metric's G^ij is off by
# 1e-6; `gradient_duality` checks only that G_up inverts G_down, so where it
# fails the three others must fail too before it can be retired
G_UP_KILLERS = ("kahler.hermitian", "kahler.theta_canonical", "levicivita.metric_compatible")
G_UP_DUALITY = "operators.gradient_duality"


def test_a_planted_g_up_defect_fails_every_record_of_its_killers(monkeypatch):
    manifest = parse_manifest(json.dumps({
        "structures": [
            {"family": "riemannian_conformal", "n": 2, "c": -1.0},
            {"family": "randers", "n": 2, "c": 0.0, "drift": 0.3},
        ],
        "params": [
            {"label": "hyperbolic", "alpha": 1.0, "beta": 1.0, "c": -1.0},
            {"label": "flat-gauge", "alpha": 1.0, "beta": 1.0, "c": 0.0},
        ],
        "sampling": {"seed": 0, "count": 4},
    }))
    assert checks.run_suite(manifest)["summary"]["failed"] == 0
    init = kahler.BundleMetric.__init__

    def planted(self, geom, params):
        init(self, geom, params)
        self.gram = self.gram * _scaled_g_up(geom.n, 1.0 + 1e-6)

    monkeypatch.setattr(kahler.BundleMetric, "__init__", planted)
    records = checks.run_suite(manifest)["checks"]
    failed = {}
    for cid in (*G_UP_KILLERS, G_UP_DUALITY):
        mine = [r for r in records if r["check_id"] == cid]
        assert mine and not any(r["pass"] for r in mine), cid
        failed[cid] = {(r["structure"], r["point"]["index"]) for r in mine}
    for cid in G_UP_KILLERS:
        assert failed[G_UP_DUALITY] <= failed[cid], cid


# the runners whose folds must carry a NaN of G^ij into their residual
G_UP_NAN_READERS = (
    "kahler.positive_definite",
    "levicivita.curvature_blocks_universal",
    "levicivita.einstein_forward",
    "operators.gradient_duality",
    "operators.laplacian_routes",
    "operators.k2_harmonic",
)


def test_a_nan_metric_fails_every_record_of_its_readers(monkeypatch):
    # Python's max(0.0, nan) is 0.0: a fold by max or min would pass these
    # records with residual 0.0 on a metric whose G^ij is NaN; at n = 3
    # eigvalsh raises numpy's LinAlgError on it, which would abort the suite
    manifest = parse_manifest(json.dumps({
        "structures": [
            {"family": "riemannian_conformal", "n": 2, "c": -1.0},
            {"family": "randers", "n": 2, "c": 0.0, "drift": 0.3},
            {"family": "riemannian_conformal", "n": 3, "c": -1.0},
        ],
        "params": [
            {"label": "hyperbolic", "alpha": 1.0, "beta": 1.0, "c": -1.0},
            {"label": "flat-gauge", "alpha": 1.0, "beta": 1.0, "c": 0.0},
        ],
        "sampling": {"seed": 0, "count": 4},
    }))
    init = kahler.BundleMetric.__init__

    def planted(self, geom, params):
        init(self, geom, params)
        self.gram = self.gram * _scaled_g_up(geom.n, np.nan)

    monkeypatch.setattr(kahler.BundleMetric, "__init__", planted)
    records = checks.run_suite(manifest, only=G_UP_NAN_READERS)["checks"]
    for cid in G_UP_NAN_READERS:
        mine = [r for r in records if r["check_id"] == cid]
        assert mine and not any(r["pass"] for r in mine), cid
        assert all(r["residual"] is None and "non-finite" in r["error"] for r in mine), cid


def test_structure_runners_carry_a_nan_into_their_residual():
    s = conformal_structure(2, -1.0)
    at = pt([0.1, -0.2], [0.6, 0.3])
    geom = PointGeometry(s, at)
    C = geom.C_uuu.copy()
    C[0, 0, 1] = np.nan
    P = geom.P_curv.copy()
    P[1, 1, 1, 1] = np.nan  # N and B stay finite, so only the second of the two maxima is NaN
    ctx = SimpleNamespace(geometry=lambda idx: SimpleNamespace(C_uuu=C, B=geom.B, N=geom.N, P_curv=P))
    assert np.isnan(checks._r_cartan_symmetry(ctx, 0, at))
    assert np.isnan(checks._r_connection_homogeneity(ctx, 0, at))


def test_a_non_finite_profile_is_refused():
    for kwargs in ({"alpha": np.nan}, {"beta": np.inf}, {"c": np.nan}, {"v": -np.inf},
                   {"v": "1e200*1e200"}, {"c": 1e300, "beta": 1e10}):
        with pytest.raises(ValueError, match="finite"):
            DeformationParams(**kwargs)
    # a profile that reads tau is finite or not point by point: the metric
    # refuses the points where it is not
    params = DeformationParams(v="1e200*1e200*tau")
    s = conformal_structure(2, -1.0)
    with pytest.raises(EvaluationDomainError, match="not finite"):
        BundleMetric(PointGeometry(s, pt([0.1, -0.2], [0.6, 0.3])), params)


# ---------------------------------------------------------------------------
# Nijenhuis tensor and integrability


def _nij_norm(s, at, params, pair, geom=None, metric=None):
    """Largest |N_J(X, Y)| component for one pair of frame slots."""
    if metric is None:
        metric = BundleMetric(geom if geom is not None else PointGeometry(s, at), params)
    a, b = (slot_index(sl, metric.n) for sl in pair)
    return float(np.abs(nijenhuis_table(metric)[a, b]).max())


# the conformal n = 3 inputs keep their first ids
NIJENHUIS_INPUTS = [
    pytest.param(conformal_structure(3, -1.0), -1.0, id="matching"),
    pytest.param(conformal_structure(3, -1.0), 2.0, id="mismatched"),
    *(
        pytest.param(s, c, id=f"{s.label}-{kind}")
        for s in (conformal_structure(4, -1.0), general_randers(3))
        for c, kind in ((-1.0, "matching"), (2.0, "mismatched"))
    ),
]


@pytest.mark.parametrize("s, c_params", NIJENHUIS_INPUTS)
def test_nijenhuis_table_matches_single_brackets(s, c_params, monkeypatch):
    # the table takes the brackets of the J-images from the basis bracket
    # table by the Leibniz rule, so it builds no bracket table of its own
    params = DeformationParams(alpha=1.3, beta=0.8, c=c_params)
    at = _sample(s, params, 1, 43)[0]
    m = BundleMetric(PointGeometry(s, at), params)
    m.geom.basis_brackets
    calls = []
    brackets = geometry.lie_brackets
    holders = [mod for name, mod in sys.modules.items() if name.startswith("cartanlab") and hasattr(mod, "lie_brackets")]
    with monkeypatch.context() as patched:
        for mod in holders:  # every module that holds the name, however it was imported
            patched.setattr(mod, "lie_brackets", lambda *args: calls.append(args) or brackets(*args))
        table = nijenhuis_table(m)
    assert len(calls) == 0
    assert not table.flags.writeable
    assert not m.gram_derivatives.flags.writeable
    geom, basis, jb = m.geom, m.geom.basis_jets, m.complex_jets  # row a: F_a, J(F_a)
    j = jb.value
    worst = 0.0
    dim = 2 * m.n
    for a in range(dim):
        for b in range(a + 1, dim):
            want = (
                _bracket(geom, jb[a], jb[b]) - _bracket(geom, jb[a], basis[b]) @ j
                - _bracket(geom, basis[a], jb[b]) @ j - _bracket(geom, basis[a], basis[b])
            )
            np.testing.assert_allclose(table[a, b], want, rtol=0.0, atol=1e-12)
            worst = max(worst, np.abs(want).max())
    if c_params != -1.0:
        assert worst > 1e-2  # the comparison is not between two zeros


def test_vertical_pair_vanishes_when_integrable():
    # the vertical-vertical evaluation carries a curvature term through
    # [J pdot, J pdot], so it vanishes together with the horizontal pair,
    # not unconditionally
    for c in (-1.0, 1.0):
        s = conformal_structure(2, c)
        params = DeformationParams(c=c)
        for at in _sample(s, params, 3, 3):
            assert _nij_norm(s, at, params, (("v", 0), ("v", 1))) <= 1e-9


def test_flat_zero_deformation_is_integrable():
    s = flat_structure(2)
    at = pt([0.4, -0.6], [0.8, 0.3])
    for pair in [(("h", 0), ("h", 1)), (("h", 0), ("v", 1)), (("v", 0), ("h", 1))]:
        assert _nij_norm(s, at, DeformationParams(c=0.0), pair) <= 1e-12


@pytest.mark.parametrize("c", [-1.0, 1.0])
def test_matching_constant_curvature_is_integrable(c):
    s = conformal_structure(2, c)
    params = DeformationParams(alpha=1.0, beta=1.0, c=c)
    pairs = [(("h", 0), ("h", 1)), (("h", 0), ("v", 1)), (("v", 1), ("h", 0))]
    for at in _sample(s, params, 5, 19):
        geom = PointGeometry(s, at)
        m = BundleMetric(geom, params)
        for pair in pairs:
            assert _nij_norm(s, at, params, pair, geom, m) <= 1e-5


def test_matching_with_rescaled_params_is_integrable():
    # the deformation constants scale v = -c alpha beta^2; integrability only
    # needs the effective c to match the structure constant
    s = conformal_structure(2, -1.0)
    params = DeformationParams(alpha=1.5, beta=0.7, c=-1.0)
    for at in _sample(s, params, 3, 23):
        assert _nij_norm(s, at, params, (("h", 0), ("h", 1))) <= 1e-5


def _r_residual(s, at, params):
    """Distance of R_kij (``R_vv``) from the constant-curvature form
    c (g_jk p_i - g_ik p_j), with the effective constant c = -v(tau)/(alpha beta^2)."""
    geom = PointGeometry(s, at)
    gd, p = geom.g_down, at.p
    want = params.c_at(geom.tau) * (np.einsum("jk,i->kij", gd, p) - np.einsum("ik,j->kij", gd, p))
    return float(np.abs(geom.R_vv - want).max())


def _anti_res(geom, metric):
    """delta_i M_jk + M_ir B^r_jk at [i, j, k] for the jet of an h-h metric
    block M, antisymmetrized over i < j."""
    t = np.einsum("jki->ijk", geom.delta(metric).value)
    t += np.einsum("ir,rjk->ijk", metric.value, geom.B)
    i, j = np.triu_indices(geom.n, 1)
    return float(np.abs(t[i, j] - t[j, i]).max(initial=0.0))


def test_mismatched_curvature_is_detected():
    s = conformal_structure(2, 1.0)
    params = DeformationParams(c=2.0)
    hits = 0
    for at in _sample(s, params, 5, 29):
        if _nij_norm(s, at, params, (("h", 0), ("h", 1))) > 1e-2:
            hits += 1
        assert _r_residual(s, at, params) > 1e-2
    assert hits == 5


def test_deformation_profile_perturbation_is_detected():
    c = -1.0
    s = conformal_structure(2, c)
    base_v = -c * 1.0 * 1.0  # alpha = beta = 1
    params = DeformationParams(v=base_v + 0.1)
    for at in _sample(s, params, 5, 31):
        assert _nij_norm(s, at, params, (("h", 0), ("h", 1))) > 1e-2


@pytest.mark.parametrize("s", builtin_structures(2) + [general_randers(2)],
                         ids=lambda s: s.label)
def test_antisymmetrized_metric_defect_vanishes_for_any_profile(s):
    params = DeformationParams(alpha=2.0, beta=0.5, v="-(1 + tau)/4")
    for at in _sample(s, params, 3, 37):
        geom = PointGeometry(s, at)
        assert _anti_res(geom, frame_block(BundleMetric(geom, params).gram_jets, "hh")) <= 1e-7
        assert _anti_res(geom, geom.g_down_jets) <= 1e-7


def test_integrability_defect_r_residual_matches_structure():
    s = conformal_structure(2, -1.0)
    params = DeformationParams(c=-1.0)
    for at in _sample(s, params, 4, 41):
        assert _r_residual(s, at, params) <= 1e-5


def test_frame_slots_are_shared_and_validated():
    geom = PointGeometry(conformal_structure(2, c=-1.0), pt([0.25, -0.1], [0.9, 0.55]))
    slots = [("h", 0), ("h", 1), ("v", 0), ("v", 1)]
    assert [slot_index(sl, 2) for sl in slots] == [0, 1, 2, 3]
    # the basis fields are the constant unit vectors of the adapted frame, in
    # slot order, and every user reads the one read-only table
    basis = geom.basis_jets
    np.testing.assert_array_equal(basis.value, np.eye(4))
    assert np.abs(basis.c[..., 1:]).max() == 0.0
    assert geom.basis_jets is basis and not basis.c.flags.writeable
    for bad in (("h", 2), ("v", -1), ("x", 0)):
        with pytest.raises(ValenceError):
            slot_index(bad, 2)
