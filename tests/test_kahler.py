"""Deformed bundle metric, almost complex structure, fundamental form,
bracket relations, and integrability.

Pinned values: the rank-one-update inverse is checked against guarded dense
inversion; the flat beta=1, c=-1 case is worked out by hand; the canonical
form of theta is asserted to near machine precision.
"""
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import builtin_structures, general_randers, pt

from cartanlab import checks
from cartanlab.cartan import conformal_structure, flat_structure, randers_dual, sample_points
from cartanlab.errors import EvaluationDomainError
from cartanlab.geometry import FrameVector, PointGeometry
from cartanlab.jets import ChartPoint, invert
from cartanlab.kahler import (
    BundleMetric,
    DeformationParams,
    almost_complex,
    fundamental_form,
    integrability_defect,
    nijenhuis,
    nijenhuis_table,
    theta_matrix,
    tube_predicate,
)

PARAM_SETS = [
    DeformationParams(alpha=1.0, beta=1.0, c=-1.0),
    DeformationParams(alpha=1.0, beta=1.0, c=0.0),
    DeformationParams(alpha=1.5, beta=0.7, c=-1.0),
    DeformationParams(alpha=1.0, beta=1.0, c=1.0),
    DeformationParams(alpha=2.0, beta=0.5, v="-(1 + tau)/4"),
]


def _sample(s, params, count, seed):
    return sample_points(s, count, seed, accept=tube_predicate(s, params))


# ---------------------------------------------------------------------------
# parameter validation


def test_params_validation():
    with pytest.raises(ValueError):
        DeformationParams(alpha=0.0)
    with pytest.raises(ValueError):
        DeformationParams(beta=-1.0)
    with pytest.raises(ValueError):
        DeformationParams(c=1.0, v=0.5)
    p = DeformationParams(alpha=2.0, beta=0.5, c=3.0)
    assert p.v_at(0.7) == pytest.approx(-3.0 * 2.0 * 0.25)
    assert p.c_at(0.7) == pytest.approx(3.0)
    q = DeformationParams(v="-2*tau")
    assert q.v_at(0.5) == pytest.approx(-1.0)
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
    for i in range(n):
        for j in range(n):
            # [delta_i, delta_j] = R_kij pdot^k
            br = FrameVector.delta_frame(geom, i).bracket(FrameVector.delta_frame(geom, j))
            np.testing.assert_allclose(br.h_values, 0.0, atol=1e-12)
            want = np.array([geom.R_vv[k, i, j] for k in range(n)])
            np.testing.assert_allclose(br.v_values, want, atol=1e-10)
            # [delta_i, pdot^j] = -B^j_ik pdot^k
            br = FrameVector.delta_frame(geom, i).bracket(FrameVector.vdot_frame(geom, j))
            np.testing.assert_allclose(br.h_values, 0.0, atol=1e-12)
            np.testing.assert_allclose(br.v_values, -geom.B[j, i, :], atol=1e-10)
            # [pdot^i, pdot^j] = 0
            br = FrameVector.vdot_frame(geom, i).bracket(FrameVector.vdot_frame(geom, j))
            np.testing.assert_allclose(br.h_values, 0.0, atol=1e-14)
            np.testing.assert_allclose(br.v_values, 0.0, atol=1e-14)


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
    geom = m.geom
    jd1 = almost_complex(m, FrameVector.delta_frame(geom, 0))
    np.testing.assert_allclose(jd1.h_values, 0.0, atol=1e-14)
    np.testing.assert_allclose(jd1.v_values, m.G_down[0], atol=1e-14)
    jv2 = almost_complex(m, FrameVector.vdot_frame(geom, 1))
    np.testing.assert_allclose(jv2.v_values, 0.0, atol=1e-14)
    np.testing.assert_allclose(jv2.h_values, -m.G_up[1], atol=1e-14)


@pytest.mark.parametrize("params", PARAM_SETS[:3], ids=lambda p: p.describe())
def test_j_squared_is_minus_identity(params):
    rng = np.random.default_rng(5)
    for s in [general_randers(2), conformal_structure(2, 1.0)]:
        for at in _sample(s, params, 3, rng):
            geom = PointGeometry(s, at)
            m = BundleMetric(geom, params)
            basis = [FrameVector.delta_frame(geom, i) for i in range(2)] + [
                FrameVector.vdot_frame(geom, i) for i in range(2)
            ]
            for x in basis:
                jjx = almost_complex(m, almost_complex(m, x))
                np.testing.assert_allclose(jjx.h_values, -x.h_values, atol=1e-10)
                np.testing.assert_allclose(jjx.v_values, -x.v_values, atol=1e-10)
            x = FrameVector(geom, rng.normal(size=2), rng.normal(size=2))
            jjx = almost_complex(m, almost_complex(m, x))
            np.testing.assert_allclose(jjx.h_values, -x.h_values, atol=1e-10)
            np.testing.assert_allclose(jjx.v_values, -x.v_values, atol=1e-10)


def test_metric_is_hermitian_under_j():
    rng = np.random.default_rng(71)
    s = general_randers(2)
    params = DeformationParams(alpha=1.5, beta=0.7, c=-1.0)
    at = pt([0.3, -0.1], [0.9, 0.8])
    geom = PointGeometry(s, at)
    m = BundleMetric(geom, params)
    for _ in range(20):
        x = FrameVector(geom, rng.normal(size=2), rng.normal(size=2))
        y = FrameVector(geom, rng.normal(size=2), rng.normal(size=2))
        jx, jy = almost_complex(m, x), almost_complex(m, y)
        assert m.inner(jx, jy) == pytest.approx(m.inner(x, y), rel=1e-10, abs=1e-10)


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
    geom = m.geom
    d1 = FrameVector.delta_frame(geom, 0)
    d2 = FrameVector.delta_frame(geom, 1)
    v1 = FrameVector.vdot_frame(geom, 0)
    assert fundamental_form(m, v1, d1) == pytest.approx(1.0, abs=1e-12)
    assert fundamental_form(m, d1, d2) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# whole-matrix Kahler checks against a per-basis reference


def _kahler_reference(m):
    """J^2 + 1, hermitian and theta residuals and the theta matrix, from
    `almost_complex` and `inner` one basis field at a time."""
    basis = FrameVector.basis(m.geom)
    jb = [almost_complex(m, b) for b in basis]
    j_sq = max(
        float(np.abs(almost_complex(m, jx).w.value + x.w.value).max())
        for x, jx in zip(basis, jb)
    )
    herm = max(
        abs(m.inner(jb[a], jb[b]) - m.inner(basis[a], basis[b]))
        for a in range(len(basis))
        for b in range(a, len(basis))
    )
    theta = np.array([[m.inner(x, y) for y in jb] for x in basis])
    n = m.n
    canonical = np.block([[np.zeros((n, n)), -np.eye(n)], [np.eye(n), np.zeros((n, n))]])
    return j_sq, herm, float(np.abs(theta - canonical).max()), theta


KAHLER_RUNNERS = (checks._r_j_squared, checks._r_hermitian, checks._r_theta_canonical)
KAHLER_PARAMS = [DeformationParams(c=-1.0), DeformationParams(alpha=1.5, beta=0.7)]


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
    # G^ij scaled by (1 + 1e-6) at one point, before the Gram matrix and J
    # are first read, reaches J^2, G(JX, JY) and theta alike
    s = conformal_structure(n, -1.0)
    at = _sample(s, params, 1, 29 + n)[0]
    m = BundleMetric(PointGeometry(s, at), params)
    m.G_up_jets = m.G_up_jets * (1.0 + 1e-6)
    m.G_up = m.G_up_jets.value
    ctx = SimpleNamespace(metric=lambda idx: m)
    for run in KAHLER_RUNNERS:
        assert run(ctx, 0, at) >= 5e-7, run.__name__


# ---------------------------------------------------------------------------
# Nijenhuis tensor and integrability


def _nij_norm(s, at, params, pair, geom=None, metric=None):
    njv = nijenhuis(s, at, params, pair, geom=geom, metric=metric)
    return max(np.max(np.abs(njv.h_values)), np.max(np.abs(njv.v_values)))


@pytest.mark.parametrize("c_params", [-1.0, 2.0], ids=["matching", "mismatched"])
def test_nijenhuis_table_matches_single_brackets(c_params):
    s = conformal_structure(3, -1.0)
    params = DeformationParams(alpha=1.3, beta=0.8, c=c_params)
    at = _sample(s, params, 1, 43)[0]
    m = BundleMetric(PointGeometry(s, at), params)
    table = nijenhuis_table(m)
    assert not table.flags.writeable
    basis = FrameVector.basis(m.geom)
    worst = 0.0
    for a in range(len(basis)):
        for b in range(a + 1, len(basis)):
            x, y = basis[a], basis[b]
            jx, jy = almost_complex(m, x), almost_complex(m, y)
            want = (
                jx.bracket(jy) - almost_complex(m, jx.bracket(y))
                - almost_complex(m, x.bracket(jy)) - x.bracket(y)
            )
            np.testing.assert_allclose(table[a, b], want.w.value, rtol=0.0, atol=1e-12)
            worst = max(worst, np.abs(want.w.value).max())
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


def test_mismatched_curvature_is_detected():
    s = conformal_structure(2, 1.0)
    params = DeformationParams(c=2.0)
    hits = 0
    for at in _sample(s, params, 5, 29):
        if _nij_norm(s, at, params, (("h", 0), ("h", 1))) > 1e-2:
            hits += 1
        assert integrability_defect(s, at, params).R_res > 1e-2
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
        d = integrability_defect(s, at, params)
        assert d.A_res <= 1e-7
        assert d.A_res_g <= 1e-7


def test_integrability_defect_r_residual_matches_structure():
    s = conformal_structure(2, -1.0)
    params = DeformationParams(c=-1.0)
    for at in _sample(s, params, 4, 41):
        assert integrability_defect(s, at, params).R_res <= 1e-5


def test_frame_slots_are_shared_and_validated():
    from cartanlab.errors import ValenceError
    from cartanlab.geometry import frame_slots, slot_index
    from cartanlab.levicivita import curvature_defn

    s = conformal_structure(2, c=-1.0)
    params = DeformationParams(c=-1.0)
    at = pt([0.25, -0.1], [0.9, 0.55])
    geom = PointGeometry(s, at)
    slots = frame_slots(2)
    assert slots == [("h", 0), ("h", 1), ("v", 0), ("v", 1)]
    assert [slot_index(sl, 2) for sl in slots] == [0, 1, 2, 3]
    # the basis fields are the unit vectors of the adapted frame, in slot order
    for a, (field, sl) in enumerate(zip(FrameVector.basis(geom), slots)):
        unit = np.eye(4)[a]
        np.testing.assert_array_equal(field.h_values, unit[:2])
        np.testing.assert_array_equal(field.v_values, unit[2:])
        np.testing.assert_array_equal(FrameVector.slot(geom, sl).w.c, field.w.c)
    for bad in (("h", 2), ("v", -1), ("x", 0)):
        with pytest.raises(ValenceError):
            slot_index(bad, 2)
        with pytest.raises(ValenceError):
            FrameVector.slot(geom, bad)
        with pytest.raises(ValenceError):
            nijenhuis(s, at, params, (bad, ("h", 0)), geom=geom)
        with pytest.raises(ValenceError):
            curvature_defn(s, at, params, ("h", 0), bad, ("v", 1), geom=geom)
