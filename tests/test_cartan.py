"""Structure families and zero-order tensors.

The conformal family is checked against an FD Riemann-tensor oracle built
directly from the base metric components; nothing of the jet pipeline enters
that oracle.
"""
import sys

import numpy as np
import pytest

from cartanlab.cartan import (
    MAX_EXPRESSION_DEPTH,
    CartanStructure,
    conformal_structure,
    expression_structure,
    flat_structure,
    parse_scalar_expression,
    randers_dual,
    riemannian_dual,
    sample_points,
)
from cartanlab import cartan
from cartanlab.errors import ConditioningError, EvaluationDomainError, RegularityError
from cartanlab.geometry import PointGeometry
from cartanlab.jets import ChartPoint, fd_stencil, jet_eval

from conftest import general_randers


def _pt(x, p):
    return ChartPoint(np.asarray(x, dtype=float), np.asarray(p, dtype=float))


def builtin_structures(n=2):
    return [
        flat_structure(n),
        conformal_structure(n, -1.0),
        conformal_structure(n, 1.0),
        randers_dual(n=n),
    ]


# ---------------------------------------------------------------------------
# FD oracle for the sectional curvature of a base metric a_ij(x), n = 2


def _christoffel_fd(a_fn, x, h=1e-4):
    a = a_fn(x)
    ainv = np.linalg.inv(a)
    da = np.empty((2, 2, 2))  # da[k, i, j] = d a_ij / d x^k
    for k in range(2):
        e = np.zeros(2)
        e[k] = h
        da[k] = (a_fn(x + e) - a_fn(x - e)) / (2 * h)
    gam = np.empty((2, 2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                s = 0.0
                for m in range(2):
                    s += ainv[i, m] * (da[j, m, k] + da[k, m, j] - da[m, j, k])
                gam[i, j, k] = 0.5 * s
    return gam


def sectional_curvature_fd(a_fn, x, h=1e-4):
    gam = _christoffel_fd(a_fn, x, h)
    dgam = np.empty((2, 2, 2, 2))  # dgam[l, i, j, k] = d Gamma^i_jk / d x^l
    for l in range(2):
        e = np.zeros(2)
        e[l] = h
        dgam[l] = (_christoffel_fd(a_fn, x + e, h) - _christoffel_fd(a_fn, x - e, h)) / (2 * h)
    # R^i_jkl = d_k Gamma^i_lj - d_l Gamma^i_kj + G^i_ks G^s_lj - G^i_ls G^s_kj
    riem = np.empty((2, 2, 2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    s = dgam[k, i, l, j] - dgam[l, i, k, j]
                    for m in range(2):
                        s += gam[i, k, m] * gam[m, l, j] - gam[i, l, m] * gam[m, k, j]
                    riem[i, j, k, l] = s
    a = a_fn(x)
    r1212 = sum(a[0, m] * riem[m, 1, 0, 1] for m in range(2))
    return r1212 / (a[0, 0] * a[1, 1] - a[0, 1] ** 2)


# ---------------------------------------------------------------------------
# riemannian and conformal families


def test_identity_base_gives_flat_hamiltonian():
    s = riemannian_dual(n=2)
    pt = _pt([0.2, -0.4], [1.0, 0.5])
    f = PointGeometry(s, pt)
    np.testing.assert_allclose(f.g_up, np.eye(2), atol=1e-12)
    assert s.k2_values(pt.x, pt.p) == pytest.approx(1.25, rel=1e-14)


@pytest.mark.parametrize("u", [1.0, -1.0])
def test_conformal_base_curvature(u):
    # the base metric delta/(1+(u/4)|x|^2)^2 has sectional curvature u ...
    def a_fn(x):
        phi = 1.0 + (u / 4.0) * float(x @ x)
        return np.eye(2) / phi**2

    for x in [np.array([0.3, -0.1]), np.array([0.0, 0.5])]:
        sec = sectional_curvature_fd(a_fn, x)
        assert sec == pytest.approx(u, abs=2e-4)
    # ... and conformal_structure(2, u) dualizes exactly that base:
    # g^ij = phi^2 delta^ij
    s = conformal_structure(2, u)
    pt = _pt([0.3, -0.1], [0.8, 0.6])
    phi = 1.0 + (u / 4.0) * float(pt.x @ pt.x)
    np.testing.assert_allclose(PointGeometry(s, pt).g_up, phi**2 * np.eye(2), rtol=1e-12)


def test_flat_fundamental_values():
    s = flat_structure(2)
    pt = _pt([0.7, -0.2], [0.6, -1.1])
    f = PointGeometry(s, pt)
    np.testing.assert_allclose(f.g_up, np.eye(2), atol=0)
    np.testing.assert_allclose(f.g_down, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(f.p_up, pt.p, atol=1e-14)
    assert f.tau == pytest.approx(0.5 * float(pt.p @ pt.p), rel=1e-15)


# ---------------------------------------------------------------------------
# Randers family


def test_constant_base_metric_is_inverted_once(monkeypatch):
    calls = []
    real = cartan.invert

    def counted(m):
        calls.append(1)
        return real(m)

    monkeypatch.setattr(cartan, "invert", counted)
    a = np.array([[2.0, 0.3], [0.3, 1.0]])
    want = np.linalg.inv(a)
    for s in (riemannian_dual(a, n=2), randers_dual(a, np.array([0.2, 0.1]), n=2)):
        calls.clear()
        a[0, 0] = 50.0  # the structure keeps its own copy
        for x, p in (([0.1, 0.2], [0.8, -0.3]), ([-0.4, 0.3], [0.2, 1.1])):
            PointGeometry(s, _pt(x, p)).k2
            s.k2_values(np.array(x), np.array(p))
        assert len(calls) == 1
        a[0, 0] = 2.0
    p = np.array([0.8, -0.3])
    assert riemannian_dual(a, n=2).k2_values(np.zeros(2), p) == pytest.approx(p @ want @ p, rel=1e-14)


def test_singular_constant_base_metric_fails_at_every_evaluation():
    s = riemannian_dual(np.ones((2, 2)), n=2)  # construction does not invert
    for _ in range(2):
        with pytest.raises(ConditioningError):
            s.k2_values(np.zeros(2), np.array([1.0, 0.5]))
        with pytest.raises(ConditioningError):
            PointGeometry(s, _pt([0.0, 0.0], [1.0, 0.5])).k2


def test_randers_zero_drift_matches_riemannian():
    s0 = randers_dual(b_up=np.zeros(2), n=2)
    s1 = riemannian_dual(n=2)
    pt = _pt([0.1, 0.2], [1.0, 0.2])
    np.testing.assert_allclose(
        PointGeometry(s0, pt).g_up, PointGeometry(s1, pt).g_up, atol=1e-12
    )


def test_randers_is_x_independent_but_not_riemannian():
    s = randers_dual(n=2)
    p = [1.0, 0.2]
    g_a = PointGeometry(s, _pt([0.0, 0.0], p)).g_up
    g_b = PointGeometry(s, _pt([0.5, -0.7], p)).g_up
    np.testing.assert_allclose(g_a, g_b, atol=1e-12)
    ct = PointGeometry(s, _pt([0.0, 0.0], p))
    assert np.max(np.abs(ct.I_up)) > 1e-2  # mean Cartan tensor is nonzero


def test_randers_norm_identity():
    s = randers_dual(n=2)
    pt = _pt([0.3, 0.1], [1.0, 0.2])
    f = PointGeometry(s, pt)
    k2 = s.k2_values(pt.x, pt.p)
    assert float(pt.p @ f.g_up @ pt.p) == pytest.approx(k2, rel=1e-9)
    np.testing.assert_allclose(f.g_up @ pt.p, f.p_up, rtol=1e-9)


def test_randers_rejects_large_drift():
    with pytest.raises(RegularityError):
        randers_dual(b_up=np.array([1.1, 0.0]), n=2)


def test_randers_drift_continuity():
    pt = _pt([0.2, -0.3], [0.9, 0.4])
    base = PointGeometry(randers_dual(b_up=np.zeros(2), n=2), pt).g_up
    for eps in (1e-2, 1e-3):
        g = PointGeometry(randers_dual(b_up=np.array([eps, 0.0]), n=2), pt).g_up
        assert np.max(np.abs(g - base)) <= 10 * eps


# ---------------------------------------------------------------------------
# Cartan tensor


def test_riemannian_cartan_tensor_vanishes():
    for s in [flat_structure(2), conformal_structure(2, -1.0)]:
        pt = _pt([0.2, 0.1], [0.7, -0.4])
        ct = PointGeometry(s, pt)
        assert np.max(np.abs(ct.C_uuu)) <= 1e-12
        assert np.max(np.abs(ct.I_up)) <= 1e-12


def test_cartan_tensor_momentum_transversality_and_symmetry():
    s = randers_dual(n=2)
    pt = _pt([0.0, 0.0], [1.0, 0.2])
    ct = PointGeometry(s, pt)
    assert np.max(np.abs(ct.C_uuu)) > 1e-3
    contraction = np.einsum("ijk,k->ij", ct.C_uuu, pt.p)
    assert np.max(np.abs(contraction)) <= 1e-9
    for perm in [(0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]:
        assert np.max(np.abs(ct.C_uuu - np.transpose(ct.C_uuu, perm))) <= 1e-12


def test_momentum_derivative_of_metric_is_cartan():
    # pdot^r g_jk = 2 C^r_jk, with the left side read off the g_down jets
    s = randers_dual(n=2)
    pt = _pt([0.1, -0.2], [1.1, 0.3])
    geom = PointGeometry(s, pt)
    n = 2
    for r in range(n):
        for j in range(n):
            for k in range(n):
                lhs = geom.g_down_jets[j, k].deriv(n + r).value
                assert lhs == pytest.approx(2 * geom.C_mixed[r, j, k], abs=1e-10)


def test_cartan_tensor_is_minus1_homogeneous():
    s = randers_dual(n=2)
    c1 = PointGeometry(s, _pt([0.0, 0.0], [1.0, 0.2])).C_uuu
    c2 = PointGeometry(s, _pt([0.0, 0.0], [2.0, 0.4])).C_uuu
    np.testing.assert_allclose(c2, 0.5 * c1, rtol=1e-9)


# ---------------------------------------------------------------------------
# homogeneity invariants over seeded samples


@pytest.mark.parametrize("s", builtin_structures(2), ids=lambda s: s.label)
def test_euler_identities_100_points(s):
    rng = np.random.default_rng(42)
    for pt in sample_points(s, 100, rng):
        geom = PointGeometry(s, pt, order=2)
        n = pt.n
        euler = sum(pt.p[j] * geom.k2.deriv(n + j).value for j in range(n))
        assert euler == pytest.approx(geom.k2.value * 2, rel=1e-9)
        g2 = PointGeometry(s, ChartPoint(pt.x, 2 * pt.p), order=2).g_up
        np.testing.assert_allclose(g2, geom.g_up, rtol=1e-9, atol=1e-12)


# ---------------------------------------------------------------------------
# positivity guard


def test_indefinite_hamiltonian_is_rejected():
    s = expression_structure(2, "p1*p1 - p2*p2", label="indefinite")
    with pytest.raises(RegularityError) as ei:
        PointGeometry(s, _pt([0.0, 0.0], [1.0, 0.5])).g_up
    assert "eigenvalue" in str(ei.value)


# ---------------------------------------------------------------------------
# batched evaluation: one K^2 evaluation over a whole stencil

_BATCH_FAMILIES = {
    "flat": lambda: flat_structure(3),
    "conformal": lambda: conformal_structure(3, -1.0),
    "randers": lambda: randers_dual(n=3),
    "riemannian-callable": lambda: riemannian_dual(
        lambda xs: [[2.0 + xs[0] * xs[0], 0.3, 0.0], [0.3, 1.0 + xs[1] * xs[1], 0.0], [0.0, 0.0, 1.5]], n=3
    ),
    "randers-curved": lambda: general_randers(3),
    "expression": lambda: expression_structure(
        3,
        "exp(0.2*x1) * (p1*p1 + p2*p2) + sqrt(1 + x2*x2) * pow(p1*p1 + p3*p3, 0.75)"
        " / (2 + log(2 + x3*x3 + p2*p2))",
    ),
}


@pytest.mark.parametrize("family", sorted(_BATCH_FAMILIES))
def test_batched_k2_equals_the_stacked_per_point_tables(family):
    # the orders and x-caps of the geometries: order 5 whole, order 4
    # x-linear and order 2 free of x, as the stencil geometries take them
    s = _BATCH_FAMILIES[family]()
    at = sample_points(s, 1, 17)[0]
    stencil = fd_stencil(at, range(6))
    for order, xcap in ((5, 5), (4, 1), (2, 0)):
        batched = jet_eval(s.k2, stencil, order, xcap)
        single = np.stack([jet_eval(s.k2, q, order, xcap).c for q in stencil.points()])
        single = single.reshape(batched.c.shape)
        assert batched.shape == stencil.batch_shape and batched.xcap == xcap
        assert float(np.abs(batched.c - single).max()) <= 1e-15 * float(np.abs(single).max())


def test_a_stencil_geometry_evaluates_k2_once_for_the_whole_batch():
    s = general_randers(3)
    stencil = fd_stencil(sample_points(s, 1, 3)[0], range(6))
    entered = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name in ("jet_eval", "points"):
            entered.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        PointGeometry(s, stencil, 4).k2
    finally:
        sys.setprofile(None)
    assert entered == ["jet_eval"]


def test_a_batch_with_one_nonpositive_k2_names_that_point():
    s = CartanStructure(dim=2, k2=lambda xs, ps: (xs[0] - 0.25) * (ps[0] * ps[0] + ps[1] * ps[1]), label="edge")
    x = np.array([[[0.5, 0.1], [0.3, 0.1]], [[0.2, 0.1], [0.1, 0.1]]])
    at = ChartPoint(x, np.full((2, 2, 2), 0.5))
    with pytest.raises(EvaluationDomainError) as ei:
        PointGeometry(s, at, order=2).k2
    value = (0.2 - 0.25) * 0.5
    assert str(ei.value) == f"K^2 = {value!r} is not positive at ChartPoint(x=[0.2, 0.1], p=[0.5, 0.5])"


EXP_K2 = "exp(600*x1*p1) * (p1*p1 + p2*p2)"


def test_an_overflowing_inverse_metric_jet_names_its_point_without_warnings():
    # K^2 = 3.6e-305 at the second point: g^ij has a finite inverse, but the
    # Newton iteration for the jet of g_ij overflows past its value
    s = expression_structure(2, EXP_K2)
    at = ChartPoint(np.array([[0.1, 0.5], [0.75, 0.5]]), np.array([[0.6, 0.5], [-1.56, 0.5]]))
    with pytest.raises(EvaluationDomainError) as ei:
        PointGeometry(s, at).g_down_jets
    assert str(ei.value) == (
        "the jet of the inverse fundamental tensor g_ij overflows at ChartPoint(x=[0.75, 0.5], p=[-1.56, 0.5])"
    )
    assert np.isfinite(PointGeometry(s, at.points()[0]).g_down_jets.c).all()


# ---------------------------------------------------------------------------
# expression parser


def test_expression_structure_matches_builtin():
    s = expression_structure(
        2, "(1 - (x1*x1 + x2*x2)/4)**2 * (p1*p1 + p2*p2)", x_box=0.9
    )
    ref = conformal_structure(2, -1.0)
    pt = _pt([0.3, -0.2], [0.8, 0.5])
    np.testing.assert_allclose(
        PointGeometry(s, pt).g_up, PointGeometry(ref, pt).g_up, rtol=1e-12
    )


def test_expression_parser_accepts_primitives():
    f, reads = parse_scalar_expression("sqrt(p1*p1) + exp(x1) - log(2 + p2*p2) + pow(p1, 2)", ["x1", "p1", "p2"])
    assert reads and parse_scalar_expression("pow(2, 3) - 1", ["x1"])[1] is False
    got = f({"x1": 0.0, "p1": 2.0, "p2": 1.0})
    assert got == pytest.approx(2.0 + 1.0 - np.log(3.0) + 4.0, rel=1e-12)


@pytest.mark.parametrize(
    "expr",
    [
        "__import__('os')",
        "p1.real",
        "lambda: 1",
        "q1 * q1",
        "p1 if p2 else p1",
        "[p1, p2]",
        "sin(p1)",
    ],
)
def test_expression_parser_rejects(expr):
    with pytest.raises(ValueError):
        parse_scalar_expression(expr, ["p1", "p2"])


@pytest.mark.parametrize(
    "expr, message",
    [
        ("pow(p1*p1 + p2*p2)", "pow takes 2"),
        ("sqrt(p1, p2)", "sqrt takes 1"),
        ("exp()", "exp takes 1"),
        ("(p1*p1 + p2*p2) ** (1 + 0*x1)", "exponent of \\*\\*"),
        ("pow(p1*p1, x1)", "exponent of pow"),
        ("p1*p1 + True", "literal True"),
        pytest.param("p1*p1 + 1" + "0" * 400, "float range", id="huge-integer-literal"),
    ],
)
def test_expression_parser_rejects_call_arity_variable_exponents_and_non_float_literals(expr, message):
    # each rule holds where the node is built, so such an expression never
    # reaches evaluation
    with pytest.raises(ValueError, match=message):
        parse_scalar_expression(expr, ["x1", "x2", "p1", "p2"])


def test_expression_parser_bounds_the_nesting_depth():
    # the levels are counted before the build, so a refused expression
    # is never built (test_cli runs the deepest accepted one); past some
    # 4,000 levels the parser itself gives up
    chain = "+".join(["p1*p1"] * (MAX_EXPRESSION_DEPTH - 1) + ["p2*p2"])  # names one level too deep
    for expr in (chain, "-" * MAX_EXPRESSION_DEPTH + "p1", "+".join(["p1"] * 6000)):
        with pytest.raises(ValueError, match=f"nests deeper than {MAX_EXPRESSION_DEPTH} levels"):
            parse_scalar_expression(expr, ["p1", "p2"])


def test_deformation_profile_rejects_a_variable_exponent():
    from cartanlab.kahler import DeformationParams

    with pytest.raises(ValueError, match="exponent"):
        DeformationParams(v="tau ** tau")


@pytest.mark.parametrize("expr", ["p1*p1 + p2*p2 + x1/x1", "p1*p1 + p2*p2 + x1**-1", "p1*p1 + p2*p2 + pow(x1, -2)"])
def test_float_division_by_zero_is_a_domain_error(expr):
    # the float path raises the typed error the jet path raises at the same point
    s = expression_structure(2, expr)
    with pytest.raises(EvaluationDomainError):
        s.k2_values([0.0, 0.2], [0.5, 0.5])
    with pytest.raises(EvaluationDomainError):
        jet_eval(s.k2, _pt([0.0, 0.2], [0.5, 0.5]), 2)


# ---------------------------------------------------------------------------
# sampling


def test_sampling_is_seeded_and_in_domain():
    s = conformal_structure(2, 1.0)
    pts_a = sample_points(s, 25, 7)
    pts_b = sample_points(s, 25, 7)
    for a, b in zip(pts_a, pts_b):
        np.testing.assert_array_equal(a.coords, b.coords)
    for pt in pts_a:
        assert np.max(np.abs(pt.x)) <= s.x_box
        assert 0.5 <= np.linalg.norm(pt.p) <= 2.0
        assert s.admissible(pt)


def test_sampling_keeps_a_candidate_whose_acceptance_test_raises():
    # the error then lands in that point's own records, not in the sampler
    s = conformal_structure(2, -1.0)

    def accept(pt):
        if pt.x[0] > 0.0:
            raise EvaluationDomainError("planted")
        return False

    pts = sample_points(s, 5, 7, accept=accept)
    assert len(pts) == 5 and all(pt.x[0] > 0.0 for pt in pts)


def test_sampling_reports_infeasible_domain():
    s = CartanStructure(
        dim=2,
        k2=lambda xs, ps: sum(q * q for q in ps),
        label="never",
        admissible=lambda pt: False,
    )
    with pytest.raises(RegularityError):
        sample_points(s, 5, 0)
