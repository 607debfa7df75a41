"""Divergence, gradient, Laplacian, and the mean-Landsberg report."""
import json

import numpy as np

from cartanlab import checks, geometry, operators
from cartanlab.cartan import conformal_structure, flat_structure, randers_dual
from cartanlab.checks import run_suite
from cartanlab.geometry import PointGeometry
from cartanlab.jets import ChartPoint
from cartanlab.kahler import DeformationParams
from cartanlab.manifest import parse_manifest
from cartanlab.operators import (
    directional_derivative,
    divergence,
    fd_dln_sqrtg_h,
    geodesic_spray,
    gradient,
    landsberg_characterizations,
    laplacian,
    liouville_field,
    operator_context,
)

from conftest import general_randers, pt


def _cases():
    return [
        (flat_structure(2), DeformationParams(c=0.0), pt([0.3, -0.2], [0.8, 1.1])),
        (conformal_structure(2, 1.0), DeformationParams(c=1.0), pt([0.2, 0.1], [0.35, 0.2])),
        (conformal_structure(2, -1.0), DeformationParams(c=-1.0), pt([0.25, -0.1], [0.9, 0.55])),
        (randers_dual(n=2), DeformationParams(c=0.0), pt([0.3, -0.2], [0.8, 1.1])),
        (general_randers(), DeformationParams(c=0.0), pt([0.25, -0.1], [0.9, 0.55])),
        (conformal_structure(3, -1.0), DeformationParams(c=-1.0), pt([0.2, -0.1, 0.15], [0.8, 0.5, -0.3])),
    ]


def _corpus(s):
    return [
        lambda q: q.x[0],
        lambda q: q.p[0],
        lambda q: float(q.x @ q.p),
        lambda q: s.k2(list(q.x), list(q.p)),
        lambda q: float(np.log(s.k2(list(q.x), list(q.p)))),
    ]


def test_vertical_divergences_vanish():
    rng = np.random.default_rng(7)
    for s, params, at in _cases():
        ctx = operator_context(s, at, params)
        n = ctx.geom.n
        # the vertical frame divergences cancel algebraically
        assert np.abs(ctx.div_v).max() <= 1e-12
        for _ in range(5):
            xv = rng.normal(size=n)
            assert abs(divergence(ctx, np.concatenate([np.zeros(n), xv]))) <= 1e-6
        assert abs(divergence(ctx, liouville_field(ctx))) <= 1e-6
        assert ctx.sqrt_g > 0.0


def test_spray_divergence_matches_volume_derivative():
    # oracle route: all partials of ln sqrt det g by plain central differences
    for s, params, at in _cases():
        ctx = operator_context(s, at, params)
        n = ctx.geom.n

        def lnsg(q):
            return 0.5 * float(np.log(np.linalg.det(PointGeometry(s, q, order=2).g_down)))

        h = 1e-4
        dln = np.empty(n)
        for i in range(n):
            grad = np.empty(2 * n)
            for var in range(2 * n):
                cp, cm = at.coords.copy(), at.coords.copy()
                cp[var] += h
                cm[var] -= h
                grad[var] = (
                    lnsg(ChartPoint(cp[:n], cp[n:])) - lnsg(ChartPoint(cm[:n], cm[n:]))
                ) / (2 * h)
            dln[i] = grad[i] + ctx.geom.N[i] @ grad[n:]
        p_up = ctx.geom.p_up_jets.value
        div_s = divergence(ctx, geodesic_spray(ctx))
        assert abs(div_s - p_up @ dln) <= 1e-5, f"{s.label}"


def test_spray_divergence_profile():
    # vanishes on x-independent structures, nonzero off-center on curved duals
    for s, params, at in _cases():
        ctx = operator_context(s, at, params)
        div_s = divergence(ctx, geodesic_spray(ctx))
        if s.label.startswith(("flat", "randers-2d")):
            assert abs(div_s) <= 1e-12
        if s.label.startswith("conformal"):
            assert abs(div_s) > 1e-3


def test_gradient_values():
    # constant scalar
    s, params, at = _cases()[1]
    ctx = operator_context(s, at, params)
    g = gradient(ctx, lambda q: 4.2)
    assert g.shape == (2 * ctx.geom.n,)
    assert np.abs(g).max() == 0.0
    # energy function: horizontal part drops, vertical part is G p doubled
    for s, params, at in _cases():
        ctx = operator_context(s, at, params)
        n = ctx.geom.n
        g = gradient(ctx, ctx.geom.k2)
        p_up = ctx.geom.p_up_jets.value
        assert np.abs(g[:n]).max() <= 1e-10
        assert np.abs(g[n:] - ctx.metric.G_down @ (2 * p_up)).max() <= 1e-10
    # coordinate function on the flat structure at unit deformation
    s = flat_structure(2)
    ctx = operator_context(s, pt([0.3, -0.2], [0.8, 1.1]), DeformationParams(c=0.0))
    g = gradient(ctx, lambda q: q.x[0])
    assert np.abs(g[:2] - np.array([1.0, 0.0])).max() <= 1e-9
    assert np.abs(g[2:]).max() <= 1e-9


def test_gradient_duality():
    rng = np.random.default_rng(11)
    for s, params, at in _cases():
        ctx = operator_context(s, at, params)
        n = ctx.geom.n
        for f in _corpus(s):
            gf = gradient(ctx, f)
            for _ in range(20):
                x = np.concatenate([rng.normal(size=n), rng.normal(size=n)])
                lhs = gf @ ctx.metric.gram @ x
                assert abs(lhs - directional_derivative(ctx, f, x)) <= 1e-8


def test_laplacian_routes_agree():
    for s, params, at in _cases():
        ctx = operator_context(s, at, params)
        for f in _corpus(s):
            r = laplacian(ctx, f)
            assert r.difference <= 1e-4, f"{s.label}: {r.difference}"


def test_laplacian_of_energy_vanishes():
    for s, params, at in _cases():
        ctx = operator_context(s, at, params)
        r = laplacian(ctx, ctx.geom.k2)
        assert abs(r.direct) <= 1e-6
        assert abs(r.closed) <= 1e-6


def test_laplacian_of_momentum_function_on_flat():
    # pure functions of p are horizontally constant on the flat structure
    s = flat_structure(2)
    ctx = operator_context(s, pt([0.3, -0.2], [0.8, 1.1]), DeformationParams(c=0.0))
    r = laplacian(ctx, lambda q: float(np.sin(q.p[0]) + q.p[1] ** 2))
    assert r.direct == 0.0
    assert r.closed == 0.0


def test_landsberg_characterizations():
    # x-independent structures: everything vanishes, equivalences trivially hold
    for s in (flat_structure(2), randers_dual(n=2)):
        ctx = operator_context(s, pt([0.3, -0.2], [0.8, 1.1]), DeformationParams(c=0.0))
        rep = landsberg_characterizations(ctx)
        assert np.abs(rep["J"]).max() <= 1e-12
        assert np.abs(rep["dln_sqrtg_h"]).max() <= 1e-9
        assert rep["mean_landsberg"] and rep["balanced"]
        assert rep["divergence_consistent"] and rep["chain_consistent"]
        assert abs(rep["div_S"]) <= 1e-9
    # Riemannian curved dual: mean Landsberg holds, balance fails off-center,
    # so the spray divergence need not vanish
    ctx = operator_context(
        conformal_structure(2, 1.0), pt([0.2, 0.1], [0.35, 0.2]), DeformationParams(c=1.0)
    )
    rep = landsberg_characterizations(ctx)
    assert rep["mean_landsberg"]
    assert not rep["balanced"]
    assert abs(rep["div_S"]) > 1e-3
    assert rep["divergence_consistent"] and rep["chain_consistent"]
    # curved Randers: the Landsberg trace itself is nonzero, yet its momentum
    # contraction vanishes identically
    ctx = operator_context(
        general_randers(), pt([0.25, -0.1], [0.9, 0.55]), DeformationParams(c=0.0)
    )
    rep = landsberg_characterizations(ctx)
    assert np.abs(rep["J"]).max() > 1e-3
    assert abs(rep["p_contracted_J"]) <= 1e-12
    assert rep["divergence_consistent"] and rep["chain_consistent"]


def test_independent_volume_derivative_route():
    # module's hybrid route agrees with the jet-exact one
    for s, params, at in _cases():
        ctx = operator_context(s, at, params)
        assert np.abs(fd_dln_sqrtg_h(ctx) - ctx.H_trace).max() <= 1e-6


def test_fd_volume_derivative_is_returned_as_a_copy():
    s, params, at = _cases()[2]
    ctx = operator_context(s, at, params)
    first = fd_dln_sqrtg_h(ctx)
    kept = first.copy()
    first[:] = 0.0
    assert np.array_equal(fd_dln_sqrtg_h(ctx), kept)


def test_operator_stencils_built_once_per_context(monkeypatch):
    counts = {"order2": 0, "contexts": 0, "laplacians": 0, "fd": 0}
    geom_init = geometry.PointGeometry.__init__

    def counted_geom(self, structure, at, order=5):
        counts["order2"] += order == 2
        geom_init(self, structure, at, order)

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(geometry.PointGeometry, "__init__", counted_geom)
    monkeypatch.setattr(checks, "operator_context", counted("contexts", checks.operator_context))
    monkeypatch.setattr(checks, "laplacian", counted("laplacians", checks.laplacian))
    monkeypatch.setattr(operators, "fd_partial", counted("fd", operators.fd_partial))
    n, points = 2, 2
    manifest = parse_manifest(json.dumps({
        "structures": [{"family": "riemannian_conformal", "n": n, "c": -1.0}],
        "params": [{"label": "hyperbolic", "alpha": 1.0, "beta": 1.0, "c": -1.0}],
        "sampling": {"seed": 0, "count": points, "p_norm": [0.5, 1.5]},
    }))
    only = (
        "operators.laplacian_routes",
        "operators.k2_harmonic",
        "operators.spray_divergence",
    )
    report = run_suite(manifest, only=only)
    assert set(report["summary"].pop("by_check")) == set(only)
    assert report["summary"] == {"total": len(only) * points, "passed": len(only) * points, "failed": 0}
    # laplacian_routes takes five callable fields, k2_harmonic one
    assert counts["contexts"] == points and counts["laplacians"] == 6 * points
    assert counts["order2"] == 4 * n * counts["contexts"]
    # one stencil per chart variable for each Laplacian's field, and one per
    # base variable for each context's log-volume derivative
    assert counts["fd"] == 2 * n * counts["laplacians"] + n * counts["contexts"]

