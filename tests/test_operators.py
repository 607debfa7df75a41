"""Divergence, gradient, Laplacian, and the mean-Landsberg report."""
import gc
import json
import weakref

import numpy as np
import pytest

from cartanlab import checks, geometry, kahler, operators
from cartanlab.cartan import conformal_structure, flat_structure, randers_dual
from cartanlab.checks import run_suite
from cartanlab.geometry import PointGeometry, frame_block
from cartanlab.jets import ChartPoint
from cartanlab.kahler import BundleMetric, DeformationParams, nijenhuis_table
from cartanlab.levicivita import connection_defects, curvature_context, koszul_oracle, ricci
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
        m = operator_context(s, at, params)
        n = m.geom.n
        for _ in range(5):
            xv = rng.normal(size=n)
            assert abs(divergence(m, np.concatenate([np.zeros(n), xv]))) <= 1e-6
        assert abs(divergence(m, liouville_field(m))) <= 1e-6
        # the vertical frame divergences, derived on the metric by the first
        # divergence, cancel algebraically
        assert np.abs(frame_block(m.derived["divergences"], "v")).max() <= 1e-12
        assert np.linalg.det(m.geom.g_down) > 0.0


def test_spray_divergence_matches_volume_derivative():
    # oracle route: all partials of ln sqrt det g by plain central differences
    for s, params, at in _cases():
        m = operator_context(s, at, params)
        n = m.geom.n

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
            dln[i] = grad[i] + m.geom.N[i] @ grad[n:]
        p_up = m.geom.p_up_jets.value
        div_s = divergence(m, geodesic_spray(m))
        assert abs(div_s - p_up @ dln) <= 1e-5, f"{s.label}"


def test_spray_divergence_profile():
    # vanishes on x-independent structures, nonzero off-center on curved duals
    for s, params, at in _cases():
        m = operator_context(s, at, params)
        div_s = divergence(m, geodesic_spray(m))
        if s.label.startswith(("flat", "randers-2d")):
            assert abs(div_s) <= 1e-12
        if s.label.startswith("conformal"):
            assert abs(div_s) > 1e-3


def test_gradient_values():
    # constant scalar
    s, params, at = _cases()[1]
    m = operator_context(s, at, params)
    g = gradient(m, lambda q: 4.2)
    assert g.shape == (2 * m.geom.n,)
    assert np.abs(g).max() == 0.0
    # energy function: horizontal part drops, vertical part is G p doubled
    for s, params, at in _cases():
        m = operator_context(s, at, params)
        n = m.geom.n
        g = gradient(m, m.geom.k2)
        p_up = m.geom.p_up_jets.value
        assert np.abs(g[:n]).max() <= 1e-10
        assert np.abs(g[n:] - m.G_down @ (2 * p_up)).max() <= 1e-10
    # coordinate function on the flat structure at unit deformation
    s = flat_structure(2)
    m = operator_context(s, pt([0.3, -0.2], [0.8, 1.1]), DeformationParams(c=0.0))
    g = gradient(m, lambda q: q.x[0])
    assert np.abs(g[:2] - np.array([1.0, 0.0])).max() <= 1e-9
    assert np.abs(g[2:]).max() <= 1e-9


def test_gradient_duality():
    rng = np.random.default_rng(11)
    for s, params, at in _cases():
        m = operator_context(s, at, params)
        n = m.geom.n
        for f in _corpus(s):
            gf = gradient(m, f)
            for _ in range(20):
                x = np.concatenate([rng.normal(size=n), rng.normal(size=n)])
                lhs = gf @ m.gram @ x
                assert abs(lhs - directional_derivative(m, f, x)) <= 1e-8


def test_laplacian_routes_agree():
    for s, params, at in _cases():
        m = operator_context(s, at, params)
        for f in _corpus(s):
            r = laplacian(m, f)
            assert r.difference <= 1e-4, f"{s.label}: {r.difference}"


def test_laplacian_of_energy_vanishes():
    for s, params, at in _cases():
        m = operator_context(s, at, params)
        r = laplacian(m, m.geom.k2)
        assert abs(r.direct) <= 1e-6
        assert abs(r.closed) <= 1e-6


def test_laplacian_of_momentum_function_on_flat():
    # pure functions of p are horizontally constant on the flat structure
    s = flat_structure(2)
    m = operator_context(s, pt([0.3, -0.2], [0.8, 1.1]), DeformationParams(c=0.0))
    r = laplacian(m, lambda q: float(np.sin(q.p[0]) + q.p[1] ** 2))
    assert r.direct == 0.0
    assert r.closed == 0.0


def test_landsberg_characterizations():
    # x-independent structures: everything vanishes, equivalences trivially hold
    for s in (flat_structure(2), randers_dual(n=2)):
        m = operator_context(s, pt([0.3, -0.2], [0.8, 1.1]), DeformationParams(c=0.0))
        rep = landsberg_characterizations(m)
        assert np.abs(rep["J"]).max() <= 1e-12
        assert np.abs(rep["dln_sqrtg_h"]).max() <= 1e-9
        assert rep["mean_landsberg"] and rep["balanced"]
        assert rep["divergence_consistent"] and rep["chain_consistent"]
        assert abs(rep["div_S"]) <= 1e-9
    # Riemannian curved dual: mean Landsberg holds, balance fails off-center,
    # so the spray divergence need not vanish
    m = operator_context(
        conformal_structure(2, 1.0), pt([0.2, 0.1], [0.35, 0.2]), DeformationParams(c=1.0)
    )
    rep = landsberg_characterizations(m)
    assert rep["mean_landsberg"]
    assert not rep["balanced"]
    assert abs(rep["div_S"]) > 1e-3
    assert rep["divergence_consistent"] and rep["chain_consistent"]
    # curved Randers: the Landsberg trace itself is nonzero, yet its momentum
    # contraction vanishes identically
    m = operator_context(
        general_randers(), pt([0.25, -0.1], [0.9, 0.55]), DeformationParams(c=0.0)
    )
    rep = landsberg_characterizations(m)
    assert np.abs(rep["J"]).max() > 1e-3
    assert abs(rep["p_contracted_J"]) <= 1e-12
    assert rep["divergence_consistent"] and rep["chain_consistent"]


def test_independent_volume_derivative_route():
    # module's hybrid route agrees with the jet-exact one
    for s, params, at in _cases():
        m = operator_context(s, at, params)
        assert np.abs(fd_dln_sqrtg_h(m) - m.geom.dln_sqrtg_h).max() <= 1e-6


def test_fd_volume_derivative_is_returned_as_a_copy():
    s, params, at = _cases()[2]
    m = operator_context(s, at, params)
    first = fd_dln_sqrtg_h(m)
    kept = first.copy()
    first[:] = 0.0
    assert np.array_equal(fd_dln_sqrtg_h(m), kept)


def test_operator_stencils_built_once_per_context(monkeypatch):
    # the context is the point's bundle metric: its log-volume stencil is
    # derived on it once, however many operator checks and Laplacians read it
    counts = {"order2": 0, "stencils": 0, "laplacians": 0, "fd": 0}
    geom_init = geometry.PointGeometry.__init__
    derive = kahler.BundleMetric.derive

    def counted_geom(self, structure, at, order=5):
        counts["order2"] += order == 2
        geom_init(self, structure, at, order)

    def counted_derive(self, key, build):
        counts["stencils"] += key == "dln_sqrtg_h_fd" and key not in self.derived
        return derive(self, key, build)

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(geometry.PointGeometry, "__init__", counted_geom)
    monkeypatch.setattr(kahler.BundleMetric, "derive", counted_derive)
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
    assert counts["stencils"] == points and counts["laplacians"] == 6 * points
    # one batched order-2 geometry over each point's log-volume stencil
    assert counts["order2"] == counts["stencils"]
    # one fd_partial over the chart variables for each Laplacian's field;
    # the log-volume stencil takes none
    assert counts["fd"] == counts["laplacians"]


@pytest.mark.parametrize(
    "entry, use",
    [
        (connection_defects, lambda got: got),
        (curvature_context, lambda got: got),
        (operator_context, lambda got: laplacian(got, lambda q: float(q.x @ q.p))),
    ],
    ids=["connection_defects", "curvature_context", "operator_context"],
)
def test_second_call_on_a_metric_builds_nothing(entry, use, monkeypatch):
    # the point's state is derived on its bundle metric, so asking again
    # hands back what the first call built
    s, params, at = _cases()[4]
    metric = BundleMetric(PointGeometry(s, at), params)
    first = entry(s, at, params, metric=metric)
    use(first)
    kept = dict(metric.derived)
    built = []
    monkeypatch.setattr(geometry.PointGeometry, "__init__", lambda *a, **k: built.append(a))
    monkeypatch.setattr(kahler.BundleMetric, "__init__", lambda *a, **k: built.append(a))
    again = entry(s, at, params, metric=metric)
    use(again)
    assert again is first and built == []
    assert metric.derived.keys() == kept.keys()
    assert all(metric.derived[key] is got for key, got in kept.items())


def test_derived_state_does_not_keep_the_metric_alive():
    # the point's state is kept on its metric, so none of it may refer back
    # to the metric: such a cycle keeps every point of a scope alive until
    # the cyclic collector runs (verify-highdim peaked 14 MB higher with one)
    s, params, at = _cases()[4]
    gc.disable()
    try:
        metric = BundleMetric(PointGeometry(s, at), params)
        koszul_oracle(s, at, params, metric=metric)
        connection_defects(s, at, params, metric=metric)
        curvature_context(s, at, params, metric=metric)
        ricci(s, at, params, metric=metric)
        nijenhuis_table(metric)
        landsberg_characterizations(operator_context(s, at, params, metric=metric))
        assert {"koszul", "defects", "defn", "ricci", "nijenhuis", "divergences"} <= set(metric.derived)
        # the oracle tables and the Koszul oracle's shifted-point values are
        # kept as read-only arrays, with no geometry or metric of a shifted
        # point, and go with the metric
        tables = [metric.derived[key] for key in ("koszul", "gram_partials", "defn")]
        assert all(type(v) is np.ndarray and not v.flags.writeable for v in tables)
        gone = [weakref.ref(v) for v in tables]
        kept = weakref.ref(metric)
        del metric, tables
        assert kept() is None and all(ref() is None for ref in gone)
    finally:
        gc.enable()
