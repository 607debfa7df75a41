"""Algebraic identities of the closed curvature and of the Kähler structure,
on the pairs of the default manifest.

On a matching pair (the structure's constant c equals the parameters' c)
the closed connection is the Levi-Civita connection of G and G is Kähler,
so its curvature table K[x, y, z, :] must satisfy, with no oracle:

* the first Bianchi identity, K(X, Y)Z + K(Y, Z)X + K(Z, X)Y = 0;
* G-skew in the last pair, G(K(X, Y)Z, W) = -G(K(X, Y)W, Z);
* pair symmetry, G(K(X, Y)Z, W) = G(K(Z, W)X, Y);
* K(X, Y)(JZ) = J(K(X, Y)Z);
* Ric(JX, JY) = Ric(X, Y).

On every pair theta has constant components in the adapted frame, so
d theta(F_a, F_b, F_c) = -sum_cyc theta([F_a, F_b], F_c) must vanish.
A planted 1e-7 in the h-part of the ``hh_h`` block must break the first
three identities on every matching pair.
"""
from pathlib import Path

import numpy as np
import pytest

from cartanlab import checks, levicivita
from cartanlab.kahler import BundleMetric, theta_matrix
from cartanlab.levicivita import curvature_closed, ricci
from cartanlab.manifest import load_manifest

DEFAULT = Path(__file__).resolve().parents[1] / "manifests" / "default.json"
POINTS = 3  # per pair
TOL = 1e-12  # relative to max(1, largest component)

MATCHING = {
    "conformal-2d-c-1|hyperbolic",
    "conformal-2d-c-1|hyperbolic-scaled",
    "conformal-2d-c+1|spherical",
    "conformal-3d-c-1|hyperbolic",
    "conformal-3d-c-1|hyperbolic-scaled",
    "flat-2d|flat-gauge",
    "randers-2d|flat-gauge",
}


@pytest.fixture(scope="module")
def default_pairs():
    """(context, [(geometry, metric)] at its first POINTS points) for every
    structure/params pair of the default manifest."""
    manifest = load_manifest(str(DEFAULT))
    out = []
    for si, (s, config) in enumerate(zip(manifest.structures, manifest.structure_configs)):
        for pi, (params, label) in enumerate(zip(manifest.params, manifest.param_labels)):
            ctx = checks.CheckContext(manifest, s, config, si, params, label, pi)
            out.append((ctx, [(ctx.geometry(i), ctx.metric(i)) for i in range(POINTS)]))
    return out


def _rel(residual, table) -> float:
    return float(np.abs(residual).max()) / max(1.0, float(np.abs(table).max()))


def _identities(metric) -> dict:
    """Relative residual of each curvature identity of the closed table."""
    geom = metric.geom
    k = curvature_closed(geom.structure, geom.at, metric.params, geom=geom, metric=metric)
    kl = np.einsum("xyzs,sw->xyzw", k, metric.gram)  # G(K(F_x, F_y) F_z, F_w)
    j = metric.complex_jets.value  # row a: the components of J F_a
    ric = ricci(geom.structure, geom.at, metric.params, geom=geom, metric=metric).ric
    return {
        "bianchi": _rel(k + np.einsum("yzxs->xyzs", k) + np.einsum("zxys->xyzs", k), k),
        "g_skew": _rel(kl + np.einsum("xywz->xyzw", kl), kl),
        "pair_symmetry": _rel(kl - np.einsum("zwxy->xyzw", kl), kl),
        "commutes_with_j": _rel(
            np.einsum("zc,xycs->xyzs", j, k) - np.einsum("xyzc,cs->xyzs", k, j), k
        ),
        "ricci_j_invariant": _rel(j @ ric @ j.T - ric, ric),
    }


def _matching(default_pairs):
    pairs = [(ctx, states) for ctx, states in default_pairs if checks._matching(ctx)]
    assert {ctx.tag for ctx, _ in pairs} == MATCHING
    return pairs


def test_closed_curvature_satisfies_the_levi_civita_and_kahler_identities(default_pairs):
    for ctx, states in _matching(default_pairs):
        for geom, metric in states:
            worst = _identities(metric)
            assert all(r <= TOL for r in worst.values()), (ctx.tag, worst)


def test_theta_is_closed_on_every_default_pair(default_pairs):
    assert len(default_pairs) == 24
    for ctx, states in default_pairs:
        for geom, metric in states:
            # theta([F_a, F_b], F_c), summed over the cyclic shifts of (a, b, c)
            t = np.einsum("abs,sc->abc", geom.basis_brackets, theta_matrix(metric))
            d_theta = -(t + np.einsum("bca->abc", t) + np.einsum("cab->abc", t))
            assert np.abs(d_theta).max() <= TOL, ctx.tag


def test_a_planted_hh_h_defect_breaks_the_identities_on_every_matching_pair(default_pairs, monkeypatch):
    closed_blocks = levicivita._closed_blocks

    def planted(geom, metric):
        blocks = dict(closed_blocks(geom, metric))
        H, V = blocks["hh_h"]
        blocks["hh_h"] = (H + 1e-7, V)
        return blocks

    monkeypatch.setattr(levicivita, "_closed_blocks", planted)
    for ctx, states in _matching(default_pairs):
        for geom, metric in states:
            # a fresh metric on the same geometry, so the plant is built
            worst = _identities(BundleMetric(geom, metric.params))
            for name in ("bianchi", "g_skew", "commutes_with_j"):
                assert worst[name] > TOL, (ctx.tag, name, worst)
