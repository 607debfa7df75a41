"""Distinguished tensors, the adapted-frame derivative and the FD oracles of
the base geometry (nonlinear connection, Berwald coefficients, Landsberg
tensors, curvature tensors).

The closed route is the exact jet pipeline in `geometry.PointGeometry`,
whose attributes (`N`, `B`, `L_*`, `J_*`, `R_vv`, `R_curv`, `P_curv`) hold
the point values; its one covariant derivative is `PointGeometry.h_cov`
(horizontal) and `Jet.derivs` along the momenta (vertical).  This module
adds distinguished tensors (`DTensor`, a valence-checked wrapper whose
`h_cov` and `v_cov` are those two), the adapted-frame derivative of a
scalar field, the metric-delta identity, and the FD oracles: they
recompute the nonlinear
connection and the h-curvature from central differences of point values
(`jets.fd_stencil` and `jets.fd_combine`, the one FD path of the package),
so the two routes share no derivative mechanism.  Each
oracle reads only base-geometry values at its shifted points, so its whole
stencil, every chart variable and step and sign, is one batched
`PointGeometry` of the low order those values need.
"""
from __future__ import annotations

import numpy as np

from .errors import ValenceError
from .geometry import PointGeometry
from .jets import ChartPoint, Jet, fd_combine, fd_stencil, jet_eval
from .kahler import point_state

__all__ = [
    "DTensor",
    "nonlinear_connection_fd",
    "delta_apply",
    "berwald_curvature_fd",
    "metric_delta_identity",
]


class DTensor:
    """Distinguished tensor at a point: one tensor jet of components plus a
    valence string ('u'/'d' per axis, e.g. 'uud' for T^{ij}_k).

    Its covariant derivatives are `PointGeometry.h_cov` and `Jet.derivs`
    along the momenta, with the valence checked and extended.  The
    `berwald.momentum_parallel` and `landsberg_h_derivative` checks take
    theirs through it, so `benchmarks/tracing.py` counts them."""

    __slots__ = ("geom", "comp", "valence")

    def __init__(self, geom: PointGeometry, comp: Jet, valence: str):
        if any(ch not in "ud" for ch in valence):
            raise ValenceError(f"valence string {valence!r} must use only 'u'/'d'")
        if comp.ndim != len(valence):
            raise ValenceError(
                f"components have {comp.ndim} axes but valence {valence!r} "
                f"declares {len(valence)}"
            )
        self.geom = geom
        self.comp = comp
        self.valence = valence

    @property
    def values(self) -> np.ndarray:
        return self.comp.value

    def h_cov(self) -> "DTensor":
        """Horizontal covariant derivative T -> T_{|k} (index appended, down)."""
        return DTensor(self.geom, self.geom.h_cov(self.comp, self.valence), self.valence + "d")

    def v_cov(self) -> "DTensor":
        """Vertical covariant derivative T -> T|^k (index appended, up)."""
        return DTensor(self.geom, self.comp.derivs(self.geom.pvars), self.valence + "u")


# ---------------------------------------------------------------------------
# closed-route operations


def delta_apply(s, at: ChartPoint, f, geom: PointGeometry = None) -> np.ndarray:
    """delta_i f for a scalar field f(xs, ps) built from smooth primitives."""
    geom, _ = point_state(s, at, geom=geom)
    n = at.n
    fj = jet_eval(f, at, 1)
    grad = fj.derivs(range(2 * n)).value
    return grad[:n] + geom.N @ grad[n:]


def metric_delta_identity(s, at: ChartPoint, geom: PointGeometry = None) -> float:
    """Residual of delta_i g_jk = B^s_ji g_sk + B^s_ki g_js.

    Zero exactly when the Landsberg tensor vanishes; in general the residual
    equals the Landsberg defect of the structure at the point.
    """
    geom, _ = point_state(s, at, geom=geom)
    bv = geom.B
    gv = geom.g_down
    lhs = geom.delta(geom.g_down_jets).value  # delta_i g_jk at [j, k, i]
    rhs = np.einsum("mji,mk->jki", bv, gv) + np.einsum("mki,jm->jki", bv, gv)
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# FD oracles (independent derivative mechanism)


def nonlinear_connection_fd(s, at: ChartPoint, geom: PointGeometry = None) -> np.ndarray:
    """N_ij recomputed with central differences for every derivative.

    Point values of the fundamental tensor are taken from the exact pipeline
    (they are zero-order data, read at the center from ``geom``); all x- and
    p-derivatives entering the formal Christoffel symbols and the momentum
    correction term are plain central differences at one step of 1e-4 (no
    Richardson extrapolation), from one order-2 geometry over the 4n
    shifted points.
    """
    geom, _ = point_state(s, at, geom=geom)
    n = at.n
    chart, steps = range(2 * n), (1e-4,)
    gdown = PointGeometry(s, fd_stencil(at, chart, steps), order=2).g_down
    dg = fd_combine(gdown, at, chart, steps)
    dg_x, dg_p = dg[:n], dg[n:]
    gu = geom.g_up
    # [j, k, m]: d_k g_jm + d_j g_mk - d_m g_jk
    first = np.einsum("kjm->jkm", dg_x) + np.einsum("jmk->jkm", dg_x) - np.einsum("mjk->jkm", dg_x)
    gamma = 0.5 * np.einsum("im,jkm->ijk", gu, first)
    gamma0 = np.einsum("ijk,i->jk", gamma, at.p)
    gamma00 = gamma0 @ geom.p_up
    return gamma0 - 0.5 * np.einsum("h,hij->ij", gamma00, dg_p)


def berwald_curvature_fd(s, at: ChartPoint, geom: PointGeometry = None) -> np.ndarray:
    """R^i_jkh with the frame derivative delta realized by finite differences.

    Both the base and the momentum derivatives of the connection coefficients
    are Richardson-extrapolated central differences of point values of B,
    from one order-4 geometry over the 8n shifted points; N and B at the
    center are read from ``geom``.
    """
    geom, _ = point_state(s, at, geom=geom)
    n = at.n
    nval = geom.N
    b0 = geom.B
    chart = range(2 * n)
    db = fd_combine(PointGeometry(s, fd_stencil(at, chart), order=4).B, at, chart)
    db_x, db_p = db[:n], db[n:]
    delta_b = db_x + np.einsum("hj,jabc->habc", nval, db_p)  # delta_h B^a_bc at [h, a, b, c]
    return (
        np.einsum("hijk->ijkh", delta_b)
        - np.einsum("kijh->ijkh", delta_b)
        + np.einsum("mjk,imh->ijkh", b0, b0)
        - np.einsum("mjh,imk->ijkh", b0, b0)
    )
