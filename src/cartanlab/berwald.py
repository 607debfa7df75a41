"""Nonlinear connection, adapted frame, Berwald coefficients, Landsberg
tensors, and the curvature tensors of the base geometry.

The closed route reads everything off the exact jet pipeline in
`geometry.PointGeometry`.  The FD oracles here recompute the nonlinear
connection and the h-curvature from plain central differences of point
values, so the two routes share no derivative mechanism.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValenceError
from .geometry import PointGeometry
from .jets import ChartPoint, Jet, jet_eval

__all__ = [
    "NonlinearConnection",
    "BerwaldData",
    "DTensor",
    "nonlinear_connection",
    "nonlinear_connection_fd",
    "delta_apply",
    "berwald_data",
    "berwald_curvature_fd",
    "h_cov",
    "v_cov",
    "metric_delta_identity",
]


@dataclass(frozen=True)
class NonlinearConnection:
    """N_ij with the formal Christoffel data it is built from."""

    N_downdown: np.ndarray
    gamma: np.ndarray
    gamma0: np.ndarray   # gamma^i_jk p_i
    gamma00: np.ndarray  # gamma^i_hk p_i p^k


@dataclass(frozen=True)
class BerwaldData:
    """Connection coefficients and curvatures of the base geometry."""

    B: np.ndarray        # B^i_jk
    L_udd: np.ndarray    # L^i_jk
    L_uud: np.ndarray    # L^ij_k
    J_up: np.ndarray     # mean Landsberg J^s
    J_down: np.ndarray
    R_vv: np.ndarray     # R_ijk
    R_hcurv: np.ndarray  # R^i_jkh
    P_curv: np.ndarray   # P^{ih}_{jk}


class DTensor:
    """Distinguished tensor at a point: one tensor jet of components plus a
    valence string ('u'/'d' per axis, e.g. 'uud' for T^{ij}_k)."""

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


def h_cov(t: DTensor) -> DTensor:
    return t.h_cov()


def v_cov(t: DTensor) -> DTensor:
    return t.v_cov()


# ---------------------------------------------------------------------------
# closed-route operations


def _geom(s, at, geom):
    return geom if geom is not None else PointGeometry(s, at)


def nonlinear_connection(s, at: ChartPoint, geom: PointGeometry = None) -> NonlinearConnection:
    geom = _geom(s, at, geom)
    gamma = geom.gamma_jets.value
    gamma0 = np.einsum("ijk,i->jk", gamma, at.p)
    gamma00 = gamma0 @ geom.p_up
    return NonlinearConnection(
        N_downdown=geom.N, gamma=gamma, gamma0=gamma0, gamma00=gamma00
    )


def delta_apply(s, at: ChartPoint, f, geom: PointGeometry = None) -> np.ndarray:
    """delta_i f for a scalar field f(xs, ps) built from smooth primitives."""
    geom = _geom(s, at, geom)
    n = at.n
    fj = jet_eval(f, at, 1)
    grad = fj.derivs(range(2 * n)).value
    return grad[:n] + geom.N @ grad[n:]


def berwald_data(s, at: ChartPoint, geom: PointGeometry = None) -> BerwaldData:
    geom = _geom(s, at, geom)
    return BerwaldData(
        B=geom.B,
        L_udd=geom.L_udd,
        L_uud=geom.L_uud,
        J_up=geom.J_up,
        J_down=geom.J_down,
        R_vv=geom.R_vv,
        R_hcurv=geom.R_curv,
        P_curv=geom.P_curv,
    )


def metric_delta_identity(s, at: ChartPoint, geom: PointGeometry = None) -> float:
    """Residual of delta_i g_jk = B^s_ji g_sk + B^s_ki g_js.

    Zero exactly when the Landsberg tensor vanishes; in general the residual
    equals the Landsberg defect of the structure at the point.
    """
    geom = _geom(s, at, geom)
    bv = geom.B
    gv = geom.g_down
    lhs = geom.delta(geom.g_down_jets).value  # delta_i g_jk at [j, k, i]
    rhs = np.einsum("mji,mk->jki", bv, gv) + np.einsum("mki,jm->jki", bv, gv)
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# FD oracles (independent derivative mechanism)


def _central_table(fn, center, dim_index, h):
    """Central difference of an array-valued point function in one coordinate."""
    ep = center.copy()
    em = center.copy()
    ep[dim_index] += h
    em[dim_index] -= h
    return (fn(ep) - fn(em)) / (2.0 * h)


def nonlinear_connection_fd(s, at: ChartPoint, h: float = 1e-4) -> np.ndarray:
    """N_ij recomputed with central differences for every derivative.

    Point values of the fundamental tensor are taken from the exact pipeline
    (they are zero-order data); all x- and p-derivatives entering the formal
    Christoffel symbols and the momentum correction term are plain FD.
    """
    n = at.n
    coords = at.coords

    def gdown(z):
        return PointGeometry(s, ChartPoint(z[:n], z[n:]), order=2).g_down

    dg_x = np.array([_central_table(gdown, coords, k, h) for k in range(n)])
    dg_p = np.array([_central_table(gdown, coords, n + k, h) for k in range(n)])
    geom0 = PointGeometry(s, at, order=2)
    gu = geom0.g_up
    gamma = np.empty((n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                ssum = 0.0
                for m in range(n):
                    ssum += gu[i, m] * (dg_x[k][j, m] + dg_x[j][m, k] - dg_x[m][j, k])
                gamma[i, j, k] = 0.5 * ssum
    gamma0 = np.einsum("ijk,i->jk", gamma, at.p)
    gamma00 = gamma0 @ geom0.p_up
    return gamma0 - 0.5 * np.einsum("h,hij->ij", gamma00, dg_p)


def berwald_curvature_fd(s, at: ChartPoint, steps=(1e-3, 5e-4)) -> np.ndarray:
    """R^i_jkh with the frame derivative delta realized by finite differences.

    Both the base and the momentum derivatives of the connection coefficients
    are Richardson-extrapolated central differences of point values of B.
    """
    n = at.n
    coords = at.coords
    geom0 = PointGeometry(s, at)
    nval = geom0.N
    b0 = geom0.B

    def bfun(z):
        return PointGeometry(s, ChartPoint(z[:n], z[n:]), order=4).B

    def richardson(dim_index):
        h1, h2 = steps
        scale = max(1.0, abs(coords[dim_index]))
        d1 = _central_table(bfun, coords, dim_index, h1 * scale)
        d2 = _central_table(bfun, coords, dim_index, h2 * scale)
        r = (h1 / h2) ** 2
        return d2 + (d2 - d1) / (r - 1.0)

    db_x = np.array([richardson(k) for k in range(n)])
    db_p = np.array([richardson(n + k) for k in range(n)])
    delta_b = np.array(
        [db_x[h_] + np.einsum("j,jabc->abc", nval[h_], db_p) for h_ in range(n)]
    )
    out = np.empty((n, n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for h_ in range(n):
                    ssum = delta_b[h_][i, j, k] - delta_b[k][i, j, h_]
                    for m in range(n):
                        ssum += b0[m, j, k] * b0[i, m, h_] - b0[m, j, h_] * b0[i, m, k]
                    out[i, j, k, h_] = ssum
    return out
