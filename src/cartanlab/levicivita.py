"""Levi-Civita connection of the deformed bundle metric, its curvature, and
the Einstein analysis.

Routes kept deliberately separate:

* ``lc_closed_form`` assembles the four adapted-frame connection blocks from
  closed formulas in the Cartan tensor, the Landsberg tensor, the Berwald
  coefficients and the bundle metric.
* ``koszul_oracle`` re-derives any connection value from the six-term Koszul
  formula using finite-difference frame derivatives of the metric components
  and measured frame brackets; it shares no algebra with the closed forms.
  Its per-point tables are built by the first call at a point and kept on
  the ``BundleMetric``: the G-pairings of all (2n)^2 frame brackets
  [F_a, F_b], each computed by ``FrameVector.bracket`` and never quoted from
  B or R_vv; the frame derivatives F_a(G(F_b, F_c)), from one Richardson
  central difference of the whole 2n x 2n metric per chart variable; and
  the inverse Gram matrix.  Each slot pair then only assembles the six
  Koszul terms from those tables.
* ``curvature_closed`` evaluates the six closed curvature blocks; it is
  guarded by ``curvature_defn``, which differentiates the connection
  coefficient fields (finite differences along x, exact jets along p) and
  composes them per the curvature definition.
* ``ricci`` traces the closed blocks over the adapted frame and reports the
  least-squares Einstein factor and defect.  The closed blocks and Ricci
  share one set of point-value ingredients (the covariant derivatives of C
  and L among them), built once per ``BundleMetric``.

Conventions: a frame slot is a pair ``(kind, index)`` with kind ``"h"`` for
delta_i and ``"v"`` for pdot^i, matching the almost-complex module.  All
component arrays are indexed with inputs first and the output frame index
last.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .berwald import DTensor
from .errors import ValenceError
from .geometry import FrameVector, PointGeometry, frame_slots, slot_index
from .jets import ChartPoint, contract, invert
from .kahler import BundleMetric, DeformationParams

__all__ = [
    "LCBlock",
    "LCConnection",
    "CurvatureBlock",
    "RicciData",
    "lc_closed_form",
    "koszul_oracle",
    "MetricStencil",
    "connection_defects",
    "curvature_context",
    "curvature_closed",
    "curvature_defn",
    "CURVATURE_BLOCKS",
    "ricci",
    "vertical_ricci_obstruction",
]

#: frame-kind patterns of the six curvature blocks: K(F_i, F_j) F_k with the
#: first two letters naming the kinds of the antisymmetric pair and the
#: letter after the underscore naming the kind of the argument.
CURVATURE_BLOCKS = ("vv_v", "hv_v", "hh_h", "hh_v", "vv_h", "hv_h")

_FD_STEPS = (1e-3, 5e-4)


@dataclass(frozen=True)
class LCBlock:
    """One connection block: nabla_{F_i} F_j = h[i,j,s] delta_s + v[i,j,s] pdot^s."""

    h: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class LCConnection:
    """Adapted-frame Levi-Civita coefficient tables at a point.

    Block names give the kinds of (direction, argument): ``v_v`` is
    nabla_{pdot^i} pdot^j, ``h_v`` is nabla_{delta_i} pdot^j, ``v_h`` is
    nabla_{pdot^i} delta_j and ``h_h`` is nabla_{delta_i} delta_j.
    """

    v_v: LCBlock
    h_v: LCBlock
    v_h: LCBlock
    h_h: LCBlock
    c_eff: float
    at: ChartPoint

    def block(self, direction_kind: str, argument_kind: str) -> LCBlock:
        try:
            return getattr(self, f"{direction_kind}_{argument_kind}")
        except AttributeError:
            raise ValenceError(
                f"frame kinds must be 'h' or 'v', got {direction_kind!r}/{argument_kind!r}"
            ) from None


def _prepare(s, at, params, geom, metric):
    if geom is None:
        geom = metric.geom if metric is not None else PointGeometry(s, at)
    if metric is None:
        metric = BundleMetric(geom, params)
    return geom, metric


def _derived(metric: BundleMetric, key: str, build):
    """A per-point table kept on the metric, built by its first user."""
    got = metric.derived.get(key)
    if got is None:
        got = metric.derived[key] = build()
    return got


# ---------------------------------------------------------------------------
# closed-form connection


def _connection_jet_tables(geom: PointGeometry, metric: BundleMetric):
    """The four coefficient blocks as jet tensors [i, j, s]."""
    beta = metric.params.beta
    c = metric.params.c_at(geom.tau)
    C_uud = geom.C_uud_jets
    L_udd_B = geom.L_udd_jets + geom.B_jets
    p = geom.p_coord(3)
    Gu_p = contract("ij,s->ijs", metric.G_up_jets, p) * (c * beta)  # c beta G^ij p_s
    # nabla_{pdot^i} pdot^j = beta^2 L^{ijs} delta_s
    #                         + (-C^{ij}_s + c beta G^{ij} p_s) pdot^s
    vvh = geom.L_uuu_jets * (beta * beta)
    vvv = -C_uud + Gu_p
    # nabla_{delta_i} pdot^j = (C^{js}_i - c beta G^{js} p_i) delta_s
    #                          - (L^j_{is} + B^j_{is}) pdot^s
    hvh = contract("jsi->ijs", C_uud - Gu_p)
    hvv = -contract("jis->ijs", L_udd_B)
    # nabla_{pdot^i} delta_j = (C^{is}_j - c beta G^{is} p_j) delta_s
    #                          - L^i_{js} pdot^s
    vhh = contract("isj->ijs", C_uud - Gu_p)
    vhv = -geom.L_udd_jets
    # nabla_{delta_i} delta_j = (L^s_{ij} + B^s_{ij}) delta_s
    #     + (-(1/beta^2) C_{ijs} + c beta G_{js} p_i) pdot^s
    hhh = contract("sij->ijs", L_udd_B)
    Gd_p = contract("js,i->ijs", metric.G_down_jets, p) * (c * beta)  # c beta G_js p_i
    hhv = geom.C_ddd_jets * (-1.0 / (beta * beta)) + Gd_p
    return {
        "v_v": (vvh, vvv),
        "h_v": (hvh, hvv),
        "v_h": (vhh, vhv),
        "h_h": (hhh, hhv),
    }, c


def lc_closed_form(
    s,
    at: ChartPoint,
    params: DeformationParams,
    geom: PointGeometry = None,
    metric: BundleMetric = None,
) -> LCConnection:
    """Closed-form Levi-Civita coefficient tables at a point.

    Valid as the Levi-Civita connection of the bundle metric when the
    horizontal curvature satisfies the constant-curvature form for
    c = -v/(alpha beta^2); for other inputs it is simply the displayed
    coefficient field (the Koszul oracle then measures the discrepancy).
    """
    geom, metric = _prepare(s, at, params, geom, metric)
    tables, c = _connection_jet_tables(geom, metric)
    blocks = {
        key: LCBlock(h=hj.value, v=vj.value)
        for key, (hj, vj) in tables.items()
    }
    return LCConnection(at=geom.at, c_eff=c, **blocks)


# ---------------------------------------------------------------------------
# Koszul oracle


class MetricStencil:
    """Bundle-metric components at shifted chart points, cached per offset."""

    def __init__(self, s, params):
        self.s = s
        self.params = params
        self._cache: dict[bytes, BundleMetric] = {}

    def metric_at(self, pt: ChartPoint) -> BundleMetric:
        key = pt.coords.tobytes()
        m = self._cache.get(key)
        if m is None:
            m = BundleMetric(PointGeometry(self.s, pt, order=2), self.params)
            self._cache[key] = m
        return m

    def frame_matrix(self, pt: ChartPoint) -> np.ndarray:
        """G(F_a, F_b)(pt) over the adapted basis: the block-diagonal 2n x 2n
        matrix of G_ij and G^ij."""
        m = self.metric_at(pt)
        n = pt.n
        out = np.zeros((2 * n, 2 * n))
        out[:n, :n] = m.G_down
        out[n:, n:] = m.G_up
        return out


def _fd_partial(f, at: ChartPoint, var: int, steps=_FD_STEPS):
    """Richardson-extrapolated central difference of f along one chart variable."""
    base = at.coords
    scale = max(1.0, abs(base[var]))
    ds = []
    for h in steps:
        hh = h * scale
        plus = base.copy()
        minus = base.copy()
        plus[var] += hh
        minus[var] -= hh
        n = at.n
        ds.append(
            (f(ChartPoint(plus[:n], plus[n:])) - f(ChartPoint(minus[:n], minus[n:])))
            / (2.0 * hh)
        )
    ratio = (steps[0] / steps[1]) ** 2
    return (ratio * ds[1] - ds[0]) / (ratio - 1.0)


def _frame_derivative_fd(partials, geom: PointGeometry, a: int):
    """F_a(f) for the adapted basis field F_a, given the finite-difference
    partials of f along all 2n chart variables."""
    n = geom.n
    if a >= n:
        return partials[a]
    out = partials[a].copy()
    for l in range(n):
        nl = geom.N[a, l]
        if nl != 0.0:
            out += nl * partials[n + l]
    return out


class _KoszulTables:
    """Koszul ingredients at one point over the adapted basis F_a.

    ``dG[a, b, c] = F_a(G(F_b, F_c))``, by finite differences of the metric
    over the stencil; ``bracket_G[a, b, c] = G([F_a, F_b], F_c)``, every
    bracket computed by ``FrameVector.bracket``; ``gram_inv`` inverts the
    Gram matrix G(F_a, F_b).
    """

    def __init__(self, geom: PointGeometry, metric: BundleMetric, stencil: MetricStencil):
        dim = 2 * geom.n
        partials = [_fd_partial(stencil.frame_matrix, geom.at, var) for var in range(dim)]
        self.dG = np.array([_frame_derivative_fd(partials, geom, a) for a in range(dim)])
        basis = FrameVector.basis(geom)
        self.bracket_G = np.empty((dim, dim, dim))
        for a in range(dim):
            for b in range(dim):
                br = basis[a].bracket(basis[b])
                for c in range(dim):
                    self.bracket_G[a, b, c] = metric.inner(br, basis[c])
        gram = np.empty((dim, dim))
        for a in range(dim):
            for b in range(a, dim):
                gram[a, b] = gram[b, a] = metric.inner(basis[a], basis[b])
        self.gram_inv = invert(gram)


def koszul_oracle(
    s,
    at: ChartPoint,
    params: DeformationParams,
    x_slot,
    y_slot,
    geom: PointGeometry = None,
    metric: BundleMetric = None,
    stencil: MetricStencil = None,
) -> FrameVector:
    """nabla_X Y from the six-term Koszul formula, for adapted-frame X, Y.

    Frame derivatives of the metric components are plain central differences
    (Richardson extrapolated); brackets are computed by
    ``FrameVector.bracket``, not quoted from B or R_vv.  The first call at a
    point builds the per-point tables (all (2n)^2 brackets paired with the
    basis, the frame derivatives of the whole metric, the inverse Gram
    matrix) and keeps them on ``metric``; later calls with the same metric
    only assemble the six terms.  Raises a conditioning error if the frame
    Gram matrix is numerically singular.
    """
    geom, metric = _prepare(s, at, params, geom, metric)
    if stencil is None:
        stencil = MetricStencil(s, params)
    t = _derived(metric, "koszul", lambda: _KoszulTables(geom, metric, stencil))
    n = geom.n
    x, y = slot_index(x_slot, n), slot_index(y_slot, n)
    # the six Koszul terms against every basis field Z at once
    rhs = (
        t.dG[x, y] + t.dG[y, x] - t.dG[:, x, y]
        + t.bracket_G[x, y] - t.bracket_G[x, :, y] - t.bracket_G[y, :, x]
    )
    coef = t.gram_inv @ (0.5 * rhs)
    return FrameVector(geom, coef[:n], coef[n:])


# ---------------------------------------------------------------------------
# torsion / metric-compatibility defects of the closed form


def connection_defects(
    s,
    at: ChartPoint,
    params: DeformationParams,
    geom: PointGeometry = None,
    metric: BundleMetric = None,
):
    """(torsion, compatibility) residuals of the closed-form connection.

    Torsion uses computed frame brackets; compatibility compares exact frame
    derivatives of the metric components with the connection contraction.
    Both vanish exactly when the horizontal curvature matches the
    constant-curvature form for the effective constant.
    """
    geom, metric = _prepare(s, at, params, geom, metric)
    n = geom.n
    dim = 2 * n
    conn = lc_closed_form(s, at, params, geom, metric)
    slots = frame_slots(n)
    basis = FrameVector.basis(geom)

    def nabla(a, b) -> FrameVector:
        (ka, ia), (kb, ib) = slots[a], slots[b]
        blk = conn.block(ka, kb)
        return FrameVector(geom, blk.h[ia, ib], blk.v[ia, ib])

    torsion = 0.0
    for a in range(dim):
        for b in range(a + 1, dim):
            t = nabla(a, b) - nabla(b, a) - basis[a].bracket(basis[b])
            torsion = max(torsion, np.max(np.abs(t.h_values)), np.max(np.abs(t.v_values)))

    # exact F_a(G(F_b, F_c)) at [a, b, c]; the mixed h-v blocks of G vanish
    dmetric = np.zeros((dim, dim, dim))
    for block, jets in ((slice(0, n), metric.G_down_jets), (slice(n, dim), metric.G_up_jets)):
        dmetric[:n, block, block] = np.einsum("bca->abc", geom.delta(jets).value)
        dmetric[n:, block, block] = np.einsum("bca->abc", jets.derivs(geom.pvars).value)

    compat = 0.0
    for x in range(dim):
        for b in range(dim):
            for c in range(b, dim):
                rhs = metric.inner(nabla(x, b), basis[c]) + metric.inner(basis[b], nabla(x, c))
                compat = max(compat, abs(dmetric[x, b, c] - rhs))
    return torsion, compat


# ---------------------------------------------------------------------------
# curvature: closed blocks


@dataclass(frozen=True)
class CurvatureBlock:
    """K(F_i, F_j) F_k = h[i,j,k,s] delta_s + v[i,j,k,s] pdot^s."""

    which: str
    h: np.ndarray
    v: np.ndarray


class _Ingredients:
    """Point-value tensors feeding the closed curvature blocks."""

    def __init__(self, geom: PointGeometry, metric: BundleMetric):
        n = geom.n
        self.n = n
        self.beta = metric.params.beta
        self.c = metric.params.c_at(geom.tau)
        self.p = geom.at.p
        self.C_uud = geom.C_uud_jets.value
        self.C_ddd = geom.C_ddd
        self.C_mixed = geom.C_mixed
        self.L_uuu = geom.L_uuu
        self.L_udd = geom.L_udd
        self.L_uud = geom.L_uud
        self.B = geom.B
        self.P = geom.P_curv
        self.R_curv = geom.R_curv
        self.R_vv = geom.R_vv
        self.Gd = metric.G_down
        self.Gu = metric.G_up
        t_C_uud = DTensor(geom, geom.C_uud_jets, "uud")
        t_C_ddd = DTensor(geom, geom.C_ddd_jets, "ddd")
        t_L_uuu = DTensor(geom, geom.L_uuu_jets, "uuu")
        t_L_udd = DTensor(geom, geom.L_udd_jets, "udd")
        self.dC_uud = t_C_uud.v_cov().values
        self.hC_uud = t_C_uud.h_cov().values
        self.dC_ddd = t_C_ddd.v_cov().values
        self.hC_ddd = t_C_ddd.h_cov().values
        self.dL_uuu = t_L_uuu.v_cov().values
        self.hL_uuu = t_L_uuu.h_cov().values
        self.dL_udd = t_L_udd.v_cov().values
        self.hL_udd = t_L_udd.h_cov().values


def _block_vv_v(w: _Ingredients):
    n, c, b = w.n, w.c, w.beta
    H = np.zeros((n, n, n, n))
    V = np.zeros((n, n, n, n))
    eye = np.eye(n)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for h in range(n):
                    H[i, j, k, h] = b * b * (w.dL_uuu[j, k, h, i] - w.dL_uuu[i, k, h, j])
                    t = (
                        w.dC_uud[i, k, h, j]
                        - w.dC_uud[j, k, h, i]
                        + c * b * (w.Gu[j, k] * eye[i, h] - w.Gu[i, k] * eye[j, h])
                    )
                    for s_ in range(n):
                        t += (
                            w.C_uud[j, k, s_] * w.C_uud[i, s_, h]
                            - w.C_uud[i, k, s_] * w.C_uud[j, s_, h]
                        )
                        t += b * b * (
                            w.L_udd[j, s_, h] * w.L_uuu[s_, i, k]
                            - w.L_udd[i, s_, h] * w.L_uuu[s_, j, k]
                        )
                    V[i, j, k, h] = t
    return H, V


def _block_hv_v(w: _Ingredients):
    n, c, b = w.n, w.c, w.beta
    H = np.zeros((n, n, n, n))
    V = np.zeros((n, n, n, n))
    eye = np.eye(n)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for h in range(n):
                    t = (
                        c * b * w.Gu[k, h] * eye[j, i]
                        - w.dC_uud[k, h, i, j]
                        + b * b * w.hL_uuu[h, j, k, i]
                    )
                    u = (
                        w.P[k, j, i, h]
                        - w.hC_uud[j, k, h, i]
                        - c * b * b * w.L_uud[j, k, i] * w.p[h]
                        + w.dL_udd[k, h, i, j]
                    )
                    for s_ in range(n):
                        t -= w.C_uud[j, h, s_] * w.C_uud[k, s_, i]
                        t -= w.C_uud[j, k, s_] * w.C_uud[h, s_, i]
                        t += b * b * (
                            w.L_uuu[s_, j, k] * w.L_udd[h, i, s_]
                            + w.L_udd[k, s_, i] * w.L_uuu[h, j, s_]
                        )
                        u -= w.C_ddd[i, s_, h] * w.L_uuu[j, s_, k]
                        u += w.C_uud[j, k, s_] * w.L_udd[s_, i, h]
                        u += w.C_uud[s_, k, i] * w.L_udd[j, s_, h]
                        u -= w.C_uud[j, s_, h] * w.L_udd[k, i, s_]
                    H[i, j, k, h] = t
                    V[i, j, k, h] = u
    return H, V


def _block_hh_h(w: _Ingredients):
    n, c, b = w.n, w.c, w.beta
    H = np.zeros((n, n, n, n))
    V = np.zeros((n, n, n, n))
    eye = np.eye(n)
    inv_b2 = 1.0 / (b * b)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for h in range(n):
                    t = (
                        w.R_curv[h, k, j, i]
                        + c * c * b * b * (w.p[i] * eye[h, j] - w.p[j] * eye[h, i]) * w.p[k]
                        + w.hL_udd[h, k, j, i]
                        - w.hL_udd[h, k, i, j]
                    )
                    u = inv_b2 * (w.hC_ddd[i, k, h, j] - w.hC_ddd[j, k, h, i])
                    for s_ in range(n):
                        t += inv_b2 * (
                            w.C_ddd[i, k, s_] * w.C_uud[h, s_, j]
                            - w.C_ddd[j, k, s_] * w.C_uud[h, s_, i]
                        )
                        t += (
                            w.L_udd[s_, k, j] * w.L_udd[h, i, s_]
                            - w.L_udd[s_, k, i] * w.L_udd[h, j, s_]
                        )
                        u += 2.0 * w.R_vv[s_, i, j] * w.L_udd[s_, h, k]
                        u += inv_b2 * (
                            w.C_ddd[j, k, s_] * w.L_udd[s_, i, h]
                            - w.C_ddd[i, k, s_] * w.L_udd[s_, j, h]
                            + w.C_ddd[j, h, s_] * w.L_udd[s_, k, i]
                            - w.C_ddd[i, h, s_] * w.L_udd[s_, j, k]
                        )
                    H[i, j, k, h] = t
                    V[i, j, k, h] = u
    return H, V


def _block_hh_v(w: _Ingredients):
    n, c, b = w.n, w.c, w.beta
    H = np.zeros((n, n, n, n))
    V = np.zeros((n, n, n, n))
    eye = np.eye(n)
    inv_b2 = 1.0 / (b * b)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for h in range(n):
                    t = (
                        w.hC_uud[k, h, j, i]
                        - w.hC_uud[k, h, i, j]
                        + c * b * b * (w.p[j] * w.L_uud[k, h, i] - w.p[i] * w.L_uud[k, h, j])
                    )
                    u = (
                        -w.R_curv[k, h, j, i]
                        + c * c * b * b * w.p[h] * (w.p[j] * eye[k, i] - w.p[i] * eye[k, j])
                        + w.hL_udd[k, h, i, j]
                        - w.hL_udd[k, h, j, i]
                    )
                    for s_ in range(n):
                        t += (
                            w.C_uud[k, s_, j] * w.L_udd[h, s_, i]
                            - w.C_uud[k, s_, i] * w.L_udd[h, s_, j]
                        )
                        t += (
                            w.C_uud[s_, h, j] * w.L_udd[k, s_, i]
                            - w.C_uud[s_, h, i] * w.L_udd[k, s_, j]
                        )
                        u += inv_b2 * (
                            w.C_uud[k, s_, i] * w.C_ddd[j, h, s_]
                            - w.C_uud[k, s_, j] * w.C_ddd[i, h, s_]
                        )
                        u += (
                            w.L_udd[k, s_, j] * w.L_udd[s_, h, i]
                            - w.L_udd[k, s_, i] * w.L_udd[s_, h, j]
                        )
                    H[i, j, k, h] = t
                    V[i, j, k, h] = u
    return H, V


def _block_vv_h(w: _Ingredients):
    n, c, b = w.n, w.c, w.beta
    H = np.zeros((n, n, n, n))
    V = np.zeros((n, n, n, n))
    eye = np.eye(n)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for h in range(n):
                    t = (
                        w.dC_uud[j, h, k, i]
                        - w.dC_uud[i, h, k, j]
                        + c * b * (w.Gu[i, h] * eye[j, k] - w.Gu[j, h] * eye[i, k])
                    )
                    for s_ in range(n):
                        t += (
                            w.C_uud[j, s_, k] * w.C_uud[i, h, s_]
                            - w.C_uud[i, s_, k] * w.C_uud[j, h, s_]
                        )
                        t += b * b * (
                            w.L_uuu[j, s_, h] * w.L_udd[i, s_, k]
                            - w.L_uuu[i, s_, h] * w.L_udd[j, s_, k]
                        )
                    H[i, j, k, h] = t
                    V[i, j, k, h] = w.dL_udd[i, k, h, j] - w.dL_udd[j, k, h, i]
    return H, V


def _block_hv_h(w: _Ingredients):
    n, c, b = w.n, w.c, w.beta
    H = np.zeros((n, n, n, n))
    V = np.zeros((n, n, n, n))
    eye = np.eye(n)
    inv_b2 = 1.0 / (b * b)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for h in range(n):
                    t = (
                        w.hC_uud[j, h, k, i]
                        + c * b * b * w.L_uud[j, h, i] * w.p[k]
                        - w.dL_udd[h, k, i, j]
                        - w.P[h, j, i, k]
                    )
                    u = (
                        inv_b2 * w.dC_ddd[i, k, h, j]
                        + c * w.p[h] * w.C_mixed[j, i, k]
                        + c * w.p[k] * w.C_mixed[j, i, h]
                        - c * b * w.Gd[k, h] * eye[j, i]
                        - w.hL_udd[j, h, k, i]
                    )
                    for s_ in range(n):
                        t += w.C_uud[j, s_, k] * w.L_udd[h, s_, i]
                        t -= w.C_uud[j, h, s_] * w.L_udd[s_, k, i]
                        t -= w.C_uud[s_, h, i] * w.L_udd[j, s_, k]
                        t += w.C_ddd[i, k, s_] * w.L_uuu[h, j, s_]
                        u -= inv_b2 * (
                            w.C_ddd[i, s_, h] * w.C_uud[j, s_, k]
                            + w.C_ddd[i, k, s_] * w.C_uud[j, s_, h]
                        )
                        u += (
                            w.L_udd[j, s_, k] * w.L_udd[s_, h, i]
                            + w.L_udd[j, s_, h] * w.L_udd[s_, k, i]
                        )
                    H[i, j, k, h] = t
                    V[i, j, k, h] = u
    return H, V


_BLOCK_BUILDERS = {
    "vv_v": _block_vv_v,
    "hv_v": _block_hv_v,
    "hh_h": _block_hh_h,
    "hh_v": _block_hh_v,
    "vv_h": _block_vv_h,
    "hv_h": _block_hv_h,
}


def curvature_closed(
    s,
    at: ChartPoint,
    params: DeformationParams,
    which: str,
    geom: PointGeometry = None,
    metric: BundleMetric = None,
    ingredients: _Ingredients = None,
) -> CurvatureBlock:
    """One closed-form curvature block (see CURVATURE_BLOCKS for names)."""
    if which not in _BLOCK_BUILDERS:
        raise ValueError(f"unknown curvature block {which!r}; expected one of {CURVATURE_BLOCKS}")
    if ingredients is None:
        geom, metric = _prepare(s, at, params, geom, metric)
        ingredients = _derived(metric, "ingredients", lambda: _Ingredients(geom, metric))
    H, V = _BLOCK_BUILDERS[which](ingredients)
    return CurvatureBlock(which=which, h=H, v=V)


# ---------------------------------------------------------------------------
# curvature: definition oracle


class _DefnContext:
    """Connection coefficient fields around a point: values and exact
    vertical derivatives from the jets at the center, finite-difference
    tables for x-partials."""

    def __init__(self, s, at, params, geom=None, metric=None, steps=_FD_STEPS):
        geom, metric = _prepare(s, at, params, geom, metric)
        self.s = s
        self.params = params
        self.geom = geom
        self.metric = metric
        self.steps = steps
        jets, self.c_eff = _connection_jet_tables(geom, metric)
        #: block -> (h, v) coefficient values [i, j, s]
        self.values = {key: (hj.value, vj.value) for key, (hj, vj) in jets.items()}
        #: block -> (h, v) momentum derivatives pdot^l at [i, j, s, l]
        self.vderivs = {
            key: tuple(t.derivs(geom.pvars).value for t in pair) for key, pair in jets.items()
        }
        self._x_partials: dict[int, dict] = {}

    def _value_tables(self, coords: np.ndarray) -> dict:
        n = self.geom.n
        pt = ChartPoint(coords[:n], coords[n:])
        # only values are read here, and order 4 keeps them exact
        g = PointGeometry(self.s, pt, order=4)
        m = BundleMetric(g, self.params)
        tables, _ = _connection_jet_tables(g, m)
        return {key: (hj.value, vj.value) for key, (hj, vj) in tables.items()}

    def x_partial(self, var: int) -> dict:
        """d/dx^var of all coefficient tables, Richardson extrapolated."""
        got = self._x_partials.get(var)
        if got is not None:
            return got
        base = self.geom.at.coords
        scale = max(1.0, abs(base[var]))
        diffs = []
        for h in self.steps:
            hh = h * scale
            plus = base.copy()
            minus = base.copy()
            plus[var] += hh
            minus[var] -= hh
            tp = self._value_tables(plus)
            tm = self._value_tables(minus)
            diffs.append(
                {
                    key: (
                        (tp[key][0] - tm[key][0]) / (2.0 * hh),
                        (tp[key][1] - tm[key][1]) / (2.0 * hh),
                    )
                    for key in tp
                }
            )
        ratio = (self.steps[0] / self.steps[1]) ** 2
        out = {
            key: (
                (ratio * diffs[1][key][0] - diffs[0][key][0]) / (ratio - 1.0),
                (ratio * diffs[1][key][1] - diffs[0][key][1]) / (ratio - 1.0),
            )
            for key in diffs[0]
        }
        self._x_partials[var] = out
        return out

    def nabla_values(self, x_slot, y_slot):
        """(h, v) component vectors of nabla_X Y at the center."""
        (kx, ix), (ky, iy) = x_slot, y_slot
        hv, vv = self.values[f"{kx}_{ky}"]
        return hv[ix, iy].copy(), vv[ix, iy].copy()

    def frame_derivative_of_table(self, x_slot, key, iy, iz):
        """X applied to the 2n coefficient fields of nabla_{F_iy} F_iz for
        the block named by key; returns (dh[s], dv[s])."""
        kx, ix = x_slot
        dh_p, dv_p = self.vderivs[key]
        if kx == "v":
            return dh_p[iy, iz, :, ix].copy(), dv_p[iy, iz, :, ix].copy()
        part = self.x_partial(ix)
        dh = part[key][0][iy, iz, :].copy()
        dv = part[key][1][iy, iz, :].copy()
        for l in range(self.geom.n):
            nl = self.geom.N[ix, l]
            if nl != 0.0:
                dh += nl * dh_p[iy, iz, :, l]
                dv += nl * dv_p[iy, iz, :, l]
        return dh, dv

    def nabla_of_vector(self, x_slot, h_comp, v_comp):
        """nabla_X W for a point vector W given by frame components."""
        kx, ix = x_slot
        hh, hv = self.values[f"{kx}_h"]
        vh, vv = self.values[f"{kx}_v"]
        return h_comp @ hh[ix] + v_comp @ vh[ix], h_comp @ hv[ix] + v_comp @ vv[ix]

    def covariant_of_field(self, x_slot, y_slot, z_slot):
        """nabla_X (nabla_Y Z) treating nabla_Y Z as a frame-coefficient field."""
        ky, kz = y_slot[0], z_slot[0]
        key = f"{ky}_{kz}"
        iy, iz = y_slot[1], z_slot[1]
        dh, dv = self.frame_derivative_of_table(x_slot, key, iy, iz)
        wh, wv = self.nabla_values(y_slot, z_slot)
        th, tv = self.nabla_of_vector(x_slot, wh, wv)
        return dh + th, dv + tv

    def bracket_vertical(self, x_slot, y_slot) -> np.ndarray:
        """Vertical components of [X, Y] for adapted-frame fields (the
        horizontal components vanish identically)."""
        (kx, ix), (ky, iy) = x_slot, y_slot
        g = self.geom
        if kx == "h" and ky == "h":
            return g.R_vv[:, ix, iy].copy()
        if kx == "h" and ky == "v":
            return -g.B[iy, ix, :].copy()
        if kx == "v" and ky == "h":
            return g.B[ix, iy, :].copy()
        return np.zeros(g.n)


def curvature_context(
    s, at: ChartPoint, params: DeformationParams, geom=None, metric=None
) -> _DefnContext:
    """Reusable context for many definition-route curvature evaluations at
    one point (caches the finite-difference coefficient tables)."""
    return _DefnContext(s, at, params, geom=geom, metric=metric)


def curvature_defn(
    s,
    at: ChartPoint,
    params: DeformationParams,
    x_slot,
    y_slot,
    z_slot,
    geom: PointGeometry = None,
    metric: BundleMetric = None,
    ctx: _DefnContext = None,
) -> FrameVector:
    """K(X, Y) Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_{[X,Y]} Z
    for adapted-frame slots, differentiating the closed-form coefficient
    fields (finite differences along x, exact jets along p)."""
    if ctx is None:
        ctx = _DefnContext(s, at, params, geom=geom, metric=metric)
    n = ctx.geom.n
    x_slot, y_slot, z_slot = (
        (sl[0], slot_index(sl, n) % n) for sl in (x_slot, y_slot, z_slot)
    )
    h1, v1 = ctx.covariant_of_field(x_slot, y_slot, z_slot)
    h2, v2 = ctx.covariant_of_field(y_slot, x_slot, z_slot)
    w = ctx.bracket_vertical(x_slot, y_slot)
    vh, vv = ctx.values["v_h" if z_slot[0] == "h" else "v_v"]
    h3 = w @ vh[:, z_slot[1], :]
    v3 = w @ vv[:, z_slot[1], :]
    return FrameVector(ctx.geom, h1 - h2 - h3, v1 - v2 - v3)


# ---------------------------------------------------------------------------
# Ricci, Einstein factor, obstruction


@dataclass(frozen=True)
class RicciData:
    """Ricci blocks of the bundle metric in the adapted frame, the
    least-squares Einstein factor and the Einstein defect."""

    Ric_hh: np.ndarray
    Ric_vv: np.ndarray
    Ric_hv: np.ndarray
    Ric_vh: np.ndarray
    lambda_hat: float
    defect: float


def ricci(
    s,
    at: ChartPoint,
    params: DeformationParams,
    geom: PointGeometry = None,
    metric: BundleMetric = None,
) -> RicciData:
    """Ricci tensor by tracing the closed curvature blocks over the adapted
    frame, with lambda_hat = argmin_l |Ric - l G|_F over the diagonal blocks
    and defect = max componentwise residual over all four blocks."""
    geom, metric = _prepare(s, at, params, geom, metric)
    w = _derived(metric, "ingredients", lambda: _Ingredients(geom, metric))
    b14 = _BLOCK_BUILDERS["hh_h"](w)
    b17 = _BLOCK_BUILDERS["hv_h"](w)
    b13 = _BLOCK_BUILDERS["hv_v"](w)
    b6 = _BLOCK_BUILDERS["vv_v"](w)
    b15 = _BLOCK_BUILDERS["hh_v"](w)
    b16 = _BLOCK_BUILDERS["vv_h"](w)
    # trace of X -> K(X, Y) Z: the delta_i coefficient of K(delta_i, Y) Z
    # plus the pdot_i coefficient of K(pdot^i, Y) Z; mixed-kind pairs enter
    # through antisymmetry of K in its first two slots
    ric_hh = np.einsum("ijki->jk", b14[0]) - np.einsum("jiki->jk", b17[1])
    ric_vv = np.einsum("ijki->jk", b13[0]) + np.einsum("ijki->jk", b6[1])
    ric_hv = np.einsum("ijki->jk", b15[0]) - np.einsum("jiki->jk", b13[1])
    ric_vh = np.einsum("ijki->jk", b17[0]) + np.einsum("ijki->jk", b16[1])
    gd, gu = metric.G_down, metric.G_up
    num = float(np.sum(ric_hh * gd) + np.sum(ric_vv * gu))
    den = float(np.sum(gd * gd) + np.sum(gu * gu))
    lam = num / den
    defect = max(
        float(np.max(np.abs(ric_hh - lam * gd))),
        float(np.max(np.abs(ric_vv - lam * gu))),
        float(np.max(np.abs(ric_hv))),
        float(np.max(np.abs(ric_vh))),
    )
    return RicciData(
        Ric_hh=ric_hh,
        Ric_vv=ric_vv,
        Ric_hv=ric_hv,
        Ric_vh=ric_vh,
        lambda_hat=lam,
        defect=defect,
    )


def vertical_ricci_obstruction(
    s,
    at: ChartPoint,
    params: DeformationParams,
    geom: PointGeometry = None,
    metric: BundleMetric = None,
):
    """(residual, mean_cartan): the momentum trace of the vertical Ricci
    block minus its Einstein value, and the mean Cartan vector it must equal.

    residual^j = p_k Ric(pdot^j, pdot^k) - c n beta p_k G^{jk}; a nonzero
    mean Cartan vector obstructs the Einstein property.
    """
    geom, metric = _prepare(s, at, params, geom, metric)
    rd = ricci(s, at, params, geom, metric)
    n = geom.n
    c = metric.params.c_at(geom.tau)
    beta = metric.params.beta
    residual = rd.Ric_vv @ at.p - c * n * beta * (metric.G_up @ at.p)
    return residual, geom.I_up.copy()
