"""Levi-Civita connection of the deformed bundle metric, its curvature, and
the Einstein analysis.

Routes kept deliberately separate:

* ``lc_closed_form`` assembles the four adapted-frame connection blocks from
  closed formulas in the Cartan tensor, the Landsberg tensor, the Berwald
  coefficients and the bundle metric.
* ``koszul_oracle`` re-derives the whole connection table from the six-term
  Koszul formula using finite-difference frame derivatives of the metric
  components and measured frame brackets; it shares no algebra with the
  closed forms.  The first call at a point solves it for every slot pair at
  once and keeps the table of nabla_{F_x} F_y on the ``BundleMetric``; later
  calls return the kept table.  The ingredients: the G-pairings of the basis
  bracket table [F_a, F_b] (``PointGeometry.basis_brackets``, one
  ``geometry.lie_brackets`` build through the coordinate frame, never quoted
  from B or R_vv); the frame derivatives F_a(G(F_b, F_c)), from one
  ``jets.fd_partial`` (a Richardson-extrapolated central difference) of the
  whole 2n x 2n metric per chart variable; and the inverse of the Gram
  matrix ``BundleMetric.gram``.
* ``connection_defects`` measures the torsion and the metric compatibility
  of the closed connection as whole-array expressions of its table
  (``LCConnection.table``), the same basis bracket table and
  ``BundleMetric.gram``.
* ``curvature_closed`` evaluates the six closed curvature blocks, each an
  ``np.einsum`` expression over the point values of C, L, B, R, P, G and the
  covariant derivatives of C and L.  All six are built together by the
  first call for a ``BundleMetric`` and kept on it, as read-only arrays.
* ``curvature_defn`` guards them.  It differentiates the connection
  coefficient fields (``jets.fd_partial`` of all coefficient tables at once
  along x, exact jets along p) and composes them per the curvature
  definition, one whole block per call, in the ``CurvatureBlock`` layout of
  ``curvature_closed``.  Its context builds a block of frame-slot triples at
  once (``_DefnContext.block``) from its own tables: the coefficient values,
  their momentum derivatives, the x-partials and the frame brackets from B
  and R_vv.  It never reads the closed curvature algebra.
* ``ricci`` traces the closed blocks over the adapted frame and reports the
  least-squares Einstein factor and defect.  It reads the cached blocks and
  is itself kept on the ``BundleMetric``, so ``vertical_ricci_obstruction``
  reuses it.

Conventions: every table is over the adapted basis (delta_1..delta_n,
pdot^1..pdot^n), or over one frame kind of it, ``"h"`` for delta_i and
``"v"`` for pdot^i.  All component arrays are indexed with inputs first and
the output frame index last, so an oracle table and its closed-form
counterpart compare as whole arrays.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .berwald import DTensor
from .errors import ValenceError
from .geometry import PointGeometry
from .jets import ChartPoint, contract, fd_partial, invert
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

    def table(self) -> np.ndarray:
        """All four blocks as one array over the adapted basis: the adapted
        components of nabla_{F_a} F_b at [a, b, :]."""
        blocks = ((self.h_h, self.h_v), (self.v_h, self.v_v))
        rows = [np.concatenate([np.concatenate([b.h, b.v], -1) for b in row], 1) for row in blocks]
        return np.concatenate(rows, 0)


def _prepare(s, at, params, geom, metric):
    if geom is None:
        geom = metric.geom if metric is not None else PointGeometry(s, at)
    if metric is None:
        metric = BundleMetric(geom, params)
    return geom, metric


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
        """G(F_a, F_b)(pt) over the adapted basis."""
        return self.metric_at(pt).gram


def _frame_derivative_fd(partials: np.ndarray, geom: PointGeometry) -> np.ndarray:
    """F_a(f) at [a, ...] for every adapted basis field F_a, given the
    finite-difference partials of f along the 2n chart variables at
    [var, ...]: delta_a = d/dx^a + N_al d/dp_l and pdot^a = d/dp_a."""
    n = geom.n
    p_x, p_p = partials[:n], partials[n:]
    return np.concatenate([p_x + np.tensordot(geom.N, p_p, 1), p_p])


def _koszul_table(geom: PointGeometry, metric: BundleMetric, stencil: MetricStencil):
    """nabla_{F_x} F_y over the adapted basis, adapted components at
    [x, y, :], solved from the six Koszul terms for all slot pairs at once.

    ``dG[a, b, c] = F_a(G(F_b, F_c))`` comes from finite differences of the
    metric over the stencil, ``bG[a, b, c] = G([F_a, F_b], F_c)`` from the
    basis bracket table ``PointGeometry.basis_brackets``.  The array is
    read-only.
    """
    partials = np.array(
        [fd_partial(stencil.frame_matrix, geom.at, var) for var in range(2 * geom.n)]
    )
    dG = _frame_derivative_fd(partials, geom)
    gram = metric.gram
    bG = geom.basis_brackets @ gram
    # 2 G(nabla_{F_x} F_y, F_z) at [x, y, z]
    rhs = dG + np.einsum("yxz->xyz", dG) - np.einsum("zxy->xyz", dG) + bG
    rhs -= np.einsum("xzy->xyz", bG)
    rhs -= np.einsum("yzx->xyz", bG)
    out = np.einsum("ab,xyb->xya", invert(gram), 0.5 * rhs)
    out.setflags(write=False)
    return out


def koszul_oracle(
    s,
    at: ChartPoint,
    params: DeformationParams,
    geom: PointGeometry = None,
    metric: BundleMetric = None,
    stencil: MetricStencil = None,
) -> np.ndarray:
    """nabla_{F_x} F_y from the six-term Koszul formula over the adapted
    basis: the read-only table of adapted components at [x, y, :], laid out
    as ``LCConnection.table``.

    Frame derivatives of the metric components are plain central differences
    (Richardson extrapolated); brackets come from the basis bracket table
    (``geometry.lie_brackets``), not quoted from B or R_vv.  The first call
    at a point solves the Koszul formula for every slot pair at once and
    keeps the table on ``metric``; later calls with the same metric return
    it.  Raises a conditioning error if the frame Gram matrix is numerically
    singular.
    """
    geom, metric = _prepare(s, at, params, geom, metric)
    if stencil is None:
        stencil = MetricStencil(s, params)
    return metric.derive("koszul", lambda: _koszul_table(geom, metric, stencil))


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

    Torsion nabla_{F_a} F_b - nabla_{F_b} F_a - [F_a, F_b] reads the basis
    bracket table; compatibility compares exact frame derivatives of the
    metric components with G(nabla_{F_x} F_b, F_c) + G(F_b, nabla_{F_x} F_c).
    Both are whole-array expressions over the slot pairs (a < b for torsion,
    b <= c for compatibility).  Both vanish exactly when the horizontal
    curvature matches the constant-curvature form for the effective constant.
    """
    geom, metric = _prepare(s, at, params, geom, metric)
    n = geom.n
    dim = 2 * n
    nabla = lc_closed_form(s, at, params, geom, metric).table()

    a, b = np.triu_indices(dim, 1)
    torsion = nabla[a, b] - nabla[b, a] - geom.basis_brackets[a, b]

    # exact F_a(G(F_b, F_c)) at [a, b, c]; the mixed h-v blocks of G vanish
    dmetric = np.zeros((dim, dim, dim))
    for block, jets in ((slice(0, n), metric.G_down_jets), (slice(n, dim), metric.G_up_jets)):
        dmetric[:n, block, block] = np.einsum("bca->abc", geom.delta(jets).value)
        dmetric[n:, block, block] = np.einsum("bca->abc", jets.derivs(geom.pvars).value)
    paired = nabla @ metric.gram  # G(nabla_{F_x} F_b, F_c) at [x, b, c]
    b, c = np.triu_indices(dim)
    compat = dmetric[:, b, c] - paired[:, b, c] - paired[:, c, b]
    return float(np.abs(torsion).max()), float(np.abs(compat).max())


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


def _e(spec: str, *operands) -> np.ndarray:
    """einsum onto the block layout [i, j, k, h]; ``spec`` names the inputs."""
    return np.einsum(spec + "->ijkh", *operands)


def _anti(t: np.ndarray) -> np.ndarray:
    """t[i, j, k, h] - t[j, i, k, h]: antisymmetric part in the frame pair."""
    return t - t.transpose(1, 0, 2, 3)


def _closed_blocks(w: _Ingredients) -> dict:
    """The six closed blocks, (h, v) at [i, j, k, h] as in CurvatureBlock."""
    c, b, p, eye = w.c, w.beta, w.p, np.eye(w.n)
    b2, inv_b2 = b * b, 1.0 / (b * b)
    C, Cd, Cm, L, Lu, Ld = w.C_uud, w.C_ddd, w.C_mixed, w.L_uuu, w.L_uud, w.L_udd
    blocks = {
        "vv_v": (
            b2 * _anti(_e("jkhi", w.dL_uuu)),
            _anti(
                _e("ikhj", w.dC_uud) + c * b * _e("jk,ih", w.Gu, eye)
                + _e("jks,ish", C, C) + b2 * _e("jsh,sik", Ld, L)
            ),
        ),
        "hv_v": (
            c * b * _e("kh,ji", w.Gu, eye) - _e("khij", w.dC_uud) + b2 * _e("hjki", w.hL_uuu)
            - _e("jhs,ksi", C, C) - _e("jks,hsi", C, C)
            + b2 * (_e("sjk,his", L, Ld) + _e("ksi,hjs", Ld, L)),
            _e("kjih", w.P) - _e("jkhi", w.hC_uud) - c * b2 * _e("jki,h", Lu, p)
            + _e("khij", w.dL_udd) - _e("ish,jsk", Cd, L) + _e("jks,sih", C, Ld)
            + _e("ski,jsh", C, Ld) - _e("jsh,kis", C, Ld),
        ),
        "hh_h": (
            _e("hkji", w.R_curv) + _anti(
                c * c * b2 * _e("i,hj,k", p, eye, p) + _e("hkji", w.hL_udd)
                + inv_b2 * _e("iks,hsj", Cd, C) + _e("skj,his", Ld, Ld)
            ),
            inv_b2 * _anti(_e("ikhj", w.hC_ddd)) + 2.0 * _e("sij,shk", w.R_vv, Ld)
            + inv_b2 * (
                _anti(_e("jks,sih", Cd, Ld)) + _e("jhs,ski", Cd, Ld) - _e("ihs,sjk", Cd, Ld)
            ),
        ),
        "hh_v": (
            _anti(
                _e("khji", w.hC_uud) + c * b2 * _e("j,khi", p, Lu)
                + _e("ksj,hsi", C, Ld) + _e("shj,ksi", C, Ld)
            ),
            -_e("khji", w.R_curv) + _anti(
                c * c * b2 * _e("h,j,ki", p, p, eye) + _e("khij", w.hL_udd)
                + inv_b2 * _e("ksi,jhs", C, Cd) + _e("ksj,shi", Ld, Ld)
            ),
        ),
        "vv_h": (
            _anti(
                _e("jhki", w.dC_uud) + c * b * _e("ih,jk", w.Gu, eye)
                + _e("jsk,ihs", C, C) + b2 * _e("jsh,isk", L, Ld)
            ),
            _anti(_e("ikhj", w.dL_udd)),
        ),
        "hv_h": (
            _e("jhki", w.hC_uud) + c * b2 * _e("jhi,k", Lu, p) - _e("hkij", w.dL_udd)
            - _e("hjik", w.P) + _e("jsk,hsi", C, Ld) - _e("jhs,ski", C, Ld)
            - _e("shi,jsk", C, Ld) + _e("iks,hjs", Cd, L),
            inv_b2 * _e("ikhj", w.dC_ddd) + c * _e("h,jik", p, Cm) + c * _e("k,jih", p, Cm)
            - c * b * _e("kh,ji", w.Gd, eye) - _e("jhki", w.hL_udd)
            - inv_b2 * (_e("ish,jsk", Cd, C) + _e("iks,jsh", Cd, C))
            + _e("jsk,shi", Ld, Ld) + _e("jsh,ski", Ld, Ld),
        ),
    }
    for H, V in blocks.values():
        H.setflags(write=False)
        V.setflags(write=False)
    return {which: CurvatureBlock(which, H, V) for which, (H, V) in blocks.items()}


def _check_block_name(which: str) -> None:
    if which not in CURVATURE_BLOCKS:
        raise ValueError(f"unknown curvature block {which!r}; expected one of {CURVATURE_BLOCKS}")


def _blocks(geom: PointGeometry, metric: BundleMetric) -> dict:
    """All six closed blocks at the metric's point, built once per metric."""
    return metric.derive("blocks", lambda: _closed_blocks(_Ingredients(geom, metric)))


def curvature_closed(
    s,
    at: ChartPoint,
    params: DeformationParams,
    which: str,
    geom: PointGeometry = None,
    metric: BundleMetric = None,
) -> CurvatureBlock:
    """One closed-form curvature block (see CURVATURE_BLOCKS for names).

    The six blocks are built together by the first call for a metric and
    kept on it; their arrays are read-only.
    """
    _check_block_name(which)
    geom, metric = _prepare(s, at, params, geom, metric)
    return _blocks(geom, metric)[which]


# ---------------------------------------------------------------------------
# curvature: definition oracle


class _DefnContext:
    """Connection coefficient fields around a point: values and exact
    vertical derivatives from the jets at the center, finite-difference
    tables for x-partials, and the curvature blocks composed from them."""

    def __init__(self, s, at, params, geom=None, metric=None):
        geom, metric = _prepare(s, at, params, geom, metric)
        self.s = s
        self.params = params
        self.geom = geom
        self.metric = metric
        jets, self.c_eff = _connection_jet_tables(geom, metric)
        #: block -> (h, v) coefficient values [i, j, s]
        self.values = {key: (hj.value, vj.value) for key, (hj, vj) in jets.items()}
        #: block -> (h, v) momentum derivatives pdot^l at [i, j, s, l]
        self.vderivs = {
            key: tuple(t.derivs(geom.pvars).value for t in pair) for key, pair in jets.items()
        }
        self._x_partials: dict[int, dict] = {}
        self._tables: dict[tuple, object] = {}

    def _cached(self, key: tuple, build):
        got = self._tables.get(key)
        if got is None:
            got = self._tables[key] = build()
        return got

    def _value_tables(self, pt: ChartPoint) -> np.ndarray:
        """All coefficient values at pt, stacked as [block, h/v, i, j, s] in
        the order of ``self.values``."""
        # only values are read here, and order 4 keeps them exact
        g = PointGeometry(self.s, pt, order=4)
        tables, _ = _connection_jet_tables(g, BundleMetric(g, self.params))
        return np.array([(hj.value, vj.value) for hj, vj in tables.values()])

    def x_partial(self, var: int) -> dict:
        """d/dx^var of all coefficient tables (``jets.fd_partial``): block ->
        (h, v) at [i, j, s]."""
        got = self._x_partials.get(var)
        if got is None:
            d = fd_partial(self._value_tables, self.geom.at, var)
            got = self._x_partials[var] = {
                key: (d[b, 0], d[b, 1]) for b, key in enumerate(self.values)
            }
        return got

    def _frame_derivative(self, kx: str) -> dict:
        """F_a applied to every coefficient field, for the basis fields F_a
        of kind kx: block -> (h, v) at [a, i, j, s]."""

        def build():
            d = {
                key: [np.einsum("ijsl->lijs", t) for t in pair]
                for key, pair in self.vderivs.items()
            }
            if kx == "v":
                return d
            # delta_a = d/dx^a + N_al d/dp_l
            parts = [self.x_partial(a) for a in range(self.geom.n)]
            return {
                key: [
                    np.array([q[key][t] for q in parts])
                    + np.einsum("al,lijs->aijs", self.geom.N, d[key][t])
                    for t in (0, 1)
                ]
                for key in d
            }

        return self._cached(("d", kx), build)

    def _covariant(self, kx: str, ky: str, kz: str) -> list:
        """nabla_X (nabla_Y Z) for every slot triple of the kinds kx, ky,
        kz, with nabla_Y Z taken as a frame-coefficient field: (h, v) at
        [x, y, z, s]."""

        def build():
            d = self._frame_derivative(kx)[f"{ky}_{kz}"]
            wh, wv = self.values[f"{ky}_{kz}"]
            xh, xv = self.values[f"{kx}_h"], self.values[f"{kx}_v"]
            return [
                d[t] + np.einsum("yzm,xms->xyzs", wh, xh[t]) + np.einsum("yzm,xms->xyzs", wv, xv[t])
                for t in (0, 1)
            ]

        return self._cached(("cov", kx, ky, kz), build)

    def block(self, kx: str, ky: str, kz: str) -> tuple:
        """K(F_i, F_j) F_k for every slot triple of the frame kinds kx, ky,
        kz: the read-only (h, v) arrays [i, j, k, s].

        K(X, Y) Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_{[X,Y]} Z,
        where the bracket of two adapted basis fields is vertical: R_vv for
        two horizontal fields, +-B for mixed kinds, zero for two vertical.
        """
        if not {kx, ky, kz} <= {"h", "v"}:
            raise ValenceError(f"frame kinds must be 'h' or 'v', got {(kx, ky, kz)!r}")

        def build():
            g = self.geom
            if kx != ky:
                bracket = g.B if kx == "v" else -np.einsum("jim->ijm", g.B)
            elif kx == "h":
                bracket = np.einsum("mij->ijm", g.R_vv)
            else:
                bracket = np.zeros((g.n, g.n, g.n))
            xyz, yxz = self._covariant(kx, ky, kz), self._covariant(ky, kx, kz)
            out = []
            for t in (0, 1):
                k = xyz[t] - yxz[t].transpose(1, 0, 2, 3) - np.einsum(
                    "ijm,mks->ijks", bracket, self.values[f"v_{kz}"][t]
                )
                k.setflags(write=False)
                out.append(k)
            return tuple(out)

        return self._cached(("K", kx, ky, kz), build)


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
    which: str,
    geom: PointGeometry = None,
    metric: BundleMetric = None,
    ctx: _DefnContext = None,
) -> CurvatureBlock:
    """One curvature block by definition, K(X, Y) Z = nabla_X nabla_Y Z -
    nabla_Y nabla_X Z - nabla_{[X,Y]} Z over every slot triple of its frame
    kinds, differentiating the closed-form coefficient fields (finite
    differences along x, exact jets along p).  Named and laid out as the
    block of ``curvature_closed``; its arrays are read-only."""
    _check_block_name(which)
    if ctx is None:
        ctx = _DefnContext(s, at, params, geom=geom, metric=metric)
    h, v = ctx.block(which[0], which[1], which[3])
    return CurvatureBlock(which, h, v)


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


def _ricci_data(metric: BundleMetric, k: dict) -> RicciData:
    # trace of X -> K(X, Y) Z: the delta_i coefficient of K(delta_i, Y) Z
    # plus the pdot_i coefficient of K(pdot^i, Y) Z; mixed-kind pairs enter
    # through antisymmetry of K in its first two slots
    ric_hh = np.einsum("ijki->jk", k["hh_h"].h) - np.einsum("jiki->jk", k["hv_h"].v)
    ric_vv = np.einsum("ijki->jk", k["hv_v"].h) + np.einsum("ijki->jk", k["vv_v"].v)
    ric_hv = np.einsum("ijki->jk", k["hh_v"].h) - np.einsum("jiki->jk", k["hv_v"].v)
    ric_vh = np.einsum("ijki->jk", k["hv_h"].h) + np.einsum("ijki->jk", k["vv_h"].v)
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
    for ric in (ric_hh, ric_vv, ric_hv, ric_vh):
        ric.setflags(write=False)
    return RicciData(
        Ric_hh=ric_hh,
        Ric_vv=ric_vv,
        Ric_hv=ric_hv,
        Ric_vh=ric_vh,
        lambda_hat=lam,
        defect=defect,
    )


def ricci(
    s,
    at: ChartPoint,
    params: DeformationParams,
    geom: PointGeometry = None,
    metric: BundleMetric = None,
) -> RicciData:
    """Ricci tensor by tracing the closed curvature blocks over the adapted
    frame, with lambda_hat = argmin_l |Ric - l G|_F over the diagonal blocks
    and defect = max componentwise residual over all four blocks.  Built
    once per metric; its arrays are read-only."""
    geom, metric = _prepare(s, at, params, geom, metric)
    return metric.derive("ricci", lambda: _ricci_data(metric, _blocks(geom, metric)))


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
