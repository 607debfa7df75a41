"""Levi-Civita connection of the deformed bundle metric, its curvature, and
the Einstein analysis.

The connection is one table over the adapted basis F_a (delta_1..delta_n,
pdot^1..pdot^n): Gamma[a, b, :] holds the adapted components of
nabla_{F_a} F_b.  The curvature is one table K[x, y, z, :] holding the
adapted components of K(F_x, F_y) F_z.  A block of either, named by the
frame kinds of its leading axes (``"h"`` for delta_i, ``"v"`` for pdot^i),
is the slice ``geometry.frame_block(table, kinds)``: the curvature block
``"hv_h"`` is K[:n, n:, :n].  Each table and the connection defects
are built once per ``BundleMetric`` and kept on it; the tables are
read-only.

Routes kept deliberately separate:

* ``lc_closed_form`` returns the connection table from closed formulas in
  the Cartan tensor, the Landsberg tensor, the Berwald coefficients and the
  bundle metric.  The table is the value of one (2n, 2n, 2n) jet
  (``_connection_jet``), which the definition route differentiates.
* ``koszul_oracle`` re-derives the whole connection table from the six-term
  Koszul formula using finite-difference frame derivatives of the metric
  components and measured frame brackets; it shares no algebra with the
  closed forms.  The ingredients: the G-pairings of the basis bracket table
  [F_a, F_b] (``PointGeometry.basis_brackets``, one ``geometry.lie_brackets``
  build through the coordinate frame, never quoted from B or R_vv); the
  frame derivatives F_a(G(F_b, F_c)), from Richardson-extrapolated
  central differences of the whole 2n x 2n metric (``_gram_partials``: one
  order-2 metric over the whole stencil along all 2n chart variables, as
  one batch); and the inverse of the Gram matrix ``BundleMetric.gram``.
* ``connection_defects`` measures the torsion and the metric compatibility
  of the closed connection as whole-array expressions of its table, the
  same basis bracket table, the exact frame derivatives of the metric
  (``BundleMetric.gram_derivatives``, read off ``gram_jets``) and
  ``BundleMetric.gram``.
* ``curvature_closed`` returns the curvature table assembled from the six
  closed blocks (``CURVATURE_BLOCKS``), each an ``np.einsum`` expression
  read straight off the point's ``PointGeometry`` and ``BundleMetric``:
  the point values of C, L, R, P and G, and the covariant derivatives of C
  and L (``PointGeometry.h_cov`` and the momentum derivatives of their
  jets); the (v, h, .) blocks follow by antisymmetry in the first pair.
  It covers constant profiles only and refuses one that reads tau.
* ``curvature_defn`` guards it.  One function (``_defn_curvature``)
  differentiates the connection field (the exact first chart partials of
  the center's connection jet, which has order 1 and x-cap 1 from an
  order-5 geometry) and composes the whole table per the curvature
  definition K(X, Y) Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z -
  nabla_{[X,Y]} Z, with the brackets from ``basis_brackets``.  It never
  reads the closed curvature algebra.
* ``ricci`` traces the closed curvature table, Ric(F_y, F_z) =
  sum_x K[x, y, z, x], and reports the least-squares Einstein factor and
  defect; ``vertical_ricci_obstruction`` reuses it.

The definition route evaluates nothing at a shifted point: every partial
it takes is read off a jet the point already holds, so the two checks of
the closed blocks against it are ``jet_exact``.  The Koszul oracle takes
first finite-difference partials, so its check is ``fd_single``.

All component arrays are indexed with inputs first and the output frame
index last, so an oracle table and its closed-form counterpart compare as
whole arrays.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EvaluationDomainError
from .geometry import PointGeometry, chart_partials, frame_block, frame_derivative, read_only
from .jets import ChartPoint, Jet, contract, fd_combine, fd_stencil, invert
from .kahler import BundleMetric, DeformationParams, point_state

__all__ = [
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

#: frame-kind patterns of the six closed curvature blocks: K(F_i, F_j) F_k
#: with the first two letters naming the kinds of the antisymmetric pair and
#: the letter after the underscore naming the kind of the argument.
CURVATURE_BLOCKS = ("vv_v", "hv_v", "hh_h", "hh_v", "vv_h", "hv_h")


# ---------------------------------------------------------------------------
# closed-form connection


def _connection_blocks(C_uud, C_ddd, L_uuu, L_udd, B, G_up, G_down, p, beta: float, c: float) -> dict:
    """The eight blocks of nabla_{F_a} F_b by the frame kinds of [a, b, :],
    from jets or from point values alike."""
    L_udd_B = L_udd + B
    Gu_p = contract("ij,s->ijs", G_up, p) * (c * beta)  # c beta G^ij p_s
    Gd_p = contract("js,i->ijs", G_down, p) * (c * beta)  # c beta G_js p_i
    return {
        # nabla_{pdot^i} pdot^j = beta^2 L^{ijs} delta_s
        #                         + (-C^{ij}_s + c beta G^{ij} p_s) pdot^s
        "vvh": L_uuu * (beta * beta),
        "vvv": -C_uud + Gu_p,
        # nabla_{delta_i} pdot^j = (C^{js}_i - c beta G^{js} p_i) delta_s
        #                          - (L^j_{is} + B^j_{is}) pdot^s
        "hvh": contract("jsi->ijs", C_uud - Gu_p),
        "hvv": -contract("jis->ijs", L_udd_B),
        # nabla_{pdot^i} delta_j = (C^{is}_j - c beta G^{is} p_j) delta_s
        #                          - L^i_{js} pdot^s
        "vhh": contract("isj->ijs", C_uud - Gu_p),
        "vhv": -L_udd,
        # nabla_{delta_i} delta_j = (L^s_{ij} + B^s_{ij}) delta_s
        #     + (-(1/beta^2) C_{ijs} + c beta G_{js} p_i) pdot^s
        "hhh": contract("sij->ijs", L_udd_B),
        "hhv": C_ddd * (-1.0 / (beta * beta)) + Gd_p,
    }


def _connection_jet(geom: PointGeometry, metric: BundleMetric) -> Jet:
    """nabla_{F_a} F_b as one (2n, 2n, 2n) jet: adapted components at
    [a, b, :], at the common order of its eight blocks (1 from an order-5
    geometry).  The constant c is the jet of c(tau), so a profile that
    varies with tau enters the partials.  The coefficient array is
    read-only."""
    params = metric.params
    blocks = _connection_blocks(
        geom.C_uud_jets, geom.C_ddd_jets, geom.L_uuu_jets, geom.L_udd_jets, geom.B_jets,
        metric.G_up_jets, metric.G_down_jets, geom.p_coord(3), params.beta, params.c_at(geom.k2 * 0.5),
    )
    order = min(t.order for t in blocks.values())
    xcap = min(t.xcap for t in blocks.values())
    dim = 2 * geom.n
    out = Jet.constant(np.zeros((dim, dim, dim)), dim, order, xcap)
    for kinds, t in blocks.items():
        frame_block(out.c, kinds)[...] = t.truncate(order, xcap).c
    read_only(out.c)
    return out


def _connection(geom: PointGeometry, metric: BundleMetric) -> Jet:
    """The connection jet at the metric's point, built once per metric."""
    return metric.derive("connection", lambda: _connection_jet(geom, metric))


def lc_closed_form(
    s,
    at: ChartPoint,
    params: DeformationParams,
    geom: PointGeometry = None,
    metric: BundleMetric = None,
) -> np.ndarray:
    """Closed-form Levi-Civita connection at a point: the read-only table of
    the adapted components of nabla_{F_a} F_b at [a, b, :].

    Valid as the Levi-Civita connection of the bundle metric when the
    horizontal curvature satisfies the constant-curvature form for
    c = -v/(alpha beta^2); for other inputs it is simply the displayed
    coefficient field (the Koszul oracle then measures the discrepancy).
    """
    geom, metric = point_state(s, at, params, geom, metric)
    return _connection(geom, metric).c[..., 0]  # a view of the read-only coefficients


# ---------------------------------------------------------------------------
# Koszul oracle


class MetricStencil:
    """Bundle metrics of one structure and parameter set at the shifted
    chart points of a stencil; nothing is kept between calls."""

    def __init__(self, s, params):
        self.s = s
        self.params = params

    def metric_at(self, pt: ChartPoint, order: int = 2) -> BundleMetric:
        """The metric at ``pt`` (a point or a batch) on a geometry of
        ``order``: 2 keeps the values of G, 4 those of the connection table
        too."""
        return BundleMetric(PointGeometry(self.s, pt, order), self.params)


def _gram_partials(geom: PointGeometry, metric: BundleMetric) -> np.ndarray:
    """The partials of the Gram matrix G(F_a, F_b) along the 2n chart
    variables, at [var, a, b]: `jets.fd_combine` of the Gram matrices of
    one order-2 metric over the whole `jets.fd_stencil`.  Read-only, built
    once per metric."""

    def build():
        chart = range(2 * geom.n)
        stencil = MetricStencil(geom.structure, metric.params)
        grams = stencil.metric_at(fd_stencil(geom.at, chart)).gram
        return read_only(fd_combine(grams, geom.at, chart))

    return metric.derive("gram_partials", build)


def _koszul_table(geom: PointGeometry, metric: BundleMetric):
    """nabla_{F_x} F_y over the adapted basis, adapted components at
    [x, y, :], solved from the six Koszul terms for all slot pairs at once.

    ``dG[a, b, c] = F_a(G(F_b, F_c))`` comes from finite differences of the
    metric (`_gram_partials`), ``bG[a, b, c] = G([F_a, F_b], F_c)`` from the
    basis bracket table ``PointGeometry.basis_brackets``.  The array is
    read-only.
    """
    dG = frame_derivative(_gram_partials(geom, metric), geom)
    gram = metric.gram
    bG = geom.basis_brackets @ gram
    # 2 G(nabla_{F_x} F_y, F_z) at [x, y, z]
    rhs = dG + np.einsum("yxz->xyz", dG) - np.einsum("zxy->xyz", dG) + bG
    rhs -= np.einsum("xzy->xyz", bG)
    rhs -= np.einsum("yzx->xyz", bG)
    return read_only(np.einsum("ab,xyb->xya", invert(gram), 0.5 * rhs))


def koszul_oracle(
    s,
    at: ChartPoint,
    params: DeformationParams,
    geom: PointGeometry = None,
    metric: BundleMetric = None,
) -> np.ndarray:
    """nabla_{F_x} F_y from the six-term Koszul formula over the adapted
    basis: the read-only table of adapted components at [x, y, :], laid out
    as ``lc_closed_form``.

    Frame derivatives of the metric components are plain central differences
    (Richardson extrapolated); brackets come from the basis bracket table
    (``geometry.lie_brackets``), not quoted from B or R_vv.  The first call
    at a point solves the Koszul formula for every slot pair at once and
    keeps the table on ``metric``; later calls with the same metric return
    it.  Raises a conditioning error if the frame Gram matrix is numerically
    singular.
    """
    geom, metric = point_state(s, at, params, geom, metric)
    return metric.derive("koszul", lambda: _koszul_table(geom, metric))


# ---------------------------------------------------------------------------
# torsion / metric-compatibility defects of the closed form


def connection_defects(
    s,
    at: ChartPoint,
    params: DeformationParams,
    geom: PointGeometry = None,
    metric: BundleMetric = None,
):
    """(torsion, compatibility) residuals of the closed-form connection,
    computed once per metric.

    Torsion nabla_{F_a} F_b - nabla_{F_b} F_a - [F_a, F_b] reads the basis
    bracket table; compatibility compares exact frame derivatives of the
    metric components with G(nabla_{F_x} F_b, F_c) + G(F_b, nabla_{F_x} F_c).
    Both are whole-array expressions over the slot pairs (a < b for torsion,
    b <= c for compatibility).  Both vanish exactly when the horizontal
    curvature matches the constant-curvature form for the effective constant.
    """
    geom, metric = point_state(s, at, params, geom, metric)

    def build():
        dim = 2 * geom.n
        nabla = lc_closed_form(s, at, params, geom, metric)
        a, b = np.triu_indices(dim, 1)
        torsion = nabla[a, b] - nabla[b, a] - geom.basis_brackets[a, b]
        paired = nabla @ metric.gram  # G(nabla_{F_x} F_b, F_c) at [x, b, c]
        b, c = np.triu_indices(dim)
        compat = metric.gram_derivatives[:, b, c] - paired[:, b, c] - paired[:, c, b]
        return float(np.abs(torsion).max()), float(np.abs(compat).max())

    return metric.derive("defects", build)


# ---------------------------------------------------------------------------
# curvature: closed blocks


def _e(spec: str, *operands) -> np.ndarray:
    """einsum onto the block layout [i, j, k, h]; ``spec`` names the inputs."""
    return np.einsum(spec + "->ijkh", *operands)


def _anti(t: np.ndarray) -> np.ndarray:
    """t[i, j, k, h] - t[j, i, k, h]: antisymmetric part in the frame pair."""
    return t - t.transpose(1, 0, 2, 3)


def _closed_blocks(geom: PointGeometry, metric: BundleMetric) -> dict:
    """The six closed blocks by name (``CURVATURE_BLOCKS``): the (h, v) parts
    of K(F_i, F_j) F_k at [i, j, k, h].  The h- (``h*``) and v-covariant
    (``d*``) derivatives of C and L append their index last."""
    params = metric.params
    c, b, p, eye = params.c_at(geom.tau), params.beta, geom.at.p, np.eye(geom.n)
    b2, inv_b2 = b * b, 1.0 / (b * b)
    C, Cd, Cm = geom.C_uud_jets.value, geom.C_ddd, geom.C_mixed
    L, Lu, Ld = geom.L_uuu, geom.L_uud, geom.L_udd
    R, Rvv, P, Gu, Gd = geom.R_curv, geom.R_vv, geom.P_curv, metric.G_up, metric.G_down
    jets = ((geom.C_uud_jets, "uud"), (geom.C_ddd_jets, "ddd"), (geom.L_uuu_jets, "uuu"), (geom.L_udd_jets, "udd"))
    hC, hCd, hL, hLd = (geom.h_cov(t, valence).value for t, valence in jets)
    dC, dCd, dL, dLd = (t.derivs(geom.pvars).value for t, _ in jets)
    return {
        "vv_v": (
            b2 * _anti(_e("jkhi", dL)),
            _anti(
                _e("ikhj", dC) + c * b * _e("jk,ih", Gu, eye)
                + _e("jks,ish", C, C) + b2 * _e("jsh,sik", Ld, L)
            ),
        ),
        "hv_v": (
            c * b * _e("kh,ji", Gu, eye) - _e("khij", dC) + b2 * _e("hjki", hL)
            - _e("jhs,ksi", C, C) - _e("jks,hsi", C, C)
            + b2 * (_e("sjk,his", L, Ld) + _e("ksi,hjs", Ld, L)),
            _e("kjih", P) - _e("jkhi", hC) - c * b2 * _e("jki,h", Lu, p)
            + _e("khij", dLd) - _e("ish,jsk", Cd, L) + _e("jks,sih", C, Ld)
            + _e("ski,jsh", C, Ld) - _e("jsh,kis", C, Ld),
        ),
        "hh_h": (
            _e("hkji", R) + _anti(
                c * c * b2 * _e("i,hj,k", p, eye, p) + _e("hkji", hLd)
                + inv_b2 * _e("iks,hsj", Cd, C) + _e("skj,his", Ld, Ld)
            ),
            inv_b2 * _anti(_e("ikhj", hCd)) + 2.0 * _e("sij,shk", Rvv, Ld)
            + inv_b2 * (
                _anti(_e("jks,sih", Cd, Ld)) + _e("jhs,ski", Cd, Ld) - _e("ihs,sjk", Cd, Ld)
            ),
        ),
        "hh_v": (
            _anti(
                _e("khji", hC) + c * b2 * _e("j,khi", p, Lu)
                + _e("ksj,hsi", C, Ld) + _e("shj,ksi", C, Ld)
            ),
            -_e("khji", R) + _anti(
                c * c * b2 * _e("h,j,ki", p, p, eye) + _e("khij", hLd)
                + inv_b2 * _e("ksi,jhs", C, Cd) + _e("ksj,shi", Ld, Ld)
            ),
        ),
        "vv_h": (
            _anti(
                _e("jhki", dC) + c * b * _e("ih,jk", Gu, eye)
                + _e("jsk,ihs", C, C) + b2 * _e("jsh,isk", L, Ld)
            ),
            _anti(_e("ikhj", dLd)),
        ),
        "hv_h": (
            _e("jhki", hC) + c * b2 * _e("jhi,k", Lu, p) - _e("hkij", dLd)
            - _e("hjik", P) + _e("jsk,hsi", C, Ld) - _e("jhs,ski", C, Ld)
            - _e("shi,jsk", C, Ld) + _e("iks,hjs", Cd, L),
            inv_b2 * _e("ikhj", dCd) + c * _e("h,jik", p, Cm) + c * _e("k,jih", p, Cm)
            - c * b * _e("kh,ji", Gd, eye) - _e("jhki", hLd)
            - inv_b2 * (_e("ish,jsk", Cd, C) + _e("iks,jsh", Cd, C))
            + _e("jsk,shi", Ld, Ld) + _e("jsh,ski", Ld, Ld),
        ),
    }


def _closed_curvature(geom: PointGeometry, metric: BundleMetric) -> np.ndarray:
    """The read-only curvature table K[x, y, z, :] from the six closed
    blocks; the (v, h, .) kinds follow by antisymmetry in the first pair."""
    dim = 2 * geom.n
    k = np.zeros((dim,) * 4)
    for which, (H, V) in _closed_blocks(geom, metric).items():
        frame_block(k, which + "h")[...] = H
        frame_block(k, which + "v")[...] = V
    frame_block(k, "vh")[...] = -frame_block(k, "hv").transpose(1, 0, 2, 3)
    return read_only(k)


def curvature_closed(
    s,
    at: ChartPoint,
    params: DeformationParams,
    geom: PointGeometry = None,
    metric: BundleMetric = None,
) -> np.ndarray:
    """Closed-form curvature: the read-only table of the adapted components
    of K(F_x, F_y) F_z at [x, y, z, :], built once per metric.  Its blocks
    are ``frame_block(K, which)`` for ``which`` in ``CURVATURE_BLOCKS``.
    The blocks freeze c at the point's tau, so a profile that reads tau
    raises EvaluationDomainError."""
    geom, metric = point_state(s, at, params, geom, metric)
    if metric.params.reads_tau:
        raise EvaluationDomainError(f"profile {metric.params.v!r} reads tau; the closed curvature covers constant profiles only")
    return metric.derive("curvature", lambda: _closed_curvature(geom, metric))


# ---------------------------------------------------------------------------
# curvature: definition oracle


def _defn_curvature(geom: PointGeometry, metric: BundleMetric) -> np.ndarray:
    """K(F_x, F_y) F_z = nabla_{F_x} nabla_{F_y} F_z - nabla_{F_y}
    nabla_{F_x} F_z - nabla_{[F_x, F_y]} F_z for every slot triple: the
    read-only table of adapted components at [x, y, z, :], from the
    connection jet at the center (its values and its exact first chart
    partials)."""
    jet = _connection(geom, metric)
    gamma = jet.value
    # nabla_{F_x} (nabla_{F_y} F_z), with nabla_{F_y} F_z a coefficient field
    cov = frame_derivative(chart_partials(jet), geom) + np.einsum("yzm,xms->xyzs", gamma, gamma)
    k = cov - cov.transpose(1, 0, 2, 3)
    return read_only(k - np.einsum("xym,mzs->xyzs", geom.basis_brackets, gamma))


def curvature_defn(
    s,
    at: ChartPoint,
    params: DeformationParams,
    geom: PointGeometry = None,
    metric: BundleMetric = None,
) -> np.ndarray:
    """Curvature by definition, K(X, Y) Z = nabla_X nabla_Y Z -
    nabla_Y nabla_X Z - nabla_{[X,Y]} Z over every slot triple,
    differentiating the closed-form connection field by the exact first
    partials of its jet.  Laid out as ``curvature_closed``; the
    table is read-only, built once per metric and kept on it under
    ``"defn"``."""
    geom, metric = point_state(s, at, params, geom, metric)
    return metric.derive("defn", lambda: _defn_curvature(geom, metric))


# the same function: `benchmarks/tracing.py` spans both names
curvature_context = curvature_defn


# ---------------------------------------------------------------------------
# Ricci, Einstein factor, obstruction


@dataclass(frozen=True)
class RicciData:
    """Ricci tensor of the bundle metric over the adapted basis (``ric``,
    read-only, Ric(F_y, F_z) at [y, z]), the least-squares Einstein factor
    and the Einstein defect."""

    ric: np.ndarray
    lambda_hat: float
    defect: float


def _ricci_data(metric: BundleMetric, k: np.ndarray) -> RicciData:
    # trace of X -> K(X, F_y) F_z
    ric = read_only(np.einsum("abca->bc", k))
    gram = metric.gram
    # Ric and G divided by max|G| first, so neither sum overflows at large |p|
    scale = float(np.abs(gram).max())
    unit = gram / scale
    lam = float(np.sum((ric / scale) * unit)) / float(np.sum(unit * unit))
    return RicciData(ric=ric, lambda_hat=lam, defect=float(np.abs(ric - lam * gram).max()))


def ricci(
    s,
    at: ChartPoint,
    params: DeformationParams,
    geom: PointGeometry = None,
    metric: BundleMetric = None,
) -> RicciData:
    """Ricci tensor as the trace of the closed curvature table, with
    lambda_hat = argmin_l |Ric - l G|_F over the Gram matrix and defect =
    max |Ric - lambda_hat G|.  Built once per metric."""
    geom, metric = point_state(s, at, params, geom, metric)
    return metric.derive(
        "ricci", lambda: _ricci_data(metric, curvature_closed(s, at, params, geom, metric))
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
    geom, metric = point_state(s, at, params, geom, metric)
    rd = ricci(s, at, params, geom, metric)
    n = geom.n
    c = metric.params.c_at(geom.tau)
    beta = metric.params.beta
    residual = frame_block(rd.ric, "vv") @ at.p - c * n * beta * (metric.G_up @ at.p)
    return residual, geom.I_up.copy()
