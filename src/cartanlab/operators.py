"""Divergence, gradient, and Laplace operators in the adapted frame, plus the
geodesic spray / Liouville field and the mean-Landsberg characterizations.

The divergence is the frame-trace divergence used throughout: the components
of X in the adapted frame are frozen at the evaluation point and multiplied
by the divergences of the frame fields themselves,

    div(X) = X^i div(delta_i) + Xbar_i div(pdot^i),

with div(F_b) = sum_a Gamma[a, b, a], one trace of the closed Levi-Civita
table Gamma[a, b, :] = nabla_{F_a} F_b (`levicivita.lc_closed_form`).  Under
this definition the vertical frame divergences vanish identically, the
Liouville field is divergence-free, and the Laplacian of a scalar reduces to
the closed first-order form checked below.

A vector field is its (2n,) float array of adapted components (X^i, Xbar_i),
h first: `gradient`, `geodesic_spray` and `liouville_field` return one, and
`divergence` and `directional_derivative` take one.  The chart partials of a
scalar field are exact for a jet and one `jets.fd_partial` per chart
variable for a callable of a chart point.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EvaluationDomainError
from .geometry import PointGeometry
from .jets import ChartPoint, Jet, fd_partial
from .kahler import BundleMetric, DeformationParams
from .levicivita import lc_closed_form

__all__ = [
    "OperatorContext",
    "operator_context",
    "divergence",
    "gradient",
    "directional_derivative",
    "LaplacianResult",
    "laplacian",
    "geodesic_spray",
    "liouville_field",
    "landsberg_characterizations",
    "fd_dln_sqrtg_h",
]


@dataclass(frozen=True)
class OperatorContext:
    """Cached per-point data for the section's operators."""

    structure: object
    params: DeformationParams
    at: ChartPoint
    geom: PointGeometry
    metric: BundleMetric
    #: the closed Levi-Civita table, nabla_{F_a} F_b at [a, b, :] (read-only)
    conn: np.ndarray
    sqrt_g: float
    #: div(delta_j) over the adapted frame (trace of the connection tables)
    div_h: np.ndarray
    #: div(pdot^j) over the adapted frame (identically zero in closed form,
    #: kept as the computed trace)
    div_v: np.ndarray
    #: mean Landsberg trace J_i = L^s_{si}
    J: np.ndarray
    #: delta_i(ln sqrt g), jet-exact route
    H_trace: np.ndarray

    @cached_property
    def dln_sqrtg_h_fd(self) -> np.ndarray:
        """delta_i(ln sqrt det g) by the finite-difference route (see the
        module function fd_dln_sqrtg_h), built on first use; read-only."""
        s, geom = self.structure, self.geom

        def field(pt: ChartPoint) -> float:
            g = PointGeometry(s, pt, order=2)
            return 0.5 * float(np.log(np.linalg.det(g.g_down)))

        out = np.array([fd_partial(field, self.at, i) for i in range(geom.n)])
        out += geom.N @ geom.dln_sqrtg_v
        out.setflags(write=False)
        return out


def operator_context(
    s,
    at: ChartPoint,
    params: DeformationParams,
    geom: PointGeometry = None,
    metric: BundleMetric = None,
) -> OperatorContext:
    if geom is None:
        geom = metric.geom if metric is not None else PointGeometry(s, at)
    if metric is None:
        metric = BundleMetric(geom, params)
    det_g = float(np.linalg.det(geom.g_down))
    if det_g <= 0.0:
        raise EvaluationDomainError(f"det(g_ij) = {det_g:g} is not positive")
    conn = lc_closed_form(s, at, params, geom, metric)
    # div(F_b) is the trace over a of the F_a component of nabla_{F_a} F_b
    div = np.einsum("aba->b", conn)
    n = geom.n
    J = np.einsum("ssi->i", geom.L_udd)
    return OperatorContext(
        structure=s,
        params=params,
        at=at,
        geom=geom,
        metric=metric,
        conn=conn,
        sqrt_g=float(np.sqrt(det_g)),
        div_h=div[:n],
        div_v=div[n:],
        J=J,
        H_trace=geom.dln_sqrtg_h.copy(),
    )


def divergence(ctx: OperatorContext, x: np.ndarray) -> float:
    """Frame-trace divergence of X = X^i delta_i + Xbar_i pdot^i, given its
    (2n,) adapted components frozen at the evaluation point."""
    n = ctx.geom.n
    return float(x[:n] @ ctx.div_h + x[n:] @ ctx.div_v)


def _scalar_partials(ctx: OperatorContext, f):
    """All 2n chart partials of a scalar; jet-exact for Jet inputs, finite
    differences (``jets.fd_partial``) for callables of a chart point."""
    n = ctx.geom.n
    if isinstance(f, Jet):
        grad = f.derivs(range(2 * n)).value
    else:
        grad = np.array([fd_partial(f, ctx.at, var) for var in range(2 * n)])
    return grad[:n], grad[n:]


def _frame_partials(ctx: OperatorContext, f):
    """(delta_i f, pdot^i f) from the chart partials."""
    dx, dp = _scalar_partials(ctx, f)
    return dx + ctx.geom.N @ dp, dp


def gradient(ctx: OperatorContext, f) -> np.ndarray:
    """grad f = G^{ih} (delta_h f) delta_i + G_{ih} (pdot^h f) pdot^i, as
    (2n,) adapted components.

    f may be a callable of a chart point (finite-difference partials) or a
    jet at the context point (exact partials).
    """
    return _gradient(ctx, *_frame_partials(ctx, f))


def _gradient(ctx: OperatorContext, df_h, df_v) -> np.ndarray:
    return np.concatenate([ctx.metric.G_up @ df_h, ctx.metric.G_down @ df_v])


def directional_derivative(ctx: OperatorContext, f, x: np.ndarray) -> float:
    """X f for the frame field with (2n,) adapted components x, using the
    same partials as gradient."""
    df_h, df_v = _frame_partials(ctx, f)
    n = ctx.geom.n
    return float(x[:n] @ df_h + x[n:] @ df_v)


def fd_dln_sqrtg_h(ctx: OperatorContext) -> np.ndarray:
    """delta_i(ln sqrt det g) with the x-partials by Richardson-extrapolated
    finite differences of fresh low-order geometries and the p-partials by
    jets; independent of the connection-trace route.  The stencil runs once
    per context; each call returns a fresh copy."""
    return ctx.dln_sqrtg_h_fd.copy()


@dataclass(frozen=True)
class LaplacianResult:
    """Laplacian by both routes: the frame-trace divergence of the gradient,
    and the closed first-order form G^{ih} (delta_h f)(delta_i ln sqrt g - J_i)
    with the log-volume derivative taken by finite differences."""

    direct: float
    closed: float

    @property
    def difference(self) -> float:
        return abs(self.direct - self.closed)


def laplacian(ctx: OperatorContext, f) -> LaplacianResult:
    df_h, df_v = _frame_partials(ctx, f)
    direct = divergence(ctx, _gradient(ctx, df_h, df_v))
    weight = ctx.dln_sqrtg_h_fd - ctx.J
    closed = float(df_h @ ctx.metric.G_up @ weight)
    return LaplacianResult(direct=direct, closed=closed)


def geodesic_spray(ctx: OperatorContext) -> np.ndarray:
    """S = p^i delta_i, as (2n,) adapted components."""
    return np.concatenate([ctx.geom.p_up, np.zeros(ctx.geom.n)])


def liouville_field(ctx: OperatorContext) -> np.ndarray:
    """C* = p_i pdot^i, as (2n,) adapted components."""
    return np.concatenate([np.zeros(ctx.geom.n), ctx.at.p])


def landsberg_characterizations(ctx: OperatorContext, tol: float = 1e-6) -> dict:
    """Pointwise report of the mean-Landsberg equivalences.

    Reports the mean Landsberg trace J_i, the log-volume frame derivative
    delta_i(ln sqrt g) (finite-difference route), their difference, div(S),
    and booleans: `mean_landsberg` (J = 0), `balanced` (J_i = delta_i ln
    sqrt g), `divergence_consistent` (div S equals its trace identity
    p^i delta_i ln sqrt g - p^i J_i), and `chain_consistent` (if the balanced
    condition holds then div S = 0).
    """
    dln = fd_dln_sqrtg_h(ctx)
    p_up = ctx.geom.p_up
    div_s = divergence(ctx, geodesic_spray(ctx))
    identity = float(p_up @ dln - p_up @ ctx.J)
    balanced = bool(np.abs(ctx.J - dln).max() <= tol)
    report = {
        "J": ctx.J.copy(),
        "dln_sqrtg_h": dln,
        "difference": ctx.J - dln,
        "div_S": div_s,
        "p_contracted_J": float(p_up @ ctx.J),
        "mean_landsberg": bool(np.abs(ctx.J).max() <= tol),
        "balanced": balanced,
        "divergence_consistent": bool(abs(div_s - identity) <= max(tol, 1e-5)),
        "chain_consistent": (not balanced) or abs(div_s) <= max(tol, 1e-5),
    }
    return report
