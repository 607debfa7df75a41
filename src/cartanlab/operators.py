"""Divergence, gradient, and Laplace operators in the adapted frame, plus the
geodesic spray and the Liouville field.

The divergence is the frame-trace divergence used throughout: the components
of X in the adapted frame are frozen at the evaluation point and multiplied
by the divergences of the frame fields themselves,

    div(X) = X^i div(delta_i) + Xbar_i div(pdot^i),

with div(F_b) = sum_a Gamma[a, b, a], one trace of the closed Levi-Civita
table Gamma[a, b, :] = nabla_{F_a} F_b (`levicivita.lc_closed_form`).  Under
this definition the vertical frame divergences vanish identically, the
Liouville field is divergence-free, and the Laplacian of a scalar reduces to
the closed first-order form checked below.

Every operator takes the point's `BundleMetric` (``operator_context``
returns it; a metric exists only where g_ij is positive definite).  The
per-point tables the operators read, the frame divergences and the
finite-difference log-volume partials (one batched order-2 geometry over
the stencil), are derived on that metric by their first user and kept
read-only in its ``derived``; the mean Landsberg trace J_i = L^s_{si} is
the geometry's ``J_down``.

A vector field is its (2n,) float array of adapted components (X^i, Xbar_i),
h first: `gradient`, `geodesic_spray` and `liouville_field` return one, and
`divergence` and `directional_derivative` take one.  The chart partials of a
scalar field are exact for a jet and one `jets.fd_partial` over all chart
variables for a callable of a chart point; both go to frame derivatives
through `geometry.frame_derivative`, as the connection oracles' do.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import PointGeometry, chart_partials, frame_derivative, read_only
from .jets import ChartPoint, Jet, fd_combine, fd_partial, fd_stencil
from .kahler import BundleMetric, DeformationParams, point_state
from .levicivita import lc_closed_form

__all__ = [
    "operator_context",
    "divergence",
    "gradient",
    "directional_derivative",
    "LaplacianResult",
    "laplacian",
    "geodesic_spray",
    "liouville_field",
    "fd_dln_sqrtg_h",
]


def operator_context(
    s,
    at: ChartPoint,
    params: DeformationParams,
    geom: PointGeometry = None,
    metric: BundleMetric = None,
) -> BundleMetric:
    """The bundle metric the operators take at a point.  Its geometry's
    ``g_up`` refuses a g_ij that is not positive definite (RegularityError),
    so det(g_ij) > 0 wherever a metric exists."""
    return point_state(s, at, params, geom, metric)[1]


def _frame_divergences(m: BundleMetric) -> np.ndarray:
    """div(F_b) over the adapted basis: the trace over a of the F_a
    component of nabla_{F_a} F_b."""

    def build():
        conn = lc_closed_form(m.geom.structure, m.at, m.params, metric=m)
        return read_only(np.einsum("aba->b", conn))

    return m.derive("divergences", build)


def divergence(m: BundleMetric, x: np.ndarray) -> float:
    """Frame-trace divergence of X = X^i delta_i + Xbar_i pdot^i, given its
    (2n,) adapted components frozen at the evaluation point."""
    n, div = m.n, _frame_divergences(m)
    return float(x[:n] @ div[:n] + x[n:] @ div[n:])


def _frame_partials(m: BundleMetric, f):
    """(delta_i f, pdot^i f) from the 2n chart partials of a scalar: exact
    for a jet, finite differences (``jets.fd_partial``) for a callable of a
    chart point."""
    partials = chart_partials(f) if isinstance(f, Jet) else fd_partial(f, m.at, range(2 * m.n))
    frame = frame_derivative(partials, m.geom)
    return frame[: m.n], frame[m.n :]


def gradient(m: BundleMetric, f) -> np.ndarray:
    """grad f = G^{ih} (delta_h f) delta_i + G_{ih} (pdot^h f) pdot^i, as
    (2n,) adapted components.

    f may be a callable of a chart point (finite-difference partials) or a
    jet at the metric's point (exact partials).
    """
    return _gradient(m, *_frame_partials(m, f))


def _gradient(m: BundleMetric, df_h, df_v) -> np.ndarray:
    return np.concatenate([m.G_up @ df_h, m.G_down @ df_v])


def directional_derivative(m: BundleMetric, f, x: np.ndarray) -> float:
    """X f for the frame field with (2n,) adapted components x, using the
    same partials as gradient."""
    df_h, df_v = _frame_partials(m, f)
    n = m.n
    return float(x[:n] @ df_h + x[n:] @ df_v)


def fd_dln_sqrtg_h(m: BundleMetric) -> np.ndarray:
    """delta_i(ln sqrt det g) with the x-partials by Richardson-extrapolated
    finite differences of g (`jets.fd_combine` of 1/2 ln det g over one
    batched order-2 geometry of the whole x-stencil) and the p-partials by
    jets; independent of the connection-trace route.  Derived once per
    metric and returned read-only."""

    def build():
        geom = m.geom
        g = PointGeometry(geom.structure, fd_stencil(m.at, geom.xvars), order=2).g_down
        dx = fd_combine(0.5 * np.log(np.linalg.det(g)), m.at, geom.xvars)
        return read_only(dx + geom.N @ geom.dln_sqrtg_v)

    return m.derive("dln_sqrtg_h_fd", build)


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


def laplacian(m: BundleMetric, f) -> LaplacianResult:
    df_h, df_v = _frame_partials(m, f)
    direct = divergence(m, _gradient(m, df_h, df_v))
    weight = fd_dln_sqrtg_h(m) - m.geom.J_down
    closed = float(df_h @ m.G_up @ weight)
    return LaplacianResult(direct=direct, closed=closed)


def geodesic_spray(m: BundleMetric) -> np.ndarray:
    """S = p^i delta_i, as (2n,) adapted components."""
    return np.concatenate([m.geom.p_up, np.zeros(m.n)])


def liouville_field(m: BundleMetric) -> np.ndarray:
    """C* = p_i pdot^i, as (2n,) adapted components."""
    return np.concatenate([np.zeros(m.n), m.at.p])
