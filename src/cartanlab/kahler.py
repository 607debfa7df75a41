"""Deformed bundle metric, almost complex structure, fundamental 2-form, and
the integrability (Nijenhuis) machinery on the slit cotangent bundle.

The metric couples the base fundamental tensor with a momentum deformation:

    G_ij = (1/beta) g_ij + (v(tau)/(alpha beta)) p_i p_j      (h-h block)
    G^ij = its matrix inverse                                  (v-v block)

in the adapted frame; the off-diagonal blocks vanish.  The inverse has the
closed rank-one-update form G^kl = beta g^kl - (v beta/(alpha + 2 tau v))
p^k p^l, and positivity holds exactly when alpha, beta > 0 and
alpha + 2 tau v > 0.  The constant-curvature specialization v = -c alpha
beta^2 is the one whose almost complex structure can be integrable; then

    G_ij = (1/beta) g_ij - c beta p_i p_j
    G^ij = beta g^ij + (c beta^3 / (1 - 2 c beta^2 tau)) p^i p^j.

J maps delta_i -> G_ik pdot^k and pdot^i -> -G^ik delta_k; the fundamental
form G(X, JY) is the canonical symplectic pairing of the chart regardless of
the deformation parameters.

The profile v(tau) is a number or an expression string in tau
(`DeformationParams`); the sampled points keep the gauge alpha + 2 tau v
at least ``TUBE_MARGIN`` alpha (`tube_predicate`).

A frame field is its (2n,) array of adapted components (see `geometry`).
``BundleMetric.gram`` is the Gram matrix G(F_a, F_b) = block-diag(G_ij, G^ij)
of the adapted basis, so G(X, Y) is ``x @ gram @ y``; row a of
J = ``complex_jets.value`` is J(F_a), so J(X) is ``x @ J``.  The identities
of J and theta are therefore matrix expressions (theta is ``gram @ J.T``),
and the Nijenhuis tensor is one table over the basis (`nijenhuis_table`).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .errors import EvaluationDomainError
from .geometry import PointGeometry, _point_guard, frame_block, lie_brackets
from .jets import ChartPoint, Jet, contract

__all__ = [
    "TUBE_MARGIN",
    "DeformationParams",
    "BundleMetric",
    "theta_matrix",
    "nijenhuis_table",
    "tube_predicate",
    "point_state",
]

#: share of alpha that the gauge alpha + 2 tau v(tau) keeps at every sampled
#: point (`tube_predicate`, and the manifest's feasibility check)
TUBE_MARGIN = 0.2


@dataclass(frozen=True, eq=False)
class DeformationParams:
    """Scaling constants alpha, beta > 0 and the deformation profile.

    Give either c (profile v = -c alpha beta^2, constant) or v (a number
    or an expression string in 'tau').  Omitting both means v = 0.
    """

    alpha: float = 1.0
    beta: float = 1.0
    c: Optional[float] = None
    v: Union[None, float, str] = None

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError(
                f"scaling constants must be positive: alpha={self.alpha}, beta={self.beta}"
            )
        if self.c is not None and self.v is not None:
            raise ValueError("give either c or v, not both")
        c = self.c
        v = self.v
        if c is None and v is None:
            c = 0.0
        if c is not None:
            const = -c * self.alpha * self.beta**2
            fn = lambda tau: const
            desc = f"c={c:g}"
        elif isinstance(v, (int, float)):
            const = float(v)
            fn = lambda tau: const
            desc = f"v={const:g}"
        elif isinstance(v, str):
            from .cartan import parse_scalar_expression

            compiled = parse_scalar_expression(v, ["tau"])
            fn = lambda tau: compiled({"tau": tau})
            desc = f"v={v}"
        else:
            raise ValueError(f"unsupported deformation profile {v!r}")
        object.__setattr__(self, "_v_fn", fn)
        object.__setattr__(self, "_desc", desc)

    def v_at(self, tau):
        """Deformation profile value; accepts floats or jets."""
        return self._v_fn(tau)

    def c_at(self, tau):
        """Effective curvature constant -v(tau)/(alpha beta^2) at this energy;
        accepts floats or jets."""
        return -self.v_at(tau) / (self.alpha * self.beta**2)

    def gauge(self, tau: float) -> float:
        """alpha + 2 tau v(tau), positive exactly where the bundle metric is."""
        return self.alpha + 2.0 * tau * float(self.v_at(tau))

    def describe(self) -> str:
        return f"alpha={self.alpha:g},beta={self.beta:g},{self._desc}"

    def __repr__(self):
        return f"DeformationParams({self.describe()})"


def _blocks(g_down, g_up, p, p_up, tau, v, alpha: float, beta: float):
    """(G_ij, G^ij) from the base tensors, the energy tau and the profile
    value v, from jets or from point values alike."""
    down = g_down * (1.0 / beta)
    up = g_up * beta
    if not isinstance(v, Jet) and not np.any(v):
        return down, up
    gauge = (tau * v) * 2.0 + alpha
    down = down + contract("i,j->ij", p, p) * (v * (1.0 / (alpha * beta)))
    up = up - contract("i,j->ij", p_up, p_up) * ((v * beta) / gauge)
    return down, up


class BundleMetric:
    """Block-diagonal metric on the slit bundle in the adapted frame.

    The point values G_ij and G^ij (``G_down``, ``G_up``) and the Gram
    matrix are built from the geometry's values, on a geometry of one point
    or of a batch (then with the batch axes in front); the jets of the
    blocks (``G_down_jets``, ``G_up_jets``), which the connection, its
    defects and J differentiate or read, are built for one point when one
    of them is first asked for.
    """

    def __init__(self, geom: PointGeometry, params: DeformationParams):
        self.geom = geom
        self.at = geom.at
        self.params = params
        tau = np.asarray(geom.tau)
        v_val = np.array([params.v_at(t) for t in tau.flat], dtype=float).reshape(tau.shape)
        gauge = params.alpha + 2.0 * tau * v_val
        bad = _point_guard(gauge <= 0.0, self.at)
        if bad is not None:
            k = bad[0]
            raise EvaluationDomainError(
                f"deformed metric loses positivity: alpha + 2 tau v = {gauge.flat[k]:.6e} "
                f"<= 0 at {bad[1]!r} (tau={tau.flat[k]:.6f}, v={v_val.flat[k]:.6f})"
            )
        self.G_down, self.G_up = _blocks(
            geom.g_down, geom.g_up, self.at.p, geom.p_up, tau[..., None, None],
            v_val[..., None, None], params.alpha, params.beta,
        )
        #: all per-point state derived from this metric, built on first use:
        #: the Nijenhuis table, the Koszul table and the finite-difference
        #: Gram partials it reads, the connection jet and its defects, the
        #: curvature table, the curvature-definition table, Ricci, and the
        #: operators' frame divergences and finite-difference log-volume
        #: partials
        self.derived: dict = {}

    def derive(self, key: str, build):
        """The per-point table ``key`` in `derived`, built by its first user."""
        got = self.derived.get(key)
        if got is None:
            got = self.derived[key] = build()
        return got

    @property
    def n(self):
        return self.geom.n

    @cached_property
    def _jets(self) -> tuple:
        geom, params = self.geom, self.params
        tau_jet = geom.k2 * 0.5
        return _blocks(
            geom.g_down_jets, geom.g_up_jets, geom.p_coord(3), geom.p_up_jets, tau_jet,
            params.v_at(tau_jet), params.alpha, params.beta,
        )

    @cached_property
    def G_down_jets(self) -> Jet:
        return self._jets[0]

    @cached_property
    def G_up_jets(self) -> Jet:
        return self._jets[1]

    @cached_property
    def gram(self) -> np.ndarray:
        """G(F_a, F_b) over the adapted basis: the block-diagonal 2n x 2n
        matrix of G_ij and G^ij.  Read-only."""
        n = self.n
        out = np.zeros(self.G_down.shape[:-2] + (2 * n, 2 * n))
        out[..., :n, :n] = self.G_down
        out[..., n:, n:] = self.G_up
        out.setflags(write=False)
        return out

    @cached_property
    def complex_jets(self) -> Jet:
        """J on the adapted basis: row a holds the adapted components of J(F_a),
        [[0, G_ij], [-G^ij, 0]] in blocks."""
        n, jets = self.n, (self.G_down_jets, self.G_up_jets)
        order, xcap = min(t.order for t in jets), min(t.xcap for t in jets)
        down, up = (t.truncate(order, xcap) for t in jets)
        c = np.zeros((2 * n, 2 * n) + down.c.shape[-1:])
        frame_block(c, "hv")[...] = down.c
        frame_block(c, "vh")[...] = -up.c
        return Jet(2 * n, order, c, xcap)


def point_state(s, at: ChartPoint, params: DeformationParams = None, geom=None, metric=None):
    """(geom, metric) at a chart point from what the caller already holds:
    the geometry defaults to the metric's, else a fresh one at ``at``; the
    metric to one on that geometry when ``params`` is given, else None."""
    if geom is None:
        geom = metric.geom if metric is not None else PointGeometry(s, at)
    if metric is None and params is not None:
        metric = BundleMetric(geom, params)
    return geom, metric


def tube_predicate(s, params: DeformationParams):
    """Point filter keeping a safety margin inside the positivity domain:
    accepts points with alpha + 2 tau v(tau) >= TUBE_MARGIN alpha (for the
    constant specialization this is 2 tau <= 0.8/(c beta^2) when c > 0, and
    no constraint when c <= 0)."""

    def accept(pt) -> bool:
        return params.gauge(0.5 * s.k2_values(pt.x, pt.p)) >= TUBE_MARGIN * params.alpha

    return accept


def theta_matrix(m: BundleMetric) -> np.ndarray:
    """theta on the 2n adapted basis fields (delta_1..delta_n, pdot^1..pdot^n).

    theta(F_a, F_b) = G(F_a, J F_b) is ``gram @ J.T``.  The canonical answer
    is [[0, -I], [I, 0]] for any structure and any admissible deformation
    parameters.
    """
    return m.gram @ m.complex_jets.value.T


def nijenhuis_table(m: BundleMetric) -> np.ndarray:
    """N_J(F_a, F_b) = [JF_a, JF_b] - J[JF_a, F_b] - J[F_a, JF_b] - [F_a, F_b]
    over the adapted basis, adapted components at [a, b, :]: four batched
    `geometry.lie_brackets` of the basis and its J-image.  Built once per
    metric; the array is read-only.
    """

    def build():
        geom, jb = m.geom, m.complex_jets  # row a of jb: J(F_a)
        j = jb.value
        out = (
            lie_brackets(geom, jb, jb).value
            - lie_brackets(geom, jb, geom.basis_jets).value @ j
            - lie_brackets(geom, geom.basis_jets, jb).value @ j
            - geom.basis_brackets
        )
        out.setflags(write=False)
        return out

    return m.derive("nijenhuis", build)
