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
The metric is the Gram matrix G(F_a, F_b) = block-diag(G_ij, G^ij) of the
adapted basis, held once as a value (``BundleMetric.gram``, so G(X, Y) is
``x @ gram @ y``) and once as a jet (``gram_jets``).  J on the basis is
``complex_jets`` = ``gram_jets`` Omega with Omega = [[0, I], [-I, 0]]: row a
of J = ``complex_jets.value`` is J(F_a), so J(X) is ``x @ J``.  The
identities of J and theta are therefore matrix expressions (theta is
``gram @ J.T``), and the Nijenhuis tensor is one table over the basis, from
its bracket table by the Leibniz rule (`nijenhuis_table`).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional, Union

import numpy as np

from .errors import EvaluationDomainError
from .geometry import PointGeometry, chart_partials, frame_block, frame_derivative, point_guard, read_only
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
    ``reads_tau`` says whether the profile's expression reads tau.  A
    non-finite alpha, beta, c or numeric v, or a constant profile whose
    value is not finite, raises ValueError.
    """

    alpha: float = 1.0
    beta: float = 1.0
    c: Optional[float] = None
    v: Union[None, float, str] = None

    def __post_init__(self):
        numbers = {"alpha": self.alpha, "beta": self.beta, "c": self.c, "v": self.v}
        for name, value in numbers.items():
            if isinstance(value, (int, float)) and not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError(
                f"scaling constants must be positive: alpha={self.alpha}, beta={self.beta}"
            )
        if self.c is not None and self.v is not None:
            raise ValueError("give either c or v, not both")
        c = self.c
        v = self.v
        reads_tau = False
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

            compiled, reads_tau = parse_scalar_expression(v, ["tau"])
            fn = lambda tau: compiled({"tau": tau})
            desc = f"v={v}"
        else:
            raise ValueError(f"unsupported deformation profile {v!r}")
        if not reads_tau and not np.isfinite(fn(0.0)):
            raise ValueError(f"deformation profile {desc} is not finite")
        object.__setattr__(self, "reads_tau", reads_tau)
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

    The Gram matrix G(F_a, F_b) = block-diag(G_ij, G^ij) is held once as a
    value and once as a jet.  ``gram`` is built from the geometry's values,
    on a geometry of one point or of a batch (then with the batch axes in
    front), and ``G_down`` and ``G_up`` are its read-only blocks.
    ``gram_jets``, which the connection, its defects and J differentiate or
    read, is built for one point when it is first asked for.
    """

    def __init__(self, geom: PointGeometry, params: DeformationParams):
        self.geom = geom
        self.at = geom.at
        self.params = params
        tau = np.asarray(geom.tau)
        v_val = np.array([params.v_at(t) for t in tau.flat], dtype=float).reshape(tau.shape)
        bad = point_guard(~np.isfinite(v_val), self.at)
        if bad is not None:
            raise EvaluationDomainError(
                f"deformation profile v = {v_val.flat[bad[0]]!r} is not finite at {bad[1]!r} "
                f"(tau={tau.flat[bad[0]]:.6f})"
            )
        gauge = params.alpha + 2.0 * tau * v_val
        bad = point_guard(gauge <= 0.0, self.at)
        if bad is not None:
            k = bad[0]
            raise EvaluationDomainError(
                f"deformed metric loses positivity: alpha + 2 tau v = {gauge.flat[k]:.6e} "
                f"<= 0 at {bad[1]!r} (tau={tau.flat[k]:.6f}, v={v_val.flat[k]:.6f})"
            )
        down, up = _blocks(
            geom.g_down, geom.g_up, self.at.p, geom.p_up, tau[..., None, None],
            v_val[..., None, None], params.alpha, params.beta,
        )
        n = self.n
        #: G(F_a, F_b) over the adapted basis, block-diag(G_ij, G^ij); read-only
        self.gram = np.zeros(down.shape[:-2] + (2 * n, 2 * n))
        self.gram[..., :n, :n], self.gram[..., n:, n:] = down, up
        read_only(self.gram)
        #: all per-point state derived from this metric, built on first use:
        #: the Nijenhuis and Koszul tables, the connection jet and its
        #: defects, the curvature tables, Ricci and the operators' tables
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

    @property
    def G_down(self) -> np.ndarray:
        """G_ij: the h-h block of ``gram``, a read-only view."""
        return self.gram[..., : self.n, : self.n]

    @property
    def G_up(self) -> np.ndarray:
        """G^ij: the v-v block of ``gram``, a read-only view."""
        return self.gram[..., self.n :, self.n :]

    @cached_property
    def gram_jets(self) -> Jet:
        """The Gram matrix block-diag(G_ij, G^ij) as one (2n, 2n) jet; both
        blocks share the order and x-cap of the geometry's g jets."""
        geom, params = self.geom, self.params
        tau_jet = geom.k2 * 0.5
        down, up = _blocks(
            geom.g_down_jets, geom.g_up_jets, geom.p_coord(3), geom.p_up_jets, tau_jet,
            params.v_at(tau_jet), params.alpha, params.beta,
        )
        c = np.zeros((2 * self.n,) * 2 + down.c.shape[-1:])
        frame_block(c, "hh")[...] = down.c
        frame_block(c, "vv")[...] = up.c
        return Jet(down.nvars, down.order, c, down.xcap)

    @cached_property
    def gram_derivatives(self) -> np.ndarray:
        """F_e(G(F_b, F_c)) at [e, b, c], exact, read off `gram_jets`; read-only."""
        return read_only(frame_derivative(chart_partials(self.gram_jets), self.geom))

    @cached_property
    def complex_jets(self) -> Jet:
        """J on the adapted basis: row a holds the adapted components of J(F_a),
        gram Omega = [[0, G_ij], [-G^ij, 0]] in blocks."""
        return contract("ab,bc->ac", self.gram_jets, _omega(self.n))


@lru_cache(maxsize=None)
def _omega(n: int) -> np.ndarray:
    """Omega = [[0, I], [-I, 0]], which takes the Gram matrix to J; read-only."""
    return read_only(np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(n)))


def point_state(s, at: ChartPoint, params: DeformationParams, metric: BundleMetric = None) -> BundleMetric:
    """The bundle metric of ``params`` at the chart point ``at`` of ``s``,
    which holds all pair-scope state of the point: ``metric`` when given,
    else one on a fresh geometry.  A metric built for another structure
    (by identity), another point (by ``key()``) or another params (by
    identity) raises ValueError: the arguments and the metric must agree."""
    if metric is None:
        return BundleMetric(PointGeometry(s, at), params)
    if metric.geom.structure is not s:
        raise ValueError(f"metric was built for structure {metric.geom.structure.label!r}, not {s.label!r}")
    if metric.at.key() != at.key():
        raise ValueError(f"metric was built at {metric.at!r}, not at {at!r}")
    if metric.params is not params:
        raise ValueError(f"metric was built for params {metric.params!r}, not {params!r}")
    return metric


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
    over the adapted basis, adapted components at [a, b, :].  The brackets
    of JF_a = J_a^c F_c come from the basis brackets by the Leibniz rule
    [X, Y] = x^c y^d [F_c, F_d] + X(y^d) F_d - Y(x^c) F_c, with
    dJ[e, a, c] = F_e(J_a^c), that is dG Omega with dG = `gram_derivatives`.
    Built once per metric; the array is read-only.
    """

    def build():
        br, j = m.geom.basis_brackets, m.complex_jets.value
        dj = m.gram_derivatives @ _omega(m.n)
        jbr = np.einsum("ac,cbs->abs", j, br)  # J_a^c [F_c, F_b]
        jdj = np.einsum("ac,cbs->abs", j, dj)  # J_a^c dJ[c, b]
        jf_jf = np.einsum("bd,ads->abs", j, jbr) + jdj - jdj.transpose(1, 0, 2)  # [JF_a, JF_b]
        mixed = jbr + np.einsum("bd,ads->abs", j, br) + dj - dj.transpose(1, 0, 2)  # [JF_a, F_b] + [F_a, JF_b]
        return read_only(jf_jf - mixed @ j - br)

    return m.derive("nijenhuis", build)
