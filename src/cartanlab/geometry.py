"""Per-point jet pipeline shared by all tensor modules.

`PointGeometry` evaluates one high-order jet of K^2 at a chart point and
derives every base tensor from it by exact coefficient manipulation: the
fundamental tensor and its inverse, the Cartan tensor in all index placements,
the nonlinear connection, the adapted-frame derivative, the Berwald
coefficients, the Landsberg family, and the curvature tensors of the base
geometry.  Nothing here uses finite differences; the FD oracles live next to
their checks.

Each `*_jets` attribute is one tensor `Jet`: a single coefficient array of
shape `(*tensor_shape, ncoef)` (see `jets`).  Momentum and base derivatives
of a whole tensor are one gather (`Jet.derivs`), raising or lowering an index
and every other index sum is one `jets.contract`, and the float attribute of
the same name without `_jets` (`g_up`, `C_uuu`, `B`, ...) is its `.value`.

Order bookkeeping from one order-5 jet of K^2:
    g (3) -> C (2) -> gamma, N (2) -> B, L, R_vv (1) -> curvatures (0)
so every downstream value is exact to roundoff.  A geometry of lower order
serves the shifted points of the finite-difference stencils, which read
values only: it also caps the degree of its jets in the base variables at
order - 3 (see `jets`), x-linear at order 4, which keeps the values of N,
B, C and L exact, and free of x at order 2, which keeps g.  Its R_vv and
R_curv, which need a second x-derivative of N, raise.

The chart point may be a batch of points (`jets.ChartPoint` with batch
axes): every jet then carries the batch axes in front of its tensor axes,
K^2 is evaluated once over the whole batch (`jets.jet_eval`), and the
guards (K^2 > 0, positive g, the conditioning of its inverse) run per
point, so a bad point raises its own error.

A vector field on the slit bundle in the adapted frame,
h^i delta_i + v_i pdot^i, is its (2n,) array of adapted components, h
first, or a (2n,) jet of them where derivatives are needed.  In these
components the adapted basis F_a (delta_1..delta_n, pdot^1..pdot^n) is the
identity matrix: row a of `basis_jets` holds F_a, and a frame slot
`(kind, index)`, kind "h" for delta_i and "v" for pdot^i, names row
`slot_index(slot, n)`.  A table over the adapted basis splits into blocks
by the frame kinds of its leading axes; `frame_block(table, kinds)` is the
one place that slices them.
`lie_brackets` takes two stacks of such fields and returns every Lie
bracket between them as one jet, passing through the coordinate frame;
`PointGeometry` keeps the table [F_a, F_b] of the adapted basis
(`basis_brackets`).  Every module takes frame derivatives the same way:
`chart_partials` reads the exact chart partials off a jet, and
`frame_derivative` turns chart partials into F_a derivatives.
"""
from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import EvaluationDomainError, RegularityError, ValenceError
from .jets import Jet, contract, invert, jet_eval

__all__ = [
    "PointGeometry",
    "lie_brackets",
    "slot_index",
    "frame_block",
    "jet_mat_inv",
    "point_guard",
    "read_only",
    "chart_partials",
    "frame_derivative",
]

# letters for the free axes of a tensor of any valence in `contract` specs
_AXES = "abcdefgh"


def jet_mat_inv(mat: Jet) -> Jet:
    """Inverse of a symmetric matrix of jets by Newton iteration.

    Seeds with the guarded float inverse of the value part; each iteration
    X <- X(2I - AX) doubles the correct Taylor degree, so ceil(log2(order+1))
    iterations make the product the identity through the jet order.  While
    X is the float seed, its products with jets are linear in the jet
    coefficients and need no product table.
    """
    x = invert(mat.value)
    two = 2.0 * np.eye(mat.shape[-1])
    for _ in range(max(1, math.ceil(math.log2(mat.order + 1)))):
        x = contract("ij,jk->ik", x, two - contract("ij,jk->ik", mat, x))
    # symmetrize away roundoff
    return (x + contract("ij->ji", x)) * 0.5


def point_guard(bad: np.ndarray, at):
    """The first point of ``at`` (a point or a batch) where ``bad`` holds,
    with its batch position, or None."""
    if bad.ndim == 0:
        return (0, at) if bad else None
    hits = np.flatnonzero(bad)
    if not hits.size:
        return None
    return hits[0], at.points()[hits[0]]


def read_only(table: np.ndarray) -> np.ndarray:
    """``table``, marked read-only."""
    table.setflags(write=False)
    return table


class PointGeometry:
    """All base tensors of one structure at one chart point (or a batch of
    points), computed lazily."""

    def __init__(self, structure, at, order: int = 5):
        self.structure = structure
        self.at = at
        self.order = order
        # degree cap in the base variables: what the stencil readers of a
        # low-order geometry need (see the module docstring)
        self.xcap = order if order >= 5 else max(0, order - 3)
        self.n = at.n
        self._batch = len(at.batch_shape)
        # chart-variable indices of the base coordinates and of the momenta
        self.xvars = tuple(range(self.n))
        self.pvars = tuple(range(self.n, 2 * self.n))

    # ---- scalar level

    @cached_property
    def k2(self) -> Jet:
        j = jet_eval(self.structure.k2, self.at, self.order, self.xcap)
        vals = j.c[..., 0]
        bad = point_guard(vals <= 0.0, self.at)
        if bad is not None:
            raise EvaluationDomainError(
                f"K^2 = {float(vals.flat[bad[0]])!r} is not positive at {bad[1]!r}"
            )
        return j

    @cached_property
    def tau(self):
        return 0.5 * self.k2.value

    def p_coord(self, order: int) -> Jet:
        """The momentum coordinates p_i as an (n,) jet of the given order
        (at this geometry's x-cap)."""
        n = self.n
        out = Jet.constant(self.at.p, 2 * n, order, self.xcap)
        if order >= 1:
            # the degree-1 coefficients follow the value in variable order,
            # those of the base variables dropped at x-cap 0
            first = 1 if out.xcap == 0 else 1 + n
            out.c[..., range(n), range(first, first + n)] = 1.0
        return out

    # ---- fundamental tensor

    @cached_property
    def g_up_jets(self):
        return self.k2.derivs(self.pvars, 2) * 0.5

    @cached_property
    def g_up(self):
        vals = self.g_up_jets.value
        low = np.linalg.eigvalsh(vals)[..., 0]
        bad = point_guard(low <= 0.0, self.at)
        if bad is not None:
            raise RegularityError(
                f"fundamental tensor not positive definite at {bad[1]!r}: "
                f"smallest eigenvalue {float(low.flat[bad[0]]):.6e}"
            )
        return vals

    @cached_property
    def g_down_jets(self):
        _ = self.g_up  # run the positivity guard first
        with np.errstate(over="ignore", invalid="ignore"):
            out = jet_mat_inv(self.g_up_jets)
        bad = point_guard(~np.isfinite(out.c).all(axis=(-3, -2, -1)), self.at)
        if bad is not None:
            raise EvaluationDomainError(f"the jet of the inverse fundamental tensor g_ij overflows at {bad[1]!r}")
        return out

    @cached_property
    def g_down(self):
        return self.g_down_jets.value

    @cached_property
    def p_up_jets(self):
        return self.k2.derivs(self.pvars) * 0.5

    @cached_property
    def p_up(self):
        return self.p_up_jets.value

    # ---- Cartan tensor

    @cached_property
    def C_uuu_jets(self):
        return self.k2.derivs(self.pvars, 3) * (-0.25)

    @cached_property
    def C_uuu(self):
        return self.C_uuu_jets.value

    @cached_property
    def C_uud_jets(self):
        return contract("ijm,mk->ijk", self.C_uuu_jets, self.g_down_jets)

    @cached_property
    def C_mixed_jets(self):
        """C^r_jk: first index up, last two lowered."""
        return contract("rmk,mj->rjk", self.C_uud_jets, self.g_down_jets)

    @cached_property
    def C_mixed(self):
        return self.C_mixed_jets.value

    @cached_property
    def C_ddd_jets(self):
        return contract("mjk,mi->ijk", self.C_mixed_jets, self.g_down_jets)

    @cached_property
    def C_ddd(self):
        return self.C_ddd_jets.value

    @cached_property
    def I_up_jets(self):
        return contract("hm,jhm->j", self.g_down_jets, self.C_uuu_jets)

    @cached_property
    def I_up(self):
        return self.I_up_jets.value

    # ---- nonlinear connection

    @cached_property
    def gamma_jets(self):
        """Formal Christoffel symbols of g_down in the base variables."""
        dg = self.g_down_jets.derivs(self.xvars)  # dg[j, m, k] = d_k g_jm
        # [j, k, m]: d_k g_jm + d_j g_mk - d_m g_jk
        first = contract("jmk->jkm", dg) + contract("mkj->jkm", dg) - dg
        return contract("im,jkm->ijk", self.g_up_jets, first) * 0.5

    @cached_property
    def N_jets(self):
        gamma0 = contract("ijk,i->jk", self.gamma_jets, self.p_coord(self.order - 2))
        gamma00 = contract("hk,k->h", gamma0, self.p_up_jets)
        dg_p = self.g_down_jets.derivs(self.pvars)  # pdot^h g_ij at [i, j, h]
        return gamma0 - contract("h,ijh->ij", gamma00, dg_p) * 0.5

    @cached_property
    def N(self):
        return self.N_jets.value

    def delta(self, f: Jet) -> Jet:
        """Adapted-frame derivatives delta_i f of every component of f, on a
        new trailing axis."""
        free = _AXES[: f.ndim - self._batch]
        vertical = contract(f"{free}j,ij->{free}i", f.derivs(self.pvars), self.N_jets)
        return f.derivs(self.xvars) + vertical

    def h_cov(self, t: Jet, valence: str) -> Jet:
        """Horizontal covariant derivative T_{|k} of a tensor with the given
        valence ('u'/'d' per axis): delta_k T plus one Berwald contraction per
        axis, the new index appended last."""
        free = _AXES[: t.ndim - self._batch]
        out = self.delta(t)
        for axis, kind in enumerate(valence):
            summed = free[:axis] + "m" + free[axis + 1 :]
            if kind == "u":
                out = out + contract(f"{summed},{free[axis]}mk->{free}k", t, self.B_jets)
            else:
                out = out - contract(f"{summed},m{free[axis]}k->{free}k", t, self.B_jets)
        return out

    @cached_property
    def frame_jets(self) -> tuple:
        """(E, E^-1): row a of E holds the coordinate-frame components
        (partial_i, pdot^i) of the adapted basis field F_a, and E^-1 maps
        coordinate components back to adapted ones."""
        n = self.n
        nn = self.N_jets
        eye = Jet.constant(np.eye(2 * n), 2 * n, nn.order, nn.xcap).c
        to_coords, to_adapted = eye.copy(), eye.copy()
        to_coords[:n, n:] = nn.c  # delta_i = partial_i + N_ik pdot^k
        to_adapted[:n, n:] = -nn.c
        return Jet(2 * n, nn.order, to_coords, nn.xcap), Jet(2 * n, nn.order, to_adapted, nn.xcap)

    @cached_property
    def basis_jets(self) -> Jet:
        """The adapted basis as constant fields: row a holds the adapted
        components of F_a.  Read-only."""
        out = Jet.constant(np.eye(2 * self.n), 2 * self.n, self.order - 2, self.xcap)
        read_only(out.c)
        return out

    @cached_property
    def basis_brackets(self):
        """[F_a, F_b] over the adapted basis: adapted components at [a, b, :]."""
        return lie_brackets(self, self.basis_jets, self.basis_jets).value

    # ---- Berwald coefficients and Landsberg family

    @cached_property
    def B_jets(self):
        return contract("jki->ijk", self.N_jets.derivs(self.pvars))

    @cached_property
    def B(self):
        return self.B_jets.value

    @cached_property
    def L_uud_jets(self):
        """Landsberg L^ij_k = (h-covariant derivative of C^ij_k) contracted with p."""
        return contract(
            "ijkh,h->ijk", self.h_cov(self.C_uud_jets, "uud"), self.p_up_jets
        )

    @cached_property
    def L_uud(self):
        return self.L_uud_jets.value

    @cached_property
    def L_uuu_jets(self):
        return contract("ijm,mk->ijk", self.L_uud_jets, self.g_up_jets)

    @cached_property
    def L_uuu(self):
        return self.L_uuu_jets.value

    @cached_property
    def L_udd_jets(self):
        """L^i_jk: lower the middle index of L^ij_k."""
        return contract("imk,mj->ijk", self.L_uud_jets, self.g_down_jets)

    @cached_property
    def L_udd(self):
        return self.L_udd_jets.value

    @cached_property
    def L_ddd_jets(self):
        return contract("mjk,mi->ijk", self.L_udd_jets, self.g_down_jets)

    @cached_property
    def L_ddd(self):
        return self.L_ddd_jets.value

    @cached_property
    def J_up_jets(self):
        return contract("ij,ijs->s", self.g_down_jets, self.L_uuu_jets)

    @cached_property
    def J_up(self):
        return self.J_up_jets.value

    @cached_property
    def J_down(self):
        return self.g_down @ self.J_up

    # ---- curvature of the base geometry

    @cached_property
    def R_vv_jets(self):
        """R_ijk = delta_j N_ik - delta_k N_ij (both indices of N lowered).

        Oriented so that the adapted-frame bracket reads
        [delta_i, delta_j] = R_kij pdot^k; with this orientation a base of
        constant sectional curvature c yields R_kij = c (g_jk p_i - g_ik p_j).
        """
        dN = self.delta(self.N_jets)  # delta_k N_ij at [i, j, k]
        return contract("ikj->ijk", dN) - dN

    @cached_property
    def R_vv(self):
        return self.R_vv_jets.value

    @cached_property
    def R_curv(self):
        """R^i_jkh = delta_h B^i_jk - delta_k B^i_jh + B^s_jk B^i_sh - B^s_jh B^i_sk."""
        dB = self.delta(self.B_jets).value  # delta_h B^i_jk at [i, j, k, h]
        b = self.B
        return (
            dB
            - np.einsum("...ijhk->...ijkh", dB)
            + np.einsum("...mjk,...imh->...ijkh", b, b)
            - np.einsum("...mjh,...imk->...ijkh", b, b)
        )

    @cached_property
    def P_curv(self):
        """P^{ih}_{jk} = pdot^h B^i_jk."""
        return np.einsum("...ijkh->...ihjk", self.B_jets.derivs(self.pvars).value)

    # ---- volume-form derivatives (log sqrt det g)

    @cached_property
    def dln_sqrtg_v_jets(self):
        """pdot^j of ln sqrt(det g) via the trace rule, as jets."""
        dg_p = self.g_down_jets.derivs(self.pvars)
        return contract("ab,abj->j", self.g_up_jets, dg_p) * 0.5

    @cached_property
    def dln_sqrtg_v(self):
        return self.dln_sqrtg_v_jets.value

    @cached_property
    def dln_sqrtg_h(self):
        """delta_i of ln sqrt(det g), exact."""
        dg_x = self.g_down_jets.derivs(self.xvars)
        partial = (contract("ab,abi->i", self.g_up_jets, dg_x) * 0.5).value
        return partial + self.N @ self.dln_sqrtg_v


def lie_brackets(geom: PointGeometry, xs: Jet, ys: Jet) -> Jet:
    """Every Lie bracket [X_a, Y_b] of two stacks of adapted-frame fields.

    ``xs`` (m1, 2n) and ``ys`` (m2, 2n) hold adapted components, one field
    per row; the result (m1, m2, 2n) holds the adapted components of
    [X_a, Y_b] at [a, b, :].  The fields pass to the coordinate frame
    (partial_i, pdot^i), where the bracket is X(Y) - Y(X), and back.
    """
    to_coords, to_adapted = geom.frame_jets
    chart = range(2 * geom.n)
    a = contract("xu,uv->xv", xs, to_coords)
    b = contract("yu,uv->yv", ys, to_coords)
    z = contract("xu,yvu->xyv", a, b.derivs(chart)) - contract("yu,xvu->xyv", b, a.derivs(chart))
    return contract("xyv,va->xya", z, to_adapted)


def chart_partials(f: Jet) -> np.ndarray:
    """The exact first partials of the jet f along every chart variable, at
    [var, ...]."""
    return np.moveaxis(f.derivs(range(f.nvars)).value, -1, 0)


def frame_derivative(partials: np.ndarray, geom: PointGeometry) -> np.ndarray:
    """F_a(f) at [a, ...] for every adapted basis field F_a, given the
    partials of f along the 2n chart variables at [var, ...]:
    delta_a = d/dx^a + N_al d/dp_l and pdot^a = d/dp_a."""
    n = geom.n
    p_x, p_p = partials[:n], partials[n:]
    return np.concatenate([p_x + np.tensordot(geom.N, p_p, 1), p_p])


def slot_index(slot, n: int) -> int:
    """Position of a frame slot (kind, index) in the adapted basis.

    Raises ValenceError for a kind other than 'h'/'v' or an index outside
    [0, n).
    """
    kind, idx = slot
    if kind not in ("h", "v"):
        raise ValenceError(f"frame slot kind must be 'h' or 'v', got {kind!r}")
    idx = int(idx)
    if not 0 <= idx < n:
        raise ValenceError(f"frame slot index must lie in [0, {n}), got {idx}")
    return idx if kind == "h" else n + idx


def frame_block(table, kinds: str):
    """The block of a table over the adapted basis whose leading axes have
    the frame kinds ``kinds``, one letter per axis ('h' for delta_i, 'v' for
    pdot^i; a '_' is ignored): ``frame_block(K, "hv_h")`` is K[:n, n:, :n].
    The axes after them stay whole.  A view of ``table``.

    Raises ValenceError for any other letter.
    """
    n = table.shape[0] // 2
    index = []
    for kind in kinds.replace("_", ""):
        if kind not in ("h", "v"):
            raise ValenceError(f"frame kind must be 'h' or 'v', got {kind!r} in {kinds!r}")
        index.append(slice(0, n) if kind == "h" else slice(n, 2 * n))
    return table[tuple(index)]
