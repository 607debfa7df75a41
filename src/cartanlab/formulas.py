"""Formula-to-code index.

Every verification record emitted by :mod:`cartanlab.checks` carries an
``anchor`` string.  This module is the authoritative index for those
anchors: each one names a formula or property, states it in plain ASCII
math, and points at the code that realizes it.  Report consumers can
join on the anchor to recover both the statement being tested and its
implementation site.

Notation used in the statements (all arrays live at a chart point
``(x, p)`` of the slit cotangent bundle, ``n`` the base dimension):

* ``d_i``     partial derivative in the base coordinate ``x^i``
* ``dot^i``   partial derivative in the fiber coordinate ``p_i``
* ``delta_i`` adapted horizontal derivative ``d_i + N_ij dot^j``
* ``T|k``     horizontal covariant derivative (Berwald rules)
* ``T|^k``    vertical covariant derivative (Berwald rules)
* ``K``       the 2-homogeneous Hamiltonian, ``tau = K^2 / 2``
* ``g^ij``    fundamental tensor, ``g_ij`` its inverse
* ``G``       the deformed bundle metric with constants alpha, beta and
  profile ``v(tau)``; ``c = -v / (alpha beta^2)`` its curvature constant.

Index and sign conventions that the implementation resolved (recorded
here so that reported residuals are reproducible from the statements):

* ``R_vv[i, j, k] = R_ijk = delta_j N_ik - delta_k N_ij`` so that
  ``[delta_i, delta_j] = R_kij dot^k`` holds exactly.
* ``[delta_i, dot^j] = -B^j_ik dot^k`` with ``B^i_jk = dot^i N_jk``.
* ``R_curv[i, j, k, h] = R^i_jkh`` and ``R_ijk = p_h R^h_ikj``.
* ``P_curv[i, h, j, k] = dot^h B^i_jk`` (vertical derivative of B).
* Landsberg storage: ``L_uud[i, j, k] = L^ij_k = C^ij_k|h p^h``; the
  positional variants (``L_uuu``, ``L_udd``, ``L_ddd``) raise/lower with
  ``g``; mean Landsberg ``J_i = L^s_si``.
* Connection block storage ``[i, j, s]``: the coefficient of the frame
  vector indexed ``s`` in ``nabla_{F_i} F_j``, where each of ``F_i``,
  ``F_j`` is ``delta`` or ``dot`` according to the block name.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

__all__ = ["FormulaEntry", "INDEX"]


class FormulaEntry(NamedTuple):
    """One indexed formula: its statement and implementation site."""

    statement: str
    where: str


INDEX: Mapping[str, FormulaEntry] = {
    # ---------------------------------------------------------------- infra
    "ad-jets": FormulaEntry(
        "Truncated multivariate Taylor arithmetic: jet composition of the "
        "smooth primitives reproduces mixed partial derivatives exactly; "
        "cross-checked against Richardson-extrapolated finite differences.",
        "jets.Jet / jets.jet_eval / jets.fd_partial",
    ),
    "fd-oracles": FormulaEntry(
        "Independent finite-difference oracles of N, of the curvature R, of "
        "the Levi-Civita connection (the Koszul oracle) and of the "
        "log-volume derivative: central differences with steps scaled by "
        "max(1, |coordinate|), Richardson-extrapolated over two step sizes, "
        "except the nonlinear-connection oracle, which takes one plain step "
        "of 1e-4.  Every oracle takes first derivatives of point values "
        "only, through jets.fd_stencil and jets.fd_combine over one "
        "batched geometry of its whole stencil (1/2 ln det g at order 2 for "
        "the log-volume derivative).",
        "jets.fd_stencil / jets.fd_combine / "
        "berwald.nonlinear_connection_fd / berwald.berwald_curvature_fd / "
        "levicivita.koszul_oracle / operators.fd_dln_sqrtg_h",
    ),
    "harness": FormulaEntry(
        "Batch verification plumbing: manifest schema, seeded sampling, "
        "deterministic JSON reports.",
        "manifest.parse_manifest / checks.run_suite / cli.main",
    ),
    # ------------------------------------------------------- base structure
    "hamiltonian-k2": FormulaEntry(
        "K(x, p) is positively 2-homogeneous in p: p_i dot^i K^2 = 2 K^2 "
        "(Euler identity); energy tau = K^2 / 2.",
        "cartan.CartanStructure / geometry.PointGeometry.tau",
    ),
    "fundamental-tensor": FormulaEntry(
        "g^ij = (1/2) dot^i dot^j K^2 is symmetric, 0-homogeneous in p, "
        "positive definite, and reconstructs the Hamiltonian: "
        "g^ij p_i p_j = K^2; momenta satisfy p^i = (1/2) dot^i K^2 = g^ij p_j.",
        "geometry.PointGeometry.g_up / geometry.PointGeometry.g_down / "
        "geometry.PointGeometry.p_up",
    ),
    "cartan-tensor": FormulaEntry(
        "C^ijk = -(1/4) dot^i dot^j dot^k K^2 is totally symmetric, "
        "transversal (C^ijk p_k = 0), and gives the vertical metric "
        "derivative: dot^k g^ij = -2 C^ijk.  C = 0 iff the structure is a "
        "quadratic (Riemannian) dual.",
        "geometry.PointGeometry.C_uuu / geometry.PointGeometry.C_ddd",
    ),
    "mean-cartan": FormulaEntry(
        "Mean Cartan vector I^j = C^jh_h = C^jhk g_hk; vanishes exactly in "
        "the Riemannian reduction.",
        "geometry.PointGeometry.I_up",
    ),
    "riemannian-reduction": FormulaEntry(
        "Zero-drift limit: the Randers-type dual with drift b -> 0 "
        "degenerates to the quadratic dual of the same base metric.",
        "cartan.randers_dual / cartan.riemannian_dual",
    ),
    # ------------------------------------------------- connection and frame
    "nonlinear-connection": FormulaEntry(
        "Symmetric nonlinear connection N_ij built from the base-derivative "
        "Christoffel contractions of g; 1-homogeneous in p.",
        "geometry.PointGeometry.N / berwald.nonlinear_connection_fd",
    ),
    "adapted-frame": FormulaEntry(
        "Horizontal derivative delta_i = d_i + N_ij dot^j; the frame "
        "(delta_i, dot^i) splits the bundle tangent space.",
        "geometry.PointGeometry.delta / geometry.PointGeometry.frame_jets / "
        "geometry.PointGeometry.basis_jets / geometry.slot_index",
    ),
    "berwald-coefficients": FormulaEntry(
        "Berwald coefficients B^i_jk = dot^i N_jk (0-homogeneous in p); "
        "horizontal covariant rule T^i|k = delta_k T^i + T^s B^i_sk - ..., "
        "vertical rule T^i|^k = dot^k T^i.",
        "geometry.PointGeometry.B / geometry.PointGeometry.h_cov / "
        "jets.Jet.derivs (the vertical rule, along geometry.PointGeometry.pvars) / "
        "berwald.DTensor.h_cov / berwald.DTensor.v_cov (their valence-checked wrappers)",
    ),
    "metric-delta": FormulaEntry(
        "delta_i g_jk = B^s_ji g_sk + B^s_ki g_js, equivalently the "
        "antisymmetrized defect A_kij = g_jk|i - g_ik|j vanishes; "
        "consequences: momentum is horizontally parallel (p_i|j = 0) and "
        "delta_i K^2 = 0.",
        "geometry.PointGeometry.h_cov (of the metric, valence dd)",
    ),
    "landsberg": FormulaEntry(
        "Landsberg tensor L^ij_k = C^ij_k|h p^h; the horizontal metric "
        "derivative is g^ij|k = -2 L^ij_k; mean Landsberg J_i = L^s_si "
        "satisfies p^i J_i = 0.",
        "geometry.PointGeometry.L_uud / geometry.PointGeometry.L_udd",
    ),
    "vv-curvature": FormulaEntry(
        "Curvature of the nonlinear connection R_ijk = delta_j N_ik "
        "- delta_k N_ij; the frame bracket is [delta_j, delta_k] = R_ijk "
        "dot^i; transversality p^i R_ijk = 0 — equivalently the first "
        "index, raised by g, is p-orthogonal.",
        "geometry.PointGeometry.R_vv",
    ),
    "berwald-curvature": FormulaEntry(
        "Berwald curvature R^i_jkh = delta-derivative antisymmetrization of "
        "B plus the B.B commutator; contracts to the nonlinear-connection "
        "curvature via R_ijk = p_h R^h_ikj.",
        "geometry.PointGeometry.R_curv / berwald.berwald_curvature_fd",
    ),
    "constant-curvature-form": FormulaEntry(
        "Constant-curvature shape of the vv-curvature: R_kij = "
        "c (g_jk p_i - g_ik p_j).  Holds for quadratic duals of constant "
        "sectional curvature c and trivially for flat structures (c = 0).",
        "levicivita (R-form substitutions in the curvature blocks)",
    ),
    # ------------------------------------------------------ deformed metric
    "bundle-metric": FormulaEntry(
        "Deformed bundle metric, block diagonal in the adapted frame: "
        "G(delta_i, delta_j) = (1/beta) g_ij + v/(alpha beta) p_i p_j, "
        "G(dot^i, dot^j) = the matching contravariant block "
        "(beta/1) scaling, G(delta, dot) = 0; positive definite under the "
        "gauge alpha + 2 tau v > 0.",
        "kahler.BundleMetric / kahler.BundleMetric.gram (the Gram matrix of the adapted basis)",
    ),
    "positivity-tube": FormulaEntry(
        "For c > 0 the bundle metric stays positive definite only on the "
        "tube 2 tau < 1 / (c beta^2); samplers and manifests must keep "
        "points inside (with margin alpha + 2 tau v >= 0.2 alpha).",
        "kahler.DeformationParams.gauge (alpha + 2 tau v) / kahler.TUBE_MARGIN / "
        "kahler.tube_predicate / manifest (feasibility validation)",
    ),
    "almost-complex": FormulaEntry(
        "Almost complex structure J(delta_i) = G_ik dot^k, J(dot^i) = "
        "-G^ik delta_k; satisfies J^2 = -Id and G(JX, JY) = G(X, Y).",
        "kahler.BundleMetric.complex_jets (row a is J(F_a)) / "
        "kahler.BundleMetric.gram (G(X, Y) is x @ gram @ y)",
    ),
    "canonical-form": FormulaEntry(
        "Fundamental two-form theta(X, Y) = G(X, JY) equals the constant "
        "canonical symplectic matrix [[0, -I], [I, 0]] in the adapted "
        "frame, for every structure and parameter set.",
        "kahler.theta_matrix (gram @ J.T)",
    ),
    "nijenhuis": FormulaEntry(
        "Nijenhuis tensor N_J(X, Y) = [JX, JY] - J[JX, Y] - J[X, JY] "
        "- [X, Y]; vanishes (integrability) iff v = -c alpha beta^2 with c "
        "the constant of the vv-curvature shape; any other profile leaves "
        "a detectable defect.",
        "kahler.nijenhuis_table (four geometry.lie_brackets tables)",
    ),
    # --------------------------------------------------------- Levi-Civita
    "koszul": FormulaEntry(
        "Koszul formula 2 G(nabla_X Y, Z) = X G(Y,Z) + Y G(X,Z) - Z G(X,Y) "
        "+ G([X,Y], Z) - G([X,Z], Y) - G([Y,Z], X) on adapted frame "
        "fields; the independent oracle for the closed connection table.",
        "levicivita.koszul_oracle (the whole table, brackets from "
        "geometry.PointGeometry.basis_brackets) / geometry.lie_brackets / "
        "levicivita.lc_closed_form",
    ),
    "connection-blocks": FormulaEntry(
        "Closed-form Levi-Civita connection of the bundle metric in the "
        "adapted frame, one table Gamma[a, b, :] of the adapted components "
        "of nabla_{F_a} F_b built from C, L, B, G and the constant c; its "
        "blocks nabla_{F_i} F_j = H[i,j,s] delta_s + V[i,j,s] dot^s by "
        "frame kind are slices; torsion-free and metric-compatible.",
        "levicivita.lc_closed_form / geometry.frame_block / "
        "levicivita.connection_defects / geometry.PointGeometry.basis_brackets",
    ),
    "curvature-defn": FormulaEntry(
        "Curvature by definition: K(X, Y)Z = nabla_X nabla_Y Z - nabla_Y "
        "nabla_X Z - nabla_[X,Y] Z over every slot triple at once, "
        "evaluated with exact frame derivatives of the closed connection "
        "table (the first chart partials of its jet) and the basis brackets.",
        "levicivita.curvature_defn (the whole table, as "
        "levicivita.curvature_closed; curvature_context is the same "
        "function)",
    ),
    "curvature-blocks": FormulaEntry(
        "Six closed-form curvature blocks, named by the frame kinds of "
        "(X, Y, Z): vv_v, hv_v, hh_h, hh_v, vv_h, hv_h, assembled into one "
        "table K[x, y, z, :] with the (v, h, .) kinds by antisymmetry in "
        "the first pair.  Blocks hv_v and hv_h are identities of the "
        "coefficient field for any structure; vv_v and vv_h only where the "
        "Cartan x Landsberg products beta^2 anti_ij(C^{ih}_s L^{jks} - "
        "C^{jk}_s L^{ish}) (h-part of vv_v) and anti_ij(C^{is}_h L^j_{ks} - "
        "C^{js}_k L^i_{sh}) (v-part of vv_h) vanish, as at n = 2 and where "
        "L = 0: expanding nabla_{pdot^i} nabla_{pdot^j} with the vvh, vvv, "
        "vhh and vhv connection blocks yields them, and the blocks here "
        "omit them (with only the paper's abstract at hand, whether the "
        "paper prints them is open).  hh_h and hh_v additionally presuppose "
        "the constant-curvature shape of the vv-curvature.",
        "levicivita.curvature_closed / levicivita.CURVATURE_BLOCKS / "
        "geometry.frame_block / geometry.PointGeometry.h_cov (the covariant "
        "derivatives of C and L)",
    ),
    "ricci-traces": FormulaEntry(
        "Ricci tensor as one trace of the curvature table over the adapted "
        "basis: Ric(F_y, F_z) = sum_x K[x, y, z, x].  Its blocks are "
        "Ric_hh[j,k] = hh_h.h[i,j,k,i] - hv_h.v[j,i,k,i], Ric_vv[j,k] = "
        "hv_v.h[i,j,k,i] + vv_v.v[i,j,k,i], and the mixed traces; the "
        "mixed blocks satisfy Ric_hv = Ric_vh^T.",
        "levicivita.ricci / levicivita.RicciData",
    ),
    "einstein-forward": FormulaEntry(
        "On quadratic duals of constant curvature c with the matching "
        "profile v = -c alpha beta^2, the bundle metric is Einstein: "
        "Ric = lambda G with lambda = c n beta (least-squares factor "
        "lambda-hat = <Ric, G> / <G, G> over the Gram matrix equals "
        "c n beta and the max-norm defect max |Ric - lambda-hat G| "
        "vanishes).",
        "levicivita.ricci / levicivita.RicciData / kahler.BundleMetric.gram",
    ),
    "einstein-obstruction": FormulaEntry(
        "Obstruction identity: p_k Ric_vv[j,k] - c n beta p_k G^jk = I^j "
        "exactly; a non-Riemannian structure (I != 0) therefore cannot "
        "make the bundle metric Einstein, and the Einstein defect stays "
        "bounded away from zero.",
        "levicivita.vertical_ricci_obstruction",
    ),
    # ------------------------------------------------------------ operators
    "frame-divergence": FormulaEntry(
        "Divergence in the adapted frame with frozen components: "
        "div(X) = X^i div(delta_i) + Xbar_i div(dot^i) where div(delta_j) "
        "= delta_j ln sqrt(g) - J_j and div of the vertical frame fields "
        "vanishes; hence div of any dot-constant field is 0 and the "
        "Liouville field C* = p_i dot^i has div(C*) = 0.",
        "operators.divergence / operators.operator_context",
    ),
    "volume-trace": FormulaEntry(
        "Trace identity for the horizontal connection coefficients: "
        "H^s_is = delta_i ln sqrt(g) with H = B + L; sqrt(g) the volume "
        "density of g_ij.",
        "operators.fd_dln_sqrtg_h / geometry.PointGeometry.dln_sqrtg_h",
    ),
    "gradient-duality": FormulaEntry(
        "Gradient via the metric pairing: G(grad f, X) = X f for all frame "
        "fields X; grad f = G^ih (delta_h f) delta_i + G_ih (dot^h f) "
        "dot^i.",
        "operators.gradient",
    ),
    "laplacian-closed": FormulaEntry(
        "Laplacian two ways: direct route div(grad f) versus the closed "
        "trace form built from delta f, G^ih, and (delta_i ln sqrt(g) - "
        "J_i); the energy K^2 is harmonic: Delta K^2 = 0.",
        "operators.laplacian / operators.LaplacianResult",
    ),
    "spray-divergence": FormulaEntry(
        "Geodesic spray S = p^i delta_i has div(S) = p^i delta_i ln "
        "sqrt(g) (the mean-Landsberg term drops since p^i J_i = 0); the "
        "volume is spray-invariant iff J_i = delta_i ln sqrt(g).",
        "operators.geodesic_spray / operators.divergence / "
        "operators.fd_dln_sqrtg_h (the finite-difference p^i delta_i ln sqrt(g))",
    ),
}
