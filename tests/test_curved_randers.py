"""The closed curvature and the N oracle on a Randers structure over a
curved base (c = -1, drift 0.3): the one structure whose Cartan and
Landsberg tensors, momentum-dependent g and x-dependent Christoffel
symbols are all nonzero, so terms that vanish on every shipped manifest
structure are exercised here.  The closed vv_v and vv_h blocks omit two
Cartan x Landsberg products (`_cl_terms`); these tests patch them in as
the clean baseline, and the planted "cl_terms" case shows that the
blocks as shipped fail without them.  Each planted defect is patched in
at run time; nothing under src/ carries a flag for it."""
import json

import numpy as np
import pytest

from cartanlab import checks, levicivita
from cartanlab.checks import run_suite
from cartanlab.manifest import parse_manifest

CURVATURE_CHECKS = ("levicivita.curvature_blocks_universal", "levicivita.ricci_mixed_symmetry")


def _manifest(n):
    return parse_manifest(json.dumps({
        "structures": [{"family": "randers", "n": n, "c": -1.0, "drift": 0.3}],
        "params": [
            {"label": "hyperbolic", "alpha": 1.0, "beta": 1.0, "c": -1.0},
            {"label": "hyperbolic-scaled", "alpha": 1.5, "beta": 0.7, "c": -1.0},
        ],
        "sampling": {"seed": 0, "count": 3, "p_norm": [0.5, 1.5]},
    }))


def _failed(n, only) -> list:
    report = run_suite(_manifest(n), only=only)
    assert report["summary"]["total"] > 0
    return [(r["check_id"], r["structure"], r["point"]["index"]) for r in report["checks"] if not r["pass"]]


def _anti(t):
    return t - t.transpose(1, 0, 2, 3)


def _cl_terms(geom, metric):
    """The Cartan x Landsberg products that `levicivita._closed_blocks` omits,
    at [i, j, k, h]: beta^2 anti_ij(C^{ih}_s L^{jks} -
    C^{jk}_s L^{ish}) of the vv_v h-part and anti_ij(C^{is}_h L^j_{ks} -
    C^{js}_k L^i_{sh}) of the vv_h v-part.  Expanding nabla_{pdot^i}
    nabla_{pdot^j} with the vvh, vvv, vhh and vhv connection blocks yields
    them: nabla_{pdot^i} acting on the frame, not the plain momentum
    derivative of L.  At n = 2 each is symmetric in (i, j), so both vanish
    there, as they do where L = 0."""
    C, L, Ld = geom.C_uud_jets.value, geom.L_uuu, geom.L_udd
    b2 = metric.params.beta ** 2
    vv_v = b2 * _anti(np.einsum("ihs,jks->ijkh", C, L) - np.einsum("jks,ish->ijkh", C, L))
    vv_h = _anti(np.einsum("ish,jks->ijkh", C, Ld) - np.einsum("jsk,ish->ijkh", C, Ld))
    return vv_v, vv_h


def _shift_cl_terms(clean, sign):
    """`clean` with the C.L products added (sign = 1) or taken out (-1)."""

    def shifted(geom, metric):
        blocks = dict(clean(geom, metric))
        vv_v, vv_h = _cl_terms(geom, metric)
        H, V = blocks["vv_v"]
        blocks["vv_v"] = (H + sign * vv_v, V)
        H, V = blocks["vv_h"]
        blocks["vv_h"] = (H, V + sign * vv_h)
        return blocks

    return shifted


@pytest.fixture
def completed_blocks(monkeypatch):
    """The closed blocks with the C.L products in, patched at run time."""
    monkeypatch.setattr(levicivita, "_closed_blocks", _shift_cl_terms(levicivita._closed_blocks, 1))


def test_closed_curvature_with_the_cl_terms_holds_on_curved_randers(completed_blocks):
    # n = 3, where the products are nonzero (at n = 2 the shipped blocks
    # already pass, see tests/test_levicivita.py); the planted "cl_terms"
    # case below shows that the blocks without them fail here
    assert _failed(3, CURVATURE_CHECKS) == []


def _drop_cl_terms(clean):
    """(a) The C.L products taken out again: the closed blocks as shipped."""
    return _shift_cl_terms(clean, -1)


def _transpose_hc(clean):
    """(b) The h-covariant derivative of C in the hv_h h-part read with two
    indices transposed: hC[j, k, h, i] where hC[j, h, k, i] belongs."""

    def planted(geom, metric):
        blocks = dict(clean(geom, metric))
        hc = geom.h_cov(geom.C_uud_jets, "uud").value
        H, V = blocks["hv_h"]
        blocks["hv_h"] = (H + np.einsum("jkhi->ijkh", hc) - np.einsum("jhki->ijkh", hc), V)
        return blocks

    return planted


def _momentum_term(geom):
    """-0.5 gamma00^h pdot^h g_ij of `nonlinear_connection_fd`, from exact
    jets at the center."""
    dg_x = np.moveaxis(geom.g_down_jets.derivs(geom.xvars).value, -1, 0)  # d_k g_jm at [k, j, m]
    dg_p = np.moveaxis(geom.g_down_jets.derivs(geom.pvars).value, -1, 0)  # pdot^h g_ij at [h, i, j]
    first = np.einsum("kjm->jkm", dg_x) + np.einsum("jmk->jkm", dg_x) - np.einsum("mjk->jkm", dg_x)
    gamma0 = 0.5 * np.einsum("im,jkm,i->jk", geom.g_up, first, geom.at.p)
    return -0.5 * np.einsum("h,hij->ij", gamma0 @ geom.p_up, dg_p)


def _drop_momentum_term(clean):
    """(c) The N oracle without its momentum-correction term."""

    def planted(s, at, geom=None):
        return clean(s, at, geom=geom) - _momentum_term(geom)

    return planted


PLANTS = {
    "cl_terms": (levicivita, "_closed_blocks", _drop_cl_terms, "levicivita.curvature_blocks_universal"),
    "hc_transposed": (levicivita, "_closed_blocks", _transpose_hc, "levicivita.curvature_blocks_universal"),
    "n_momentum_term": (checks, "nonlinear_connection_fd", _drop_momentum_term, "berwald.n_fd_oracle"),
}


@pytest.mark.parametrize(
    "defect, n",
    [
        # the C.L products are symmetric in the frame pair at n = 2, where
        # C and L are both multiples of one tensor, so only n = 3 sees them
        ("cl_terms", 3),
        ("hc_transposed", 2),
        ("hc_transposed", 3),
        ("n_momentum_term", 2),
        ("n_momentum_term", 3),
    ],
)
def test_planted_defect_fails_a_curved_randers_record(defect, n, completed_blocks, monkeypatch):
    module, name, plant, check_id = PLANTS[defect]
    assert _failed(n, [check_id]) == []
    monkeypatch.setattr(module, name, plant(getattr(module, name)))
    assert _failed(n, [check_id]), f"{defect} at n = {n} failed no {check_id} record"
