"""Acceptance gate: one test per shipped criterion, each at its stated
tolerance, each emitting a single pass/fail line.

Criteria (summary):
  1. structural identities of the momentum-space calculus <= 1e-7,
     100 seeded points on every built-in structure
  2. J^2 = -I and G(JX, JY) = G(X, Y) <= 1e-10; theta exactly canonical,
     every structure x parameter set
  3. Nijenhuis <= 1e-5 on matching conformal duals (c = +1 inside the
     positivity tube 2 tau <= 0.8/(c beta^2)); >= 1e-2 once v is off by 0.1
  4. closed-form connection vs the Koszul oracle <= 1e-4 componentwise;
     torsion and metric-compatibility defects <= 1e-4 at >= 50 points
  5. all six closed curvature blocks vs the definition oracle <= 1e-3
     relative, every built-in structure with matching parameters
  6. lambda_hat = c n beta within 1e-3 and Einstein defect <= 1e-3 on
     Riemannian conformal duals; n=2, beta=1, c=-1 gives -2 +- 1e-3
  7. Randers structure: Einstein defect >= 1e-2 and the vertical Ricci
     obstruction reproduces the mean Cartan vector within 1e-3
  8. operators: div of vertical-constant fields and of the Liouville field
     <= 1e-6; Laplacian of K^2 <= 1e-6; spray divergence vs volume
     derivative <= 1e-5; gradient duality <= 1e-8; direct vs closed-form
     Laplacian <= 1e-4 on the 5-field corpus
  9. two `cartanlab verify` runs with the same manifest and seed produce
     byte-identical reports
"""
import json
import shutil
import subprocess
import sys

import numpy as np

from cartanlab.cartan import (
    conformal_structure,
    flat_structure,
    randers_dual,
    sample_points,
)
from cartanlab.checks import run_suite
from cartanlab.geometry import PointGeometry, frame_block
from cartanlab.kahler import (
    BundleMetric,
    DeformationParams,
    nijenhuis_table,
    theta_matrix,
    tube_predicate,
)
from cartanlab.levicivita import (
    CURVATURE_BLOCKS,
    connection_defects,
    curvature_closed,
    curvature_defn,
    koszul_oracle,
    lc_closed_form,
    ricci,
    vertical_ricci_obstruction,
)
from cartanlab.manifest import parse_manifest
from cartanlab.operators import (
    directional_derivative,
    divergence,
    fd_dln_sqrtg_h,
    geodesic_spray,
    gradient,
    laplacian,
    liouville_field,
    operator_context,
)


def _verdict(num: int, ok: bool, detail: str):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    sys.stdout.flush()
    assert ok, line


# the built-in structure set at desk scale (n = 2 and one n = 3 case)
def _builtin_manifest(count: int, seed: int):
    doc = {
        "structures": [
            {"family": "flat", "n": 2},
            {"family": "riemannian_conformal", "n": 2, "c": -1.0},
            {"family": "riemannian_conformal", "n": 2, "c": 1.0},
            {"family": "randers", "n": 2, "c": 0.0, "drift": [0.3, 0.0]},
            {"family": "riemannian_conformal", "n": 3, "c": -1.0},
        ],
        "params": [
            {"label": "flat-gauge", "alpha": 1.0, "beta": 2.0, "c": 0.0},
            {"label": "hyperbolic", "alpha": 1.0, "beta": 1.0, "c": -1.0},
            {"label": "spherical", "alpha": 1.0, "beta": 1.0, "c": 1.0},
            {"label": "hyperbolic-scaled", "alpha": 1.5, "beta": 0.7, "c": -1.0},
        ],
        "sampling": {"seed": seed, "count": count, "p_norm": [0.5, 1.5]},
    }
    return parse_manifest(json.dumps(doc))


def _matched_cases():
    return [
        (flat_structure(2), DeformationParams(alpha=1.0, beta=2.0, c=0.0)),
        (conformal_structure(2, -1.0), DeformationParams(c=-1.0)),
        (conformal_structure(2, 1.0), DeformationParams(c=1.0)),
        (randers_dual(n=2), DeformationParams(c=0.0)),
        (conformal_structure(3, -1.0), DeformationParams(c=-1.0)),
    ]


def _param_grid():
    return [
        DeformationParams(alpha=1.0, beta=2.0, c=0.0),
        DeformationParams(c=-1.0),
        DeformationParams(c=1.0),
        DeformationParams(alpha=1.5, beta=0.7, c=-1.0),
    ]


def _points(s, params, count, seed):
    return sample_points(
        s, count, np.random.default_rng(seed), (0.5, 1.5), accept=tube_predicate(s, params)
    )


# --------------------------------------------------------------- criterion 1

IDENTITY_CHECKS = (
    "cartan.euler_homogeneity",
    "cartan.metric_reconstruction",
    "cartan.cartan_transversality",
    "cartan.vertical_metric_derivative",
    "berwald.momentum_parallel",
    "berwald.delta_k2",
    "berwald.r_transversality",
    "berwald.landsberg_h_derivative",
)


def test_criterion_1_structural_identities():
    m = _builtin_manifest(count=100, seed=2026)
    recs = run_suite(m, only=IDENTITY_CHECKS)["checks"]
    counts = {}
    worst = 0.0
    ok = True
    for r in recs:
        ok = ok and r["pass"] and r["residual"] is not None and r["residual"] <= 1e-7
        worst = max(worst, r["residual"] if r["residual"] is not None else np.inf)
        key = (r["check_id"], r["structure"])
        counts[key] = counts.get(key, 0) + 1
    ok = ok and len(recs) == len(IDENTITY_CHECKS) * 5 * 100
    ok = ok and all(v == 100 for v in counts.values())
    _verdict(
        1,
        ok,
        f"8 structural identities at 100 pts x 5 built-ins, "
        f"max residual {worst:.2e} (tol 1e-7)",
    )


# --------------------------------------------------------------- criterion 2


def test_criterion_2_almost_kahler():
    m = _builtin_manifest(count=25, seed=7)
    recs = run_suite(m, only=("kahler.j_squared", "kahler.hermitian"))["checks"]
    worst_j = max(r["residual"] for r in recs)
    pairs = {r["structure"] for r in recs}
    # theta componentwise: the canonically-zero blocks must be bitwise zero;
    # the unit blocks are products of honest inverse pairs, so "exact" means
    # within a few ulp (asserted at 1e-12, two orders under the J tolerance)
    worst_zero = 0.0
    worst_unit = 0.0
    n_theta_pairs = 0
    for s, _ in _matched_cases():
        for params in _param_grid():
            n_theta_pairs += 1
            for at in _points(s, params, 6, seed=9):
                geom = PointGeometry(s, at)
                th = theta_matrix(BundleMetric(geom, params))
                n = geom.n
                worst_zero = max(
                    worst_zero,
                    float(np.abs(th[:n, :n]).max()),
                    float(np.abs(th[n:, n:]).max()),
                )
                worst_unit = max(
                    worst_unit,
                    float(np.abs(th[:n, n:] + np.eye(n)).max()),
                    float(np.abs(th[n:, :n] - np.eye(n)).max()),
                )
    ok = (
        worst_j <= 1e-10
        and worst_zero == 0.0
        and worst_unit <= 1e-12
        and len(pairs) == 5 * 4
        and n_theta_pairs == 5 * 4
        and len(recs) == 2 * 20 * 25
    )
    _verdict(
        2,
        ok,
        f"J^2/hermitian max residual {worst_j:.2e} (tol 1e-10) over {len(pairs)} "
        f"structure x params pairs; theta zero blocks exact (max {worst_zero:.1e}), "
        f"unit blocks within {worst_unit:.1e} (tol 1e-12)",
    )


# --------------------------------------------------------------- criterion 3


def _nij_max(metric):
    """Largest |N_J(F_a, F_b)| component over the slot pairs a < b."""
    a, b = np.triu_indices(2 * metric.n, 1)
    return float(np.abs(nijenhuis_table(metric)[a, b]).max())


def test_criterion_3_integrability_and_detection():
    cases = [
        (conformal_structure(2, -1.0), DeformationParams(c=-1.0), 10),
        (conformal_structure(2, 1.0), DeformationParams(c=1.0), 10),
        (conformal_structure(3, -1.0), DeformationParams(c=-1.0), 4),
    ]
    worst_match = 0.0
    weakest_detection = np.inf
    for s, params, count in cases:
        pts = _points(s, params, count, seed=5)
        detect = 0.0
        for at in pts:
            tau = 0.5 * s.k2(list(at.x), list(at.p))
            if params.c_at(tau) > 0:
                # spherical gauge: stay inside the positivity tube
                assert 2.0 * tau <= 0.8 / (params.c_at(tau) * params.beta**2) + 1e-9
            geom = PointGeometry(s, at)
            metric = BundleMetric(geom, params)
            worst_match = max(worst_match, _nij_max(metric))
            v0 = params.v_at(tau)
            perturbed = DeformationParams(
                alpha=params.alpha, beta=params.beta, v=v0 + 0.1
            )
            if not tube_predicate(s, perturbed)(at):
                continue
            pm = BundleMetric(geom, perturbed)
            detect = max(detect, _nij_max(pm))
        weakest_detection = min(weakest_detection, detect)
    ok = worst_match <= 1e-5 and weakest_detection >= 1e-2
    _verdict(
        3,
        ok,
        f"Nijenhuis max {worst_match:.2e} on matching duals (tol 1e-5); "
        f"v+0.1 perturbation flagged at >= {weakest_detection:.2e} in every case "
        f"(floor 1e-2)",
    )


# --------------------------------------------------------------- criterion 4


def test_criterion_4_connection_vs_koszul():
    worst_koszul = worst_torsion = worst_compat = 0.0
    total_pts = 0
    # n = 2 cases only: 13 points x 4 cases = 52 >= 50
    for s, params in _matched_cases()[:4]:
        for at in _points(s, params, 13, seed=17):
            total_pts += 1
            geom = PointGeometry(s, at)
            metric = BundleMetric(geom, params)
            conn = lc_closed_form(s, at, params, geom, metric)
            oracle = koszul_oracle(s, at, params, geom=geom, metric=metric)
            worst_koszul = max(worst_koszul, float(np.abs(oracle - conn).max()))
            t, c = connection_defects(s, at, params, geom=geom, metric=metric)
            worst_torsion = max(worst_torsion, t)
            worst_compat = max(worst_compat, c)
    ok = (
        total_pts >= 50
        and worst_koszul <= 1e-4
        and worst_torsion <= 1e-4
        and worst_compat <= 1e-4
    )
    _verdict(
        4,
        ok,
        f"closed form vs Koszul max {worst_koszul:.2e}, torsion {worst_torsion:.2e}, "
        f"metric compat {worst_compat:.2e} at {total_pts} pts (tol 1e-4)",
    )


# --------------------------------------------------------------- criterion 5


def test_criterion_5_curvature_blocks_vs_definition():
    worst_rel = 0.0
    for s, params in _matched_cases():
        for at in _points(s, params, 2, seed=23):
            metric = BundleMetric(PointGeometry(s, at), params)
            closed = curvature_closed(s, at, params, metric=metric)
            defn = curvature_defn(s, at, params, metric=metric)
            for which in CURVATURE_BLOCKS:
                blk, got = frame_block(closed, which), frame_block(defn, which)
                scale = max(float(np.abs(blk).max()), 1.0)
                worst_rel = max(worst_rel, float(np.abs(got - blk).max()) / scale)
    ok = worst_rel <= 1e-3
    _verdict(
        5,
        ok,
        f"all 6 curvature blocks vs definition oracle, max relative residual "
        f"{worst_rel:.2e} over 5 built-ins (tol 1e-3)",
    )


# --------------------------------------------------------------- criterion 6


def test_criterion_6_einstein_forward():
    cases = [
        (conformal_structure(2, -1.0), DeformationParams(c=-1.0), -2.0),
        (conformal_structure(2, -1.0), DeformationParams(alpha=1.5, beta=0.7, c=-1.0), -1.4),
        (conformal_structure(2, 1.0), DeformationParams(c=1.0), 2.0),
        (conformal_structure(3, -1.0), DeformationParams(c=-1.0), -3.0),
        (flat_structure(2), DeformationParams(alpha=1.0, beta=2.0, c=0.0), 0.0),
    ]
    worst_lam = worst_defect = 0.0
    spot = None
    for s, params, expect in cases:
        for at in _points(s, params, 4, seed=31):
            rd = ricci(s, at, params)
            worst_lam = max(worst_lam, abs(rd.lambda_hat - expect))
            worst_defect = max(worst_defect, rd.defect)
            if expect == -2.0 and spot is None:
                spot = rd.lambda_hat
    ok = worst_lam <= 1e-3 and worst_defect <= 1e-3 and abs(spot - (-2.0)) <= 1e-3
    _verdict(
        6,
        ok,
        f"lambda_hat = c n beta within {worst_lam:.2e}, Einstein defect "
        f"{worst_defect:.2e} (tol 1e-3); n=2 beta=1 c=-1 spot value {spot:.6f}",
    )


# --------------------------------------------------------------- criterion 7


def test_criterion_7_einstein_obstruction_on_randers():
    s = randers_dual(n=2)
    params = DeformationParams(c=0.0)
    min_defect = np.inf
    worst_obstruction = 0.0
    min_mean_cartan = np.inf
    for at in _points(s, params, 6, seed=43):
        rd = ricci(s, at, params)
        min_defect = min(min_defect, rd.defect)
        res, mean_cartan = vertical_ricci_obstruction(s, at, params)
        worst_obstruction = max(worst_obstruction, float(np.abs(res - mean_cartan).max()))
        min_mean_cartan = min(min_mean_cartan, float(np.abs(mean_cartan).max()))
    ok = min_defect >= 1e-2 and worst_obstruction <= 1e-3 and min_mean_cartan > 0.0
    _verdict(
        7,
        ok,
        f"Randers Einstein defect >= {min_defect:.2e} (floor 1e-2); vertical Ricci "
        f"obstruction reproduces the mean Cartan vector within {worst_obstruction:.2e} "
        f"(tol 1e-3)",
    )


# --------------------------------------------------------------- criterion 8


def test_criterion_8_operator_bundle():
    rng = np.random.default_rng(3)
    w_vert = w_liou = w_k2 = w_spray = w_dual = w_routes = 0.0
    for s, params in _matched_cases():
        corpus = [
            lambda q: q.x[0],
            lambda q: q.p[0],
            lambda q: float(q.x @ q.p),
            lambda q: s.k2(list(q.x), list(q.p)),
            lambda q: float(np.log(s.k2(list(q.x), list(q.p)))),
        ]
        for at in _points(s, params, 3, seed=47):
            m = operator_context(s, at, params)
            n = m.geom.n
            for _ in range(3):
                xv = rng.normal(size=n)
                w_vert = max(w_vert, abs(divergence(m, np.concatenate([np.zeros(n), xv]))))
            w_liou = max(w_liou, abs(divergence(m, liouville_field(m))))
            r = laplacian(m, m.geom.k2)
            w_k2 = max(w_k2, abs(r.direct), abs(r.closed))
            p_up = m.geom.p_up_jets.value
            w_spray = max(
                w_spray,
                abs(divergence(m, geodesic_spray(m)) - p_up @ fd_dln_sqrtg_h(m)),
            )
            for f in corpus[:2]:
                gf = gradient(m, f)
                for _ in range(5):
                    x = np.concatenate([rng.normal(size=n), rng.normal(size=n)])
                    lhs = gf @ m.gram @ x
                    w_dual = max(w_dual, abs(lhs - directional_derivative(m, f, x)))
            for f in corpus:
                w_routes = max(w_routes, laplacian(m, f).difference)
    ok = (
        w_vert <= 1e-6
        and w_liou <= 1e-6
        and w_k2 <= 1e-6
        and w_spray <= 1e-5
        and w_dual <= 1e-8
        and w_routes <= 1e-4
    )
    _verdict(
        8,
        ok,
        f"div(vert-const) {w_vert:.1e} (1e-6), div(Liouville) {w_liou:.1e} (1e-6), "
        f"Laplacian K^2 {w_k2:.1e} (1e-6), spray-div vs volume {w_spray:.1e} (1e-5), "
        f"duality {w_dual:.1e} (1e-8), Laplacian routes {w_routes:.1e} (1e-4)",
    )


# --------------------------------------------------------------- criterion 9


def test_criterion_9_byte_identical_reports(tmp_path):
    doc = {
        "structures": [
            {"family": "flat", "n": 2},
            {"family": "riemannian_conformal", "n": 2, "c": -1.0},
        ],
        "params": [
            {"label": "flat-gauge", "alpha": 1.0, "beta": 2.0, "c": 0.0},
            {"label": "hyperbolic", "alpha": 1.0, "beta": 1.0, "c": -1.0},
        ],
        "sampling": {"seed": 42, "count": 5, "p_norm": [0.5, 1.5]},
    }
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc))
    exe = shutil.which("cartanlab")
    base = [exe] if exe else [sys.executable, "-m", "cartanlab"]
    outs = []
    codes = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        proc = subprocess.run(
            base + ["verify", "--manifest", str(manifest), "--out", str(out)],
            capture_output=True,
        )
        codes.append(proc.returncode)
        outs.append(out.read_bytes())
    identical = outs[0] == outs[1]
    n_checks = json.loads(outs[0].decode())["summary"]["total"]
    ok = identical and codes == [0, 0]
    _verdict(
        9,
        ok,
        f"two `cartanlab verify` runs, same manifest and seed: byte-identical="
        f"{identical}, exit codes {codes}, {n_checks} records",
    )
