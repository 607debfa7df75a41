"""Ground-truth tables of the deformed bundle metric by computer algebra.

This script shares no code with ``cartanlab``: it imports nothing from it
(a design rule in ``tests/test_design_rules.py`` checks that).  From K^2
as a ``sympy`` expression it builds, on the chart (x^i, p_i) of the slit
cotangent bundle:

* g^ij = 1/2 d^2 K^2 / dp_i dp_j, its inverse g_ij, the formal Christoffel
  symbols gamma^i_jk of g_ij in x and the canonical nonlinear connection
  N_ij = gamma^h_ij p_h - 1/2 gamma^h_kl p_h p^l d(g_ij)/dp_k;
* the deformed metric G_ij = g_ij / beta + v p_i p_j / (alpha beta) with
  v = -c alpha beta^2, G^ij its matrix inverse, on the adapted frame
  F = (delta_i = d/dx^i + N_il d/dp_l, pdot^i = d/dp_i), and on the
  coordinate frame
  [[G_ij + N_ik G^kl N_jl, -N_ik G^kl], [-G^kl N_jl, G^kl]];
* the Levi-Civita connection and Riemann tensor of that coordinate metric
  from its first and second partials, evaluated exactly at a rational
  point, mapped to the adapted frame.

It writes, per case, the adapted-frame tables in the layout ``cartanlab``
uses: the Gram matrix G(F_a, F_b) at [a, b], the connection
nabla_{F_a} F_b at [a, b, :], the curvature K(F_x, F_y) F_z =
nabla_x nabla_y F_z - nabla_y nabla_x F_z - nabla_[x,y] F_z at
[x, y, z, :] and Ric(F_y, F_z) = sum_x K[x, y, z, x] at [y, z].  At a
rational point of a polynomial K^2 every value is an exact rational, so
each float in the JSON is the correctly rounded value.

With ``sympy`` installed (about 12 s on one core)::

    python tests/ground_truth/generate.py          # rewrite tables.json
    python tests/ground_truth/generate.py --check  # exit 1 if the tables
                                                   # differ by more than 1e-13
"""
from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

import sympy as sp

OUT = Path(__file__).resolve().parent / "tables.json"
CHECK_TOL = 1e-13

N_DIM = 2
XS = sp.symbols("x1:3")
PS = sp.symbols("p1:3")
CHART = (*XS, *PS)


def conformal_k2(c):
    """K^2 of the dual of a_ij = delta_ij / (1 + c |x|^2 / 4)^2."""
    phi = 1 + sp.Rational(c) / 4 * sum(q * q for q in XS)
    return phi**2 * sum(q * q for q in PS)


X = (sp.Rational(1, 10), sp.Rational(-1, 5))
P = (sp.Rational(3, 5), sp.Rational(3, 10))

# (structure label, K^2, params) per case; alpha = beta = 1
CASES = [
    ("conformal-2d-c-1", conformal_k2(-1), {"alpha": 1, "beta": 1, "c": -1}),
    ("conformal-2d-c-1", conformal_k2(-1), {"alpha": 1, "beta": 1, "c": 0}),
]


def coordinate_metric(k2, params):
    """(the 2n x 2n metric on the coordinate frame, N_ij) as expressions."""
    n = N_DIM
    g_up = sp.Matrix(n, n, lambda i, j: sp.diff(k2, PS[i], PS[j]) / 2)
    g_down = sp.simplify(g_up.inv())
    p_up = g_up * sp.Matrix(PS)
    gamma = [
        [
            [
                sum(
                    g_up[i, m] * (sp.diff(g_down[j, m], XS[k]) + sp.diff(g_down[m, k], XS[j]) - sp.diff(g_down[j, k], XS[m]))
                    for m in range(n)
                ) / 2
                for k in range(n)
            ]
            for j in range(n)
        ]
        for i in range(n)
    ]
    gamma00 = [sum(gamma[h][k][l] * PS[h] * p_up[l] for h in range(n) for l in range(n)) for k in range(n)]
    nonlinear = sp.Matrix(
        n, n,
        lambda i, j: sum(gamma[h][i][j] * PS[h] for h in range(n))
        - sum(gamma00[k] * sp.diff(g_down[i, j], PS[k]) for k in range(n)) / 2,
    )
    alpha, beta = sp.Rational(params["alpha"]), sp.Rational(params["beta"])
    v = -sp.Rational(params["c"]) * alpha * beta**2
    G_down = g_down / beta + sp.Matrix(PS) * sp.Matrix(PS).T * (v / (alpha * beta))
    G_up = G_down.inv()
    hh = G_down + nonlinear * G_up * nonlinear.T
    hv = -nonlinear * G_up
    return sp.BlockMatrix([[hh, hv], [hv.T, G_up]]).as_explicit(), nonlinear


def tables(k2, params) -> dict:
    """The adapted-frame Gram, connection, curvature and Ricci tables at
    (X, P), exact."""
    dim = 2 * N_DIM
    subs = dict(zip(CHART, (*X, *P)))
    metric, nonlinear = coordinate_metric(k2, params)
    D = [metric.diff(u) for u in CHART]
    M = metric.xreplace(subs)
    dM = [d.xreplace(subs) for d in D]
    ddM = [[None] * dim for _ in range(dim)]
    for t, u in itertools.combinations_with_replacement(range(dim), 2):
        ddM[t][u] = ddM[u][t] = D[u].diff(CHART[t]).xreplace(subs)
    M_inv = M.inv()
    dM_inv = [-M_inv * dM[t] * M_inv for t in range(dim)]

    # Gamma^w_uv = 1/2 M^wz (d_u M_zv + d_v M_zu - d_z M_uv) and its partials
    def first_kind(d, u, v, z):
        return d[u][z, v] + d[v][z, u] - d[z][u, v]

    Q = [[[first_kind(dM, u, v, z) for z in range(dim)] for v in range(dim)] for u in range(dim)]
    dQ = [
        [[[first_kind(ddM[t], u, v, z) for z in range(dim)] for v in range(dim)] for u in range(dim)]
        for t in range(dim)
    ]
    gam = [[[sum(M_inv[w, z] * Q[u][v][z] for z in range(dim)) / 2 for w in range(dim)] for v in range(dim)] for u in range(dim)]
    dgam = [
        [
            [
                [
                    sum(dM_inv[t][w, z] * Q[u][v][z] + M_inv[w, z] * dQ[t][u][v][z] for z in range(dim)) / 2
                    for w in range(dim)
                ]
                for v in range(dim)
            ]
            for u in range(dim)
        ]
        for t in range(dim)
    ]
    # R(d_a, d_b) d_c = riemann[a][b][c][d] d_d
    riemann = [
        [
            [
                [
                    dgam[a][b][c][d] - dgam[b][a][c][d]
                    + sum(gam[a][e][d] * gam[b][c][e] - gam[b][e][d] * gam[a][c][e] for e in range(dim))
                    for d in range(dim)
                ]
                for c in range(dim)
            ]
            for b in range(dim)
        ]
        for a in range(dim)
    ]

    # the adapted frame: row a of E holds F_a on the coordinate frame
    E = sp.eye(dim)
    E[:N_DIM, N_DIM:] = nonlinear.xreplace(subs)
    dE = [sp.zeros(dim) for _ in range(dim)]
    for t in range(dim):
        dE[t][:N_DIM, N_DIM:] = nonlinear.diff(CHART[t]).xreplace(subs)
    E_inv = E.inv()

    gram = E * M * E.T
    connection = []
    for a in range(dim):
        row = []
        for b in range(dim):
            coords = [
                sum(E[a, u] * (dE[u][b, w] + sum(E[b, v] * gam[u][v][w] for v in range(dim))) for u in range(dim))
                for w in range(dim)
            ]
            row.append([sum(coords[w] * E_inv[w, s] for w in range(dim)) for s in range(dim)])
        connection.append(row)
    curvature = [[[[None] * dim for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
    for x, y, z in itertools.product(range(dim), repeat=3):
        coords = [
            sum(
                E[x, a] * E[y, b] * E[z, c] * riemann[a][b][c][d]
                for a in range(dim) for b in range(dim) for c in range(dim)
            )
            for d in range(dim)
        ]
        curvature[x][y][z] = [sum(coords[d] * E_inv[d, s] for d in range(dim)) for s in range(dim)]
    ricci = [[sum(curvature[x][y][z][x] for x in range(dim)) for z in range(dim)] for y in range(dim)]
    return {
        "gram": [[gram[a, b] for b in range(dim)] for a in range(dim)],
        "connection": connection,
        "curvature": curvature,
        "ricci": ricci,
    }


def _floats(table):
    if isinstance(table, list):
        return [_floats(t) for t in table]
    return float(table)


def document() -> dict:
    cases = []
    for label, k2, params in CASES:
        cases.append({
            "structure": label,
            "k2": str(k2),
            "x": [str(q) for q in X],
            "p": [str(q) for q in P],
            "params": params,
            **{name: _floats(t) for name, t in tables(k2, params).items()},
        })
    return {"sympy": sp.__version__, "cases": cases}


def _worst_difference(a, b) -> float:
    if isinstance(a, dict):
        if a.keys() != b.keys():
            return float("inf")
        return max(_worst_difference(a[k], b[k]) for k in a if k != "sympy")
    if isinstance(a, list):
        return max(_worst_difference(s, t) for s, t in zip(a, b, strict=True))
    if isinstance(a, float):
        return abs(a - b)
    return 0.0 if a == b else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help=f"compare with {OUT.name} instead of writing it")
    args = parser.parse_args(argv)
    doc = document()
    if not args.check:
        OUT.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        return 0
    worst = _worst_difference(doc, json.loads(OUT.read_text(encoding="utf-8")))
    print(f"largest difference from {OUT.name}: {worst:.3e} (bound {CHECK_TOL:g})")
    return 0 if worst <= CHECK_TOL else 1


if __name__ == "__main__":
    sys.exit(main())
