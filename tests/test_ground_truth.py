"""The engine against a ground truth by computer algebra.

``tests/ground_truth/generate.py`` derives the adapted-frame Gram matrix,
Levi-Civita connection, curvature and Ricci tables of the bundle metric
with ``sympy``, sharing no code with the package, and keeps them exact to
the float in ``tests/ground_truth/tables.json``.  These tests read that
file, so they need no ``sympy``.

The closed connection, curvature and Ricci are the Levi-Civita ones only
on a matching pair (the structure's constant curvature is the params' c),
so they are compared there alone; the Gram matrix and the Koszul oracle,
which hold on every pair, are compared on both.
"""
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cartanlab.cartan import conformal_structure
from cartanlab.checks import REGISTRY, TOLERANCES
from cartanlab.geometry import PointGeometry
from cartanlab.jets import ChartPoint
from cartanlab.kahler import BundleMetric, DeformationParams
from cartanlab.levicivita import curvature_closed, koszul_oracle, lc_closed_form, ricci

CASES = json.loads((Path(__file__).resolve().parent / "ground_truth" / "tables.json").read_text())["cases"]
STRUCTURES = {"conformal-2d-c-1": conformal_structure(2, -1.0)}
# the closed tables agree with the exact ones to roundoff
EXACT_TOL = 1e-12


def _state(case):
    s = STRUCTURES[case["structure"]]
    at = ChartPoint(*(np.array([float(Fraction(q)) for q in case[key]]) for key in ("x", "p")))
    params = DeformationParams(**case["params"])
    return s, at, params, BundleMetric(PointGeometry(s, at), params)


def _matching(case) -> bool:
    return case["params"]["c"] == STRUCTURES[case["structure"]].constant_curvature


def _case_id(case) -> str:
    return f"{case['structure']}|c={case['params']['c']}"


MATCHING = [case for case in CASES if _matching(case)]
MISMATCHED = [case for case in CASES if not _matching(case)]


def _worst(got, want) -> float:
    return float(np.abs(np.asarray(got) - np.asarray(want)).max())


def test_the_cases_cover_a_matching_and_a_mismatched_pair():
    assert len(MATCHING) == len(MISMATCHED) == 1


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_the_gram_matrix_is_the_ground_truth(case):
    *_, metric = _state(case)
    assert _worst(metric.gram, case["gram"]) <= EXACT_TOL


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_the_koszul_oracle_finds_the_true_connection(case):
    spec = next(spec for spec in REGISTRY if spec.check_id == "levicivita.koszul_agreement")
    s, at, params, metric = _state(case)
    assert _worst(koszul_oracle(s, at, params, metric), case["connection"]) <= TOLERANCES[spec.category] * spec.tol_factor


@pytest.mark.parametrize("case", MATCHING, ids=_case_id)
def test_the_closed_routes_are_the_ground_truth_on_a_matching_pair(case):
    s, at, params, metric = _state(case)
    assert _worst(lc_closed_form(s, at, params, metric), case["connection"]) <= EXACT_TOL
    assert _worst(curvature_closed(s, at, params, metric), case["curvature"]) <= EXACT_TOL
    assert _worst(ricci(s, at, params, metric).ric, case["ricci"]) <= EXACT_TOL


@pytest.mark.parametrize("case", MISMATCHED, ids=_case_id)
def test_the_closed_connection_is_not_the_true_one_on_a_mismatched_pair(case):
    # the ground truth sees the mismatch: the closed table is 0.31 off
    s, at, params, metric = _state(case)
    assert _worst(lc_closed_form(s, at, params, metric), case["connection"]) > 0.1
