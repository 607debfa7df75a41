"""Independence, a design rule of the package checked by what the code
calls: an oracle never runs the algebra it is meant to check.  Each oracle
runs on a fresh geometry and metric under `sys.setprofile`, which collects
every package function it enters.
"""
import os
import sys

import pytest

import cartanlab
from cartanlab import levicivita
from cartanlab.cartan import conformal_structure
from cartanlab.geometry import PointGeometry
from cartanlab.kahler import BundleMetric, DeformationParams

from conftest import general_randers, pt

PACKAGE = os.path.dirname(cartanlab.__file__) + os.sep

CASES = [
    (conformal_structure(2, -1.0), DeformationParams(c=-1.0), pt([0.2, -0.1], [0.8, 0.5])),
    (general_randers(3), DeformationParams(alpha=1.3, beta=0.8, c=0.0), pt([0.2, -0.3, 0.1], [1.0, 0.6, -0.4])),
]

# oracle name -> (functions it must never enter, functions it must enter)
RULES = {
    "koszul_oracle": (
        {"lc_closed_form", "_connection", "_connection_jet", "_closed_blocks", "_closed_curvature"},
        {"_koszul_table", "_x_partials", "_p_partials"},
    ),
    "curvature_defn": (
        {"_closed_blocks", "_closed_curvature", "curvature_closed", "ricci"},
        {"_defn_curvature", "_connection_jet", "_x_partials"},
    ),
}


def _entered(run) -> set:
    """Names of the package functions that ``run()`` enters."""
    names = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            names.add(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return names


def _assert_independent(name, s, params, at):
    forbidden, required = RULES[name]
    oracle = getattr(levicivita, name)
    metric = BundleMetric(PointGeometry(s, at), params)
    entered = _entered(lambda: oracle(s, at, params, metric=metric))
    assert required <= entered, f"{name} entered {sorted(entered)}"
    assert not entered & forbidden, f"{name} entered {sorted(entered & forbidden)}"


@pytest.mark.parametrize("name", sorted(RULES))
@pytest.mark.parametrize("s, params, at", CASES, ids=[c[0].label for c in CASES])
def test_oracle_enters_none_of_the_closed_algebra(name, s, params, at):
    _assert_independent(name, s, params, at)


def test_an_oracle_that_reads_the_closed_form_fails_the_rule(monkeypatch):
    koszul = levicivita.koszul_oracle

    def leaky(s, at, params, geom=None, metric=None):
        levicivita.lc_closed_form(s, at, params, geom=geom, metric=metric)
        return koszul(s, at, params, geom=geom, metric=metric)

    monkeypatch.setattr(levicivita, "koszul_oracle", leaky)
    with pytest.raises(AssertionError, match="lc_closed_form"):
        _assert_independent("koszul_oracle", *CASES[0])

