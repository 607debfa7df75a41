"""Design rules of the package.

Independence, checked by what the code calls: an oracle never runs the
algebra it is meant to check.  Each oracle runs on a fresh geometry and
metric under `sys.setprofile`, which collects every package function it
enters.

One owner per name, checked on the source: no module imports another
module's private (single-underscore) name.
"""
import ast
import os
import sys
from pathlib import Path

import pytest

import cartanlab
from cartanlab import berwald, levicivita, operators
from cartanlab.cartan import conformal_structure
from cartanlab.geometry import PointGeometry
from cartanlab.kahler import BundleMetric, DeformationParams

from conftest import general_randers, pt

PACKAGE = os.path.dirname(cartanlab.__file__) + os.sep

CASES = [
    (conformal_structure(2, -1.0), DeformationParams(c=-1.0), pt([0.2, -0.1], [0.8, 0.5])),
    (general_randers(3), DeformationParams(alpha=1.3, beta=0.8, c=0.0), pt([0.2, -0.3, 0.1], [1.0, 0.6, -0.4])),
]

# how the oracles of each module run on a fresh geometry and metric
CALLS = {
    levicivita: lambda oracle, s, at, params, metric: oracle(s, at, params, metric=metric),
    berwald: lambda oracle, s, at, params, metric: oracle(s, at, geom=metric.geom),
    operators: lambda oracle, s, at, params, metric: oracle(metric),
}

# the Cartan and Landsberg tensors of a geometry, in every index placement
CARTAN_LANDSBERG = {name for name in vars(PointGeometry) if name.startswith(("C_", "L_"))}

# oracle name -> (its module, functions it must never enter, functions it must enter)
RULES = {
    # the Koszul table from finite differences of the metric, N and the
    # brackets alone: never the closed connection, the Cartan, Landsberg or
    # Berwald algebra, nor the exact partials of the metric's jets
    "koszul_oracle": (
        levicivita,
        {"lc_closed_form", "_connection", "_connection_jet", "_closed_blocks", "_closed_curvature"}
        | CARTAN_LANDSBERG
        | {"B_jets", "B", "R_vv_jets", "R_vv", "R_curv", "P_curv", "h_cov"}
        | {"gram_jets", "gram_derivatives", "chart_partials"},
        {"_koszul_table", "_gram_partials", "fd_stencil", "fd_combine", "metric_at"},
    ),
    "curvature_defn": (
        levicivita,
        {"_closed_blocks", "_closed_curvature", "curvature_closed", "ricci", "fd_partial", "metric_at"},
        {"_defn_curvature", "_connection_jet"},
    ),
    # N from finite differences of g, never from the jet route of N or B
    "nonlinear_connection_fd": (
        berwald,
        {"gamma_jets", "N_jets", "N", "B_jets", "B"},
        {"fd_stencil", "fd_combine", "g_down"},
    ),
    # the curvature R from finite differences of B, never from its jets
    "berwald_curvature_fd": (
        berwald,
        {"R_curv", "R_vv_jets", "R_vv", "P_curv", "delta", "h_cov"},
        {"fd_stencil", "fd_combine", "B"},
    ),
    # delta_i ln sqrt det g from finite differences, never from the
    # connection trace or the exact jet
    "fd_dln_sqrtg_h": (
        operators,
        {"dln_sqrtg_h", "lc_closed_form", "_connection_jet", "_frame_divergences", "J_down", "J_up", "J_up_jets"},
        {"_dln_sqrtg_h_fd", "fd_stencil", "fd_combine", "dln_sqrtg_v"},
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
    module, forbidden, required = RULES[name]
    oracle = getattr(module, name)
    metric = BundleMetric(PointGeometry(s, at), params)
    entered = _entered(lambda: CALLS[module](oracle, s, at, params, metric))
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


def test_an_fd_oracle_that_reads_the_exact_connection_fails_the_rule(monkeypatch):
    fd = berwald.nonlinear_connection_fd

    def leaky(s, at, geom=None):
        geom.N  # the jet-route connection the oracle is meant to check
        return fd(s, at, geom=geom)

    monkeypatch.setattr(berwald, "nonlinear_connection_fd", leaky)
    with pytest.raises(AssertionError, match="'N'"):
        _assert_independent("nonlinear_connection_fd", *CASES[0])


@pytest.mark.parametrize(
    "leak, read",
    [
        ("C_ddd", lambda metric: metric.geom.C_ddd),
        ("gram_jets", lambda metric: metric.gram_jets),
    ],
    ids=["cartan", "metric-jets"],
)
def test_a_koszul_oracle_that_reads_cartan_or_the_metric_jets_fails_the_rule(leak, read, monkeypatch):
    koszul = levicivita.koszul_oracle

    def leaky(s, at, params, geom=None, metric=None):
        read(metric)
        return koszul(s, at, params, geom=geom, metric=metric)

    monkeypatch.setattr(levicivita, "koszul_oracle", leaky)
    with pytest.raises(AssertionError, match=f"'{leak}'"):
        _assert_independent("koszul_oracle", *CASES[0])


def _private_imports(path) -> list:
    """(module, name) of every ``from .module import _name`` in one source
    file; dunder names such as ``__version__`` are public."""
    tree = ast.parse(Path(path).read_text(), filename=str(path))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]


def test_no_module_imports_a_private_name_of_another():
    found = {path.name: leaks for path in sorted(Path(PACKAGE).glob("*.py")) if (leaks := _private_imports(path))}
    assert not found, found


def test_the_private_import_rule_sees_a_planted_import(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text("from .geometry import PointGeometry, _AXES\nfrom . import __version__\n")
    assert _private_imports(planted) == [("geometry", "_AXES")]
