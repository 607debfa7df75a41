"""Manifest parsing, report format, determinism, and CLI exit codes."""
import dataclasses
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from cartanlab import levicivita
from cartanlab.cartan import MAX_EXPRESSION_DEPTH, CartanStructure
from cartanlab.checks import run_suite
from cartanlab.cli import main
from cartanlab.errors import ManifestError
from cartanlab.kahler import DeformationParams
from cartanlab.manifest import load_manifest, parse_manifest


def _manifest_dict(count=6, **over):
    doc = {
        "structures": [
            {"family": "flat", "n": 2},
            {"family": "riemannian_conformal", "n": 2, "c": -1.0},
        ],
        "params": [
            {"label": "flat-gauge", "alpha": 1.0, "beta": 2.0, "c": 0.0},
            {"label": "hyperbolic", "alpha": 1.0, "beta": 1.0, "c": -1.0},
        ],
        "sampling": {"seed": 3, "count": count, "p_norm": [0.5, 1.5]},
    }
    doc.update(over)
    return doc


def _write(tmp_path, doc, name="m.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------- parsing


def test_parse_minimal_manifest_fills_defaults():
    m = parse_manifest(json.dumps(_manifest_dict(sampling={"seed": 1})))
    assert [s.label for s in m.structures] == ["flat-2d", "conformal-2d-c-1"]
    assert [entry["label"] for entry in m.document["params"]] == ["flat-gauge", "hyperbolic"]
    assert m.document["sampling"]["count"] == 100 and m.document["sampling"]["p_norm"] == [0.5, 2.0]
    # the document reproduces the materialized configuration
    assert m.document["sampling"]["seed"] == 1
    assert set(m.document) == {"structures", "params", "sampling"}


def test_parse_rejects_unknown_keys_with_path():
    with pytest.raises(ManifestError, match=r"structures\[1\]"):
        parse_manifest(
            json.dumps(
                _manifest_dict(
                    structures=[
                        {"family": "flat", "n": 2},
                        {"family": "flat", "n": 2, "bogus": 1},
                    ]
                )
            )
        )
    with pytest.raises(ManifestError, match=r"params\[0\]"):
        doc = _manifest_dict()
        doc["params"][0]["velocity"] = 3
        parse_manifest(json.dumps(doc))
    with pytest.raises(ManifestError, match="sampling"):
        parse_manifest(json.dumps(_manifest_dict(sampling={"seed": 1, "n_pts": 4})))


def test_parse_rejects_duplicate_labels():
    doc = _manifest_dict(
        structures=[
            {"family": "flat", "n": 2, "label": "dup"},
            {"family": "flat", "n": 3, "label": "dup"},
        ]
    )
    with pytest.raises(ManifestError, match="duplicate structure label"):
        parse_manifest(json.dumps(doc))
    doc = _manifest_dict()
    doc["params"][1]["label"] = "flat-gauge"
    with pytest.raises(ManifestError, match="duplicate params label"):
        parse_manifest(json.dumps(doc))


def test_parse_rejects_family_foreign_keys():
    doc = _manifest_dict(structures=[{"family": "flat", "n": 2, "c": -1.0}])
    with pytest.raises(ManifestError, match="only applies"):
        parse_manifest(json.dumps(doc))
    doc = _manifest_dict(
        structures=[{"family": "expression", "n": 2, "drift": [0.1, 0.0]}]
    )
    with pytest.raises(ManifestError):
        parse_manifest(json.dumps(doc))


def test_parse_rejects_infeasible_tube():
    # spherical gauge with a large beta: 2*tau exceeds 1/(c*beta^2) inside
    # the sampling shell, so the manifest must be refused up front
    doc = _manifest_dict(
        params=[{"label": "too-hot", "alpha": 1.0, "beta": 4.0, "c": 1.0}]
    )
    with pytest.raises(ManifestError, match="positivity tube"):
        parse_manifest(json.dumps(doc))


def _tube_error(params) -> str:
    doc = _manifest_dict(
        structures=[{"family": "riemannian_conformal", "n": 2, "c": 1.0}],
        params=[params],
        sampling={"p_norm": [1.5, 2.0]},
    )
    with pytest.raises(ManifestError) as exc:
        parse_manifest(json.dumps(doc))
    return str(exc.value)


def test_one_infeasible_profile_is_refused_the_same_way_however_written():
    # c = 3 and v = -c alpha beta^2 = -3 are one profile: one refusal,
    # naming the tube and its bound 1/(c beta^2)
    by_c = _tube_error({"label": "hot", "c": 3.0})
    assert by_c == _tube_error({"label": "hot", "v": -3.0})
    assert "positivity tube" in by_c and "tube bound 0.3333" in by_c


@pytest.mark.parametrize("p_norm", [[0.5, 1.5], [1.5, 2.0]])
def test_no_constant_profile_with_c_at_most_zero_leaves_the_tube(p_norm):
    # alpha + 2 tau v >= alpha when c <= 0: every default structure takes
    # such a profile, written as c, as a number v or as a string v
    alpha, beta = 1.5, 0.7
    params = []
    for c in (0.0, -1.0, -4.0):
        v = -c * alpha * beta**2
        for spelling, profile in (("c", {"c": c}), ("v", {"v": v}), ("v-str", {"v": repr(v)})):
            params.append({"label": f"{spelling}{c:g}", "alpha": alpha, "beta": beta, **profile})
    doc = dict(load_manifest("manifests/default.json").document, params=params, sampling={"p_norm": p_norm})
    m = parse_manifest(json.dumps(doc))
    assert len(m.structures) == 6 and len(m.params) == 9


def _one_manifest_error(tmp_path, capsys, doc) -> str:
    """The stderr of `verify` on ``doc``, which must exit 2 with one
    ``manifest error:`` line and write no report."""
    out = tmp_path / "r.json"
    assert main(["verify", "--manifest", _write(tmp_path, doc), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert not out.exists() and err.count("\n") == 1 and err.startswith("manifest error: ")
    return err


def test_a_tolerances_section_is_an_unknown_key(tmp_path, capsys):
    # the tolerances are the check registry's; no manifest changes them
    err = _one_manifest_error(tmp_path, capsys, _manifest_dict(tolerances={"jet_exact": 1e-9}))
    assert err.startswith("manifest error: top level: unknown key(s) ['tolerances']")


def test_a_profile_that_reads_tau_is_refused(tmp_path, capsys):
    # the closed connection and curvature take v constant: with
    # v = 0.4 + 0.3 tau they fail metric_compatible and
    # curvature_blocks_universal, which hold on every constant pairing
    doc = {
        "structures": [{"family": "riemannian_conformal", "n": 2, "c": -1.0}],
        "params": [{"alpha": 1, "beta": 1, "v": "0.4 + 0.3*tau"}],
        "sampling": {"count": 20},
    }
    err = _one_manifest_error(tmp_path, capsys, doc)
    assert err.startswith("manifest error: params[0].v: ") and "constant profiles only" in err
    # the API keeps such profiles; a string that never reads tau is constant
    assert DeformationParams(v="0.4 + 0.3*tau").reads_tau
    doc["params"][0]["v"] = "0.25"
    assert not parse_manifest(json.dumps(doc)).params[0].reads_tau


def test_an_expression_nested_past_the_depth_bound_is_a_manifest_error(tmp_path, capsys):
    # 1,200 chained terms recursed past Python's limit: an internal error
    k2 = "+".join(["p1*p1"] * 1199 + ["p2*p2"])
    doc = _manifest_dict(structures=[{"family": "expression", "n": 2, "k2": k2}])
    err = _one_manifest_error(tmp_path, capsys, doc)
    assert f"expression nests deeper than {MAX_EXPRESSION_DEPTH} levels" in err


def _deepest_chain_manifest():
    """A manifest whose K^2 is a chain with its names at the depth bound."""
    k2 = "+".join(["p1*p1"] * (MAX_EXPRESSION_DEPTH - 2) + ["p2*p2"])
    return _manifest_dict(count=2, structures=[{"family": "expression", "n": 2, "k2": k2}])


def test_the_deepest_accepted_expression_verifies(tmp_path):
    # a chain whose names sit at the depth bound evaluates inside run_suite,
    # in a fresh process as `cartanlab verify` runs
    doc = _deepest_chain_manifest()
    out = tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, "-m", "cartanlab", "verify", "--manifest", _write(tmp_path, doc), "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert json.loads(out.read_text())["summary"]["failed"] == 0


def test_the_deepest_accepted_expression_verifies_in_process(tmp_path, capsys):
    # the parser builds and evaluates with its own stacks, so pytest's frames
    # below `main` leave the bound intact
    out = tmp_path / "r.json"
    assert main(["verify", "--manifest", _write(tmp_path, _deepest_chain_manifest()), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads(out.read_text())["summary"]["failed"] == 0


def test_parse_rejects_bad_p_norm_and_count():
    with pytest.raises(ManifestError, match="p_norm"):
        parse_manifest(
            json.dumps(_manifest_dict(sampling={"seed": 0, "p_norm": [1.5, 0.5]}))
        )
    with pytest.raises(ManifestError, match="count"):
        parse_manifest(json.dumps(_manifest_dict(sampling={"seed": 0, "count": 0})))


def test_params_reject_c_and_v_together():
    doc = _manifest_dict(
        params=[{"label": "both", "alpha": 1.0, "beta": 1.0, "c": 0.0, "v": "t"}]
    )
    with pytest.raises(ManifestError, match="params"):
        parse_manifest(json.dumps(doc))


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_params_v_must_be_finite(tmp_path, capsys, value):
    text = json.dumps(_manifest_dict(params=[{"label": "bad", "v": 0.0}]))
    text = text.replace('"v": 0.0', f'"v": {value}')
    with pytest.raises(ManifestError, match=r"params\[0\]\.v: expected a finite number"):
        parse_manifest(text)
    path = tmp_path / "m.json"
    path.write_text(text)
    out = tmp_path / "r.json"
    assert main(["verify", "--manifest", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    assert "params[0].v" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry", [{"v": "1e200*1e200"}, {"c": 1e300, "beta": 1e10}], ids=["v-expression", "c-times-beta"]
)
def test_a_non_finite_profile_is_a_manifest_error(tmp_path, capsys, entry):
    # v = 1e200*1e200 is inf: accepted, it gave a NaN metric on which
    # positive_definite, gradient_duality and laplacian_routes passed
    err = _one_manifest_error(tmp_path, capsys, _manifest_dict(params=[{"label": "huge", **entry}]))
    assert err.startswith("manifest error: params[0]: deformation profile ") and "is not finite" in err


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_scalar_drift_must_be_finite(value):
    text = json.dumps(_manifest_dict(structures=[{"family": "randers", "n": 2, "drift": 0.0}]))
    text = text.replace('"drift": 0.0', f'"drift": {value}')
    with pytest.raises(ManifestError, match=r"structures\[0\]\.drift: expected a finite number"):
        parse_manifest(text)


def test_normalised_manifest_is_pinned():
    doc = {
        "structures": [
            {"family": "flat"},
            {"family": "riemannian_conformal", "n": 3, "c": -1.0, "x_box": 0.5, "label": "hyperbolic-3d"},
            {"family": "randers", "drift": 0.2},
            {"family": "randers", "n": 3, "c": -1.0, "drift": [0.1, -0.2, 0.0]},
            {"family": "expression", "k2": "(1 + 0.5*x1*x1) * p2*p2 + p1*p1",
             "constant_curvature": None, "x_box": 0.8},
            {"family": "expression", "label": "euclid", "k2": "p1*p1 + p2*p2", "constant_curvature": 0.0},
        ],
        "params": [
            {"label": "hyperbolic", "alpha": 1.0, "beta": 1.0, "c": -1.0},
            {"alpha": 1.5, "beta": 0.7, "v": 0.25},
            {"label": "profiled", "v": "0.1*0.5"},
            {},
        ],
        "sampling": {"seed": 4, "p_norm": [0.5, 1.5]},
    }
    m = parse_manifest(json.dumps(doc))
    assert m.document == {
        "structures": [
            {"family": "flat", "n": 2, "label": "flat-2d", "x_box": 1.0},
            {"family": "riemannian_conformal", "n": 3, "c": -1.0, "label": "hyperbolic-3d", "x_box": 0.5},
            {"family": "randers", "n": 2, "drift": 0.2, "label": "randers-2d", "x_box": 1.0},
            {"family": "randers", "n": 3, "c": -1.0, "drift": [0.1, -0.2, 0.0],
             "label": "randers-curved-3d-c-1", "x_box": 0.9},
            {"family": "expression", "n": 2, "k2": "(1 + 0.5*x1*x1) * p2*p2 + p1*p1",
             "label": "expr-2d", "x_box": 0.8},
            {"family": "expression", "n": 2, "k2": "p1*p1 + p2*p2", "constant_curvature": 0.0,
             "label": "euclid", "x_box": 1.0},
        ],
        "params": [
            {"label": "hyperbolic", "alpha": 1.0, "beta": 1.0, "c": -1.0},
            {"label": "alpha=1.5,beta=0.7,v=0.25", "alpha": 1.5, "beta": 0.7, "v": 0.25},
            {"label": "profiled", "alpha": 1.0, "beta": 1.0, "v": "0.1*0.5"},
            {"label": "alpha=1,beta=1,c=0", "alpha": 1.0, "beta": 1.0, "c": 0.0},
        ],
        "sampling": {"seed": 4, "count": 100, "p_norm": [0.5, 1.5]},
    }
    assert list(m.structure_configs) == m.document["structures"]
    assert [(s.label, s.dim, s.x_box) for s in m.structures] == [
        ("flat-2d", 2, 1.0),
        ("hyperbolic-3d", 3, 0.5),
        ("randers-2d", 2, 1.0),
        ("randers-curved-3d-c-1", 3, 0.9),
        ("expr-2d", 2, 0.8),
        ("euclid", 2, 1.0),
    ]


def test_expression_family_and_overrides():
    doc = _manifest_dict(
        structures=[
            {
                "family": "expression",
                "label": "aniso",
                "n": 2,
                "k2": "(1 + 0.5*x1*x1) * p2*p2 + p1*p1",
                "constant_curvature": None,
                "x_box": 0.5,
            }
        ]
    )
    m = parse_manifest(json.dumps(doc))
    s = m.structures[0]
    assert s.label == "aniso" and s.dim == 2 and s.x_box == 0.5
    assert s.k2([0.0, 0.0], [1.0, 2.0]) == pytest.approx(5.0)


def test_shipped_default_manifest_parses():
    m = load_manifest("manifests/default.json")
    assert len(m.structures) == 6 and len(m.params) == 4
    assert any(s.dim == 3 for s in m.structures)


# ---------------------------------------------------------------- verify


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_verify_report_schema_and_exit_zero(tmp_path, capsys):
    path = _write(tmp_path, _manifest_dict(count=4))
    code, out = _run(capsys, ["verify", "--manifest", path])
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"summary", "checks", "meta", "points"}
    assert report["meta"]["format"] == "cartanlab-report-v2"
    assert report["meta"]["manifest"]["sampling"]["count"] == 4
    summary = report["summary"]
    records = report["checks"]
    assert summary["total"] == len(records)
    assert summary["passed"] + summary["failed"] == summary["total"]
    assert summary["failed"] == 0
    keys = {"check_id", "structure", "point", "residual", "tolerance", "pass"}
    assert all(set(r) == keys and set(r["point"]) == {"index"} for r in records)
    # deterministic ordering: by check id, then structure tag, then point index
    order = [(r["check_id"], r["structure"], r["point"]["index"]) for r in records]
    assert order == sorted(order)
    # both scopes are present: bare structure tags and structure|params tags
    tags = {r["structure"] for r in records}
    assert any("|" in t for t in tags) and any("|" not in t for t in tags)
    # every record's point resolves in its scope's point table
    points = report["points"]
    assert set(points) == tags
    for r in records:
        point = points[r["structure"]][r["point"]["index"]]
        assert set(point) == {"x", "p"} and len(point["x"]) == len(point["p"])
    # the per-check summary counts the records
    by_check = summary["by_check"]
    assert set(by_check) == {r["check_id"] for r in records}
    assert sum(e["records"] for e in by_check.values()) == summary["total"]
    assert sum(e["failed"] for e in by_check.values()) == summary["failed"]
    for cid, entry in by_check.items():
        mine = [r for r in records if r["check_id"] == cid]
        assert entry["records"] == len(mine)
        assert entry["failed"] == sum(not r["pass"] for r in mine)
        assert entry["errored"] == sum(r["residual"] is None for r in mine)


def test_verify_is_deterministic_byte_for_byte(tmp_path, capsys):
    path = _write(tmp_path, _manifest_dict(count=4))
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["verify", "--manifest", path, "--out", str(out1)]) == 0
    assert main(["verify", "--manifest", path, "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_seed_override_changes_sample_points(tmp_path, capsys):
    path = _write(tmp_path, _manifest_dict(count=3))
    _, out_a = _run(capsys, ["verify", "--manifest", path, "--seed", "1"])
    _, out_b = _run(capsys, ["verify", "--manifest", path, "--seed", "2"])
    pts_a = json.loads(out_a)["points"]
    pts_b = json.loads(out_b)["points"]
    assert set(pts_a) == set(pts_b)
    assert all(pts_a[tag] != pts_b[tag] for tag in pts_a)
    assert json.loads(out_a)["meta"]["manifest"]["sampling"]["seed"] == 1


def _shrink_tolerances(monkeypatch, factor):
    from cartanlab import checks

    monkeypatch.setattr(checks, "TOLERANCES", {k: v * factor for k, v in checks.TOLERANCES.items()})


def test_verify_shrunk_tolerances_force_failures(tmp_path, capsys, monkeypatch):
    _shrink_tolerances(monkeypatch, 1e-12)
    doc = _manifest_dict(count=3, structures=[{"family": "flat", "n": 2}])
    path = _write(tmp_path, doc)
    code, out = _run(capsys, ["verify", "--manifest", path])
    assert code == 1
    report = json.loads(out)
    assert report["summary"]["failed"] > 0
    failed = [r for r in report["checks"] if not r["pass"]]
    assert all(r["residual"] is None or r["residual"] > r["tolerance"] for r in failed)


def test_verify_manifest_errors_exit_two(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["verify", "--manifest", missing]) == 2
    garbled = tmp_path / "bad.json"
    garbled.write_text("{not json")
    assert main(["verify", "--manifest", str(garbled)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("flag, value", [("--seed", "-1")])
def test_verify_bad_overrides_exit_two_without_report(tmp_path, capsys, flag, value):
    path = _write(tmp_path, _manifest_dict())
    out = tmp_path / "r.json"
    code = main(["verify", "--manifest", path, f"{flag}={value}", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and not out.exists()
    assert err.startswith("manifest error: ") and flag in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--tol-scale", "10"],
        ["verify", "--points", "5"],
        ["tensor", "--seed", "1", "--point", "0.1,0.2;0.7,0.4", "--objects", "g"],
    ],
    ids=["verify-tol-scale", "verify-points", "tensor-seed"],
)
def test_removed_options_are_usage_errors(tmp_path, capsys, argv):
    # the tolerances and the sample count have no run-time override, and
    # tensor samples nothing
    out = tmp_path / "r.json"
    with pytest.raises(SystemExit) as exit_:
        main([*argv, "--manifest", _write(tmp_path, _manifest_dict()), "--out", str(out)])
    assert exit_.value.code == 2 and not out.exists()
    assert "unrecognized arguments: " + argv[1] in capsys.readouterr().err


def _single_check_registry(monkeypatch, outcome, check_id=None):
    """Swap the registry for one check, ``check_id`` or else the first
    structure-scope one, whose runner raises ``outcome`` if it is an
    exception and returns it otherwise."""
    from dataclasses import replace

    from cartanlab import checks

    def runner(ctx, idx, pt):
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    spec = next(
        s for s in checks.REGISTRY if s.check_id == check_id or (check_id is None and s.scope == "structure")
    )
    monkeypatch.setattr(checks, "REGISTRY", (replace(spec, run=runner),))
    return spec.check_id


def test_verify_internal_fault_exits_three_without_report(tmp_path, capsys, monkeypatch):
    _single_check_registry(monkeypatch, TypeError("unsupported operand"))
    path = _write(tmp_path, _manifest_dict(count=2, structures=[{"family": "flat", "n": 2}]))
    code = main(["verify", "--manifest", path])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "internal error: TypeError" in captured.err


def test_verify_evaluation_error_is_a_failed_record(tmp_path, capsys, monkeypatch):
    from cartanlab.errors import EvaluationDomainError

    check_id = _single_check_registry(monkeypatch, EvaluationDomainError("outside the domain"))
    path = _write(tmp_path, _manifest_dict(count=2, structures=[{"family": "flat", "n": 2}]))
    code, out = _run(capsys, ["verify", "--manifest", path])
    assert code == 1
    records = json.loads(out)["checks"]
    assert [r["check_id"] for r in records] == [check_id, check_id]
    assert all(r["residual"] is None and r["pass"] is False for r in records)


def test_verify_error_record_names_its_exception(tmp_path, capsys, monkeypatch):
    from cartanlab.errors import ConditioningError

    check_id = _single_check_registry(monkeypatch, ConditioningError("pivot 1e-17"))
    path = _write(tmp_path, _manifest_dict(count=2, structures=[{"family": "flat", "n": 2}]))
    code, out = _run(capsys, ["verify", "--manifest", path])
    assert code == 1
    report = json.loads(out)
    assert all(r["error"] == "ConditioningError: pivot 1e-17" for r in report["checks"])
    entry = report["summary"]["by_check"][check_id]
    assert (entry["records"], entry["failed"], entry["errored"]) == (2, 2, 2)
    assert entry["worst_residual"] is None and entry["worst_margin"] is None


@pytest.mark.parametrize("residual", [float("nan"), float("inf")])
def test_non_finite_residual_is_an_error_record(monkeypatch, residual):
    check_id = _single_check_registry(monkeypatch, residual)
    m = parse_manifest(json.dumps(_manifest_dict(count=2, structures=[{"family": "flat", "n": 2}])))
    report = run_suite(m, only=[check_id])
    records = report["checks"]
    assert len(records) == 2
    for r in records:
        assert r["residual"] is None and r["pass"] is False
        assert r["error"] == f"EvaluationDomainError: non-finite residual {residual}"
    entry = report["summary"]["by_check"][check_id]
    assert (entry["errored"], entry["worst_residual"], entry["worst_margin"]) == (2, None, None)
    json.dumps(report, allow_nan=False)  # standard JSON: no NaN or Infinity


def test_zero_residual_detection_record_fails_with_a_null_margin(monkeypatch):
    # floor / 0 is an unbounded margin: the record fails, and the summary
    # stays standard JSON with a null margin beside the residual 0
    check_id = _single_check_registry(monkeypatch, 0.0, "kahler.nijenhuis_detects_mismatch")
    m = parse_manifest(json.dumps(_manifest_dict(count=2)))
    report = run_suite(m, only=[check_id])
    records = report["checks"]
    assert records and all(r["residual"] == 0.0 and r["pass"] is False for r in records)
    entry = report["summary"]["by_check"][check_id]
    assert entry["failed"] == len(records)
    assert (entry["worst_residual"], entry["worst_margin"]) == (0.0, None)
    json.dumps(report, allow_nan=False)  # standard JSON: no NaN or Infinity


def test_verify_margins_say_which_records_pass(tmp_path, capsys, monkeypatch):
    # tolerances shrunk a millionfold fail some bound checks; detection
    # checks keep their floors.  A record passes exactly when its margin is
    # at most 1.
    from cartanlab.checks import REGISTRY

    _shrink_tolerances(monkeypatch, 1e-6)
    path = _write(tmp_path, _manifest_dict(count=3))
    code, out = _run(capsys, ["verify", "--manifest", path])
    assert code == 1
    report = json.loads(out)
    modes = {spec.check_id: spec.mode for spec in REGISTRY}
    assert "exceeds" in {modes[cid] for cid in report["summary"]["by_check"]}
    worst = {}
    for r in report["checks"]:
        assert r["residual"] is not None
        res, tol = r["residual"], r["tolerance"]
        margin = res / tol if modes[r["check_id"]] == "bound" else tol / res
        assert (margin <= 1.0) == r["pass"]
        if margin >= worst.get(r["check_id"], (-1.0,))[0]:
            worst[r["check_id"]] = (margin, res)
    by_check = report["summary"]["by_check"]
    assert any(entry["failed"] for entry in by_check.values())
    for cid, entry in by_check.items():
        assert entry["anchor"] == next(s.anchor for s in REGISTRY if s.check_id == cid)
        assert (entry["worst_margin"], entry["worst_residual"]) == worst[cid]
        assert (entry["worst_margin"] > 1.0) == (entry["failed"] > 0)


def test_verify_report_has_one_record_per_line(tmp_path, capsys):
    path = _write(tmp_path, _manifest_dict(count=2))
    out = tmp_path / "r.json"
    assert main(["verify", "--manifest", path, "--out", str(out)]) == 0
    capsys.readouterr()
    text = out.read_text()
    report = json.loads(text)
    lines = text.splitlines()
    first = lines.index('"checks": [') + 1
    rows = lines[first:first + len(report["checks"])]
    assert [json.loads(row.rstrip(",")) for row in rows] == report["checks"]
    assert lines[first + len(report["checks"])] == "],"


# ---------------------------------------------------------------- tensor


def test_tensor_flat_metric_spot_value(tmp_path, capsys):
    path = _write(tmp_path, _manifest_dict())
    code, out = _run(
        capsys,
        [
            "tensor",
            "--manifest", path,
            "--structure", "flat-2d",
            "--params", "flat-gauge",
            "--point", "0.1,0.2;0.7,0.4",
            "--objects", "g,G,theta,ricci",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    meta = doc["meta"]
    assert meta["structure"] == "flat-2d" and meta["params"] == "flat-gauge"
    assert meta["format"] == "cartanlab-tensor-v1"
    # flat Hamiltonian, c = 0, beta = 2: horizontal block g/beta = I/2,
    # vertical block beta*g^inv = 2I
    n = 2
    g_down = np.asarray(doc["objects"]["G"]["G_down"])
    g_up_block = np.asarray(doc["objects"]["G"]["G_up"])
    assert np.abs(g_down - 0.5 * np.eye(n)).max() <= 1e-12
    assert np.abs(g_up_block - 2.0 * np.eye(n)).max() <= 1e-12
    theta = np.asarray(doc["objects"]["theta"]["matrix"])
    canon = np.block(
        [[np.zeros((n, n)), -np.eye(n)], [np.eye(n), np.zeros((n, n))]]
    )
    assert np.abs(theta - canon).max() == 0.0
    assert doc["objects"]["ricci"]["lambda_hat"] == pytest.approx(0.0, abs=1e-9)
    g_up = np.asarray(doc["objects"]["g"]["g_up"])
    assert np.abs(g_up - np.eye(n)).max() <= 1e-12
    # every reported object carries a formula anchor
    for obj in doc["objects"].values():
        assert isinstance(obj["anchor"], str) and obj["anchor"]


def test_tensor_rejects_bad_requests(tmp_path, capsys):
    path = _write(tmp_path, _manifest_dict())
    base = ["tensor", "--manifest", path, "--structure", "flat-2d",
            "--params", "flat-gauge"]
    assert main(base + ["--point", "0.1,0.2;0.7", "--objects", "g"]) == 2
    assert main(base + ["--point", "0.1,0.2;0.7,0.4", "--objects", "zeta"]) == 2
    assert main(["tensor", "--manifest", path, "--structure", "missing",
                 "--params", "flat-gauge", "--point", "0;1,1",
                 "--objects", "g"]) == 2
    capsys.readouterr()


def test_tensor_objects_carry_their_table_anchor(tmp_path, capsys):
    from cartanlab.cli import TENSORS
    from cartanlab.formulas import INDEX

    path = _write(tmp_path, _manifest_dict())
    code, out = _run(capsys, ["tensor", "--manifest", path, "--structure", "conformal-2d-c-1",
                              "--params", "hyperbolic", "--point", "0.1,0.2;0.7,0.4",
                              "--objects", ",".join(TENSORS)])
    assert code == 0
    objects = json.loads(out)["objects"]
    assert {name: obj["anchor"] for name, obj in objects.items()} == {
        name: anchor for name, (anchor, _build) in TENSORS.items()
    }
    assert all(anchor in INDEX for anchor, _build in TENSORS.values())


def test_tensor_base_objects_need_no_positive_bundle_metric(tmp_path, capsys):
    # spherical gauge alpha + 2 tau v = 1 - 2 tau < 0 at tau = 4: the base
    # tensors are still defined, the deformed metric is not
    doc = _manifest_dict()
    doc["params"].append({"label": "spherical", "alpha": 1.0, "beta": 1.0, "c": 1.0})
    path = _write(tmp_path, doc)
    base = ["tensor", "--manifest", path, "--structure", "flat-2d", "--params", "spherical",
            "--point", "0.1,0.2;2,2", "--objects"]
    code, out = _run(capsys, base + ["g,C,N,B,L"])
    assert code == 0 and sorted(json.loads(out)["objects"]) == ["B", "C", "L", "N", "g"]
    assert main(base + ["g,G"]) == 3
    assert "loses positivity" in capsys.readouterr().err


def test_tensor_non_finite_value_exits_three_without_document(tmp_path, capsys, monkeypatch):
    # a NaN planted in Ricci's lambda_hat: the document is refused, not
    # written with a NaN in it
    ricci_data = levicivita._ricci_data
    monkeypatch.setattr(
        levicivita, "_ricci_data",
        lambda *a: dataclasses.replace(ricci_data(*a), lambda_hat=math.nan),
    )
    path = _write(tmp_path, _manifest_dict())
    out = tmp_path / "t.json"
    code = main(["tensor", "--manifest", path, "--structure", "conformal-2d-c-1",
                 "--params", "hyperbolic", "--point=0.1,0.2;0.5,0.5",
                 "--objects", "g,ricci", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3 and not out.exists()
    assert err.startswith("evaluation error: object 'ricci' has a non-finite value")


@pytest.mark.parametrize("p", ["1", "1e76", "1e78", "1e150"])
def test_tensor_einstein_factor_stays_finite_at_large_momenta(tmp_path, capsys, p):
    # lambda_hat = sum(Ric G) / sum(G G) with both sums scaled by max|G|:
    # unscaled, sum(G G) overflowed from |p| ~ 1e78 on
    path = _write(tmp_path, _manifest_dict())
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        code, out = _run(capsys, ["tensor", "--manifest", path, "--structure", "conformal-2d-c-1",
                                  "--params", "hyperbolic", f"--point=0.1,0.2;{p},{p}",
                                  "--objects", "ricci"])
    assert code == 0
    got = json.loads(out)["objects"]["ricci"]
    assert got["lambda_hat"] == pytest.approx(-2.0, abs=1e-12)  # c n beta
    assert got["defect"] <= 1e-12 * max(1.0, float(p) ** 2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_tensor_overflowing_point_is_one_typed_error_without_warnings(tmp_path, capsys):
    # K^2 overflows at |p| ~ 1e155: the typed error is the whole output,
    # with no numpy warning from the jet products or the point's guards
    path = _write(tmp_path, _manifest_dict())
    out = tmp_path / "t.json"
    code = main(["tensor", "--manifest", path, "--structure", "conformal-2d-c-1",
                 "--params", "hyperbolic", "--point=0.1,0.2;1e155,1e155",
                 "--objects", "g,ricci", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 3 and not out.exists() and captured.out == ""
    assert captured.err == (
        "evaluation error: non-finite jet coefficients at "
        "ChartPoint(x=[0.1, 0.2], p=[1e+155, 1e+155])\n"
    )


@pytest.mark.parametrize(
    "expr, point, message",
    [
        ("exp(x1*p1*p1) * (p1*p1 + p2*p2)", "0.9,0.1;30,0.5", "exp of 810.0 overflows"),
        ("pow(p1*p1 + p2*p2, 1.5) / sqrt(p1*p1 + p2*p2)", "0.9,0.1;1e120,0.5",
         "power 1.5 of 1e+240 overflows"),
        ("p1*p1 + p2*p2 + 0.001*log(x2*x2 + 1e-300)", "0.1,1e-170;0.5,0.5",
         "log of 1e-300: its Taylor terms overflow"),
    ],
    ids=["exp", "power", "log-underflow"],
)
def test_tensor_overflowing_primitive_is_one_typed_error(tmp_path, capsys, expr, point, message):
    # an exp or real power past the float range is an evaluation error, not
    # an internal fault
    doc = _manifest_dict(structures=[{"family": "expression", "n": 2, "label": "big", "k2": expr}])
    path = _write(tmp_path, doc)
    out = tmp_path / "t.json"
    code = main(["tensor", "--manifest", path, "--structure", "big", "--params", "flat-gauge",
                 f"--point={point}", "--objects", "g", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 3 and not out.exists() and captured.out == ""
    assert captured.err == f"evaluation error: {message}\n"


EXP_K2 = {"family": "expression", "n": 2, "label": "exp-k2", "k2": "exp(600*x1*p1) * (p1*p1 + p2*p2)"}


def test_tensor_overflowing_inverse_metric_jet_is_one_typed_error(tmp_path, capsys):
    # K^2 = 3.6e-305 here: the jet of g_ij overflows, and its own guard
    # names the point before B reads it, with no numpy warning
    path = _write(tmp_path, _manifest_dict(structures=[EXP_K2]))
    out = tmp_path / "t.json"
    code = main(["tensor", "--manifest", path, "--params", "flat-gauge", "--point=0.75,0.5;-1.56,0.5",
                 "--objects", "B", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 3 and not out.exists() and captured.out == ""
    assert captured.err == (
        "evaluation error: the jet of the inverse fundamental tensor g_ij overflows at "
        "ChartPoint(x=[0.75, 0.5], p=[-1.56, 0.5])\n"
    )


def test_verify_keeps_a_pair_scope_point_whose_k2_overflows(tmp_path, capsys):
    # the tube test of pair-scope point 30 evaluates an overflowing K^2:
    # that point's records carry the error and the run writes its report
    doc = {
        "structures": [EXP_K2],
        "params": [{"label": "flat-gauge", "alpha": 1.0, "beta": 2.0, "c": 0.0}],
        "sampling": {"count": 100},
    }
    out = tmp_path / "report.json"
    code = main(["verify", "--manifest", _write(tmp_path, doc), "--out", str(out)])
    assert code == 1 and capsys.readouterr().err == ""
    records = json.loads(out.read_text())["checks"]
    overflowed = [r for r in records if r.get("error") == "EvaluationDomainError: exp of 833.2453539495955 overflows"]
    assert {(r["structure"], r["point"]["index"]) for r in overflowed} == {("exp-k2|flat-gauge", 30)}
    assert sorted(r["check_id"] for r in overflowed) == [
        "kahler.hermitian", "kahler.j_squared", "kahler.positive_definite", "kahler.theta_canonical",
    ]


def test_a_constant_profile_runs_the_same_checks_written_as_c_or_v():
    # v = -c alpha beta^2: both spellings are the matching profile of c = -1
    def records(profile):
        doc = _manifest_dict(count=8, structures=[{"family": "riemannian_conformal", "n": 2, "c": -1.0}],
                             params=[{"label": "hyperbolic", **profile}])
        doc["sampling"]["seed"] = 0
        report = run_suite(parse_manifest(json.dumps(doc)))
        return [(r["check_id"], r["point"], r["residual"]) for r in report["checks"]]

    as_c, as_v = records({"c": -1.0}), records({"v": 1.0})
    assert len(as_c) == 235 and as_v == as_c
    assert {"levicivita.koszul_agreement", "kahler.nijenhuis_integrable"} <= {cid for cid, *_ in as_v}


def test_an_untyped_fault_at_a_tube_probe_point_exits_three(tmp_path, capsys, monkeypatch):
    # only a typed error skips a probe point of the feasibility check; any
    # other exception is an internal fault, not an infeasible manifest
    def fault(self, x, p):
        raise RuntimeError("planted")

    monkeypatch.setattr(CartanStructure, "k2_values", fault)
    code = main(["verify", "--manifest", _write(tmp_path, _manifest_dict())])
    err = capsys.readouterr().err
    assert code == 3 and err == "internal error: RuntimeError: planted\n"


def test_tensor_log_past_the_float_range_of_its_taylor_powers_is_finite(tmp_path, capsys):
    # f0**k of the log's Taylor terms overflows at |p| ~ 1e31 while the terms
    # themselves are finite
    doc = _manifest_dict(structures=[{"family": "expression", "n": 2, "label": "log-k2",
                                      "k2": "log(1 + p1*p1 + p2*p2) + p1*p1 + p2*p2"}])
    path = _write(tmp_path, doc)
    out = tmp_path / "t.json"
    code = main(["tensor", "--manifest", path, "--structure", "log-k2", "--params", "flat-gauge",
                 "--point=0.9,0.1;1e31,0.5", "--objects", "g", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    g = json.loads(out.read_text())["objects"]["g"]
    assert all(np.isfinite(np.asarray(g[key])).all() for key in ("g_down", "g_up"))


@pytest.mark.parametrize(
    "k2, message",
    [
        ("(p1*p1 + p2*p2) ** (1 + 0*x1)", "the exponent of ** must not read a variable"),
        ("pow(p1*p1 + p2*p2)", "pow takes 2 argument(s), got 1"),
    ],
    ids=["variable-exponent", "pow-arity"],
)
def test_tensor_grammar_violation_is_one_manifest_error(tmp_path, capsys, k2, message):
    doc = _manifest_dict(structures=[{"family": "expression", "n": 2, "label": "bad", "k2": k2}])
    path = _write(tmp_path, doc)
    out = tmp_path / "t.json"
    code = main(["tensor", "--manifest", path, "--structure", "bad", "--params", "flat-gauge",
                 "--point=0.1,0.1;0.5,0.5", "--objects", "g", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and not out.exists() and captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("manifest error: ")
    assert message in captured.err


@pytest.mark.parametrize("point", ["nan,0.1;0.5,0.5", "0.1,0.1;inf,0.5", "0.1,0.1;0,0"])
def test_tensor_rejects_non_finite_or_zero_momentum_point(tmp_path, capsys, point):
    path = _write(tmp_path, _manifest_dict())
    out = tmp_path / "t.json"
    code = main(["tensor", "--manifest", path, "--structure", "conformal-2d-c-1",
                 "--params", "hyperbolic", f"--point={point}", "--objects", "g,ricci",
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and not out.exists()
    assert err.startswith("manifest error: --point")


def test_tensor_rejects_inadmissible_point(tmp_path, capsys):
    path = _write(tmp_path, _manifest_dict())
    code = main(
        [
            "tensor",
            "--manifest", path,
            "--structure", "conformal-2d-c-1",
            "--params", "hyperbolic",
            "--point", "2.0,2.0;1.0,0.0",
            "--objects", "g",
        ]
    )
    assert code == 2
    capsys.readouterr()
