"""Manifest parsing and validation for the batch verification front end.

A manifest is a UTF-8 JSON document with top-level keys ``structures``,
``params``, ``sampling``, ``tolerances``.  Only ``structures`` is
required; everything else gets documented defaults.  Schema::

    {
      "structures": [           # one entry per Hamiltonian structure
        {"family": "flat",                  "n": 2},
        {"family": "riemannian_conformal",  "n": 2, "c": -1.0},
        {"family": "randers", "n": 2, "c": 0.0, "drift": 0.3},
        {"family": "expression", "n": 2, "k2": "p1*p1 + p2*p2",
         "constant_curvature": 0.0}
      ],                        # each also accepts "label" and "x_box"
      "params": [               # deformation constants; default one entry
        {"alpha": 1.0, "beta": 1.0, "c": -1.0},      # v = -c alpha beta^2
        {"alpha": 1.0, "beta": 1.0, "v": "0.5*tau"}  # or a profile in tau
      ],                        # each also accepts "label"
      "sampling":   {"seed": 0, "count": 100, "p_norm": [0.5, 2.0]},
      "tolerances": {"jet_exact": 1e-9, "fd_single": 1e-5,
                     "fd_double": 1e-3}
    }

Validation rejects unknown keys (with the offending path), duplicate
structure or params labels, non-positive sampling ranges, tolerances
below machine epsilon, and structure/params pairings whose sampling
region cannot stay inside the positivity tube ``2 tau < 1/(c beta^2)``
(anchor ``positivity-tube`` in :mod:`cartanlab.formulas`).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .cartan import (
    CartanStructure,
    conformal_structure,
    expression_structure,
    flat_structure,
    randers_dual,
)
from .errors import CartanLabError, ManifestError
from .jets import ChartPoint
from .kahler import DeformationParams

__all__ = [
    "DEFAULT_SAMPLING",
    "DEFAULT_TOLERANCES",
    "Manifest",
    "SamplingSpec",
    "TOLERANCE_CATEGORIES",
    "build_structure",
    "load_manifest",
    "parse_manifest",
    "with_overrides",
]

TOLERANCE_CATEGORIES = ("jet_exact", "fd_single", "fd_double")
DEFAULT_TOLERANCES = {"jet_exact": 1e-9, "fd_single": 1e-5, "fd_double": 1e-3}
DEFAULT_SAMPLING = {"seed": 0, "count": 100, "p_norm": (0.5, 2.0)}

_EPS = float(np.finfo(float).eps)
_FAMILIES = ("flat", "riemannian_conformal", "randers", "expression")
# margin used by kahler.tube_predicate: alpha + 2 tau v >= 0.2 alpha
_GAUGE_MARGIN = 0.2


@dataclass(frozen=True)
class SamplingSpec:
    seed: int
    count: int
    p_norm: tuple

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "count": self.count,
            "p_norm": [self.p_norm[0], self.p_norm[1]],
        }


@dataclass(frozen=True)
class Manifest:
    """Validated manifest: built structures and params plus the
    normalized document (``echo``) for report reproducibility."""

    structures: tuple  # CartanStructure, parallel to structure_configs
    structure_configs: tuple  # normalized per-structure dicts
    params: tuple  # DeformationParams, parallel to param_labels
    param_labels: tuple
    sampling: SamplingSpec
    tolerances: Mapping[str, float]
    echo: dict


# ---------------------------------------------------------------------------
# low-level validators


def _fail(path: str, message: str) -> None:
    raise ManifestError(f"{path}: {message}")


def _check_keys(obj: dict, path: str, allowed: Sequence[str], required: Sequence[str] = ()) -> None:
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        _fail(path, f"unknown key(s) {unknown}; allowed keys: {sorted(allowed)}")
    missing = sorted(set(required) - set(obj))
    if missing:
        _fail(path, f"missing required key(s) {missing}")


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    out = float(value)
    if not np.isfinite(out):
        _fail(path, f"expected a finite number, got {value!r}")
    return out


def _as_int(value, path: str, minimum: Optional[int] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        _fail(path, f"expected an integer >= {minimum}, got {value}")
    return int(value)


def _as_str(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        _fail(path, f"expected a non-empty string, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# structure construction


def _conformal_matrix_fn(n: int, c: float) -> Callable:
    def a_fn(xs):
        r2 = None
        for q in xs:
            t = q * q
            r2 = t if r2 is None else r2 + t
        phi = 1.0 + (c / 4.0) * r2
        w = 1.0 / (phi * phi)
        return [[w if i == j else 0.0 for j in range(n)] for i in range(n)]

    return a_fn


def _drift_vector(drift, n: int, path: str) -> np.ndarray:
    if isinstance(drift, (int, float)) and not isinstance(drift, bool):
        vec = np.zeros(n)
        vec[0] = float(drift)
        return vec
    if isinstance(drift, list):
        if len(drift) != n:
            _fail(path, f"drift list must have length n={n}, got {len(drift)}")
        return np.array([_as_number(d, f"{path}[{i}]") for i, d in enumerate(drift)])
    _fail(path, f"expected a number or list of {n} numbers, got {drift!r}")


def build_structure(config: Mapping, path: str = "structure", drift_scale: float = 1.0) -> CartanStructure:
    """Instantiate the structure described by a normalized config dict.

    ``drift_scale`` rescales the drift of a Randers-family entry (used by
    the zero-drift degeneration check); it is ignored by other families.
    """
    family = config["family"]
    n = config.get("n", 2)
    label = config.get("label")
    x_box = config.get("x_box")
    try:
        if family == "flat":
            s = flat_structure(n)
        elif family == "riemannian_conformal":
            s = conformal_structure(n, config["c"])
        elif family == "randers":
            c = config.get("c", 0.0)
            drift = _drift_vector(config.get("drift", 0.3), n, f"{path}.drift") * drift_scale
            if c == 0.0:
                s = randers_dual(b_up=drift, n=n, x_box=x_box or 1.0)
                s = dataclasses.replace(s, label=f"randers-{n}d")
            else:
                s = randers_dual(
                    a_down=_conformal_matrix_fn(n, c),
                    b_up=drift,
                    n=n,
                    x_box=x_box or 0.9,
                    label=f"randers-curved-{n}d-c{c:+g}",
                )
        elif family == "expression":
            s = expression_structure(
                n,
                config["k2"],
                x_box=x_box or 1.0,
                constant_curvature=config.get("constant_curvature"),
            )
        else:  # pragma: no cover - guarded by _check_keys caller
            _fail(path, f"unknown family {family!r}")
    except ManifestError:
        raise
    except (CartanLabError, ValueError) as exc:
        _fail(path, f"cannot build {family} structure: {exc}")
    if label is not None:
        s = dataclasses.replace(s, label=label)
    if x_box is not None and family in ("flat", "riemannian_conformal"):
        s = dataclasses.replace(s, x_box=float(x_box))
    return s


def _parse_structure(entry, index: int):
    path = f"structures[{index}]"
    _check_keys(
        entry,
        path,
        allowed=("family", "label", "n", "x_box", "c", "drift", "k2", "constant_curvature"),
        required=("family",),
    )
    family = _as_str(entry["family"], f"{path}.family")
    if family not in _FAMILIES:
        _fail(f"{path}.family", f"unknown family {family!r}; choose one of {list(_FAMILIES)}")
    config = {"family": family}
    if "n" in entry:
        config["n"] = _as_int(entry["n"], f"{path}.n", minimum=2)
    if "label" in entry:
        config["label"] = _as_str(entry["label"], f"{path}.label")
    if "x_box" in entry:
        box = _as_number(entry["x_box"], f"{path}.x_box")
        if box <= 0:
            _fail(f"{path}.x_box", f"chart box must be positive, got {box}")
        config["x_box"] = box
    for key in ("c", "drift", "k2", "constant_curvature"):
        if key not in entry:
            continue
        owners = {
            "c": ("riemannian_conformal", "randers"),
            "drift": ("randers",),
            "k2": ("expression",),
            "constant_curvature": ("expression",),
        }[key]
        if family not in owners:
            _fail(f"{path}.{key}", f"key {key!r} only applies to families {list(owners)}")
    if family == "riemannian_conformal":
        if "c" not in entry:
            _fail(path, "riemannian_conformal requires key 'c' (base sectional curvature)")
        config["c"] = _as_number(entry["c"], f"{path}.c")
    if family == "randers":
        if "c" in entry:
            config["c"] = _as_number(entry["c"], f"{path}.c")
        if "drift" in entry:
            config["drift"] = entry["drift"]
    if family == "expression":
        if "k2" not in entry:
            _fail(path, "expression requires key 'k2' (formula over x1..xn, p1..pn)")
        config["k2"] = _as_str(entry["k2"], f"{path}.k2")
        if "constant_curvature" in entry and entry["constant_curvature"] is not None:
            config["constant_curvature"] = _as_number(
                entry["constant_curvature"], f"{path}.constant_curvature"
            )
    structure = build_structure(config, path)
    config["label"] = structure.label
    config.setdefault("n", structure.dim)
    config.setdefault("x_box", structure.x_box)
    return structure, config


def _parse_params(entry, index: int):
    path = f"params[{index}]"
    _check_keys(entry, path, allowed=("label", "alpha", "beta", "c", "v"))
    kwargs = {}
    if "alpha" in entry:
        kwargs["alpha"] = _as_number(entry["alpha"], f"{path}.alpha")
    if "beta" in entry:
        kwargs["beta"] = _as_number(entry["beta"], f"{path}.beta")
    if "c" in entry:
        kwargs["c"] = _as_number(entry["c"], f"{path}.c")
    if "v" in entry:
        v = entry["v"]
        if isinstance(v, bool) or not isinstance(v, (int, float, str)):
            _fail(f"{path}.v", f"expected a number or expression string, got {v!r}")
        kwargs["v"] = v
    try:
        params = DeformationParams(**kwargs)
    except (ValueError, CartanLabError) as exc:
        _fail(path, str(exc))
    label = entry.get("label")
    if label is not None:
        label = _as_str(label, f"{path}.label")
    else:
        label = params.describe()
    echo = {"label": label, "alpha": params.alpha, "beta": params.beta}
    if params.c is not None or params.v is None:
        echo["c"] = params.c if params.c is not None else 0.0
    else:
        echo["v"] = params.v if isinstance(params.v, (int, float, str)) else "<callable>"
    return params, label, echo


def _parse_sampling(entry) -> SamplingSpec:
    path = "sampling"
    _check_keys(entry, path, allowed=("seed", "count", "p_norm"))
    seed = _as_int(entry.get("seed", DEFAULT_SAMPLING["seed"]), f"{path}.seed", minimum=0)
    count = _as_int(entry.get("count", DEFAULT_SAMPLING["count"]), f"{path}.count", minimum=1)
    p_norm = entry.get("p_norm", list(DEFAULT_SAMPLING["p_norm"]))
    if not isinstance(p_norm, (list, tuple)) or len(p_norm) != 2:
        _fail(f"{path}.p_norm", f"expected [low, high], got {p_norm!r}")
    lo = _as_number(p_norm[0], f"{path}.p_norm[0]")
    hi = _as_number(p_norm[1], f"{path}.p_norm[1]")
    if not (0 < lo <= hi):
        _fail(f"{path}.p_norm", f"need 0 < low <= high, got [{lo}, {hi}]")
    return SamplingSpec(seed=seed, count=count, p_norm=(lo, hi))


def _parse_tolerances(entry) -> dict:
    path = "tolerances"
    _check_keys(entry, path, allowed=TOLERANCE_CATEGORIES)
    out = dict(DEFAULT_TOLERANCES)
    for key in TOLERANCE_CATEGORIES:
        if key not in entry:
            continue
        value = _as_number(entry[key], f"{path}.{key}")
        if value < _EPS:
            _fail(f"{path}.{key}", f"tolerance {value!r} is below machine epsilon {_EPS:.3e}")
        out[key] = value
    return out


# ---------------------------------------------------------------------------
# tube feasibility


def _probe_points(s: CartanStructure, p_low: float):
    n = s.dim
    xs = [np.zeros(n)]
    for i in range(n):
        for sign in (-1.0, 1.0):
            e = np.zeros(n)
            e[i] = sign * s.x_box
            xs.append(e)
    xs.append(np.full(n, 0.6 * s.x_box))
    ps = [np.eye(n)[i] for i in range(n)]
    ps.append(np.full(n, 1.0 / np.sqrt(n)))
    for x in xs:
        for phat in ps:
            yield ChartPoint(x, p_low * phat)


def _check_tube_feasibility(s: CartanStructure, params: DeformationParams, label: str, sampling: SamplingSpec) -> None:
    """Reject pairings whose whole sampling region violates the
    positive-definiteness gauge alpha + 2 tau v(tau) > 0 (for constant
    c > 0 this is the tube 2 tau < 1/(c beta^2))."""
    best_margin = None
    least_2tau = None
    for pt in _probe_points(s, sampling.p_norm[0]):
        if not s.admissible(pt):
            continue
        try:
            k2 = s.k2_values(pt.x, pt.p)
        except Exception:
            continue
        if not (k2 > 0 and np.isfinite(k2)):
            continue
        tau = 0.5 * k2
        least_2tau = k2 if least_2tau is None else min(least_2tau, k2)
        try:
            v = float(params.v_at(tau))
        except Exception:
            continue
        margin = (params.alpha + 2.0 * tau * v) - _GAUGE_MARGIN * params.alpha
        best_margin = margin if best_margin is None else max(best_margin, margin)
    if best_margin is None:
        _fail(
            "structures",
            f"structure '{s.label}' has no evaluable probe point (K^2 must be "
            f"positive and finite somewhere in the chart box)",
        )
    if best_margin < 0:
        c = params.c
        if c is not None and c > 0:
            bound = 1.0 / (c * params.beta**2)
            _fail(
                "sampling",
                f"structure '{s.label}' with params '{label}': the sampling "
                f"region exits the positivity tube 2*tau < 1/(c*beta^2): the "
                f"smallest reachable 2*tau ~ {least_2tau:.4g} already exceeds "
                f"the tube bound {bound:.4g} (with margin); lower beta or c, "
                f"shrink p_norm, or drop this pairing",
            )
        _fail(
            "sampling",
            f"structure '{s.label}' with params '{label}': no probe point "
            f"satisfies the positivity gauge alpha + 2*tau*v(tau) > "
            f"{_GAUGE_MARGIN:g}*alpha; the deformation profile makes the "
            f"bundle metric indefinite on the whole sampling region",
        )


# ---------------------------------------------------------------------------
# entry points


def parse_manifest(text: str) -> Manifest:
    """Parse and validate a manifest document; raises ManifestError with a
    path diagnostic on any schema violation."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ManifestError(f"manifest is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ManifestError(f"top level: expected an object, got {type(doc).__name__}")
    _check_keys(
        doc,
        "top level",
        allowed=("structures", "params", "sampling", "tolerances"),
        required=("structures",),
    )

    raw_structures = doc["structures"]
    if not isinstance(raw_structures, list) or not raw_structures:
        _fail("structures", "expected a non-empty list")
    structures, configs = [], []
    for i, entry in enumerate(raw_structures):
        s, config = _parse_structure(entry, i)
        structures.append(s)
        configs.append(config)
    labels = [s.label for s in structures]
    dupes = sorted({l for l in labels if labels.count(l) > 1})
    if dupes:
        _fail("structures", f"duplicate structure label(s) {dupes}; give distinct 'label' keys")

    raw_params = doc.get("params", [{}])
    if not isinstance(raw_params, list) or not raw_params:
        _fail("params", "expected a non-empty list")
    params, param_labels, param_echos = [], [], []
    for i, entry in enumerate(raw_params):
        p, label, echo = _parse_params(entry, i)
        params.append(p)
        param_labels.append(label)
        param_echos.append(echo)
    dupes = sorted({l for l in param_labels if param_labels.count(l) > 1})
    if dupes:
        _fail("params", f"duplicate params label(s) {dupes}; give distinct 'label' keys")

    sampling = _parse_sampling(doc.get("sampling", {}))
    tolerances = _parse_tolerances(doc.get("tolerances", {}))

    for s in structures:
        for p, label in zip(params, param_labels):
            _check_tube_feasibility(s, p, label, sampling)

    echo = {
        "structures": configs,
        "params": param_echos,
        "sampling": sampling.as_dict(),
        "tolerances": dict(tolerances),
    }
    return Manifest(
        structures=tuple(structures),
        structure_configs=tuple(configs),
        params=tuple(params),
        param_labels=tuple(param_labels),
        sampling=sampling,
        tolerances=tolerances,
        echo=echo,
    )


def load_manifest(path: str) -> Manifest:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ManifestError(f"cannot read manifest {path!r}: {exc}") from None
    return parse_manifest(text)


def with_overrides(
    m: Manifest,
    seed: Optional[int] = None,
    count: Optional[int] = None,
    tol_scale: Optional[float] = None,
) -> Manifest:
    """Apply command-line overrides, returning a new Manifest whose echo
    reflects the effective configuration.  Each override is validated as its
    manifest key is; a bad one raises ManifestError."""
    sampling = m.sampling
    if seed is not None or count is not None:
        sampling = SamplingSpec(
            seed=sampling.seed if seed is None else _as_int(seed, "--seed", minimum=0),
            count=sampling.count if count is None else _as_int(count, "--points", minimum=1),
            p_norm=sampling.p_norm,
        )
    tolerances = dict(m.tolerances)
    if tol_scale is not None:
        tol_scale = _as_number(tol_scale, "--tol-scale")
        if tol_scale <= 0:
            _fail("--tol-scale", f"must be positive, got {tol_scale}")
        tolerances = {k: max(v * tol_scale, _EPS) for k, v in tolerances.items()}
    echo = dict(m.echo)
    echo["sampling"] = sampling.as_dict()
    echo["tolerances"] = dict(tolerances)
    return dataclasses.replace(
        m, sampling=sampling, tolerances=tolerances, echo=echo
    )
