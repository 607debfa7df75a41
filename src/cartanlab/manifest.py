"""Manifest parsing and validation for the batch verification front end.

A manifest is a UTF-8 JSON document with top-level keys ``structures``,
``params`` and ``sampling``.  Only ``structures`` is required; everything
else gets documented defaults.  Schema::

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
        {"alpha": 1.0, "beta": 1.0, "v": "0.25"}     # or a constant expression
      ],                        # each also accepts "label"
      "sampling": {"seed": 0, "count": 100, "p_norm": [0.5, 2.0]}
    }

Each structure family (its own keys with their parsers, its required keys,
its default chart box and its builder) is declared once, in ``_FAMILIES``.
Every numeric value must be finite.  Validation rejects unknown keys (with
the offending path), duplicate structure or params labels, non-positive
sampling ranges, a profile ``v`` that reads ``tau`` (the closed connection
and curvature take v constant), and structure/params pairings whose
sampling region cannot stay inside the positivity tube
``2 tau < 1/(c beta^2)`` (anchor ``positivity-tube`` in
:mod:`cartanlab.formulas`).  The tolerances are the check registry's
(``checks.TOLERANCES``); no manifest key or option changes them.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .cartan import (
    DEFAULT_P_NORM,
    CartanStructure,
    chart_box_probes,
    conformal_structure,
    expression_structure,
    flat_structure,
    randers_dual,
)
from .errors import CartanLabError, ManifestError
from .jets import ChartPoint
from .kahler import TUBE_MARGIN, DeformationParams, tube_predicate

__all__ = [
    "DEFAULT_SAMPLING",
    "Manifest",
    "SamplingSpec",
    "build_structure",
    "drift_vector",
    "load_manifest",
    "parse_manifest",
    "with_seed",
]

DEFAULT_SAMPLING = {"seed": 0, "count": 100, "p_norm": DEFAULT_P_NORM}


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


def _as_drift(value, path: str, n: int):
    """A Randers drift: a finite number or a list of n finite numbers."""
    if isinstance(value, list):
        if len(value) != n:
            _fail(path, f"drift list must have length n={n}, got {len(value)}")
        return [_as_number(d, f"{path}[{i}]") for i, d in enumerate(value)]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number or list of {n} numbers, got {value!r}")
    return _as_number(value, path)


def drift_vector(config: Mapping) -> np.ndarray:
    """The drift b^i of a Randers config (0.3 if absent); a number is along x1."""
    drift = config.get("drift", 0.3)
    b = np.zeros(config.get("n", 2))
    b[: np.size(drift)] = drift
    return b


def _randers(config: Mapping, n: int, x_box: float) -> CartanStructure:
    c = config.get("c", 0.0)
    return randers_dual(
        a_down=_conformal_matrix_fn(n, c) if c else None,
        b_up=drift_vector(config),
        n=n,
        x_box=x_box,
        label=f"randers-curved-{n}d-c{c:+g}" if c else None,
    )


@dataclass(frozen=True)
class _Family:
    """A structure family: ``build(config, n, x_box)`` makes and names the
    structure (a config ``label`` overrides the name), ``x_box(config)`` is
    the default chart box, ``keys`` maps each key of the family's own to its
    ``parse(value, path, n)`` (a parsed None leaves the key out), and
    ``required`` maps each required key to the hint its error names."""

    build: Callable
    x_box: Callable = lambda config: 1.0
    keys: Mapping = dataclasses.field(default_factory=dict)
    required: Mapping = dataclasses.field(default_factory=dict)


def _number(value, path: str, n: int) -> float:
    return _as_number(value, path)


def _string(value, path: str, n: int) -> str:
    return _as_str(value, path)


def _optional_number(value, path: str, n: int) -> Optional[float]:
    return None if value is None else _as_number(value, path)


_COMMON_KEYS = ("family", "label", "n", "x_box")
_FAMILIES = {
    "flat": _Family(lambda config, n, x_box: flat_structure(n)),
    "riemannian_conformal": _Family(
        lambda config, n, x_box: conformal_structure(n, config["c"]),
        x_box=lambda config: 0.9,
        keys={"c": _number},
        required={"c": "base sectional curvature"},
    ),
    "randers": _Family(
        _randers,
        x_box=lambda config: 0.9 if config.get("c", 0.0) else 1.0,
        keys={"c": _number, "drift": _as_drift},
    ),
    "expression": _Family(
        lambda config, n, x_box: expression_structure(
            n, config["k2"], x_box=x_box, constant_curvature=config.get("constant_curvature")
        ),
        keys={"k2": _string, "constant_curvature": _optional_number},
        required={"k2": "formula over x1..xn, p1..pn"},
    ),
}


def build_structure(config: Mapping, path: str = "structure") -> CartanStructure:
    """Instantiate the structure described by a normalized config dict."""
    family = _FAMILIES[config["family"]]
    x_box = float(config.get("x_box") or family.x_box(config))
    try:
        s = family.build(config, config.get("n", 2), x_box)
    except (CartanLabError, ValueError) as exc:
        _fail(path, f"cannot build {config['family']} structure: {exc}")
    return dataclasses.replace(s, label=config.get("label") or s.label, x_box=x_box)


def _parse_structure(entry, index: int):
    path = f"structures[{index}]"
    own_keys = list(dict.fromkeys(key for family in _FAMILIES.values() for key in family.keys))
    _check_keys(entry, path, allowed=(*_COMMON_KEYS, *own_keys), required=("family",))
    name = _as_str(entry["family"], f"{path}.family")
    if name not in _FAMILIES:
        _fail(f"{path}.family", f"unknown family {name!r}; choose one of {list(_FAMILIES)}")
    family = _FAMILIES[name]
    config = {"family": name, "n": _as_int(entry.get("n", 2), f"{path}.n", minimum=2)}
    if "label" in entry:
        config["label"] = _as_str(entry["label"], f"{path}.label")
    if "x_box" in entry:
        box = _as_number(entry["x_box"], f"{path}.x_box")
        if box <= 0:
            _fail(f"{path}.x_box", f"chart box must be positive, got {box}")
        config["x_box"] = box
    for key in own_keys:
        if key in entry and key not in family.keys:
            owners = [other for other, f in _FAMILIES.items() if key in f.keys]
            _fail(f"{path}.{key}", f"key {key!r} only applies to families {owners}")
    for key, hint in family.required.items():
        if key not in entry:
            _fail(path, f"{name} requires key {key!r} ({hint})")
    for key, parse in family.keys.items():
        value = parse(entry[key], f"{path}.{key}", config["n"]) if key in entry else None
        if value is not None:
            config[key] = value
    structure = build_structure(config, path)
    config["label"] = structure.label
    config.setdefault("x_box", structure.x_box)
    return structure, config


def _parse_params(entry, index: int):
    path = f"params[{index}]"
    _check_keys(entry, path, allowed=("label", "alpha", "beta", "c", "v"))
    kwargs = {key: _as_number(entry[key], f"{path}.{key}") for key in ("alpha", "beta", "c") if key in entry}
    if "v" in entry:
        v = entry["v"]
        if isinstance(v, bool) or not isinstance(v, (int, float, str)):
            _fail(f"{path}.v", f"expected a number or expression string, got {v!r}")
        kwargs["v"] = v if isinstance(v, str) else _as_number(v, f"{path}.v")
    try:
        params = DeformationParams(**kwargs)
    except (ValueError, CartanLabError) as exc:
        _fail(path, str(exc))
    if params.reads_tau:
        _fail(f"{path}.v", f"profile {params.v!r} reads tau; the closed route covers constant profiles only")
    label = entry.get("label")
    if label is not None:
        label = _as_str(label, f"{path}.label")
    else:
        label = params.describe()
    echo = {"label": label, "alpha": params.alpha, "beta": params.beta}
    if params.c is not None or params.v is None:
        echo["c"] = params.c if params.c is not None else 0.0
    else:
        echo["v"] = params.v
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


# ---------------------------------------------------------------------------
# tube feasibility


def _probe_points(s: CartanStructure, p_low: float) -> list:
    directions = [*np.eye(s.dim), np.full(s.dim, 1.0 / np.sqrt(s.dim))]
    return [ChartPoint(x, p_low * d) for x in chart_box_probes(s.dim, s.x_box) for d in directions]


def _check_tube_feasibility(s: CartanStructure, params: DeformationParams, label: str, sampling: SamplingSpec) -> None:
    """Reject pairings whose whole sampling region violates the
    positive-definiteness gauge alpha + 2 tau v(tau) > 0 (for constant
    c > 0 this is the tube 2 tau < 1/(c beta^2)): accept one probe point
    where K^2 is positive and finite and `kahler.tube_predicate` holds.  A
    typed error at a probe point skips it."""
    accept = tube_predicate(s, params)
    least_2tau = None
    for pt in _probe_points(s, sampling.p_norm[0]):
        if not s.admissible(pt):
            continue
        try:
            k2 = s.k2_values(pt.x, pt.p)
            if not (k2 > 0 and np.isfinite(k2)):
                continue
            least_2tau = k2 if least_2tau is None else min(least_2tau, k2)
            if accept(pt):
                return
        except CartanLabError:
            continue
    if least_2tau is None:
        _fail(
            "structures",
            f"structure '{s.label}' has no evaluable probe point (K^2 must be "
            f"positive and finite somewhere in the chart box)",
        )
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
        f"{TUBE_MARGIN:g}*alpha; the deformation profile makes the "
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
        allowed=("structures", "params", "sampling"),
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

    for s in structures:
        for p, label in zip(params, param_labels):
            _check_tube_feasibility(s, p, label, sampling)

    echo = {
        "structures": configs,
        "params": param_echos,
        "sampling": sampling.as_dict(),
    }
    return Manifest(
        structures=tuple(structures),
        structure_configs=tuple(configs),
        params=tuple(params),
        param_labels=tuple(param_labels),
        sampling=sampling,
        echo=echo,
    )


def load_manifest(path: str) -> Manifest:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ManifestError(f"cannot read manifest {path!r}: {exc}") from None
    return parse_manifest(text)


def with_seed(m: Manifest, seed: int) -> Manifest:
    """``m`` with its sampling seed replaced (``verify --seed``) and its echo
    to match; a seed that is not an integer >= 0 raises ManifestError."""
    sampling = dataclasses.replace(m.sampling, seed=_as_int(seed, "--seed", minimum=0))
    return dataclasses.replace(m, sampling=sampling, echo={**m.echo, "sampling": sampling.as_dict()})
