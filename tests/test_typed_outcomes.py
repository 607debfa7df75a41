"""Every input ends in a typed outcome.

Random expressions over x1, x2, p1, p2 (every operator and call of the
grammar, variable exponents included) at extreme chart coordinates: parsing
raises only ValueError, and evaluating K^2, the point's geometry and its
Ricci tensor raise only `CartanLabError`.  Any other exception is an
internal fault.  On the command line, `cartanlab tensor` with every object
at random structures and extreme points gives a finite document or one
evaluation error line.
"""
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cartanlab.cartan import expression_structure
from cartanlab.cli import TENSORS, main
from cartanlab.errors import CartanLabError
from cartanlab.jets import ChartPoint
from cartanlab.kahler import DeformationParams
from cartanlab.levicivita import ricci
from cartanlab.manifest import parse_manifest

_LITERALS = st.sampled_from(["0", "1", "2", "0.5", "3", "1e-300", "1e300"])
_EXPONENTS = st.sampled_from(["2", "3", "-1", "-2", "0.5", "-1.5"])
_COORDS = st.sampled_from([0.0, 1e-170, -1e-170, 0.3, -0.7, 1e30, -1e30, 1e300])


def _extend(inner):
    exponent = st.one_of(_EXPONENTS, inner)
    return st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/"]), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(inner, exponent).map(lambda t: f"({t[0]}) ** ({t[1]})"),
        st.tuples(inner, exponent).map(lambda t: f"pow({t[0]}, {t[1]})"),
        st.tuples(st.sampled_from(["sqrt", "exp", "log", "-"]), inner).map(lambda t: f"{t[0]}({t[1]})"),
    )


_TERMS = st.recursive(st.one_of(st.sampled_from(["x1", "x2", "p1", "p2"]), _LITERALS), _extend, max_leaves=8)
# a conformal factor of a random term keeps many draws positive definite, so
# the whole pipeline runs on them
_EXPRESSIONS = st.one_of(_TERMS, _TERMS.map(lambda e: f"(p1*p1 + p2*p2) * exp(0.1 * ({e}))"))


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(expr=_EXPRESSIONS, x=st.tuples(_COORDS, _COORDS), p=st.tuples(_COORDS, _COORDS))
@example(expr="log(1 + p1*p1 + p2*p2) + p1*p1 + p2*p2", x=(0.9, 0.1), p=(1e31, 0.5))
@example(expr="p1*p1 + p2*p2 + 0.001*log(x2*x2 + 1e-300)", x=(0.1, 1e-170), p=(0.5, 0.5))
@example(expr="p1*p1 + p2*p2 + x1/x1", x=(0.0, 0.2), p=(0.5, 0.5))
@example(expr="p1*p1 + p2*p2 + x1**-1", x=(0.0, 0.2), p=(0.5, 0.5))
@example(expr="(p1*p1 + p2*p2) ** (1 + 0*x1)", x=(0.1, 0.1), p=(0.5, 0.5))
def test_expression_inputs_end_in_typed_outcomes(expr, x, p):
    try:
        s = expression_structure(2, expr)
    except ValueError:
        return
    x, p = np.array(x), np.array(p)
    try:
        s.k2_values(x, p)
    except CartanLabError:
        pass
    with np.errstate(all="ignore"):
        try:
            ricci(s, ChartPoint(x, p), DeformationParams(c=0.0))
        except CartanLabError:
            pass


# ---------------------------------------------------------------------------
# the command line: `cartanlab tensor` with every object

_GAUGES = {0.0: "flat-gauge", -1.0: "hyperbolic", 1.0: "spherical"}
_ANISOTROPIC = {"family": "expression", "n": 2, "label": "s", "k2": "(1 + 0.5*x1*x1) * p2*p2 + p1*p1"}
_CONFORMAL_PLUS = {"family": "riemannian_conformal", "n": 2, "c": 1.0, "label": "s"}
_STRUCTURES = st.one_of(
    st.just({"family": "flat", "n": 2, "label": "s"}),
    st.sampled_from([-1.0, 1.0]).map(lambda c: {"family": "riemannian_conformal", "n": 2, "c": c, "label": "s"}),
    st.tuples(st.floats(0.0, 0.99), st.floats(0.0, 2 * math.pi)).map(
        lambda t: {"family": "randers", "n": 2, "label": "s",
                   "drift": [t[0] * math.cos(t[1]), t[0] * math.sin(t[1])]}
    ),
    st.just(_ANISOTROPIC),
)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(derandomize=True, max_examples=250, deadline=None, database=None)
@given(
    structure=_STRUCTURES,
    c=st.sampled_from(sorted(_GAUGES)),
    face=st.integers(0, 3),
    t=st.floats(-1.0, 1.0),
    exponent=st.floats(-150.0, 150.0),
    angle=st.floats(0.0, 2 * math.pi),
)
@example(structure=_CONFORMAL_PLUS, c=-1.0, face=2, t=0.0, exponent=100.0, angle=math.pi)
def test_tensor_ends_in_a_document_or_one_evaluation_error(tmp_path_factory, structure, c, face, t, exponent, angle):
    # x on a face of the chart box, |p| = 10**exponent: exit 0 with a finite
    # document, or exit 3 with one typed line; never an internal error, and
    # no numpy warning (warnings are errors here)
    doc = {"structures": [structure], "params": [{"label": _GAUGES[c], "alpha": 1.0, "beta": 1.0, "c": c}]}
    path = tmp_path_factory.getbasetemp() / "tensor-property.json"
    path.write_text(json.dumps(doc))
    box = parse_manifest(path.read_text()).structures[0].x_box
    x = [t * box, t * box]
    x[face % 2] = box if face < 2 else -box
    p = [10.0**exponent * math.cos(angle), 10.0**exponent * math.sin(angle)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["tensor", "--manifest", str(path), "--objects", ",".join(TENSORS),
                     f"--point={x[0]!r},{x[1]!r};{p[0]!r},{p[1]!r}"])
    if code == 0:
        assert err.getvalue() == ""
        json.loads(out.getvalue(), parse_constant=lambda name: pytest.fail(f"document holds {name}"))
    else:
        assert code == 3 and out.getvalue() == "", err.getvalue()
        assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("evaluation error: "), err.getvalue()
