"""Every input of the expression grammar ends in a typed outcome.

Random expressions over x1, x2, p1, p2 (every operator and call of the
grammar, variable exponents included) at extreme chart coordinates: parsing
raises only ValueError, and evaluating K^2, the point's geometry and its
Ricci tensor raise only `CartanLabError`.  Any other exception is an
internal fault.
"""
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cartanlab.cartan import expression_structure
from cartanlab.errors import CartanLabError
from cartanlab.jets import ChartPoint
from cartanlab.kahler import DeformationParams
from cartanlab.levicivita import ricci

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
