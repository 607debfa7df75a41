"""Jet arithmetic, the finite-difference oracle, and guarded inversion.

Expected values here are frozen up front: polynomial cases are written out by
hand, transcendental derivatives come from the classical closed forms, and
every jet coefficient is additionally held to the independent FD oracle.
"""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanlab.cartan import expression_structure
from cartanlab.errors import ConditioningError, EvaluationDomainError
from cartanlab.jets import (
    ChartPoint,
    Jet,
    exp,
    fd_combine,
    fd_derivative,
    fd_partial,
    fd_stencil,
    invert,
    jet_eval,
    log,
    power,
    sqrt,
)


def _pt(x, p):
    return ChartPoint(np.asarray(x, dtype=float), np.asarray(p, dtype=float))


# ---------------------------------------------------------------------------
# chart points


def test_chart_point_validation():
    pt = _pt([1.0, 2.0], [3.0, -1.0])
    assert pt.n == 2
    np.testing.assert_array_equal(pt.coords, [1.0, 2.0, 3.0, -1.0])
    with pytest.raises(EvaluationDomainError):
        _pt([0.0, 0.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        _pt([1.0], [1.0])
    with pytest.raises(ValueError):
        _pt([np.nan, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        _pt([0.0, 0.0, 0.0], [1.0, 0.0])


# ---------------------------------------------------------------------------
# jet_eval on polynomials: exact hand values


def test_p1_squared_partials():
    pt = _pt([0.3, -0.8], [0.5, 1.7])
    j = jet_eval(lambda xs, ps: ps[0] * ps[0], pt, 2)
    assert j.value == pytest.approx(0.25, abs=0.0)
    assert j.partial((0, 0, 2, 0)) == 2.0
    assert j.partial((0, 0, 1, 0)) == 1.0  # 2 p_1 at p_1 = 0.5
    for alpha in [(1, 0, 0, 0), (0, 1, 0, 0), (2, 0, 0, 0), (1, 0, 1, 0)]:
        assert j.partial(alpha) == 0.0


def test_flat_k2_hessian_is_twice_identity():
    pt = _pt([1.0, -2.0, 0.5], [0.2, 1.1, -0.7])
    j = jet_eval(lambda xs, ps: sum(q * q for q in ps), pt, 2)
    n = 3
    for a in range(n):
        for b in range(n):
            alpha = [0] * (2 * n)
            alpha[n + a] += 1
            alpha[n + b] += 1
            assert j.partial(alpha) == (2.0 if a == b else 0.0)


def test_conformal_mixed_partial_matches_fd():
    # f = (1 + |x|^2/4)^2 * sum(p_i^2); d/dx1 d/dp1 f at x=(1,0), p=(1,0)
    # equals x1*(1+|x|^2/4) * 2 p1 = 1.25 * 2 = 2.5.
    def f_jets(xs, ps):
        phi = (1 + (xs[0] * xs[0] + xs[1] * xs[1]) / 4) ** 2
        return phi * (ps[0] * ps[0] + ps[1] * ps[1])

    def f_vals(x, p):
        return (1 + (x @ x) / 4.0) ** 2 * (p @ p)

    pt = _pt([1.0, 0.0], [1.0, 0.0])
    j = jet_eval(f_jets, pt, 2)
    assert j.partial((1, 0, 1, 0)) == pytest.approx(2.5, rel=1e-12)
    fd, err = fd_derivative(f_vals, pt, dirs=(0, 2))
    assert abs(j.partial((1, 0, 1, 0)) - fd) <= max(1e-6 * abs(fd), 10 * err)


# ---------------------------------------------------------------------------
# FD oracle basics


def test_fd_bilinear():
    pt = _pt([2.0, -1.0], [0.4, 0.9])
    val, err = fd_derivative(lambda x, p: x[0] * p[0], pt, dirs=(0, 2))
    assert abs(val - 1.0) <= max(err, 1e-9)


def test_fd_flat_k2():
    pt = _pt([0.0, 0.0], [1.0, 2.0])
    val, err = fd_derivative(lambda x, p: p @ p, pt, dirs=(2, 2))
    assert abs(val - 2.0) <= max(err, 1e-7)


def test_fd_error_paths():
    pt = _pt([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        fd_derivative(lambda x, p: 0.0, pt, dirs=(7,))
    with pytest.raises(EvaluationDomainError):
        fd_derivative(lambda x, p: float("nan"), pt, dirs=(0,))
    with pytest.raises(ValueError):
        fd_derivative(lambda x, p: 0.0, pt, dirs=(0,), steps=(1e-4, 1e-3))


def _quartic(pt):
    c = pt.coords
    return np.array([c[0] ** 4 * c[2], c[0] ** 3 - 2 * c[2] ** 4 + c[1] * c[3], c[1] * c[2] ** 3 * c[0]])


def _quartic_derivs(c, var):
    """First and third partials of _quartic along chart variable 0 or 2."""
    if var == 0:
        return (np.array([4 * c[0] ** 3 * c[2], 3 * c[0] ** 2, c[1] * c[2] ** 3]),
                np.array([24 * c[0] * c[2], 6.0, 0.0]))
    return (np.array([c[0] ** 4, -8 * c[2] ** 3, 3 * c[1] * c[2] ** 2 * c[0]]),
            np.array([0.0, -48 * c[2], 6 * c[1] * c[0]]))


@pytest.mark.parametrize("var", [0, 2])
def test_fd_partial_on_array_quartic(var):
    # |p_0| = 1.6 > 1, so the step along var 2 is scaled by 1.6
    pt = _pt([0.4, -0.7], [1.6, 0.3])
    first, third = _quartic_derivs(pt.coords, var)
    # two steps: the h^2 terms cancel, and a quartic has no h^4 term
    (got,) = fd_partial(_quartic, pt, (var,))
    np.testing.assert_allclose(got, first, rtol=0, atol=1e-9)
    # one step: the error is h^2 f'''/6 with h the scaled step
    h = 1e-3 * max(1.0, abs(pt.coords[var]))
    (err,) = fd_partial(_quartic, pt, (var,), steps=(1e-3,)) - first
    np.testing.assert_allclose(err, h * h * third / 6.0, rtol=1e-4, atol=1e-9)
    assert np.max(np.abs(err)) > 1e-6  # non-vacuous


def _cubic(q):
    """An array field of one chart point or of a batch of them, in products
    only, so both evaluate it with the same floating-point operations."""
    x, p = q.x, q.p
    return np.stack(
        [
            x[..., 0] * x[..., 0] * p[..., 0],
            x[..., 0] * x[..., 1] * x[..., 1] - 2 * p[..., 0] * p[..., 1] * p[..., 1],
            x[..., 1] * p[..., 0] * p[..., 0] * x[..., 0],
        ],
        axis=-1,
    )


@pytest.mark.parametrize("steps", [(1e-3,), (1e-3, 5e-4)], ids=["one-step", "richardson"])
def test_fd_partial_is_the_stacked_one_variable_partials_and_the_batched_route(steps):
    # one call over several variables returns, bit for bit, the one-variable
    # results stacked, and fd_combine over the values of the whole stencil
    # evaluated as one batch
    pt = _pt([0.4, -0.7], [1.6, 0.3])
    chart = (3, 0, 2, 1)
    got = fd_partial(_cubic, pt, chart, steps)
    assert got.shape == (4, 3)
    stacked = np.concatenate([fd_partial(_cubic, pt, (var,), steps) for var in chart])
    assert np.array_equal(got, stacked)
    batched = fd_combine(_cubic(fd_stencil(pt, chart, steps)), pt, chart, steps)
    assert np.array_equal(got, batched)
    (x0, x1), (p0, p1) = pt.x, pt.p
    exact = {
        0: [2 * x0 * p0, x1 * x1, x1 * p0 * p0],
        1: [0.0, 2 * x0 * x1, p0 * p0 * x0],
        2: [x0 * x0, -2 * p1 * p1, 2 * x1 * p0 * x0],
        3: [0.0, -4 * p0 * p1, 0.0],
    }
    np.testing.assert_allclose(got, [exact[var] for var in chart], rtol=0, atol=1e-9)


def test_fd_partial_rejects_variables_outside_chart():
    pt = _pt([0.0, 0.0], [1.0, 0.0])
    for var in (-1, 4):
        with pytest.raises(ValueError):
            fd_partial(_quartic, pt, (var,))
        with pytest.raises(ValueError):
            fd_partial(_quartic, pt, (0, var))


@pytest.mark.parametrize(
    "steps",
    [(1e-3, 1e-3), (5e-4, 1e-3), (0.0,), (-1e-3,), (1e-3, 0.0), (math.nan,), (), (1e-3, 5e-4, 2.5e-4)],
)
def test_degenerate_fd_steps_are_rejected(steps):
    # equal, inverted, zero, negative and NaN steps would return NaN or a
    # wrong difference; every FD route refuses them before evaluating
    pt = _pt([0.4, -0.7], [1.6, 0.3])
    with pytest.raises(ValueError, match="steps"):
        fd_partial(_quartic, pt, (0, 2), steps)
    with pytest.raises(ValueError, match="steps"):
        fd_stencil(pt, (0, 2), steps)
    with pytest.raises(ValueError, match="steps"):
        fd_combine(np.zeros((2, max(len(steps), 1), 2, 3)), pt, (0, 2), steps)


def test_fd_step_lost_to_rounding_is_a_domain_error():
    # a step below the coordinate's resolution would difference a point
    # with itself and return 0 quietly
    pt = _pt([0.4, -0.7], [1.6, 0.3])
    for steps in ((1e-20,), (1e-3, 1e-20)):
        with pytest.raises(EvaluationDomainError, match="FD step underflow along chart variable 2"):
            fd_partial(_quartic, pt, (2,), steps)
        with pytest.raises(EvaluationDomainError, match="FD step underflow along chart variable 0"):
            fd_stencil(pt, (0, 2), steps)
        with pytest.raises(EvaluationDomainError, match="FD step underflow"):
            fd_combine(np.zeros((2, len(steps), 2, 3)), pt, (0, 2), steps)


@pytest.mark.parametrize("steps", [(1e-3,), (1e-3, 5e-4)], ids=["one-step", "richardson"])
def test_fd_partial_rejects_non_finite_stencil_values(steps):
    # NaN in one component at the point one small step below along var 2
    # must raise, not come back as a NaN difference
    pt = _pt([0.4, -0.7], [1.6, 0.3])
    low = pt.coords[2] - steps[-1] * 1.6

    def f(q):
        out = _quartic(q)
        if q.coords[2] == low:
            out[1] = np.nan
        return out

    want = f"non-finite evaluation at step {-steps[-1] * 1.6:+.3e} along chart variable 2"
    with pytest.raises(EvaluationDomainError, match=want):
        fd_partial(f, pt, (2,), steps=steps)
    with pytest.raises(EvaluationDomainError, match=want):
        fd_partial(f, pt, (0, 2, 1), steps=steps)
    # the same field is fine along variables whose stencil misses that point
    assert np.isfinite(fd_partial(f, pt, (0, 1, 3), steps=steps)).all()


def test_fd_partial_names_the_first_non_finite_point_in_stencil_order():
    # two bad points: +h1 along var 3 and -h2 along var 0; listed as
    # (0, 3) the one along var 0 comes first, listed as (3, 0) the other
    pt = _pt([0.4, -0.7], [1.6, 0.3])
    high3 = pt.coords[3] + 1e-3
    low0 = pt.coords[0] - 5e-4

    def f(q):
        out = _quartic(q)
        if q.coords[3] == high3 or q.coords[0] == low0:
            out[0] = np.inf
        return out

    with pytest.raises(EvaluationDomainError, match=r"step -5\.000e-04 along chart variable 0"):
        fd_partial(f, pt, (0, 3))
    with pytest.raises(EvaluationDomainError, match=r"step \+1\.000e-03 along chart variable 3"):
        fd_partial(f, pt, (3, 0))


def test_fd_jet_contract_on_smooth_field():
    # arbitrary smooth field mixing all primitive kinds
    def f_jets(xs, ps):
        return sqrt(1 + xs[0] * xs[0] + ps[1] * ps[1]) * exp(xs[1] / 10) + log(
            2 + ps[0] * ps[0]
        )

    def f_vals(x, p):
        return math.sqrt(1 + x[0] ** 2 + p[1] ** 2) * math.exp(x[1] / 10) + math.log(
            2 + p[0] ** 2
        )

    rng = np.random.default_rng(7)
    for _ in range(4):
        pt = _pt(rng.uniform(-1, 1, 2), rng.uniform(0.5, 1.5, 2))
        j = jet_eval(f_jets, pt, 3)
        for dirs in [(0,), (2,), (0, 3), (2, 2), (1, 2, 3)]:
            alpha = [0, 0, 0, 0]
            for d in dirs:
                alpha[d] += 1
            fd, err = fd_derivative(f_vals, pt, dirs=dirs)
            assert abs(j.partial(alpha) - fd) <= max(1e-6, 10 * err)


# ---------------------------------------------------------------------------
# exact ring structure


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-5, 5), min_size=20, max_size=20),
    st.lists(st.integers(-5, 5), min_size=20, max_size=20),
)
def test_leibniz_convolution_exact(fa, fb):
    # order-3 jets in 3 variables have exactly 20 coefficients
    from cartanlab.jets import _tables

    tab = _tables(3, 3)
    assert tab.size == 20
    a = Jet(3, 3, np.array(fa, dtype=float))
    b = Jet(3, 3, np.array(fb, dtype=float))
    prod = a * b
    expect = np.zeros(tab.size)
    for i, ea in enumerate(tab.exps):
        for k, eb in enumerate(tab.exps):
            es = tuple(u + v for u, v in zip(ea, eb))
            if sum(es) <= 3:
                expect[tab.index[es]] += fa[i] * fb[k]
    # integer arithmetic in doubles: exact equality required
    np.testing.assert_array_equal(prod.c, expect)


def test_truncation_commutes_with_product():
    rng = np.random.default_rng(3)
    from cartanlab.jets import _tables

    a = Jet(4, 4, rng.normal(size=_tables(4, 4).size))
    b = Jet(4, 4, rng.normal(size=_tables(4, 4).size))
    full = (a * b).truncate(2)
    low = a.truncate(2) * b.truncate(2)
    np.testing.assert_allclose(full.c, low.c, rtol=0, atol=1e-14)


def test_deriv_consistent_with_partial():
    pt = _pt([0.2, 0.4], [1.0, -0.3])
    j = jet_eval(lambda xs, ps: xs[0] ** 3 * ps[1] ** 2, pt, 5)
    d = j.deriv(0).deriv(3)  # d/dx1 d/dp2
    assert d.value == pytest.approx(j.partial((1, 0, 0, 1)), rel=1e-13)
    assert d.partial((1, 0, 0, 1)) == pytest.approx(j.partial((2, 0, 0, 2)), rel=1e-13)


# ---------------------------------------------------------------------------
# smooth primitives against classical derivative formulas


def test_primitive_derivatives_single_variable():
    z = Jet.variable(0, 4.0, 2, 4)

    s = sqrt(z)
    assert s.value == pytest.approx(2.0, rel=1e-15)
    assert s.partial((1, 0)) == pytest.approx(0.25, rel=1e-13)
    assert s.partial((2, 0)) == pytest.approx(-1.0 / 32.0, rel=1e-13)

    e = exp(z)
    for k in range(5):
        assert e.partial((k, 0)) == pytest.approx(math.exp(4.0), rel=1e-12)

    l = log(z)
    assert l.value == pytest.approx(math.log(4.0), rel=1e-15)
    assert l.partial((1, 0)) == pytest.approx(0.25, rel=1e-13)
    assert l.partial((2, 0)) == pytest.approx(-1.0 / 16.0, rel=1e-13)
    assert l.partial((3, 0)) == pytest.approx(2.0 / 64.0, rel=1e-13)

    pw = power(z, 1.5)
    assert pw.value == pytest.approx(8.0, rel=1e-15)
    assert pw.partial((1, 0)) == pytest.approx(1.5 * 2.0, rel=1e-13)
    assert pw.partial((2, 0)) == pytest.approx(1.5 * 0.5 / 2.0, rel=1e-13)

    inv = 1.0 / z
    assert inv.partial((1, 0)) == pytest.approx(-1.0 / 16.0, rel=1e-13)
    assert inv.partial((2, 0)) == pytest.approx(2.0 / 64.0, rel=1e-13)

    ip = z**-2
    assert ip.value == pytest.approx(1.0 / 16.0, rel=1e-13)
    assert ip.partial((1, 0)) == pytest.approx(-2.0 / 4.0**3, rel=1e-13)


def test_primitive_domain_errors():
    z = Jet.variable(0, -1.0, 2, 3)
    with pytest.raises(EvaluationDomainError):
        sqrt(z)
    with pytest.raises(EvaluationDomainError):
        log(z)
    with pytest.raises(EvaluationDomainError):
        power(z, 0.5)
    zero = Jet.constant(0.0, 2, 3)
    with pytest.raises(EvaluationDomainError):
        _ = 1.0 / zero
    with pytest.raises(EvaluationDomainError):
        sqrt(-2.0)
    with pytest.raises(EvaluationDomainError):
        log(0.0)


def _batch(x0s):
    """A (2, 2) batch of n = 2 points whose first base coordinates are x0s."""
    x = np.stack([np.asarray(x0s, dtype=float), np.full(4, 0.1)], axis=-1)
    p = np.tile([0.8, 0.6], (4, 1))
    return ChartPoint(x.reshape(2, 2, 2), p.reshape(2, 2, 2))


def test_a_batch_names_its_first_bad_point():
    # one evaluation over the batch; a domain error names the value at the
    # first bad point in C order, as that point alone would
    at = _batch([0.5, -0.25, 0.3, -1.0])
    with pytest.raises(EvaluationDomainError, match=r"^log of nonpositive value -0\.25$"):
        jet_eval(lambda xs, ps: log(xs[0]) + ps[0] * ps[0], at, 3)
    with pytest.raises(EvaluationDomainError, match=r"^power 0\.5 of nonpositive value -0\.25$"):
        jet_eval(lambda xs, ps: sqrt(xs[0]), at, 2)
    with pytest.raises(EvaluationDomainError, match="zero value"):
        jet_eval(lambda xs, ps: 1.0 / (xs[0] - 0.3), at, 2)


def test_a_batch_overflow_names_its_point_without_a_warning():
    at = _batch([1e-200, 1e-200, 1e200, 1e200])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(EvaluationDomainError) as ei:
            jet_eval(lambda xs, ps: xs[0] * xs[0] * ps[0], at, 2)
    assert str(ei.value) == "non-finite jet coefficients at ChartPoint(x=[1e+200, 0.1], p=[0.8, 0.6])"


# an exp and a real power whose value overflows a float at the given point
OVERFLOWS = [
    ("exp(x1*p1*p1) * (p1*p1 + p2*p2)", [30.0, 0.5], r"^exp of 810\.0 overflows$"),
    ("pow(p1*p1 + p2*p2, 1.5) / sqrt(p1*p1 + p2*p2)", [1e120, 0.5], r"^power 1\.5 of 1e\+240 overflows$"),
    ("(p1*p1 + p2*p2)**1.5 / sqrt(p1*p1 + p2*p2)", [1e120, 0.5], r"^power 1\.5 of 1e\+240 overflows$"),
]


@pytest.mark.parametrize("expr, p, message", OVERFLOWS, ids=["exp", "power", "power-operator"])
def test_an_overflowing_primitive_is_a_domain_error_naming_its_value(expr, p, message):
    s = expression_structure(2, expr)
    at = ChartPoint(np.array([0.9, 0.1]), np.array(p))
    with pytest.raises(EvaluationDomainError, match=message):
        jet_eval(s.k2, at, 2)
    with pytest.raises(EvaluationDomainError, match=message):
        s.k2_values(at.x, at.p)
    # in a batch, the overflowing point is the second
    batch = ChartPoint(np.array([[0.9, 0.1]] * 2), np.array([[1.0, 0.5], p]))
    with pytest.raises(EvaluationDomainError, match=message):
        jet_eval(s.k2, batch, 5)


def test_a_constant_field_is_broadcast_to_the_batch():
    at = _batch([0.1, 0.2, 0.3, 0.4])
    got = jet_eval(lambda xs, ps: 2.5, at, 3, xcap=1)
    assert got.shape == (2, 2) and got.xcap == 1
    np.testing.assert_array_equal(got.c, Jet.constant(np.full((2, 2), 2.5), 4, 3, 1).c)


# ---------------------------------------------------------------------------
# guarded inversion


def test_invert_identity_and_diagonal():
    np.testing.assert_allclose(invert(np.eye(3)), np.eye(3), atol=1e-14)
    beta = 0.7
    got = invert(np.diag([1 / beta] * 4))
    np.testing.assert_allclose(got, np.diag([beta] * 4), rtol=1e-13)


def test_invert_rejects_asymmetric_and_singular():
    with pytest.raises(ValueError):
        invert(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ConditioningError) as ei:
        invert(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert "pivot" in str(ei.value)
    bad = np.diag([1.0, 1e-15])
    with pytest.raises(ConditioningError):
        invert(bad)


def test_invert_bundle_metric_pair():
    # deformed bundle metric on the flat structure: down components
    # (1/beta) I - c*beta p p^T must invert to beta I + (c beta^3/(1-2c beta^2 tau)) p p^T
    rng = np.random.default_rng(11)
    for c, beta in [(-1.0, 1.0), (-1.0, 0.7), (0.0, 1.3), (1.0, 0.5)]:
        p = rng.normal(size=3)
        tau = 0.5 * (p @ p)
        if 1 - 2 * c * beta**2 * tau <= 1e-3:
            p *= 0.2 / np.linalg.norm(p)
            tau = 0.5 * (p @ p)
        down = (1 / beta) * np.eye(3) - c * beta * np.outer(p, p)
        up = beta * np.eye(3) + (c * beta**3 / (1 - 2 * c * beta**2 * tau)) * np.outer(p, p)
        np.testing.assert_allclose(invert(down), up, rtol=0, atol=1e-10)
        np.testing.assert_allclose(down @ up, np.eye(3), rtol=0, atol=1e-10)


# ---------------------------------------------------------------------------
# tensor jets: one coefficient array with leading tensor axes

_TENSOR_CASES = dict(
    n=st.sampled_from([2, 3, 4]),
    order=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
)


def _random_jet(rng, shape, nvars, order):
    from cartanlab.jets import _tables

    return Jet(nvars, order, rng.normal(size=shape + (_tables(nvars, order).size,)))


def _close(got: Jet, want: Jet):
    assert (got.nvars, got.order, got.shape) == (want.nvars, want.order, want.shape)
    scale = max(1.0, float(np.abs(want.c).max()))
    np.testing.assert_allclose(got.c, want.c, rtol=0, atol=1e-13 * scale)


@settings(max_examples=25, deadline=None)
@given(**_TENSOR_CASES)
def test_broadcast_product_matches_scalar_products(n, order, seed):
    rng = np.random.default_rng(seed)
    nvars = 2 * n
    a = _random_jet(rng, (2, 3), nvars, order)
    b = _random_jet(rng, (3,), nvars, order)
    prod = a * b
    for i in range(2):
        for j in range(3):
            _close(prod[i, j], a[i, j] * b[j])


@settings(max_examples=25, deadline=None)
@given(**_TENSOR_CASES)
def test_contract_matches_scalar_sums(n, order, seed):
    from cartanlab.jets import contract

    rng = np.random.default_rng(seed)
    nvars = 2 * n
    a = _random_jet(rng, (2, 2, 3), nvars, order)
    b = _random_jet(rng, (3, 2), nvars, order)
    got = contract("ijm,mk->ijk", a, b)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                want = a[i, j, 0] * b[0, k]
                for m in range(1, 3):
                    want = want + a[i, j, m] * b[m, k]
                _close(got[i, j, k], want)
    # a float operand and a single jet (a transpose) are linear in the coefficients
    w = rng.normal(size=(3,))
    np.testing.assert_allclose(
        contract("ijm,m->ij", a, w).c, np.einsum("ijmz,m->ijz", a.c, w), rtol=1e-14
    )
    np.testing.assert_array_equal(contract("ijm->mji", a).c, np.transpose(a.c, (2, 1, 0, 3)))


@settings(max_examples=25, deadline=None)
@given(**_TENSOR_CASES)
def test_tensor_derivatives_match_elementwise(n, order, seed):
    rng = np.random.default_rng(seed)
    nvars = 2 * n
    t = _random_jet(rng, (3, 2), nvars, order)
    if order == 0:
        with pytest.raises(ValueError):
            t.deriv(0)
        return
    var = int(rng.integers(nvars))
    d = t.deriv(var)
    grad = t.derivs(range(nvars))
    for i in range(3):
        for j in range(2):
            want = t[i, j].deriv(var)
            np.testing.assert_array_equal(d[i, j].c, want.c)
            np.testing.assert_array_equal(grad[i, j, var].c, want.c)
    if order >= 2:
        hess = t.derivs(range(nvars), 2)
        u, v = (int(k) for k in rng.integers(nvars, size=2))
        # exact integer multipliers: second partials agree in either order
        np.testing.assert_array_equal(hess[..., u, v].c, hess[..., v, u].c)
        _close(hess[..., u, v], t.deriv(u).deriv(v))


@settings(max_examples=25, deadline=None)
@given(**_TENSOR_CASES)
def test_jet_mat_inv_is_identity_through_order(n, order, seed):
    from cartanlab.geometry import jet_mat_inv
    from cartanlab.jets import contract

    rng = np.random.default_rng(seed)
    nvars = 2 * n
    noise = _random_jet(rng, (n, n), nvars, order)
    a = (noise + contract("ij->ji", noise)) * 0.05
    a = a + 2.0 * np.eye(n) - Jet.constant(a.value, nvars, order)
    x = jet_mat_inv(a)
    ident = contract("ij,jk->ik", a, x)
    _close(ident, Jet.constant(np.eye(n), nvars, order))


@settings(max_examples=25, deadline=None)
@given(**_TENSOR_CASES)
def test_tensor_value_and_indexing(n, order, seed):
    from cartanlab.jets import stack

    rng = np.random.default_rng(seed)
    nvars = 2 * n
    t = _random_jet(rng, (2, 3), nvars, order)
    scalar = t[1, 2]
    assert isinstance(scalar.value, float)
    assert scalar.value == t.c[1, 2, 0]
    assert t.value.shape == (2, 3)
    for part in (t[0], t[:, 1], t[..., 2], scalar):
        assert isinstance(part, Jet)
        assert (part.nvars, part.order) == (nvars, order)
    with pytest.raises(IndexError):
        scalar[0]
    # stack lifts numbers to constants beside jets
    lifted = stack([[scalar, 1.5], [0.0, t[0, 0]]])
    assert lifted.shape == (2, 2) and lifted.order == order
    np.testing.assert_array_equal(lifted[0, 0].c, scalar.c)
    np.testing.assert_array_equal(lifted[0, 1].c, Jet.constant(1.5, nvars, order).c)


# ---------------------------------------------------------------------------
# two gradings: total order and a cap on the degree in the base variables

_GRADED_CASES = dict(
    n=st.sampled_from([2, 3]),
    order=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=25, deadline=None)
@given(**_GRADED_CASES)
def test_graded_jets_equal_full_ones_on_every_retained_coefficient(n, order, seed):
    # capping the x-degree drops coefficients but never changes a kept one:
    # products, contractions, primitives, derivatives and truncations of the
    # capped jets equal the capped results of the full ones, bit for bit
    from cartanlab.jets import contract

    rng = np.random.default_rng(seed)
    nvars = 2 * n
    xs, ps = tuple(range(n)), tuple(range(n, nvars))
    a_full = _random_jet(rng, (n, n), nvars, order)
    b_full = _random_jet(rng, (n,), nvars, order)
    a_full.c[..., 0] += 3.0  # keep the reciprocal's value away from zero
    for cap in range(order):
        a, b = a_full.truncate(order, cap), b_full.truncate(order, cap)
        assert (a.order, a.xcap) == (order, cap) and a.c.shape[-1] < a_full.c.shape[-1]

        def same(got, want):
            assert (got.order, got.xcap) == (want.order, want.xcap)
            np.testing.assert_array_equal(got.c, want.c)

        same(a * b[0], (a_full * b_full[0]).truncate(order, cap))
        same(a + b, (a_full + b_full).truncate(order, cap))
        same(contract("ij,j->i", a, b), contract("ij,j->i", a_full, b_full).truncate(order, cap))
        same(1.0 / a[0, 1], (1.0 / a_full[0, 1]).truncate(order, cap))
        same(a.derivs(ps), a_full.derivs(ps).truncate(order - 1, cap))
        if cap >= 1:
            same(a.derivs(xs), a_full.derivs(xs).truncate(order - 1, cap - 1))
            same(a.deriv(0), a_full.deriv(0).truncate(order - 1, cap - 1))
        for low in range(order):
            same(a.truncate(low), a_full.truncate(low).truncate(low, cap))
        # a full jet meets a capped one on the capped table
        same(a_full[0] * b, (a_full[0] * b_full).truncate(order, cap))


def test_x_derivative_of_an_x_exhausted_jet_raises():
    rng = np.random.default_rng(3)
    full = _random_jet(rng, (2,), 4, 4)
    capped = full.truncate(4, 0)
    assert capped.derivs((2, 3)).xcap == 0  # momentum derivatives are kept
    for ask in (lambda: capped.deriv(0), lambda: capped.derivs((0, 1)),
                lambda: capped.derivs(range(4)), lambda: full.truncate(4, 1).derivs((1,), 2)):
        with pytest.raises(ValueError, match="x-derivative"):
            ask()
    with pytest.raises(ValueError):
        capped.truncate(4, 1)  # a cap is never raised back


def test_graded_coordinate_jets():
    at = _pt([0.3, -0.2], [1.1, 0.4])
    f = lambda xs, ps: xs[0] * ps[0] * ps[1] + xs[1] * xs[1] * ps[0]
    full = jet_eval(f, at, 4)
    for cap in (0, 1, 2):
        got = jet_eval(f, at, 4, cap)
        assert got.xcap == cap
        np.testing.assert_array_equal(got.c, full.truncate(4, cap).c)
    # x-free at cap 0: the base variables are constants there
    assert jet_eval(f, at, 4, 0).coefficient((0, 0, 1, 1)) == pytest.approx(0.3)
    with pytest.raises(ValueError):
        jet_eval(f, at, 4, 0).coefficient((1, 0, 1, 1))
