"""Truncated multivariate Taylor ("jet") arithmetic and its finite-difference
cross-check.

A chart point carries the 2n coordinates (x^1..x^n, p_1..p_n).  A `Jet` stores
the Taylor coefficients of a smooth scalar, or of a tensor of smooth scalars,
about such a point, indexed by multi-indices over the 2n variables up to a
total order (order 5 is enough for every consumer in this package: two base
derivatives on top of three momentum derivatives of K^2).  Ring operations are
exact truncated-polynomial operations; smooth primitives (sqrt, exp, log, real
powers) are evaluated by composing the primitive's Taylor series with the
nilpotent part of the operand.  Mixed partial derivatives of any expression
built this way are read off coefficients, with no step-size error.

Two gradings.  Besides the total order, a jet may cap the degree in the base
variables x (the first half of its variables) at `xcap` < `order`; the two
gradings truncate independently (Neidinger, SIAM Review 52, 2010; Griewank &
Walther, *Evaluating Derivatives*, 2nd ed., ch. 13).  A jet with `xcap ==
order` keeps every multi-index of its order.  Products and sums land on the
lower cap of their operands; an x-derivative lowers the cap by one, and an
x-derivative of a jet whose cap is 0 (x-exhausted) raises instead of
returning a number that would silently drop terms.

Layout: the coefficients of a jet are one float array `c` of shape
`(*shape, ncoef)`.  The leading axes are the tensor axes (`shape == ()` for a
scalar), optionally preceded by batch axes over a stack of chart points; the
last axis runs over the multi-indices in graded order, so `c[..., 0]` is the
value and lowering the total order at a fixed x-cap is a slice (lowering the
cap is a gather).  `jet_eval` evaluates a field once over a whole batch.
Every operation acts on all components at once:

* `+`, `-` and `*` (by a jet, a number or an array over the leading axes)
  broadcast over the leading axes.  A product gathers both
  coefficient axes through the product table of `_Tables.mul`, multiplies,
  and sums each output coefficient with one `np.add.reduceat`; the table is
  sorted by output index when it is built, so the sums are contiguous runs.
* `contract(spec, a, b)` is an einsum over the tensor axes
  (`contract("ijm,mk->ijk", a, b)`), with any batch axes carried along as a
  leading ellipsis, taken before the same reduction, so an index
  contraction of two jet tensors costs one gather, one einsum and one
  reduction.
* `deriv` and `derivs` are gathers on the last axis; indexing selects
  leading axes; `stack` builds a tensor from scalar jets and numbers,
  after their batch axes.

Every finite difference the package takes, the FD oracles' and the jet
cross-check's, is a first partial with one path: `fd_stencil` lays the
shifted points about a chart point out as one batch, for a list of chart
variables, and `fd_combine` turns the values of an array-valued
function there into central differences, Richardson extrapolated over two
steps (or the plain difference for one step).  `fd_partial` evaluates a
function of a chart point at those points one at a time, for callables
that cannot take a batch, and combines the values the same way.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, product
from typing import Callable, Sequence

import numpy as np

from .errors import ConditioningError, EvaluationDomainError

__all__ = [
    "ChartPoint",
    "Jet",
    "contract",
    "stack",
    "jet_eval",
    "fd_derivative",
    "fd_partial",
    "fd_stencil",
    "fd_combine",
    "invert",
    "sqrt",
    "exp",
    "log",
    "power",
    "DEFAULT_FD_STEPS",
    "CONDITION_BOUND",
]

DEFAULT_FD_STEPS = (1e-3, 5e-4)
CONDITION_BOUND = 1e12
_EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# multi-index tables


class _Tables:
    """Precomputed index tables for one (nvars, order, xcap) triple.

    Multi-indices of total degree <= order whose degree in the base
    variables (the first ``nvars // 2``) is <= xcap are enumerated degree by
    degree (graded order), so the table of a lower order at the same cap is
    a prefix of the table of a higher order, and a capped table keeps the
    relative order of the full one.  ``xcap == order`` is the full table.
    """

    def __init__(self, nvars: int, order: int, xcap: int):
        self.nvars = nvars
        self.order = order
        self.xcap = xcap
        nx = nvars // 2
        exps: list[tuple[int, ...]] = []
        sizes = [0]
        for deg in range(order + 1):
            for combo in combinations_with_replacement(range(nvars), deg):
                e = [0] * nvars
                for v in combo:
                    e[v] += 1
                if sum(e[:nx]) <= xcap:
                    exps.append(tuple(e))
            sizes.append(len(exps))
        self.exps = exps
        self.size = len(exps)
        # cumulative size per degree: coeffs[: sizes[d + 1]] holds degree <= d
        self.sizes = sizes
        self.index = {e: i for i, e in enumerate(exps)}
        arr = np.array(exps, dtype=np.int64).reshape(self.size, nvars)
        self.degree = arr.sum(axis=1)
        self.xdegree = arr[:, :nx].sum(axis=1)
        # each multi-index as one integer, its exponents read as digits in
        # base order + 1; a sum of two multi-indices within the order adds
        # their codes without a carry
        self._radix = (order + 1) ** np.arange(nvars, dtype=np.int64)
        self._codes = arr @ self._radix
        self._by_code = np.argsort(self._codes, kind="stable")
        self._mul = None
        self._derivs: dict[tuple, tuple[np.ndarray, np.ndarray, int]] = {}

    def _lookup(self, codes: np.ndarray) -> np.ndarray:
        """Table positions of multi-indices given by their codes."""
        sorted_codes = self._codes[self._by_code]
        return self._by_code[np.searchsorted(sorted_codes, codes)]

    @property
    def mul(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(ia, ib, starts) of the truncated product c = a * b.

        Each product a[ia[t]] * b[ib[t]] adds to one output coefficient; the
        terms are sorted by that output index (stably, so each output sums
        its terms in enumeration order), and output k is the sum of the run
        that begins at ``starts[k]``, ready for ``np.add.reduceat``.
        """
        if self._mul is None:
            # b runs over every multi-index of degree <= order - deg(a)
            counts = np.asarray(self.sizes)[self.order - self.degree + 1]
            ia = np.repeat(np.arange(self.size), counts)
            ib = np.arange(ia.size) - np.repeat(np.cumsum(counts) - counts, counts)
            if self.xcap < self.order:
                keep = self.xdegree[ia] + self.xdegree[ib] <= self.xcap
                ia, ib = ia[keep], ib[keep]
            iout = self._lookup(self._codes[ia] + self._codes[ib])
            by_out = np.argsort(iout, kind="stable")
            iout = iout[by_out]
            starts = np.flatnonzero(np.r_[True, iout[1:] != iout[:-1]])
            self._mul = (ia[by_out], ib[by_out], starts)
        return self._mul

    def derivs_map(self, vars: tuple, count: int) -> tuple[np.ndarray, np.ndarray, int]:
        """Index map realizing all count-fold partials along ``vars``.

        ``src`` and ``mult`` have shape ``(len(vars),) * count + (lower,)``,
        where ``lower`` is the size of the table ``count`` orders down, with
        the x-cap lowered by ``count`` when ``vars`` holds a base variable
        (returned third): ``c[..., src] * mult`` holds the partials, one
        trailing axis per derivative.  The multipliers are exact integers,
        so the result is exactly symmetric in its derivative axes.  Raises
        ValueError when a base variable is asked of a jet whose x-cap is
        used up.
        """
        key = (vars, count)
        got = self._derivs.get(key)
        if got is None:
            lower_order = self.order - count
            lower_cap = self.xcap
            if any(v < self.nvars // 2 for v in vars):
                lower_cap -= count
                if lower_cap < 0:
                    raise ValueError(
                        f"{count}-fold x-derivative of a jet whose x-degree is capped at {self.xcap}"
                    )
            lower = _tables(self.nvars, lower_order, lower_cap)
            low = np.array(lower.exps, dtype=np.int64).reshape(lower.size, self.nvars)
            bump = np.zeros((len(vars),) * count + (self.nvars,), dtype=np.int64)
            for combo in product(range(len(vars)), repeat=count):
                for a in combo:
                    bump[combo + (vars[a],)] += 1
            bumped = bump[..., None, :] + low
            src = self._lookup(bumped @ self._radix)
            fact = np.array([math.factorial(k) for k in range(self.order + 1)], dtype=float)
            mult = np.prod(fact[bumped], axis=-1) / np.prod(fact[low], axis=-1)
            got = self._derivs[key] = (src, mult, lower.xcap)
        return got

    def deriv_map(self, var: int) -> tuple[np.ndarray, np.ndarray]:
        """Index map realizing d/d(var): tables of order-1 jets index into us."""
        src, mult, _ = self.derivs_map((var,), 1)
        return src[0], mult[0]


@lru_cache(maxsize=None)
def _tables(nvars: int, order: int, xcap: int = None) -> _Tables:
    """The tables of (nvars, order, xcap); no cap, or one at or above the
    order, is the full table."""
    if nvars < 1 or order < 0:
        raise ValueError("need nvars >= 1 and order >= 0")
    if xcap is None or xcap >= order:
        return _full_tables(nvars, order)
    if xcap < 0:
        raise ValueError("need xcap >= 0")
    return _Tables(nvars, order, xcap)


@lru_cache(maxsize=None)
def _full_tables(nvars: int, order: int) -> _Tables:
    return _Tables(nvars, order, order)


@lru_cache(maxsize=None)
def _embedding(nvars: int, src: tuple, dst: tuple) -> np.ndarray:
    """Positions in the table ``src`` = (order, xcap) of the multi-indices
    of the smaller table ``dst``."""
    big = _tables(nvars, *src)
    return big._lookup(np.array(_tables(nvars, *dst).exps, dtype=np.int64) @ big._radix)


def _is_number(v) -> bool:
    return isinstance(v, (int, float, np.integer, np.floating))


def _common_table(a: "Jet", b: "Jet") -> _Tables:
    """The table two operands meet on: the lower order and the lower cap."""
    if a.nvars != b.nvars:
        raise ValueError("jets over different variable sets")
    k = a.order if a.order < b.order else b.order
    if a.xcap >= k and b.xcap >= k:
        return _tables(a.nvars, k)
    return _tables(a.nvars, k, min(a.xcap, b.xcap))


def _on(jet: "Jet", tab: _Tables, exact: bool = False) -> np.ndarray:
    """The coefficients of ``jet`` on the multi-indices of ``tab``, a table
    within the jet's own.  When ``tab`` is a prefix of the jet's table this
    is the jet's array itself, with trailing entries beyond ``tab`` unless
    ``exact``; else a gather."""
    if jet.xcap == tab.xcap or (tab.xcap == tab.order and jet.xcap >= tab.order):
        if exact and jet.order != tab.order:
            return jet.c[..., : tab.size]
        return jet.c
    key = (jet.order, jet.xcap)
    return jet.c.take(_embedding(jet.nvars, key, (tab.order, tab.xcap)), axis=-1)


def _scalar_or_array(v: np.ndarray):
    return float(v) if v.ndim == 0 else v.copy()


# ---------------------------------------------------------------------------
# jets


class Jet:
    """Taylor coefficients of a scalar or a tensor about a point, truncated
    at total `order` and at degree `xcap` in the base variables.

    c[..., i] is the series coefficient c_alpha for the i-th multi-index of
    the (nvars, order, xcap) table, so the mixed partial for alpha is
    c_alpha * alpha!; the leading axes of c are the tensor axes (none for a
    scalar).  ``xcap`` defaults to the order: every multi-index is kept.
    """

    __slots__ = ("nvars", "order", "xcap", "c")
    # numpy scalars and arrays defer mixed arithmetic to the jet's operators
    __array_ufunc__ = None

    def __init__(self, nvars: int, order: int, coeffs: np.ndarray, xcap: int = None):
        self.nvars = nvars
        self.order = order
        self.xcap = order if xcap is None or xcap > order else xcap
        self.c = coeffs

    @property
    def _table(self) -> _Tables:
        return _tables(self.nvars, self.order, self.xcap)

    # -- constructors

    @classmethod
    def constant(cls, value, nvars: int, order: int, xcap: int = None) -> "Jet":
        """A constant jet; an array value gives a tensor of constants."""
        value = np.asarray(value, dtype=float)
        c = np.zeros(value.shape + (_tables(nvars, order, xcap).size,))
        c[..., 0] = value
        return cls(nvars, order, c, xcap)

    @classmethod
    def variable(cls, index: int, value: float, nvars: int, order: int, xcap: int = None) -> "Jet":
        """The coordinate jet of chart variable ``index`` at ``value``; at
        x-cap 0 a base variable is the constant."""
        if order < 1:
            raise ValueError("coordinate jets need order >= 1")
        out = cls.constant(value, nvars, order, xcap)
        # the degree-1 multi-indices follow the value in variable order; a
        # cap of 0 drops those of the base variables
        nx = nvars // 2 if out.xcap == 0 else 0
        if index >= nx:
            out.c[..., 1 + index - nx] = 1.0
        return out

    # -- shape and coefficient access

    @property
    def shape(self) -> tuple:
        return self.c.shape[:-1]

    @property
    def ndim(self) -> int:
        return self.c.ndim - 1

    @property
    def value(self):
        """The value: a float for a scalar jet, else an array of `shape`."""
        return _scalar_or_array(self.c[..., 0])

    def __getitem__(self, idx) -> "Jet":
        """Index the tensor axes; the coefficient axis is kept whole."""
        if not isinstance(idx, tuple):
            idx = (idx,)
        return Jet(self.nvars, self.order, self.c[idx + (slice(None),)], self.xcap)

    def coefficient(self, alpha: Sequence[int]):
        """Raw series coefficient c_alpha."""
        idx = self._table.index.get(tuple(alpha))
        if idx is None:
            raise ValueError(
                f"multi-index {tuple(alpha)} outside order {self.order} (x-cap {self.xcap})"
            )
        return _scalar_or_array(self.c[..., idx])

    def partial(self, alpha: Sequence[int]):
        """Mixed partial derivative value: c_alpha * alpha!."""
        fact = 1.0
        for a in alpha:
            fact *= math.factorial(a)
        return self.coefficient(alpha) * fact

    def deriv(self, var: int) -> "Jet":
        """Partial derivative with respect to one chart variable, one order lower."""
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        src, mult, xcap = self._table.derivs_map((var,), 1)
        return Jet(self.nvars, self.order - 1, self.c.take(src[0], axis=-1) * mult[0], xcap)

    def derivs(self, vars: Sequence[int], count: int = 1) -> "Jet":
        """All count-fold partials along the chart variables ``vars``.

        Each derivative appends one trailing tensor axis over ``vars`` and
        lowers the order by one, and the x-cap by one when ``vars`` holds a
        base variable: ``f.derivs(range(n, 2 * n))[..., k]`` is
        ``f.deriv(n + k)`` for every component at once.  Raises ValueError
        past the order, or past the x-cap along a base variable.
        """
        if self.order < count:
            raise ValueError(f"cannot differentiate an order-{self.order} jet {count} times")
        src, mult, xcap = self._table.derivs_map(tuple(vars), count)
        return Jet(self.nvars, self.order - count, self.c.take(src, axis=-1) * mult, xcap)

    def truncate(self, order: int, xcap: int = None) -> "Jet":
        """The jet at a lower total order and, optionally, a lower x-cap."""
        xcap = min(self.xcap if xcap is None else xcap, order)
        if order > self.order or xcap > self.xcap:
            raise ValueError("cannot extend a jet to a higher order or x-cap")
        if order == self.order and xcap == self.xcap:
            return self
        tab = _tables(self.nvars, order, xcap)
        return Jet(self.nvars, order, _on(self, tab, True), xcap)

    # -- ring operations (broadcasting over the tensor axes)

    def _shift(self, other, sign: float):
        """self + sign * other for a number or an array of numbers."""
        if _is_number(other):
            c = self.c.copy()
        elif isinstance(other, np.ndarray):
            shape = np.broadcast_shapes(self.shape, other.shape)
            c = np.array(np.broadcast_to(self.c, shape + self.c.shape[-1:]))
        else:
            return NotImplemented
        c[..., 0] += sign * other
        return Jet(self.nvars, self.order, c, self.xcap)

    def __add__(self, other):
        if isinstance(other, Jet):
            tab = _common_table(self, other)
            return Jet(self.nvars, tab.order, _on(self, tab, True) + _on(other, tab, True), tab.xcap)
        return self._shift(other, 1.0)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.nvars, self.order, -self.c, self.xcap)

    def __sub__(self, other):
        if isinstance(other, Jet):
            tab = _common_table(self, other)
            return Jet(self.nvars, tab.order, _on(self, tab, True) - _on(other, tab, True), tab.xcap)
        return self._shift(other, -1.0)

    def __rsub__(self, other):
        return (-self)._shift(other, 1.0)

    def __mul__(self, other):
        if isinstance(other, Jet):
            tab = _common_table(self, other)
            ia, ib, starts = tab.mul
            prod = _on(self, tab).take(ia, axis=-1) * _on(other, tab).take(ib, axis=-1)
            return Jet(self.nvars, tab.order, np.add.reduceat(prod, starts, axis=-1), tab.xcap)
        if _is_number(other):
            return Jet(self.nvars, self.order, self.c * other, self.xcap)
        if isinstance(other, np.ndarray):
            return Jet(self.nvars, self.order, self.c * other[..., None], self.xcap)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._analytic(_reciprocal_terms)
        if _is_number(other):
            return Jet(self.nvars, self.order, self.c / other, self.xcap)
        return NotImplemented

    def __rtruediv__(self, other):
        if _is_number(other):
            return self._analytic(_reciprocal_terms) * other
        return NotImplemented

    def __pow__(self, expo):
        if isinstance(expo, (int, np.integer)):
            e = int(expo)
            if e < 0:
                return (self ** (-e))._analytic(_reciprocal_terms)
            out = Jet.constant(1.0, self.nvars, self.order, self.xcap)
            base = self
            while e:
                if e & 1:
                    out = out * base
                base = base * base if e > 1 else base
                e >>= 1
            return out
        if _is_number(expo):
            return power(self, float(expo))
        return NotImplemented

    def _analytic(self, terms: Callable) -> "Jet":
        """Compose sum a_k u^k, u = self - self.value (Horner), with [a_k] =
        terms(value, order) taken point by point in C order by float
        arithmetic: a batch agrees bit for bit with its points one by one."""
        f0 = self.c[..., 0]
        rows = np.array([terms(v, self.order) for v in f0.ravel().tolist()])
        series = list(rows.T.reshape((self.order + 1,) + f0.shape))
        u = Jet(self.nvars, self.order, self.c.copy(), self.xcap)
        u.c[..., 0] = 0.0
        out = series[-1]
        for k in range(len(series) - 2, -1, -1):
            out = out * u + series[k]
        if not isinstance(out, Jet):  # order 0 operand
            out = Jet.constant(out, self.nvars, self.order, self.xcap)
        return out

    def __repr__(self):
        shape = f", shape={self.shape}" if self.shape else ""
        cap = f", xcap={self.xcap}" if self.xcap < self.order else ""
        return f"Jet(nvars={self.nvars}, order={self.order}{cap}{shape}, value={self.value!r})"


@lru_cache(maxsize=None)
def _contract_plan(spec: str, is_jet: tuple) -> str:
    """The einsum expression of a contraction: every operand and the output
    lead with an ellipsis over batch axes, and the coefficient axis of every
    jet operand is the trailing letter ``Z``."""
    inputs, out = spec.replace(" ", "").split("->")
    subs = inputs.split(",")
    if len(subs) != len(is_jet):
        raise ValueError(f"spec {spec!r} names {len(subs)} operands, got {len(is_jet)}")
    if sum(is_jet) > 2:
        raise ValueError("contract takes at most two jet operands")
    if not any(is_jet):
        return ",".join("..." + s for s in subs) + f"->...{out}"
    terms = ["..." + s + "Z" if jet else "..." + s for s, jet in zip(subs, is_jet)]
    return ",".join(terms) + f"->...{out}Z"


def contract(spec: str, *operands):
    """Einstein summation over the tensor axes of jets.

    ``spec`` is an einsum subscript string over the tensor axes only, e.g.
    ``contract("ijm,mk->ijk", a, b)`` is the jet of sum_m a[i,j,m] b[m,k];
    leading batch axes of the operands broadcast as in ``...ijm,...mk``.
    With two jets the product table gathers both coefficient axes, einsum
    sums the named indices, and one reduction lands on the output
    coefficients, as in ``*``.  A single jet (a transpose or a trace), or a
    jet with an array of numbers, is linear in the coefficients and needs no
    table.  With arrays of numbers only it is the plain einsum, so a formula
    written with ``contract`` also evaluates on point values.
    """
    is_jet = tuple(isinstance(x, Jet) for x in operands)
    expr = _contract_plan(spec, is_jet)
    if all(is_jet) and len(operands) == 2:
        a, b = operands
        tab = _common_table(a, b)
        ia, ib, starts = tab.mul
        prod = np.einsum(expr, _on(a, tab).take(ia, axis=-1), _on(b, tab).take(ib, axis=-1))
        return Jet(a.nvars, tab.order, np.add.reduceat(prod, starts, axis=-1), tab.xcap)
    if not any(is_jet):
        return np.einsum(expr, *operands)
    ref = operands[is_jet.index(True)]
    arrays = [x.c if jet else x for x, jet in zip(operands, is_jet)]
    return Jet(ref.nvars, ref.order, np.einsum(expr, *arrays), ref.xcap)


def _leaves(items) -> tuple[list, tuple]:
    """Flat leaves and shape of a nested sequence of scalar jets and numbers."""
    if isinstance(items, Jet) or _is_number(items):
        return [items], ()
    parts = [_leaves(x) for x in items]
    inner = parts[0][1] if parts else ()
    if any(shape != inner for _, shape in parts):
        raise ValueError("ragged nested sequence")
    return [leaf for leaves, _ in parts for leaf in leaves], (len(parts),) + inner


def stack(items, nvars: int = None, order: int = None, xcap: int = None) -> Jet:
    """One tensor jet from a nested sequence of scalar jets and numbers.

    Numbers become constants; the jets share one batch shape, whose axes
    lead the result's.  The result has the lowest order and x-cap among the
    jets; ``nvars``, ``order`` and ``xcap`` are read only when no leaf is a jet.
    """
    flat, shape = _leaves(items)
    jets = [x for x in flat if isinstance(x, Jet)]
    batch = jets[0].shape if jets else ()
    if jets:
        nvars, order = jets[0].nvars, min(x.order for x in jets)
        xcap = min(x.xcap for x in jets)
    if nvars is None or order is None:
        raise ValueError("stack needs nvars and order when no leaf is a jet")
    tab = _tables(nvars, order, xcap)
    size = tab.size
    c = np.zeros(batch + (len(flat), size))
    for r, x in enumerate(flat):
        if isinstance(x, Jet):
            if x.nvars != nvars or x.shape != batch:
                raise ValueError("stack takes scalar jets over one variable set and one batch")
            c[..., r, :] = _on(x, tab, True)
        else:
            c[..., r, 0] = x
    return Jet(nvars, order, c.reshape(batch + shape + (size,)), tab.xcap)


# ---------------------------------------------------------------------------
# smooth primitives that accept floats or jets; the Taylor coefficients of
# each at one point's value, for `Jet._analytic`


def _raised(f0: float, r) -> float:
    """f0**r; an overflow, or a negative power of 0, raised as
    EvaluationDomainError naming f0."""
    try:
        return f0**r
    except OverflowError:
        raise EvaluationDomainError(f"power {r} of {f0!r} overflows") from None
    except ZeroDivisionError:
        raise EvaluationDomainError(f"power {r} of {f0!r} divides by zero") from None


def _reciprocal_terms(f0: float, order: int) -> list:
    if f0 == 0.0:
        raise EvaluationDomainError("division by a jet with zero value")
    return [(-1.0) ** k * _raised(f0, -1 - k) for k in range(order + 1)]


def _log_terms(f0: float, order: int) -> list:
    if f0 <= 0:
        raise EvaluationDomainError(f"log of nonpositive value {f0!r}")
    series = [math.log(f0)]
    for k in range(1, order + 1):
        try:
            fk = f0**k
        except OverflowError:  # the term itself is finite: take it from 1/f0
            series.append((-1.0) ** (k + 1) * (1.0 / f0) ** k / k)
            continue
        if fk == 0.0:
            raise EvaluationDomainError(f"log of {f0!r}: its Taylor terms overflow")
        series.append((-1.0) ** (k + 1) / (k * fk))
    return series


def _power_terms(f0: float, order: int, r: float) -> list:
    if f0 <= 0:
        raise EvaluationDomainError(f"power {r} of nonpositive value {f0!r}")
    series = []
    a = _raised(f0, r)
    for k in range(order + 1):
        series.append(a)
        a *= (r - k) / (k + 1) / f0
    return series


def sqrt(z):
    if isinstance(z, Jet):
        return power(z, 0.5)
    if z <= 0:
        raise EvaluationDomainError(f"sqrt of nonpositive value {z!r}")
    return math.sqrt(z)


def exp(z):
    if isinstance(z, Jet):
        return z._analytic(lambda f0, order: [exp(f0) / math.factorial(k) for k in range(order + 1)])
    try:
        return math.exp(z)
    except OverflowError:
        raise EvaluationDomainError(f"exp of {z!r} overflows") from None


def log(z):
    if isinstance(z, Jet):
        return z._analytic(_log_terms)
    return _log_terms(z, 0)[0]


def power(z, r: float):
    """z**r for real r (z > 0 required unless r is a nonnegative integer)."""
    if not isinstance(z, Jet):
        if z <= 0 and not float(r).is_integer():
            raise EvaluationDomainError(f"power {r} of nonpositive value {z!r}")
        return _raised(z, r)
    if float(r).is_integer():
        return z ** int(r)
    return z._analytic(lambda f0, order: _power_terms(f0, order, r))


# ---------------------------------------------------------------------------
# chart points


@dataclass(frozen=True, eq=False)
class ChartPoint:
    """A point of the slit cotangent chart: base coordinates x, momenta p != 0.

    x and p of shape ``(*batch, n)`` hold a batch of points, as the shifted
    points of a finite-difference stencil (`fd_stencil`); ``points()`` lists
    them one by one.
    """

    x: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        p = np.asarray(self.p, dtype=float)
        if x.ndim < 1 or p.shape != x.shape:
            raise ValueError("x and p must be arrays of equal shape (*batch, n)")
        if x.shape[-1] < 2:
            raise ValueError("chart dimension must be at least 2")
        if not (np.isfinite(x).all() and np.isfinite(p).all()):
            raise ValueError("non-finite chart coordinates")
        if not p.any(axis=-1).all():
            raise EvaluationDomainError("momentum p = 0 is outside the slit bundle")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "p", p)

    @property
    def n(self) -> int:
        return self.x.shape[-1]

    @property
    def batch_shape(self) -> tuple:
        """The batch axes: () for one point."""
        return self.x.shape[:-1]

    def points(self) -> list:
        """The points of a batch one by one, in C order; [self] for one point."""
        if not self.batch_shape:
            return [self]
        n = self.n
        return [ChartPoint(x, p) for x, p in zip(self.x.reshape(-1, n), self.p.reshape(-1, n))]

    @property
    def coords(self) -> np.ndarray:
        return np.concatenate([self.x, self.p], axis=-1)

    def key(self) -> tuple:
        return (self.x.tobytes(), self.p.tobytes())

    def __repr__(self):
        return f"ChartPoint(x={self.x.tolist()}, p={self.p.tolist()})"


# ---------------------------------------------------------------------------
# jet evaluation of a scalar field


def jet_eval(f: Callable, at: ChartPoint, order: int, xcap: int = None) -> Jet:
    """Evaluate f(x, p) on coordinate jets, returning its Taylor table at the
    given order and x-cap.

    f receives two lists of jets (x variables first, then p) and must be
    built from arithmetic and the smooth primitives of this module.  For a
    batch of points f is evaluated once, on jets with the batch axes, and a
    constant result is broadcast to the batch.  Overflow in f raises
    EvaluationDomainError: an exp or a power names the value it overflows
    at, any other the first point (in C order) it hit.
    """
    n, nv, batch = at.n, 2 * at.n, at.batch_shape
    xs = [Jet.variable(i, at.x[..., i], nv, order, xcap) for i in range(n)]
    ps = [Jet.variable(n + i, at.p[..., i], nv, order, xcap) for i in range(n)]
    with np.errstate(all="ignore"):
        out = f(xs, ps)
    if _is_number(out):
        out = Jet.constant(np.full(batch, float(out)), nv, order, xcap)
    if not isinstance(out, Jet):
        raise TypeError("field did not evaluate to a jet or number")
    want = order if xcap is None else min(xcap, order)
    if out.xcap > want:  # a field that never read a base variable
        out = out.truncate(out.order, want)
    bad = _first(~np.isfinite(out.c.reshape(batch + (-1,))).all(axis=-1))
    if bad is not None:
        raise EvaluationDomainError(f"non-finite jet coefficients at {ChartPoint(at.x[bad], at.p[bad])!r}")
    return out


# ---------------------------------------------------------------------------
# finite differences


def fd_derivative(
    f: Callable,
    at: ChartPoint,
    dirs: Sequence[int],
    steps: tuple[float, float] = DEFAULT_FD_STEPS,
) -> tuple[float, float]:
    """Iterated central-difference mixed partial with Richardson extrapolation.

    No package code calls it (first partials go through `fd_partial`); it
    stays only while `benchmarks/tracing.py` patches it by name.

    dirs lists chart-variable indices (0..n-1 base, n..2n-1 momentum), one
    entry per derivative, repeats allowed.  Steps are taken relative to the
    coordinate magnitude (absolute below magnitude 1).  Returns the
    extrapolated value and an error estimate combining the two-step
    disagreement with a roundoff floor.
    """
    base = at.coords
    nv = base.size
    h1, h2 = steps
    if not (h1 > h2 > 0):
        raise ValueError("steps must satisfy h1 > h2 > 0")
    dirs = list(dirs)
    for d in dirs:
        if not 0 <= d < nv:
            raise ValueError(f"direction {d} outside chart variables 0..{nv - 1}")

    def evaluate(step: float) -> tuple[float, float, float]:
        h = np.array([step * max(1.0, abs(base[d])) for d in range(nv)])
        stencil: dict[tuple[int, ...], float] = {tuple([0] * nv): 1.0}
        for d in dirs:
            hd = h[d]
            if base[d] + hd == base[d]:
                raise EvaluationDomainError(f"FD step underflow in direction {d}")
            nxt: dict[tuple[int, ...], float] = {}
            for off, c in stencil.items():
                for sgn in (1, -1):
                    o = list(off)
                    o[d] += sgn
                    ot = tuple(o)
                    nxt[ot] = nxt.get(ot, 0.0) + sgn * c / (2.0 * hd)
            stencil = nxt
        total, absc, fmax = 0.0, 0.0, 0.0
        for off, c in stencil.items():
            pt = base + np.array(off) * h
            val = f(pt[: at.n], pt[at.n :])
            if not np.isfinite(val):
                raise EvaluationDomainError(f"non-finite evaluation at offset {off}")
            total += c * float(val)
            absc += abs(c)
            fmax = max(fmax, abs(float(val)))
        return total, absc, fmax

    if not dirs:
        v, _, _ = evaluate(h1)
        return v, 0.0

    d1, _, _ = evaluate(h1)
    d2, absc2, fmax2 = evaluate(h2)
    ratio2 = (h1 / h2) ** 2
    extrap = d2 + (d2 - d1) / (ratio2 - 1.0)
    roundoff = absc2 * _EPS * max(fmax2, 1e-300)
    err = abs(d2 - d1) / (ratio2 - 1.0) + roundoff
    return extrap, err


def _fd_shifts(at: ChartPoint, vars: Sequence[int], steps: Sequence[float]) -> np.ndarray:
    """The signed shifts of the central differences along ``vars``, at
    [v, k, sign]: +-steps[k] * max(1, |coord|), + first.  Raises ValueError
    unless ``steps`` is one positive step or two with h1 > h2 > 0, and
    EvaluationDomainError if a shift is lost to rounding."""
    n = at.n
    for var in vars:
        if not 0 <= var < 2 * n:
            raise ValueError(f"chart variable {var} outside 0..{2 * n - 1}")
    if not ((len(steps) == 1 and steps[0] > 0) or (len(steps) == 2 and steps[0] > steps[1] > 0)):
        raise ValueError("steps must be one step h1 > 0 or two steps h1 > h2 > 0")
    coords = at.coords[list(vars)]
    hh = np.multiply.outer(np.maximum(1.0, np.abs(coords)), steps)
    shifts = np.stack([hh, -hh], axis=-1)
    lost = _first(coords[:, None, None] + shifts == coords[:, None, None])
    if lost is not None:
        raise EvaluationDomainError(f"FD step underflow along chart variable {vars[lost[0]]}")
    return shifts


def fd_stencil(
    at: ChartPoint, vars: Sequence[int], steps: Sequence[float] = DEFAULT_FD_STEPS
) -> ChartPoint:
    """The shifted points of the central differences about one point along
    every chart variable in ``vars``, as one batch of shape (len(vars),
    len(steps), 2): point [v, k, 0] moves chart variable vars[v] by
    +steps[k] * max(1, |coord|), point [v, k, 1] by the same step down."""
    shifts = _fd_shifts(at, vars, steps)
    coords = np.broadcast_to(at.coords, shifts.shape + (2 * at.n,)).copy()
    for v, var in enumerate(vars):
        coords[v, ..., var] += shifts[v]
    n = at.n
    return ChartPoint(coords[..., :n], coords[..., n:])


def fd_combine(
    values, at: ChartPoint, vars: Sequence[int], steps: Sequence[float] = DEFAULT_FD_STEPS
) -> np.ndarray:
    """The partials along ``vars``, at [v, ...], from the values of a
    function at the points of ``fd_stencil(at, vars, steps)``, laid out on
    its batch axes: the central difference at each step, Richardson
    extrapolated over two steps (h1 > h2), the plain difference for one.
    Raises EvaluationDomainError if any value is not finite, naming the
    first such point in stencil order."""
    values = np.asarray(values)
    shifts = _fd_shifts(at, vars, steps)
    bad = _first(~np.isfinite(values).reshape(shifts.shape + (-1,)).all(axis=-1))
    if bad is not None:
        raise EvaluationDomainError(
            f"non-finite evaluation at step {shifts[bad]:+.3e} "
            f"along chart variable {vars[bad[0]]}"
        )
    tail = (1,) * (values.ndim - shifts.ndim)
    hh = shifts[..., 0].reshape(shifts.shape[:-1] + tail)
    diffs = (values[:, :, 0] - values[:, :, 1]) / (2.0 * hh)
    if len(steps) == 1:
        return diffs[:, 0]
    ratio = (steps[0] / steps[1]) ** 2
    return (ratio * diffs[:, 1] - diffs[:, 0]) / (ratio - 1.0)


def fd_partial(
    f: Callable, at: ChartPoint, vars: Sequence[int], steps: Sequence[float] = DEFAULT_FD_STEPS
) -> np.ndarray:
    """The partials of an array-valued ``f(ChartPoint)`` along the chart
    variables ``vars`` (0..n-1 base, n..2n-1 momentum), at [v, ...]: ``f``
    is called one point at a time at the points of ``fd_stencil(at, vars,
    steps)``, in their order, and `fd_combine` turns the values into the
    partials.  Raises EvaluationDomainError if any value is not finite."""
    stencil = fd_stencil(at, vars, steps)
    values = np.array([f(pt) for pt in stencil.points()])
    return fd_combine(values.reshape(stencil.batch_shape + values.shape[1:]), at, vars, steps)


# ---------------------------------------------------------------------------
# guarded dense inversion


def _worst_pivot(m: np.ndarray) -> tuple[float, int]:
    """Partial-pivot elimination, reporting the smallest pivot magnitude."""
    a = np.array(m, dtype=float)
    k = a.shape[0]
    worst = (math.inf, -1)
    for col in range(k):
        r = col + int(np.argmax(np.abs(a[col:, col])))
        if r != col:
            a[[col, r]] = a[[r, col]]
        piv = abs(a[col, col])
        if piv < worst[0]:
            worst = (piv, col)
        if piv == 0.0:
            break
        a[col + 1 :] -= np.outer(a[col + 1 :, col] / a[col, col], a[col])
    return worst


def _first(bad: np.ndarray):
    """The C-order position of the first True entry, or None."""
    hits = np.flatnonzero(bad)
    return np.unravel_index(hits[0], bad.shape) if hits.size else None


def invert(m: np.ndarray) -> np.ndarray:
    """Invert a symmetric matrix with symmetry and conditioning guards.

    A stack of matrices (leading batch axes) is inverted matrix by matrix,
    each with its own guards; the first matrix, in C order, that fails one
    raises, naming its position in the stack."""
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError("invert expects a square matrix")
    batch = m.shape[:-2]

    def where(idx) -> str:
        return f" (matrix {tuple(map(int, idx))} of the stack)" if batch else ""

    scale = np.maximum(np.abs(m).max(axis=(-2, -1)), 1.0)
    bad = _first(np.abs(m - np.swapaxes(m, -1, -2)).max(axis=(-2, -1)) > 1e-10 * scale)
    if bad is not None:
        raise ValueError("matrix is not symmetric within 1e-10 relative" + where(bad))
    cond = np.linalg.cond(m)
    bad = _first(~np.isfinite(cond) | (cond > CONDITION_BOUND))
    if bad is not None:
        piv, idx = _worst_pivot(m[bad])
        raise ConditioningError(
            f"condition estimate {float(cond[bad]):.3e} exceeds bound {CONDITION_BOUND:.1e} "
            f"(worst pivot {piv:.3e} at elimination step {idx})" + where(bad)
        )
    inv = np.linalg.inv(m)
    residual = np.abs(m @ inv - np.eye(m.shape[-1])).max(axis=(-2, -1))
    bad = _first(residual > 1e-10)
    if bad is not None:
        piv, idx = _worst_pivot(m[bad])
        raise ConditioningError(
            f"inverse residual {float(residual[bad]):.3e} exceeds 1e-10 "
            f"(worst pivot {piv:.3e} at elimination step {idx})" + where(bad)
        )
    return inv
