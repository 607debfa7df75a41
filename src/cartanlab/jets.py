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

Layout: the coefficients of a jet are one float array `c` of shape
`(*shape, ncoef)`.  The leading axes are the tensor axes (`shape == ()` for a
scalar); the last axis runs over the multi-indices in graded order, so
truncation is a slice and `c[..., 0]` is the value.  Every operation acts on
all components at once:

* `+`, `-` and `*` broadcast over the leading axes.  A product gathers both
  coefficient axes through the product table of `_Tables.mul`, multiplies,
  and sums each output coefficient with one `np.add.reduceat`; the table is
  sorted by output index when it is built, so the sums are contiguous runs.
* `contract(spec, a, b)` is an einsum over the leading axes
  (`contract("ijm,mk->ijk", a, b)`) taken before the same reduction, so an
  index contraction of two jet tensors costs one gather, one einsum and one
  reduction.
* `deriv` and `derivs` are gathers on the last axis; indexing selects
  leading axes; `stack` builds a tensor from scalar jets and numbers.

`fd_derivative` provides the independent oracle: iterated central differences
at two step sizes with Richardson extrapolation and an honest error estimate
(two-step disagreement plus a roundoff floor).  `fd_partial` is the
first-order helper every FD oracle of the package differentiates with: the
central difference of an array-valued function of a chart point along one
chart variable, Richardson extrapolated over two steps (or the plain
difference for one step).
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
    """Precomputed index tables for one (nvars, order) pair.

    Multi-indices are enumerated degree by degree (graded order), so the
    table of a lower order is a prefix of the table of a higher order and
    truncation is a slice.
    """

    def __init__(self, nvars: int, order: int):
        self.nvars = nvars
        self.order = order
        exps: list[tuple[int, ...]] = []
        sizes = [0]
        for deg in range(order + 1):
            for combo in combinations_with_replacement(range(nvars), deg):
                e = [0] * nvars
                for v in combo:
                    e[v] += 1
                exps.append(tuple(e))
            sizes.append(len(exps))
        self.exps = exps
        self.size = len(exps)
        # cumulative size per degree: coeffs[: sizes[d + 1]] holds degree <= d
        self.sizes = sizes
        self.index = {e: i for i, e in enumerate(exps)}
        self.degree = np.array([sum(e) for e in exps], dtype=np.int64)
        # each multi-index as one integer, its exponents read as digits in
        # base order + 1; a sum of two multi-indices within the order adds
        # their codes without a carry
        self._radix = (order + 1) ** np.arange(nvars, dtype=np.int64)
        self._codes = np.array(exps, dtype=np.int64).reshape(self.size, nvars) @ self._radix
        self._by_code = np.argsort(self._codes, kind="stable")
        self._mul = None
        self._derivs: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

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
            iout = self._lookup(self._codes[ia] + self._codes[ib])
            by_out = np.argsort(iout, kind="stable")
            iout = iout[by_out]
            starts = np.flatnonzero(np.r_[True, iout[1:] != iout[:-1]])
            self._mul = (ia[by_out], ib[by_out], starts)
        return self._mul

    def derivs_map(self, vars: tuple, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Index map realizing all count-fold partials along ``vars``.

        ``src`` and ``mult`` have shape ``(len(vars),) * count + (lower,)``,
        where ``lower`` is the table size ``count`` orders down:
        ``c[..., src] * mult`` holds the partials, one trailing axis per
        derivative.  The multipliers are exact integers, so the result is
        exactly symmetric in its derivative axes.
        """
        key = (vars, count)
        got = self._derivs.get(key)
        if got is None:
            lower = _tables(self.nvars, self.order - count)
            low = np.array(lower.exps, dtype=np.int64).reshape(lower.size, self.nvars)
            bump = np.zeros((len(vars),) * count + (self.nvars,), dtype=np.int64)
            for combo in product(range(len(vars)), repeat=count):
                for a in combo:
                    bump[combo + (vars[a],)] += 1
            bumped = bump[..., None, :] + low
            src = self._lookup(bumped @ self._radix)
            fact = np.array([math.factorial(k) for k in range(self.order + 1)], dtype=float)
            mult = np.prod(fact[bumped], axis=-1) / np.prod(fact[low], axis=-1)
            got = self._derivs[key] = (src, mult)
        return got

    def deriv_map(self, var: int) -> tuple[np.ndarray, np.ndarray]:
        """Index map realizing d/d(var): tables of order-1 jets index into us."""
        src, mult = self.derivs_map((var,), 1)
        return src[0], mult[0]


@lru_cache(maxsize=None)
def _tables(nvars: int, order: int) -> _Tables:
    if nvars < 1 or order < 0:
        raise ValueError("need nvars >= 1 and order >= 0")
    return _Tables(nvars, order)


def _is_number(v) -> bool:
    return isinstance(v, (int, float, np.integer, np.floating))


def _common_order(a: "Jet", b: "Jet") -> int:
    if a.nvars != b.nvars:
        raise ValueError("jets over different variable sets")
    return min(a.order, b.order)


def _scalar_or_array(v: np.ndarray):
    return float(v) if v.ndim == 0 else v.copy()


# ---------------------------------------------------------------------------
# jets


class Jet:
    """Taylor coefficients of a scalar or a tensor about a point, truncated
    at `order`.

    c[..., i] is the series coefficient c_alpha for the i-th multi-index, so
    the mixed partial for alpha is c_alpha * alpha!; the leading axes of c
    are the tensor axes (none for a scalar).
    """

    __slots__ = ("nvars", "order", "c")
    # numpy scalars and arrays defer mixed arithmetic to the jet's operators
    __array_ufunc__ = None

    def __init__(self, nvars: int, order: int, coeffs: np.ndarray):
        self.nvars = nvars
        self.order = order
        self.c = coeffs

    # -- constructors

    @classmethod
    def constant(cls, value, nvars: int, order: int) -> "Jet":
        """A constant jet; an array value gives a tensor of constants."""
        value = np.asarray(value, dtype=float)
        c = np.zeros(value.shape + (_tables(nvars, order).size,))
        c[..., 0] = value
        return cls(nvars, order, c)

    @classmethod
    def variable(cls, index: int, value: float, nvars: int, order: int) -> "Jet":
        if order < 1:
            raise ValueError("coordinate jets need order >= 1")
        c = np.zeros(_tables(nvars, order).size)
        c[0] = value
        c[1 + index] = 1.0
        return cls(nvars, order, c)

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
        return Jet(self.nvars, self.order, self.c[idx + (slice(None),)])

    def coefficient(self, alpha: Sequence[int]):
        """Raw series coefficient c_alpha."""
        tab = _tables(self.nvars, self.order)
        idx = tab.index.get(tuple(alpha))
        if idx is None:
            raise ValueError(f"multi-index {tuple(alpha)} outside order {self.order}")
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
        src, mult = _tables(self.nvars, self.order).deriv_map(var)
        return Jet(self.nvars, self.order - 1, self.c.take(src, axis=-1) * mult)

    def derivs(self, vars: Sequence[int], count: int = 1) -> "Jet":
        """All count-fold partials along the chart variables ``vars``.

        Each derivative appends one trailing tensor axis over ``vars`` and
        lowers the order by one: ``f.derivs(range(n, 2 * n))[..., k]`` is
        ``f.deriv(n + k)`` for every component at once.
        """
        if self.order < count:
            raise ValueError(f"cannot differentiate an order-{self.order} jet {count} times")
        src, mult = _tables(self.nvars, self.order).derivs_map(tuple(vars), count)
        return Jet(self.nvars, self.order - count, self.c.take(src, axis=-1) * mult)

    def truncate(self, order: int) -> "Jet":
        if order > self.order:
            raise ValueError("cannot extend a jet to higher order")
        if order == self.order:
            return self
        return Jet(self.nvars, order, self.c[..., : _tables(self.nvars, order).size])

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
        return Jet(self.nvars, self.order, c)

    def __add__(self, other):
        if isinstance(other, Jet):
            k = _common_order(self, other)
            t = _tables(self.nvars, k).size
            return Jet(self.nvars, k, self.c[..., :t] + other.c[..., :t])
        return self._shift(other, 1.0)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.nvars, self.order, -self.c)

    def __sub__(self, other):
        if isinstance(other, Jet):
            k = _common_order(self, other)
            t = _tables(self.nvars, k).size
            return Jet(self.nvars, k, self.c[..., :t] - other.c[..., :t])
        return self._shift(other, -1.0)

    def __rsub__(self, other):
        return (-self)._shift(other, 1.0)

    def __mul__(self, other):
        if isinstance(other, Jet):
            k = _common_order(self, other)
            ia, ib, starts = _tables(self.nvars, k).mul
            prod = self.c.take(ia, axis=-1) * other.c.take(ib, axis=-1)
            return Jet(self.nvars, k, np.add.reduceat(prod, starts, axis=-1))
        if _is_number(other):
            return Jet(self.nvars, self.order, self.c * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._reciprocal()
        if _is_number(other):
            return Jet(self.nvars, self.order, self.c / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if _is_number(other):
            return self._reciprocal() * other
        return NotImplemented

    def __pow__(self, expo):
        if isinstance(expo, (int, np.integer)):
            e = int(expo)
            if e < 0:
                return (self ** (-e))._reciprocal()
            out = Jet.constant(1.0, self.nvars, self.order)
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

    def _analytic(self, series: Sequence[float]) -> "Jet":
        """Compose a power series sum a_k u^k with u = self - self.value (Horner)."""
        u = Jet(self.nvars, self.order, self.c.copy())
        u.c[..., 0] = 0.0
        out = series[-1]
        for k in range(len(series) - 2, -1, -1):
            out = out * u + series[k]
        if not isinstance(out, Jet):  # order 0 operand
            out = Jet.constant(out, self.nvars, self.order)
        return out

    def _reciprocal(self) -> "Jet":
        f0 = self.value
        if f0 == 0.0:
            raise EvaluationDomainError("division by a jet with zero value")
        series = [(-1.0) ** k * f0 ** (-1 - k) for k in range(self.order + 1)]
        return self._analytic(series)

    def __repr__(self):
        shape = f", shape={self.shape}" if self.shape else ""
        return f"Jet(nvars={self.nvars}, order={self.order}{shape}, value={self.value!r})"


@lru_cache(maxsize=None)
def _contract_plan(spec: str, is_jet: tuple) -> str:
    """The einsum expression of a contraction, with the coefficient axis
    carried along every jet operand as a trailing ellipsis."""
    inputs, out = spec.replace(" ", "").split("->")
    subs = inputs.split(",")
    if len(subs) != len(is_jet):
        raise ValueError(f"spec {spec!r} names {len(subs)} operands, got {len(is_jet)}")
    if sum(is_jet) not in (1, 2):
        raise ValueError("contract needs one or two jet operands")
    terms = [s + "..." if jet else s for s, jet in zip(subs, is_jet)]
    return ",".join(terms) + f"->{out}..."


def contract(spec: str, *operands) -> Jet:
    """Einstein summation over the tensor axes of jets.

    ``spec`` is an einsum subscript string over the tensor axes only, e.g.
    ``contract("ijm,mk->ijk", a, b)`` is the jet of sum_m a[i,j,m] b[m,k].
    With two jets the product table gathers both coefficient axes, einsum
    sums the named indices, and one reduction lands on the output
    coefficients, as in ``*``.  A single jet (a transpose or a trace), or a
    jet with an array of numbers, is linear in the coefficients and needs no
    table.
    """
    is_jet = tuple(isinstance(x, Jet) for x in operands)
    expr = _contract_plan(spec, is_jet)
    if all(is_jet) and len(operands) == 2:
        a, b = operands
        k = _common_order(a, b)
        ia, ib, starts = _tables(a.nvars, k).mul
        prod = np.einsum(expr, a.c.take(ia, axis=-1), b.c.take(ib, axis=-1))
        return Jet(a.nvars, k, np.add.reduceat(prod, starts, axis=-1))
    ref = operands[is_jet.index(True)]
    arrays = [x.c if jet else x for x, jet in zip(operands, is_jet)]
    return Jet(ref.nvars, ref.order, np.einsum(expr, *arrays))


def _leaves(items) -> tuple[list, tuple]:
    """Flat leaves and shape of a nested sequence of scalar jets and numbers."""
    if isinstance(items, Jet) or _is_number(items):
        return [items], ()
    parts = [_leaves(x) for x in items]
    inner = parts[0][1] if parts else ()
    if any(shape != inner for _, shape in parts):
        raise ValueError("ragged nested sequence")
    return [leaf for leaves, _ in parts for leaf in leaves], (len(parts),) + inner


def stack(items, nvars: int = None, order: int = None) -> Jet:
    """One tensor jet from a nested sequence of scalar jets and numbers.

    Numbers become constants.  The result has the lowest order among the
    jets; ``nvars`` and ``order`` are read only when no leaf is a jet.
    """
    flat, shape = _leaves(items)
    jets = [x for x in flat if isinstance(x, Jet)]
    if jets:
        nvars, order = jets[0].nvars, min(x.order for x in jets)
    if nvars is None or order is None:
        raise ValueError("stack needs nvars and order when no leaf is a jet")
    size = _tables(nvars, order).size
    c = np.zeros((len(flat), size))
    for r, x in enumerate(flat):
        if isinstance(x, Jet):
            if x.nvars != nvars or x.shape:
                raise ValueError("stack takes scalar jets over one variable set")
            c[r] = x.c[:size]
        else:
            c[r, 0] = x
    return Jet(nvars, order, c.reshape(shape + (size,)))


# ---------------------------------------------------------------------------
# smooth primitives that accept floats or jets


def sqrt(z):
    if isinstance(z, Jet):
        return power(z, 0.5)
    if z <= 0:
        raise EvaluationDomainError(f"sqrt of nonpositive value {z!r}")
    return math.sqrt(z)


def exp(z):
    if isinstance(z, Jet):
        e0 = math.exp(z.value)
        series = [e0 / math.factorial(k) for k in range(z.order + 1)]
        return z._analytic(series)
    return math.exp(z)


def log(z):
    if isinstance(z, Jet):
        f0 = z.value
        if f0 <= 0:
            raise EvaluationDomainError(f"log of nonpositive value {f0!r}")
        series = [math.log(f0)]
        series += [(-1.0) ** (k + 1) / (k * f0**k) for k in range(1, z.order + 1)]
        return z._analytic(series)
    if z <= 0:
        raise EvaluationDomainError(f"log of nonpositive value {z!r}")
    return math.log(z)


def power(z, r: float):
    """z**r for real r (z > 0 required unless r is a nonnegative integer)."""
    if not isinstance(z, Jet):
        if z <= 0 and not float(r).is_integer():
            raise EvaluationDomainError(f"power {r} of nonpositive value {z!r}")
        return z**r
    if float(r).is_integer():
        return z ** int(r)
    f0 = z.value
    if f0 <= 0:
        raise EvaluationDomainError(f"power {r} of nonpositive value {f0!r}")
    series = []
    a = f0**r
    for k in range(z.order + 1):
        series.append(a)
        a *= (r - k) / (k + 1) / f0
    return z._analytic(series)


# ---------------------------------------------------------------------------
# chart points


@dataclass(frozen=True, eq=False)
class ChartPoint:
    """A point of the slit cotangent chart: base coordinates x, momenta p != 0."""

    x: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        p = np.asarray(self.p, dtype=float)
        if x.ndim != 1 or p.shape != x.shape:
            raise ValueError("x and p must be 1-d arrays of equal length")
        if x.size < 2:
            raise ValueError("chart dimension must be at least 2")
        if not (np.isfinite(x).all() and np.isfinite(p).all()):
            raise ValueError("non-finite chart coordinates")
        if float(np.linalg.norm(p)) == 0.0:
            raise EvaluationDomainError("momentum p = 0 is outside the slit bundle")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "p", p)

    @property
    def n(self) -> int:
        return self.x.size

    @property
    def coords(self) -> np.ndarray:
        return np.concatenate([self.x, self.p])

    def key(self) -> tuple:
        return (self.x.tobytes(), self.p.tobytes())

    def __repr__(self):
        return f"ChartPoint(x={self.x.tolist()}, p={self.p.tolist()})"


# ---------------------------------------------------------------------------
# jet evaluation of a scalar field


def jet_eval(f: Callable, at: ChartPoint, order: int) -> Jet:
    """Evaluate f(x, p) on coordinate jets, returning its Taylor table.

    f receives two lists of jets (x variables first, then p) and must be
    built from arithmetic and the smooth primitives of this module.
    """
    n = at.n
    nv = 2 * n
    xs = [Jet.variable(i, at.x[i], nv, order) for i in range(n)]
    ps = [Jet.variable(n + i, at.p[i], nv, order) for i in range(n)]
    out = f(xs, ps)
    if _is_number(out):
        out = Jet.constant(float(out), nv, order)
    if not isinstance(out, Jet):
        raise TypeError("field did not evaluate to a jet or number")
    if not np.isfinite(out.c).all():
        raise EvaluationDomainError("non-finite jet coefficients at " + repr(at))
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


def fd_partial(
    f: Callable, at: ChartPoint, var: int, steps: Sequence[float] = DEFAULT_FD_STEPS
):
    """Central difference of an array-valued ``f(ChartPoint)`` along the chart
    variable ``var`` (0..n-1 base, n..2n-1 momentum).

    Each step is scaled by ``max(1, |coord|)``.  Two steps (h1 > h2) give the
    Richardson-extrapolated difference; a one-element ``steps`` gives the
    plain central difference at that step.  Raises EvaluationDomainError if
    any stencil value is not finite.
    """
    base = at.coords
    n = at.n
    if not 0 <= var < 2 * n:
        raise ValueError(f"chart variable {var} outside 0..{2 * n - 1}")
    if len(steps) not in (1, 2):
        raise ValueError("steps must hold one or two step sizes")
    scale = max(1.0, abs(base[var]))

    def value(shift: float):
        coords = base.copy()
        coords[var] += shift
        out = f(ChartPoint(coords[:n], coords[n:]))
        if not np.all(np.isfinite(out)):
            raise EvaluationDomainError(
                f"non-finite evaluation at step {shift:+.3e} along chart variable {var}"
            )
        return out

    diffs = []
    for h in steps:
        hh = h * scale
        diffs.append((value(hh) - value(-hh)) / (2.0 * hh))
    if len(diffs) == 1:
        return diffs[0]
    ratio = (steps[0] / steps[1]) ** 2
    return (ratio * diffs[1] - diffs[0]) / (ratio - 1.0)


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


def invert(m: np.ndarray, cond_bound: float = CONDITION_BOUND) -> np.ndarray:
    """Invert a symmetric matrix with symmetry and conditioning guards."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("invert expects a square matrix")
    scale = max(float(np.max(np.abs(m))), 1.0)
    if float(np.max(np.abs(m - m.T))) > 1e-10 * scale:
        raise ValueError("matrix is not symmetric within 1e-10 relative")
    cond = float(np.linalg.cond(m))
    if not np.isfinite(cond) or cond > cond_bound:
        piv, idx = _worst_pivot(m)
        raise ConditioningError(
            f"condition estimate {cond:.3e} exceeds bound {cond_bound:.1e} "
            f"(worst pivot {piv:.3e} at elimination step {idx})"
        )
    inv = np.linalg.inv(m)
    residual = float(np.max(np.abs(m @ inv - np.eye(m.shape[0]))))
    if residual > 1e-10:
        piv, idx = _worst_pivot(m)
        raise ConditioningError(
            f"inverse residual {residual:.3e} exceeds 1e-10 "
            f"(worst pivot {piv:.3e} at elimination step {idx})"
        )
    return inv
