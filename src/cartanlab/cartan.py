"""Cartan structures: a dimension plus a positive 2-homogeneous Hamiltonian
K^2(x, p) on the slit cotangent chart.  The tensors derived from it
(fundamental tensor, its inverse, distinguished momentum vector, energy,
Cartan torsion tensor and its mean trace) are attributes of
`geometry.PointGeometry`.

Built-in families:
  * flat: K^2 = sum p_i^2 (Euclidean dual).
  * conformal: base metric delta_ij / (1 + (c/4)|x|^2)^2, the one-chart model
    of constant base curvature c.
  * riemannian_dual: K^2 = a^ij(x) p_i p_j for a user base metric a_ij.
  * randers_dual: K = sqrt(a^ij p_i p_j) + b^i p_i, the simplest structure
    whose Cartan tensor does not vanish.
  * expression_structure: K^2 parsed from a whitelisted arithmetic expression
    over x1..xn, p1..pn.
"""
from __future__ import annotations

import ast
import operator
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import EvaluationDomainError, RegularityError
from .geometry import jet_mat_inv
from .jets import ChartPoint, Jet, contract, exp, invert, log, power, sqrt, stack

__all__ = [
    "CartanStructure",
    "flat_structure",
    "conformal_structure",
    "riemannian_dual",
    "randers_dual",
    "expression_structure",
    "parse_scalar_expression",
    "sample_points",
    "chart_box_probes",
    "DEFAULT_P_NORM",
]

DEFAULT_P_NORM = (0.5, 2.0)


@dataclass(frozen=True, eq=False)
class CartanStructure:
    """A Hamiltonian structure on the slit cotangent chart.

    k2 maps two sequences (x coordinates, p coordinates) of jets or floats to
    K^2(x, p); it must be built from arithmetic and the smooth primitives so
    jets flow through it.  constant_curvature records the horizontal constant
    c when the family guarantees one (None otherwise); is_riemannian marks
    structures whose fundamental tensor is independent of p.
    """

    dim: int
    k2: Callable
    label: str
    admissible: Callable = field(default=lambda pt: True)
    x_box: float = 1.0
    constant_curvature: Optional[float] = None
    is_riemannian: bool = False

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("structures need dimension >= 2")

    def k2_values(self, x: np.ndarray, p: np.ndarray) -> float:
        """Plain float evaluation of K^2 (used by the FD oracles)."""
        out = self.k2(list(map(float, x)), list(map(float, p)))
        return out.value if isinstance(out, Jet) else float(out)

    def __repr__(self):
        return f"CartanStructure({self.label!r}, dim={self.dim})"


def chart_box_probes(n: int, x_box: float) -> list:
    """The probe grid of the chart box [-x_box, x_box]^n: the origin, the
    2n face centres and the interior point 0.6 x_box (1, ..., 1)."""
    faces = [np.where(np.arange(n) == i, s, 0.0) for s in (-x_box, x_box) for i in range(n)]
    return [np.zeros(n), *faces, np.full(n, 0.6 * x_box)]


# ---------------------------------------------------------------------------
# built-in families


def flat_structure(n: int = 2) -> CartanStructure:
    def k2(xs, ps):
        return sum(q * q for q in ps)

    return CartanStructure(
        dim=n,
        k2=k2,
        label=f"flat-{n}d",
        x_box=1.0,
        constant_curvature=0.0,
        is_riemannian=True,
    )


def conformal_structure(n: int = 2, c: float = -1.0) -> CartanStructure:
    """Constant-curvature Riemannian dual built on the conformally flat base
    metric a_ij = delta_ij/(1+(c/4)|x|^2)^2, whose sectional curvature is c
    (c=+1 is the unit sphere in stereographic coordinates, c=-1 a hyperbolic
    ball model).

    The same constant c governs the horizontal curvature of the dual space:
    R_kij = c (g_jk p_i - g_ik p_j) in the orientation where
    [delta_i, delta_j] = R_kij pdot^k (verified against a finite-difference
    route in the tests).  The chart box keeps the conformal factor strictly
    positive for c < 0.
    """

    def k2(xs, ps):
        r2 = sum(q * q for q in xs)
        phi = 1.0 + (c / 4.0) * r2
        return phi * phi * sum(q * q for q in ps)

    def admissible(pt):
        return 1.0 + (c / 4.0) * float(pt.x @ pt.x) > 0.1

    return CartanStructure(
        dim=n,
        k2=k2,
        label=f"conformal-{n}d-c{c:+g}",
        admissible=admissible,
        x_box=0.9,
        constant_curvature=c,
        is_riemannian=True,
    )


def _as_matrix_fn(a, n):
    """The base metric as a function of x; a constant one (an array, or None
    for the identity) becomes a private read-only copy."""
    if callable(a):
        return a
    arr = np.eye(n) if a is None else np.array(a, dtype=float)
    if arr.shape != (n, n):
        raise ValueError(f"base metric must be {n}x{n}, got {arr.shape}")
    arr.setflags(write=False)
    return lambda xs: arr


def _as_vector_fn(b, n):
    if b is None:
        return lambda xs: np.zeros(n)
    if callable(b):
        return b
    arr = np.asarray(b, dtype=float)
    if arr.shape != (n,):
        raise ValueError(f"drift vector must have length {n}, got {arr.shape}")
    return lambda xs: arr


def _quadratic_dual(a_down, n):
    """K^2 = a^ij(x) p_i p_j as a jet-capable field.

    A constant base metric is inverted once, by its first evaluation; one
    that fails the guards of `jets.invert` raises at every evaluation, as a
    varying one does.
    """
    a_fn = _as_matrix_fn(a_down, n)
    kept = []  # the guarded inverse of a constant base metric

    def float_inverse(a):
        if callable(a_down):
            return invert(a)
        if not kept:
            kept.append(invert(a))
        return kept[0]

    def k2(xs, ps):
        a = a_fn(xs)
        if not isinstance(ps[0], Jet):  # plain point values
            p = np.asarray(ps, dtype=float)
            return float(p @ float_inverse(a) @ p)
        p = stack(ps)
        if isinstance(a, np.ndarray) and a.dtype.kind == "f":
            aup = float_inverse(a)  # constant coefficients: the float inverse is exact
        else:
            aup = jet_mat_inv(stack(a, p.nvars, p.order, p.xcap))
        return contract("i,i->", p, contract("ij,j->i", aup, p))

    return k2


def riemannian_dual(a_down=None, n: int = 2, label: str = None) -> CartanStructure:
    """Structure with K^2 = a^ij(x) p_i p_j; its Cartan tensor vanishes."""
    return CartanStructure(
        dim=n,
        k2=_quadratic_dual(a_down, n),
        label=label or f"riemannian-{n}d",
        is_riemannian=True,
    )


def randers_dual(
    a_down=None,
    b_up=None,
    n: int = 2,
    label: str = None,
    x_box: float = 1.0,
) -> CartanStructure:
    """K = sqrt(a^ij p_i p_j) + b^i p_i with drift strictly inside the unit ball.

    With constant coefficients the structure is locally Minkowski: its
    fundamental tensor depends on p but not on x, so the nonlinear connection
    vanishes while the Cartan tensor does not.
    """
    if b_up is None and a_down is None:
        b_up = np.zeros(n)
        b_up[0] = 0.3
    a_fn = _as_matrix_fn(a_down, n)
    b_fn = _as_vector_fn(b_up, n)

    # regularity probe: |b|_a < 1 on a grid of the chart box
    for x in chart_box_probes(n, x_box):
        a = np.asarray(a_fn(list(x)), dtype=float)
        b = np.asarray(b_fn(list(x)), dtype=float)
        norm2 = float(b @ a @ b)
        if norm2 >= 1.0 - 1e-9:
            raise RegularityError(
                f"drift norm |b|_a = {np.sqrt(norm2):.6f} >= 1 at x = {x.tolist()}"
            )

    quad = _quadratic_dual(a_down, n)

    def k2(xs, ps):
        alpha2 = quad(xs, ps)
        b = b_fn(xs)
        drift = None
        for i in range(n):
            t = b[i] * ps[i]
            drift = t if drift is None else drift + t
        k = sqrt(alpha2) + drift
        return k * k

    constant = not callable(a_down) and not callable(b_up)
    return CartanStructure(
        dim=n,
        k2=k2,
        label=label or f"randers-{n}d",
        x_box=x_box,
        constant_curvature=0.0 if constant else None,
        is_riemannian=False,
    )


# ---------------------------------------------------------------------------
# expression-defined structures

def _divide(a, b):
    """a / b; division by the number 0 raises EvaluationDomainError, as
    division by a jet whose value is 0 does."""
    if isinstance(b, (int, float)) and b == 0:
        raise EvaluationDomainError("division by zero")
    return a / b


_CALLS = {"sqrt": (sqrt, 1), "exp": (exp, 1), "log": (log, 1), "pow": (power, 2)}
_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul, ast.Div: _divide, ast.Pow: power}

#: the deepest node an expression may hold (the root is at depth 1; a chain
#: of 950 terms a*b + c*d + ... is depth 951).  The tree is checked, built
#: and evaluated with explicit stacks, so the bound does not depend on the
#: caller's stack; it stops a chain well before Python's own parser does.
MAX_EXPRESSION_DEPTH = 955


def _operation(node, allowed_names) -> tuple:
    """(program step, operand nodes) of an allowed node.  A step is (-1, name)
    for a variable, (0, value) for a literal and (arity, fn) for an operation
    on the last ``arity`` values; unary + is (1, None) and emits nothing."""
    if isinstance(node, ast.Name):
        if node.id not in allowed_names:
            raise ValueError(f"unknown name {node.id!r}; allowed: {sorted(allowed_names)}")
        return (-1, node.id), ()
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
            raise ValueError(f"literal {node.value!r} not allowed")
        try:
            return (0, float(node.value)), ()
        except OverflowError:
            raise ValueError("an integer literal exceeds the float range") from None
    if isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, (ast.USub, ast.UAdd)):
            raise ValueError(f"operator {type(node.op).__name__} not allowed")
        return (1, operator.neg if isinstance(node.op, ast.USub) else None), (node.operand,)
    if isinstance(node, ast.BinOp):
        if type(node.op) not in _BINOPS:
            raise ValueError(f"operator {type(node.op).__name__} not allowed")
        return (2, _BINOPS[type(node.op)]), (node.left, node.right)
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _CALLS:
            raise ValueError("only sqrt/exp/log/pow calls are allowed")
        if node.keywords:
            raise ValueError("keyword arguments not allowed")
        fn, arity = _CALLS[node.func.id]
        if len(node.args) != arity:
            raise ValueError(f"{node.func.id} takes {arity} argument(s), got {len(node.args)}")
        return (arity, fn), tuple(node.args)
    raise ValueError(f"syntax {type(node).__name__} not allowed")


def parse_scalar_expression(expr: str, names: Sequence[str]) -> tuple:
    """Compile a whitelisted arithmetic expression to (env -> value,
    whether the value reads a variable).

    Allowed: +, -, *, /, **, unary + and -, numeric literals (taken as
    floats), the listed variable names, and the calls sqrt(a), exp(a),
    log(a) and pow(a, b), nested at most `MAX_EXPRESSION_DEPTH` deep.  The
    exponent of ** and of pow must not read a variable.  Anything else
    raises ValueError naming the offending construct.  One post-order walk
    checks each node and emits the flat program that computes it; the
    evaluator runs that program in one loop over a stack of values.  A
    value outside the domain of an operation (division by 0, a real power
    or log of a nonpositive number, an overflow) raises
    EvaluationDomainError when the expression is evaluated.
    """
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as e:
        raise ValueError(f"invalid expression {expr!r}: {e}") from None
    except RecursionError:  # the parser's own limit, some 4,000 levels
        raise ValueError(f"expression nests deeper than {MAX_EXPRESSION_DEPTH} levels") from None
    allowed_names = set(names)
    program, reads = [], []  # reads: whether each value of the program reads a variable
    todo = [(tree.body, 1, None)]  # (node, depth, its step once its operands are emitted)
    while todo:
        node, depth, step = todo.pop()
        if step is None:
            if depth > MAX_EXPRESSION_DEPTH:
                raise ValueError(f"expression nests deeper than {MAX_EXPRESSION_DEPTH} levels")
            step, operands = _operation(node, allowed_names)
            todo.append((node, depth, step))
            todo.extend((child, depth + 1, None) for child in reversed(operands))
        elif step[1] is power and reads[-1]:
            what = "**" if isinstance(node, ast.BinOp) else "pow"
            raise ValueError(f"the exponent of {what} must not read a variable")
        elif step[1] is not None:
            program.append(step)
            k = len(reads) - max(step[0], 0)  # the operands' entries
            reads[k:] = [step[0] < 0 or any(reads[k:])]

    def evaluate(env):
        values = []
        for arity, item in program:
            if arity == 2:
                right = values.pop()
                values[-1] = item(values[-1], right)
            elif arity == 1:
                values[-1] = item(values[-1])
            else:
                values.append(env[item] if arity else item)
        return values[0]

    return evaluate, reads[0]


def expression_structure(
    n: int,
    expr: str,
    label: str = None,
    x_box: float = 1.0,
    constant_curvature: Optional[float] = None,
) -> CartanStructure:
    """Structure whose K^2 is given by an expression over x1..xn, p1..pn."""
    names = [f"x{i + 1}" for i in range(n)] + [f"p{i + 1}" for i in range(n)]
    compiled, _ = parse_scalar_expression(expr, names)

    def k2(xs, ps):
        env = {f"x{i + 1}": xs[i] for i in range(n)}
        env.update({f"p{i + 1}": ps[i] for i in range(n)})
        return compiled(env)

    return CartanStructure(
        dim=n,
        k2=k2,
        label=label or f"expr-{n}d",
        x_box=x_box,
        constant_curvature=constant_curvature,
        is_riemannian=False,
    )


# ---------------------------------------------------------------------------
# admissible-domain sampling


def sample_points(
    s: CartanStructure,
    count: int,
    rng,
    p_norm: tuple = DEFAULT_P_NORM,
    accept: Callable = None,
) -> list:
    """Rejection-sample chart points: x uniform in the structure's box,
    p uniform direction with norm in p_norm, filtered by the admissibility
    predicate and an optional extra acceptance test."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    n = s.dim
    lo, hi = p_norm
    if not (0 < lo <= hi):
        raise ValueError("p_norm bounds must satisfy 0 < lo <= hi")
    pts = []
    tries = 0
    limit = 200 * count + 1000
    while len(pts) < count:
        tries += 1
        if tries > limit:
            raise RegularityError(
                f"rejection sampling for {s.label} accepted only {len(pts)} of "
                f"{count} points in {limit} tries; domain too small"
            )
        x = rng.uniform(-s.x_box, s.x_box, size=n)
        d = rng.normal(size=n)
        nd = float(np.linalg.norm(d))
        if nd == 0.0:
            continue
        p = d * (rng.uniform(lo, hi) / nd)
        pt = ChartPoint(x, p)
        if not s.admissible(pt):
            continue
        if accept is not None and not accept(pt):
            continue
        pts.append(pt)
    return pts
