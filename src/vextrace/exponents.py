"""Variable exponent fields p on the domain and r on the boundary.

Exponents are given as closed-form expressions over the coordinates
``x1..xN`` in Python expression syntax, with ``^`` for powers: decimal
numbers, coordinates, + - * /, parentheses, powers with a constant
exponent (``x1^2``, ``x1^-0.5``), and exp/log/sqrt of one argument.  The
standard library's ``ast`` reads the text; a whitelist walk turns it into a
small AST that supports vectorized evaluation over point arrays and exact
symbolic differentiation, which the local-condition check uses for the
normal derivative of p.
"""

from __future__ import annotations

import ast
import math
import re
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist

__all__ = [
    "ExponentExpr",
    "ExponentField",
    "ExponentSyntaxError",
    "DimensionError",
    "SupercriticalError",
    "parse_exponent",
    "trace_critical",
    "critical_gap",
    "local_extremum_check",
    "log_holder_probe",
]


class ExponentSyntaxError(ValueError):
    """Malformed exponent expression; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DimensionError(ValueError):
    """Coordinate index exceeds the ambient dimension."""


class SupercriticalError(ValueError):
    """p exceeds the ambient dimension somewhere, so p_* is undefined."""


# ---------------------------------------------------------------------------
# AST


class ExponentExpr:
    """Base class for exponent expression nodes (immutable)."""

    def __call__(self, points):
        return self.eval(points)

    def eval(self, points):
        """Evaluate at points of shape (n, N) or a single point; returns (n,)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self._eval(pts)

    def eval_at(self, point):
        return float(self.eval(point)[0])

    def diff(self, index):
        """Exact derivative with respect to coordinate x_{index+1}."""
        raise NotImplementedError

    def to_string(self):
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({self.to_string()!r})"


@dataclass(frozen=True)
class Const(ExponentExpr):
    value: float

    def _eval(self, pts):
        return np.full(pts.shape[0], self.value)

    def diff(self, index):
        return Const(0.0)

    def to_string(self):
        return repr(self.value)


@dataclass(frozen=True)
class Var(ExponentExpr):
    index: int  # 0-based coordinate

    def _eval(self, pts):
        if self.index >= pts.shape[1]:
            raise DimensionError(
                f"x{self.index + 1} evaluated on points of dimension {pts.shape[1]}"
            )
        return pts[:, self.index].copy()

    def diff(self, index):
        return Const(1.0 if index == self.index else 0.0)

    def to_string(self):
        return f"x{self.index + 1}"


@dataclass(frozen=True)
class BinOp(ExponentExpr):
    op: str  # '+', '-', '*', '/'
    left: ExponentExpr
    right: ExponentExpr

    def _eval(self, pts):
        a = self.left._eval(pts)
        b = self.right._eval(pts)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        return a / b

    def diff(self, index):
        da, db = self.left.diff(index), self.right.diff(index)
        if self.op in "+-":
            return BinOp(self.op, da, db)
        if self.op == "*":
            return BinOp("+", BinOp("*", da, self.right), BinOp("*", self.left, db))
        # quotient rule
        num = BinOp("-", BinOp("*", da, self.right), BinOp("*", self.left, db))
        return BinOp("/", num, BinOp("*", self.right, self.right))

    def to_string(self):
        return f"({self.left.to_string()} {self.op} {self.right.to_string()})"


@dataclass(frozen=True)
class Neg(ExponentExpr):
    arg: ExponentExpr

    def _eval(self, pts):
        return -self.arg._eval(pts)

    def diff(self, index):
        return Neg(self.arg.diff(index))

    def to_string(self):
        return f"(-{self.arg.to_string()})"


@dataclass(frozen=True)
class Pow(ExponentExpr):
    base: ExponentExpr
    exponent: float  # constant exponent only

    def _eval(self, pts):
        return self.base._eval(pts) ** self.exponent

    def diff(self, index):
        db = self.base.diff(index)
        inner = Pow(self.base, self.exponent - 1.0)
        return BinOp("*", BinOp("*", Const(self.exponent), inner), db)

    def to_string(self):
        return f"({self.base.to_string()})^{repr(self.exponent)}"


@dataclass(frozen=True)
class Func(ExponentExpr):
    name: str  # 'exp', 'log', 'sqrt'
    arg: ExponentExpr

    def _eval(self, pts):
        a = self.arg._eval(pts)
        if self.name == "exp":
            return np.exp(a)
        if self.name == "log":
            return np.log(a)
        return np.sqrt(a)

    def diff(self, index):
        da = self.arg.diff(index)
        if self.name == "exp":
            return BinOp("*", self, da)
        if self.name == "log":
            return BinOp("/", da, self.arg)
        return BinOp("/", da, BinOp("*", Const(2.0), self))

    def to_string(self):
        return f"{self.name}({self.arg.to_string()})"


# ---------------------------------------------------------------------------
# Parser: Python expression syntax read by ``ast``, '^' for constant powers.

_FUNCS = ("exp", "log", "sqrt")
_OPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
# a typed '**', or a character no exponent expression uses
_STRAY = re.compile(r"\*\*|[^0-9A-Za-z_\s.+\-*/^(),]")
# decimal literals only: no 1_0, 0x10, 1j or True
_NUMBER = re.compile(r"\d*\.?\d*(?:[eE][+-]?\d+)?")


def parse_exponent(text, n):
    """Parse an exponent expression over coordinates x1..xn into an AST.

    Errors carry the position in text of the offending character.
    """
    if not isinstance(text, str) or not text.strip():
        raise ExponentSyntaxError("empty expression", 0)
    stray = _STRAY.search(text)
    if stray:
        raise ExponentSyntaxError(f"unexpected {stray.group()!r}", stray.start())
    source = re.sub(r"\s", " ", text).replace("^", "**")
    lead = len(source) - len(source.lstrip())
    source = source[lead:]
    # at[j] is the index in text of source[j]; each '^' spans two of them
    at = [i for i, c in enumerate(text) for _ in range(1 + (c == "^"))][lead:]
    at.append(len(text))
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as err:  # offset 0: the text ended too early
        raise ExponentSyntaxError(err.msg, at[err.offset - 1] if err.offset else len(text))

    def fail(message, node):
        raise ExponentSyntaxError(message, at[node.col_offset])

    def number(node):
        literal = source[node.col_offset : node.end_col_offset]
        if not _NUMBER.fullmatch(literal):
            fail(f"bad number {literal!r}", node)
        return float(literal)

    def build(node):
        if isinstance(node, ast.Constant):
            return Const(number(node))
        if isinstance(node, ast.Name):
            index = re.fullmatch(r"x(\d+)", node.id)
            if index is None:
                fail(f"expected '(' after {node.id}" if node.id in _FUNCS
                     else f"unknown name {node.id!r}", node)
            if not 1 <= int(index[1]) <= n:
                raise DimensionError(f"coordinate {node.id} out of range for dimension {n}")
            return Var(int(index[1]) - 1)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return Neg(build(node.operand))
        # one leading '+', as in '+x1' or '-+x1', but not '++x1' or '+-x1'
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.UAdd):
            if isinstance(node.operand, ast.UnaryOp):
                fail("unexpected sign", node.operand)
            return build(node.operand)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            base, expo, sign = build(node.left), node.right, 1.0
            if isinstance(expo, ast.UnaryOp) and isinstance(expo.op, ast.USub):
                expo, sign = expo.operand, -1.0
            if not isinstance(expo, ast.Constant):
                fail("power exponent must be a numeric constant", expo)
            return Pow(base, sign * number(expo))
        if isinstance(node, ast.BinOp) and type(node.op) in _OPS:
            return BinOp(_OPS[type(node.op)], build(node.left), build(node.right))
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None)
            if name not in _FUNCS:
                fail("unknown function", node.func)
            if len(node.args) != 1 or node.keywords:
                fail(f"{name} takes one argument", node)
            return Func(name, build(node.args[0]))
        fail("unsupported expression", node)

    return build(tree.body)


# ---------------------------------------------------------------------------
# Exponent fields


@dataclass(frozen=True)
class ExponentField:
    """An exponent expression with its ambient dimension."""

    expr: ExponentExpr
    ambient_dimension: int

    def __post_init__(self):
        if self.ambient_dimension < 2:
            raise ValueError("ambient dimension must be >= 2")

    @classmethod
    def from_text(cls, text, n):
        return cls(parse_exponent(text, n), n)

    def __call__(self, points):
        return self.expr.eval(points)

    def eval_at(self, point):
        return self.expr.eval_at(point)

    def gradient(self, points):
        """Exact gradient at points, shape (n, N)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        cols = [self.expr.diff(i).eval(pts) for i in range(self.ambient_dimension)]
        return np.stack(cols, axis=1)


def trace_critical(p):
    """Critical trace exponent field (N-1)p/(N-p); it holds where p < N."""
    n = p.ambient_dimension
    denom = BinOp("-", Const(float(n)), p.expr)
    return ExponentField(BinOp("/", BinOp("*", Const(float(n - 1)), p.expr), denom), n)


def critical_gap(p, r, points):
    """Trace-exponent gap p_*(x) - r(x) at points; <= 0 marks critical points.

    Raises SupercriticalError if p >= N at any of the points.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = p.ambient_dimension
    hi = float(np.max(p(pts), initial=-math.inf))
    if hi >= n:
        raise SupercriticalError(f"sup p = {hi} >= N = {n}")
    return np.asarray(trace_critical(p)(pts), float) - np.asarray(r(pts), float)


def local_extremum_check(field_, x0, kind, points):
    """Check x0 is a local min/max of the field over the sample points.

    A sample value below (min) or above (max) the value at x0 by more than
    1e-10 breaks the check.  Returns (ok, witness): witness is a violating
    point when ok is False.
    """
    if kind not in ("min", "max"):
        raise ValueError("kind must be 'min' or 'max'")
    x0 = np.asarray(x0, dtype=float)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    vals = field_(pts)
    v0 = field_.eval_at(x0)
    if kind == "min":
        bad = vals < v0 - 1e-10
    else:
        bad = vals > v0 + 1e-10
    if not np.any(bad):
        return True, None
    idx = int(np.argmin(vals)) if kind == "min" else int(np.argmax(vals))
    return False, pts[idx].copy()


def log_holder_probe(field_, points):
    """Estimate the modulus of continuity on dyadic scales.

    The scales are dmax 2^-k for k = 1..8, with dmax the sample diameter.
    Returns rows (scale, rho_hat, ln(1/scale)*rho_hat).  The continuity
    condition wants the product to tend to 0 as the scale shrinks; judging
    that from point samples is left to the caller.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    vals = field_(pts)
    # each pair once, as condensed distance vectors (empty below two points)
    d = pdist(pts)
    dv = pdist(vals[:, None], "cityblock")
    dmax = float(np.max(d, initial=0.0)) or 1.0
    distinct = d > 0
    rows = []
    for lam in (dmax * 2.0**-k for k in range(1, 9)):
        mask = distinct & (d <= lam)
        rho = float(np.max(dv[mask])) if np.any(mask) else 0.0
        rows.append((lam, rho, math.log(1.0 / lam) * rho if lam < 1 else 0.0))
    return rows
