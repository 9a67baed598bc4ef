"""Variable exponent fields p on the domain and r on the boundary.

Exponents are given as closed-form expressions over the coordinates
``x1..xN`` in Python expression syntax, with ``^`` for powers: decimal
numbers, coordinates, + - * /, parentheses, powers with a constant
exponent (``x1^2``, ``x1^-0.5``), and exp/log/sqrt of one argument.  The
standard library's ``ast`` reads the text, and a whitelist walk turns each
accepted node into a closure that applies the matching numpy operation to
the values at an array of points.  The one derivative the program takes,
the normal derivative of p in the local-condition check, runs the same
closures on dual numbers (forward-mode differentiation): values carried
together with their gradients, each operation applying the chain rule.
"""

from __future__ import annotations

import ast
import math
import operator
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.spatial.distance import pdist

__all__ = [
    "ExponentField",
    "ExponentSyntaxError",
    "DimensionError",
    "SupercriticalError",
    "parse_exponent",
    "trace_exponent",
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
# Closures and dual numbers


def _full(pts, value):
    """The constant at each point; a dual with zero gradient at dual points."""
    values = np.full(pts.shape[0], value)
    if isinstance(pts, _Dual):
        return _Dual(values, np.zeros_like(pts.tangent[..., 0]))
    return values


def _column(pts, k):
    if k >= pts.shape[1]:
        raise DimensionError(f"x{k + 1} evaluated on points of dimension {pts.shape[1]}")
    return pts[:, k].copy()


class _Dual(np.lib.mixins.NDArrayOperatorsMixin):
    """Values (m,) with their gradients (N, m), for forward-mode derivatives.

    Arithmetic, constant powers and exp/log/sqrt act on both parts.  Each
    rule does the float operations of its textbook derivative formula in
    that formula's order, and constants carry a zero gradient, so gradients
    equal the symbolic derivative evaluated pointwise, bit for bit but for
    the sign of a nan, which numpy's loops leave open.
    """

    def __init__(self, value, tangent):
        self.value, self.tangent = value, tangent

    @property
    def shape(self):
        return self.value.shape

    def __getitem__(self, key):
        return _Dual(self.value[key], self.tangent[(..., *key)])

    def copy(self):
        return _Dual(self.value.copy(), self.tangent.copy())

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        a, da = inputs[0].value, inputs[0].tangent
        if ufunc is np.power:  # the exponent is a float constant
            e = inputs[1]
            return _Dual(a ** e, (e * a ** (e - 1.0)) * da)
        if ufunc is np.negative:
            return _Dual(-a, -da)
        if ufunc is np.exp:
            v = np.exp(a)
            return _Dual(v, v * da)
        if ufunc is np.log:
            return _Dual(np.log(a), da / a)
        if ufunc is np.sqrt:
            v = np.sqrt(a)
            return _Dual(v, da / (2.0 * v))
        b, db = inputs[1].value, inputs[1].tangent
        if ufunc is np.add:
            return _Dual(a + b, da + db)
        if ufunc is np.subtract:
            return _Dual(a - b, da - db)
        if ufunc is np.multiply:
            return _Dual(a * b, da * b + a * db)
        if ufunc is np.divide:
            return _Dual(a / b, (da * b - a * db) / (b * b))
        return NotImplemented


# ---------------------------------------------------------------------------
# Parser: Python expression syntax read by ``ast``, '^' for constant powers.

_FUNCS = {"exp": np.exp, "log": np.log, "sqrt": np.sqrt}
_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
        ast.Div: operator.truediv}
# a typed '**', or a character no exponent expression uses
_STRAY = re.compile(r"\*\*|[^0-9A-Za-z_\s.+\-*/^(),]")
# decimal literals only: no 1_0, 0x10, 1j or True
_NUMBER = re.compile(r"\d*\.?\d*(?:[eE][+-]?\d+)?")
# the deepest tree accepted, CPython's limit on nested parentheses; its
# closures then run far below the recursion limit, on duals too
MAX_DEPTH = 200
_TOO_DEEP = f"expression nested deeper than {MAX_DEPTH} levels"


def parse_exponent(text, n):
    """Parse an exponent expression over coordinates x1..xn.

    Returns a function of points, shape (m, n), to the values, shape (m,).
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
    except (RecursionError, MemoryError):  # the parser's own stack ran out
        raise ExponentSyntaxError(_TOO_DEEP, 0) from None

    def fail(message, node):
        raise ExponentSyntaxError(message, at[node.col_offset])

    def number(node):
        literal = source[node.col_offset : node.end_col_offset]
        if not _NUMBER.fullmatch(literal):
            fail(f"bad number {literal!r}", node)
        return float(literal)

    def build(node, depth=0):
        depth += 1  # this node's level, counted from 1 at the root
        if depth > MAX_DEPTH:
            fail(_TOO_DEEP, node)
        if isinstance(node, ast.Constant):
            value = number(node)
            return lambda pts: _full(pts, value)
        if isinstance(node, ast.Name):
            index = re.fullmatch(r"x(\d+)", node.id)
            if index is None:
                fail(f"expected '(' after {node.id}" if node.id in _FUNCS
                     else f"unknown name {node.id!r}", node)
            if not 1 <= int(index[1]) <= n:
                raise DimensionError(f"coordinate {node.id} out of range for dimension {n}")
            k = int(index[1]) - 1
            return lambda pts: _column(pts, k)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            arg = build(node.operand, depth)
            return lambda pts: -arg(pts)
        # one leading '+', as in '+x1' or '-+x1', but not '++x1' or '+-x1'
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.UAdd):
            if isinstance(node.operand, ast.UnaryOp):
                fail("unexpected sign", node.operand)
            return build(node.operand, depth)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            base, expo, sign = build(node.left, depth), node.right, 1.0
            if isinstance(expo, ast.UnaryOp) and isinstance(expo.op, ast.USub):
                expo, sign = expo.operand, -1.0
            if not isinstance(expo, ast.Constant):
                fail("power exponent must be a numeric constant", expo)
            e = sign * number(expo)  # a float, as numpy's fast scalar powers expect
            return lambda pts: base(pts) ** e
        if isinstance(node, ast.BinOp) and type(node.op) in _OPS:
            op, left, right = _OPS[type(node.op)], build(node.left, depth), build(node.right, depth)
            return lambda pts: op(left(pts), right(pts))
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None)
            if name not in _FUNCS:
                fail("unknown function", node.func)
            if len(node.args) != 1 or node.keywords:
                fail(f"{name} takes one argument", node)
            fn, arg = _FUNCS[name], build(node.args[0], depth)
            return lambda pts: fn(arg(pts))
        fail("unsupported expression", node)

    return build(tree.body)


# ---------------------------------------------------------------------------
# Exponent fields


@dataclass(frozen=True)
class ExponentField:
    """An exponent with its ambient dimension; expr maps points, shape
    (m, N), to values, shape (m,)."""

    expr: Callable
    ambient_dimension: int

    def __post_init__(self):
        if self.ambient_dimension < 2:
            raise ValueError("ambient dimension must be >= 2")

    @classmethod
    def from_text(cls, text, n):
        return cls(parse_exponent(text, n), n)

    def __call__(self, points):
        # nan and inf values are the caller's to judge, without a warning
        with np.errstate(all="ignore"):
            return self.expr(np.atleast_2d(np.asarray(points, dtype=float)))

    def eval_at(self, point):
        return float(self(point)[0])

    def gradient(self, points):
        """Gradient at points, shape (m, N), by forward mode: the field runs on
        duals whose coordinate columns carry the unit vectors as gradients."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        seeds = np.eye(self.ambient_dimension, pts.shape[1])[:, None, :]
        seeds = np.broadcast_to(seeds, (self.ambient_dimension, *pts.shape))
        with np.errstate(all="ignore"):
            return self.expr(_Dual(pts, seeds)).tangent.T


def trace_exponent(n, p):
    """The critical trace exponent p_* = (N-1)p/(N-p), for a scalar or an
    array p; the caller has checked p < N."""
    return (n - 1.0) * p / (n - p)


def critical_gap(p, r, points):
    """Gap p_*(x) - r(x) at points, p_* the critical trace exponent; <= 0
    marks critical points.

    Raises SupercriticalError if p >= N at any of the points.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = p.ambient_dimension
    v = p(pts)
    hi = float(np.max(v, initial=-math.inf))
    if hi >= n:
        raise SupercriticalError(f"sup p = {hi} >= N = {n}")
    # nan and inf values are the caller's to judge, without a warning
    with np.errstate(all="ignore"):
        return trace_exponent(n, v) - r(pts)


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
