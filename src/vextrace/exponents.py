"""Variable exponent fields p on the domain and r on the boundary.

Exponents are given as closed-form expressions over the coordinates
``x1..xN`` (a small AST: constants, coordinates, + - * /, powers with a
constant exponent, and exp/log/sqrt).  The AST supports vectorized
evaluation over point arrays and exact symbolic differentiation, which the
local-condition checks use for normal derivatives and boundary Laplacians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.spatial.distance import pdist

__all__ = [
    "ExponentExpr",
    "ExponentField",
    "CriticalExponents",
    "ExponentSyntaxError",
    "DimensionError",
    "SupercriticalError",
    "ExponentBoundsError",
    "parse_exponent",
    "trace_critical",
    "critical_gap",
    "critical_set",
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


class ExponentBoundsError(ValueError):
    """Sampled exponent bounds violate 1 < p- <= p+ < N."""


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
# Parser: infix grammar, '^' binds tightest, constant exponents only.

_FUNCS = ("exp", "log", "sqrt")


class _Parser:
    def __init__(self, text, n):
        self.text = text
        self.n = n
        self.pos = 0

    def error(self, message):
        raise ExponentSyntaxError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, char):
        if self.peek() == char:
            self.pos += 1
            return True
        return False

    def parse(self):
        expr = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error(f"unexpected {self.text[self.pos]!r}")
        return expr

    def expr(self):
        node = self.term()
        while True:
            c = self.peek()
            if c and c in "+-":
                self.pos += 1
                node = BinOp(c, node, self.term())
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            c = self.peek()
            if c and c in "*/":
                self.pos += 1
                node = BinOp(c, node, self.unary())
            else:
                return node

    def unary(self):
        if self.take("-"):
            return Neg(self.unary())
        self.take("+")
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == "^":
            self.pos += 1
            expo = self.const_exponent()
            return Pow(base, expo)
        return base

    def const_exponent(self):
        # powers carry literal numeric exponents, optionally signed
        self.skip_ws()
        sign = 1.0
        if self.take("-"):
            sign = -1.0
        self.skip_ws()
        start = self.pos
        value = self.number(required=True)
        if value is None:
            self.pos = start
            self.error("power exponent must be a numeric constant")
        return sign * value

    def atom(self):
        self.skip_ws()
        if self.take("("):
            node = self.expr()
            if not self.take(")"):
                self.error("expected ')'")
            return node
        c = self.peek()
        if c.isdigit() or c == ".":
            return Const(self.number(required=True))
        if c.isalpha():
            return self.name()
        self.error("expected a number, coordinate, function, or '('")

    def number(self, required=False):
        self.skip_ws()
        start = self.pos
        seen_digit = False
        while self.pos < len(self.text) and (
            self.text[self.pos].isdigit() or self.text[self.pos] == "."
        ):
            seen_digit = seen_digit or self.text[self.pos].isdigit()
            self.pos += 1
        if self.pos < len(self.text) and self.text[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < len(self.text) and self.text[self.pos] in "+-":
                self.pos += 1
            if self.pos < len(self.text) and self.text[self.pos].isdigit():
                while self.pos < len(self.text) and self.text[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark
        if not seen_digit:
            if required:
                self.error("expected a number")
            self.pos = start
            return None
        try:
            return float(self.text[start : self.pos])
        except ValueError:
            self.error(f"bad number {self.text[start:self.pos]!r}")

    def name(self):
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        word = self.text[start : self.pos]
        if word in _FUNCS:
            if not self.take("("):
                self.error(f"expected '(' after {word}")
            arg = self.expr()
            if not self.take(")"):
                self.error("expected ')'")
            return Func(word, arg)
        if word.startswith("x") and word[1:].isdigit():
            idx = int(word[1:])
            if idx < 1 or idx > self.n:
                raise DimensionError(
                    f"coordinate {word} out of range for dimension {self.n}"
                )
            return Var(idx - 1)
        self.pos = start
        self.error(f"unknown name {word!r}")


def parse_exponent(text, n):
    """Parse an exponent expression over coordinates x1..xn into an AST."""
    if not isinstance(text, str) or not text.strip():
        raise ExponentSyntaxError("empty expression", 0)
    return _Parser(text, n).parse()


# ---------------------------------------------------------------------------
# Exponent fields


@dataclass(frozen=True)
class ExponentField:
    """An exponent expression with ambient dimension and declared regularity.

    Bounds over a concrete point sample are cached after the first
    ``bounds(...)`` call; meshes pass their quadrature points plus vertices.
    """

    expr: ExponentExpr
    ambient_dimension: int
    declared_regularity: str = "C2"  # one of C0, C1, C2
    _bounds: tuple | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.ambient_dimension < 2:
            raise ValueError("ambient dimension must be >= 2")
        if self.declared_regularity not in ("C0", "C1", "C2"):
            raise ValueError("regularity must be C0, C1 or C2")

    @classmethod
    def from_text(cls, text, n, regularity="C2"):
        return cls(parse_exponent(text, n), n, regularity)

    @classmethod
    def validated(cls, expr, n, points):
        """Construct a C2 field and enforce 1 < inf <= sup < N on points."""
        return cls(expr, n).with_bounds(points)

    def __call__(self, points):
        return self.expr.eval(points)

    def eval_at(self, point):
        return self.expr.eval_at(point)

    def bounds(self, points=None):
        """(inf, sup) over the sample; local grid refinement tightens extrema."""
        if points is None:
            if self._bounds is None:
                raise ValueError("no cached bounds; pass sample points")
            return self._bounds
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        vals = self.expr.eval(pts)
        if not np.all(np.isfinite(vals)):
            raise ExponentBoundsError("exponent is not finite on the sample")
        lo, hi = float(np.min(vals)), float(np.max(vals))
        # refine at four interior points of the segments from each extremal
        # sample to its eight nearest neighbors; the segments stay inside the
        # sampled region, and continuity makes the grid extrema converge to
        # the essential ones
        if pts.shape[0] > 1:
            fracs = np.linspace(0.0, 1.0, 6)[1:-1]
            for anchor in (pts[np.argmin(vals)], pts[np.argmax(vals)]):
                d = np.linalg.norm(pts - anchor, axis=1)
                near = pts[np.argsort(d)[1:9]]
                seg = anchor[None, None, :] + fracs[:, None, None] * (
                    near[None, :, :] - anchor[None, None, :]
                )
                lv = self.expr.eval(seg.reshape(-1, pts.shape[1]))
                lo = min(lo, float(np.min(lv)))
                hi = max(hi, float(np.max(lv)))
        return lo, hi

    def with_bounds(self, points):
        lo, hi = self.bounds(points)
        if not (1.0 < lo <= hi):
            raise ExponentBoundsError(f"need 1 < inf <= sup, got [{lo}, {hi}]")
        if hi >= self.ambient_dimension:
            raise ExponentBoundsError(
                f"sup {hi} >= ambient dimension {self.ambient_dimension}"
            )
        return replace(self, _bounds=(lo, hi))

    def gradient(self, points):
        """Exact gradient at points, shape (n, N)."""
        self._require_regularity("C1")
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        cols = [self.expr.diff(i).eval(pts) for i in range(self.ambient_dimension)]
        return np.stack(cols, axis=1)

    def hessian(self, point):
        """Exact Hessian at a single point, shape (N, N)."""
        self._require_regularity("C2")
        n = self.ambient_dimension
        H = np.empty((n, n))
        for i in range(n):
            di = self.expr.diff(i)
            for j in range(i, n):
                H[i, j] = H[j, i] = di.diff(j).eval_at(point)
        return H

    def _require_regularity(self, needed):
        order = {"C0": 0, "C1": 1, "C2": 2}
        if order[self.declared_regularity] < order[needed]:
            raise RegularityMissing(
                f"field declared {self.declared_regularity}, {needed} required"
            )


class RegularityMissing(ValueError):
    """Operation requires more smoothness than the field declares."""


@dataclass(frozen=True)
class CriticalExponents:
    """Critical Sobolev exponent Np/(N-p) and trace exponent (N-1)p/(N-p)."""

    sobolev: ExponentField
    trace: ExponentField


def trace_critical(p, points=None):
    """Critical exponent fields derived from p; requires sup p < N."""
    n = p.ambient_dimension
    if points is not None:
        _, hi = p.bounds(points)
    elif p._bounds is not None:
        _, hi = p._bounds
    else:
        hi = None
    if hi is not None and hi >= n:
        raise SupercriticalError(f"sup p = {hi} >= N = {n}")
    denom = BinOp("-", Const(float(n)), p.expr)
    sob = BinOp("/", BinOp("*", Const(float(n)), p.expr), denom)
    tra = BinOp("/", BinOp("*", Const(float(n - 1)), p.expr), denom)
    reg = p.declared_regularity
    return CriticalExponents(
        sobolev=ExponentField(sob, n, reg), trace=ExponentField(tra, n, reg)
    )


def critical_gap(p, r, points, sample=None):
    """Trace-exponent gap p_*(x) - r(x) at points; <= 0 marks critical points.

    sup p < N is enforced on sample as in ``trace_critical``.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    crit = trace_critical(p, sample)
    return np.asarray(crit.trace(pts), float) - np.asarray(r(pts), float)


def critical_set(p, r, boundary_points, tol):
    """Boundary points where the trace exponent gap p_* - r is <= tol.

    Returns (selected points, margin) where margin = min over all queried
    points of p_*(x) - r(x); an empty selection means the compact regime.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    pts = np.atleast_2d(np.asarray(boundary_points, dtype=float))
    gap = critical_gap(p, r, pts, pts)
    margin = float(np.min(gap)) if len(gap) else math.inf
    selected = [pts[i].copy() for i in range(pts.shape[0]) if gap[i] <= tol]
    return selected, margin


def local_extremum_check(field_, x0, neighborhood_radius, kind, points=None):
    """Check x0 is a local min/max of the field on a deterministic sample grid.

    A sample value below (min) or above (max) the value at x0 by more than
    1e-10 breaks the check.  Returns (ok, witness): witness is a violating
    point when ok is False.
    Callers with domain knowledge pass their own sample ``points``; the
    default is a box grid around x0.
    """
    if neighborhood_radius <= 0:
        raise ValueError("radius must be positive")
    if kind not in ("min", "max"):
        raise ValueError("kind must be 'min' or 'max'")
    x0 = np.asarray(x0, dtype=float)
    if points is None:
        n = x0.size
        axes = [np.linspace(-neighborhood_radius, neighborhood_radius, 21)] * n
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
        points = x0[None, :] + grid
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
