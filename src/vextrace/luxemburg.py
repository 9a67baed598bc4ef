"""Modulars and Luxemburg norms on quadrature samples.

A function u over a region is carried as WeightedSamples: quadrature points,
positive weights (cell measures), values, and optionally gradient vectors.
The modular is sum_i w_i |u_i|^{p(x_i)} (plus the gradient term for the
Sobolev kind); the Luxemburg norm is the unique lambda > 0 with
modular(u/lambda) = 1.  It is found by a safeguarded Newton iteration on the
log-modular G(s) = log modular(u/e^s), which is convex and decreasing in
s = log lambda, inside the bracket given by the norm-modular inequalities:
about 4 modular evaluations per norm from the unit scale, 2 when the
exponent is constant, and about 2.6 when the caller starts the root near
its norm, as the descent does.  The root also returns its terms and their
slope weight, from which the norm's gradient follows.

Modular, measure and quadrature sums go through ``fixed_order_sum`` and are
exact (equal to ``math.fsum``), so they depend on no summation order, numpy
build or CPU: a large sum is certified from two numpy sums, a rare one left
uncertified (a rounding tie, say) goes to math.fsum.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "WeightedSamples",
    "MissingGradient",
    "NonFiniteModular",
    "ExponentMismatch",
    "fixed_order_sum",
    "modular",
    "luxemburg_norm",
    "holder_product_bound",
    "verify_norm_modular_relations",
    "RelationCheck",
]

STEP_TOL = 1e-15  # the root is taken once a Newton step in log lambda is this small
MAX_STEPS = 100  # Newton or bisection steps per norm, a guard only: about 4 are taken
RECENTRE = 0.5  # |log(lambda / centre)| beyond which the terms are recomputed by pow
RELATION_TOL = 1e-11  # slack verify_norm_modular_relations forgives


class MissingGradient(ValueError):
    """Sobolev modular requested but the samples carry no gradients."""


class NonFiniteModular(FloatingPointError):
    """Modular or norm beyond the float range, even after rescaling."""


class ExponentMismatch(ValueError):
    """Derived exponent falls outside its admissible range."""


FSUM_MAX = 256  # up to this many terms math.fsum is the faster route
_GRID_MAX = 2.0**1022  # a grid 2^e with e > 1022 would overflow its sums
_MIN_NORMAL = 2.0**-1022  # a start whose modular is below this is dropped


def fixed_order_sum(values):
    """Exact sum: returns ``math.fsum(values)``, the correctly rounded total.

    It depends on no summation order, numpy build or CPU.  Up to FSUM_MAX
    terms math.fsum sums them directly; larger arrays go through
    ``_certified_sum``, the same bits faster, and back to math.fsum when it
    cannot certify them.  Where math.fsum overflows on n finite terms, they
    are summed scaled by 2^-k with 2^k > n, so no partial sum can overflow,
    and the total is scaled back, +-inf when it is beyond the float range;
    in that sum only terms below 2^(k-1022) in magnitude lose bits.  Inputs
    holding inf or nan give ``np.sum``'s result, so inf and nan propagate
    and callers that check finiteness see them.
    """
    a = np.ascontiguousarray(values, dtype=float).ravel()
    if a.size > FSUM_MAX:
        s = _certified_sum(a)
        if s is not None:
            return s
    try:
        return math.fsum(a.tolist())
    except (OverflowError, ValueError):
        if np.isfinite(a).all():
            k = a.size.bit_length()
            return math.fsum(np.ldexp(a, -k).tolist()) * 2.0**k
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.sum(a))


def _certified_sum(a):
    """``math.fsum(a)`` from two numpy sums and a rounding certificate, or None.

    The first step of AccSum (Rump, Ogita & Oishi, SIAM J. Sci. Comput.
    31(1), 2008).  With n terms, 2^e > n max|a| and c = 1.5 2^e, q =
    (a + c) - c is a rounded to a multiple of 2^(e-52), every partial sum of
    the q is such a multiple below 2^(e+1), and s1 = sum(q) is exact in any
    order.  r = a - q is exact with |r_i| <= 2^(e-53), so s2 = sum(r) is
    within n^2 2^(e-106) of its exact sum in any order (outright for
    n < 2^26, to first order beyond), and the total within bound =
    n^2 2^(e-105) of s1 + s2, the factor 2 covering higher orders and the
    rounding of the bound.  Rounding is monotone: if s1 + s2 -/+ bound round
    to the same float, it is the correctly rounded total.  None when they do
    not (a total near a rounding tie, or cancelling), on a non-finite value,
    or when the grid would pass 2^1022.
    """
    n = a.size
    top = n * max(float(a.max()), -float(a.min()))
    if not top < _GRID_MAX:  # also nan
        return None
    e = math.frexp(top)[1]
    c = math.ldexp(1.5, e)
    q = a + c
    q -= c
    s1 = float(q.sum())
    np.subtract(a, q, out=q)
    s2 = float(q.sum())
    bound = math.ldexp(n * n, e - 105)
    lo = math.fsum((s1, s2, -bound))
    return lo if lo == math.fsum((s1, s2, bound)) else None


@dataclass(frozen=True)
class WeightedSamples:
    """Quadrature carrier: points(n,N), weights(n,)>0, values(n,), grads(n,N)?"""

    points: np.ndarray
    weights: np.ndarray
    values: np.ndarray
    gradient_values: np.ndarray | None = None

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        w = np.asarray(self.weights, dtype=float).ravel()
        v = np.asarray(self.values, dtype=float).ravel()
        g = self.gradient_values
        if g is not None:
            g = np.asarray(g, dtype=float)
            if g.shape != (pts.shape[0], pts.shape[1]):
                raise ValueError("gradient_values must have shape (n, N)")
            if not np.all(np.isfinite(g)):
                raise ValueError("gradient_values must be finite")
        if not (pts.shape[0] == w.size == v.size):
            raise ValueError("points, weights and values must have equal length")
        if w.size == 0:
            raise ValueError("empty sample")
        if not np.all((w > 0) & (w < math.inf)):  # nan fails both
            raise ValueError("weights must be finite and strictly positive")
        for name, arr in (("points", pts), ("weights", w), ("values", v)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if g is not None:
            g.setflags(write=False)
        object.__setattr__(self, "gradient_values", g)

    def scaled(self, c):
        g = None if self.gradient_values is None else c * self.gradient_values
        return WeightedSamples(self.points, self.weights, c * self.values, g)

    @classmethod
    def from_csv(cls, path):
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValueError("empty file; expected a header row")
            n_dim = sum(1 for h in header if h.startswith("x"))
            has_grad = any(h.startswith("g") for h in header)
            width = n_dim + 2 + (n_dim if has_grad else 0)
            pts, ws, vs, gs = [], [], [], []
            for row in reader:
                if not row:
                    continue
                if len(row) < width:
                    raise ValueError(f"a row of {len(row)} columns, expected {width}")
                row = [float(x) for x in row]
                pts.append(row[:n_dim])
                ws.append(row[n_dim])
                vs.append(row[n_dim + 1])
                if has_grad:
                    gs.append(row[n_dim + 2 : 2 * n_dim + 2])
        return cls(
            np.array(pts), np.array(ws), np.array(vs),
            np.array(gs) if has_grad else None,
        )


def _exponents_at(p, points):
    if isinstance(p, np.ndarray):
        return p
    return np.asarray(p(points), dtype=float)


def _modular_terms(samples, p, kind):
    """abs values, weights, exponents and optional gradient magnitudes."""
    if kind not in ("lebesgue", "sobolev"):
        raise ValueError("kind must be 'lebesgue' or 'sobolev'")
    exps = _exponents_at(p, samples.points)
    bad = np.flatnonzero(~np.isfinite(exps))
    if len(bad):
        raise ValueError(f"p is {exps[bad[0]]} at {tuple(map(float, samples.points[bad[0]]))}")
    if np.min(exps) < 1.0:
        raise ValueError(f"inf p = {float(np.min(exps))} < 1")
    av = np.abs(samples.values)
    gmag = None
    if kind == "sobolev":
        if samples.gradient_values is None:
            raise MissingGradient("sobolev modular needs gradient samples")
        gmag = np.linalg.norm(samples.gradient_values, axis=1)
    return av, samples.weights, exps, gmag


def _scaled_terms(av, w, exps, gmag, lam):
    """Per-atom terms w_i (a_i/lam)^p_i of modular(u/lam).

    For the sobolev kind each atom's gradient term w_i (g_i/lam)^p_i is
    added at the same point, since both share w_i and p_i.
    """
    terms = w * (av / lam) ** exps
    if gmag is not None:
        terms += w * (gmag / lam) ** exps
    return terms


def _modular_value(terms, exps):
    """Modular and its slope weight from the terms t_i of modular(u/lam).

    Returns (m, d): m = sum t_i is the modular and d = sum p_i t_i =
    -dm/d(log lam); both sums are exact.
    """
    return fixed_order_sum(terms), fixed_order_sum(exps * terms)


def _modular_at(av, w, exps, gmag, lam):
    """modular(u/lam); NonFiniteModular when it overflows."""
    with np.errstate(over="ignore"):  # an overflow is reported just below
        val = _modular_value(_scaled_terms(av, w, exps, gmag, lam), exps)[0]
    if not math.isfinite(val):
        raise NonFiniteModular("modular overflow; rescale the samples")
    return val


def modular(samples, p, kind="lebesgue"):
    """Modular sum_i w_i |u_i|^{p_i} (+ gradient part for the sobolev kind)."""
    return _modular_at(*_modular_terms(samples, p, kind), 1.0)


def _norm_from_arrays(av, w, exps, gmag, start=None):
    """Luxemburg norm from raw arrays; the shared root-finding core.

    Newton on G(s) = log m(e^s), m(lam) = modular(u/lam).  G is convex and
    decreasing with slope -d/m in [-p+, -p-], so Newton never stalls, and
    from the unit scale its first step, log(rho) m/d, is the closed form
    rho^(1/p) when p is constant.  The iterate is lam = centre e^delta: the
    terms at the centre cost one pow pass, every other evaluation one exp
    pass, and the centre moves (a new pow pass) once |delta| > RECENTRE, so
    no evaluation carries the rounding of a large |s|.

    ``start`` is a guess at the norm and the first centre in place of the
    unit scale; a guess within RECENTRE of the root saves the second pow
    pass.  It is dropped, and the unit scale taken, when it is not a
    positive float or the modular there is 0, subnormal or inf.

    Returns (lam, tv, tg, shift, D): the norm, the per-atom terms
    w (a/c)^p at the last centre c of the values (tv) and of the gradient
    magnitudes (tg, None without gmag), the factor shift = (c/lam)^p
    (an array, or 1.0 when the last evaluation was at the centre), and the
    slope weight D = sum p (tv + tg) shift of the last evaluation.  The terms
    at the root are tv * shift and tg * shift, and d lam / d a_i =
    p_i lam t_i / (a_i D); a norm-only caller reads lam and pays for no
    scaling.  A zero sample gives (0.0, None, None, 1.0, 0.0).
    """
    zero = (0.0, None, None, 1.0, 0.0)
    peak = float(np.max(av)) if av.size else 0.0
    if gmag is not None:
        peak = max(peak, float(np.max(gmag)))
    if peak == 0.0:
        return zero
    if not math.isfinite(peak):
        raise NonFiniteModular("samples contain non-finite values")
    # pre-scale by the peak so powers cannot overflow, undo by homogeneity
    av = av / peak
    g = None if gmag is None else gmag / peak

    def centred(c):
        """The terms at centre c, and apart (value, gradient)."""
        tv = _scaled_terms(av, w, exps, None, c)
        tg = None if g is None else _scaled_terms(g, w, exps, None, c)
        return (tv if tg is None else tv + tg), tv, tg

    centre = math.nan if start is None else float(start) / peak
    delta, m = 0.0, math.nan
    # an overflow drops the start, and at the unit scale is reported below
    with np.errstate(over="ignore"):
        if 0.0 < centre < math.inf:
            parts = centred(centre)
            m, d = _modular_value(parts[0], exps)
        if not _MIN_NORMAL <= m < math.inf:
            centre = 1.0
            parts = centred(centre)
            m, d = _modular_value(parts[0], exps)
    if not math.isfinite(m):
        raise NonFiniteModular("modular overflow at unit scale")
    if m == 0.0:
        return zero
    # bracket from the norm-modular inequalities, log lambda between
    # log(rho)/p+ and log(rho)/p-, kept relative to the centre
    log_rho = math.log(m)
    ends = sorted((log_rho / float(np.max(exps)), log_rho / float(np.min(exps))))
    lo, hi = ends[0] - 1e-12, ends[1] + 1e-12
    shift = None  # e^(-p delta) of the last evaluation
    with np.errstate(over="ignore"):  # m = inf only bisects toward larger lambda
        for _ in range(MAX_STEPS):
            # m is decreasing in lambda: m > 1 puts the root above delta
            if m > 1.0:
                lo = max(lo, delta)
            else:
                hi = min(hi, delta)
            step = math.log(m) * m / d if 0.0 < m < math.inf else math.nan
            if not lo <= delta + step <= hi:  # also when step is nan
                step = 0.5 * (lo + hi) - delta
            delta += step
            if abs(step) <= STEP_TOL:
                break
            if abs(delta) > RECENTRE:
                moved = centre * math.exp(delta)
                jump = math.log(moved / centre)
                centre, delta = moved, 0.0
                lo, hi = lo - jump, hi - jump
                parts = centred(centre)
            # the terms at centre e^delta are those at the centre times shift
            shift = np.exp(-delta * exps) if delta else None
            t = parts[0] if shift is None else parts[0] * shift
            m, d = _modular_value(t, exps)
    norm = (centre + centre * math.expm1(delta)) * peak
    if not math.isfinite(norm):
        raise NonFiniteModular("norm beyond the float range")
    return norm, *parts[1:], 1.0 if shift is None else shift, d


def luxemburg_norm(samples, p, kind="lebesgue"):
    """Luxemburg norm: 0 for u = 0, else the lambda with modular(u/lambda)=1."""
    av, w, exps, gmag = _modular_terms(samples, p, kind)
    return _norm_from_arrays(av, w, exps, gmag)[0]


def holder_product_bound(f, g, p, q):
    """Both sides of the product inequality in L^{s(x)}, 1/s = 1/p + 1/q.

    Returns (lhs, rhs, s) with s the array of s values at the sample
    points; callers assert lhs <= rhs.  Raises ExponentMismatch when
    s(x) < 1 somewhere on the sample.
    """
    if f.points.shape != g.points.shape or not np.allclose(f.points, g.points):
        raise ValueError("f and g must share sample points")
    if not np.allclose(f.weights, g.weights):
        raise ValueError("f and g must share weights")
    pe = _exponents_at(p, f.points)
    qe = _exponents_at(q, f.points)
    se = 1.0 / (1.0 / pe + 1.0 / qe)
    if np.any(se < 1.0 - 1e-12):
        raise ExponentMismatch("derived exponent s(x) < 1")
    prod = np.abs(f.values * g.values)
    lhs = _norm_from_arrays(prod, f.weights, se, None)[0]
    const = float(np.max(se / pe)) + float(np.max(se / qe))
    nf = _norm_from_arrays(np.abs(f.values), f.weights, pe, None)[0]
    ng = _norm_from_arrays(np.abs(g.values), g.weights, qe, None)[0]
    return lhs, const * nf * ng, se


@dataclass(frozen=True)
class RelationCheck:
    name: str
    applicable: bool
    passed: bool
    slack: float


def verify_norm_modular_relations(samples, p):
    """Evaluate the Lebesgue norm-modular relations; returns RelationChecks.

    Covered: the unit-ball characterization modular(u/|u|)=1, the three-way
    sign agreement of |u|-1 and modular-1, and the two-sided power bounds
    |u|^{p-} <= modular <= |u|^{p+} (norm > 1) and the reversed pair
    (norm < 1).  Slack is how far inside the inequality the data sits;
    negative slack beyond -RELATION_TOL fails.  A power bound beyond the
    float range is +inf and holds; a modular that overflows raises
    NonFiniteModular.
    """
    av, w, exps, _ = _modular_terms(samples, p, "lebesgue")
    rho = _modular_at(av, w, exps, None, 1.0)
    lam = _norm_from_arrays(av, w, exps, None)[0]
    checks = []

    if lam > 0.0:
        unit = _modular_at(av, w, exps, None, lam)
        slack = RELATION_TOL * 10 - abs(unit - 1.0)
        checks.append(RelationCheck("unit_ball_modular", True, slack >= -RELATION_TOL, slack))
    else:
        checks.append(RelationCheck("unit_ball_modular", False, True, 0.0))

    if abs(rho - 1.0) <= RELATION_TOL or abs(lam - 1.0) <= RELATION_TOL:
        near = math.sqrt(RELATION_TOL)
        agree = abs(rho - 1.0) <= near and abs(lam - 1.0) <= near
        checks.append(RelationCheck("sign_agreement", True, agree, 0.0))
    else:
        agree = (rho > 1.0) == (lam > 1.0)
        checks.append(
            RelationCheck("sign_agreement", True, agree, abs(rho - 1.0))
        )

    gt1, lt1 = lam > 1.0 + RELATION_TOL, 0.0 < lam < 1.0 - RELATION_TOL
    lo = hi = 0.0  # |u|^{p-} and |u|^{p+}, taken only where a pair applies
    if gt1 or lt1:
        with np.errstate(over="ignore"):
            lo, hi = (float(np.float64(lam) ** e) for e in (np.min(exps), np.max(exps)))
    for name, applicable, slack in (
        ("norm_gt1_lower", gt1, rho - lo),
        ("norm_gt1_upper", gt1, hi - rho),
        ("norm_lt1_lower", lt1, rho - hi),
        ("norm_lt1_upper", lt1, lo - rho),
    ):
        slack = slack if applicable else 0.0
        checks.append(RelationCheck(name, applicable, slack >= -RELATION_TOL, slack))
    return checks
