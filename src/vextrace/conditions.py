"""Checkable existence conditions for trace-quotient extremals.

Every check returns a three-valued ConditionVerdict (satisfied, violated,
or indeterminate): all inputs are numerical estimates and the underlying
inequalities are strict, so a verdict is only claimed when the error bars
clear the comparison.  Satisfied existence verdicts are numerical
evidence, never proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exponents import SupercriticalError, critical_gap, local_extremum_check
from .geometry import GeometryError, distance_to_segments, fermi_chart
from .halfspace import K_INV_REL, sharp_constant_inverse
from .luxemburg import fixed_order_sum
from .solver import CRIT_TOL, sampled_exponent_bounds

__all__ = [
    "ConditionVerdict",
    "Estimate",
    "GammaNotEmpty",
    "NotCritical",
    "LogPower",
    "compactness_rate_check",
    "global_condition",
    "global_lhs_closed_form",
    "disk_global_lhs",
    "local_condition",
    "existence_verdict",
    "critical_corners",
    "localized_constant_estimate",
    "smallest_localized_constant",
]

MAX_SAMPLED = 16  # most critical points smallest_localized_constant visits


class GammaNotEmpty(ValueError):
    """The global condition only applies with an empty zero set."""


class NotCritical(ValueError):
    """The base point is not in the critical set."""


@dataclass(frozen=True)
class ConditionVerdict:
    """Uniform carrier: satisfied is True/False/None (indeterminate)."""

    name: str
    satisfied: bool | None
    lhs: float
    rhs: float
    margin: float
    provenance: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Estimate:
    """A value with a one-sided error bar."""

    value: float
    error: float = 0.0

    @property
    def low(self):
        return self.value - self.error

    @property
    def high(self):
        return self.value + self.error


@dataclass(frozen=True)
class LogPower:
    """Approach-rate profile xi -> (ln ln xi)^n; admissible for the
    compactness criterion (eventually increasing to infinity with
    phi(xi)/ln(xi) nonincreasing) when n >= 1: n = 0 is constant, and a
    negative n decreases to 0."""

    n: int = 1

    def __post_init__(self):
        if not self.n >= 1:
            raise ValueError(f"need phi_n >= 1, got {self.n}")

    def __call__(self, xi):
        xi = np.asarray(xi, float)
        inner = np.log(np.maximum(np.log(np.maximum(xi, 1.0 + 1e-12)), 1e-12))
        return np.maximum(inner, 0.0) ** self.n


def _dist_to_set(points, K, domain):
    """Distance from points to K: an (m,2) point array or arc-index list.

    Arc-index sets are measured against the meshed (chordal) trace of those
    arcs, so boundary quadrature points lying on them register distance 0,
    consistently with the discrete boundary measure.  An arc index outside
    the domain's loop raises GeometryError.
    """
    points = np.atleast_2d(points)
    if len(K) and isinstance(K[0], (int, np.integer)):
        for i in K:
            if i < 0 or i >= len(domain.loop.arcs):
                raise GeometryError(f"K arc index {i} out of range")
        edges = domain.boundary_edges[np.isin(domain.edge_arc, K)]
        v = domain.vertices
        return distance_to_segments(points, v[edges[:, 0]], v[edges[:, 1]])
    K_pts = np.atleast_2d(np.asarray(K, float))
    diff = points[:, None, :] - K_pts[None, :, :]
    return np.min(np.sqrt(np.sum(diff * diff, axis=2)), axis=1)


def _subcritical_bounds(domain, p, r):
    """``sampled_exponent_bounds``, once they show sup p < N on the domain."""
    p_bounds, r_bounds = sampled_exponent_bounds(domain, p, r)
    n = p.ambient_dimension
    if p_bounds[1] >= n:
        raise SupercriticalError(f"sup p = {p_bounds[1]} >= N = {n}")
    return p_bounds, r_bounds


def _extremum_gates(p, r, x0, radius, ipts, bpts):
    """Is x0 a local minimum of p over the interior and boundary quadrature
    points within radius, and a local maximum of r over the boundary ones?
    Returns (p_min_ok, p_witness, r_max_ok, r_witness)."""
    near_i = ipts[np.linalg.norm(ipts - x0, axis=1) <= radius]
    near_b = bpts[np.linalg.norm(bpts - x0, axis=1) <= radius]
    p_min = local_extremum_check(p, x0, "min", np.concatenate([near_i, near_b]))
    r_max = local_extremum_check(r, x0, "max", near_b)
    return (*p_min, *r_max)


def compactness_rate_check(domain, p, r, K, s, C, r0, phi):
    """Compact-regime criterion: subcritical away from K, controlled
    approach rate near K, and a Minkowski-content bound on K itself.

    K is a finite point set (array of points) or a list of boundary arc
    indices.  The verdict is satisfied only if all three parts hold on the
    boundary quadrature sample.  Raises SupercriticalError unless sup p < N
    on the domain sample.
    """
    if not (0.0 < s <= domain.vertices.shape[1] - 1):
        raise ValueError("need 0 < s <= N-1")
    if not (0.0 < r0 < math.exp(-1.0)):
        raise ValueError("need r0 in (0, 1/e)")
    if not C > 0.0:
        raise ValueError("need C > 0")
    _subcritical_bounds(domain, p, r)
    bpts, bw, _ = domain.boundary_quadrature()
    gap = critical_gap(p, r, bpts)
    dist = _dist_to_set(bpts, K, domain)

    far = dist >= r0
    margin_far = float(np.min(gap[far])) if np.any(far) else math.inf

    near = (~far) & (dist > 1e-14)
    if np.any(near):
        d = dist[near]
        rate = np.asarray(phi(1.0 / d), float) / np.log(1.0 / d)
        margin_near = float(np.min(gap[near] - rate))
    else:
        margin_near = math.inf

    on_set = dist <= 1e-14
    # on a positive-measure part of K the rate bound degenerates: the only
    # admissible behavior there is strict subcriticality
    if np.any(on_set):
        margin_on = float(np.min(gap[on_set]))
        if margin_on <= 1e-12:
            margin_on = -math.inf
    else:
        margin_on = math.inf

    rhos = r0 * 2.0 ** -np.arange(6)
    contents = np.array([fixed_order_sum(bw[dist < rho]) for rho in rhos])
    margin_content = float(np.min(C * rhos**s - contents))
    pos = contents > 0
    if np.sum(pos) >= 2:
        coef = np.polyfit(np.log(rhos[pos]), np.log(contents[pos]), 1)
        fit = {"s_hat": float(coef[0]), "C_hat": float(math.exp(coef[1]))}
    else:
        fit = {"s_hat": None, "C_hat": None}

    # strict uniform subcriticality away from K; the approach rate and the
    # content bound are non-strict inequalities (up to fp slack)
    ok = (
        margin_far > 0.0
        and margin_near >= -1e-12
        and margin_on > 0.0
        and margin_content >= -1e-12
    )
    margin = min(margin_far, margin_near, margin_on, margin_content)
    return ConditionVerdict(
        name="compactness_rate",
        satisfied=bool(ok),
        lhs=-margin,
        rhs=0.0,
        margin=margin,
        provenance={
            "margin_subcritical_far": margin_far,
            "margin_rate_near": margin_near,
            "margin_on_set": margin_on,
            "margin_content": margin_content,
            "content_fit": fit,
            "n_quad_points": int(len(bpts)),
        },
    )


def global_lhs_closed_form(volume, boundary_area, p_bounds, r_bounds):
    """max(|O|^(1/p+), |O|^(1/p-)) / min(|dO|^(1/r+), |dO|^(1/r-))."""
    p_lo, p_hi = p_bounds
    r_lo, r_hi = r_bounds
    num = max(volume ** (1.0 / p_hi), volume ** (1.0 / p_lo))
    den = min(boundary_area ** (1.0 / r_hi), boundary_area ** (1.0 / r_lo))
    return num / den


def disk_global_lhs(radius, p_bounds, r_bounds):
    """Closed-form global lhs for the disk family of the given radius."""
    return global_lhs_closed_form(
        math.pi * radius * radius, 2.0 * math.pi * radius, p_bounds, r_bounds
    )


def global_condition(domain, p, r, t_bar):
    """Small-domain sufficient condition via the constant test function.

    Requires an empty zero set; three-valued against the localized-constant
    estimate t_bar (an Estimate with error bar).
    """
    if np.any(domain.gamma_edges):
        raise GammaNotEmpty("the global condition needs an empty zero set (gamma)")
    vol = domain.volume()
    per = domain.boundary_length()
    p_bounds, r_bounds = sampled_exponent_bounds(domain, p, r)
    lhs = global_lhs_closed_form(vol, per, p_bounds, r_bounds)
    if lhs < t_bar.low:
        sat = True
    elif lhs > t_bar.high:
        sat = False
    else:
        sat = None
    return ConditionVerdict(
        name="global_small_domain",
        satisfied=sat,
        lhs=lhs,
        rhs=t_bar.value,
        margin=t_bar.value - lhs,
        provenance={
            "volume": vol,
            "boundary_area": per,
            "p_bounds": list(p_bounds),
            "r_bounds": list(r_bounds),
            "t_bar_error": t_bar.error,
        },
    )


def local_condition(domain, p, r, x0):
    """Pointwise sufficient condition at a critical boundary point.

    Gates, in order: x0 critical, p locally minimal, r locally maximal
    (both sampled within 10 mesh sizes of x0); then the disjunction (inward
    normal derivative of p positive) or (boundary curvature positive); the
    fired branch is recorded.  Raises SupercriticalError unless sup p < N on
    the domain sample.
    """
    x0 = np.asarray(x0, float)
    p_bounds, r_bounds = _subcritical_bounds(domain, p, r)
    gap0 = float(critical_gap(p, r, x0)[0])
    if abs(gap0) > CRIT_TOL:
        raise NotCritical(f"trace-exponent gap at x0 is {gap0}")

    p_min_ok, p_wit, r_max_ok, r_wit = _extremum_gates(
        p, r, x0, 10.0 * domain.mesh_size(),
        domain.interior_quadrature()[0], domain.boundary_quadrature()[0],
    )

    chart = fermi_chart(domain.loop, x0)
    dtp = float(p.gradient(x0[None, :])[0] @ chart.nu)
    H = chart.H
    gates_ok = p_min_ok and r_max_ok and p_bounds[1] < r_bounds[0]
    rhs = max(dtp, H)
    branch = None
    if dtp > 0:
        branch = "normal_derivative"
    elif H > 0:
        branch = "curvature"
    sat = bool(gates_ok and rhs > 0)
    return ConditionVerdict(
        name="local_conditions",
        satisfied=sat,
        lhs=0.0,
        rhs=rhs,
        margin=rhs if gates_ok else -math.inf,
        provenance={
            "critical_gap": gap0,
            "p_local_min": bool(p_min_ok),
            "r_local_max": bool(r_max_ok),
            "p_plus_lt_r_minus": bool(p_bounds[1] < r_bounds[0]),
            "normal_derivative_p": dtp,
            "curvature": H,
            "branch": branch,
            "witness_p": None if p_wit is None else list(p_wit),
            "witness_r": None if r_wit is None else list(r_wit),
        },
    )


def existence_verdict(t_estimate, t_bar_estimate):
    """Strict-gap test T < T_bar with both error bars; numerical evidence only."""
    sat: bool | None
    if t_estimate.high < t_bar_estimate.low:
        sat = True
    elif t_estimate.low > t_bar_estimate.high:
        sat = False
    else:
        sat = None
    return ConditionVerdict(
        name="existence_strict_gap",
        satisfied=sat,
        lhs=t_estimate.value,
        rhs=t_bar_estimate.value,
        margin=t_bar_estimate.value - t_estimate.value,
        provenance={
            "t_error": t_estimate.error,
            "t_bar_error": t_bar_estimate.error,
            "status": "numerical evidence",
        },
    )


# max_iter is unread; kept while perfbench/workloads.py passes it
def localized_constant_estimate(problem, x0, max_iter=None):
    """The half-space constant K(2, p(x0))^-1 at a critical boundary point,
    with method "halfspace".  Concentrating the half-space extremal at x0
    gives T_bar_x0 <= K^-1, with equality when x0 is a local minimum of p
    and a local maximum of r (both sampled within 10 mesh sizes); then the
    bar is the closed form's relative K_INV_REL, else K^-1 is an upper
    bound only and the bar is infinite.
    """
    p, r = problem.p_field, problem.r_field
    x0 = np.asarray(x0, float)
    p_min_ok, _, r_max_ok, _ = _extremum_gates(
        p, r, x0, 10 * problem.mesh_h, problem.quad_points, problem.bquad_points
    )
    k_inv = sharp_constant_inverse(2, float(p.eval_at(x0)))
    return Estimate(k_inv, K_INV_REL * k_inv if p_min_ok and r_max_ok else math.inf), "halfspace"


def critical_corners(problem):
    """The convex corners of the domain's loop (interior angle below pi) at
    which p_* - r is at most CRIT_TOL, as [{"point": [x, y], "angle": a}]
    with the interior angle a in radians.

    The half-space constant K(N, p(x))^-1 is the localized constant where
    the boundary is C^1.  At a convex corner the wedge admits smaller
    quotients: radial functions about the vertex of a wedge of opening a
    have (a/pi)^(1/p) times their half-plane quotient, and at a right angle
    with p = 1.5 the family 1/(1 + rho) gives 0.8513 against K^-1 = 1.2599.
    That is an upper bound only, so no T_bar is known there.
    """
    corners = problem.domain.loop.convex_corners()
    if not corners:
        return []
    gap = critical_gap(problem.p_field, problem.r_field, np.array([x for x, _ in corners]))
    return [{"point": [float(x[0]), float(x[1])], "angle": angle}
            for (x, angle), g in zip(corners, gap) if g <= CRIT_TOL]


def smallest_localized_constant(problem):
    """Infimum of the localized constants over sampled critical points.

    The infimum is taken over at most MAX_SAMPLED evenly strided boundary
    quadrature points in the critical set (a sampled check, flagged as such
    in the result).  It gets an infinite error bar, so that no verdict
    against it is decided, when any sampled estimate is known only from
    above, or when the critical set holds a convex corner
    (critical_corners), whose localized constant is below the smooth
    points' by an amount not computed; the provenance lists such corners
    under "critical_corners".
    """
    pts = problem.critical_points
    if len(pts) == 0:
        raise NotCritical("no critical boundary quadrature points")
    pts = pts[::math.ceil(len(pts) / MAX_SAMPLED)]
    sampled = [(x, *localized_constant_estimate(problem, x)) for x in pts]
    x, est, method = min(sampled, key=lambda s: s[1].value)
    prov = {"method": method, "argmin": [float(x[0]), float(x[1])], "sampled_check": True,
            "n_sampled": int(len(pts))}
    corners = critical_corners(problem)
    if corners:
        prov["critical_corners"] = corners
    if corners or any(math.isinf(e.error) for _, e, _ in sampled):
        est = Estimate(est.value, math.inf)
    return est, prov
