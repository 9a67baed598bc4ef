"""Discrete minimization of the trace Rayleigh quotient on P1 meshes.

The quotient is the Sobolev Luxemburg norm over the boundary Luxemburg
norm; both norm gradients come from implicit differentiation of the
modular equation, with the terms the root hands back.  The quotient is
0-homogeneous, so ``minimize`` hands it unconstrained to scipy's L-BFGS-B
(Liu & Nocedal 1989) over the free nodes, from a start scaled to unit
boundary norm.  The minimizer is renormalized to unit boundary norm, and
the report says why the run stopped: tol, max_iter, line_search or
zero_trace.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy import optimize
from scipy.spatial import cKDTree

from .exponents import SupercriticalError, critical_gap
from .geometry import GeometryError, distance_to_segments, fermi_chart
from .halfspace import ExtremalProfile, _smoothstep_cutoff, sharp_constant_inverse
from .luxemburg import _norm_from_arrays, fixed_order_sum

__all__ = [
    "DiscreteTraceProblem",
    "SolverReport",
    "ConcentrationVerdict",
    "ZeroTrace",
    "DegenerateExponent",
    "MeshNotNested",
    "rayleigh_quotient",
    "minimize",
    "solve_problem",
    "concentration_diagnostic",
    "monotonicity_check",
    "bubble_init",
    "sampled_exponent_bounds",
]

CRIT_TOL = 1e-8  # a boundary point with p_* - r at most this is critical
# in mesh sizes: the neighbourhood of a local check, the spacing of critical
# clusters and the radius of a mass atom
LOCAL_RADIUS = 10.0


class ZeroTrace(ValueError):
    """The trace vanishes: the iterate's boundary norm is zero, or no
    boundary node is free of the zero condition."""


class DegenerateExponent(ValueError):
    """Exponent too close to 1 for stable descent (alpha blows up)."""


class MeshNotNested(ValueError):
    """Local problem is not a restriction of the global mesh."""


def sampled_exponent_bounds(domain, p, r):
    """(inf, sup) of p over the interior quadrature points and vertices, and
    of r over the boundary quadrature points and boundary vertices.

    Raises DegenerateExponent at the first sample where p or r is not a
    finite number, since no bound check can judge a nan, and then
    SupercriticalError unless sup p < N, where p_* is defined.
    """
    samples = (
        ("p", p, np.concatenate([domain.interior_quadrature()[0], domain.vertices])),
        ("r", r, np.concatenate([domain.boundary_quadrature()[0],
                                 domain.vertices[domain.boundary_nodes()]])),
    )
    bounds = []
    for name, field_, pts in samples:
        v = np.asarray(field_(pts), float)
        bad = np.flatnonzero(~np.isfinite(v))
        if len(bad):
            raise DegenerateExponent(f"{name} is {v[bad[0]]} at {tuple(map(float, pts[bad[0]]))}")
        bounds.append((float(np.min(v)), float(np.max(v))))
    n = p.ambient_dimension
    if bounds[0][1] >= n:
        raise SupercriticalError(f"sup p = {bounds[0][1]} >= N = {n}")
    return tuple(bounds)


class DiscreteTraceProblem:
    """The trace quotient on one mesh: the domain's quadrature and P1
    operators, their adjoints (``ST``, ``GxT``, ``GyT``, ``SbT``: transposed
    views, built once), and the exponents sampled at its points.  ``S``
    maps nodal values to the 3nt interior points, ``Gx`` and ``Gy`` to the
    nt triangles' gradients, each shared by the triangle's three points.

    Flags (reported, not silently assumed):
      - ``p_plus_lt_r_minus``: the strict exponent gap needed by the
        critical-regime existence theory;
      - ``subcritical_margin``: min over boundary quadrature of p_* - r
        (nonpositive means the critical set is engaged);
      - ``critical_points``: boundary quadrature points within CRIT_TOL of
        the critical trace exponent.

    Raises ZeroTrace when every boundary node carries the zero condition:
    then every admissible function has zero trace and the quotient is
    undefined.
    """

    def __init__(self, domain, p_field, r_field):
        self.domain = domain
        self.p_field = p_field
        self.r_field = r_field

        self.gamma_nodes = domain.gamma_nodes()
        self.zero_set = domain.vertices[self.gamma_nodes]  # (0, 2) without gamma
        self.free_mask = np.ones(domain.n_vertices, dtype=bool)
        self.free_mask[self.gamma_nodes] = False
        if not np.any(self.free_mask[domain.boundary_nodes()]):
            raise ZeroTrace("no boundary node is free of the zero condition, "
                            "so every admissible function has zero trace")

        pts, self.quad_weights, self.S, self.Gx, self.Gy = domain.interior_quadrature()
        bpts, self.bquad_weights, self.Sb = domain.boundary_quadrature()
        self.ST, self.GxT, self.GyT, self.SbT = self.S.T, self.Gx.T, self.Gy.T, self.Sb.T
        self.quad_points, self.bquad_points = pts, bpts
        self.p_exps = np.asarray(p_field(pts), float)
        self.r_exps = np.asarray(r_field(bpts), float)
        self.p_bounds, self.r_bounds = sampled_exponent_bounds(domain, p_field, r_field)

        if self.p_bounds[0] < 1.05:
            raise DegenerateExponent(
                f"inf p = {self.p_bounds[0]} < 1.05: descent ill-conditioned"
            )
        if self.r_bounds[0] < 1.0:
            raise DegenerateExponent(f"inf r = {self.r_bounds[0]} < 1")

        gap = critical_gap(p_field, r_field, bpts)
        self.subcritical_margin = float(np.min(gap))
        if self.subcritical_margin < -1e-9:
            raise DegenerateExponent(
                f"r exceeds the critical trace exponent by {-self.subcritical_margin}"
            )
        self.critical_mask = gap <= CRIT_TOL
        self.critical_points = bpts[self.critical_mask]
        self.p_plus_lt_r_minus = self.p_bounds[1] < self.r_bounds[0]
        self.mesh_h = domain.mesh_size()

    # -- norms and gradients --------------------------------------------------

    def interior_fields(self, a):
        """(vals, gmag, gx, gy): the values and gradient magnitudes at the
        interior quadrature points, and the gradient components of each
        triangle, whose magnitude gmag repeats for its three points."""
        gx = self.Gx @ a
        gy = self.Gy @ a
        return self.S @ a, np.repeat(np.hypot(gx, gy), 3), gx, gy

    def sobolev_norm(self, a):
        vals, gmag, _, _ = self.interior_fields(a)
        return _norm_from_arrays(np.abs(vals), self.quad_weights, self.p_exps, gmag)[0]

    def boundary_values(self, a):
        return self.Sb @ a

    def boundary_norm(self, a):
        return self._boundary_norm(self.boundary_values(a))[0]

    def _boundary_norm(self, bv, start=None):
        """The ``_norm_from_arrays`` tuple of the values bv at the boundary
        quadrature; ZeroTrace when they vanish or their norm underflows."""
        if not np.any(bv):
            raise ZeroTrace("iterate vanishes on the boundary quadrature")
        out = _norm_from_arrays(np.abs(bv), self.bquad_weights, self.r_exps, None, start)
        if out[0] == 0.0 or not math.isfinite(out[0]):
            raise ZeroTrace("boundary norm underflow")
        return out

    def sobolev_norm_gradient(self, a, start=None):
        """(norm, d norm / d nodal values) by implicit differentiation.

        The root hands back its centre's terms with the shift that scales
        them to the root's terms t, and its slope weight D; an atom a
        contributes p lam t / (a D) times d a / d nodal values: sign(v) for a
        value, grad u / |grad u| for a gradient magnitude; a zero atom gives 0.
        A triangle's three gradient atoms share its gradient, so their
        p lam t / D are summed before the one division by |grad u|^2.
        ``start`` is a guess at the norm for the root.
        """
        vals, gmag, gx, gy = self.interior_fields(a)
        lam, tv, tg, shift, D = _norm_from_arrays(np.abs(vals), self.quad_weights,
                                                  self.p_exps, gmag, start)
        if lam == 0.0:
            raise ZeroTrace("zero function has no norm gradient")
        pl = self.p_exps * (lam / D)
        cv = np.divide(pl * (tv * shift), vals, out=np.zeros_like(vals), where=vals != 0.0)
        gt, tt = gmag[::3], (pl * (tg * shift)).reshape(-1, 3)
        cg = np.divide(tt[:, 0] + tt[:, 1] + tt[:, 2], gt * gt,
                       out=np.zeros_like(gt), where=gt > 0.0)
        grad = self.ST @ cv + self.GxT @ (cg * gx) + self.GyT @ (cg * gy)
        return lam, grad

    def boundary_norm_gradient(self, a, start=None):
        """(boundary norm, its gradient), as ``sobolev_norm_gradient``."""
        bv = self.boundary_values(a)
        lam, t, _, shift, D = self._boundary_norm(bv, start)
        c = np.divide(self.r_exps * (lam / D) * (t * shift), bv, out=np.zeros_like(bv),
                      where=bv != 0.0)
        return lam, self.SbT @ c


def rayleigh_quotient(a, problem):
    """Sobolev norm over boundary norm; raises ZeroTrace on vanishing trace."""
    a = np.asarray(a, float)
    den = problem.boundary_norm(a)
    return problem.sobolev_norm(a) / den


@dataclass(frozen=True)
class ConcentrationVerdict:
    concentrated: bool
    atom_location: tuple | None
    boundary_mass_profile: tuple  # ((radius, fraction), ...)
    interior_gradient_mass: tuple
    atom_candidates: tuple  # ranked ((x, y), mass fraction) pairs
    refinement: dict  # discrete analogue of the atom inequality


@dataclass
class SolverReport:
    t_estimate: float
    minimizer: np.ndarray
    iterations: int
    quotient_history: list
    stop_reason: str  # "tol", "max_iter", "line_search" or "zero_trace"
    n_evaluations: int
    init_label: str
    starts: tuple = ()  # (init label, T, iterations, stop reason) per start
    concentration: ConcentrationVerdict | None = None
    problem_flags: dict = field(default_factory=dict)

    @property
    def converged(self):
        return self.stop_reason == "tol"

    def to_dict(self):
        return {
            "t_estimate": self.t_estimate,
            "iterations": self.iterations,
            "quotient_history_first": self.quotient_history[0],
            "quotient_history_len": len(self.quotient_history),
            "converged": self.converged,
            "line_search_failed": self.stop_reason == "line_search",
            "stop_reason": self.stop_reason,
            "n_evaluations": self.n_evaluations,
            "starts": [list(s) for s in self.starts],
            "init": self.init_label,
            "concentration": asdict(self.concentration) if self.concentration else None,
            "problem_flags": self.problem_flags,
        }


def _problem_flags(problem):
    return {
        "p_bounds": list(problem.p_bounds),
        "r_bounds": list(problem.r_bounds),
        "p_plus_lt_r_minus": bool(problem.p_plus_lt_r_minus),
        "subcritical_margin": problem.subcritical_margin,
        "n_critical_quad_points": int(np.sum(problem.critical_mask)),
        "mesh_h": problem.mesh_h,
        "n_vertices": int(problem.domain.n_vertices),
    }


def bubble_init(problem, x0, lam, delta=None):
    """Nodal interpolation of a truncated extremal profile centered at x0.

    Local frame coordinates are linearized around the base point; the far
    tail is cut off smoothly beyond delta (default 4 lam), which is all an
    initial iterate needs.
    """
    chart = fermi_chart(problem.domain.loop, x0)
    p0 = float(problem.p_field.eval_at(chart.x0))
    prof = ExtremalProfile(2, p0, lam=lam)
    rel = problem.domain.vertices - chart.x0
    y = rel @ chart.tau
    t = np.maximum(rel @ chart.nu, 0.0)
    vals = prof.value(y[:, None], t)
    if delta is None:
        delta = 4.0 * lam
    vals = vals * _smoothstep_cutoff(np.hypot(y, t), delta)[0]
    vals[~problem.free_mask] = 0.0
    return vals


def _initial_vector(problem, init, rng):
    if isinstance(init, np.ndarray):
        a = init.astype(float).copy()
        label = "vector"
    elif init == "constant":
        a = np.ones(problem.domain.n_vertices)
        label = "constant"
    elif init == "random":
        a = rng.standard_normal(problem.domain.n_vertices)
        label = "random"
    elif isinstance(init, tuple) and init[0] == "bubble":
        _, x0, lam = init
        a = bubble_init(problem, x0, lam)
        label = f"bubble({x0[0]:.3g},{x0[1]:.3g};{lam:.3g})"
    else:
        raise ValueError(f"unknown init {init!r}")
    a[~problem.free_mask] = 0.0
    return a, label


def minimize(problem, init="constant", max_iter=200, tol=1e-6, seed=0):
    """L-BFGS-B on the trace quotient over the free nodes from one start.

    Each evaluation of q = S/B and (dS - q dB)/B costs one norm-gradient
    pair.  From the second evaluation on, each norm's root starts from a
    guess: the previous evaluation's norm plus its gradient times the step
    in the free nodes, an exact sum, so that the guess, and with it the last
    bits of the root, depend on no BLAS build or CPU.  ``tol`` is L-BFGS-B's
    ``ftol`` (stop when an iteration lowers q by at most tol * max(q, 1)),
    ``max_iter`` its ``maxiter``, and at most 4 * max_iter evaluations run.
    A start whose trace vanishes raises ZeroTrace; a trial point whose trace
    vanishes ends the run at the last accepted iterate.  The history (start,
    then each accepted iterate) is nonincreasing by the sufficient-decrease
    search.
    """
    a, label = _initial_vector(problem, init, np.random.default_rng(seed))
    free = problem.free_mask
    a = a / problem.boundary_norm(a)
    last = a[free]
    evaluated, accepted = [], []
    previous = None  # x, norms and their gradients at the last evaluation

    def quotient_and_gradient(x):
        nonlocal previous
        a[free] = x
        guess = (None, None)
        if previous is not None:
            x0, norms, grads = previous
            dx = x - x0
            guess = tuple(n + fixed_order_sum(g * dx) for n, g in zip(norms, grads))
        num, dnum = problem.sobolev_norm_gradient(a, guess[0])
        den, dden = problem.boundary_norm_gradient(a, guess[1])
        dnum, dden = dnum[free], dden[free]
        previous = (x.copy(), (num, den), (dnum, dden))
        q = num / den
        evaluated.append(q)
        return q, (dnum - q * dden) / den

    def accept(intermediate_result):
        accepted.append(float(intermediate_result.fun))
        last[:] = intermediate_result.x

    try:
        res = optimize.minimize(
            quotient_and_gradient, last.copy(), jac=True, method="L-BFGS-B",
            callback=accept,
            options={"maxiter": max_iter, "maxfun": 4 * max_iter, "ftol": tol, "gtol": 0.0},
        )
        stop_reason = {0: "tol", 1: "max_iter"}.get(res.status, "line_search")
    except ZeroTrace:
        stop_reason = "zero_trace"

    a[free] = last
    a = a / problem.boundary_norm(a)
    t_final = rayleigh_quotient(a, problem)
    return SolverReport(
        t_estimate=t_final,
        minimizer=a,
        iterations=len(accepted),
        quotient_history=evaluated[:1] + accepted,
        stop_reason=stop_reason,
        n_evaluations=len(evaluated),
        init_label=label,
        starts=((label, t_final, len(accepted), stop_reason),),
        problem_flags=_problem_flags(problem),
    )


def _separated(points, d):
    """Indices of up to three of the points, taken in order, each farther
    than d from every point taken before it."""
    chosen = []
    for i, x in enumerate(points):
        if all(np.linalg.norm(x - points[j]) > d for j in chosen):
            chosen.append(i)
            if len(chosen) == 3:
                break
    return chosen


def _cluster_critical_points(problem):
    """Up to three critical quadrature points more than LOCAL_RADIUS mesh
    sizes apart, each moved to the nearest point of the exact boundary: the
    quadrature points lie on the chords, off a curved arc, where fermi_chart
    has no chart."""
    pts = problem.critical_points
    chosen = pts[_separated(pts, LOCAL_RADIUS * problem.mesh_h)]
    return [arc.point(s) for arc, s, _ in map(problem.domain.loop.nearest, chosen)]


def solve_problem(problem, n_random=3, max_iter=200, tol=1e-6, seed=0):
    """Multi-start driver: constant, random restarts, one bubble of scale 4h
    per detected critical cluster farther than 8 lam from the zero set;
    returns the best report, whose ``starts`` lists every start in order."""
    inits = ["constant"] + ["random"] * n_random
    lam = 4.0 * problem.mesh_h
    for x0 in _cluster_critical_points(problem):
        if distance_to_segments(x0, problem.zero_set, problem.zero_set)[0] < 8 * lam:
            continue
        inits.append(("bubble", (float(x0[0]), float(x0[1])), lam))

    reports = [
        minimize(problem, init=init, max_iter=max_iter, tol=tol, seed=seed + k)
        for k, init in enumerate(inits)
    ]
    best = min(reports, key=lambda rep: rep.t_estimate)
    best.starts = sum((rep.starts for rep in reports), ())
    return best


def concentration_diagnostic(a, problem, radii):
    """Locate the dominant boundary mass atom and profile its spread.

    The iterate is renormalized to unit boundary norm, so the boundary
    modular masses sum to one; the verdict is whether the mass fraction
    within LOCAL_RADIUS mesh sizes of the atom exceeds 0.9.  The discrete
    analogue of the atom inequality is evaluated with the closed-form
    half-space constant K(2, p(atom))^-1 as the localized-constant
    surrogate.
    """
    a = np.asarray(a, float) / problem.boundary_norm(a)
    radii = sorted(float(r) for r in radii)
    bv = problem.boundary_values(a)
    masses = problem.bquad_weights * np.abs(bv) ** problem.r_exps
    total = fixed_order_sum(masses)
    _, gmag, _, _ = problem.interior_fields(a)
    gmasses = problem.quad_weights * gmag**problem.p_exps

    bpts = problem.bquad_points
    r_atom = LOCAL_RADIUS * problem.mesh_h
    balls = cKDTree(bpts).query_ball_point(bpts, r_atom)
    ball_mass = np.array([fixed_order_sum(masses[b]) for b in balls])
    order = np.argsort(-ball_mass)
    atom = bpts[order[0]]

    candidates = tuple(
        ((float(bpts[i, 0]), float(bpts[i, 1])), float(ball_mass[i] / total))
        for i in order[_separated(bpts[order], 2 * r_atom)]
    )

    db = np.linalg.norm(bpts - atom, axis=1)
    di = np.linalg.norm(problem.quad_points - atom, axis=1)
    profile = tuple(
        (r, float(fixed_order_sum(masses[db <= r]) / total)) for r in radii
    )
    gtotal = fixed_order_sum(gmasses)
    gprofile = tuple(
        (r, float(fixed_order_sum(gmasses[di <= r]) / gtotal)) for r in radii
    )

    p_atom = float(problem.p_field.eval_at(atom))
    r_atom_exp = float(problem.r_field.eval_at(atom))
    nu = float(fixed_order_sum(masses[db <= r_atom]))
    mu = float(fixed_order_sum(gmasses[di <= r_atom]))
    tbar = sharp_constant_inverse(2, p_atom)
    slack = mu ** (1.0 / p_atom) - tbar * nu ** (1.0 / r_atom_exp)
    return ConcentrationVerdict(
        concentrated=nu / total > 0.9,
        atom_location=(float(atom[0]), float(atom[1])),
        boundary_mass_profile=profile,
        interior_gradient_mass=gprofile,
        atom_candidates=candidates,
        refinement={
            "nu": nu,
            "mu": mu,
            "t_bar_surrogate": tbar,
            "slack": slack,
            "radius": r_atom,
        },
    )


def monotonicity_check(problem, x0, radius, max_iter=200, tol=1e-6):
    """Solve on the full domain and on the ball-restricted subdomain.

    The subdomain's artificial boundary is gamma-marked, so its minimizer
    extends by zero to an admissible full-domain iterate whose quotient
    equals T_local exactly; T_full takes the better of that extension and
    a full-domain solve, so T_full <= T_local holds by construction.
    Returns (T_full, T_local).
    """
    x0 = np.asarray(x0, float)
    sub, node_map = problem.domain.submesh(x0, radius)
    if distance_to_segments(x0, problem.zero_set, problem.zero_set)[0] <= radius:
        raise MeshNotNested("cap overlaps the prescribed zero set")
    local = DiscreteTraceProblem(sub, problem.p_field, problem.r_field)
    rep_local = minimize(local, init="constant", max_iter=max_iter, tol=tol)

    extension = np.zeros(problem.domain.n_vertices)
    extension[node_map] = rep_local.minimizer
    extension[~problem.free_mask] = 0.0
    q_ext = rayleigh_quotient(extension, problem)
    rep_const = minimize(problem, init="constant", max_iter=max_iter, tol=tol)
    t_full = min(q_ext, rep_const.t_estimate)
    return t_full, rep_local.t_estimate


def local_constant_schedule(problem, x0, radii, max_iter=200):
    """Local constants on a shrinking radius schedule (largest first).

    Each cap is solved from the constant start at minimize's default tol.
    The schedule stops at the first cap without a free boundary node: the
    constant start vanishes on its whole boundary, and smaller caps are
    no better.  Raises ZeroTrace when not even the largest cap is usable.
    No program path calls it; kept while perfbench/tracing.py wraps it.
    """
    out = []
    for r in sorted(radii, reverse=True):
        try:
            sub, _ = problem.domain.submesh(np.asarray(x0, float), r)
        except GeometryError:  # empty cap, or a cap cut off from the boundary
            break
        try:
            local = DiscreteTraceProblem(sub, problem.p_field, problem.r_field)
        except ZeroTrace:  # no free boundary node
            break
        rep = minimize(local, init="constant", max_iter=max_iter)
        out.append((float(r), rep.t_estimate))
    if not out:
        raise ZeroTrace(f"no cap of radius {max(radii)} or less has a free boundary node")
    return out
