"""Reference computations the benchmark checks vextrace's answers against.

They share no numerics with vextrace's luxemburg module: the Luxemburg
root comes from Brent's method (scipy ``brentq``) instead of bisection,
and every modular is summed with ``math.fsum`` instead of the lane
reduction.  Only the assembled quadrature data of a problem is reused.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq


def luxemburg_norm(values, weights, exponents):
    """The lambda > 0 with sum_i w_i |v_i / lambda|^p_i = 1 (0 for v = 0)."""
    av = np.abs(np.asarray(values, float))
    w = np.asarray(weights, float)
    p = np.asarray(exponents, float)
    peak = float(np.max(av))
    if peak == 0.0:
        return 0.0
    x = av / peak

    def excess(lam):
        return math.fsum((w * (x / lam) ** p).tolist()) - 1.0

    lo, hi = 0.5, 2.0
    while excess(lo) <= 0.0:
        lo *= 0.5
    while excess(hi) >= 0.0:
        hi *= 2.0
    return peak * brentq(excess, lo, hi, xtol=1e-300, rtol=1e-15, maxiter=500)


def quotient(a, problem):
    """Sobolev norm over boundary norm of the nodal vector a on a problem."""
    a = np.asarray(a, float)
    vals, gmag, _, _ = problem.interior_fields(a)
    w, p = problem.quad_weights, problem.p_exps
    num = luxemburg_norm(
        np.concatenate([vals, gmag]), np.concatenate([w, w]), np.concatenate([p, p])
    )
    den = luxemburg_norm(problem.boundary_values(a), problem.bquad_weights, problem.r_exps)
    return num / den


def initial_vector(problem):
    """The solver's constant start: ones with the zero-set nodes cleared."""
    a = np.ones(problem.domain.n_vertices)
    a[~problem.free_mask] = 0.0
    return a


def descent_failures(report, problem, max_iter):
    """Checks on a minimize report; returns a list of failure messages.

    The reported T must match the reference quotient of the returned
    minimizer to 1e-9 relative, the quotient history must be
    nonincreasing, and T may not exceed the reference quotient of the
    constant start.
    """
    out = []
    t = report.t_estimate
    t_ref = quotient(report.minimizer, problem)
    if not abs(t - t_ref) <= 1e-9 * t_ref:
        out.append(f"T {t!r} differs from the reference quotient {t_ref!r}")
    hist = list(report.quotient_history)
    if any(b > a for a, b in zip(hist, hist[1:])):
        out.append("quotient history increases")
    q0 = quotient(initial_vector(problem), problem)
    if not t_ref <= q0 * (1.0 + 1e-12):
        out.append(f"T {t_ref!r} exceeds the initial quotient {q0!r}")
    if not 0 <= report.iterations <= max_iter:
        out.append(f"iterations {report.iterations} outside [0, {max_iter}]")
    return out
