"""The three benchmark workloads.

Each workload draws its inputs from a seed, builds its problems the way the
CLI does (config text -> ``ProblemConfig.build_problem``), and runs one
batch job through vextrace's public API.  vextrace functions are always
reached through their module (``solver.minimize``), so the tracer's patches
see every call.

A workload is used as:

    w = WORKLOADS[name](seed)
    state = w.setup()            # timed as setup_s
    outputs = w.run(state)       # timed as run_s; {op name: result | Failed | Refused}
    w.check(state, outputs)      # {op name: [failure messages]}
    w.work(state, outputs)       # {op name: {counter: value}}, must repeat exactly
"""

from __future__ import annotations

import math
import traceback

import numpy as np

from vextrace import conditions, config, exponents, halfspace, solver

import reference

TWO_PI = 6.283185307179586


class Failed:
    """An operation that raised an exception the benchmark does not expect."""

    def __init__(self, reason):
        self.reason = reason


class Refused:
    """An operation that raised the documented ZeroTrace refusal."""

    def __init__(self, reason):
        self.reason = reason


def answered(value):
    return not isinstance(value, (Failed, Refused))


def attempt(outputs, op, fn, *args, refuse=(), **kwargs):
    """Run one operation, recording its result or how it failed."""
    try:
        outputs[op] = fn(*args, **kwargs)
    except refuse as err:
        outputs[op] = Refused(f"{type(err).__name__}: {err}")
    except Exception:  # the run must go on and count the failure
        outputs[op] = Failed(traceback.format_exc(limit=4))
    return outputs[op]


def config_text(pieces, h, gamma, p_expr, r_expr):
    lines = ["[domain]"]
    lines += [f"{kind} = " + " ".join(repr(float(x)) for x in nums) for kind, nums in pieces]
    lines += [
        f"h = {h!r}",
        "gamma = " + " ".join(str(g) for g in gamma),
        "",
        "[exponents]",
        "n = 2",
        f"p_expr = {p_expr}",
        f"r_expr = {r_expr}",
    ]
    return "\n".join(lines) + "\n"


def build_problem(text):
    return config.ProblemConfig.from_text(text).build_problem()


def mesh_work(problem):
    return {
        "n_vertices": int(problem.domain.n_vertices),
        "n_quad": int(len(problem.quad_weights)),
        "n_bquad": int(len(problem.bquad_weights)),
    }


def descent_work(report):
    return {
        "iterations": int(report.iterations),
        "history_len": len(report.quotient_history),
        "t_estimate": float(report.t_estimate),
    }


def concentration_failures(verdict, radii):
    out = []
    fractions = [f for _, f in verdict.boundary_mass_profile]
    fractions += [f for _, f in verdict.interior_gradient_mass]
    if not all(-1e-12 <= f <= 1.0 + 1e-12 for f in fractions):
        out.append(f"mass fractions outside [0, 1]: {fractions}")
    for profile in (verdict.boundary_mass_profile, verdict.interior_gradient_mass):
        if [r for r, _ in profile] != sorted(radii):
            out.append("profile radii differ from the requested radii")
        if any(b[1] < a[1] for a, b in zip(profile, profile[1:])):
            out.append("mass profile decreases with the radius")
    return out


def checked(outputs, op, checks):
    """Failure messages for op; an op that did not answer is not checked."""
    value = outputs.get(op)
    if value is None:
        return [f"{op} missing"]
    return checks(value) if answered(value) else []


# ---------------------------------------------------------------------------


class SolveVariable:
    """Descent on the unit disk with variable exponents (``vextrace solve``).

    The seed draws the slopes a, b of p = 1.5 + a*x2 and r = 2 + b*x1 from
    a narrow subcritical range.  The mesh size and the 150-iteration cap of
    configs/disk_subcritical.cfg are fixed, so every seed does the same
    number of iterations and the work varies only in the modular
    evaluations per norm.
    """

    name = "solve-variable"
    H = 0.1
    MAX_ITER = 150
    TOL = 1e-6
    RADII = (0.3, 1.0)

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.uniform(0.08, 0.12), rng.uniform(0.16, 0.24)
        self.config = config_text(
            [("arc", (0.0, 0.0, 1.0, 0.0, TWO_PI))], self.H, (),
            f"1.5 + {a:.6f}*x2", f"2 + {b:.6f}*x1",
        )

    def setup(self):
        return build_problem(self.config)

    def run(self, problem):
        out = {}
        rep = attempt(out, "minimize", solver.minimize, problem, init="constant",
                      max_iter=self.MAX_ITER, tol=self.TOL)
        if answered(rep):
            attempt(out, "concentration", solver.concentration_diagnostic,
                    rep.minimizer, problem, list(self.RADII))
        else:
            out["concentration"] = Failed("no minimizer")
        return out

    def t_estimate(self, outputs):
        rep = outputs["minimize"]
        return rep.t_estimate if answered(rep) else math.nan

    def check(self, problem, outputs):
        h = problem.mesh_h

        def concentration(v):
            msgs = concentration_failures(v, self.RADII)
            radius = math.hypot(*v.atom_location)
            if not 1.0 - h <= radius <= 1.0 + 1e-9:
                msgs.append(f"atom {v.atom_location} is not on the boundary")
            return msgs

        return {
            "minimize": checked(outputs, "minimize",
                                lambda r: reference.descent_failures(r, problem, self.MAX_ITER)),
            "concentration": checked(outputs, "concentration", concentration),
        }

    def work(self, problem, outputs):
        rep, conc = outputs["minimize"], outputs["concentration"]
        return {
            "setup": mesh_work(problem),
            "minimize": descent_work(rep) if answered(rep) else None,
            "concentration": list(conc.atom_location) if answered(conc) else None,
        }


# ---------------------------------------------------------------------------


class MeshFine:
    """Fine meshes of three domains, then mesh-sized diagnostics.

    The seed draws the geometry: each domain's placement, a +-1 % size
    factor, and the boundary point its bubble is centred on, from windows
    narrow enough that the bubble quotients move by well under 1 %.  The
    mesh sizes are fixed, so the vertex counts move by about 2 % between
    seeds.  Only two norms per domain are taken, so the Luxemburg root and
    the descent do almost no work here.
    """

    name = "mesh-fine"
    HOLDER_POINTS = 2000
    SUB_RADIUS = 0.3
    RADII = (0.1, 0.3)
    SLOPE = 0.05  # of p = 1.5 + SLOPE*x2; r = 2 + 2*SLOPE*x1

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        p_expr, r_expr = f"1.5 + {self.SLOPE!r}*x2", f"2 + {2 * self.SLOPE!r}*x1"

        def offset():
            return rng.uniform(-0.1, 0.1, size=2)

        cx, cy = offset()
        R = rng.uniform(0.99, 1.01)
        th = rng.uniform(0.2 * math.pi, 0.3 * math.pi)
        disk = config_text([("arc", (cx, cy, R, 0.0, TWO_PI))], 0.03, (), p_expr, r_expr)

        x0, y0 = offset()
        L = rng.uniform(0.99, 1.01)
        corners = [(x0, y0), (x0 + L, y0), (x0 + L, y0 + L), (x0, y0 + L)]
        square = config_text(
            [("segment", (*c, *d)) for c, d in zip(corners, corners[1:] + corners[:1])],
            0.025, (3,), p_expr, r_expr,
        )
        ty = rng.uniform(0.45, 0.55)

        hx, hy = offset()
        hR = rng.uniform(0.99, 1.01)
        ph = rng.uniform(0.45 * math.pi, 0.55 * math.pi)
        half = config_text(
            [("segment", (hx - hR, hy, hx + hR, hy)), ("arc", (hx, hy, hR, 0.0, math.pi))],
            0.03, (0,), p_expr, r_expr,
        )

        self.domains = {
            "disk": (disk, (cx + R * math.cos(th), cy + R * math.sin(th))),
            "square": (square, (x0 + L, y0 + ty * L)),
            "halfdisk": (half, (hx + hR * math.cos(ph), hy + hR * math.sin(ph))),
        }

    def setup(self):
        return {k: build_problem(text) for k, (text, _) in self.domains.items()}

    def run(self, problems):
        out = {}
        for k, problem in problems.items():
            dom = problem.domain
            x0 = self.domains[k][1]
            attempt(out, f"{k}.refine", dom.refine)
            attempt(out, f"{k}.submesh", dom.submesh, np.asarray(x0), self.SUB_RADIUS)
            bubble = attempt(out, f"{k}.bubble", solver.bubble_init, problem, x0,
                             4.0 * problem.mesh_h)
            if answered(bubble):
                attempt(out, f"{k}.quotient", solver.rayleigh_quotient, bubble, problem)
                attempt(out, f"{k}.concentration", solver.concentration_diagnostic,
                        bubble, problem, list(self.RADII))
            else:
                out[f"{k}.quotient"] = out[f"{k}.concentration"] = Failed("no bubble")
            idx = np.unique(np.linspace(0, dom.n_vertices - 1, self.HOLDER_POINTS).astype(int))
            attempt(out, f"{k}.holder", exponents.log_holder_probe,
                    problem.p_field, dom.vertices[idx])
        return out

    def t_estimate(self, outputs):
        qs = [outputs[f"{k}.quotient"] for k in self.domains]
        return min(qs) if all(answered(q) for q in qs) else math.nan

    def check(self, problems, outputs):
        fails = {}
        for k, problem in problems.items():
            dom, x0, h = problem.domain, np.asarray(self.domains[k][1]), problem.mesh_h

            def refine(res, dom=dom):
                fine, prol = res
                msgs = []
                n_edges = len({tuple(sorted(e)) for t in dom.triangles.tolist()
                               for e in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0]))})
                if fine.n_vertices != dom.n_vertices + n_edges:
                    msgs.append(f"{fine.n_vertices} fine vertices, expected "
                                f"{dom.n_vertices} + {n_edges}")
                if len(fine.triangles) != 4 * len(dom.triangles):
                    msgs.append("refinement does not split every triangle in four")
                if not math.isclose(fine.volume(), dom.volume(), rel_tol=1e-12):
                    msgs.append("refinement changes the area")
                if not np.allclose(prol @ np.ones(dom.n_vertices), 1.0, rtol=0, atol=1e-14):
                    msgs.append("prolongation does not reproduce constants")
                return msgs

            def submesh(res, dom=dom, x0=x0):
                sub, node_map = res
                msgs = []
                if not np.array_equal(sub.vertices, dom.vertices[node_map]):
                    msgs.append("submesh vertices differ from the parent's")
                if np.max(np.linalg.norm(sub.vertices - x0, axis=1)) > self.SUB_RADIUS:
                    msgs.append("submesh leaves the ball")
                return msgs

            def quotient(q, k=k, problem=problem):
                q_ref = reference.quotient(outputs[f"{k}.bubble"], problem)
                if not abs(q - q_ref) <= 1e-9 * q_ref:
                    return [f"quotient {q!r} differs from the reference {q_ref!r}"]
                return []

            def concentration(v, x0=x0, h=h):
                msgs = concentration_failures(v, self.RADII)
                dist = float(np.linalg.norm(np.asarray(v.atom_location) - x0))
                if dist > 2.0 * h:
                    msgs.append(f"atom {v.atom_location} is {dist:.3g} from the bubble centre")
                return msgs

            def holder(rows):
                # p is affine with gradient (0, slope): its modulus at scale s is slope * s
                bad = [r for r in rows if r[1] > self.SLOPE * r[0] * (1 + 1e-9) + 1e-15]
                return [f"modulus above the Lipschitz bound at {bad}"] if bad else []

            for op, fn in (("refine", refine), ("submesh", submesh), ("bubble", lambda v: []),
                           ("quotient", quotient), ("concentration", concentration),
                           ("holder", holder)):
                fails[f"{k}.{op}"] = checked(outputs, f"{k}.{op}", fn)
        return fails

    def work(self, problems, outputs):
        work = {}
        for k, problem in problems.items():
            work[f"{k}.setup"] = mesh_work(problem)
            ref, sub = outputs[f"{k}.refine"], outputs[f"{k}.submesh"]
            q, conc = outputs[f"{k}.quotient"], outputs[f"{k}.concentration"]
            holder = outputs[f"{k}.holder"]
            work[f"{k}.refine"] = ref[0].n_vertices if answered(ref) else None
            work[f"{k}.submesh"] = sub[0].n_vertices if answered(sub) else None
            work[f"{k}.quotient"] = float(q) if answered(q) else None
            work[f"{k}.concentration"] = list(conc.atom_location) if answered(conc) else None
            work[f"{k}.holder"] = [list(r) for r in holder] if answered(holder) else None
        return work


# ---------------------------------------------------------------------------


class CriticalLocal:
    """The ``vextrace conditions`` path on a fully critical variable disk.

    p = 1.5 + c*x1 and r = p/(2 - p) make the whole boundary critical.  The
    seed draws c.  The localized constants are taken at three critical
    points per mesh, spaced a third of the boundary apart starting from the
    first boundary quadrature point, the way ``smallest_localized_constant``
    strides through the critical set.  The points do not depend on the
    seed, so the known defect is hit on every run: at h = 0.12 the finest
    radius of the default schedule is below the mesh size and the point
    near (-0.52, -0.85) raises ZeroTrace.  That operation is counted as
    refused, and shows in ok_rate.
    """

    name = "critical-local"
    MESHES = (0.1, 0.12)
    POINTS_PER_MESH = 3
    LOCAL_MAX_ITER = 40
    SOLVE_MAX_ITER = 15
    TOL = 1e-6
    X_LOCAL = (1.0, 0.0)
    # the grid of scripts/constants_table.py
    SWEEP = tuple((n, 1.0 + f * (n - 1.0)) for n in (2, 3, 4, 5, 7) for f in (0.25, 0.5, 0.75))
    # configs/expand_disk.cfg
    EXPAND_P = 1.3
    EPSILONS = (0.08, 0.056, 0.04, 0.028, 0.02, 0.014, 0.01, 0.007, 0.005, 0.0035)

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        c = rng.uniform(0.08, 0.12)
        p_expr = f"1.5 + {c:.6f}*x1"
        self.configs = {
            h: config_text([("arc", (0.0, 0.0, 1.0, 0.0, TWO_PI))], h, (),
                           p_expr, f"({p_expr})/(2 - ({p_expr}))")
            for h in self.MESHES
        }

    def setup(self):
        return {h: build_problem(text) for h, text in self.configs.items()}

    def points(self, problem):
        pts = problem.critical_points
        stride = len(pts) // self.POINTS_PER_MESH
        return pts[::stride][: self.POINTS_PER_MESH]

    def run(self, problems):
        out = {}
        for h, problem in problems.items():
            for i, x0 in enumerate(self.points(problem)):
                attempt(out, f"h{h}.local_constant{i}", conditions.localized_constant_estimate,
                        problem, x0, max_iter=self.LOCAL_MAX_ITER, refuse=solver.ZeroTrace)

        # the conditions run on the coarsest mesh, as cmd_conditions does it
        h = self.MESHES[-1]
        problem = problems[h]
        dom, p, r = problem.domain, problem.p_field, problem.r_field
        estimates = [v[0] for k, v in out.items() if k.startswith(f"h{h}.") and answered(v)]
        t_bar = min(estimates, key=lambda e: e.value) if estimates else None
        if t_bar is not None:
            attempt(out, "global", conditions.global_condition, dom, p, r, t_bar)
            attempt(out, "existence", self.existence, problem, t_bar)
        else:
            out["global"] = out["existence"] = Failed("no localized constant")
        attempt(out, "local", conditions.local_condition, dom, p, r, self.X_LOCAL)
        attempt(out, "compactness", conditions.compactness_rate_check, dom, p, r, [0],
                s=1.0, C=8.0, r0=0.3, phi=conditions.LogPower(1))

        for n, q in self.SWEEP:
            attempt(out, f"constants N={n} p={q}", self.constants, n, q)
        attempt(out, "expand", self.expand)
        return out

    def existence(self, problem, t_bar):
        rep = solver.minimize(problem, init="constant", max_iter=self.SOLVE_MAX_ITER, tol=self.TOL)
        t_err = max(self.TOL * rep.t_estimate, 1e-4 * rep.t_estimate)
        return rep, conditions.existence_verdict(conditions.Estimate(rep.t_estimate, t_err), t_bar)

    @staticmethod
    def constants(n, p):
        return halfspace.sharp_constant_formula(n, p), halfspace.sharp_constant_quadrature(n, p)

    def expand(self):
        zero = dict(dtf0=0.0, dtp0=0.0, dttp0=0.0, lap_y_p0=0.0, lap_r0=0.0)
        coeffs = halfspace.expansion_coefficients(
            2, self.EXPAND_P, f0=1.0, H=1.0, hbar=1.0, enforce_hypotheses=False,
            truncation_R=100.0, **zero,
        )
        return halfspace.norm_expansion_check(2, self.EXPAND_P, coeffs, self.EPSILONS,
                                              model="disk")

    def t_estimate(self, outputs):
        ex = outputs["existence"]
        return ex[0].t_estimate if answered(ex) else math.nan

    def check(self, problems, outputs):
        h = self.MESHES[-1]
        problem = problems[h]

        def verdict_ok(v):
            if v.satisfied not in (True, False, None):
                return [f"{v.name} verdict {v.satisfied!r} is not three-valued"]
            return []

        def local_constant(res):
            est, method = res
            if not (math.isfinite(est.value) and est.value > 0 and est.error >= 0):
                return [f"localized constant {est} is not a positive finite estimate"]
            return [] if method in ("schedule", "halfspace") else [f"unknown method {method}"]

        def global_(v):
            prov = v.provenance
            lhs_disk = conditions.disk_global_lhs(1.0, tuple(prov["p_bounds"]), tuple(prov["r_bounds"]))
            # the inscribed polygon's area and length are O(h^2) short of the disk's
            msgs = verdict_ok(v)
            if not abs(v.lhs - lhs_disk) <= h * h * lhs_disk:
                msgs.append(f"global lhs {v.lhs!r} differs from the disk's {lhs_disk!r}")
            return msgs

        def existence(res):
            rep, v = res
            return verdict_ok(v) + reference.descent_failures(rep, problem, self.SOLVE_MAX_ITER)

        def compactness(v):
            # every boundary point is critical, so the compact regime cannot hold
            msgs = verdict_ok(v)
            if v.satisfied is not False:
                msgs.append("compactness holds on a fully critical boundary")
            return msgs

        def constants(res, n, q):
            formula, (k_inv, _) = res
            gap = abs(formula - k_inv ** -q) / formula
            return [] if gap <= 1e-12 else [f"formula and quadrature^-p differ by {gap:.3g}"]

        def expand(fit):
            slopes = (fit.fitted_slope, fit.predicted_slope)
            if not (slopes[0] < 0 and slopes[1] < 0
                    and abs(slopes[0] - slopes[1]) <= 0.05 * abs(slopes[1])):
                return [f"fitted slope {slopes[0]} does not match the predicted {slopes[1]}"]
            return []

        fails = {op: checked(outputs, op, local_constant)
                 for op in outputs if ".local_constant" in op}
        fails["global"] = checked(outputs, "global", global_)
        fails["existence"] = checked(outputs, "existence", existence)
        fails["local"] = checked(outputs, "local", verdict_ok)
        fails["compactness"] = checked(outputs, "compactness", compactness)
        for n, q in self.SWEEP:
            op = f"constants N={n} p={q}"
            fails[op] = checked(outputs, op, lambda res, n=n, q=q: constants(res, n, q))
        fails["expand"] = checked(outputs, "expand", expand)
        return fails

    def work(self, problems, outputs):
        work = {f"h{h}.setup": mesh_work(pr) for h, pr in problems.items()}
        for op, v in outputs.items():
            if not answered(v):
                work[op] = type(v).__name__
            elif ".local_constant" in op:
                work[op] = [v[0].value, v[0].error, v[1]]
            elif op == "existence":
                work[op] = [descent_work(v[0]), v[1].satisfied]
            elif op in ("global", "local", "compactness"):
                work[op] = [v.satisfied, v.lhs, v.rhs]
            elif op.startswith("constants"):
                work[op] = [v[0], v[1][0]]
            elif op == "expand":
                work[op] = [v.fitted_slope, v.predicted_slope]
        return work


WORKLOADS = {w.name: w for w in (SolveVariable, MeshFine, CriticalLocal)}
