import math
import pathlib
import sys

import numpy as np
import pytest

from vextrace.exponents import ExponentField
from vextrace.geometry import mesh_domain, polygon_loop, unit_disk_loop
from vextrace.halfspace import sharp_constant_quadrature
from vextrace.solver import (
    DegenerateExponent,
    DiscreteTraceProblem,
    MeshNotNested,
    ZeroTrace,
    bubble_init,
    concentration_diagnostic,
    local_constant_schedule,
    minimize,
    monotonicity_check,
    rayleigh_quotient,
    sampled_exponent_bounds,
    solve_problem,
)

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "scripts"))
from radial_reference import radial_trace_constant  # noqa: E402

P15 = ExponentField.from_text("1.5", 2)
R2 = ExponentField.from_text("2", 2)
R3 = ExponentField.from_text("3", 2)


@pytest.fixture(scope="module")
def disk_prob():
    dom = mesh_domain(unit_disk_loop(), 0.1)
    return DiscreteTraceProblem(dom, P15, R2)


@pytest.fixture(scope="module")
def disk_solution(disk_prob):
    return minimize(disk_prob, init="constant", max_iter=150, tol=1e-7)


def test_quotient_constant_function(disk_prob):
    q = rayleigh_quotient(np.ones(disk_prob.domain.n_vertices), disk_prob)
    hand = math.pi ** (2.0 / 3.0) / math.sqrt(2.0 * math.pi)
    assert q == pytest.approx(hand, abs=3e-3)
    assert q <= hand  # inscribed polygon has smaller area, shorter boundary


def test_quotient_scale_invariant(disk_prob):
    rng = np.random.default_rng(0)
    u = 1.0 + 0.3 * rng.standard_normal(disk_prob.domain.n_vertices)
    q1 = rayleigh_quotient(u, disk_prob)
    q2 = rayleigh_quotient(7.0 * u, disk_prob)
    assert q2 == pytest.approx(q1, rel=1e-12)


def test_quotient_zero_trace(disk_prob):
    dom = disk_prob.domain
    interior = np.setdiff1d(np.arange(dom.n_vertices), dom.boundary_nodes())
    hat = np.zeros(dom.n_vertices)
    hat[interior[0]] = 1.0
    with pytest.raises(ZeroTrace):
        rayleigh_quotient(hat, disk_prob)


def test_gradient_matches_finite_differences(disk_prob):
    rng = np.random.default_rng(1)
    a = 1.0 + 0.3 * rng.standard_normal(disk_prob.domain.n_vertices)
    _, grad = disk_prob.sobolev_norm_gradient(a)
    idx = rng.choice(np.where(disk_prob.free_mask)[0], 20, replace=False)
    for j in idx:
        h = 1e-6
        ap = a.copy()
        ap[j] += h
        am = a.copy()
        am[j] -= h
        fd = (disk_prob.sobolev_norm(ap) - disk_prob.sobolev_norm(am)) / (2 * h)
        assert grad[j] == pytest.approx(fd, rel=1e-5)


def test_boundary_gradient_matches_finite_differences(disk_prob):
    rng = np.random.default_rng(2)
    a = 1.0 + 0.3 * rng.standard_normal(disk_prob.domain.n_vertices)
    _, grad = disk_prob.boundary_norm_gradient(a)
    for j in rng.choice(disk_prob.domain.boundary_nodes(), 10, replace=False):
        h = 1e-6
        ap = a.copy()
        ap[j] += h
        am = a.copy()
        am[j] -= h
        fd = (disk_prob.boundary_norm(ap) - disk_prob.boundary_norm(am)) / (2 * h)
        assert grad[j] == pytest.approx(fd, rel=1e-5)


def test_gradients_of_an_iterate_vanishing_on_a_patch(disk_prob):
    # u = 0 on the nodes with x > 0.5, so v = 0 and grad u = 0 at the points
    # of the triangles there, on the boundary too: those atoms contribute 0
    rng = np.random.default_rng(4)
    dom = disk_prob.domain
    a = 1.0 + 0.3 * rng.standard_normal(dom.n_vertices)
    patch = dom.vertices[:, 0] > 0.5
    a[patch] = 0.0
    vals, gmag, _, _ = disk_prob.interior_fields(a)
    assert np.any((vals == 0.0) & (gmag == 0.0))
    assert np.any(disk_prob.boundary_values(a) == 0.0)
    near = np.flatnonzero(np.abs(dom.vertices[:, 0] - 0.5) < 0.15)
    for norm, norm_gradient in ((disk_prob.sobolev_norm, disk_prob.sobolev_norm_gradient),
                                (disk_prob.boundary_norm, disk_prob.boundary_norm_gradient)):
        _, grad = norm_gradient(a)
        assert np.all(np.isfinite(grad))
        for j in rng.choice(near, 20, replace=False):
            h = 1e-6
            ap = a.copy()
            ap[j] += h
            am = a.copy()
            am[j] -= h
            fd = (norm(ap) - norm(am)) / (2 * h)
            assert grad[j] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_minimize_subcritical_disk(disk_prob, disk_solution):
    rep = disk_solution
    hand = 0.8557
    assert rep.t_estimate <= hand
    h = rep.quotient_history
    assert all(a >= b - 1e-12 for a, b in zip(h, h[1:]))
    # the reported estimate is the recomputed quotient of the minimizer
    assert rep.t_estimate == pytest.approx(
        rayleigh_quotient(rep.minimizer, disk_prob), abs=1e-14
    )


def test_minimize_converges_on_the_subcritical_disk(disk_prob):
    rep = minimize(disk_prob, init="constant", max_iter=150, tol=1e-6)
    assert rep.converged and rep.stop_reason == "tol"
    assert rep.iterations < 150
    assert rep.t_estimate <= 0.8420
    assert rep.n_evaluations >= rep.iterations + 1
    assert rep.starts == (("constant", rep.t_estimate, rep.iterations, "tol"),)
    d = rep.to_dict()
    assert (d["stop_reason"], d["n_evaluations"]) == ("tol", rep.n_evaluations)


# the unit disk's radial constant T_rad for constant (p, r), to 10 digits
RADIAL = {(1.5, 2.0): 0.8420611156, (1.5, 3.0): 1.1438618908,
          (1.5, 1.5): 0.6198885793, (1.3, 1.3): 0.5846333448}


@pytest.mark.parametrize("p, r", list(RADIAL))
def test_radial_reference_ignores_its_start_radius_and_tolerance(p, r):
    ref = radial_trace_constant(p, r)
    assert ref == pytest.approx(RADIAL[p, r], rel=0, abs=1e-10)
    for rho0, rtol in ((1e-4, 1e-12), (1e-8, 1e-10), (1e-4, 1e-10)):
        moved = radial_trace_constant(p, r, rho0=rho0, rtol=rtol)
        assert moved == pytest.approx(ref, rel=0, abs=1e-10)


def test_polygon_constants_extrapolate_to_the_radial_reference(disk_prob):
    # That T_rad is the disk's constant at r = 2 != p = 1.5 rests on
    # numerical evidence only (for r = p the minimizer is a simple,
    # positive Steklov eigenfunction, so radial): the polygon values
    # converge to it at second order, so their h = 0.1, 0.05 Richardson
    # limit must meet it.
    fine = DiscreteTraceProblem(mesh_domain(unit_disk_loop(), 0.05), P15, R2)
    coarse_t, fine_t = (minimize(prob, init="constant", max_iter=1000, tol=1e-10).t_estimate
                        for prob in (disk_prob, fine))
    limit = (4.0 * fine_t - coarse_t) / 3.0
    assert limit == pytest.approx(radial_trace_constant(1.5, 2.0), rel=0, abs=1e-6)


def test_zero_trace_in_a_trial_stops_at_the_last_accepted_iterate(monkeypatch):
    prob = DiscreteTraceProblem(mesh_domain(unit_disk_loop(), 0.2), P15, R2)
    real = prob.boundary_norm_gradient
    calls = 0

    def vanishing_on_calls_6_to_8(a, start=None):
        nonlocal calls
        calls += 1
        if 6 <= calls <= 8:
            raise ZeroTrace("forced")
        return real(a, start)

    monkeypatch.setattr(prob, "boundary_norm_gradient", vanishing_on_calls_6_to_8)
    rep = minimize(prob, init="constant", max_iter=50, tol=1e-9)
    hist = rep.quotient_history
    assert rep.stop_reason == "zero_trace" and not rep.converged
    assert 1 <= rep.iterations == len(hist) - 1
    assert all(math.isfinite(q) for q in hist)
    assert all(a >= b for a, b in zip(hist, hist[1:]))
    assert rep.t_estimate == rayleigh_quotient(rep.minimizer, prob)


def test_minimize_scale_invariance_of_init(disk_prob):
    rng = np.random.default_rng(3)
    u = 1.0 + 0.2 * rng.standard_normal(disk_prob.domain.n_vertices)
    r1 = minimize(disk_prob, init=u, max_iter=80, tol=1e-8)
    r3 = minimize(disk_prob, init=3.0 * u, max_iter=80, tol=1e-8)
    assert r3.t_estimate == pytest.approx(r1.t_estimate, abs=1e-8)


def test_degenerate_exponent_rejected():
    dom = mesh_domain(unit_disk_loop(), 0.3)
    with pytest.raises(DegenerateExponent):
        DiscreteTraceProblem(dom, ExponentField.from_text("1.02", 2), R2)


@pytest.mark.parametrize("p_text, r_text, message", [
    ("1.5 + 0.1*sqrt(x1)", "2", "p is nan at ("),
    ("1.5", "2 + sqrt(x2)", "r is nan at ("),
])
def test_non_finite_exponent_named_with_a_point(p_text, r_text, message):
    dom = mesh_domain(unit_disk_loop(), 0.3)
    p, r = ExponentField.from_text(p_text, 2), ExponentField.from_text(r_text, 2)
    with pytest.raises(DegenerateExponent, match=message.replace("(", r"\(")):
        sampled_exponent_bounds(dom, p, r)


def test_supercritical_r_rejected():
    dom = mesh_domain(unit_disk_loop(), 0.3)
    with pytest.raises(DegenerateExponent):
        DiscreteTraceProblem(dom, P15, ExponentField.from_text("3.5", 2))


def test_problem_flags(disk_prob):
    assert disk_prob.p_plus_lt_r_minus
    assert disk_prob.subcritical_margin == pytest.approx(1.0)
    assert len(disk_prob.critical_points) == 0


def test_critical_problem_flags():
    dom = mesh_domain(unit_disk_loop(), 0.3)
    prob = DiscreteTraceProblem(dom, P15, R3)
    assert prob.subcritical_margin == pytest.approx(0.0, abs=1e-12)
    assert np.all(prob.critical_mask)


# -- gamma handling ------------------------------------------------------------


def test_gamma_nodes_pinned_to_zero():
    # two-arc circle with the upper half marked as the zero set
    from vextrace.geometry import BoundaryLoop, CircularArc

    loop = BoundaryLoop(
        (
            CircularArc((0.0, 0.0), 1.0, 0.0, math.pi),
            CircularArc((0.0, 0.0), 1.0, math.pi, 2.0 * math.pi),
        )
    )
    dom = mesh_domain(loop, 0.2, gamma_arcs=(0,))
    prob = DiscreteTraceProblem(dom, P15, R2)
    rep = minimize(prob, init="constant", max_iter=60, tol=1e-6)
    assert np.all(rep.minimizer[prob.gamma_nodes] == 0.0)
    assert rep.t_estimate > 0


# -- bubble init ----------------------------------------------------------------


@pytest.fixture(scope="module")
def critical_square():
    loop = polygon_loop([(0, 0), (1, 0), (1, 1), (0, 1)])
    dom = mesh_domain(loop, 0.02)
    return DiscreteTraceProblem(dom, P15, R3)


def test_bubble_init_quotient_near_halfspace_constant(critical_square):
    # flat-boundary model: the truncated extremal's quotient approaches the
    # half-space constant as the profile scale shrinks below the cutoff
    kinv, _ = sharp_constant_quadrature(2, 1.5)
    b = bubble_init(critical_square, (0.5, 0.0), lam=0.04, delta=0.4)
    q = rayleigh_quotient(b, critical_square)
    assert q == pytest.approx(kinv, rel=0.10)


def test_bubble_respects_gamma_mask(critical_square):
    b = bubble_init(critical_square, (0.5, 0.0), lam=0.05)
    assert np.all(b[~critical_square.free_mask] == 0.0)
    assert np.max(b) > 0


# -- monotonicity -----------------------------------------------------------------


def test_monotonicity_whole_cap_equals(disk_prob):
    tf, tl = monotonicity_check(disk_prob, (1.0, 0.0), 5.0, max_iter=60)
    assert tf == tl


def test_monotonicity_caps(disk_prob):
    for radius in (0.9, 0.6):
        tf, tl = monotonicity_check(disk_prob, (1.0, 0.0), radius, max_iter=80)
        assert tf <= tl + 1e-6


def test_local_constant_schedule_nondecreasing(disk_prob):
    sched = local_constant_schedule(
        disk_prob, (1.0, 0.0), (0.96, 0.48), max_iter=80
    )
    radii = [r for r, _ in sched]
    consts = [t for _, t in sched]
    assert radii[0] > radii[1]
    assert consts[1] >= consts[0] - 1e-6


def test_monotonicity_cap_overlapping_gamma_rejected():
    from vextrace.geometry import BoundaryLoop, CircularArc

    loop = BoundaryLoop(
        (
            CircularArc((0.0, 0.0), 1.0, 0.0, math.pi),
            CircularArc((0.0, 0.0), 1.0, math.pi, 2.0 * math.pi),
        )
    )
    dom = mesh_domain(loop, 0.25, gamma_arcs=(0,))
    prob = DiscreteTraceProblem(dom, P15, R2)
    with pytest.raises(MeshNotNested):
        monotonicity_check(prob, (0.0, -1.0), 1.5, max_iter=30)


# -- concentration -----------------------------------------------------------------


def test_concentration_boundary_hat(disk_prob):
    dom = disk_prob.domain
    node = dom.boundary_nodes()[0]
    hat = np.zeros(dom.n_vertices)
    hat[node] = 1.0
    edge_len = float(np.max(dom.edge_lengths()))
    v = concentration_diagnostic(hat, disk_prob, radii=[edge_len, 0.5, 1.0])
    assert v.concentrated
    assert np.linalg.norm(np.array(v.atom_location) - dom.vertices[node]) <= edge_len
    assert v.boundary_mass_profile[0][1] == pytest.approx(1.0, abs=1e-12)


def test_concentration_constant_arc_profile(disk_prob):
    u = np.ones(disk_prob.domain.n_vertices)
    radii = [0.3, 0.7, 1.2, 1.7]
    v = concentration_diagnostic(u, disk_prob, radii=radii)
    assert not v.concentrated
    for radius, frac in v.boundary_mass_profile:
        exact = 2.0 * math.asin(min(radius / 2.0, 1.0)) / math.pi
        assert frac == pytest.approx(exact, abs=0.02)
    fracs = [f for _, f in v.boundary_mass_profile]
    assert all(b >= a for a, b in zip(fracs, fracs[1:]))


def test_concentration_profile_monotone_and_bounded(disk_prob, disk_solution):
    v = concentration_diagnostic(
        disk_solution.minimizer, disk_prob, radii=[0.2, 0.5, 1.0, 2.0]
    )
    for _, f in v.boundary_mass_profile + v.interior_gradient_mass:
        assert -1e-12 <= f <= 1.0 + 1e-12


def test_concentration_ball_masses_are_exact_dense_ball_sums(disk_prob):
    # a lopsided iterate, so the balls of radius 10h hold different masses
    x = disk_prob.domain.vertices
    u = np.exp(2.0 * x[:, 0] + x[:, 1])
    v = concentration_diagnostic(u, disk_prob, radii=[0.5])
    a = u / disk_prob.boundary_norm(u)
    masses = disk_prob.bquad_weights * np.abs(disk_prob.boundary_values(a)) ** disk_prob.r_exps
    total = math.fsum(masses.tolist())
    bpts = disk_prob.bquad_points
    d2 = np.sum((bpts[:, None, :] - bpts[None, :, :]) ** 2, axis=2)
    dense = d2 <= (10.0 * disk_prob.mesh_h) ** 2
    ball_mass = [math.fsum(masses[row].tolist()) for row in dense]
    assert len(v.atom_candidates) == 3
    for loc, frac in v.atom_candidates:
        idx = int(np.flatnonzero(np.all(bpts == np.asarray(loc), axis=1))[0])
        assert frac == ball_mass[idx] / total
    assert v.atom_candidates[0][1] == max(ball_mass) / total


def test_forced_concentration_bubble_descent():
    # large critical disk: spread-out competitors have enormous quotients,
    # so descent from a boundary bubble stays concentrated
    dom = mesh_domain(unit_disk_loop(radius=4.0), 0.35)
    prob = DiscreteTraceProblem(dom, P15, R3)
    const_q = rayleigh_quotient(np.ones(dom.n_vertices), prob)
    rep = minimize(prob, init=("bubble", (4.0, 0.0), 0.7), max_iter=60, tol=1e-7)
    assert rep.t_estimate < 0.5 * const_q
    radii = [10.0 * prob.mesh_h, 4.0]
    v = concentration_diagnostic(rep.minimizer, prob, radii=radii)
    assert v.concentrated
    assert v.boundary_mass_profile[0][1] > 0.9
    # discrete analogue of the atom inequality holds with margin
    assert v.refinement["slack"] >= -1e-6


# -- multistart driver ----------------------------------------------------------


def test_solve_problem_multistart(disk_prob):
    rep = solve_problem(disk_prob, n_random=1, max_iter=60, tol=1e-6, seed=0)
    single = minimize(disk_prob, init="constant", max_iter=60, tol=1e-6)
    assert rep.t_estimate <= single.t_estimate + 1e-12
    # every start is recorded, and the report is the best of them
    assert [s[0] for s in rep.starts] == ["constant", "random"]
    assert rep.t_estimate == min(s[1] for s in rep.starts)
    assert all(s[3] in ("tol", "max_iter", "line_search", "zero_trace") for s in rep.starts)
    assert not concentration_diagnostic(rep.minimizer, disk_prob, [0.3, 1.0]).concentrated


def test_solve_problem_bubble_starts_on_critical_disk():
    # every boundary quadrature point is critical; the bubble centres are
    # those points moved onto the circle, more than 10h apart
    prob = DiscreteTraceProblem(mesh_domain(unit_disk_loop(), 0.2), P15, R3)
    rep = solve_problem(prob, n_random=1, max_iter=30)
    labels = [s[0] for s in rep.starts]
    assert labels[:2] == ["constant", "random"]
    assert len(labels) > 2 and all(lab.startswith("bubble(") for lab in labels[2:])
    assert all(rep.t_estimate <= s[1] for s in rep.starts)


def test_solve_problem_deterministic(disk_prob):
    r1 = solve_problem(disk_prob, n_random=2, max_iter=40, tol=1e-6, seed=7)
    r2 = solve_problem(disk_prob, n_random=2, max_iter=40, tol=1e-6, seed=7)
    assert r1.t_estimate == r2.t_estimate
    np.testing.assert_array_equal(r1.minimizer, r2.minimizer)
