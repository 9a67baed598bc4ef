import math
import pathlib

import numpy as np
import pytest
from scipy import optimize

from vextrace import conditions, solver
from vextrace.conditions import (
    ConditionVerdict,
    Estimate,
    GammaNotEmpty,
    LogPower,
    NotCritical,
    compactness_rate_check,
    critical_corners,
    disk_global_lhs,
    existence_verdict,
    global_condition,
    global_lhs_closed_form,
    local_condition,
    localized_constant_estimate,
    smallest_localized_constant,
)
from vextrace.config import ProblemConfig
from vextrace.exponents import ExponentField, SupercriticalError
from vextrace.geometry import (
    BoundaryLoop,
    CircularArc,
    PlanarDomain,
    mesh_domain,
    polygon_loop,
    unit_disk_loop,
)
from vextrace.halfspace import K_INV_REL, sharp_constant_inverse, sharp_constant_quadrature
from vextrace.solver import DiscreteTraceProblem, ZeroTrace, local_constant_schedule

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"
P15 = ExponentField.from_text("1.5", 2)
R2 = ExponentField.from_text("2", 2)
R3 = ExponentField.from_text("3", 2)


@pytest.fixture(scope="module")
def disk():
    return mesh_domain(unit_disk_loop(), 0.1)


# -- compactness rate ---------------------------------------------------------


def test_compactness_uniformly_subcritical(disk):
    v = compactness_rate_check(
        disk, P15, R2, K=np.array([[1.0, 0.0]]), s=1.0, C=4.0, r0=0.3,
        phi=LogPower(1),
    )
    assert v.satisfied is True
    assert v.provenance["margin_subcritical_far"] == pytest.approx(1.0)


def test_compactness_loglog_approach_rate(disk):
    # r = p_* - max(lnln(1/d)/ln(1/d), floor) toward x0 = (1, 0): follows
    # the admissible approach rate near x0 and stays uniformly subcritical
    # away from it; oracle: both sides of the rate bound on a dyadic ladder
    x0 = np.array([1.0, 0.0])
    floor = 0.15

    class RateField:
        def __call__(self, pts):
            pts = np.atleast_2d(pts)
            d = np.maximum(np.linalg.norm(pts - x0, axis=1), 1e-300)
            xi = 1.0 / d
            with np.errstate(divide="ignore", invalid="ignore"):
                rate = np.where(xi > 1.0, LogPower(1)(xi) / np.log(xi), 0.0)
            return 3.0 - np.maximum(rate, floor)

        def eval_at(self, x):
            return float(self(np.asarray(x)[None, :])[0])

    v = compactness_rate_check(
        disk, P15, RateField(), K=np.array([[1.0, 0.0]]), s=1.0, C=6.0,
        r0=0.3, phi=LogPower(1),
    )
    assert v.satisfied is True
    assert v.provenance["margin_subcritical_far"] >= floor - 1e-12
    ladder = x0[None, :] * (1.0 - 2.0 ** -np.arange(4, 12))[:, None]
    # oracle check on the ladder: the built field obeys the stated rate
    rf = RateField()
    d = np.linalg.norm(ladder - x0, axis=1)
    assert np.all(
        rf(ladder) <= 3.0 - np.log(np.log(1 / d)) / np.log(1 / d) + 1e-12
    )


def test_compactness_critical_arc_violated():
    # critical on a whole arc: rate undefined at interior points, violated
    loop = BoundaryLoop(
        (
            CircularArc((0.0, 0.0), 1.0, 0.0, 0.5 * math.pi),
            CircularArc((0.0, 0.0), 1.0, 0.5 * math.pi, 2.0 * math.pi),
        )
    )
    dom = mesh_domain(loop, 0.15)
    v = compactness_rate_check(
        dom, P15, R3, K=[0], s=1.0, C=8.0, r0=0.3, phi=LogPower(1)
    )
    assert v.satisfied is False
    assert v.provenance["margin_on_set"] == -math.inf


def test_compactness_content_fit(disk):
    v = compactness_rate_check(
        disk, P15, R2, K=np.array([[1.0, 0.0]]), s=1.0, C=4.0, r0=0.3,
        phi=LogPower(1),
    )
    fit = v.provenance["content_fit"]
    # a point set has one-dimensional neighborhoods on the boundary: s ~ 1
    assert fit["s_hat"] == pytest.approx(1.0, abs=0.25)


def test_compactness_monotone_in_r(disk):
    # lowering r pointwise never flips satisfied -> violated
    r_low = ExponentField.from_text("1.8", 2)
    base = compactness_rate_check(
        disk, P15, R2, K=np.array([[1.0, 0.0]]), s=1.0, C=4.0, r0=0.3,
        phi=LogPower(1),
    )
    lowered = compactness_rate_check(
        disk, P15, r_low, K=np.array([[1.0, 0.0]]), s=1.0, C=4.0, r0=0.3,
        phi=LogPower(1),
    )
    assert base.satisfied is True
    assert lowered.satisfied is True
    assert lowered.margin >= base.margin


def test_compactness_precondition_validation(disk):
    with pytest.raises(ValueError):
        compactness_rate_check(disk, P15, R2, K=[[1, 0]], s=3.0, C=1.0,
                               r0=0.3, phi=LogPower(1))
    with pytest.raises(ValueError):
        compactness_rate_check(disk, P15, R2, K=[[1, 0]], s=1.0, C=1.0,
                               r0=0.5, phi=LogPower(1))
    # C bounds a Minkowski content, so it must be positive
    for C in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match=r"need C > 0"):
            compactness_rate_check(disk, P15, R2, K=[[1, 0]], s=1.0, C=C,
                                   r0=0.3, phi=LogPower(1))


@pytest.mark.parametrize("n", [0, -3])
def test_log_power_needs_an_exponent_of_at_least_one(n):
    # n = 0 makes phi constant and n < 0 makes it decrease to 0, so neither
    # increases to infinity as the criterion asks
    with pytest.raises(ValueError, match=r"need phi_n >= 1"):
        LogPower(n)


def test_supercritical_p_inside_the_domain_is_refused(disk):
    # p = 1.5 on the circle but 2.5 >= N at the centre: the boundary points
    # alone do not show it, the domain sample does
    p = ExponentField.from_text("2.5 - x1^2 - x2^2", 2)
    with pytest.raises(SupercriticalError):
        compactness_rate_check(disk, p, R3, K=np.array([[1.0, 0.0]]), s=1.0, C=4.0,
                               r0=0.3, phi=LogPower(1))
    with pytest.raises(SupercriticalError):
        local_condition(disk, p, R3, (1.0, 0.0))
    with pytest.raises(SupercriticalError, match=r"sup p = 2\.49\d* >= N = 2"):
        global_condition(disk, p, R3, Estimate(1.0))


@pytest.mark.parametrize("k", [1, 7, 300])
def test_point_set_distance_equals_the_dense_reference(disk, k):
    # a point of K is a zero-length segment to distance_to_segments
    rng = np.random.default_rng(k)
    pts = rng.uniform(-1.5, 1.5, (500, 2))
    K = rng.uniform(-1.5, 1.5, (k, 2))
    diff = pts[:, None, :] - K[None, :, :]
    dense = np.min(np.sqrt(np.sum(diff * diff, axis=2)), axis=1)
    assert np.array_equal(conditions._dist_to_set(pts, K, disk), dense)


# -- global condition ----------------------------------------------------------


def test_global_lhs_hand_value():
    # disk of radius 0.05 with p = 1.5, r = 3:
    # (pi/400)^(2/3) / (pi/10)^(1/3) = 0.03953.../0.67972... ~ 0.0581
    lhs = disk_global_lhs(0.05, (1.5, 1.5), (3.0, 3.0))
    hand = (math.pi * 0.0025) ** (2.0 / 3.0) / (0.1 * math.pi) ** (1.0 / 3.0)
    assert lhs == pytest.approx(hand, rel=1e-12)
    assert lhs == pytest.approx(0.05815, abs=5e-5)


def test_global_condition_small_disk_satisfied():
    dom = mesh_domain(unit_disk_loop(radius=0.05), 0.004)
    kinv, tail = sharp_constant_quadrature(2, 1.5)
    v = global_condition(dom, P15, R3, Estimate(kinv, tail + 1e-6))
    assert v.satisfied is True
    assert v.lhs == pytest.approx(0.05815, rel=5e-3)


def test_global_condition_violated_and_indeterminate():
    dom = mesh_domain(unit_disk_loop(radius=2.2), 0.15)
    v = global_condition(dom, P15, R3, Estimate(1.2599, 1e-4))
    assert v.satisfied is False  # lhs ~ 2.56 > 1.26
    lhs = v.lhs
    v2 = global_condition(dom, P15, R3, Estimate(lhs, 0.5))
    assert v2.satisfied is None


def test_global_condition_gamma_not_empty():
    loop = polygon_loop([(0, 0), (1, 0), (1, 1), (0, 1)])
    dom = mesh_domain(loop, 0.3, gamma_arcs=(0,))
    with pytest.raises(GammaNotEmpty):
        global_condition(dom, P15, R2, Estimate(1.0, 0.0))


def test_global_scaling_family_monotone_and_crossing():
    # closed-form lhs is strictly monotone along the scaling family and
    # crosses the localized constant at a computable radius
    kinv, tail = sharp_constant_quadrature(2, 1.5)
    tbar = Estimate(kinv, tail + 1e-6)
    lhs_values = [disk_global_lhs(t, (1.5, 1.5), (3.0, 3.0)) for t in (2.0, 1.0, 0.5, 0.25)]
    assert all(a > b for a, b in zip(lhs_values, lhs_values[1:]))
    lo, hi = 1e-3, 10.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if disk_global_lhs(mid, (1.5, 1.5), (3.0, 3.0)) < tbar.value:
            lo = mid
        else:
            hi = mid
    t_star = 0.5 * (lo + hi)
    assert disk_global_lhs(t_star, (1.5, 1.5), (3.0, 3.0)) == pytest.approx(
        tbar.value, rel=1e-10
    )
    dom_small = mesh_domain(unit_disk_loop(radius=t_star / 2), t_star / 25)
    dom_large = mesh_domain(unit_disk_loop(radius=2 * t_star), t_star / 8)
    assert global_condition(dom_small, P15, R3, tbar).satisfied is True
    assert global_condition(dom_large, P15, R3, tbar).satisfied in (False, None)


# -- local condition -------------------------------------------------------------


def test_local_condition_disk_curvature_branch(disk):
    v = local_condition(disk, P15, R3, (1.0, 0.0))
    assert v.satisfied is True
    assert v.provenance["branch"] == "curvature"
    assert v.provenance["curvature"] == pytest.approx(1.0)


def test_local_condition_flat_violated():
    loop = polygon_loop([(0, 0), (1, 0), (1, 1), (0, 1)])
    dom = mesh_domain(loop, 0.1)
    v = local_condition(dom, P15, R3, (0.5, 0.0))
    assert v.satisfied is False
    assert v.provenance["branch"] is None


def test_local_condition_normal_derivative_branch():
    # p grows linearly with distance from the bottom edge of the square
    loop = polygon_loop([(0, 0), (1, 0), (1, 1), (0, 1)])
    dom = mesh_domain(loop, 0.1)
    p = ExponentField.from_text("1.3 + 0.2*x2", 2)
    # r critical at the bottom edge: p_*(bottom) = 1.3/0.7 ~ 1.857
    r = ExponentField.from_text("1.3/0.7 - 0.05*x2", 2)
    v = local_condition(dom, p, r, (0.5, 0.0))
    assert v.satisfied is True
    assert v.provenance["branch"] == "normal_derivative"
    assert v.provenance["normal_derivative_p"] == pytest.approx(0.2)


def test_local_condition_not_critical(disk):
    with pytest.raises(NotCritical):
        local_condition(disk, P15, R2, (1.0, 0.0))


def test_local_condition_extremum_gate():
    # p has a local max along the boundary at x0, so the p-gate fails
    loop = polygon_loop([(0, 0), (1, 0), (1, 1), (0, 1)])
    dom = mesh_domain(loop, 0.1)
    p_expr = "1.3 - 0.1*(x1 - 0.5)^2 + 0.2*x2"
    p = ExponentField.from_text(p_expr, 2)
    # r = p/(2-p) is the critical trace exponent of p: critical everywhere
    r = ExponentField.from_text(f"({p_expr})/(2 - ({p_expr}))", 2)
    v = local_condition(dom, p, r, (0.5, 0.0))
    assert v.satisfied is False
    assert v.provenance["p_local_min"] is False


VARIABLE_P = "1.5 + 0.1*x1 - 0.05*x2^2"  # the shipped variable disk's p


@pytest.mark.parametrize(
    "p_expr, r_expr, x0, gates",
    [
        # p is smallest along the boundary at (-1, 0), largest at (1, 0), and
        # r = p_* follows it, so each point fails one gate
        (VARIABLE_P, f"({VARIABLE_P})/(2 - ({VARIABLE_P}))", (-1.0, 0.0), (True, False)),
        (VARIABLE_P, f"({VARIABLE_P})/(2 - ({VARIABLE_P}))", (1.0, 0.0), (False, True)),
        # p smallest and r largest at (1, 0), where r meets p_* = 3
        ("1.5 + 0.1*x2^2", "3 - 0.5*x2^2", (1.0, 0.0), (True, True)),
    ],
    ids=["p-min-only", "r-max-only", "both"],
)
def test_local_check_and_localized_constant_share_one_neighbourhood(p_expr, r_expr, x0, gates):
    p, r = ExponentField.from_text(p_expr, 2), ExponentField.from_text(r_expr, 2)
    prob = DiscreteTraceProblem(mesh_domain(unit_disk_loop(), 0.15), p, r)
    v = local_condition(prob.domain, p, r, x0)
    est, _ = localized_constant_estimate(prob, x0)
    assert (v.provenance["p_local_min"], v.provenance["r_local_max"]) == gates
    assert math.isinf(est.error) == (not all(gates))


# -- existence verdict -------------------------------------------------------------


def test_existence_verdict_three_values():
    assert existence_verdict(Estimate(0.5, 0.01), Estimate(1.33, 0.01)).satisfied is True
    assert existence_verdict(Estimate(1.30, 0.05), Estimate(1.33, 0.05)).satisfied is None
    assert existence_verdict(Estimate(1.5, 0.01), Estimate(1.33, 0.01)).satisfied is False


def test_existence_chain_from_global():
    # the global lhs upper-bounds the trace constant via the constant test
    # function, so a satisfied global condition forces a satisfied
    # existence verdict when that lhs stands in for the estimate
    dom = mesh_domain(unit_disk_loop(radius=0.05), 0.004)
    kinv, tail = sharp_constant_quadrature(2, 1.5)
    tbar = Estimate(kinv, tail + 1e-6)
    g = global_condition(dom, P15, R3, tbar)
    assert g.satisfied is True
    e = existence_verdict(Estimate(g.lhs, 0.0), tbar)
    assert e.satisfied is True


# -- localized constant surrogate ---------------------------------------------------


def test_localized_constant_halfspace_route():
    dom = mesh_domain(unit_disk_loop(), 0.15)
    prob = DiscreteTraceProblem(dom, P15, R3)
    est, method = localized_constant_estimate(prob, (1.0, 0.0))
    assert method == "halfspace"
    # the closed form K(2, p(x0))^-1 itself, with its own relative bar
    assert est.value == sharp_constant_inverse(2, 1.5)
    assert est.value == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-15)
    assert 0 < est.error <= K_INV_REL * est.value


def _peaked_problem(dom):
    # p has a local max at (1, 0); r tracks the critical exponent
    p_expr = "1.5 - 0.05*((x1 - 1)^2 + x2^2)"
    p = ExponentField.from_text(p_expr, 2)
    return DiscreteTraceProblem(dom, p, ExponentField.from_text(f"({p_expr})/(2 - ({p_expr}))", 2))


def test_localized_constant_schedule_fallback():
    # p has a local max at x0 (min gate fails), so K(2, p(x0))^-1 is only an
    # upper bound on the localized constant: the bar is infinite; r tracks
    # the critical exponent so x0 stays critical
    prob = _peaked_problem(mesh_domain(unit_disk_loop(), 0.15))
    est, method = localized_constant_estimate(prob, (1.0, 0.0), max_iter=50)
    assert method == "halfspace"
    assert est.value == sharp_constant_inverse(2, 1.5) and est.error == math.inf


def test_localized_constant_estimate_runs_no_descent(monkeypatch):
    # neither route solves anything: no descent and no cap
    calls = []
    monkeypatch.setattr(solver, "minimize", lambda *a, **k: calls.append("minimize"))
    monkeypatch.setattr(optimize, "minimize", lambda *a, **k: calls.append("scipy minimize"))
    monkeypatch.setattr(PlanarDomain, "submesh", lambda *a, **k: calls.append("submesh"))
    dom = mesh_domain(unit_disk_loop(), 0.15)
    for prob in (DiscreteTraceProblem(dom, P15, R3), _peaked_problem(dom)):
        localized_constant_estimate(prob, (1.0, 0.0))
        smallest_localized_constant(prob)
    assert calls == []


def test_one_upper_bound_only_estimate_leaves_the_infimum_unbounded(monkeypatch):
    # the smallest sampled value has a finite bar, another point's estimate
    # is known only from above: the infimum may lie below both
    prob = DiscreteTraceProblem(mesh_domain(unit_disk_loop(), 0.2), P15, R3)
    first = tuple(prob.critical_points[0])

    def estimate(problem, x0):
        if tuple(x0) == first:
            return Estimate(1.0, 1e-15), "halfspace"
        return Estimate(2.0, math.inf), "halfspace"

    monkeypatch.setattr(conditions, "localized_constant_estimate", estimate)
    t_bar, prov = smallest_localized_constant(prob)
    assert t_bar == Estimate(1.0, math.inf)
    assert prov["argmin"] == list(first) and "critical_corners" not in prov


def test_localized_constant_schedule_stops_at_cap_without_free_boundary():
    # at h = 0.12 the finest default cap around this critical point has four
    # vertices, all on cut edges, so the constant start has no trace there
    p_expr = "1.5 + 0.1*x1"
    p = ExponentField.from_text(p_expr, 2)
    r = ExponentField.from_text(f"({p_expr})/(2 - ({p_expr}))", 2)
    prob = DiscreteTraceProblem(mesh_domain(unit_disk_loop(), 0.12), p, r)
    pts = prob.critical_points
    x0 = pts[np.argmin(np.linalg.norm(pts - (-0.523, -0.852), axis=1))]
    base = 0.4 * math.sqrt(prob.domain.volume())
    radii = (base / 2.0, base / 4.0, base / 8.0)
    sched = local_constant_schedule(prob, x0, radii, max_iter=10)
    assert [rad for rad, _ in sched] == [base / 2.0, base / 4.0]
    with pytest.raises(ZeroTrace, match="free boundary node"):
        local_constant_schedule(prob, x0, radii[2:], max_iter=10)


def test_schedule_estimate_respects_the_half_space_bound():
    # concentrating the half-space extremal at a smooth critical x0 gives
    # T_bar_x0 <= K(2, p(x0))^-1, so no estimate may put its low end above
    # it; on the shipped variable disk the schedule gives 1.4892 +- 0.1258
    # near (0.986, -0.163), where K^-1 = 1.1655
    prob = ProblemConfig.from_path(str(CONFIGS / "disk_variable.cfg")).build_problem()
    pts = prob.critical_points
    x0 = pts[np.argmin(np.linalg.norm(pts - (0.986, -0.163), axis=1))]
    est, method = localized_constant_estimate(prob, x0)
    assert est.low <= sharp_constant_inverse(2, float(prob.p_field.eval_at(x0)))


def test_smallest_localized_constant():
    dom = mesh_domain(unit_disk_loop(), 0.15)
    prob = DiscreteTraceProblem(dom, P15, R3)
    est, prov = smallest_localized_constant(prob)
    assert est.value == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-6)
    assert set(prov) == {"method", "argmin", "n_sampled"}
    # a ceiling stride through the 170 critical points visits 16 of them;
    # a floor stride of 170 // 16 = 10 visited 17
    assert len(prob.critical_points) == 170
    assert prov["n_sampled"] == 16


L_SHAPE = polygon_loop([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])


def test_critical_corners_are_the_convex_junctions_in_the_critical_set():
    dom = mesh_domain(L_SHAPE, 0.25)
    crit = DiscreteTraceProblem(dom, P15, R3)
    corners = critical_corners(crit)
    assert [c["point"] for c in corners] == [[2, 0], [2, 1], [1, 2], [0, 2], [0, 0]]
    assert all(c["angle"] == pytest.approx(math.pi / 2, rel=1e-12) for c in corners)
    # r = 3 - x2 / 2 is critical on the bottom side only: (0, 0) and (2, 0)
    bottom = DiscreteTraceProblem(dom, P15, ExponentField.from_text("3 - x2 / 2", 2))
    assert [c["point"] for c in critical_corners(bottom)] == [[2, 0], [0, 0]]
    assert critical_corners(DiscreteTraceProblem(dom, P15, R2)) == []
    # a full circle's one junction is smooth
    disk_prob = DiscreteTraceProblem(mesh_domain(unit_disk_loop(), 0.2), P15, R3)
    assert critical_corners(disk_prob) == []


def test_a_critical_corner_leaves_global_and_existence_indeterminate():
    dom = mesh_domain(L_SHAPE, 0.25)
    prob = DiscreteTraceProblem(dom, P15, R3)
    t_bar, prov = smallest_localized_constant(prob)
    assert t_bar.value == sharp_constant_inverse(2, 1.5) and t_bar.error == math.inf
    assert prov["critical_corners"] == critical_corners(prob)
    # both clear K^-1 = 1.26 by far, and neither is decided
    assert global_condition(dom, P15, R3, t_bar).satisfied is None
    assert existence_verdict(Estimate(0.5, 1e-4), t_bar).satisfied is None
    # the smooth disk keeps its few-ulp bar and no corner entry
    disk_prob = DiscreteTraceProblem(mesh_domain(unit_disk_loop(), 0.2), P15, R3)
    t_bar, prov = smallest_localized_constant(disk_prob)
    assert t_bar.error == K_INV_REL * t_bar.value and "critical_corners" not in prov


def test_smallest_localized_constant_in_the_compact_regime():
    # no critical point: the infimum over an empty set is +inf, known exactly
    dom = mesh_domain(unit_disk_loop(), 0.2)
    prob = DiscreteTraceProblem(dom, P15, R2)
    t_bar, prov = smallest_localized_constant(prob)
    assert t_bar == Estimate(math.inf, 0.0)
    assert prov == {"method": "no_critical_points", "argmin": None, "n_sampled": 0}
    assert global_condition(dom, P15, R2, t_bar).satisfied is True
