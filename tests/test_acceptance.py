"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from vextrace.exponents import ExponentField
from vextrace.geometry import mesh_domain, unit_disk_loop
from vextrace.halfspace import (
    ExtremalProfile,
    HypothesisViolation,
    expansion_coefficients,
    extremal_boundary_integral,
    extremal_gradient_integral,
    extremal_quotient,
    sharp_constant_formula,
    sharp_constant_quadrature,
)
from vextrace.luxemburg import (
    WeightedSamples,
    holder_product_bound,
    luxemburg_norm,
    modular,
    verify_norm_modular_relations,
)
from vextrace.solver import (
    DiscreteTraceProblem,
    concentration_diagnostic,
    minimize,
    monotonicity_check,
)

REPO = __file__.rsplit("/tests/", 1)[0]
GOLDEN = ((math.sqrt(5.0) - 1.0) / 2.0) ** -0.5

P15 = ExponentField.from_text("1.5", 2)
R2 = ExponentField.from_text("2", 2)
R3 = ExponentField.from_text("3", 2)


def report(cid, ok, detail):
    print(f"\n[{cid}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{cid}: {detail}"


def _atoms(values, weights, exps):
    values = np.asarray(values, float)
    pts = np.zeros((values.size, 5))
    pts[:, 0] = np.arange(values.size)
    return WeightedSamples(pts, np.asarray(weights, float), values), np.asarray(exps, float)


# -- criterion 1 ---------------------------------------------------------------


def test_c01_golden_ratio_norm():
    u, p = _atoms([1.0, 1.0], [1.0, 1.0], [2.0, 4.0])
    lam = luxemburg_norm(u, p)
    err = abs(lam - 1.2720196495140690)
    luxemburg_norm(u, p)  # warm
    best = min(
        (lambda t0: (luxemburg_norm(u, p), time.perf_counter() - t0)[1])(
            time.perf_counter()
        )
        for _ in range(5)
    )
    ok = err <= 1e-10 and best < 1e-3
    report(
        "C01",
        ok,
        f"two-atom norm {lam!r}, error {err:.2e} (tol 1e-10), best runtime "
        f"{best * 1e3:.3f} ms (< 1 ms)",
    )


# -- criterion 2 ---------------------------------------------------------------


def test_c02_norm_modular_relations_500():
    rng = np.random.default_rng(20)
    worst = math.inf
    for k in range(500):
        n = int(rng.integers(2, 40))
        vals = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
        w = rng.uniform(0.05, 2.0, n)
        p = rng.uniform(1.1, 4.0, n)
        u, pe = _atoms(vals, w, p)
        checks = verify_norm_modular_relations(u, pe)
        for c in checks:
            if c.applicable:
                worst = min(worst, c.slack)
                assert c.passed, (k, c)
        if k % 25 == 0:
            # sequence relations: norms to 0 iff modulars to 0 and to
            # infinity together, probed along geometric scalings
            mods_down = [modular(u.scaled(2.0**-j), pe) for j in range(8)]
            mods_up = [modular(u.scaled(2.0**j), pe) for j in range(8)]
            assert all(a > b for a, b in zip(mods_down, mods_down[1:]))
            assert all(b > a for a, b in zip(mods_up, mods_up[1:]))
    ok = worst >= -1e-9
    report("C02", ok, f"500 random samples, worst relation slack {worst:.3e} (>= -1e-9)")


# -- criterion 3 ---------------------------------------------------------------


def test_c03_holder_500():
    rng = np.random.default_rng(30)
    worst = math.inf
    for k in range(500):
        n = int(rng.integers(2, 60))
        pts = rng.uniform(-1, 1, (n, 2))
        w = rng.uniform(0.01, 1.5, n)
        s = rng.uniform(1.0, 2.5, n)
        theta = rng.uniform(0.2, 0.8, n)
        p = s / theta
        q = s / (1.0 - theta)
        f = WeightedSamples(pts, w, rng.standard_normal(n) * 10.0 ** rng.integers(-2, 3))
        g = WeightedSamples(pts, w, rng.standard_normal(n))
        lhs, rhs, _ = holder_product_bound(f, g, p, q)
        worst = min(worst, rhs - lhs)
        assert lhs <= rhs * (1.0 + 1e-12), (k, lhs, rhs)
    report("C03", True, f"500 random product bounds, min(rhs - lhs) = {worst:.3e} >= 0")


# -- criterion 4 ---------------------------------------------------------------


def test_c04_sharp_constant_desk_check():
    t0 = time.perf_counter()
    grad_val, _ = extremal_gradient_integral(3, 2.0)
    bnd_val, _ = extremal_boundary_integral(3, 2.0)
    k_inv, _ = sharp_constant_quadrature(3, 2.0)
    formula = sharp_constant_formula(3, 2.0)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(grad_val - math.pi) <= 0.005 * math.pi
        and abs(bnd_val - math.pi) <= 0.005 * math.pi
        and abs(k_inv - math.pi**0.25) <= 0.01 * math.pi**0.25
        and abs(formula - math.pi**-0.5) <= 1e-10
        and elapsed < 30.0
    )
    report(
        "C04",
        ok,
        f"gradient integral {grad_val:.8f} ~ pi, boundary {bnd_val:.8f} ~ pi, "
        f"quotient {k_inv:.7f} ~ pi^(1/4) = {math.pi**0.25:.7f}; formula value "
        f"{formula:.7f} = pi^(-1/2) reported alongside (equals quotient^-p); "
        f"{elapsed:.1f} s (< 30 s)",
    )


# -- criterion 5 ---------------------------------------------------------------


def test_c05_dilation_invariance():
    base, _ = extremal_quotient(ExtremalProfile(3, 2.0, lam=1.0))
    worst = 0.0
    for lam in (0.25, 1.0, 4.0):
        est, _ = extremal_quotient(ExtremalProfile(3, 2.0, lam=lam, y0=(0.7, -0.2)))
        worst = max(worst, abs(est - base))
    ok = worst <= 1e-6
    report("C05", ok, f"quotient spread over lam in {{0.25, 1, 4}}: {worst:.2e} (<= 1e-6)")


# -- criterion 6 ---------------------------------------------------------------


def test_c06_expansion_coefficients():
    co = expansion_coefficients(3, 2.0, f0=1.0)
    ok_pi = abs(co.d0 - math.pi) <= 0.005 * math.pi and abs(co.a0 - math.pi) <= 0.005 * math.pi
    ok_structural = co.d3 == 0.0 and co.d1 == 0.0 and co.a1 == 0.0
    co_a1 = expansion_coefficients(3, 2.0, f0=1.0, lap_r0=-1.0)
    try:
        co_a1.require("a1")
        a1_named = False
    except HypothesisViolation as err:
        a1_named = "p < (N-1)/2" in str(err)
    try:
        co.require("c0")
        c0_named = False
    except HypothesisViolation as err:
        c0_named = "p < sqrt(N)" in str(err)
    co5 = expansion_coefficients(5, 1.5, f0=1.0, dtp0=0.0, lap_r0=0.0)
    ok = ok_pi and ok_structural and a1_named and c0_named and co5.d1 == 0.0 and co5.a1 == 0.0
    report(
        "C06",
        ok,
        f"(3,2): d0 = {co.d0:.6f}, a0 = {co.a0:.6f} (~pi +- 0.5%); d3 = 0, "
        f"structural zeros hold; a1 rejected with 'p < (N-1)/2': {a1_named}; "
        f"c0 rejected with 'p < sqrt(N)': {c0_named}",
    )


# -- criterion 7 ---------------------------------------------------------------


@pytest.fixture(scope="module")
def subcritical_disk_005():
    dom = mesh_domain(unit_disk_loop(), 0.05)
    return DiscreteTraceProblem(dom, P15, R2)


def test_c07_solver_sanity(subcritical_disk_005):
    prob = subcritical_disk_005
    t0 = time.perf_counter()
    rep = minimize(prob, init="constant", max_iter=200, tol=1e-7)
    elapsed = time.perf_counter() - t0
    hist = rep.quotient_history
    monotone = all(a >= b - 1e-12 for a, b in zip(hist, hist[1:]))

    rng = np.random.default_rng(7)
    a = 1.0 + 0.3 * rng.standard_normal(prob.domain.n_vertices)
    _, grad = prob.sobolev_norm_gradient(a)
    worst_fd = 0.0
    for j in rng.choice(np.where(prob.free_mask)[0], 20, replace=False):
        h = 1e-6
        ap = a.copy()
        ap[j] += h
        am = a.copy()
        am[j] -= h
        fd = (prob.sobolev_norm(ap) - prob.sobolev_norm(am)) / (2 * h)
        worst_fd = max(worst_fd, abs(grad[j] - fd) / max(abs(fd), 1e-12))

    ok = rep.t_estimate <= 0.8557 and monotone and worst_fd <= 1e-5 and elapsed < 120.0
    report(
        "C07",
        ok,
        f"T = {rep.t_estimate:.6f} <= 0.8557 (constant-function bound), history "
        f"nonincreasing: {monotone}, gradient FD error {worst_fd:.2e} (<= 1e-5), "
        f"{elapsed:.0f} s (< 2 min)",
    )


# -- criterion 8 ---------------------------------------------------------------


def test_c08_discrete_monotonicity():
    dom = mesh_domain(unit_disk_loop(), 0.1)
    prob = DiscreteTraceProblem(dom, P15, R2)
    results = []
    ok = True
    for radius in (1.2, 0.8, 0.5):
        tf, tl = monotonicity_check(prob, (1.0, 0.0), radius, max_iter=150, tol=1e-7)
        results.append((radius, tf, tl))
        ok = ok and tf <= tl + 1e-6
    detail = "; ".join(
        f"r={r}: T_full={tf:.6f} <= T_local={tl:.6f} + 1e-6" for r, tf, tl in results
    )
    report("C08", ok, detail)


# -- criterion 9 ---------------------------------------------------------------


def test_c09_upper_bound_chain():
    kinv, _ = sharp_constant_quadrature(2, 1.5)
    doms = [mesh_domain(unit_disk_loop(), 0.2)]
    prols = []
    for _ in range(2):
        d, P = doms[-1].refine()
        doms.append(d)
        prols.append(P)
    slacks = []
    prev = None
    for i, d in enumerate(doms):
        prob = DiscreteTraceProblem(d, P15, R3)
        best = minimize(prob, init="constant", max_iter=250, tol=1e-7)
        if prev is not None:
            seeded = minimize(prob, init=prols[i - 1] @ prev, max_iter=250, tol=1e-7)
            if seeded.t_estimate < best.t_estimate:
                best = seeded
        prev = best.minimizer
        slacks.append(best.t_estimate - kinv)
    ok = (
        all(s <= 1e-9 for s in slacks)
        and slacks[0] >= slacks[1] - 1e-9
        and slacks[1] >= slacks[2] - 1e-9
    )
    report(
        "C09",
        ok,
        f"critical disk: T - K^-1 slacks over h in {{0.2, 0.1, 0.05}}: "
        f"{[f'{s:+.6f}' for s in slacks]} (nonincreasing, all <= 0)",
    )


# -- criterion 10 ---------------------------------------------------------------


def test_c10_global_condition_scaling():
    from vextrace.conditions import Estimate, disk_global_lhs, global_condition

    kinv, tail = sharp_constant_quadrature(2, 1.5)
    tbar = Estimate(kinv, tail + 1e-6)
    ts = np.geomspace(4.0, 0.01, 24)
    lhs = [disk_global_lhs(t, (1.5, 1.5), (3.0, 3.0)) for t in ts]
    strictly_decreasing = all(a > b for a, b in zip(lhs, lhs[1:]))
    lo, hi = 1e-3, 10.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if disk_global_lhs(mid, (1.5, 1.5), (3.0, 3.0)) < tbar.value:
            lo = mid
        else:
            hi = mid
    t_star = 0.5 * (lo + hi)
    dom_small = mesh_domain(unit_disk_loop(radius=t_star / 2), t_star / 25)
    dom_large = mesh_domain(unit_disk_loop(radius=2 * t_star), t_star / 8)
    v_small = global_condition(dom_small, P15, R3, tbar)
    v_large = global_condition(dom_large, P15, R3, tbar)
    ok = (
        strictly_decreasing
        and v_small.satisfied is True
        and v_large.satisfied in (False, None)
    )
    report(
        "C10",
        ok,
        f"closed-form lhs strictly decreasing along shrinking disks; t* = "
        f"{t_star:.4f}; verdict(t*/2) = satisfied, verdict(2 t*) = "
        f"{'violated' if v_large.satisfied is False else 'indeterminate'}",
    )


# -- criterion 11 ---------------------------------------------------------------


def test_c11_concentration_diagnostic():
    dom = mesh_domain(unit_disk_loop(), 0.1)
    prob = DiscreteTraceProblem(dom, P15, R2)
    node = dom.boundary_nodes()[0]
    hat = np.zeros(dom.n_vertices)
    hat[node] = 1.0
    edge = float(np.max(dom.edge_lengths()))
    v_hat = concentration_diagnostic(hat, prob, radii=[edge, 0.5, 1.0])
    hat_ok = (
        v_hat.concentrated
        and v_hat.boundary_mass_profile[0][1] >= 1.0 - 1e-12
        and np.linalg.norm(np.asarray(v_hat.atom_location) - dom.vertices[node]) <= edge
    )
    v_const = concentration_diagnostic(
        np.ones(dom.n_vertices), prob, radii=[0.3, 0.7, 1.2, 1.7]
    )
    dev = max(
        abs(frac - 2.0 * math.asin(min(r / 2.0, 1.0)) / math.pi)
        for r, frac in v_const.boundary_mass_profile
    )
    const_ok = (not v_const.concentrated) and dev <= 0.02
    ok = hat_ok and const_ok
    report(
        "C11",
        ok,
        f"boundary hat: concentrated with fraction 1 at one edge radius; "
        f"constant: not concentrated, max deviation from arc fraction "
        f"{dev:.4f} (<= 0.02)",
    )


# -- criterion 12 ---------------------------------------------------------------


def test_c12_reproducibility():
    def run(threads):
        return subprocess.run(
            [
                sys.executable, "-m", "vextrace.cli",
                "--config", "configs/disk_subcritical.cfg",
                "--seed", "11", "--threads", str(threads),
                "solve", "--init", "multistart", "--max-iter", "40",
            ],
            capture_output=True, text=True, cwd=REPO,
        )

    r1 = run(1)
    r2 = run(1)
    r4 = run(4)
    ok = (
        r1.returncode == 0
        and r1.stdout == r2.stdout
        and r1.stdout == r4.stdout
        and json.loads(r1.stdout)["t_estimate"] > 0
    )
    report(
        "C12",
        ok,
        "byte-identical JSON across two runs and across --threads {1, 4} "
        f"({len(r1.stdout)} bytes)",
    )
