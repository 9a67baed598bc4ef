import math

import mpmath
import numpy as np
import pytest
from scipy.special import gammaln

from vextrace.halfspace import (
    DivergentIntegral,
    DomainError,
    ExtremalProfile,
    FitUnstable,
    HypothesisViolation,
    K_INV_REL,
    boundary_power_integral,
    decay_rate,
    expansion_coefficients,
    extremal_boundary_integral,
    extremal_gradient_integral,
    extremal_quotient,
    half_space_power_integral,
    norm_expansion_check,
    sharp_constant_formula,
    sharp_constant_inverse,
    sharp_constant_quadrature,
    sphere_area,
    trace_exponent,
)

# -- independent closed-form oracles (Beta-function reduction) ----------------


def beta_fn(a, b):
    return math.exp(gammaln(a) + gammaln(b) - gammaln(a + b))


def monomial_integral_oracle(a, b, c):
    """Exact integral of rho^a s^b (s^2+rho^2)^(-c/2) over {s>1, rho>0}.

    Polar reduction: the radial part integrates in closed form and the
    angular part is a Beta function; independent of the quadrature engine.
    """
    return 0.5 * beta_fn((a + 1) / 2.0, (c - a - 1) / 2.0) / (c - a - b - 2.0)


def t_power_integral_oracle(a, c, k):
    """Exact integral with a factor t^k = (s-1)^k."""
    return sum(
        math.comb(k, j) * (-1.0) ** (k - j) * monomial_integral_oracle(a, j, c)
        for j in range(k + 1)
    )


def boundary_integral_oracle(a, c):
    """Exact integral of rho^a (1+rho^2)^(-c/2) over (0, inf)."""
    return 0.5 * beta_fn((a + 1) / 2.0, (c - a - 1) / 2.0)


def grad_integral_oracle(n, p):
    alpha = (n - p) / (p - 1.0)
    return (
        alpha**p
        * sphere_area(n - 2)
        * monomial_integral_oracle(n - 2, 0, p * (alpha + 1.0))
    )


def boundary_pstar_oracle(n, p):
    alpha = (n - p) / (p - 1.0)
    ps = (n - 1.0) * p / (n - p)
    return sphere_area(n - 2) * boundary_integral_oracle(n - 2, alpha * ps)


# -- sphere areas ----------------------------------------------------------------


def test_sphere_area():
    assert sphere_area(0) == 2.0
    assert sphere_area(1) == pytest.approx(2 * math.pi, rel=1e-14)
    assert sphere_area(2) == pytest.approx(4 * math.pi, rel=1e-13)


# -- extremal -------------------------------------------------------------------


def test_extremal_values():
    prof = ExtremalProfile(3, 2.0)
    np.testing.assert_allclose(prof.value([[0.0, 0.0], [0.0, 0.0]], [0.0, 1.0]), [1.0, 0.5])
    shifted = ExtremalProfile(3, 2.0, lam=2.0, y0=(0.3, -0.4))
    np.testing.assert_allclose(shifted.value([0.3, -0.4], 0.0), [0.5])


# -- closed-form integrals --------------------------------------------------------


@pytest.mark.parametrize(
    "a,k,c",
    [(1, 0, 4.0), (0, 1, 4.5), (3, 1, 12.0), (5, 0, 14.0), (0, 0, 3.1), (2, 2, 9.0)],
)
def test_engine_matches_beta_oracle(a, k, c):
    # for k >= 1 the oracle sums the binomial expansion of (s-1)^k: the same
    # value by different algebra
    val = half_space_power_integral(a, c, k)
    assert val == pytest.approx(t_power_integral_oracle(a, c, k), rel=1e-12)


@pytest.mark.parametrize("a,k,c", [(1, 0, 4.0), (3, 1, 12.0), (0, 2, 6.5), (2, 0, 9.0)])
def test_closed_form_matches_nested_mpmath_quadrature(a, k, c):
    # an independent reference: the double integral itself, by mpmath
    with mpmath.workdps(20):
        def inner(s):
            return mpmath.quad(
                lambda rho: rho**a * (s * s + rho * rho) ** (-mpmath.mpf(c) / 2),
                [0, s, mpmath.inf],
            )

        ref = mpmath.quad(lambda s: (s - 1) ** k * inner(s), [1, 2, mpmath.inf])
    assert half_space_power_integral(a, c, k) == pytest.approx(float(ref), rel=1e-12)


def test_engine_divergence_guard():
    with pytest.raises(DivergentIntegral):
        half_space_power_integral(1, 3.0, 0)


def test_boundary_engine_matches_oracle():
    for a, c in [(0, 3.0), (1, 4.0), (4, 12.0)]:
        val = boundary_power_integral(a, c)
        assert val == pytest.approx(boundary_integral_oracle(a, c), rel=1e-10)
    with pytest.raises(DivergentIntegral):
        boundary_power_integral(2, 3.0)


def test_gradient_integral_pi_at_3_2():
    val, bar = extremal_gradient_integral(3, 2.0)
    assert val == pytest.approx(math.pi, rel=5e-3)
    assert val == pytest.approx(math.pi, rel=1e-8)
    assert bar == 0.0


def test_boundary_integral_pi_at_3_2():
    val, bar = extremal_boundary_integral(3, 2.0)
    assert val == pytest.approx(math.pi, rel=1e-8)
    assert bar == 0.0


# -- sharp constant --------------------------------------------------------------


def test_formula_at_3_2():
    assert sharp_constant_formula(3, 2.0) == pytest.approx(
        math.pi**-0.5, rel=1e-12
    )


def test_formula_at_4_2_against_mpmath():
    # direct substitution: pi^-1/2 * (1/2) * (Gamma(3)/Gamma(3/2))^(1/3)
    mpmath.mp.dps = 40
    expected = float(
        mpmath.pi ** mpmath.mpf("-0.5")
        * mpmath.mpf(1) / 2
        * (mpmath.gamma(3) / mpmath.gamma(mpmath.mpf(3) / 2)) ** (mpmath.mpf(1) / 3)
    )
    assert sharp_constant_formula(4, 2.0) == pytest.approx(expected, rel=1e-12)


def test_formula_at_5_15_regression():
    # frozen after first computation with a 40-digit Gamma oracle
    mpmath.mp.dps = 40
    p, n = mpmath.mpf("1.5"), 5
    expected = float(
        mpmath.pi ** ((1 - p) / 2)
        * ((p - 1) / (n - p)) ** (p - 1)
        * (mpmath.gamma(p * (n - 1) / (2 * (p - 1)))
           / mpmath.gamma((n - 1) / (2 * (p - 1)))) ** ((p - 1) / (n - 1))
    )
    assert expected == pytest.approx(0.4128499737, rel=1e-9)
    assert sharp_constant_formula(5, 1.5) == pytest.approx(expected, rel=1e-12)


def test_formula_domain_errors():
    with pytest.raises(DomainError):
        sharp_constant_formula(3, 1.0)
    with pytest.raises(DomainError):
        sharp_constant_formula(3, 3.0)


def test_quadrature_quotient_3_2():
    est, _ = sharp_constant_quadrature(3, 2.0)
    assert est == pytest.approx(math.pi**0.25, rel=1e-8)


def test_quadrature_quotient_2_15():
    est, _ = sharp_constant_quadrature(2, 1.5)
    assert est == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-8)


@pytest.mark.parametrize("n,p", [(3, 2.0), (4, 2.0), (5, 1.5), (2, 1.5), (7, 2.5)])
def test_formula_reconciles_with_quotient_pth_power(n, p):
    """The printed formula equals quotient^(-p); the reconciliation is exact."""
    est, _ = sharp_constant_quadrature(n, p)
    assert sharp_constant_formula(n, p) == pytest.approx((1.0 / est) ** p, rel=1e-7)


def _exponent_grid(n):
    """39 exponents evenly spread over the open range 1 < p < N."""
    return [1.0 + f * (n - 1.0) for f in np.linspace(0.025, 0.975, 39)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_closed_form_inverse_agrees_with_quadrature(n):
    for p in _exponent_grid(n):
        est, _ = sharp_constant_quadrature(n, p)
        assert sharp_constant_inverse(n, p) == pytest.approx(est, rel=1e-13, abs=0)


def _k_inv_50_digits(n, p):
    """formula(n, p)^(-1/p), the same expression, at 50 digits."""
    with mpmath.workdps(50):
        n, p = mpmath.mpf(n), mpmath.mpf(p)
        ratio = (p - 1) / (n - 1) * (
            mpmath.loggamma(p * (n - 1) / (2 * (p - 1))) - mpmath.loggamma((n - 1) / (2 * (p - 1)))
        )
        k = mpmath.pi ** ((1 - p) / 2) * ((p - 1) / (n - p)) ** (p - 1) * mpmath.exp(ratio)
        return k ** (-1 / p)


def test_closed_form_inverse_within_its_bar_of_50_digits():
    for n in (2, 3, 4, 5, 7):
        for p in _exponent_grid(n):
            ref = _k_inv_50_digits(n, p)
            assert float(abs(sharp_constant_inverse(n, p) - ref) / ref) <= K_INV_REL, (n, p)


def test_quadrature_against_closed_form_many():
    for n, p in [(3, 2.0), (5, 1.5), (2, 1.3), (6, 2.2)]:
        est, _ = sharp_constant_quadrature(n, p)
        oracle = grad_integral_oracle(n, p) ** (1 / p) / boundary_pstar_oracle(
            n, p
        ) ** (1 / trace_exponent(n, p))
        assert est == pytest.approx(oracle, rel=1e-8)


def test_dilation_invariance():
    base, _ = extremal_quotient(ExtremalProfile(3, 2.0))
    for lam in (0.25, 0.5, 2.0, 4.0):
        for y0 in ((0.0, 0.0), (1.5, -2.0)):
            est, _ = extremal_quotient(ExtremalProfile(3, 2.0, lam=lam, y0=y0))
            assert abs(est - base) <= 1e-6 * base


def test_quotient_near_p_1_matches_closed_form():
    # at p = 1.0005 the profile decays like r^-11999; a truncated box lost
    # 9.8 % of K^-1 here
    est, bar = sharp_constant_quadrature(7, 1.0005)
    assert abs(est - sharp_constant_inverse(7, 1.0005)) <= 1e-10
    assert bar == 0.0


def test_quadrature_divergence_guard():
    # N=2, p -> close to 2: alpha*p_* stays fine; construct a genuine failure
    # via the generic engine guard instead
    with pytest.raises(DivergentIntegral):
        half_space_power_integral(0, 1.5, 0)


# -- expansion coefficients -------------------------------------------------------


def test_coefficients_at_3_2_pi():
    co = expansion_coefficients(3, 2.0, f0=1.0)
    assert co.d0 == pytest.approx(math.pi, rel=5e-3)
    assert co.a0 == pytest.approx(math.pi, rel=5e-3)
    assert co.d3 == 0.0
    assert co.d1 == 0.0  # structural: dtp0 = 0
    assert co.a1 == 0.0  # structural: lap_r0 = 0
    assert co.d2 == 0.0 and co.d4 == 0.0  # structural zeros


def test_structural_zero_bypasses_guards():
    co = expansion_coefficients(3, 2.0, f0=1.0, dtp0=0.0, lap_r0=0.0)
    assert "d1" not in co.skipped and "a1" not in co.skipped


def test_a1_rejected_at_3_2_with_named_inequality():
    co = expansion_coefficients(3, 2.0, f0=1.0, lap_r0=-1.0)
    assert co.skipped.get("a1") == "p < (N-1)/2"
    with pytest.raises(HypothesisViolation, match=r"p < \(N-1\)/2"):
        co.require("a1")


def test_c0_rejected_when_p_at_least_sqrt_n():
    co = expansion_coefficients(3, 2.0, f0=1.0)
    assert co.skipped.get("c0") == "p < sqrt(N)"
    with pytest.raises(HypothesisViolation, match="sqrt"):
        co.require("c0")


def test_c0_computed_when_admissible():
    # N=5, p=1.5 < sqrt(5): V^p integrable
    co = expansion_coefficients(5, 1.5, f0=2.0)
    alpha = decay_rate(5, 1.5)
    oracle = 2.0 * sphere_area(3) * monomial_integral_oracle(3, 0, 1.5 * alpha)
    assert co.c0 == pytest.approx(oracle, rel=1e-8)


def test_a1_value_at_5_15():
    co = expansion_coefficients(5, 1.5, f0=1.0, lap_r0=-2.0)
    ps = trace_exponent(5, 1.5)
    # -f0 lap_r0/(2 p_*) * integral |y|^2 V(y,0)^{p_*}; the integral reduces
    # to pi^2/30 in closed form
    oracle = (2.0 / (2.0 * ps)) * sphere_area(3) * boundary_integral_oracle(5, 12.0)
    assert sphere_area(3) * boundary_integral_oracle(5, 12.0) == pytest.approx(
        math.pi**2 / 30.0, rel=1e-12
    )
    assert co.a1 == pytest.approx(oracle, rel=1e-8)
    assert co.a1 > 0  # local max of r has nonpositive laplacian => a1 >= 0


def test_a1_sign_relation():
    rng = np.random.default_rng(4)
    for _ in range(10):
        lap_r0 = float(rng.standard_normal())
        f0 = float(rng.uniform(0.5, 2.0))
        co = expansion_coefficients(5, 1.5, f0=f0, lap_r0=lap_r0)
        if lap_r0 == 0.0:
            assert co.a1 == 0.0
        else:
            assert math.copysign(1, co.a1) == -math.copysign(1, lap_r0 * f0)


def test_d1_value_and_sign():
    co = expansion_coefficients(5, 1.5, f0=1.0, dtp0=0.7)
    alpha = decay_rate(5, 1.5)
    oracle = (
        -(5.0 / 1.5)
        * 0.7
        * alpha**1.5
        * sphere_area(3)
        * t_power_integral_oracle(3, 1.5 * (alpha + 1.0), 1)
    )
    assert co.d1 == pytest.approx(oracle, rel=1e-8)
    assert co.d1 < 0


def test_d2_sign_at_5_15_unit_curvature():
    co = expansion_coefficients(5, 1.5, f0=1.0, H=1.0, hbar=1.0)
    alpha = decay_rate(5, 1.5)
    c = 1.5 * (alpha + 1.0)
    it = alpha**1.5 * sphere_area(3) * t_power_integral_oracle(3, c, 1)
    imix = alpha**1.5 * sphere_area(3) * (
        monomial_integral_oracle(5, 1, c + 2.0) - monomial_integral_oracle(5, 0, c + 2.0)
    )
    oracle = -it + 1.5 * imix
    assert co.d2 == pytest.approx(oracle, rel=1e-8)
    assert co.d2 < 0  # positive curvature lowers the energy


def test_d2_requires_vanishing_normal_derivative():
    co = expansion_coefficients(5, 1.5, f0=1.0, H=1.0, hbar=1.0, dtp0=0.3)
    assert "d2" in co.skipped
    with pytest.raises(HypothesisViolation):
        co.require("d2")


def test_d4_value():
    co = expansion_coefficients(5, 1.5, f0=1.0, dttp0=0.4, lap_y_p0=-0.6)
    alpha = decay_rate(5, 1.5)
    c = 1.5 * (alpha + 1.0)
    amp = alpha**1.5 * sphere_area(3)
    itt = amp * t_power_integral_oracle(3, c, 2)
    iy2 = amp * monomial_integral_oracle(5, 0, c)
    oracle = -(5.0 / 3.0) * 0.4 * itt + (5.0 / (2.0 * 4.0 * 1.5)) * 0.6 * iy2
    assert co.d4 == pytest.approx(oracle, rel=1e-8)


def test_d_guard_at_3_2():
    # p = 2 >= 9/7: the gradient-correction hypothesis fails at (3, 2)
    co = expansion_coefficients(3, 2.0, f0=1.0, dtp0=0.5)
    assert co.skipped.get("d1") == "p < N^2/(3N-2)"


def test_lenient_mode_computes_past_hypothesis():
    # at (2, 1.3) the stated sufficient hypothesis fails but the defining
    # integrals converge; the lenient engine computes and flags
    co = expansion_coefficients(
        2, 1.3, f0=1.0, H=1.0, hbar=1.0, enforce_hypotheses=False
    )
    assert co.d2 is not None and co.d2 < 0
    strict = expansion_coefficients(2, 1.3, f0=1.0, H=1.0, hbar=1.0)
    assert strict.d2 is None and strict.skipped["d2"] == "p < N^2/(3N-2)"


def test_lenient_mode_still_rejects_divergent():
    # at (3, 2) the t-weighted gradient integral genuinely diverges
    co = expansion_coefficients(3, 2.0, f0=1.0, dtp0=0.5, enforce_hypotheses=False)
    assert co.d1 is None and "d1" in co.skipped


# -- norm expansion fit ------------------------------------------------------------


EPS_LIST = (0.08, 0.056, 0.04, 0.028, 0.02, 0.014, 0.01, 0.007, 0.005, 0.0035)


@pytest.fixture(scope="module")
def disk_coeffs():
    return expansion_coefficients(
        2, 1.3, f0=1.0, H=1.0, hbar=1.0, enforce_hypotheses=False
    )


def test_expansion_fit_flat_no_first_order(disk_coeffs):
    flat = expansion_coefficients(2, 1.3, f0=1.0)
    fit = norm_expansion_check(2, 1.3, flat, EPS_LIST, model="flat")
    assert fit.case == "curvature"
    assert fit.predicted_slope == 0.0
    assert abs(fit.fitted_slope) <= 0.02


def test_expansion_fit_disk_slope_sign(disk_coeffs):
    fit = norm_expansion_check(2, 1.3, disk_coeffs, EPS_LIST, model="disk")
    assert fit.predicted_slope < 0
    assert fit.fitted_slope < 0


def test_expansion_fit_normal_derivative_branch():
    co = expansion_coefficients(2, 1.3, f0=1.0, dtp0=0.5, enforce_hypotheses=False)
    fit = norm_expansion_check(2, 1.3, co, EPS_LIST, model="flat")
    assert fit.case == "normal_derivative"
    assert fit.predicted_slope < 0
    assert fit.fitted_slope == pytest.approx(fit.predicted_slope, rel=0.2)


@pytest.mark.parametrize("model", ["disk", "flat"])
def test_expansion_fit_builds_no_mesh(monkeypatch, disk_coeffs, model):
    # the model chart reads only the model's boundary loop
    from vextrace import geometry

    def no_mesh(*args, **kwargs):
        raise AssertionError("mesh_domain called")

    monkeypatch.setattr(geometry, "mesh_domain", no_mesh)
    fit = norm_expansion_check(2, 1.3, disk_coeffs, (0.04, 0.02, 0.01, 0.005), model=model)
    assert fit.case == "curvature"


def test_expansion_fit_defect_shrinks(disk_coeffs):
    fit = norm_expansion_check(
        2, 1.3, disk_coeffs, (0.04, 0.02, 0.01, 0.005), model="disk"
    )
    d = fit.defects
    assert d[-1] < d[0]


@pytest.mark.parametrize("epsilons", [(0.08,), (0.08, 0.08, 0.08)])
def test_expansion_fit_needs_more_epsilons_than_columns(disk_coeffs, epsilons):
    # one distinct epsilon leaves a single column that fits it exactly
    with pytest.raises(FitUnstable, match="distinct epsilons"):
        norm_expansion_check(2, 1.3, disk_coeffs, epsilons, model="disk")
