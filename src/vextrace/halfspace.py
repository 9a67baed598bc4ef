"""Half-space extremal profiles, sharp trace constants, expansion coefficients.

The sharp constant K(N, p)^-1 has a closed form in Gamma functions (Escobar
1988 for p = 2; Nazaret, Nonlinear Anal. 65, 2006, for general p):
``sharp_constant_inverse`` is the one source of K^-1 for the verdicts and
diagnostics, with the relative error bar K_INV_REL.

The extremal V(y, t) = r^(-alpha) with r = sqrt((1+t)^2 + |y|^2) and
alpha = (N-p)/(p-1) generates, under the substitutions s = 1 + t and
rho = |y| with the unit-sphere area factor applied analytically, integrands
rho^a t^k (s^2 + rho^2)^(-c/2) on the quarter region {s >= 1, rho >= 0}.
Each integrates to a product of two Beta functions
(``half_space_power_integral``), so the integrals are exact to rounding.
Their Rayleigh quotient of V (``sharp_constant_quadrature``) is an
independent check of the closed form, by different algebra, and they feed
the expansion coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import beta

from .luxemburg import _norm_from_arrays, fixed_order_sum

__all__ = [
    "DomainError",
    "DivergentIntegral",
    "HypothesisViolation",
    "FitUnstable",
    "ExtremalProfile",
    "ExpansionCoefficients",
    "ExpansionFit",
    "sphere_area",
    "K_INV_REL",
    "sharp_constant_formula",
    "sharp_constant_inverse",
    "sharp_constant_quadrature",
    "extremal_quotient",
    "extremal_gradient_integral",
    "extremal_boundary_integral",
    "expansion_coefficients",
    "norm_expansion_check",
    "trace_exponent",
    "decay_rate",
]


class DomainError(ValueError):
    """Arguments outside the range a routine accepts, such as 1 < p < N."""


class DivergentIntegral(ValueError):
    """The requested half-space integral has a non-integrable tail."""


class HypothesisViolation(ValueError):
    """A coefficient was requested outside its validity hypothesis."""


class FitUnstable(RuntimeError):
    """Expansion fit residual or conditioning beyond threshold."""


K_INV_REL = 1e-14  # relative error bar of sharp_constant_inverse (a few ulps of lgamma)


def sphere_area(m):
    """Surface measure of the unit sphere S^m in R^(m+1); S^0 has measure 2."""
    return 2.0 * math.pi ** ((m + 1) / 2.0) / math.gamma((m + 1) / 2.0)


# ---------------------------------------------------------------------------
# Extremal profile


def decay_rate(n, p):
    _check_range(n, p)
    return (n - p) / (p - 1.0)


def trace_exponent(n, p):
    _check_range(n, p)
    return (n - 1.0) * p / (n - p)


def _check_range(n, p):
    if not (1.0 < p < n):
        raise DomainError(f"need 1 < p < N, got p={p}, N={n}")


@dataclass(frozen=True)
class ExtremalProfile:
    """Dilated and translated half-space extremal V_{lambda, y0}."""

    N: int
    p: float
    lam: float = 1.0
    y0: tuple = None

    def __post_init__(self):
        _check_range(self.N, self.p)
        if self.lam <= 0:
            raise ValueError("scale must be positive")
        y0 = self.y0
        if y0 is None:
            y0 = (0.0,) * (self.N - 1)
        y0 = tuple(float(v) for v in np.atleast_1d(y0))
        if len(y0) != self.N - 1:
            raise ValueError("y0 must have dimension N-1")
        object.__setattr__(self, "y0", y0)

    @property
    def alpha(self):
        return decay_rate(self.N, self.p)

    def value(self, y, t):
        y = np.atleast_2d(np.asarray(y, float))
        t = np.asarray(t, float)
        dy = y - np.asarray(self.y0)
        r2 = (1.0 + t / self.lam) ** 2 + np.sum(dy * dy, axis=-1) / self.lam**2
        return self.lam ** (-self.alpha) * r2 ** (-self.alpha / 2.0)


# ---------------------------------------------------------------------------
# Power-law integrals on {s >= 1, rho >= 0}, in closed form


def half_space_power_integral(a, c, k):
    """Integral over {s >= 1, rho >= 0} of rho^a (s-1)^k (s^2+rho^2)^(-c/2).

    The rho integral is s^(a+1-c) B((a+1)/2, (c-a-1)/2) / 2, and s = 1/u
    turns the s integral into B(k+1, c-a-k-2).  DivergentIntegral unless
    c - a - 1 > 0 and c - a - k - 2 > 0.
    """
    if c - a - 1.0 <= 0.0 or c - a - k - 2.0 <= 0.0:
        raise DivergentIntegral(
            f"non-integrable tail for rho^{a} t^{k} r^-{c} on the half-space"
        )
    return float(0.5 * beta((a + 1.0) / 2.0, (c - a - 1.0) / 2.0) * beta(k + 1.0, c - a - k - 2.0))


def boundary_power_integral(a, c):
    """Integral over rho in (0, inf) of rho^a (1 + rho^2)^(-c/2), which is
    B((a+1)/2, (c-a-1)/2) / 2; DivergentIntegral unless c - a - 1 > 0."""
    if c - a - 1.0 <= 0.0:
        raise DivergentIntegral(f"non-integrable boundary tail rho^{a} r^-{c}")
    return float(0.5 * beta((a + 1.0) / 2.0, (c - a - 1.0) / 2.0))


def _interior_integral(n, p, name):
    """A named half-space integral of the standard profile (lam=1, y0=0).

    Names: grad (|grad V|^p), t_grad (t |grad V|^p), tt_grad, y2_grad,
    mix_grad (t |y|^2 / r^2 |grad V|^p), value_p (V^p).
    """
    alpha = decay_rate(n, p)
    omega = sphere_area(n - 2)
    c_grad = p * (alpha + 1.0)
    amp = alpha**p * omega
    coef, a, c, k = {
        "grad": (amp, n - 2, c_grad, 0),
        "t_grad": (amp, n - 2, c_grad, 1),
        "tt_grad": (amp, n - 2, c_grad, 2),
        "y2_grad": (amp, n, c_grad, 0),
        "mix_grad": (amp, n, c_grad + 2.0, 1),
        "value_p": (omega, n - 2, p * alpha, 0),
    }[name]
    return coef * half_space_power_integral(a, c, k)


def extremal_gradient_integral(n, p):
    """(integral of |grad V|^p over the half-space, 0.0): a closed form,
    so its error bar is 0."""
    return _interior_integral(n, p, "grad"), 0.0


def extremal_boundary_integral(n, p):
    """(integral of V(.,0)^{p_*} over the boundary hyperplane, 0.0)."""
    alpha = decay_rate(n, p)
    p_star = trace_exponent(n, p)
    return sphere_area(n - 2) * boundary_power_integral(n - 2, alpha * p_star), 0.0


# ---------------------------------------------------------------------------
# Sharp constant


def sharp_constant_formula(n, p):
    """The Gamma-function expression for the sharp constant, verbatim.

    It is K(N, p) = (K^-1)^-p, the p-th power of the reciprocal extremal
    quotient; ``sharp_constant_inverse`` takes the root, and
    ``sharp_constant_quadrature`` checks it independently.
    """
    _check_range(n, p)
    lg = math.lgamma
    ratio = (p - 1.0) / (n - 1.0) * (
        lg(p * (n - 1.0) / (2.0 * (p - 1.0))) - lg((n - 1.0) / (2.0 * (p - 1.0)))
    )
    return (
        math.pi ** ((1.0 - p) / 2.0)
        * ((p - 1.0) / (n - p)) ** (p - 1.0)
        * math.exp(ratio)
    )


def sharp_constant_inverse(n, p):
    """K(N, p)^-1 in closed form: sharp_constant_formula(n, p)^(-1/p).

    Within K_INV_REL relative of a 50-digit evaluation of the same
    expression; the quadrature quotient agrees to 5e-15 relative away from
    p = 1 (6.5e-12 at N = 7, p = 1.0005).
    """
    return sharp_constant_formula(n, p) ** (-1.0 / p)


def sharp_constant_quadrature(n, p):
    """Rayleigh quotient |grad V|_p / |V(.,0)|_{p_*} of the extremal.

    Returns (K_inv_estimate, 0.0): extremal_quotient of the standard
    profile (lam = 1, y0 = 0), whose scale factors are exactly 1.  This is
    the independent check of sharp_constant_inverse, not a source of K^-1.
    """
    return extremal_quotient(ExtremalProfile(n, p))


def extremal_quotient(profile):
    """Rayleigh quotient of a dilated/translated profile.

    Translation leaves both integrals unchanged; dilation rescales them by
    exact powers of the scale, which is applied here explicitly so that the
    dilation invariance of the quotient is exercised in floating point.
    Returns (estimate, 0.0): both integrals are Beta-function closed forms,
    so nothing is truncated and the error bar is 0.
    """
    n, p, lam = profile.N, profile.p, profile.lam
    alpha = profile.alpha
    p_star = trace_exponent(n, p)
    grad_val, _ = extremal_gradient_integral(n, p)
    bnd_val, _ = extremal_boundary_integral(n, p)
    grad_scaled = lam ** (-alpha) * grad_val
    bnd_scaled = lam ** (-(n - 1.0) / (p - 1.0)) * bnd_val
    estimate = grad_scaled ** (1.0 / p) / bnd_scaled ** (1.0 / p_star)
    return estimate, 0.0


# ---------------------------------------------------------------------------
# Expansion coefficients


_HYP_A1 = "p < (N-1)/2"
_HYP_D = "p < N^2/(3N-2)"
_HYP_C0 = "p < sqrt(N)"
_HYP_DTP = "a vanishing normal derivative of p at 0 (dtp0 = 0)"


@dataclass(frozen=True)
class ExpansionCoefficients:
    """Leading coefficients of the cutoff-extremal energy expansions.

    Coefficients whose validity hypothesis fails are None, with the named
    inequality recorded in ``skipped``; access through require() raises.
    """

    N: int
    p: float
    c0: float | None
    a0: float
    a1: float | None
    d0: float
    d1: float | None
    d2: float | None
    d3: float
    d4: float | None
    skipped: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)

    def require(self, name):
        val = getattr(self, name)
        if val is None:
            raise HypothesisViolation(f"{name} unavailable: needs {self.skipped[name]}")
        return val


def expansion_coefficients(
    n,
    p,
    f0,
    dtf0=0.0,
    dtp0=0.0,
    dttp0=0.0,
    lap_y_p0=0.0,
    lap_r0=0.0,
    H=0.0,
    hbar=0.0,
    truncation_R=None,  # unread; kept while perfbench/workloads.py passes it
    enforce_hypotheses=True,
):
    """All expansion coefficients with per-coefficient hypothesis guards.

    A coefficient whose multiplying input is exactly zero is structurally
    zero and bypasses its guard.  With enforce_hypotheses the guards are the
    stated sufficient inequalities; without, any coefficient whose defining
    integral converges is computed.
    """
    _check_range(n, p)
    p_star = trace_exponent(n, p)
    inputs = dict(
        f0=f0, dtf0=dtf0, dtp0=dtp0, dttp0=dttp0,
        lap_y_p0=lap_y_p0, lap_r0=lap_r0, H=H, hbar=hbar,
    )
    skipped = {}
    values = {}

    hyp_a1 = p < (n - 1.0) / 2.0
    hyp_d = p < n * n / (3.0 * n - 2.0)
    hyp_c0 = p < math.sqrt(n)
    hyp_dtp = dtp0 == 0.0

    def compute(name, factor_zero, hypotheses, evaluate):
        if factor_zero:
            values[name] = 0.0
            return
        failed = [label for ok, label in hypotheses if not ok]
        # the lenient mode waives the sufficient inequalities, but not
        # dtp0 = 0, which the d2 and d4 formulas assume
        blocking = failed if enforce_hypotheses else [f for f in failed if f == _HYP_DTP]
        if blocking:
            skipped[name] = blocking[0]
            values[name] = None
            return
        try:
            values[name] = evaluate()
        except DivergentIntegral as err:
            skipped[name] = str(err)
            values[name] = None

    def integral(name):
        return _interior_integral(n, p, name)

    # boundary pieces
    omega = sphere_area(n - 2)
    alpha = decay_rate(n, p)
    a0 = f0 * omega * boundary_power_integral(n - 2, alpha * p_star)

    compute("c0", f0 == 0.0, [(hyp_c0, _HYP_C0)], lambda: f0 * integral("value_p"))
    compute(
        "a1",
        f0 * lap_r0 == 0.0,
        [(hyp_a1, _HYP_A1)],
        lambda: -f0 * lap_r0 / (2.0 * p_star)
        * omega * boundary_power_integral(n, alpha * p_star),
    )
    d0 = f0 * integral("grad")
    compute(
        "d1",
        f0 * dtp0 == 0.0,
        [(hyp_d, _HYP_D)],
        lambda: -(n / p) * f0 * dtp0 * integral("t_grad"),
    )
    compute(
        "d2",
        (dtf0 - H * f0) == 0.0 and hbar * f0 == 0.0,
        [(hyp_d, _HYP_D), (hyp_dtp, _HYP_DTP)],
        lambda: (dtf0 - H * f0) * integral("t_grad")
        + p * hbar * f0 * integral("mix_grad"),
    )
    compute(
        "d4",
        f0 * dttp0 == 0.0 and f0 * lap_y_p0 == 0.0,
        [(hyp_d, _HYP_D), (hyp_dtp, _HYP_DTP)],
        lambda: -(n / (2.0 * p)) * f0 * dttp0 * integral("tt_grad")
        - (n / (2.0 * (n - 1.0) * p)) * f0 * lap_y_p0 * integral("y2_grad"),
    )

    return ExpansionCoefficients(
        N=n, p=p,
        c0=values["c0"], a0=a0, a1=values["a1"],
        d0=d0, d1=values["d1"], d2=values["d2"], d3=0.0, d4=values["d4"],
        skipped=skipped, inputs=inputs,
    )


# ---------------------------------------------------------------------------
# Norm expansion check on a planar model domain


def _smoothstep_cutoff(rho, delta):
    """1 on [0, delta], 0 beyond 2 delta, quintic C^2 transition."""
    rho = np.asarray(rho, float)
    s = np.clip((rho - delta) / delta, 0.0, 1.0)
    return 1.0 - (10.0 * s**3 - 15.0 * s**4 + 6.0 * s**5)


def _smoothstep_cutoff_deriv(rho, delta):
    rho = np.asarray(rho, float)
    s = np.clip((rho - delta) / delta, 0.0, 1.0)
    inside = (rho > delta) & (rho < 2.0 * delta)
    d = -(30.0 * s**2 - 60.0 * s**3 + 30.0 * s**4) / delta
    return np.where(inside, d, 0.0)


@dataclass(frozen=True)
class ExpansionFit:
    case: str  # 'normal_derivative' or 'curvature'
    epsilons: tuple
    sobolev_norms: tuple
    boundary_norms: tuple
    gradient_modulars: tuple
    fitted_slope: float
    predicted_slope: float
    fitted_boundary_slope: float
    predicted_boundary_slope: float
    residual: float
    defects: tuple


def _column_distinct(a, b):
    """Reject only near-exact collinearity (degenerate exponent collisions)."""
    ra = a / np.linalg.norm(a)
    rb = b / np.linalg.norm(b)
    return abs(float(ra @ rb)) < 1.0 - 1e-6


def _model_chart(model, H):
    from .geometry import fermi_chart, polygon_loop, unit_disk_loop

    if model == "disk":
        if H <= 0:
            raise DomainError("disk model needs H > 0")
        radius = 1.0 / H
        return fermi_chart(unit_disk_loop(radius=radius), (radius, 0.0))
    if model == "flat":
        return fermi_chart(polygon_loop([(-2, 0), (2, 0), (2, 4), (-2, 4)]), (0.0, 0.0))
    raise DomainError(f"model must be 'disk' or 'flat', got {model!r}")


def _gl_panels(breaks, n):
    """Gauss-Legendre nodes/weights on consecutive panels."""
    x, w = np.polynomial.legendre.leggauss(n)
    lo = np.asarray(breaks[:-1])
    hi = np.asarray(breaks[1:])
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _graded_breaks(total, n_panels):
    """Geometric grading of [0, total] toward 0."""
    fracs = np.geomspace(2.0 ** -(n_panels - 1), 1.0, n_panels)
    return np.concatenate([[0.0], total * fracs])


def _model_quadrature(delta, eps):
    """Polar grid on the upper half-plane support {radius <= 2 delta}.

    Radial panel breaks double from eps/8 up to 2 delta, so eps must be > 0.
    """
    breaks = [0.0]
    r = eps / 8.0
    while r < 2.0 * delta:
        breaks.append(min(r, 2.0 * delta))
        r *= 2.0
    breaks.append(2.0 * delta)
    breaks = np.unique(np.asarray(breaks))
    r_nodes, r_w = _gl_panels(breaks, 10)
    t_nodes, t_w = _gl_panels(np.linspace(0.0, math.pi, 5), 24)
    RR, TT = np.meshgrid(r_nodes, t_nodes, indexing="ij")
    WW = np.outer(r_w, t_w) * RR
    y = (RR * np.cos(TT)).ravel()
    t = (RR * np.sin(TT)).ravel()
    return y, t, WW.ravel()


def norm_expansion_check(n, p, coeffs, epsilons, model="disk"):
    """Measure cutoff-extremal norms on a model domain and fit the slopes.

    The model reconstructs the exponent and weight fields from the inputs
    echoed in the coefficient set (their chart-coordinate Taylor data), so
    measured slopes are directly comparable with the predicted ratios
    d1/(p d0) (case of positive normal derivative of p, regressor
    eps*ln(eps)) or d2/(p d0) (flat-in-t exponent with curved boundary,
    regressor eps), plus a1/(p_* a0) for the boundary norm.  The profile is
    cut off between delta and 2 delta, with delta a quarter of the chart
    validity radius; a fit whose relative residual exceeds 0.2 raises
    FitUnstable, and N != 2, an unknown model or an eps <= 0 raise
    DomainError.
    """
    if n != 2:
        raise DomainError(f"the model-domain check is planar (N = 2), got N = {n}")
    epsilons = tuple(sorted((float(e) for e in epsilons), reverse=True))
    if not all(e > 0 for e in epsilons):
        raise DomainError(f"epsilons must be > 0, got {min(epsilons)!r}")
    inp = coeffs.inputs
    f0, dtf0 = inp["f0"], inp["dtf0"]
    dtp0, dttp0 = inp["dtp0"], inp["dttp0"]
    lap_y_p0, lap_r0 = inp["lap_y_p0"], inp["lap_r0"]
    H = inp["H"]
    if model == "disk" and inp["hbar"] != H:
        raise ValueError("planar models require hbar == H")
    alpha = decay_rate(n, p)
    p_star = trace_exponent(n, p)
    chart = _model_chart(model, H)
    delta = 0.25 * chart.validity_radius

    case = "normal_derivative" if dtp0 > 0 else "curvature"
    d0 = coeffs.d0
    a0 = coeffs.a0
    if case == "normal_derivative":
        slope_pred = coeffs.require("d1") / (p * d0)
    else:
        slope_pred = coeffs.require("d2") / (p * d0)
    bnd_slope_pred = (coeffs.a1 if coeffs.a1 is not None else 0.0) / (p_star * a0)

    # trace-invariant rescaling keeps both the gradient p-modular and the
    # boundary p_*-modular O(1), matching the coefficient normalization
    kappa = -(n - p) / p
    sob_norms, bnd_norms, grad_mods, defects = [], [], [], []
    for eps in epsilons:
        y, t, w = _model_quadrature(delta, eps)
        rho = np.hypot(y, t)
        eta = _smoothstep_cutoff(rho, delta)
        deta = _smoothstep_cutoff_deriv(rho, delta)
        r2 = (1.0 + t / eps) ** 2 + (y / eps) ** 2
        V = eps**kappa * r2 ** (-alpha / 2.0)
        # frame gradient of the rescaled profile
        pref = -alpha * eps ** (kappa - 2.0) * r2 ** (-(alpha + 2.0) / 2.0)
        gV_y = pref * y
        gV_t = pref * (eps + t)
        safe = np.where(rho > 0, rho, 1.0)
        geta_y = deta * y / safe
        geta_t = deta * t / safe
        g_frame = np.stack(
            [geta_y * V + eta * gV_y, geta_t * V + eta * gV_t], axis=1
        )
        # map frame gradients to world via dPhi^-T
        dphi = chart.dmap_frame(y, t)
        inv_t = np.linalg.inv(dphi).transpose(0, 2, 1)
        g_world = np.einsum("nij,nj->ni", inv_t, g_frame)
        gmag = np.hypot(g_world[:, 0], g_world[:, 1])
        vals = eta * V
        jac = chart.jacobian(y, t)
        wq = w * jac
        p_field = p + dtp0 * t + 0.5 * dttp0 * t * t + 0.5 * lap_y_p0 * y * y
        f_field = f0 + dtf0 * t
        grad_mod = fixed_order_sum(wq * f_field * gmag**p_field)
        grad_mods.append(grad_mod)
        sob = _norm_from_arrays(np.abs(vals), wq, p_field, gmag)
        sob_norms.append(sob)
        # boundary norm
        yb, wb = _gl_panels(
            np.concatenate([-_graded_breaks(2.0 * delta, 12)[::-1],
                            _graded_breaks(2.0 * delta, 12)[1:]]),
            12,
        )
        r2b = 1.0 + (yb / eps) ** 2
        Vb = eps**kappa * r2b ** (-alpha / 2.0)
        etab = _smoothstep_cutoff(np.abs(yb), delta)
        r_field = p_star + 0.5 * lap_r0 * yb * yb
        wqb = wb * chart.boundary_jacobian(yb)
        bnd = _norm_from_arrays(np.abs(etab * Vb), wqb, r_field, None)
        bnd_norms.append(bnd)
        x1 = eps * math.log(eps) if case == "normal_derivative" else eps
        defects.append(abs(sob / (d0 ** (1.0 / p) * (1.0 + slope_pred * x1)) - 1.0))

    eps_arr = np.asarray(epsilons)
    ys = np.asarray(sob_norms) / d0 ** (1.0 / p) - 1.0
    # the value-term contribution to the norm is known exactly; subtracting
    # it removes a regressor nearly collinear with the slope column
    if coeffs.c0 is not None:
        ys = ys - (coeffs.c0 / (p * d0)) * eps_arr**p
        nuisance = [eps_arr**alpha, eps_arr ** (2.0 * p)]
    else:
        nuisance = [eps_arr**p, eps_arr**alpha]
    if case == "normal_derivative":
        cols = [eps_arr * np.log(eps_arr), eps_arr] + nuisance[:1]
    else:
        cols = [eps_arr] + nuisance
    # drop nuisance columns that collide with the slope column
    kept = [cols[0]]
    for c in cols[1:]:
        if all(_column_distinct(c, k) for k in kept):
            kept.append(c)
    X = np.stack(kept, axis=1)
    n_distinct = len(np.unique(eps_arr))
    if n_distinct <= X.shape[1]:
        raise FitUnstable(
            f"{n_distinct} distinct epsilons cannot test a fit of {X.shape[1]} columns"
        )
    sol, res, rank, sv = np.linalg.lstsq(X, ys, rcond=None)
    fitted = float(sol[0])
    resid = float(np.linalg.norm(X @ sol - ys) / max(np.linalg.norm(ys), 1e-300))
    if rank < X.shape[1] or (sv[0] / max(sv[-1], 1e-300)) > 1e12:
        raise FitUnstable("ill-conditioned expansion fit")
    if resid > 0.2:
        raise FitUnstable(f"expansion fit residual {resid:.3g} beyond threshold")

    yb2 = np.asarray(bnd_norms) / a0 ** (1.0 / p_star) - 1.0
    Xb = np.stack([eps_arr**2 * np.log(eps_arr), eps_arr**2], axis=1)
    solb, *_ = np.linalg.lstsq(Xb, yb2, rcond=None)
    return ExpansionFit(
        case=case,
        epsilons=epsilons,
        sobolev_norms=tuple(sob_norms),
        boundary_norms=tuple(bnd_norms),
        gradient_modulars=tuple(grad_mods),
        fitted_slope=fitted,
        predicted_slope=slope_pred,
        fitted_boundary_slope=float(solb[0]),
        predicted_boundary_slope=bnd_slope_pred,
        residual=resid,
        defects=tuple(defects),
    )
