import hashlib
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vextrace.exponents import (
    DimensionError,
    ExponentField,
    ExponentSyntaxError,
    SupercriticalError,
    critical_gap,
    local_extremum_check,
    log_holder_probe,
    parse_exponent,
    trace_exponent,
)


def test_parse_constant():
    e = ExponentField.from_text("1.5", 2)
    assert e.eval_at((0.0, 0.0)) == 1.5


def test_parse_affine():
    e = ExponentField.from_text("1.5 + 0.1*x1", 2)
    assert e.eval_at((1.0, 0.0)) == pytest.approx(1.6, abs=1e-15)


def test_parse_quadratic_vertex():
    e = ExponentField.from_text("2 - 0.5*(x1^2 + x2^2)", 2)
    assert e.eval_at((0.0, 0.0)) == 2.0
    assert e.eval_at((1.0, 1.0)) == pytest.approx(1.0)


def test_power_binds_tightest():
    e = ExponentField.from_text("2*x1^2", 2)
    assert e.eval_at((3.0, 0.0)) == pytest.approx(18.0)


def test_functions_and_scientific_notation():
    e = ExponentField.from_text("exp(x1) + log(x2) + sqrt(x1) + 1e-2", 2)
    v = e.eval_at((1.0, math.e))
    assert v == pytest.approx(math.e + 1.0 + 1.0 + 0.01)


def test_syntax_error_reports_position():
    with pytest.raises(ExponentSyntaxError) as err:
        parse_exponent("1.5 + * x1", 2)
    assert err.value.position == 6


def test_nonconstant_power_rejected():
    with pytest.raises(ExponentSyntaxError):
        parse_exponent("x1^x2", 2)


@pytest.mark.parametrize(
    "text", ["x1**2", "1_0", "0x10", "1j", "True", "exp(x1, x2)", "x1^2^3"]
)
def test_python_only_forms_rejected(text):
    with pytest.raises(ExponentSyntaxError):
        parse_exponent(text, 2)


@pytest.mark.parametrize(
    "text, position",
    [("x1^2 + * x2", 7), ("2^3 + foo", 6), ("x1^2 + x2^x1", 10), ("1.5 + * x1", 6)],
)
def test_error_positions_index_the_text(text, position):
    with pytest.raises(ExponentSyntaxError) as err:
        parse_exponent(text, 2)
    assert err.value.position == position


def test_dimension_error():
    with pytest.raises(DimensionError):
        parse_exponent("1 + x3", 2)


def test_points_with_too_few_columns_raise_dimension_error():
    f = ExponentField.from_text("1 + x2", 2)
    with pytest.raises(DimensionError, match="x2 evaluated on points of dimension 1"):
        f(np.zeros((3, 1)))


CORPUS = [
    "1.5",
    "2",
    "1.5 + 0.1*x1",
    "2 - 0.5*(x1^2 + x2^2)",
    "exp(-1*(x1^2))",
    "log(2 + x1*x1)",
    "sqrt(4 + x2)",
    "1.3 + 0.2*x2",
    "(x1 + x2)/(3 + x1^2)",
    "2 - x1*x2*0.1",
    "1.1 + 0.01*exp(x1 - x2)",
    "3 - 1/(2 + x1^2 + x2^2)",
    "-(-x1) + 2",
    "2 + x1^3*0.001",
    "1.5 + (x1 - 0.5)^2 + (x2 - 0.5)^2",
]


def _random_expr(rng, depth=0):
    """A random expression text over x1 and x2."""
    roll = rng.random()
    if depth >= 4 or roll < 0.3:
        if rng.random() < 0.5:
            return repr(round(rng.uniform(0.5, 3.0), 3))
        return f"x{rng.integers(1, 3)}"
    if roll < 0.6:
        op = rng.choice(["+", "-", "*"])
        left = _random_expr(rng, depth + 1)
        return f"({left} {op} {_random_expr(rng, depth + 1)})"
    if roll < 0.7:
        return f"({_random_expr(rng, depth + 1)} / (3 + x{rng.integers(1, 3)}^2))"
    if roll < 0.8:
        return f"(2 + x{rng.integers(1, 3)}^2)^{round(rng.uniform(-2.0, 2.0), 2)!r}"
    if roll < 0.9:
        return f"exp(-x{rng.integers(1, 3)}^2)"
    return f"sqrt(1 + x{rng.integers(1, 3)}^2)"


def _eval_text(text, x1, x2, lib=np):
    """The text as Python evaluates it, '^' read as '**', with lib's functions."""
    names = {"x1": x1, "x2": x2, "exp": lib.exp, "log": lib.log, "sqrt": lib.sqrt}
    return eval(text.replace("^", "**"), {"__builtins__": {}}, names)


def test_corpus_matches_numpy_evaluation_of_the_text():
    rng = np.random.default_rng(42)
    texts = CORPUS + [_random_expr(rng) for _ in range(50 - len(CORPUS))]
    pts = rng.uniform(-0.9, 0.9, size=(100, 2))
    for text in texts:
        expected = np.broadcast_to(_eval_text(text, pts[:, 0], pts[:, 1]), len(pts))
        np.testing.assert_array_equal(ExponentField.from_text(text, 2)(pts), expected)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.2, 0.8, size=(20, 2))
    h = 1e-6
    for text in CORPUS:
        e = ExponentField.from_text(text, 2)
        grad = e.gradient(pts)
        assert grad.shape == (20, 2)
        for i in range(2):
            shift = np.zeros(2)
            shift[i] = h
            fd = (e(pts + shift) - e(pts - shift)) / (2 * h)
            np.testing.assert_allclose(grad[:, i], fd, rtol=1e-5, atol=1e-7)


@pytest.mark.parametrize(
    "text",
    ["x1^3", "x1^101", "x1^-2", "1.5 + 0.1*x1 - 0.05*x2^2", "exp(x1*x2) - x2/(3 + x1^2)",
     "log(2 + x1) * sqrt(3 + x1*x2)", "(1 + x2^2)^-0.75", "-(-x1)*x2 + 1/x2"],
)
def test_gradients_match_a_50_digit_derivative(text):
    pts = [(-0.5, 0.3), (-0.9, -0.7), (-0.25, 0.8), (0.6, -0.4)]
    grad = ExponentField.from_text(text, 2).gradient(pts)
    with mpmath.workdps(50):
        for (x, y), g in zip(pts, grad):
            for i, (u, v) in enumerate([(x, y), (y, x)]):
                def along(t, i=i, v=v):
                    return _eval_text(text, *((t, v) if i == 0 else (v, t)), lib=mpmath)

                exact = mpmath.diff(along, mpmath.mpf(u))
                assert abs(g[i] - exact) <= 1e-14 * abs(exact) + 1e-300, (text, x, y, i)


# one digest per set of SIMD targets numpy dispatches to on this CPU, as
# __cpu_dispatch__ and __cpu_features__ report them: the empty set is the
# X86_V2 baseline, which NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL
# AVX512_SPR" selects on an AVX-512 CPU (numpy 2.4.6)
DIGESTS = {
    frozenset({"X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"}):
        "7c09befc4dc451ad9620e94202e797d3d3035606854235b08ef9d3c7f8ee3ea9",
    frozenset(): "47fb735a7b4f09d79bf29e63d588405bec0e9fa98065eae561f6d68f08a71ad0",
}


def _dispatch_targets():
    from numpy._core import _multiarray_umath as umath

    return frozenset(t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t))


def _canonical_bytes(a):
    # IEEE 754 leaves the sign of a computed nan open, and numpy's loops
    # set it differently for one point and for many; every nan hashes alike
    a = np.asarray(a, np.float64)
    return np.where(np.isnan(a), np.nan, a).tobytes()


def test_values_and_gradients_digest():
    """Pins the float64 bits of values and gradients on a seeded corpus.

    The corpus is CORPUS, texts at the edges of the float range (overflow
    to inf, division by zero, negative bases, x1^101) and 300 random texts,
    at 45 points.  The digest depends on the bits of numpy's exp, log and
    power loops, which differ with the SIMD kernels numpy dispatches to, so
    each set of dispatch targets has its own; a set with none listed fails.
    """
    edges = [
        "10^400*x1", "1/0 + x1", "x1^0.5", "(x1 - 1)^-1.5", "x1^101", "x1^3", "log(x1)",
        "sqrt(x2)", "x1^-1", "exp(1000*x1)", "-1.5", "-2*x2", "x2/x1", "-x1 - -x2",
        "+x1^2", "x1^0", "x1^-2.5 + x2^1.5", "1e-320*x1*x2",
    ]
    rng = np.random.default_rng(14)
    texts = CORPUS + edges + [_random_expr(rng) for _ in range(300)]
    pts = np.concatenate([
        rng.uniform(-0.9, 0.9, size=(40, 2)),
        [[0.0, 0.0], [-0.0, 1.0], [-1.0, -0.5], [1.0, 2.0], [-0.5, 0.0]],
    ])
    digest = hashlib.sha256()
    with np.errstate(all="ignore"):
        for text in texts:
            f = ExponentField.from_text(text, 2)
            digest.update(_canonical_bytes(f(pts)))
            digest.update(_canonical_bytes(f.gradient(pts)))
    targets = _dispatch_targets()
    assert targets in DIGESTS, f"no digest for numpy dispatch targets {sorted(targets)}"
    assert digest.hexdigest() == DIGESTS[targets]


# -- critical exponents ------------------------------------------------------


def test_critical_gap_constant_cases():
    # against r = 0 the gap is p_* = (N-1)p/(N-p) itself
    for n, p, expected in [(2, 1.5, 3.0), (3, 2.0, 4.0), (5, 1.5, 12.0 / 7.0)]:
        f = ExponentField.from_text(repr(p), n)
        pts = np.zeros((3, n))
        gap = critical_gap(f, ExponentField.from_text("0", n), pts)
        np.testing.assert_allclose(gap, expected, rtol=1e-15)


def test_critical_gap_evaluates_p_once():
    calls = []
    inner = parse_exponent("1.5 + 0.1*x1", 2)
    p = ExponentField(lambda pts: calls.append(len(pts)) or inner(pts), 2)
    r = ExponentField.from_text("2", 2)
    pts = np.array([[0.0, 0.0], [0.5, 0.5], [1.0, 0.0]])
    gap = critical_gap(p, r, pts)
    assert calls == [3]
    v = inner(pts)
    assert np.array_equal(gap, (2 - 1.0) * v / (2 - v) - 2.0)


def test_trace_exponent_is_elementwise_and_owns_the_gap():
    for n, ps in [(2, [1.1, 1.5, 1.9]), (3, [1.2, 2.0, 2.9]), (5, [1.5, 4.5])]:
        arr = trace_exponent(n, np.array(ps))
        assert np.array_equal(arr, [trace_exponent(n, p) for p in ps])
    p = ExponentField.from_text("1.5 + 0.1*x1 - 0.05*x2^2", 2)
    r = ExponentField.from_text("2 + 0.3*x2", 2)
    pts = np.random.default_rng(4).uniform(-1.0, 1.0, size=(50, 2))
    assert np.array_equal(critical_gap(p, r, pts), trace_exponent(2, p(pts)) - r(pts))


def test_critical_gap_is_quiet_on_nan_and_inf():
    # p is -inf at x1 = 0, where p_* is -inf/inf, and nan at x1 = -1; the
    # gap carries the nans to the caller without a RuntimeWarning
    p = ExponentField.from_text("1.5 + 0.1*log(x1)", 2)
    r = ExponentField.from_text("3", 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gap = critical_gap(p, r, np.array([[0.0, 0.0], [-1.0, 0.0], [1.0, 0.0]]))
    assert np.isnan(gap[0]) and np.isnan(gap[1]) and gap[2] == 0.0


def test_supercritical_error():
    f = ExponentField.from_text("2.5", 2)
    r = ExponentField.from_text("3", 2)
    with pytest.raises(SupercriticalError):
        critical_gap(f, r, np.zeros((4, 2)))


def test_critical_identity_machine_precision():
    rng = np.random.default_rng(3)
    f = ExponentField.from_text("1.5 + 0.3*exp(-1*(x1^2 + x2^2))", 2)
    pts = rng.uniform(-1, 1, size=(200, 2))
    p = f(pts)
    p_low = critical_gap(f, ExponentField.from_text("0", 2), pts)
    assert np.all(p_low > p)
    np.testing.assert_allclose(p_low * (2 - p), 1 * p, rtol=1e-13)


# -- critical set: the points where critical_gap is at most a tolerance -------


def _circle_points(thetas):
    t = np.asarray(thetas)
    return np.stack([np.cos(t), np.sin(t)], axis=1)


def test_critical_set_identically_critical():
    p = ExponentField.from_text("1.5", 2)
    r = ExponentField.from_text("3", 2)
    pts = _circle_points(np.linspace(0, 2 * np.pi, 17)[:-1])
    gap = critical_gap(p, r, pts)
    assert np.all(gap <= 1e-9)
    assert float(np.min(gap)) == pytest.approx(0.0, abs=1e-12)


def test_critical_set_uniformly_subcritical():
    p = ExponentField.from_text("1.5", 2)
    r = ExponentField.from_text("2", 2)
    pts = _circle_points(np.linspace(0, 2 * np.pi, 17)[:-1])
    gap = critical_gap(p, r, pts)
    assert not np.any(gap <= 1e-9)
    assert float(np.min(gap)) == pytest.approx(1.0)


def test_critical_set_with_exact_critical_field():
    # r written as the critical trace exponent p/(2 - p) of a variable p:
    # every queried point is critical with margin zero up to floating error
    text = "1.5 + 0.2*exp(-1*(x1^2 + x2^2))"
    p = ExponentField.from_text(text, 2)
    r = ExponentField.from_text(f"({text})/(2 - ({text}))", 2)
    pts = _circle_points(np.linspace(0, 2 * np.pi, 33)[:-1])
    gap = critical_gap(p, r, pts)
    assert np.all(gap <= 1e-9)
    assert abs(float(np.min(gap))) <= 1e-12


def test_critical_set_quadratic_touch():
    # r = 3 - |x - x0|^2 on the unit circle, x0 = (1, 0); the gap is the
    # squared chord distance, so tol = 1e-9 selects chords below ~3.16e-5
    p = ExponentField.from_text("1.5", 2)
    r = ExponentField.from_text("3 - ((x1 - 1)^2 + x2^2)", 2)
    offsets = np.array([0.0, 1e-5, 2.9e-5, 3.3e-5, 1e-3, 0.5 * np.pi])
    pts = _circle_points(offsets)
    gap = critical_gap(p, r, pts)
    sel = pts[gap <= 1e-9]
    assert len(sel) == 3
    for x in sel:
        assert np.linalg.norm(x - np.array([1.0, 0.0])) <= 3.2e-5
    assert float(np.min(gap)) == pytest.approx(0.0, abs=1e-15)


# -- local extrema -----------------------------------------------------------


def _box(x0, radius):
    """21 x 21 grid on the square of half-width radius about x0."""
    axis = np.linspace(-radius, radius, 21)
    grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    return np.asarray(x0) + grid


def test_local_extremum_min():
    f = ExponentField.from_text("1.5 + (x1 - 0.2)^2 + (x2 + 0.1)^2", 2)
    ok, witness = local_extremum_check(f, (0.2, -0.1), "min", _box((0.2, -0.1), 0.3))
    assert ok and witness is None


def test_local_extremum_max():
    f = ExponentField.from_text("3 - ((x1 - 0.2)^2 + x2^2)", 2)
    ok, _ = local_extremum_check(f, (0.2, 0.0), "max", _box((0.2, 0.0), 0.3))
    assert ok


def test_local_extremum_monotone_fails_with_witness():
    f = ExponentField.from_text("1.5 + x1", 2)
    ok, witness = local_extremum_check(f, (0.0, 0.0), "min", _box((0.0, 0.0), 0.5))
    assert not ok
    assert witness is not None and witness[0] < 0


# -- probes ------------------------------------------------------------------


def test_log_holder_probe_runs():
    f = ExponentField.from_text("1.5 + 0.1*x1", 2)
    pts = np.random.default_rng(1).uniform(-1, 1, size=(64, 2))
    rows = log_holder_probe(f, pts)
    assert len(rows) == 8
    lam, rho, product = rows[-1]
    assert rho <= 0.1 * 2 * lam + 1e-12


def _dense_holder_reference(field_, pts):
    """The probe over the full n x n distance tables."""
    vals = field_(pts)
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    dv = np.abs(vals[:, None] - vals[None, :])
    dmax = float(np.max(d)) or 1.0
    rows = []
    for lam in [dmax * 2.0**-k for k in range(1, 9)]:
        mask = (d > 0) & (d <= lam)
        rho = float(np.max(dv[mask])) if np.any(mask) else 0.0
        rows.append((lam, rho, math.log(1.0 / lam) * rho if lam < 1 else 0.0))
    return rows


@pytest.mark.parametrize("case", ["one-point", "duplicated", "random-500"])
def test_log_holder_probe_matches_dense_reference(case):
    f = ExponentField.from_text("1.5 + 0.2*x1^2 - 0.1*x2", 2)
    rng = np.random.default_rng(7)
    pts = {
        "one-point": np.array([[0.3, -0.2]]),
        # d = 0 pairs must not enter the modulus
        "duplicated": np.repeat(rng.uniform(-1, 1, size=(20, 2)), 3, axis=0),
        "random-500": rng.uniform(-1, 1, size=(500, 2)),
    }[case]
    assert log_holder_probe(f, pts) == _dense_holder_reference(f, pts)


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(1.2, 2.8),
    b=st.floats(-0.3, 0.3),
    x=st.floats(-0.9, 0.9),
    y=st.floats(-0.9, 0.9),
)
def test_affine_field_round_trip_property(a, b, x, y):
    # a and b go into the text and come back as the value and the gradient
    e = ExponentField.from_text(f"{a!r} + {b!r}*x1", 2)
    assert e.eval_at((x, y)) == a + b * x
    assert e.gradient((x, y)).tolist() == [[b, 0.0]]


_TOKENS = ["x1", "x2", "x3", "1.5", "0", "2e-3", " ", "+", "-", "*", "/", "^", "^-1",
           "(", ")", "sqrt(", "exp(", "log(", ",", "."]
# a core wrapped k times: nested signs, parentheses and calls, long sums and powers
_WRAPS = [("-", ""), ("(", ")"), ("sqrt(", ")"), ("(x1+", ")"), ("", " + 0*x1"), ("", "^1"),
          ("+", ""), ("exp(", ")*x2")]


@settings(max_examples=150, deadline=None)
@given(
    tokens=st.lists(st.sampled_from(_TOKENS), max_size=400),
    wrap=st.sampled_from(_WRAPS),
    depth=st.integers(0, 3000),
    core=st.sampled_from(["1.5", "x1", "x2 + 1", "x1^2"]),
)
def test_parse_exponent_refuses_in_one_error_and_evaluates_what_it_accepts(
    tokens, wrap, depth, core
):
    # random token runs and deep wrappings: either one of the parser's two
    # errors, or a field whose values and gradients evaluate without a
    # RecursionError
    pts = np.array([[0.3, -0.7], [1.0, 2.0], [0.0, 0.0]])
    for text in ("".join(tokens), wrap[0] * depth + core + wrap[1] * depth):
        try:
            f = ExponentField(parse_exponent(text, 2), 2)
        except (ExponentSyntaxError, DimensionError):
            continue
        assert f(pts).shape == (3,)
        assert f.gradient(pts).shape == (3, 2)
