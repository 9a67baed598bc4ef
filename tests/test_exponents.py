import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vextrace.exponents import (
    BinOp,
    Const,
    DimensionError,
    ExponentField,
    ExponentSyntaxError,
    Func,
    Neg,
    Pow,
    SupercriticalError,
    Var,
    critical_gap,
    local_extremum_check,
    log_holder_probe,
    parse_exponent,
    trace_critical,
)


def test_parse_constant():
    e = parse_exponent("1.5", 2)
    assert e.eval_at((0.0, 0.0)) == 1.5


def test_parse_affine():
    e = parse_exponent("1.5 + 0.1*x1", 2)
    assert e.eval_at((1.0, 0.0)) == pytest.approx(1.6, abs=1e-15)


def test_parse_quadratic_vertex():
    e = parse_exponent("2 - 0.5*(x1^2 + x2^2)", 2)
    assert e.eval_at((0.0, 0.0)) == 2.0
    assert e.eval_at((1.0, 1.0)) == pytest.approx(1.0)


def test_power_binds_tightest():
    e = parse_exponent("2*x1^2", 2)
    assert e.eval_at((3.0, 0.0)) == pytest.approx(18.0)


def test_functions_and_scientific_notation():
    e = parse_exponent("exp(x1) + log(x2) + sqrt(x1) + 1e-2", 2)
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
    roll = rng.random()
    if depth >= 4 or roll < 0.3:
        if rng.random() < 0.5:
            return Const(round(rng.uniform(0.5, 3.0), 3))
        return Var(rng.integers(0, 2))
    if roll < 0.6:
        return BinOp(rng.choice(["+", "-", "*"]), _random_expr(rng, depth + 1),
                     _random_expr(rng, depth + 1))
    if roll < 0.7:
        return BinOp("/", _random_expr(rng, depth + 1),
                     BinOp("+", Const(3.0), Pow(Var(rng.integers(0, 2)), 2.0)))
    if roll < 0.8:
        return Pow(BinOp("+", Const(2.0), Pow(Var(rng.integers(0, 2)), 2.0)),
                   round(rng.uniform(-2.0, 2.0), 2))
    if roll < 0.9:
        return Func("exp", Neg(Pow(Var(rng.integers(0, 2)), 2.0)))
    return Func("sqrt", BinOp("+", Const(1.0), Pow(Var(rng.integers(0, 2)), 2.0)))


def test_parse_print_round_trip_corpus():
    rng = np.random.default_rng(42)
    exprs = [parse_exponent(t, 2) for t in CORPUS]
    exprs += [_random_expr(rng) for _ in range(50 - len(CORPUS))]
    pts = rng.uniform(-0.9, 0.9, size=(100, 2))
    for e in exprs:
        back = parse_exponent(e.to_string(), 2)
        np.testing.assert_array_equal(e.eval(pts), back.eval(pts))


def test_symbolic_derivatives_match_finite_differences():
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.2, 0.8, size=(20, 2))
    h = 1e-6
    for text in CORPUS:
        e = parse_exponent(text, 2)
        for i in range(2):
            d = e.diff(i).eval(pts)
            shift = np.zeros(2)
            shift[i] = h
            fd = (e.eval(pts + shift) - e.eval(pts - shift)) / (2 * h)
            np.testing.assert_allclose(d, fd, rtol=1e-5, atol=1e-7)


def test_second_derivatives():
    e = parse_exponent("1.5 + (x1 - 0.5)^2 + 3*x1*x2", 2)
    H = [[e.diff(i).diff(j).eval_at((0.3, 0.4)) for j in range(2)] for i in range(2)]
    np.testing.assert_allclose(H, [[2.0, 3.0], [3.0, 0.0]], atol=1e-12)


# -- critical exponents ------------------------------------------------------


def test_trace_critical_constant_cases():
    for n, p, expected in [(2, 1.5, 3.0), (3, 2.0, 4.0), (5, 1.5, 12.0 / 7.0)]:
        f = ExponentField.from_text(repr(p), n)
        pts = np.zeros((3, n))
        np.testing.assert_allclose(trace_critical(f)(pts), expected, rtol=1e-15)


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
    p_low = trace_critical(f)(pts)
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
    # r built as the critical trace exponent of a variable p: every queried
    # point is critical with margin zero up to floating error
    p = ExponentField.from_text("1.5 + 0.2*exp(-1*(x1^2 + x2^2))", 2)
    pts = _circle_points(np.linspace(0, 2 * np.pi, 33)[:-1])
    gap = critical_gap(p, trace_critical(p), pts)
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
    text = f"{a!r} + {b!r}*x1"
    e = parse_exponent(text, 2)
    back = parse_exponent(e.to_string(), 2)
    assert e.eval_at((x, y)) == back.eval_at((x, y))
