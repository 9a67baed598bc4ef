import csv
import gc
import math
import pathlib
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from vextrace import luxemburg as lux
from vextrace.exponents import ExponentField
from vextrace.luxemburg import (
    ExponentMismatch,
    MissingGradient,
    NonFiniteModular,
    WeightedSamples,
    fixed_order_sum,
    holder_product_bound,
    luxemburg_norm,
    modular,
    verify_norm_modular_relations,
)

GOLDEN = ((math.sqrt(5.0) - 1.0) / 2.0) ** -0.5  # root of z + z^2 = 1, z = lam^-2


def atoms(values, weights, exps):
    values = np.asarray(values, dtype=float)
    n = values.size
    pts = np.zeros((n, 5))
    pts[:, 0] = np.arange(n)  # distinct points; exponents passed as arrays
    return WeightedSamples(pts, np.asarray(weights, float), values), np.asarray(exps, float)


def brentq_norm_oracle(samples, exps):
    """Independent root-finder: brentq on the modular equation, wide bracket."""
    def f(lam):
        return float(np.sum(samples.weights * (np.abs(samples.values) / lam) ** exps)) - 1.0
    return brentq(f, 1e-12, 1e30, xtol=1e-300, rtol=1e-15, maxiter=1000)


# -- fixed order sum ---------------------------------------------------------


def test_fixed_order_sum_matches_fsum():
    rng = np.random.default_rng(0)
    for n in (1, 7, 255, 256, 257, 4095, 4096, 4097, 10000):
        a = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, size=n)
        assert fixed_order_sum(a).hex() == math.fsum(a.tolist()).hex()


def test_fixed_order_sum_compensation():
    a = np.array([1.0] + [1e-16] * 20000)
    assert fixed_order_sum(a) == pytest.approx(1.0 + 2e-12, rel=1e-12)


def _uncertified_cases():
    """Arrays whose certificate refuses, so math.fsum must take over."""
    rng = np.random.default_rng(8)
    # 1 + 2^-53 is a rounding tie: the padding decides it, far below the bound
    tie = np.r_[1.0, 2.0**-53, rng.choice([1e-300, -1e-300], 2998)]
    x = rng.standard_normal(1500)
    # n max|a| passes 2^1022, while no partial sum in any order can overflow
    big = np.r_[rng.uniform(0.5, 1.0, 4) * 2.0**1021 * [1, -1, 1, -1], rng.standard_normal(596)]
    return [
        pytest.param(tie, id="near-tie-3000"),
        pytest.param(np.r_[x, -x[::-1]], id="exactly-cancelling-3000"),
        pytest.param(big, id="grid-limit-600"),
    ]


def _exact_sum_cases():
    rng = np.random.default_rng(6)
    cases = []
    # 256 and 257 sit on either side of the math.fsum / certified-sum
    # cut-over FSUM_MAX; the larger sizes are kept from earlier cut-overs
    for n in (1, 256, 257, 1024, 1025, 4097, 17_500, 70_000):
        x = rng.standard_normal(n)
        cases.append(pytest.param(x - x.mean(), id=f"cancelling-{n}"))
        cases.append(pytest.param(rng.uniform(1.5, 2.0, n), id=f"positive-{n}"))
        cases.append(pytest.param(rng.lognormal(0.0, 30.0, n), id=f"lognormal30-{n}"))
    cases.append(pytest.param(np.array([5e-324] * 3000), id="subnormal-3000"))
    for n in (10, 5000):
        for bad in (np.inf, -np.inf, np.nan):
            a = rng.random(n)
            a[n // 3] = bad
            cases.append(pytest.param(a, id=f"{bad}-{n}"))
    return cases + _uncertified_cases()


@pytest.mark.parametrize("a", _exact_sum_cases())
def test_fixed_order_sum_is_fsum_in_any_order(a):
    def same(x, y):
        return x == y or (math.isnan(x) and math.isnan(y))

    want = math.fsum(a.tolist())
    assert same(fixed_order_sum(a), want)
    assert same(fixed_order_sum(np.random.default_rng(7).permutation(a)), want)


@pytest.mark.parametrize("a", _uncertified_cases())
def test_uncertified_sums_fall_back_to_fsum(a):
    # fixed_order_sum's bits on these arrays are checked with the exact-sum cases
    assert lux._certified_sum(a) is None


@st.composite
def finite_arrays(draw):
    """257 to 4000 finite floats: random magnitudes over a drawn span of
    decades, a few drawn values (ties, subnormals, huge ones) at random
    places, and optionally half of the array negated into the other half."""
    n = draw(st.integers(257, 4000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    span = draw(st.integers(0, 30))
    a = rng.standard_normal(n) * 10.0 ** rng.integers(-span, span + 1, size=n)
    for v in draw(st.lists(st.floats(-1e300, 1e300), max_size=20)):
        a[rng.integers(n)] = v
    if draw(st.booleans()):
        a[: n // 2] = -a[n - n // 2 :]
    return a


@settings(max_examples=200, deadline=None)
@given(finite_arrays(), st.integers(0, 2**32 - 1))
def test_fixed_order_sum_is_fsum_property(a, seed):
    want = math.fsum(a.tolist()).hex()
    assert fixed_order_sum(a).hex() == want
    assert fixed_order_sum(a[::-1]).hex() == want
    assert fixed_order_sum(np.random.default_rng(seed).permutation(a)).hex() == want


def test_modular_and_derivative_sums_are_certified(monkeypatch):
    """The large sums of a norm-gradient evaluation take the fast path.

    A refused certificate still gives the right bits through math.fsum, but
    costs about 14 times as much at 8,751 terms, and no output shows it.
    """
    from vextrace.config import ProblemConfig

    cfg = pathlib.Path(__file__).resolve().parents[1] / "configs" / "disk_subcritical.cfg"
    problem = ProblemConfig.from_path(cfg).build_problem()
    x, y = problem.domain.vertices.T
    u = 1.0 + 0.5 * x + 0.25 * y**2
    vals, gmag, _, _ = problem.interior_fields(u)
    av, w, exps = np.abs(vals), problem.quad_weights, problem.p_exps
    assert av.size > lux.FSUM_MAX
    certified = []
    real = lux._certified_sum

    def recording(a):
        certified.append(real(a))
        return certified[-1]

    monkeypatch.setattr(lux, "_certified_sum", recording)
    lam, tv, tg, shift, D = lux._norm_from_arrays(av, w, exps, gmag)
    monkeypatch.undo()
    assert lam == problem.sobolev_norm(u)
    # every modular and slope sum of the root was certified, D the last one
    assert certified and None not in certified
    assert D == certified[-1]
    # the terms at the root, their exps * weights and D
    terms = tv * shift + tg * shift
    assert lux._certified_sum(terms) is not None
    weights = lux._certified_sum(exps * terms)
    assert weights is not None
    assert weights == pytest.approx(D, rel=1e-15)


BIG = 2.0**1023  # two of these overflow a partial sum


@pytest.mark.parametrize(
    "terms, total",
    [
        ([BIG, BIG, -BIG, -BIG], 0.0),
        ([BIG, BIG, -BIG, -BIG] + [1.0] * 400, 400.0),
        ([BIG, BIG, -BIG, -BIG] + [1.0] * 400 + [0.5], 400.5),
        ([BIG, BIG, -BIG], BIG),
        ([BIG, BIG, BIG, -BIG], math.inf),
        ([-BIG, -BIG, -BIG, BIG] + [1.0] * 400, -math.inf),
    ],
    ids=["cancelling-4", "cancelling-404", "cancelling-405", "in-range", "over", "under-404"],
)
def test_overflowing_partial_sums_do_not_depend_on_order(terms, total):
    # the total is exact, or +-inf beyond the float range, in every order
    a = np.array(terms)
    rng = np.random.default_rng(5)
    for order in [a, a[::-1], np.r_[a[1::2], a[::2]]] + [rng.permutation(a) for _ in range(8)]:
        assert fixed_order_sum(order) == total


@pytest.mark.parametrize("n", [2, 2000])
def test_overflowing_sum_is_infinite_and_modular_raises(n):
    assert fixed_order_sum(np.full(n, 1e308)) == math.inf
    assert fixed_order_sum(np.full(n, -1e308)) == -math.inf
    assert math.isnan(fixed_order_sum(np.r_[np.inf, -np.inf, np.ones(n)]))
    u, p = atoms(np.full(n, 1e308), np.ones(n), np.ones(n))
    with pytest.raises(NonFiniteModular):
        modular(u, p)


# -- modular -----------------------------------------------------------------


def test_modular_unit_mass():
    u, p = atoms([1.0], [1.0], [2.0])
    assert modular(u, p) == 1.0


def test_modular_cube():
    u, p = atoms([2.0], [1.0], [3.0])
    assert modular(u, p) == 8.0


def test_modular_two_exponents():
    u, p = atoms([1.0, 1.0], [1.0, 1.0], [2.0, 4.0])
    assert modular(u, p) == 2.0


def test_modular_missing_gradient():
    u, p = atoms([1.0], [1.0], [2.0])
    with pytest.raises(MissingGradient):
        modular(u, p, kind="sobolev")


def test_sobolev_modular():
    pts = np.zeros((2, 2))
    g = np.array([[3.0, 4.0], [0.0, 0.0]])  # |grad| = 5, 0
    u = WeightedSamples(pts, [1.0, 1.0], [1.0, 2.0], g)
    val = modular(u, np.array([2.0, 2.0]), kind="sobolev")
    assert val == pytest.approx(1.0 + 4.0 + 25.0, rel=1e-15)


# -- norm --------------------------------------------------------------------


def test_norm_constant_exponent_closed_form():
    u, p = atoms([2.0], [1.0], [3.0])
    assert luxemburg_norm(u, p) == pytest.approx(2.0, rel=1e-12)
    u2, p2 = atoms([2.0, 2.0], [0.5, 2.5], [3.0, 3.0])
    # |c|_q = c * m^(1/q) with total mass m = 3
    assert luxemburg_norm(u2, p2) == pytest.approx(2.0 * 3.0 ** (1 / 3), rel=1e-12)


def test_norm_golden_ratio_fixture():
    u, p = atoms([1.0, 1.0], [1.0, 1.0], [2.0, 4.0])
    lam = luxemburg_norm(u, p)
    assert lam == pytest.approx(GOLDEN, abs=1e-12)
    assert lam == pytest.approx(brentq_norm_oracle(u, p), abs=1e-12)


def test_norm_zero_function():
    u, p = atoms([0.0, 0.0], [1.0, 1.0], [2.0, 4.0])
    assert luxemburg_norm(u, p) == 0.0


def test_norm_overflow_policy():
    u, p = atoms([1e210, 2e210], [1.0, 1.0], [2.0, 4.0])
    small, _ = atoms([1.0, 2.0], [1.0, 1.0], [2.0, 4.0])
    big = luxemburg_norm(u, p)
    assert math.isfinite(big)
    assert big == pytest.approx(1e210 * luxemburg_norm(small, p), rel=1e-11)


def test_norm_non_finite_rejected():
    u, p = atoms([np.inf, 1.0], [1.0, 1.0], [2.0, 2.0])
    with pytest.raises(NonFiniteModular):
        luxemburg_norm(u, p)


def test_norm_beyond_float_range_raises():
    # two unit-weight atoms of 1e308 with p = 1 have norm 2e308
    u, p = atoms([1e308, 1e308], [1.0, 1.0], [1.0, 1.0])
    with pytest.raises(NonFiniteModular):
        luxemburg_norm(u, p)
    with pytest.raises(NonFiniteModular):
        modular(u, p)


def test_norm_with_field_exponent():
    field = ExponentField.from_text("2 + 2*x1", 5)
    pts = np.zeros((2, 5))
    pts[1, 0] = 1.0  # exponents 2 and 4
    u = WeightedSamples(pts, [1.0, 1.0], [1.0, 1.0])
    assert luxemburg_norm(u, field) == pytest.approx(GOLDEN, abs=1e-12)


def _spread_exponents():
    rng = np.random.default_rng(3)
    n = 1000
    return atoms(rng.uniform(0.01, 1.0, n), rng.uniform(1e-4, 1e-2, n),
                 np.linspace(1.05, 10.0, n))


@pytest.mark.parametrize(
    "u, p",
    [atoms([1.0, 1.0], [1e-30, 1e-30], [1.1, 4.0]),
     atoms([1.0, 1.0], [1e30, 1e30], [1.1, 4.0]),
     _spread_exponents()],
    ids=["weights-1e-30", "weights-1e30", "spread-p"],
)
def test_norm_wide_bracket_matches_oracle_in_few_evaluations(monkeypatch, u, p):
    calls = []
    counted = lux._modular_value

    def counting(*args):
        calls.append(1)
        return counted(*args)

    monkeypatch.setattr(lux, "_modular_value", counting)
    lam = luxemburg_norm(u, p)
    assert lam == pytest.approx(brentq_norm_oracle(u, p), rel=1e-13)
    # Newton on the log-modular takes 3 to 5; Newton on modular - 1 makes
    # linear progress on tiny weights, and bisection needs several times more
    assert len(calls) <= 8


def _count_calls(monkeypatch, owner, name, counts):
    inner = getattr(owner, name)

    def counting(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


def test_constant_exponent_norm_is_the_closed_form_in_two_evaluations(monkeypatch):
    rng = np.random.default_rng(9)
    n, p = 300, 2.7
    av, gmag = rng.uniform(0.0, 3.0, n), rng.uniform(0.0, 5.0, n)
    w = rng.uniform(1e-4, 1e-2, n)
    counts = {}
    _count_calls(monkeypatch, lux, "_modular_value", counts)
    lam = lux._norm_from_arrays(av, w, np.full(n, p), gmag)[0]
    # the first Newton step from the unit scale is the closed form, and the
    # second evaluation only confirms it
    assert counts["_modular_value"] == 2
    with mpmath.workdps(50):
        total = mpmath.fsum(mpmath.mpf(wi) * (mpmath.mpf(ai) ** mpmath.mpf(p)
                                              + mpmath.mpf(gi) ** mpmath.mpf(p))
                            for wi, ai, gi in zip(w, av, gmag))
        closed = float(total ** (1 / mpmath.mpf(p)))
    assert lam == pytest.approx(closed, rel=1e-15)


def test_variable_exponent_descent_takes_few_evaluations_per_norm(monkeypatch):
    from vextrace import solver
    from vextrace.config import ProblemConfig

    text = ("[domain]\narc = 0.0 0.0 1.0 0.0 6.283185307179586\nh = 0.1\ngamma =\n"
            "[exponents]\nn = 2\np_expr = 1.5 + 0.100473*x2\nr_expr = 2 + 0.236037*x1\n")
    problem = ProblemConfig.from_text(text).build_problem()
    counts = {}
    _count_calls(monkeypatch, lux, "_modular_value", counts)
    _count_calls(monkeypatch, solver, "_norm_from_arrays", counts)
    solver.minimize(problem, init="constant", max_iter=150, tol=1e-6)
    # about 2.6 here: from the second evaluation on, each root starts near
    # its norm; about 4 from the unit scale, and a bracketing root-finder
    # needs about 10
    assert counts["_modular_value"] <= 3 * counts["_norm_from_arrays"]


def test_norm_on_extreme_weights_matches_a_50_digit_root():
    rng = np.random.default_rng(12)
    with mpmath.workdps(50):
        for _ in range(100):
            av = rng.uniform(0.01, 1.0, 5)
            w = 10.0 ** rng.uniform(-300.0, 300.0, 5)
            exps = rng.uniform(1.05, 10.0, 5)
            lam = lux._norm_from_arrays(av, w, exps, None)[0]
            atoms_mp = [tuple(map(mpmath.mpf, t)) for t in zip(w, av, exps)]

            def log_modular(s):
                return mpmath.log(mpmath.fsum(wi * (ai * mpmath.exp(-s)) ** pi
                                              for wi, ai, pi in atoms_mp))

            root = mpmath.exp(mpmath.findroot(log_modular, mpmath.log(lam)))
            assert abs(lam / root - 1) <= 1e-15, (av, w, exps)


def _start_cases():
    rng = np.random.default_rng(21)
    n = 300
    cases = [(rng.uniform(0.0, 3.0, n), rng.uniform(1e-4, 1e-2, n),
              rng.uniform(1.1, 1.9, n), rng.uniform(0.0, 5.0, n))]
    zeros = rng.uniform(0.0, 1.0, n)
    zeros[::3] = 0.0
    cases.append((zeros, rng.uniform(1e-4, 1e-2, n), rng.uniform(1.1, 4.0, n), None))
    for u, p in (atoms([1.0, 1.0], [1e-30, 1e-30], [1.1, 4.0]),
                 atoms([1.0, 1.0], [1e30, 1e30], [1.1, 4.0]),
                 _spread_exponents()):
        cases.append((np.abs(u.values), u.weights, p, None))
    extreme = np.random.default_rng(12)
    for _ in range(20):
        cases.append((extreme.uniform(0.01, 1.0, 5), 10.0 ** extreme.uniform(-300.0, 300.0, 5),
                      extreme.uniform(1.05, 10.0, 5), None))
    return cases


def test_norm_with_any_start_is_the_norm_without_one():
    for av, w, exps, gmag in _start_cases():
        lam = lux._norm_from_arrays(av, w, exps, gmag)[0]
        starts = [lam * f for f in (1e-300, 1e-8, 1e-3, 1.0, 1.001, 1e8, 1e300)]
        for start in starts + [0.0, -1.0, math.inf, math.nan]:
            moved = lux._norm_from_arrays(av, w, exps, gmag, start=start)[0]
            assert 0.0 < moved < math.inf
            assert abs(moved / lam - 1.0) <= 1e-15, (start, lam, moved)


def test_norm_terms_give_the_root_and_its_slope():
    rng = np.random.default_rng(22)
    n = 300
    av, gmag = rng.uniform(0.0, 3.0, n), rng.uniform(0.0, 5.0, n)
    av[:10] = gmag[:10] = 0.0
    w, exps = rng.uniform(1e-4, 1e-2, n), rng.uniform(1.1, 1.9, n)
    for start in (None, 0.9 * lux._norm_from_arrays(av, w, exps, gmag)[0]):
        lam, tv, tg, shift, D = lux._norm_from_arrays(av, w, exps, gmag, start)
        tv, tg = tv * shift, tg * shift
        assert np.array_equal(tv[:10], np.zeros(10)) and np.array_equal(tg[:10], np.zeros(10))
        assert tv == pytest.approx(w * (av / lam) ** exps, rel=1e-14)
        assert tg == pytest.approx(w * (gmag / lam) ** exps, rel=1e-14)
        assert fixed_order_sum(tv + tg) == pytest.approx(1.0, rel=1e-14)
        assert D == pytest.approx(fixed_order_sum(exps * (tv + tg)), rel=1e-15)
    assert lux._norm_from_arrays(np.zeros(3), np.ones(3), np.full(3, 2.0),
                                 None) == (0.0, None, None, 1.0, 0.0)


def test_norm_leaves_no_garbage_behind():
    # arrays caught in a reference cycle (a closure handed to a root-finder)
    # wait for the cyclic collector, about 0.3 MB per norm at this size
    rng = np.random.default_rng(5)
    n = 20000
    av, gmag = rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 2.0, n)
    w, exps = rng.uniform(1e-5, 1e-4, n), rng.uniform(1.2, 3.0, n)
    lux._norm_from_arrays(av, w, exps, gmag)
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(50):
            lux._norm_from_arrays(av, w, exps, gmag)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    assert kept < 1e6


# -- properties --------------------------------------------------------------


@st.composite
def random_samples(draw):
    n = draw(st.integers(2, 40))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
    w = rng.uniform(0.05, 2.0, n)
    p = rng.uniform(1.1, 4.0, n)
    return atoms(vals, w, p)


@settings(max_examples=150, deadline=None)
@given(random_samples(), st.floats(1e-3, 1e3))
def test_homogeneity(sample, c):
    u, p = sample
    base = luxemburg_norm(u, p)
    scaled = luxemburg_norm(u.scaled(c), p)
    assert scaled == pytest.approx(c * base, rel=1e-10, abs=1e-300)


@settings(max_examples=150, deadline=None)
@given(random_samples(), st.integers(-1074, 1023))
def test_a_start_never_loses_the_norm(sample, k):
    u, p = sample
    av = np.abs(u.values)
    lam = lux._norm_from_arrays(av, u.weights, p, None)[0]
    moved = lux._norm_from_arrays(av, u.weights, p, None, start=lam * math.ldexp(1.0, k))[0]
    if lam == 0.0:
        assert moved == 0.0
    else:
        assert abs(moved / lam - 1.0) <= 1e-15


@settings(max_examples=150, deadline=None)
@given(random_samples())
def test_unit_ball_characterization(sample):
    u, p = sample
    lam = luxemburg_norm(u, p)
    if lam == 0.0:
        return
    val = float(np.sum(u.weights * (np.abs(u.values) / lam) ** p))
    assert val == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(random_samples())
def test_modular_monotone_in_scale(sample):
    u, p = sample
    if np.all(u.values == 0):
        return
    lams = np.geomspace(0.1, 10.0, 12)
    vals = [float(np.sum(u.weights * (np.abs(u.values) / lam) ** p)) for lam in lams]
    assert all(a > b for a, b in zip(vals, vals[1:]))


@settings(max_examples=100, deadline=None)
@given(random_samples(), random_samples().map(lambda s: s[0]))
def test_triangle_inequality(sample, other):
    u, p = sample
    if other.values.size != u.values.size:
        return
    v = WeightedSamples(u.points, u.weights, other.values)
    s = WeightedSamples(u.points, u.weights, u.values + other.values)
    lhs = luxemburg_norm(s, p)
    rhs = luxemburg_norm(u, p) + luxemburg_norm(v, p)
    assert lhs <= rhs + 1e-9 * max(1.0, rhs)


def test_norm_to_zero_implies_modular_to_zero():
    u, p = atoms([3.0, -1.0, 2.0], [1.0, 0.5, 0.2], [1.5, 2.5, 3.5])
    norms, mods = [], []
    for k in range(16):
        uk = u.scaled(2.0**-k)
        norms.append(luxemburg_norm(uk, p))
        mods.append(modular(uk, p))
    assert norms[-1] < 1e-3 and mods[-1] < 1e-4
    assert all(a > b for a, b in zip(mods, mods[1:]))
    assert all(a > b for a, b in zip(norms, norms[1:]))


def test_norm_to_infinity_implies_modular_to_infinity():
    u, p = atoms([3.0, -1.0, 2.0], [1.0, 0.5, 0.2], [1.5, 2.5, 3.5])
    mods = [modular(u.scaled(2.0**k), p) for k in range(8)]
    assert all(b > a for a, b in zip(mods, mods[1:]))
    assert mods[-1] > 1e6


# -- relations report --------------------------------------------------------


def test_relations_unit_norm_case():
    u, p = atoms([1.0], [1.0], [2.7])
    checks = verify_norm_modular_relations(u, p)
    by_name = {c.name: c for c in checks}
    assert by_name["unit_ball_modular"].passed
    assert by_name["sign_agreement"].passed


def test_relations_large_norm_case():
    u, p = atoms([2.0, 2.0], [0.5, 0.5], [2.0, 4.0])
    lam = luxemburg_norm(u, p)
    oracle = brentq_norm_oracle(u, p)
    assert lam == pytest.approx(oracle, rel=1e-11)
    rho = modular(u, p)
    assert 4.0 <= rho <= 16.0
    assert rho ** (1 / 4) <= lam <= rho ** (1 / 2)
    checks = verify_norm_modular_relations(u, p)
    assert all(c.passed for c in checks)


def test_relations_small_norm_case():
    u, p = atoms([0.5, 0.5], [0.5, 0.5], [2.0, 4.0])
    lam = luxemburg_norm(u, p)
    assert lam == pytest.approx(brentq_norm_oracle(u, p), rel=1e-11)
    rho = modular(u, p)
    assert lam ** 4.0 - 1e-12 <= rho <= lam ** 2.0 + 1e-12
    checks = verify_norm_modular_relations(u, p)
    assert all(c.passed for c in checks)


def test_relations_beyond_the_float_range():
    # a modular that overflows is NonFiniteModular; a power bound beyond the
    # float range is +inf and holds, though the modular is finite
    u, p = atoms([1e160, 1e160], [1.0, 1.0], [2.0, 2.0])
    with pytest.raises(NonFiniteModular):
        verify_norm_modular_relations(u, p)
    u, p = atoms([1e150, 1.0], [1.0, 1.0], [2.0, 4.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        checks = verify_norm_modular_relations(u, p)
    assert all(c.passed for c in checks)
    assert {c.name: c for c in checks}["norm_gt1_upper"].slack == math.inf


@settings(max_examples=150, deadline=None)
@given(random_samples())
def test_relations_random(sample):
    u, p = sample
    checks = verify_norm_modular_relations(u, p)
    for c in checks:
        assert c.passed, c


# -- Holder ------------------------------------------------------------------


def test_holder_constants_saturate():
    pts = np.zeros((1, 2))
    f = WeightedSamples(pts, [1.0], [1.0])
    g = WeightedSamples(pts, [1.0], [1.0])
    lhs, rhs, _ = holder_product_bound(f, g, np.array([2.0]), np.array([2.0]))
    assert lhs == pytest.approx(1.0, rel=1e-12)
    assert rhs == pytest.approx(1.0, rel=1e-12)


def test_holder_scaling():
    pts = np.zeros((1, 2))
    f = WeightedSamples(pts, [1.0], [2.0])
    g = WeightedSamples(pts, [1.0], [1.0])
    lhs, rhs, _ = holder_product_bound(f, g, np.array([2.0]), np.array([2.0]))
    assert lhs == pytest.approx(2.0, rel=1e-12)
    assert rhs == pytest.approx(2.0, rel=1e-12)


def test_holder_random_hundred_atoms():
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1, 1, size=(100, 2))
    w = rng.uniform(0.01, 1.0, 100)
    f = WeightedSamples(pts, w, rng.standard_normal(100))
    g = WeightedSamples(pts, w, rng.standard_normal(100))
    p = np.full(100, 2.5)
    q = np.full(100, 5.0 / 3.0)
    lhs, rhs, s = holder_product_bound(f, g, p, q)
    np.testing.assert_allclose(s, 1.0)
    assert lhs <= rhs * (1 + 1e-12)


def test_holder_exponent_mismatch():
    pts = np.zeros((1, 2))
    f = WeightedSamples(pts, [1.0], [1.0])
    with pytest.raises(ExponentMismatch):
        holder_product_bound(f, f, np.array([1.5]), np.array([1.5]))


# -- serialization -----------------------------------------------------------


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1, 1, (7, 2))
    u = WeightedSamples(pts, rng.uniform(0.1, 1, 7), rng.standard_normal(7),
                        rng.standard_normal((7, 2)))
    # the columnar layout the norm subcommand reads: x1..xN, weight, value, g1..gN
    path = tmp_path / "samples.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "x2", "weight", "value", "g1", "g2"])
        for row in np.column_stack([u.points, u.weights, u.values, u.gradient_values]):
            writer.writerow([repr(float(x)) for x in row])
    back = WeightedSamples.from_csv(path)
    np.testing.assert_array_equal(back.points, u.points)
    np.testing.assert_array_equal(back.weights, u.weights)
    np.testing.assert_array_equal(back.values, u.values)
    np.testing.assert_array_equal(back.gradient_values, u.gradient_values)


def test_weighted_samples_validation():
    with pytest.raises(ValueError):
        WeightedSamples(np.zeros((2, 2)), [1.0, -1.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        WeightedSamples(np.zeros((2, 2)), [1.0], [0.0, 0.0])
