import json
import math
import re
import subprocess
import sys

import pytest

from vextrace.cli import _null_non_finite, build_parser, run
from vextrace.conditions import smallest_localized_constant
from vextrace.config import FLAGS, SETTINGS, ConfigError, ProblemConfig

REPO = __file__.rsplit("/tests/", 1)[0]


def run_cli(*argv, cwd=REPO):
    # a hang fails its test instead of stalling the suite
    return subprocess.run(
        [sys.executable, "-m", "vextrace.cli", *argv],
        capture_output=True, text=True, cwd=cwd, timeout=120,
    )


def test_norm_golden_fixture():
    res = run_cli("--config", "configs/golden_norm.cfg", "norm")
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    golden = ((math.sqrt(5.0) - 1.0) / 2.0) ** -0.5
    assert payload["norm"] == pytest.approx(golden, abs=1e-9)
    assert payload["version"]
    assert len(payload["config_hash"]) == 64


def test_constants_3_2():
    res = run_cli("constants", "--N", "3", "--p", "2")
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    assert payload["formula_value"] == pytest.approx(0.5641896, abs=1e-6)
    assert payload["quadrature_K_inv"] == pytest.approx(1.3313354, abs=1e-6)
    assert payload["reconciliation"]["consistent"] is True
    assert "discrepancy_note" in payload
    assert payload["coefficients"]["d3"] == 0.0
    assert payload["coefficients"]["a0"] == pytest.approx(math.pi, rel=1e-6)
    assert payload["coefficient_skipped"]["c0"] == "p < sqrt(N)"


def test_constants_near_p_1_is_consistent():
    # the quotient's exponents grow like 1/(p-1); closed-form integrals
    # keep it on the closed form of K^-1
    res = run_cli("constants", "--N", "7", "--p", "1.0005")
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    assert payload["reconciliation"]["consistent"] is True
    assert payload["quadrature_K_inv"] == pytest.approx(1.00281008926, abs=1e-10)


@pytest.mark.parametrize("command, config, sides", [
    ("solve", "configs/disk_subcritical.cfg", ("_history.csv", "_minimizer.csv")),
    ("expand", "configs/expand_disk.cfg", ("_series.csv",)),
], ids=["solve", "expand"])
def test_out_side_files_sit_beside_the_report(tmp_path, command, config, sides):
    # a dot in a directory name is not an extension: the CSVs follow the report
    out_dir = tmp_path / "run.v2"
    out_dir.mkdir()
    res = run_cli("--config", config, "--out", str(out_dir / "report"), command)
    assert res.returncode == 0, res.stderr
    payload = json.loads((out_dir / "report").read_text())
    for side in sides:
        assert (out_dir / f"report{side}").is_file()
    assert [p.name for p in tmp_path.iterdir()] == ["run.v2"]
    named = [v for k, v in payload.items() if k.endswith("_csv")]
    assert sorted(named) == sorted(str(out_dir / f"report{side}") for side in sides)


def test_solve_subcritical_disk(tmp_path):
    out = tmp_path / "report.json"
    res = run_cli("--config", "configs/disk_subcritical.cfg",
                  "--out", str(out), "solve")
    assert res.returncode == 0, res.stderr
    payload = json.loads(out.read_text())
    assert payload["t_estimate"] <= 0.8557
    assert payload["concentration"]["concentrated"] is False
    hist = (tmp_path / "report_history.csv").read_text().splitlines()
    assert hist[0] == "iteration,quotient"
    quotients = [float(line.split(",")[1]) for line in hist[1:]]
    assert all(a >= b - 1e-12 for a, b in zip(quotients, quotients[1:]))
    mincsv = (tmp_path / "report_minimizer.csv").read_text().splitlines()
    assert mincsv[0] == "x1,x2,value"
    assert payload["quotient_history_len"] == len(quotients)


def test_solve_square_gamma(tmp_path):
    out = tmp_path / "sq.json"
    res = run_cli("--config", "configs/square_gamma.cfg", "--out", str(out), "solve")
    assert res.returncode == 0, res.stderr
    payload = json.loads(out.read_text())
    assert payload["t_estimate"] > 0
    assert payload["problem_flags"]["p_plus_lt_r_minus"] is True


def test_conditions_exit_codes(tmp_path):
    # unit critical disk: lhs = (pi/2)^(1/3) ~ 1.16 < 2^(1/3), so the
    # global condition, the local curvature branch, and the existence gap
    # are all satisfied: exit 0
    res = run_cli("--config", "configs/disk_critical.cfg", "conditions")
    assert res.returncode == 0, res.stderr + res.stdout
    payload = json.loads(res.stdout)
    by_name = {v["name"]: v for v in payload["verdicts"]}
    assert by_name["global_small_domain"]["satisfied"] is True
    assert by_name["global_small_domain"]["lhs"] == pytest.approx(
        (math.pi / 2.0) ** (1.0 / 3.0), rel=1e-2
    )
    assert by_name["local_conditions"]["satisfied"] is True
    assert by_name["local_conditions"]["provenance"]["branch"] == "curvature"
    assert by_name["existence_strict_gap"]["satisfied"] is True
    # T_bar is the closed-form K(2, 1.5)^-1 = 2^(1/3), with a bar of a few ulps
    t_bar = payload["t_bar"]
    assert t_bar["value"] == 1.2599210498948732 and t_bar["method"] == "halfspace"
    assert t_bar["error"] <= 1e-13 * t_bar["value"]
    assert t_bar["n_sampled"] == 16 and len(t_bar["argmin"]) == 2
    for name in ("global_small_domain", "existence_strict_gap"):
        assert by_name[name]["rhs"] == t_bar["value"]
        assert by_name[name]["provenance"]["t_bar_error"] == t_bar["error"]

    # scaled-up critical disk: the global lhs grows linearly with the
    # radius past the localized constant, so the check flips: exit 2
    base = open(REPO + "/configs/disk_critical.cfg").read()
    big = tmp_path / "big.cfg"
    big.write_text(
        base.replace("arc = 0 0 1 0", "arc = 0 0 2.2 0")
        .replace("h = 0.15", "h = 0.3")
        .replace("x0 = 1.0 0.0", "x0 = 2.2 0.0")
        .replace("checks = global local existence", "checks = global local")
    )
    res2 = run_cli("--config", str(big), "conditions")
    assert res2.returncode == 2, res2.stderr + res2.stdout
    payload2 = json.loads(res2.stdout)
    by_name2 = {v["name"]: v for v in payload2["verdicts"]}
    assert by_name2["global_small_domain"]["satisfied"] is False
    assert by_name2["local_conditions"]["satisfied"] is True


L_SHAPE_CRITICAL = """[domain]
segment = 0 0 2 0
segment = 2 0 2 1
segment = 2 1 1 1
segment = 1 1 1 2
segment = 1 2 0 2
segment = 0 2 0 0
h = 0.08
gamma =

[exponents]
n = 2
p_expr = 1.5
r_expr = 3

[conditions]
checks = existence global
"""


def test_conditions_at_critical_convex_corners_are_indeterminate(tmp_path):
    # r = 3 = p_* on the whole boundary of an L-shape: K(2, 1.5)^-1 holds at
    # its smooth points only, and a right-angle corner admits quotients
    # below 0.86, so neither check may claim "satisfied" against it (both
    # did, with T = 1.027 and lhs = 1.040): exit 3
    cfg = tmp_path / "l_shape.cfg"
    cfg.write_text(L_SHAPE_CRITICAL)
    res = run_cli("--config", str(cfg), "conditions")
    assert res.returncode == 3, res.stderr + res.stdout
    payload = json.loads(res.stdout)
    assert [v["satisfied"] for v in payload["verdicts"]] == [None, None]
    t_bar = payload["t_bar"]
    assert t_bar["value"] == 1.2599210498948732 and t_bar["error"] is None
    # the five convex corners, not the reflex one at (1, 1)
    corners = t_bar["critical_corners"]
    assert sorted(tuple(c["point"]) for c in corners) == [(0, 0), (0, 2), (1, 2), (2, 0), (2, 1)]
    assert all(c["angle"] == pytest.approx(math.pi / 2, rel=1e-12) for c in corners)


@pytest.mark.parametrize("name", ["disk_critical", "disk_compact", "lshape_critical"])
def test_conditions_t_bar_is_smallest_localized_constant(name):
    # the report's t_bar is the owner's (value, error, **provenance) as is,
    # the compact regime's +inf and the corners' infinite bar included
    res = run_cli("--config", f"configs/{name}.cfg", "conditions")
    assert res.returncode in (0, 3), res.stderr
    problem = ProblemConfig.from_path(f"{REPO}/configs/{name}.cfg").build_problem()
    t_bar, prov = smallest_localized_constant(problem)
    want = _null_non_finite({"value": t_bar.value, "error": t_bar.error, **prov})
    assert json.loads(res.stdout)["t_bar"] == json.loads(json.dumps(want))


def test_shipped_lshape_critical_reports_its_corners():
    # the shipped L-shape reaches T_bar's infinite-bar report: K(2, 1.5)^-1
    # with a null error, five right-angle corners, and both checks
    # indeterminate although their lhs clear K^-1 by far
    res = run_cli("--config", "configs/lshape_critical.cfg", "conditions")
    assert res.returncode == 3, res.stderr + res.stdout
    payload = json.loads(res.stdout)
    t_bar = payload["t_bar"]
    assert t_bar["value"] == 1.2599210498948732 and t_bar["error"] is None
    assert t_bar["method"] == "halfspace" and len(t_bar["critical_corners"]) == 5
    by_name = {v["name"]: v for v in payload["verdicts"]}
    assert by_name["global_small_domain"]["lhs"] == pytest.approx(1.040041911525952, rel=1e-12)
    assert by_name["existence_strict_gap"]["lhs"] == pytest.approx(1.0271439431382814, rel=1e-6)
    assert [v["satisfied"] for v in payload["verdicts"]] == [None, None]


def test_existence_runs_the_descent_solver_names(monkeypatch, capsys):
    # [solver] init = multistart: the existence check's T is the multistart
    # T of solve, from one solve_problem run (the constant start alone
    # stops at 1.00296 on this L-shape)
    from vextrace import solver

    argv = ["--config", f"{REPO}/configs/lshape_multistart.cfg", "--seed", "11"]
    assert run([*argv, "solve"]) == 0
    t_solve = json.loads(capsys.readouterr().out)["t_estimate"]
    calls = []
    real = solver.solve_problem

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "solve_problem", counting)
    assert run([*argv, "conditions"]) == 0
    (verdict,) = json.loads(capsys.readouterr().out)["verdicts"]
    assert len(calls) == 1 and calls[0]["seed"] == 11
    assert verdict["name"] == "existence_strict_gap" and verdict["lhs"] == t_solve
    assert t_solve < 0.93


def test_expand_subcommand(tmp_path):
    out = tmp_path / "fit.json"
    res = run_cli("--config", "configs/expand_disk.cfg", "--out", str(out), "expand")
    assert res.returncode == 0, res.stderr
    payload = json.loads(out.read_text())
    assert payload["case"] == "curvature"
    assert payload["fitted_slope"] < 0
    assert payload["predicted_slope"] < 0
    series = (tmp_path / "fit_series.csv").read_text().splitlines()
    assert series[0] == "eps,sobolev_norm,gradient_modular,defect"
    assert len(series) == 1 + len(payload["epsilons"])


def test_config_error_names_field(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[domain]\narc = 0 0 1 0 6.283185307179586\ngamma =\n")
    res = run_cli("--config", str(bad), "solve")
    assert res.returncode == 1
    assert "[domain] h" in res.stderr


def test_solve_bubble_init_flag():
    res = run_cli("--config", "configs/disk_subcritical.cfg", "solve",
                  "--init", "bubble 1 0 0.2", "--max-iter", "3")
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["init"] == "bubble(1,0;0.2)"


def test_solve_unknown_init_flag_is_config_error():
    res = run_cli("--config", "configs/disk_subcritical.cfg", "solve", "--init", "foo")
    assert res.returncode == 1
    assert res.stderr.startswith("config error: ")
    assert len(res.stderr.strip().splitlines()) == 1


# golden_pair.csv with both values 1e200: the p = 2 modular overflows to inf
HUGE_PAIR_CSV = open(f"{REPO}/configs/golden_pair.csv").read().replace(",1.0,1.0\n", ",1.0,1e200\n")
# weights and values 1e308: the p = 2 modular overflows at the unit scale itself
HUGE_WEIGHT_CSV = HUGE_PAIR_CSV.replace(",1.0,1e200\n", ",1e308,1e308\n")
# planar samples (n = 2) that a [norm] exponent or the samples check refuses
NORM_CSVS = {
    "mixed_sign.csv": "x1,x2,weight,value\n-0.5,0,1,1\n0.5,0,1,1\n",
    "one_atom.csv": "x1,x2,weight,value\n0,0,1,2\n",
    "nan_weight.csv": "x1,x2,weight,value\n0,0,nan,1\n",
    "inf_weight.csv": "x1,x2,weight,value\n0,0,inf,1\n",
    "nan_gradient.csv": "x1,x2,weight,value,g1,g2\n0,0,1,1,nan,0\n",
}
DEEP = "config error: [exponents]: expression nested deeper than 200 levels"


EXPAND_EPS = "0.08 0.056 0.04 0.028 0.02 0.014 0.01 0.007 0.005 0.0035"
CHECKS = "checks = global local existence"
DISK_ARC = "arc = 0 0 1 0 6.283185307179586"
SQUARE = "segment = 0 0 1 0\nsegment = 1 0 1 1\nsegment = 1 1 0 1\nsegment = 0 1 0 0"
COMPACT_CHECKS = "checks = global existence compactness"

# a unit square whose only piece without the zero condition is one short
# edge between zero-condition pieces: no boundary node is free
NO_FREE_BOUNDARY = """[domain]
segment = 0 0 1 0
segment = 1 0 1 1
segment = 1 1 0 1
segment = 0 1 0 0.05
segment = 0 0.05 0 0
h = 0.2
gamma = 0 1 2 3

[exponents]
n = 2
p_expr = 1.5
r_expr = 2
"""
NO_FREE_MESSAGE = "config error: problem assembly: no boundary node is free of the zero condition"


def _edited(name, *edits):
    text = open(f"{REPO}/configs/{name}").read()
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    return text


def _planar_norm(csv_name, p_expr):
    """golden_norm.cfg on one of NORM_CSVS, with n = 2 and the given p_expr."""
    return _edited("golden_norm.cfg", ("configs/golden_pair.csv", "{tmp}/" + csv_name),
                   ("n = 5", "n = 2"), ("p_expr = 2 + 2*x1", "p_expr = " + p_expr))


@pytest.mark.parametrize(
    "text, command, code, message",
    [
        (_edited("disk_critical.cfg", ("r_expr = 3", "r_expr = 2.5"),
                 ("checks = global local existence", "checks = local")),
         "conditions", 1, "NotCritical"),
        (_edited("square_gamma.cfg") + "\n[conditions]\nchecks = global\n",
         "conditions", 1, "GammaNotEmpty"),
        (_edited("expand_disk.cfg", ("H = 1.0", "H = 1.0\ndtp0 = -0.1")),
         "expand", 1, "dtp0 = 0"),
        (_edited("disk_subcritical.cfg", ("6.283185307179586", "3.0")),
         "solve", 1, "GeometryError"),
        (_edited("expand_disk.cfg", (EXPAND_EPS, "0.08 0.04")),
         "expand", 3, "indeterminate"),
        (_edited("golden_norm.cfg", ("p_expr = 2 + 2*x1", "p_expr = 2 +* x1")),
         "norm", 1, "config error: [norm]"),
        (_edited("disk_subcritical.cfg", ("h = 0.1", "h = nan")),
         "solve", 1, "config error: [domain] h: not a finite number"),
        (_edited("disk_subcritical.cfg", ("max_iter = 150", "max_iter = inf")),
         "solve", 1, "config error: [solver] max_iter: not a finite number"),
        (_edited("expand_disk.cfg", ("H = 1.0", "H = 1.0\ntruncation_R = inf")),
         "expand", 1, "config error: [expand] unknown key 'truncation_R'"),
        (_edited("disk_subcritical.cfg", ("max_iter = 150", "max_iter = 0")),
         "solve", 1, "config error: [solver] max_iter: must be at least 1"),
        (_edited("disk_subcritical.cfg", ("tol = 1e-6", "tol = 0")),
         "solve", 1, "config error: [solver] tol: must be a finite number > 0"),
        (_edited("disk_critical.cfg", ("tol = 1e-6", "tol = -1e-6")),
         "conditions", 1, "config error: [solver] tol: must be a finite number > 0"),
        (_edited("golden_norm.cfg", ("configs/golden_pair.csv", "{tmp}/huge_pair.csv"),
                 ("p_expr = 2 + 2*x1", "p_expr = 2")),
         "norm", 1, "input error: NonFiniteModular"),
        (_edited("expand_disk.cfg", (EXPAND_EPS, "0.08 0.04 0.02 0.01 0")),
         "expand", 1, "input error: DomainError: epsilons must be > 0"),
        (_edited("expand_disk.cfg", ("model = disk", "model = sphere")),
         "expand", 1, "input error: DomainError: model must be 'disk' or 'flat'"),
        (_edited("expand_disk.cfg", ("N = 2", "N = 3")),
         "expand", 1, "input error: DomainError: the model-domain check is planar"),
        (_edited("expand_disk.cfg", ("H = 1.0", "H = -1.0")),
         "expand", 1, "input error: DomainError: disk model needs H > 0"),
        (_edited("expand_flat.cfg", ("model = flat", "model = flat\nH = 0.5")),
         "expand", 1, "input error: DomainError: flat model needs H = 0, got 0.5"),
        (_edited("expand_disk.cfg", ("H = 1.0", "H = 1.0\nf0 = 0")),
         "expand", 1, "input error: DomainError: the weight f0 + dtf0*t must be > 0"),
        (_edited("expand_flat.cfg", ("dtf0 = 0.5", "dtf0 = -20")),
         "expand", 1, "input error: DomainError: the weight f0 + dtf0*t must be > 0"),
        (_edited("disk_critical.cfg", (CHECKS, "checks = compactness\nK_arcs = 0\nr0 = 0.5")),
         "conditions", 1, "config error: [conditions] need r0 in (0, 1/e)"),
        (_edited("disk_critical.cfg", (CHECKS, "checks = compactness\nK_arcs = 0\ns = 2")),
         "conditions", 1, "config error: [conditions] need 0 < s <= N-1"),
        (_edited("disk_critical.cfg", (CHECKS, "checks = compactness\nK_points = 1 0 0")),
         "conditions", 1, "config error: [conditions] K_points: expected x y pairs"),
        (_edited("disk_critical.cfg", (CHECKS, "checks = compactness\nK_arcs = 5")),
         "conditions", 1, "config error: [conditions] K arc index 5 out of range"),
        (_edited("disk_compact.cfg", (COMPACT_CHECKS, "checks = compactness\nphi_n = 0")),
         "conditions", 1, "config error: [conditions] need phi_n >= 1, got 0"),
        (_edited("disk_compact.cfg", (COMPACT_CHECKS, "checks = compactness\nphi_n = -3")),
         "conditions", 1, "config error: [conditions] need phi_n >= 1, got -3"),
        (_edited("disk_compact.cfg", (COMPACT_CHECKS, "checks = compactness\nC = 0")),
         "conditions", 1, "config error: [conditions] need C > 0"),
        (_edited("disk_subcritical.cfg", ("max_iter = 150", "max_iter = 20.7")),
         "solve", 1, "config error: [solver] max_iter: not an integer: 20.7"),
        (_edited("disk_subcritical.cfg", ("n = 2", "n = 2.5")),
         "solve", 1, "config error: [exponents] n: not an integer: 2.5"),
        (_edited("disk_subcritical.cfg", ("gamma =", "gamma = 0.5")),
         "solve", 1, "config error: [domain] gamma: not an integer: 0.5"),
        (_edited("disk_subcritical.cfg", ("n = 2", "n = 3"), ("h = 0.1", "h = 0.2")),
         "solve", 1, "config error: [exponents] n: meshes are planar, so n must be 2"),
        (_edited("golden_norm.cfg", ("kind = lebesgue", "kind = foo")),
         "norm", 1, "config error: [norm] kind must be 'lebesgue' or 'sobolev'"),
        (_edited("golden_norm.cfg", ("kind = lebesgue", "kind = sobolev")),
         "norm", 1, "config error: [norm] sobolev modular needs gradient samples"),
        (_edited("golden_norm.cfg", ("configs/golden_pair.csv", "configs/golden_norm.cfg")),
         "norm", 1, "config error: [norm] samples_csv configs/golden_norm.cfg: "),
        (_edited("golden_norm.cfg", ("configs/golden_pair.csv", "{tmp}")),
         "norm", 1, "config error: [Errno 21] Is a directory"),
        (None, "norm", 1, "config error: [Errno 21] Is a directory"),
        (_edited("disk_subcritical.cfg", ("init = constant", "init = bubble 1 0 -0.2")),
         "solve", 1, "config error: init 'bubble 1 0 -0.2': bubble needs finite x, y and lam > 0"),
        (_edited("disk_subcritical.cfg", ("init = constant", "init = bubble 1 0 nan")),
         "solve", 1, "config error: init 'bubble 1 0 nan': bubble needs finite x, y and lam > 0"),
        ("[halfspace]\nN = 2\np = 1.5\ntruncation_R = -3\n",
         "constants", 1, "config error: [halfspace] unknown key 'truncation_R'"),
        (_edited("expand_disk.cfg", ("H = 1.0", "H = 1.0\ntruncation_R = -3")),
         "expand", 1, "config error: [expand] unknown key 'truncation_R'"),
        (_edited("expand_disk.cfg", ("H = 1.0", "H = 1.0\nlap_r0 = -0.5")),
         "expand", 1, "config error: [expand] unknown key 'lap_r0'"),
        (_edited("disk_subcritical.cfg", ("radii = 0.3 1.0", "radii = -1 0")),
         "solve", 1, "config error: [solver] radii: must be finite numbers > 0"),
        (NO_FREE_BOUNDARY, "solve", 1, NO_FREE_MESSAGE),
        (NO_FREE_BOUNDARY + "\n[solver]\ninit = random\n", "solve", 1, NO_FREE_MESSAGE),
        (NO_FREE_BOUNDARY + "\n[conditions]\nchecks = existence\n",
         "conditions", 1, NO_FREE_MESSAGE),
        (_edited("disk_subcritical.cfg", ("arc = 0 0 1 0", "arc = 0 0 nan 0")),
         "solve", 1, "config error: [domain] arc: not a finite number"),
        (_edited("square_gamma.cfg", ("segment = 1 0 1 1", "segment = 1 0 1 inf")),
         "solve", 1, "config error: [domain] segment: not a finite number"),
        (_edited("disk_subcritical.cfg", ("p_expr = 1.5", "p_expr = 1.5 + 0.1*sqrt(x1)")),
         "solve", 1, "config error: problem assembly: p is nan at ("),
        (_edited("disk_subcritical.cfg", ("p_expr = 1.5", "p_expr = 1.5 + 0.1*sqrt(x1)"))
         + "\n[conditions]\nchecks = global\n",
         "conditions", 1, "config error: problem assembly: p is nan at ("),
        (_edited("disk_subcritical.cfg", ("r_expr = 2", "r_expr = 2 + sqrt(x2)")),
         "solve", 1, "config error: problem assembly: r is nan at ("),
        (_edited("golden_norm.cfg", ("p_expr = 2 + 2*x1", "p_expr = 2 + sqrt(x1 - 0.5)")),
         "norm", 1, "config error: [norm] p is nan at (0.0, 0.0, 0.0, 0.0, 0.0)"),
        (_edited("disk_subcritical.cfg", ("p_expr = 1.5", "p_expr = 1.5 + 0.01*log(x1 + 1)"),
                 ("h = 0.1", "h = 0.2")),
         "solve", 1, "config error: problem assembly: p is -inf at ("),
        (_edited("disk_critical.cfg", ("[conditions]", "[condition]"), (CHECKS, "checks = local")),
         "conditions", 1, "config error: unknown section [condition]"),
        (_edited("disk_subcritical.cfg", ("[solver]", "[solvr]")),
         "solve", 1, "config error: unknown section [solvr]"),
        (_edited("disk_subcritical.cfg", ("max_iter = 150", "max_iters = 5")),
         "solve", 1, "config error: [solver] unknown key 'max_iters'"),
        (_edited("disk_subcritical.cfg", ("tol = 1e-6", "tol = 1e-6\nsegment = 0 0 2 2")),
         "solve", 1, "config error: [solver] unknown key 'segment'"),
        (_edited("disk_subcritical.cfg", ("tol = 1e-6", "tol = 1e-6\nn_random = -2")),
         "solve", 1, "config error: [solver] n_random: must be at least 0, got -2"),
        (_edited("disk_critical.cfg", (CHECKS, "checks =")),
         "conditions", 1, "config error: [conditions] checks: must name one or more of"),
        (_edited("disk_critical.cfg", (CHECKS, "checks = global bogus")),
         "conditions", 1, "config error: [conditions] checks: must name one or more of"),
        (_edited("square_gamma.cfg", ("segment = 1 0 1 1",
                                      "segment = 1 0 1 0\nsegment = 1 0 1 1")),
         "solve", 1, "input error: GeometryError: segment from (1.0, 0.0) to (1.0, 0.0) has zero"),
        (_edited("disk_subcritical.cfg", (DISK_ARC, "arc = 0 0 1 0 12.566370614359172")),
         "solve", 1, "input error: GeometryError: an arc must sweep more than 0 and at most one"),
        (_edited("square_gamma.cfg", (SQUARE, "segment = 0 0 1 0\nsegment = 1 0 0 0"),
                 ("gamma = 3", "gamma =")),
         "solve", 1, "input error: GeometryError: boundary loop must be counterclockwise around"),
        (_edited("square_gamma.cfg", (SQUARE, "segment = 0 0 1 1\nsegment = 1 1 2 2\n"
                                              "segment = 2 2 0 0"), ("gamma = 3", "gamma =")),
         "solve", 1, "input error: GeometryError: boundary loop must be counterclockwise around"),
        (_edited("disk_subcritical.cfg", (DISK_ARC, "arc = 0 0 1e-300 0 6.283185307179586"),
                 ("h = 0.1", "h = 1e-300")),
         "solve", 1, "input error: GeometryError: boundary loop must be counterclockwise around"),
        # the vertex-count guard refuses these before any ring or lattice
        # is allocated
        (_edited("disk_subcritical.cfg", ("h = 0.1", "h = 1e-300")),
         "solve", 1, "input error: GeometryError: h = 1e-300 is too small to mesh"),
        (_edited("disk_subcritical.cfg", ("h = 0.1", "h = 1e-12")),
         "solve", 1, "input error: GeometryError: h = 1e-12 is too small to mesh"),
        (_edited("square_gamma.cfg", ("segment = 0 1 0 0", "segment = 0 1 0 1e-13\n"
                                                         "segment = 0 1e-13 0 0"),
                 ("gamma = 3", "gamma =")),
         "solve", 1, "input error: GeometryError: boundary recovery failed; refine or simplify"),
        (_edited("expand_disk.cfg", ("N = 2", "N = 400")), "expand", 1,
         "input error: DomainError: half-space integrals at N=400, p=1.3 leave the float"),
        (_edited("disk_subcritical.cfg", ("init = constant", "init = bubble 1 0 1.4e154")),
         "solve", 1, "input error: DomainError: profile powers at lam=1.4e+154, p=1.5 leave"),
        (_edited("disk_subcritical.cfg", ("p_expr = 1.5", "p_expr = 1.06"),
                 ("r_expr = 2", "r_expr = 1.1"), ("init = constant", "init = bubble 1 0 1e-20")),
         "solve", 1, "input error: DomainError: profile powers at lam=1e-20, p=1.06 leave"),
        (_edited("expand_disk.cfg", (EXPAND_EPS, EXPAND_EPS + " 1e-130")), "expand", 1,
         "input error: DomainError: cutoff-profile powers at eps=1e-130, p=1.3 leave the float"),
        (_edited("expand_disk.cfg", (EXPAND_EPS, EXPAND_EPS + " 1e-200")), "expand", 1,
         "input error: DomainError: cutoff-profile powers at eps=1e-200, p=1.3 leave the float"),
        (_edited("expand_disk.cfg", (EXPAND_EPS, EXPAND_EPS + " 1e300")), "expand", 1,
         "input error: DomainError: epsilons must be > 0 and < the cutoff radius delta = 0.1125, "
         "got 1e+300"),
        (_edited("disk_subcritical.cfg", ("p_expr = 1.5", "p_expr = 2.5")),
         "solve", 1, "config error: problem assembly: sup p = 2.5 >= N = 2"),
        (_edited("disk_subcritical.cfg", ("r_expr = 2", "r_expr = 0.5")),
         "solve", 1, "config error: problem assembly: inf r = 0.5 < 1"),
        (_edited("disk_critical.cfg", (CHECKS, "checks = local"), ("x0 = 1.0 0.0", "")),
         "conditions", 1, "config error: [conditions] x0 = x y required for the local check"),
        (_edited("disk_critical.cfg", (CHECKS, "checks = compactness")),
         "conditions", 1, "config error: [conditions] K_points or K_arcs required"),
        (_edited("disk_subcritical.cfg", ("p_expr = 1.5", "p_expr = 1.5" + " + 0*x1" * 990)),
         "solve", 1, DEEP),
        (_edited("disk_subcritical.cfg", ("p_expr = 1.5", "p_expr = 1.5" + " + 0*x1" * 3000)),
         "solve", 1, DEEP),
        (_edited("disk_subcritical.cfg", ("p_expr = 1.5", "p_expr = 1.5+0*x1" + "^1" * 3000)),
         "solve", 1, DEEP),
        (_edited("disk_subcritical.cfg", ("p_expr = 1.5", "p_expr = " + "-" * 2000 + "1.5")),
         "solve", 1, DEEP),
        (_edited("expand_disk.cfg", ("p = 1.3", "p = 1.9999999999999998")), "expand", 1,
         "input error: DomainError: half-space integrals at N=2, p=1.9999999999999998 leave"),
        (_edited("golden_norm.cfg", ("configs/golden_pair.csv", "{tmp}/huge_weight_pair.csv"),
                 ("p_expr = 2 + 2*x1", "p_expr = 2")),
         "norm", 1, "input error: NonFiniteModular: modular overflow at unit scale"),
        (_edited("golden_norm.cfg", ("p_expr = 2 + 2*x1", "p_expr = 0*x1")),
         "norm", 1, "config error: [norm] inf p = 0.0 < 1"),
        (_planar_norm("mixed_sign.csv", "x1"), "norm", 1, "config error: [norm] inf p = -0.5 < 1"),
        (_planar_norm("one_atom.csv", "-1"), "norm", 1, "config error: [norm] inf p = -1.0 < 1"),
        (_edited("golden_norm.cfg", ("p_expr = 2 + 2*x1", "p_expr = 0.5")),
         "norm", 1, "config error: [norm] inf p = 0.5 < 1"),
        (_planar_norm("nan_weight.csv", "2"), "norm", 1,
         "nan_weight.csv: weights must be finite and strictly positive"),
        (_planar_norm("inf_weight.csv", "2"), "norm", 1,
         "inf_weight.csv: weights must be finite and strictly positive"),
        (_planar_norm("nan_gradient.csv", "2"), "norm", 1,
         "nan_gradient.csv: gradient_values must be finite"),
        (_edited("expand_disk.cfg", ("H = 1.0", "H = 2")), "expand", 1,
         "input error: DomainError: epsilons must be > 0 and < the cutoff radius delta = 0.05625"),
        (_edited("expand_disk.cfg", ("H = 1.0", "H = 5")), "expand", 1,
         "input error: DomainError: epsilons must be > 0 and < the cutoff radius delta = 0.0225,"),
    ],
    ids=["not-critical", "gamma-not-empty", "hypothesis", "geometry", "fit-unstable",
         "norm-bad-p-expr", "h-nan", "max-iter-inf", "truncation-R-inf",
         "max-iter-zero", "tol-zero", "existence-tol-negative", "norm-modular-overflow",
         "expand-eps-zero", "expand-model-sphere", "expand-N-3", "expand-disk-H-negative",
         "expand-flat-H-nonzero", "expand-weight-zero", "expand-weight-negative",
         "compactness-r0", "compactness-s", "compactness-K-points-odd",
         "compactness-K-arc-range", "compactness-phi-n-zero", "compactness-phi-n-negative",
         "compactness-C-zero", "max-iter-fraction", "n-fraction", "gamma-fraction",
         "n-not-planar", "norm-kind-unknown", "norm-sobolev-without-gradients",
         "norm-not-a-samples-csv", "norm-samples-csv-directory", "config-directory",
         "init-bubble-lam-negative", "init-bubble-nan", "halfspace-truncation-R-negative",
         "expand-truncation-R-negative", "expand-lap-r0", "radii-not-positive",
         "no-free-boundary-solve", "no-free-boundary-solve-random",
         "no-free-boundary-conditions", "domain-arc-nan",
         "domain-segment-inf", "p-nan-solve", "p-nan-conditions", "r-nan-solve", "norm-p-nan",
         "p-minus-inf-solve", "unknown-section-condition", "unknown-section-solvr",
         "unknown-key-max-iters", "segment-under-solver", "n-random-negative",
         "checks-empty", "checks-unknown", "segment-zero-length", "arc-two-turns",
         "loop-digon", "loop-collinear", "disk-area-underflow", "h-1e-300", "h-1e-12",
         "square-sliver-side",
         "expand-N-400", "init-bubble-lam-overflow", "init-bubble-lam-underflow",
         "expand-eps-underflow", "expand-eps-overflow", "expand-eps-huge", "p-sup-above-2", "r-inf-below-1",
         "local-without-x0", "compactness-without-K", "p-expr-990-terms", "p-expr-3000-terms",
         "p-expr-3000-powers", "p-expr-2000-signs", "expand-p-ulp-below-N",
         "norm-unit-scale-overflow", "norm-p-zero", "norm-p-mixed-signs", "norm-p-minus-one",
         "norm-p-half", "norm-weight-nan", "norm-weight-inf", "norm-gradient-nan",
         "expand-eps-beyond-delta-H-2", "expand-eps-beyond-delta-H-5"],
)
def test_domain_errors_are_one_line_with_exit_code(tmp_path, text, command, code, message):
    (tmp_path / "huge_pair.csv").write_text(HUGE_PAIR_CSV)
    (tmp_path / "huge_weight_pair.csv").write_text(HUGE_WEIGHT_CSV)
    for name, csv_text in NORM_CSVS.items():
        (tmp_path / name).write_text(csv_text)
    cfg = tmp_path / "case.cfg"
    if text is None:  # the config path names a directory
        cfg.mkdir()
    else:
        cfg.write_text(text.replace("{tmp}", str(tmp_path)))
    res = run_cli("--config", str(cfg), command)
    assert res.returncode == code, res.stderr
    assert "Traceback" not in res.stderr
    assert len(res.stderr.strip().splitlines()) == 1
    assert message in res.stderr


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


# the compact regime: no critical point, so T_bar and the margins are infinite
COMPACT = _edited("disk_compact.cfg")
# the whole boundary is critical, and p = 1.5 + 0.1 x1 is not locally minimal
# at most of it, so K(2, p)^-1 is an upper bound only and T_bar's bar infinite
VARIABLE_CRITICAL = _edited(
    "disk_critical.cfg", ("p_expr = 1.5", "p_expr = 1.5 + 0.1*x1"),
    ("r_expr = 3", "r_expr = (1.5 + 0.1*x1)/(2 - (1.5 + 0.1*x1))"),
    (CHECKS, "checks = global existence"),
)
# p has a local max along the bottom edge at x0, so the local gates fail
LOCAL_GATE_FAILS = """[domain]
segment = 0 0 1 0
segment = 1 0 1 1
segment = 1 1 0 1
segment = 0 1 0 0
h = 0.1
gamma =

[exponents]
n = 2
p_expr = 1.3 - 0.1*(x1 - 0.5)^2 + 0.2*x2
r_expr = (1.3 - 0.1*(x1 - 0.5)^2 + 0.2*x2)/(2 - (1.3 - 0.1*(x1 - 0.5)^2 + 0.2*x2))

[conditions]
checks = local
x0 = 0.5 0.0
"""


@pytest.mark.parametrize(
    "text, argv, code",
    [
        (None, ["--config", "configs/golden_norm.cfg", "norm"], 0),
        (None, ["constants", "--N", "2", "--p", "1.5"], 0),
        (None, ["constants", "--N", "3", "--p", "2"], 0),
        (None, ["--config", "configs/disk_subcritical.cfg", "solve"], 0),
        (None, ["--config", "configs/square_gamma.cfg", "solve"], 0),
        (None, ["--config", "configs/disk_subcritical.cfg", "--seed", "11", "solve",
                "--init", "multistart"], 0),
        (None, ["--config", "configs/square_gamma.cfg", "--seed", "11", "solve",
                "--init", "multistart"], 0),
        (None, ["--config", "configs/disk_critical.cfg", "conditions"], 0),
        (None, ["--config", "configs/expand_disk.cfg", "expand"], 0),
        (COMPACT, ["conditions"], 0),
        (LOCAL_GATE_FAILS, ["conditions"], 2),
        (VARIABLE_CRITICAL, ["conditions"], 3),
    ],
    ids=["norm", "constants-2-1.5", "constants-3-2", "solve-subcritical", "solve-square",
         "solve-subcritical-multistart", "solve-square-multistart", "conditions", "expand",
         "conditions-compact", "conditions-local-gates-fail", "conditions-variable-critical"],
)
def test_stdout_is_strict_json(tmp_path, text, argv, code):
    # NaN and Infinity are not JSON: a non-finite float is written as null
    if text is not None:
        cfg = tmp_path / "case.cfg"
        cfg.write_text(text)
        argv = ["--config", str(cfg), *argv]
    res = run_cli(*argv)
    assert res.returncode == code, res.stderr
    payload = json.loads(res.stdout, parse_constant=_reject_constant)
    if text is COMPACT:
        assert payload["t_bar"] == {"value": None, "error": 0.0, "method": "no_critical_points",
                                    "argmin": None, "n_sampled": 0}
        by_name = {v["name"]: v for v in payload["verdicts"]}
        assert by_name["global_small_domain"]["rhs"] is None
        assert by_name["existence_strict_gap"]["margin"] is None
        assert by_name["compactness_rate"]["provenance"]["margin_on_set"] is None
    if text is LOCAL_GATE_FAILS:
        (v,) = payload["verdicts"]
        assert v["satisfied"] is False and v["margin"] is None
        assert payload["t_bar"] is None
    if text is VARIABLE_CRITICAL:
        assert payload["t_bar"]["method"] == "halfspace" and payload["t_bar"]["error"] is None
        assert [v["satisfied"] for v in payload["verdicts"]] == [None, None]


@pytest.mark.parametrize(
    "argv, prefix, message",
    [
        (["constants", "--N", "2", "--p", "2.5"], "input error: ", "DomainError"),
        (["--config", "configs/disk_subcritical.cfg", "solve", "--radii", "0.3,abc"],
         "config error: ", "--radii"),
        (["constants", "--N", "3", "--p", "2", "--truncation-R", "inf"],
         "config error: ", "unrecognized arguments: --truncation-R"),
        (["constants", "--N", "3", "--p", "nan"], "config error: ", "--p: not a finite number"),
        (["constants", "--N", "3", "--p", "2", "--H=-inf"],
         "config error: ", "--H: not a finite number"),
        (["--config", "configs/disk_subcritical.cfg", "solve", "--tol", "nan"],
         "config error: ", "--tol: not a finite number"),
        (["--config", "configs/disk_subcritical.cfg", "solve", "--tol", "0"],
         "config error: ", "--tol: must be a finite number > 0"),
        (["--config", "configs/disk_subcritical.cfg", "solve", "--max-iter", "0"],
         "config error: ", "--max-iter: must be at least 1"),
        (["--config", "configs/disk_subcritical.cfg", "solve", "--tol", "-1e-3"],
         "config error: ", "argument --tol: expected one argument"),
        (["constants", "--N", "3", "--p", "2", "--H", "-inf"],
         "config error: ", "argument --H: expected one argument"),
        (["--config", "configs/disk_subcritical.cfg", "solve", "--init", "bubble 1 0 -0.2"],
         "config error: ", "bubble needs finite x, y and lam > 0"),
        (["--config", "configs/disk_subcritical.cfg", "solve", "--init", "bubble 1 0 nan"],
         "config error: ", "bubble needs finite x, y and lam > 0"),
        (["constants", "--N", "2", "--p", "1.5", "--truncation-R", "-5"],
         "config error: ", "unrecognized arguments: --truncation-R"),
        (["--config", "configs/disk_subcritical.cfg", "solve", "--radii", "nan,inf"],
         "config error: ", "--radii: must be finite numbers > 0"),
        (["--config", "configs/disk_subcritical.cfg", "solve", "--radii=-1,0"],
         "config error: ", "--radii: must be finite numbers > 0"),
        (["--config", "configs/square_gamma.cfg", "solve", "--init", "bubble 0 0.5 0.01"],
         "input error: ", "ZeroTrace: iterate vanishes on the boundary quadrature"),
        (["--threads", "0", "constants", "--N", "2", "--p", "1.5"],
         "config error: ", "--threads must be >= 1"),
        (["--seed", "-1", "--config", "configs/disk_subcritical.cfg", "solve"],
         "config error: ", "--seed must be >= 0"),
        (["--seed", "-1", "--config", "configs/disk_critical.cfg", "conditions"],
         "config error: ", "--seed must be >= 0"),
        (["constants", "--N", "299", "--p", "1.5"], "input error: ",
         "DomainError: half-space integrals at N=299, p=1.5 leave the float range"),
        (["constants", "--N", "308", "--p", "1.5"], "input error: ",
         "DomainError: half-space integrals at N=308, p=1.5 leave the float range"),
        (["constants", "--N", "310", "--p", "1.5"], "input error: ",
         "DomainError: half-space integrals at N=310, p=1.5 leave the float range"),
        (["constants", "--N", "320", "--p", "1.5"], "input error: ",
         "DomainError: half-space integrals at N=320, p=1.5 leave the float range"),
        (["constants", "--N", "200", "--p", "1.01"], "input error: ",
         "DomainError: half-space integrals at N=200, p=1.01 leave the float range"),
        (["constants", "--N", "400", "--p", "1.5"], "input error: ",
         "DomainError: half-space integrals at N=400, p=1.5 leave the float range"),
        (["constants", "--N", "1e20", "--p", "1.5"], "input error: ",
         "DomainError: half-space integrals at N=100000000000000000000, p=1.5 leave the float"),
        (["constants", "--p", "1.5"], "config error: ",
         "constants needs --N and --p (or a [halfspace] section)"),
        (["--config", "configs/disk_subcritical.cfg", "solve", "--init", "bubble 0 0 0.3"],
         "input error: ", "GeometryError: x0 does not lie on the boundary"),
        (["constants", "--N", "2", "--p", "1.9999999999999998"], "input error: ",
         "DomainError: half-space integrals at N=2, p=1.9999999999999998 leave the float range"),
        (["constants", "--N", "3", "--p", "2.9999999999999996"], "input error: ",
         "DomainError: half-space integrals at N=3, p=2.9999999999999996 leave the float range"),
        (["constants", "--N", "5", "--p", "4.999999999999999"], "input error: ",
         "DomainError: half-space integrals at N=5, p=4.999999999999999 leave the float range"),
    ],
    ids=["constants-p-above-N", "solve-bad-radii", "truncation-R-inf", "p-nan", "H-minus-inf",
         "tol-nan", "tol-zero", "max-iter-zero", "tol-negative-exponent", "H-space-minus-inf",
         "init-bubble-lam-negative", "init-bubble-nan", "truncation-R-negative", "radii-nan-inf",
         "radii-not-positive", "init-bubble-zero-trace", "threads-zero", "seed-negative-solve",
         "seed-negative-conditions", "constants-integral-subnormal-299",
         "constants-integral-subnormal-308", "constants-integral-subnormal-310",
         "constants-integrals-underflow",
         "constants-integrals-underflow-near-p-1", "constants-sphere-area-overflow",
         "constants-N-1e20", "constants-without-N", "init-bubble-off-boundary",
         "constants-p-ulp-below-N-2", "constants-p-ulp-below-N-3", "constants-p-ulp-below-N-5"],
)
def test_flag_mistakes_are_one_line(argv, prefix, message):
    res = run_cli(*argv)
    assert res.returncode == 1, res.stderr
    assert res.stderr.startswith(prefix)
    assert len(res.stderr.strip().splitlines()) == 1
    assert message in res.stderr


def test_build_loop_reads_only_the_domain_section():
    # a piece outside [domain] never reaches the loop: the config is refused
    text = _edited("square_gamma.cfg")
    for extra, message in [("[notes]\nsegment = 0 0 2 2", "unknown section [notes]"),
                           ("[solver]\nsegment = 0 0 2 2", "[solver] unknown key 'segment'")]:
        with pytest.raises(ConfigError, match=re.escape(message)):
            ProblemConfig.from_text(f"{text}\n{extra}\n")
    loop = ProblemConfig.from_text(text).build_loop()
    assert [(a.start, a.end) for a in loop.arcs] == [
        ((0.0, 0.0), (1.0, 0.0)), ((1.0, 0.0), (1.0, 1.0)),
        ((1.0, 1.0), (0.0, 1.0)), ((0.0, 1.0), (0.0, 0.0)),
    ]


def test_number_lists_reject_non_finite_entries():
    cfg = ProblemConfig.from_text("[solver]\nradii = 0.3 -inf\n")
    with pytest.raises(ConfigError, match=r"\[solver\] radii: not a finite number"):
        cfg.settings("solver")


def test_every_flag_names_a_table_key():
    for command, section in (("constants", "halfspace"), ("solve", "solver")):
        assert set(FLAGS[section]) <= set(SETTINGS[section])
        for key, flag in FLAGS[section].items():
            assert getattr(build_parser().parse_args([command, flag, "1"]), key) == "1"
    assert set(FLAGS) == {"halfspace", "solver"}


def test_flag_beats_config(tmp_path):
    cfg = tmp_path / "hs.cfg"
    cfg.write_text("[halfspace]\nN = 2\np = 1.5\n")
    res = run_cli("--config", str(cfg), "constants", "--p", "1.7")
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    assert payload["p"] == 1.7 and payload["N"] == 2


def test_missing_config_is_config_error():
    res = run_cli("solve")
    assert res.returncode == 1
    assert "config" in res.stderr


def test_reproducibility_same_seed_and_threads():
    a = run_cli("--config", "configs/disk_subcritical.cfg", "--seed", "7",
                "--threads", "1", "solve")
    b = run_cli("--config", "configs/disk_subcritical.cfg", "--seed", "7",
                "--threads", "4", "solve")
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout


@pytest.mark.parametrize(
    "script, first_line",
    [
        (["constants_table.py"], "N p formula K^-1 quad (1/K^-1)^p rel gap"),
        (["disk_study.py", "--h", "0.2", "--max-iter", "20"],
         "p = 1.5, r = 3.0 (critical), K^-1 = 1.259921"),
        (["expansion_study.py"], "flat case=curvature fitted=-0.0024 predicted=+0.0000 "
                                 "residual=1.16e-02"),
        (["shipped_outputs.py", "{tmp}"], "norm: exit 0"),
        (["mesh_census.py", "{tmp}/census.txt"], "mesh nv nt sha256 h volume iq ops"),
    ],
    ids=["constants-table", "disk-study", "expansion-study", "shipped-outputs", "mesh-census"],
)
def test_scripts_run(tmp_path, script, first_line):
    args = [a.replace("{tmp}", str(tmp_path)) for a in script[1:]]
    res = subprocess.run([sys.executable, f"scripts/{script[0]}", *args],
                         capture_output=True, text=True, cwd=REPO, timeout=120)
    assert res.returncode == 0, res.stderr
    assert " ".join(res.stdout.splitlines()[0].split()) == first_line


def test_help_lists_subcommands():
    res = run_cli("--help")
    assert res.returncode == 0
    for name in ("norm", "constants", "solve", "conditions", "expand"):
        assert name in res.stdout
