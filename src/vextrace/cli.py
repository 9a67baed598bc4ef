"""Command-line entry point.

Subcommands: norm, constants, solve, conditions, expand.  JSON goes to
stdout (or --out), a short human summary to stderr.  The JSON is strict:
a non-finite float is written as null, never as NaN or Infinity.  Reports
embed the tool version and a hash of the config (or of the flag set).
Runs are deterministic for a fixed config and --seed: nothing is
threaded, and modular, measure and quadrature sums are exact (equal to
``math.fsum``), so they depend on no summation order, numpy build or CPU.
--threads is accepted for interface compatibility and changes nothing.
Every setting is a key of the config.SETTINGS table; a flag beats the
config, and the config beats the table default.

Exit codes: 0 success (every verdict satisfied); 1 an input mistake (bad
config or flag, argparse usage errors included, a config section or key
the table does not list, a fraction in an integer key, [exponents] n
other than 2, [solver] n_random below 0, [conditions] checks empty or
naming an unknown check, a bubble init with a non-finite number or
lam <= 0, a [norm] kind other than lebesgue or sobolev, sobolev samples
without gradient columns, a samples_csv that is not a samples CSV, a
config or samples_csv path that is missing, unreadable or a directory, a
compactness s, r0 or K set out of range, C <= 0 or phi_n < 1, a solve
radius ([solver] radii or --radii) that is not finite and > 0, --seed
below 0 or --threads below 1, an exponent that is nan or infinite at a
sample point, a domain whose boundary nodes all carry the zero
condition, a malformed [domain] (a zero-length segment, an arc over one
turn, a loop without positive area), a local check off the critical set,
a global check with a zero set, an expansion coefficient outside its
hypothesis, a half-space constant outside 1 < p < N, an expand N, model,
H, weight or eps the model domains cannot take (a disk needs H > 0, the
flat model H = 0, the weight f0 + dtf0 t > 0), samples whose modular or
norm overflows, a start whose trace vanishes), reported in one line on
stderr; 2 a violated verdict; 3 an indeterminate verdict or an expansion
fit too unstable to give a slope.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .conditions import GammaNotEmpty, NotCritical
from .config import EXPANSION_INPUTS, FLAGS, ConfigError, ProblemConfig, hash_of_args
from .geometry import CornerError, GeometryError
from .halfspace import DomainError, FitUnstable, HypothesisViolation
from .luxemburg import NonFiniteModular, WeightedSamples, luxemburg_norm, modular
from .solver import ZeroTrace

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VIOLATED = 2
EXIT_INDETERMINATE = 3


def _null_non_finite(obj):
    """obj as plain JSON values: numpy scalars and arrays become Python
    ones, and every nan and +-inf float becomes None (JSON null)."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {k: _null_non_finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_null_non_finite(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _emit(payload, args, summary_lines):
    # allow_nan=False: strict JSON, so a non-finite float that slips past
    # _null_non_finite is an error, never NaN or Infinity in the report
    text = json.dumps(_null_non_finite(payload), sort_keys=True, indent=2, allow_nan=False)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    for line in summary_lines:
        print(line, file=sys.stderr)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(x)) for x in row])


def _base_payload(command, config_hash, seed=None):
    payload = {"version": __version__, "command": command, "config_hash": config_hash}
    if seed is not None:
        payload["seed"] = int(seed)
    return payload


def _require_config(args):
    if not args.config:
        raise ConfigError("--config is required for this subcommand")
    return ProblemConfig.from_path(args.config)


# -- subcommands ----------------------------------------------------------------


def cmd_norm(args):
    cfg = _require_config(args)
    s = cfg.settings("norm")
    path, kind = s["samples_csv"], s["kind"]
    from .exponents import ExponentField

    try:
        p = ExponentField.from_text(s["p_expr"], s["n"])
    except ValueError as err:
        raise ConfigError(f"[norm]: {err}")
    try:
        samples = WeightedSamples.from_csv(path)
    except ValueError as err:
        raise ConfigError(f"[norm] samples_csv {path}: {err}")
    try:
        value = luxemburg_norm(samples, p, kind=kind)
        rho = modular(samples, p, kind=kind)
    except ValueError as err:  # an unknown kind, or sobolev without gradient columns
        raise ConfigError(f"[norm] {err}")
    payload = _base_payload("norm", cfg.config_hash)
    payload.update({"norm": value, "modular": rho, "kind": kind,
                    "n_samples": int(samples.values.size)})
    _emit(payload, args, [f"luxemburg norm = {value!r} (modular {rho!r})"])
    return EXIT_OK


def cmd_constants(args):
    from .halfspace import (
        expansion_coefficients,
        sharp_constant_formula,
        sharp_constant_quadrature,
    )

    cfg = ProblemConfig.from_path(args.config) if args.config else ProblemConfig.from_text("")
    s = cfg.settings("halfspace", vars(args))
    n, p = s["N"], s["p"]
    if n is None or p is None:
        raise ConfigError("constants needs --N and --p (or a [halfspace] section)")
    inputs = {k: s[k] for k in EXPANSION_INPUTS}
    config_hash = cfg.config_hash if args.config else hash_of_args(
        f"constants N={n} p={p} " + " ".join(f"{k}={v}" for k, v in sorted(inputs.items()))
    )

    formula = sharp_constant_formula(n, p)
    k_inv, _ = sharp_constant_quadrature(n, p)
    recon_gap = abs(formula - (1.0 / k_inv) ** p) / formula
    coeffs = expansion_coefficients(n, p, **inputs)
    payload = _base_payload("constants", config_hash)
    payload.update(
        {
            "N": n,
            "p": p,
            "formula_value": formula,
            "quadrature_K_inv": k_inv,
            "reconciliation": {
                "formula_vs_quotient_pth_power_relative_gap": recon_gap,
                "consistent": bool(recon_gap < 1e-6),
            },
            "discrepancy_note": (
                "the Gamma-function formula value equals the p-th power of the "
                "reciprocal quadrature quotient; the closed form "
                "formula^(-1/p) is K^-1 and the quadrature quotient is its "
                "independent check; both are reported"
            ),
            "coefficients": {
                k: getattr(coeffs, k)
                for k in ("c0", "a0", "a1", "d0", "d1", "d2", "d3", "d4")
            },
            "coefficient_skipped": coeffs.skipped,
            "inputs": inputs,
        }
    )
    lines = [
        f"K(N,p) formula value        : {formula!r}",
        f"K^-1 by quadrature          : {k_inv!r}",
        f"reconciliation formula~K^-p : gap {recon_gap:.3g}",
    ]
    _emit(payload, args, lines)
    return EXIT_OK


def cmd_solve(args):
    cfg = _require_config(args)
    opts = cfg.settings("solver", vars(args))
    problem = cfg.build_problem()

    from .solver import concentration_diagnostic, minimize, solve_problem

    run_opts = dict(max_iter=opts["max_iter"], tol=opts["tol"], seed=args.seed)
    if opts["init"] == "multistart":
        report = solve_problem(problem, n_random=opts["n_random"], **run_opts)
    else:
        report = minimize(problem, init=opts["init"], **run_opts)
    if opts["radii"]:
        report.concentration = concentration_diagnostic(report.minimizer, problem, opts["radii"])

    payload = _base_payload("solve", cfg.config_hash, seed=args.seed)
    rep = report.to_dict()
    payload.update(rep)
    del payload["quotient_history"]
    payload["quotient_history_first"] = rep["quotient_history"][0]
    payload["quotient_history_len"] = len(rep["quotient_history"])

    if args.out:
        base = os.path.splitext(args.out)[0]
        _write_csv(
            base + "_history.csv",
            ["iteration", "quotient"],
            list(enumerate(rep["quotient_history"])),
        )
        dom = problem.domain
        _write_csv(
            base + "_minimizer.csv",
            ["x1", "x2", "value"],
            [
                (dom.vertices[i, 0], dom.vertices[i, 1], report.minimizer[i])
                for i in range(dom.n_vertices)
            ],
        )
        payload["minimizer_csv"] = base + "_minimizer.csv"
        payload["history_csv"] = base + "_history.csv"
    lines = [
        f"T estimate = {report.t_estimate!r} after {report.iterations} iterations "
        f"({report.n_evaluations} evaluations), stopped by {report.stop_reason}",
    ]
    if not report.converged:
        lines.append(
            f"warning: the descent did not converge (stop reason {report.stop_reason}); "
            "T is an upper bound on the discrete constant"
        )
    if report.concentration:
        lines.append(
            f"concentrated={report.concentration.concentrated} "
            f"atom={report.concentration.atom_location}"
        )
    _emit(payload, args, lines)
    return EXIT_OK


def cmd_conditions(args):
    cfg = _require_config(args)
    from .conditions import (
        Estimate,
        LogPower,
        compactness_rate_check,
        existence_verdict,
        global_condition,
        local_condition,
        smallest_localized_constant,
    )

    problem = cfg.build_problem()
    domain = problem.domain
    p, r = problem.p_field, problem.r_field
    cond = cfg.settings("conditions")
    verdicts = []

    t_bar = t_bar_report = None
    if any(c in ("global", "existence") for c in cond["checks"]):
        if len(problem.critical_points):
            t_bar, prov = smallest_localized_constant(problem)
        else:  # compact regime: no critical points
            t_bar = Estimate(float("inf"), 0.0)
            prov = {"method": "no_critical_points", "argmin": None, "n_sampled": 0}
        t_bar_report = {"value": t_bar.value, "error": t_bar.error,
                        **{k: prov[k] for k in ("method", "argmin", "n_sampled",
                                                "critical_corners") if k in prov}}

    for check in cond["checks"]:
        if check == "global":
            verdicts.append(global_condition(domain, p, r, t_bar))
        elif check == "local":
            x0 = cond["x0"]
            if len(x0) != 2:
                raise ConfigError("[conditions] x0 = x y required for the local check")
            verdicts.append(local_condition(domain, p, r, x0))
        elif check == "existence":
            opts = cfg.settings("solver")
            from .solver import minimize

            rep = minimize(problem, init="constant", max_iter=opts["max_iter"],
                           tol=opts["tol"], seed=args.seed)
            t_err = max(opts["tol"] * rep.t_estimate, 1e-4 * rep.t_estimate)
            verdicts.append(
                existence_verdict(Estimate(rep.t_estimate, t_err), t_bar)
            )
        elif check == "compactness":
            k_pts, k_arcs = cond["K_points"], cond["K_arcs"]
            if k_pts:
                if len(k_pts) % 2:
                    raise ConfigError(
                        f"[conditions] K_points: expected x y pairs, got {len(k_pts)} numbers"
                    )
                K = np.asarray(k_pts, float).reshape(-1, 2)
            elif k_arcs:
                K = k_arcs
            else:
                raise ConfigError("[conditions] K_points or K_arcs required")
            try:
                verdicts.append(
                    compactness_rate_check(
                        domain, p, r, K,
                        s=cond["s"], C=cond["C"], r0=cond["r0"], phi=LogPower(cond["phi_n"]),
                    )
                )
            except ValueError as err:  # s, C, r0, phi_n or a K arc index out of range
                raise ConfigError(f"[conditions] {err}")

    payload = _base_payload("conditions", cfg.config_hash, seed=args.seed)
    payload["t_bar"] = t_bar_report
    payload["verdicts"] = [asdict(v) for v in verdicts]
    lines = [
        f"{v.name}: {'satisfied' if v.satisfied else 'indeterminate' if v.satisfied is None else 'violated'}"
        f" (lhs={v.lhs:.6g}, rhs={v.rhs:.6g})"
        for v in verdicts
    ]
    _emit(payload, args, lines)
    outcomes = [v.satisfied for v in verdicts]
    if any(o is False for o in outcomes):
        return EXIT_VIOLATED
    if any(o is None for o in outcomes):
        return EXIT_INDETERMINATE
    return EXIT_OK


def cmd_expand(args):
    cfg = _require_config(args)
    from .halfspace import expansion_coefficients, norm_expansion_check

    e = cfg.settings("expand")
    model = e["model"]
    inputs = {k: e[k] for k in EXPANSION_INPUTS if k in e}
    if inputs["H"] is None:  # the model's own curvature
        inputs["H"] = 1.0 if model == "disk" else 0.0
    coeffs = expansion_coefficients(
        e["N"], e["p"], hbar=inputs["H"], enforce_hypotheses=False, **inputs,
    )
    fit = norm_expansion_check(e["N"], e["p"], coeffs, e["epsilons"], model=model)
    payload = _base_payload("expand", cfg.config_hash)
    payload.update(
        {
            "case": fit.case,
            "model": model,
            "epsilons": list(fit.epsilons),
            "fitted_slope": fit.fitted_slope,
            "predicted_slope": fit.predicted_slope,
            "residual": fit.residual,
        }
    )
    if args.out:
        base = os.path.splitext(args.out)[0]
        _write_csv(
            base + "_series.csv",
            ["eps", "sobolev_norm", "gradient_modular", "defect"],
            list(zip(fit.epsilons, fit.sobolev_norms, fit.gradient_modulars, fit.defects)),
        )
        payload["series_csv"] = base + "_series.csv"
    _emit(
        payload, args,
        [f"{fit.case}: fitted {fit.fitted_slope:+.4f} vs predicted {fit.predicted_slope:+.4f}"],
    )
    return EXIT_OK


# -- entry ------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage mistakes are config errors (exit 1, one line), not argparse's exit 2."""

    def error(self, message):
        raise ConfigError(message)


def build_parser():
    ap = _Parser(
        prog="vextrace",
        description="variable-exponent Sobolev trace constants: Luxemburg "
        "norms, sharp half-space constants, trace-quotient minimization, "
        "and existence-condition checks",
    )
    ap.add_argument("--config", help="problem config file")
    ap.add_argument("--out", help="write the JSON report here (CSV side files share the stem)")
    ap.add_argument("--seed", type=int, default=0, help="seed for random initializations")
    ap.add_argument(
        "--threads", type=int, default=1,
        help="accepted for compatibility; nothing is threaded, so it changes nothing",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("norm", help="Luxemburg norm of a samples CSV (config [norm])")

    c = sub.add_parser("constants", help="sharp constant by formula and quadrature")
    s = sub.add_parser("solve", help="minimize the trace quotient (config problem)")
    helps = {"init": "constant | random | multistart | 'bubble x y lam'",
             "radii": "comma-separated diagnostic radii"}
    for parser, section in ((c, "halfspace"), (s, "solver")):
        for key, flag in FLAGS[section].items():
            parser.add_argument(flag, dest=key, help=helps.get(key))

    sub.add_parser("conditions", help="evaluate existence conditions (config [conditions])")
    sub.add_parser("expand", help="cutoff-extremal norm expansion fit (config [expand])")
    return ap


def run(argv=None):
    handlers = {
        "norm": cmd_norm,
        "constants": cmd_constants,
        "solve": cmd_solve,
        "conditions": cmd_conditions,
        "expand": cmd_expand,
    }
    try:
        # usage mistakes raise ConfigError out of parse_args
        args = build_parser().parse_args(argv)
        if args.threads < 1:
            raise ConfigError("--threads must be >= 1")
        if args.seed < 0:
            raise ConfigError("--seed must be >= 0")
        return handlers[args.command](args)
    except (ConfigError, OSError) as err:  # a missing, unreadable or directory path too
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (GeometryError, CornerError, NotCritical, GammaNotEmpty, HypothesisViolation,
            DomainError, NonFiniteModular, ZeroTrace) as err:
        print(f"input error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except FitUnstable as err:
        print(f"indeterminate: {err}", file=sys.stderr)
        return EXIT_INDETERMINATE


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
