#!/usr/bin/env python3
"""vextrace benchmark: one workload, one process, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workload's inputs are drawn from --seed.
Each repetition builds its problems afresh (timed as set-up) and then runs
the workload's batch job to completion (timed as the main phase); the loop
is closed, and repetitions continue until S seconds of set-up and main
phase have been measured.  The first repetition's answers are checked
against reference computations, and every later repetition must reproduce
its work counters exactly.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced repetitions and reports the per-layer metrics, including the
tracing overhead, and writes the spans to .bench_out/spans-NAME.jsonl.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import os

# nothing in vextrace is threaded; keep BLAS and OpenMP from starting threads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Extra set-ups between the repetitions take this share of the measured time,
# so that the set-up median, like the main-phase median, samples the whole run.
SETUP_SHARE = 0.15

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "ok_rate": "1",
    "t_estimate": "1",
}

PER_LAYER = [
    "luxemburg.modular_evals_per_norm",
    "luxemburg.modular_evals",
    "luxemburg.norm.s",
    "luxemburg.norm.calls",
    "luxemburg.fixed_order_sum.s",
    "luxemburg.fixed_order_sum.calls",
    "luxemburg.fixed_order_sum.calls_small",
    "luxemburg.fixed_order_sum.elements",
    "solver.sobolev_norm.s",
    "solver.sobolev_norm.calls",
    "solver.boundary_norm.s",
    "solver.boundary_norm.calls",
    "solver.sobolev_norm_gradient.s",
    "solver.sobolev_norm_gradient.calls",
    "solver.boundary_norm_gradient.s",
    "solver.boundary_norm_gradient.calls",
    "solver.minimize.s",
    "solver.minimize.calls",
    "solver.minimize.iterations",
    "solver.rayleigh_quotient.calls",
    "geometry.mesh_domain.s",
    "geometry.mesh_domain.calls",
    "geometry.n_vertices",
    "solver.assemble.s",
    "geometry.refine.s",
    "solver.concentration_diagnostic.s",
    "exponents.log_holder_probe.s",
    "geometry.submesh.s",
    "geometry.submesh.calls",
    "solver.local_constant_schedule.s",
    "conditions.localized_constant_estimate.s",
    "conditions.localized_constant_estimate.calls",
    "conditions.localized_constant_estimate.failed",
    "conditions.global_condition.s",
    "conditions.local_condition.s",
    "conditions.compactness_rate_check.s",
    "halfspace.sharp_constant_quadrature.s",
    "halfspace.sharp_constant_quadrature.calls",
    "halfspace.norm_expansion_check.s",
    "config.build_problem.s",
    "trace.overhead_s",
]


def per_layer_unit(metric):
    if metric.endswith("modular_evals_per_norm"):
        return "evals/norm"
    return "s" if metric.endswith(".s") or metric.endswith("_s") else "count"


def import_program():
    """Import vextrace from this checkout's src/, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import vextrace
    except ImportError as err:
        sys.exit(f"perfbench: cannot import vextrace from {SRC}: {err}")
    if Path(vextrace.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: vextrace was imported from {vextrace.__file__}, not {SRC}")


def one_rep(workload, tracer):
    """Fresh set-up, then the main phase; returns (setup_s, run_s, state, outputs)."""
    with tracer.installed() if tracer else nullcontext():
        t0 = perf_counter()
        state = workload.setup()
        t1 = perf_counter()
        outputs = workload.run(state)
        t2 = perf_counter()
    return t1 - t0, t2 - t1, state, outputs


def _tally_rep(tally, outputs, work, work0, fails0, log):
    """Count the set-up and every operation of one repetition."""
    from workloads import Failed, Refused

    setup_keys = [k for k in work0 if k not in outputs]
    tally["attempted"] += 1
    if any(work.get(k) != work0[k] for k in setup_keys):
        tally["failed"] += 1
        log("set-up work differs from the first repetition")
    for op, value in outputs.items():
        tally["attempted"] += 1
        if isinstance(value, Failed):
            tally["failed"] += 1
            log(f"{op} raised:\n{value.reason}")
        elif isinstance(value, Refused):
            tally["refused"] += 1
            log(f"{op} refused: {value.reason}")
        elif op in fails0:
            tally["failed"] += 1
        elif work.get(op) != work0.get(op):
            tally["failed"] += 1
            log(f"{op} work differs from the first repetition: {work.get(op)} != {work0.get(op)}")


def measure(workload, seconds, trace, log=lambda msg: print(msg, file=sys.stderr)):
    """Run repetitions for `seconds` of measured time; returns a summary dict."""
    from tracing import Tracer, is_time

    tally = Counter()
    setup_s, run_s, traced_run_s, layers, tracers = [], [], [], [], []
    work0, t_est = None, math.nan
    spent = extra = 0.0
    rep = 0
    # stop where the next repetition would end nearer the budget than this one
    while rep == 0 or spent + 0.5 * spent / rep < seconds or (trace and rep < 2):
        while not trace and extra < SETUP_SHARE * spent:
            t0 = perf_counter()
            workload.setup()
            setup_s.append(perf_counter() - t0)
            extra += setup_s[-1]
            spent += setup_s[-1]
        tracer = Tracer() if trace and rep % 2 else None
        try:
            t_setup, t_run, state, outputs = one_rep(workload, tracer)
        except Exception:  # a set-up that raises ends the run, counted as failed
            tally["attempted"] += 1
            tally["failed"] += 1
            log(f"set-up raised:\n{traceback.format_exc(limit=4)}")
            break
        spent += t_setup + t_run
        work = workload.work(state, outputs)
        if rep == 0:
            work0 = work
            t_est = workload.t_estimate(outputs)
            try:
                fails0 = {op: m for op, m in workload.check(state, outputs).items() if m}
            except Exception:
                fails0 = {op: [traceback.format_exc(limit=4)] for op in outputs}
            for op, msgs in fails0.items():
                log(f"{op} failed its checks: " + "; ".join(msgs))
        _tally_rep(tally, outputs, work, work0, fails0, log if rep == 0 else lambda m: None)
        if tracer is None:
            setup_s.append(t_setup)
            run_s.append(t_run)
        else:
            traced_run_s.append(t_run)
            layers.append(tracer.layer_metrics())
            tracers.append(tracer)
        del state, outputs
        rep += 1

    for layer in layers[1:]:
        tally["attempted"] += 1
        diff = sorted(k for k in set(layer) | set(layers[0])
                      if not is_time(k) and layer[k] != layers[0][k])
        if diff:
            tally["failed"] += 1
            log(f"traced counters differ between repetitions: {diff}")

    return {
        "tally": tally,
        "work": work0,
        "reps": rep,
        "setup_s": setup_s,
        "run_s": run_s,
        "traced_run_s": traced_run_s,
        "layers": layers,
        "tracers": tracers,
        "t_estimate": t_est,
    }


def end_to_end(m):
    tally = m["tally"]
    attempted = max(tally["attempted"], 1)
    t_est = m["t_estimate"]
    return {
        "setup_s": statistics.median(m["setup_s"]) if m["setup_s"] else -1.0,
        "run_s": statistics.median(m["run_s"]) if m["run_s"] else -1.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_rate": (attempted - tally["failed"] - tally["refused"]) / attempted,
        "t_estimate": t_est if math.isfinite(t_est) else -1.0,
    }


def per_layer(m):
    layers = m["layers"] or [Counter()]  # empty when the first set-up raised
    out = {k: statistics.median(layer[k] for layer in layers)
           for k in PER_LAYER if k != "trace.overhead_s"}
    traced, untraced = m["traced_run_s"], m["run_s"]
    out["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced)
                               if traced and untraced else 0.0)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_program()
    from tracing import write_spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    origin = perf_counter()
    workload = WORKLOADS[args.workload](args.seed)
    m = measure(workload, args.seconds, bool(args.trace))

    tally = m["tally"]
    metrics = per_layer(m) if args.trace else end_to_end(m)
    unit = per_layer_unit if args.trace else END_TO_END.get
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {m['reps']} repetitions, "
          f"{len(m['setup_s'])} untraced set-ups, {tally['attempted']} operations, "
          f"{tally['failed']} failed, {tally['refused']} refused")
    for name, value in metrics.items():
        print(f"#   {name:<46} {value:>14.6g} {unit(name)}")
    print("# work " + json.dumps(m["work"], sort_keys=True, default=repr))
    if args.trace:
        path = ROOT / ".bench_out" / f"spans-{args.workload}.jsonl"
        write_spans(path, m["tracers"], origin)
        print(f"# spans written to {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": tally["failed"] == 0 and m["work"] is not None,
        "attempted": max(tally["attempted"], 1),
        "failed": tally["failed"],
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
