#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, written as one BENCH_*.json.

    python3 scripts/bench_pairs.py PARENT CHANGE --out BENCH.json \\
        --claim "solve-variable run_s" --what "one line on the change"

PARENT and CHANGE are checkouts of the two commits (a clone, or an unpacked
`git archive`).  For every workload the script runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

once in each checkout per pair, one run at a time, and alternates which
side goes first from pair to pair, for 10 pairs; then one `--trace 1` run
per side gives the per-layer counters.  The workloads and the run length T
are the parent's `BENCHMARK.json` (`workloads`, `run_seconds`), so both
sides run under the benchmark's own rules; `--workloads` picks a subset.
Every run gets PYTHONDONTWRITEBYTECODE=1, so neither side's `peak_rss_mb`
depends on bytecode left in its checkout.

`--seed` may be given more than once (a held-out check, say): every
workload then runs its pairs and traced runs at each seed in turn, and the
JSON holds one summary per seed.

The JSON holds the parent's revision, the machine (with numpy's SIMD
baseline and the dispatch targets it enables, which fix the bits of its
exp and power loops), the command, a summary
per seed, workload and end-to-end metric (`summary[seed][workload]`),
every run's result, and the traced results.  A metric's summary holds the
quartiles of each side (inclusive method), its direction (`better`, from
the parent's `BENCHMARK.json` `end_to_end` list), how many pairs the
change read better in that direction or tied, and whether the gap between
the medians exceeds the parent's interquartile spread: a claimed gain
needs both nine wins in ten pairs and that gap.  Standard library only.
At 30-s runs, 10 pairs on the three workloads take about 40 minutes per
seed on two cores.
"""

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
from importlib import metadata

PAIRS = 10
SIDES = ("parent", "change")


def run_once(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def revision(checkout):
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=checkout,
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


# asked of a child interpreter, so this script imports only the standard library
DISPATCH_QUERY = (
    "from numpy._core import _multiarray_umath as m; "
    "print(' '.join(m.__cpu_baseline__)); "
    "print(' '.join(t for t in m.__cpu_dispatch__ if m.__cpu_features__.get(t)))"
)


def numpy_dispatch():
    """numpy's SIMD baseline and enabled dispatch targets, as one phrase."""
    try:
        out = subprocess.run([sys.executable, "-c", DISPATCH_QUERY], capture_output=True,
                             text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return "numpy SIMD dispatch unknown"
    baseline, targets = (out.splitlines() + ["", ""])[:2]
    return f"numpy SIMD baseline {baseline or 'none'} + dispatch {targets or 'none'}"


def machine():
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    versions = ", ".join(f"{pkg} {metadata.version(pkg)}" for pkg in ("numpy", "scipy"))
    return (f"{os.cpu_count()}-vCPU {cpu}, Python {platform.python_version()}, {versions}, "
            f"{numpy_dispatch()}; "
            "parent and change each run from their own checkout, one run at a time, "
            "alternating which side runs first in each pair")


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3, "n": len(values)}


def summarize(runs, seed, workload, better):
    """Per metric: quartiles, wins in the direction better[name], ties, and
    whether the medians differ by more than the parent's quartile spread."""
    by_side = {side: [r["result"]["metrics"] for r in runs
                      if (r["seed"], r["workload"], r["side"]) == (seed, workload, side)]
               for side in SIDES}
    summary = {}
    for name in by_side["parent"][0]:
        vals = {side: [m[name]["value"] for m in by_side[side]] for side in SIDES}
        pairs = list(zip(vals["parent"], vals["change"]))
        sign = 1.0 if better[name] == "higher" else -1.0
        parent, change = quartiles(vals["parent"]), quartiles(vals["change"])
        summary[name] = {
            "better": better[name],
            "parent": parent,
            "change": change,
            "pairs_change_better": sum(sign * (c - p) > 0 for p, c in pairs),
            "pairs_tied": sum(c == p for p, c in pairs),
            "median_gap_exceeds_parent_iqr":
                abs(change["median"] - parent["median"]) > parent["q3"] - parent["q1"],
        }
    return summary


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=pathlib.Path)
    ap.add_argument("change", type=pathlib.Path)
    ap.add_argument("--out", type=pathlib.Path, required=True)
    ap.add_argument("--workloads", help="comma-separated subset of the benchmark's workloads")
    ap.add_argument("--seed", type=int, action="append",
                    help="workload seed, repeatable (default 1)")
    ap.add_argument("--claim", default="")
    ap.add_argument("--what", default="")
    args = ap.parse_args()
    seeds = args.seed or [1]
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])

    runs, traced = [], []
    for seed in seeds:
        for workload in workloads:
            for pair in range(PAIRS):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    result = run_once(checkouts[side], workload, seed, seconds, 0)
                    runs.append({"workload": workload, "seed": seed, "side": side,
                                 "pair": pair, "result": result})
                    print(f"seed {seed} {workload} pair {pair} {side}: "
                          f"run_s {result['metrics']['run_s']['value']:.4f}", file=sys.stderr)
            for side in SIDES:
                result = run_once(checkouts[side], workload, seed, seconds, 1)
                traced.append({"workload": workload, "seed": seed, "side": side,
                               "result": result})

    report = {
        "what": args.what,
        "parent": revision(checkouts["parent"]),
        "command": (f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} "
                    f"--trace 0 (end to end), then --trace 1 (per layer), "
                    f"for S in {', '.join(map(str, seeds))}"),
        "machine": machine(),
        "claim": args.claim,
        "summary": {str(seed): {w: summarize(runs, seed, w, better) for w in workloads}
                    for seed in seeds},
        "runs": runs,
        "traced": traced,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for seed, by_workload in report["summary"].items():
        for workload, metrics in by_workload.items():
            for name, s in metrics.items():
                print(f"seed {seed} {workload:15s} {name:12s} "
                      f"parent {s['parent']['median']:.6g} change {s['change']['median']:.6g} "
                      f"better ({s['better']}) in {s['pairs_change_better']}/{s['parent']['n']}, "
                      f"median gap > parent IQR: {s['median_gap_exceeds_parent_iqr']}")


if __name__ == "__main__":
    main()
