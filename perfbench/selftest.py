#!/usr/bin/env python3
"""Self-tests of the benchmark harness (about a minute).

    python3 perfbench/selftest.py

Checks that corrupted answers count as failed operations, that two traced
runs give identical counters and agree with the untraced repetitions, and
that BENCHMARK.json names exactly the metrics the harness reports.  Prints
one line per test and exits with 1 if any fails.
"""

import dataclasses
import json
import sys

import run

run.import_program()

import tracing  # noqa: E402
import workloads  # noqa: E402

RESULTS = []


def expect(name, ok, detail=""):
    RESULTS.append(ok)
    print(f"{'ok  ' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""), flush=True)


class Replay:
    """A workload that hands the harness fixed outputs of another one."""

    def __init__(self, inner, state, outputs):
        self.inner, self.state, self.outputs = inner, state, outputs

    def setup(self):
        return self.state

    def run(self, state):
        return self.outputs

    def __getattr__(self, attr):
        return getattr(self.inner, attr)


def corrupted_answers():
    w = workloads.SolveVariable(0)
    problem = w.setup()
    outputs = w.run(problem)
    rep = outputs["minimize"]
    hist = list(rep.quotient_history)
    hist[-1] = hist[-2] * (1.0 + 1e-12)
    cases = {
        "clean": outputs,
        "T*(1+1e-6)": {**outputs, "minimize": dataclasses.replace(
            rep, t_estimate=rep.t_estimate * (1.0 + 1e-6))},
        "non-monotone history": {**outputs, "minimize": dataclasses.replace(
            rep, quotient_history=hist)},
    }
    for label, case in cases.items():
        m = run.measure(Replay(w, problem, case), 0.0, False, log=lambda msg: None)
        failed = m["tally"]["failed"]
        expect(f"{label} result counts {'no' if label == 'clean' else 'a'} failure",
               (failed == 0) if label == "clean" else (failed >= 1), f"{failed} failed")


def traced_counters():
    w = workloads.CriticalLocal(0)
    runs = [run.measure(w, 0.0, True, log=lambda msg: None) for _ in range(2)]
    for i, m in enumerate(runs):
        expect(f"traced run {i + 1} matches the untraced repetition", m["tally"]["failed"] == 0,
               f"{m['tally']['failed']} failed of {m['tally']['attempted']}")
    a, b = (m["layers"][0] for m in runs)
    diff = sorted(k for k in set(a) | set(b) if not tracing.is_time(k) and a[k] != b[k])
    expect("two traced runs give identical counters", not diff, ", ".join(diff))
    expect("the known ZeroTrace shows as a failed localized constant",
           a["conditions.localized_constant_estimate.failed"] == 1)


def benchmark_json():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    expect("BENCHMARK.json end_to_end matches the harness",
           {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END)
    expect("BENCHMARK.json per_layer matches the harness",
           {m["name"]: m["unit"] for m in spec["per_layer"]}
           == {k: run.per_layer_unit(k) for k in run.PER_LAYER})
    expect("BENCHMARK.json workloads match the harness",
           [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS))


if __name__ == "__main__":
    benchmark_json()
    corrupted_answers()
    traced_counters()
    sys.exit(0 if all(RESULTS) else 1)
