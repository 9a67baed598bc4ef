"""The benchmark under perfbench/ still runs on the program.

Each workload answers every operation and checks clean at seed 1, and one
traced critical-local run resolves every name the tracer wraps.  A change
that breaks a name, a signature or a return shape the benchmark uses fails
here, not only when the benchmark is next run.
"""

import math
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402
import workloads  # noqa: E402


def _unanswered(outputs):
    return {op: value.reason for op, value in outputs.items() if not workloads.answered(value)}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_answers_and_checks_clean(name):
    w = workloads.WORKLOADS[name](1)
    state = w.setup()
    outputs = w.run(state)
    assert outputs
    assert not _unanswered(outputs)
    assert not {op: msgs for op, msgs in w.check(state, outputs).items() if msgs}
    assert w.work(state, outputs)
    assert math.isfinite(w.t_estimate(outputs))


def test_critical_local_runs_under_the_tracer():
    w = workloads.WORKLOADS["critical-local"](1)
    tracer = tracing.Tracer()
    with tracer.installed():
        outputs = w.run(w.setup())
    assert not _unanswered(outputs)
    metrics = tracer.layer_metrics()
    assert metrics["halfspace.sharp_constant_quadrature.calls"] > 0
    assert metrics["luxemburg.modular_evals"] > 0
