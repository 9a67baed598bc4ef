"""Span tracing of vextrace's layers, from outside the program.

While a Tracer is installed, the public entry points of each layer are
replaced by wrappers that record a span (name, start, end, parent, failed)
per call.  A name is replaced in every vextrace module namespace that holds
it (``solver.fixed_order_sum``, ``conditions.local_constant_schedule``, ...),
so calls through an imported name are seen too.  Spans stay in memory;
``write_spans`` writes them out when the run ends.

A span's self time is its duration minus the time its child spans cover.
The per-layer metrics are ``<module>.<entry>.s`` (self time, seconds) and
``<module>.<entry>.calls``, plus the work counters gathered by hooks.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from vextrace import conditions, config, exponents, geometry, halfspace, luxemburg, solver

SMALL_SUM = 256  # fixed_order_sum hands arrays up to this length to math.fsum


def _sum_size(counts, args, result):
    n = int(np.size(args[0]))
    counts["luxemburg.fixed_order_sum.elements"] += n
    counts["luxemburg.fixed_order_sum.calls_small"] += n <= SMALL_SUM


def _mesh_size(counts, args, result):
    counts["geometry.n_vertices"] += int(result.n_vertices)


def _iterations(counts, args, result):
    counts["solver.minimize.iterations"] += int(result.iterations)


DTP = solver.DiscreteTraceProblem
# (span name, owner, attribute, hook(counts, args, result) or None)
SPANNED = (
    ("config.build_problem", config.ProblemConfig, "build_problem", None),
    ("geometry.mesh_domain", geometry, "mesh_domain", _mesh_size),
    ("geometry.refine", geometry.PlanarDomain, "refine", None),
    ("geometry.submesh", geometry.PlanarDomain, "submesh", None),
    ("exponents.log_holder_probe", exponents, "log_holder_probe", None),
    ("luxemburg.fixed_order_sum", luxemburg, "fixed_order_sum", _sum_size),
    ("luxemburg.norm", luxemburg, "_norm_from_arrays", None),
    ("solver.assemble", DTP, "__init__", None),
    ("solver.sobolev_norm", DTP, "sobolev_norm", None),
    ("solver.boundary_norm", DTP, "boundary_norm", None),
    ("solver.sobolev_norm_gradient", DTP, "sobolev_norm_gradient", None),
    ("solver.boundary_norm_gradient", DTP, "boundary_norm_gradient", None),
    ("solver.rayleigh_quotient", solver, "rayleigh_quotient", None),
    ("solver.minimize", solver, "minimize", _iterations),
    ("solver.bubble_init", solver, "bubble_init", None),
    ("solver.concentration_diagnostic", solver, "concentration_diagnostic", None),
    ("solver.local_constant_schedule", solver, "local_constant_schedule", None),
    ("halfspace.sharp_constant_formula", halfspace, "sharp_constant_formula", None),
    ("halfspace.sharp_constant_quadrature", halfspace, "sharp_constant_quadrature", None),
    ("halfspace.expansion_coefficients", halfspace, "expansion_coefficients", None),
    ("halfspace.norm_expansion_check", halfspace, "norm_expansion_check", None),
    ("conditions.localized_constant_estimate", conditions, "localized_constant_estimate", None),
    ("conditions.global_condition", conditions, "global_condition", None),
    ("conditions.local_condition", conditions, "local_condition", None),
    ("conditions.compactness_rate_check", conditions, "compactness_rate_check", None),
    ("conditions.existence_verdict", conditions, "existence_verdict", None),
)
# counted without a span: too many calls to time one by one
COUNTED = (("luxemburg.modular_evals", luxemburg, "_modular_value"),)


class Tracer:
    """Spans and counters of one traced repetition."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, failed)
        self.counts = Counter()
        self._stack = []

    def _spanned(self, name, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            failed = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, failed)
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def _counted(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self):
        """Patch every entry point for the duration of the block."""
        modules = [m for k, m in sys.modules.items() if k == "vextrace" or k.startswith("vextrace.")]
        saved = []
        wrappers = [(owner, attr, self._spanned(name, vars(owner)[attr], hook))
                    for name, owner, attr, hook in SPANNED]
        wrappers += [(owner, attr, self._counted(name, vars(owner)[attr]))
                     for name, owner, attr in COUNTED]
        try:
            for owner, attr, wrapper in wrappers:
                original = vars(owner)[attr]
                holders = [owner] if isinstance(owner, type) else modules
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            saved.append((holder, key, value))
                            setattr(holder, key, wrapper)
            yield self
        finally:
            for holder, key, value in reversed(saved):
                setattr(holder, key, value)

    def layer_metrics(self):
        """Self time, calls and failures per span name, plus the counters."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = Counter()
        for i, (name, start, end, _, failed) in enumerate(self.spans):
            out[f"{name}.s"] += (end - start) - covered[i]
            out[f"{name}.calls"] += 1
            out[f"{name}.failed"] += failed
        out.update(self.counts)
        norms = out["luxemburg.norm.calls"]
        out["luxemburg.modular_evals_per_norm"] = out["luxemburg.modular_evals"] / norms if norms else 0.0
        return out


def is_time(metric):
    return metric.endswith(".s") or metric.endswith("_s")


def write_spans(path, tracers, origin):
    """Write every span as [rep, name index, start, end, parent, failed].

    The first line holds the field names and the span-name table; times
    are seconds from origin.
    """
    names = sorted({span[0] for tracer in tracers for span in tracer.spans})
    index = {name: i for i, name in enumerate(names)}
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(json.dumps({"fields": ["rep", "name", "start_s", "end_s", "parent", "failed"],
                             "names": names}) + "\n")
        for rep, tracer in enumerate(tracers):
            for name, start, end, parent, failed in tracer.spans:
                fh.write(f"[{rep},{index[name]},{start - origin:.7f},{end - origin:.7f},"
                         f"{parent},{int(failed)}]\n")
