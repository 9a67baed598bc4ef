#!/usr/bin/env python3
"""Trace-quotient study on the disk: subcritical vs critical exponents.

For each mesh size, minimizes the quotient and reports the estimate, the
constant-function upper bound, the gap T - T_rad to the disk's radial
constant (radial_reference.py) with its observed order in h, and (critical
case) the gap to the half-space constant.
"""

import argparse
import math
import time

import numpy as np

from radial_reference import radial_trace_constant
from vextrace.exponents import ExponentField
from vextrace.geometry import mesh_domain, unit_disk_loop
from vextrace.halfspace import sharp_constant_inverse
from vextrace.solver import DiscreteTraceProblem, minimize, rayleigh_quotient


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--h", type=float, nargs="*", default=[0.2, 0.1, 0.05])
    ap.add_argument("--p", type=float, default=1.5)
    ap.add_argument("--r", type=float, default=None,
                    help="boundary exponent; default = critical p/(2-p)")
    ap.add_argument("--max-iter", type=int, default=200)
    args = ap.parse_args()

    p = ExponentField.from_text(repr(args.p), 2)
    r_val = args.r if args.r is not None else args.p / (2.0 - args.p)
    r = ExponentField.from_text(repr(r_val), 2)
    critical = args.r is None
    k_inv = sharp_constant_inverse(2, args.p)
    label = f" (critical), K^-1 = {k_inv:.6f}" if critical else ""
    print(f"p = {args.p}, r = {r_val}{label}")
    t_rad = radial_trace_constant(args.p, r_val)
    prev = None  # (h, T - T_rad) of the previous mesh

    for h in args.h:
        t0 = time.perf_counter()
        dom = mesh_domain(unit_disk_loop(), h)
        prob = DiscreteTraceProblem(dom, p, r)
        const_q = rayleigh_quotient(np.ones(dom.n_vertices), prob)
        rep = minimize(prob, init="constant", max_iter=args.max_iter, tol=1e-7)
        line = (f"h={h:<6} nv={dom.n_vertices:<6} T={rep.t_estimate:.6f} "
                f"const={const_q:.6f} iters={rep.iterations}")
        gap = rep.t_estimate - t_rad
        line += f" T-T_rad={gap:+.3e}"
        if prev is not None and prev[1] * gap > 0:  # no order across a sign change
            line += f" order={math.log(prev[1] / gap) / math.log(prev[0] / h):.2f}"
        prev = (h, gap)
        if critical:
            line += f" T-K^-1={rep.t_estimate - k_inv:+.6f}"
        line += f"  [{time.perf_counter() - t0:.1f}s]"
        print(line)


if __name__ == "__main__":
    main()
