#!/usr/bin/env python3
"""Tabulate the sharp half-space trace constant over a grid of (N, p).

Prints the Gamma-formula value, the quadrature Rayleigh quotient of the
explicit extremal, and the reconciliation between them (the formula value
reproduces quotient^-p exactly).
"""

import argparse

from vextrace.halfspace import sharp_constant_formula, sharp_constant_quadrature


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dims", type=int, nargs="*", default=[2, 3, 4, 5, 7])
    args = ap.parse_args()

    print(f"{'N':>3} {'p':>6} {'formula':>14} {'K^-1 quad':>14} "
          f"{'(1/K^-1)^p':>14} {'rel gap':>10}")
    for n in args.dims:
        for frac in (0.25, 0.5, 0.75):
            p = 1.0 + frac * (n - 1.0)
            if not (1.0 < p < n):
                continue
            f = sharp_constant_formula(n, p)
            k_inv, _ = sharp_constant_quadrature(n, p)
            recon = (1.0 / k_inv) ** p
            gap = abs(f - recon) / f
            print(f"{n:>3} {p:>6.3f} {f:>14.8f} {k_inv:>14.8f} "
                  f"{recon:>14.8f} {gap:>10.2e}")


if __name__ == "__main__":
    main()
