#!/usr/bin/env python3
"""Run every shipped CLI run in process and write what each one printed.

Each run gets one file OUTDIR/<name>.txt holding its exit code, its stdout
and its stderr.  The runs import vextrace from this checkout's src/, so
running the script from two checkouts and comparing the directories with
`diff -r` checks that a change leaves every shipped output byte-identical:

    python3 scripts/shipped_outputs.py /tmp/before   # in the old checkout
    python3 scripts/shipped_outputs.py /tmp/after    # in the new checkout
    diff -r /tmp/before /tmp/after

Byte identity holds on one machine with one numpy build: numpy's power and
exp dispatch to different SIMD kernels by CPU and build, and those move
the last bits of T, so compare directories written on the same machine
with the same numpy.
"""

import argparse
import contextlib
import io
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from vextrace.cli import run  # noqa: E402

RUNS = {
    "norm": ["--config", "configs/golden_norm.cfg", "norm"],
    "constants-N2-p1.5": ["constants", "--N", "2", "--p", "1.5"],
    "constants-N3-p2": ["constants", "--N", "3", "--p", "2"],
    "constants-N7-p1.0005": ["constants", "--N", "7", "--p", "1.0005"],
    "constants-N5-p1.5-coefficients":
        ["constants", "--N", "5", "--p", "1.5", "--dtf0", "0.2", "--dttp0", "0.3",
         "--lap_y_p0", "0.1", "--lap_r0", "-0.5", "--H", "0.5", "--hbar", "0.5"],
    "solve-disk_subcritical": ["--config", "configs/disk_subcritical.cfg", "solve"],
    "solve-disk_subcritical-multistart":
        ["--config", "configs/disk_subcritical.cfg", "--seed", "11",
         "solve", "--init", "multistart"],
    "solve-square_gamma": ["--config", "configs/square_gamma.cfg", "solve"],
    "solve-square_gamma-multistart":
        ["--config", "configs/square_gamma.cfg", "--seed", "11",
         "solve", "--init", "multistart"],
    "conditions": ["--config", "configs/disk_critical.cfg", "conditions"],
    "solve-disk_variable": ["--config", "configs/disk_variable.cfg", "solve"],
    "conditions-disk_variable": ["--config", "configs/disk_variable.cfg", "conditions"],
    "expand": ["--config", "configs/expand_disk.cfg", "expand"],
    "expand-flat": ["--config", "configs/expand_flat.cfg", "expand"],
    "constants-halfspace": ["--config", "configs/halfspace.cfg", "constants"],
    "conditions-disk_compact": ["--config", "configs/disk_compact.cfg", "conditions"],
    "conditions-lshape_critical": ["--config", "configs/lshape_critical.cfg", "conditions"],
    "solve-disk_subcritical-flags":
        ["--config", "configs/disk_subcritical.cfg", "solve", "--init", "bubble 1 0 0.3",
         "--max-iter", "40", "--tol", "1e-7", "--radii", "0.2,0.6"],
    "solve-disk_critical-multistart":
        ["--config", "configs/disk_critical.cfg", "--seed", "11",
         "solve", "--init", "multistart", "--max-iter", "40"],
    "conditions-lshape_multistart":
        ["--config", "configs/lshape_multistart.cfg", "--seed", "11", "conditions"],
}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("outdir", type=pathlib.Path)
    args = ap.parse_args()
    outdir = args.outdir.resolve()
    outdir.mkdir(parents=True, exist_ok=True)
    os.chdir(ROOT)  # the configs name their files relative to the checkout
    for name, argv in RUNS.items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        (outdir / f"{name}.txt").write_text(
            f"$ vextrace {' '.join(argv)}\nexit {code}\n"
            f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
        )
        print(f"{name}: exit {code}")


if __name__ == "__main__":
    main()
