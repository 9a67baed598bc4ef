#!/usr/bin/env python3
"""Write one line per mesh of a fixed family, to compare two checkouts.

    python3 scripts/mesh_census.py OUTFILE

The family is the meshes of the shipped configs with a [domain] section,
each followed by its one-level refine(), the benchmark workloads' domains
at seeds 1-3 (built from perfbench/workloads.py), and six test domains over
a ladder of mesh sizes.  Each line gives the mesh's name, its vertex and
triangle counts, a sha256 over the vertices, the triangles in canonical
order (each row rotated to start at its smallest vertex, the rows sorted),
the boundary edges, their arc ids and their gamma marks, then the mesh's
own mesh_size() and volume(), a sha256 over its interior quadrature points
and weights, and a sha256 over the CSR arrays (data, indices, indptr, each
with its dtype) of its P1 operators S, Gx, Gy and Sb; a mesh that fails
gives its error instead.  The canonical order is taken here, so two
checkouts whose triangles differ only in order give the same mesh digest
(though not the same quadrature and operator digests, which follow the
triangles), and the script imports vextrace from this checkout's src/:

    python3 scripts/mesh_census.py /tmp/before.txt   # in the old checkout
    python3 scripts/mesh_census.py /tmp/after.txt    # in the new checkout
    diff /tmp/before.txt /tmp/after.txt

The lines also go to stdout, after a header line.
"""

import argparse
import hashlib
import math
import pathlib
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from vextrace.config import ProblemConfig  # noqa: E402
from vextrace.geometry import (  # noqa: E402
    BoundaryLoop,
    CircularArc,
    Segment,
    mesh_domain,
    polygon_loop,
    unit_disk_loop,
)

SEEDS = (1, 2, 3)
HS = (0.5, 0.3, 0.2, 0.15, 0.1, 0.05, 0.03)
TEST_DOMAINS = {
    "disk": (unit_disk_loop(), (), 1.0),
    "square-gamma": (polygon_loop([(0, 0), (1, 0), (1, 1), (0, 1)]), (3,), 1.0),
    "l-shape": (polygon_loop([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]), (), 1.0),
    "half-disk": (BoundaryLoop((Segment((-1.0, 0.0), (1.0, 0.0)),
                                CircularArc((0.0, 0.0), 1.0, 0.0, math.pi))), (0,), 1.0),
    "comb": (polygon_loop([(0, 0), (3, 0), (3, 2), (2.5, 2), (2.5, 0.5), (2, 0.5), (2, 2),
                           (1, 2), (1, 1), (0.5, 1.5), (0, 1)]), (), 1.0),
    "small-disk": (unit_disk_loop(radius=0.05), (), 0.05),
}


def canonical(triangles):
    t = np.asarray(triangles, dtype=np.int64)
    t = np.take_along_axis(t, (np.argmin(t, axis=1)[:, None] + np.arange(3)) % 3, axis=1)
    return t[np.lexsort(t.T[::-1])]


def census_line(name, build):
    try:
        dom = build()
    except Exception as err:  # an error is part of the census
        return f"{name} error {type(err).__name__}: {err}"
    digest = hashlib.sha256()
    for arr in (np.asarray(dom.vertices, dtype="<f8"), canonical(dom.triangles),
                np.asarray(dom.boundary_edges, dtype="<i8"), np.asarray(dom.edge_arc, dtype="<i8"),
                np.asarray(dom.gamma_edges, dtype=np.uint8)):
        digest.update(np.ascontiguousarray(arr).tobytes())
    pts, weights, *interior_ops = dom.interior_quadrature()
    quadrature = hashlib.sha256()
    for arr in (pts, weights):
        quadrature.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    operators = hashlib.sha256()
    for op in (*interior_ops, dom.boundary_quadrature()[2]):
        for arr in (op.data, op.indices, op.indptr):
            operators.update(arr.dtype.str.encode())
            operators.update(np.ascontiguousarray(arr).tobytes())
    return (f"{name} nv={len(dom.vertices)} nt={len(dom.triangles)} sha256={digest.hexdigest()}"
            f" h={dom.mesh_size()!r} volume={dom.volume()!r} iq={quadrature.hexdigest()}"
            f" ops={operators.hexdigest()}")


def family():
    """(name, builder) for every mesh of the census, in a fixed order."""
    for path in sorted((ROOT / "configs").glob("*.cfg")):
        cfg = ProblemConfig.from_path(path)
        if "domain" in cfg.sections:
            yield f"config/{path.stem}", cfg.build_domain
            yield (f"config/{path.stem}/refine1",
                   lambda build=cfg.build_domain: build().refine()[0])
    for seed in SEEDS:
        texts = {"solve-variable": workloads.SolveVariable(seed).config}
        for key, (text, _) in workloads.MeshFine(seed).domains.items():
            texts[f"mesh-fine/{key}"] = text
        for h, text in workloads.CriticalLocal(seed).configs.items():
            texts[f"critical-local/h{h}"] = text
        for key, text in texts.items():
            yield f"bench-seed{seed}/{key}", ProblemConfig.from_text(text).build_domain
    for key, (loop, gamma, scale) in TEST_DOMAINS.items():
        for h in HS:
            yield (f"test/{key}/h{h * scale!r}",
                   lambda loop=loop, h=h * scale, gamma=gamma: mesh_domain(loop, h, gamma))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("outfile", type=pathlib.Path)
    args = ap.parse_args()
    print("mesh nv nt sha256 h volume iq ops")
    with open(args.outfile, "w") as out:
        for name, build in family():
            line = census_line(name, build)
            out.write(line + "\n")
            print(line, flush=True)


if __name__ == "__main__":
    main()
