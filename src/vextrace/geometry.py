"""Planar computational domains: boundary arcs, triangulation, quadrature.

Domains are bounded by a closed loop of segments and circular arcs.  Meshes
are plain P1 triangulations built from a boundary ring plus a hexagonal
interior lattice, Delaunay-connected and filtered to the polygon.  The
Delaunay triangulation is local: a unit lattice triangle whose corners are
all at least 2 spacings from the ring has an empty circumdisk of radius
spacing/sqrt(3), so it is in the triangulation and is built straight from
the lattice rows and columns, while every other triangle has its corners
within 4 spacings of a ring vertex, so qhull triangulates only that band
(_mesh_once gives the argument).  The ring's KD-tree is asked for each
lattice point's nearest ring vertex only in a window of lattice rows and
columns around each ring vertex (_ring_window), which holds every point
within 4 spacings of one.  The mesh is honestly polygonal: boundary
vertices sit on the exact arcs, edges are chords, and uniform refinement
bisects edges without re-snapping so that coarse P1 functions stay
exactly representable on refined meshes.

Each mesh owns its quadrature rule: interior_quadrature and
boundary_quadrature build the points and weights together with the P1
operators, the CSR maps from nodal values to the values at the points
(two entries a row: a side midpoint or a Gauss point reads only its edge's
two ends) and to the gradients (one row per triangle, whose constant
gradient its three midpoints share), and the trace problem only reads
them.  The interior ones are built from contiguous 1-D columns, the x and
y of each triangle's three corners, rather than (nt, 3, 2) gathers.
PlanarDomain.edges owns each mesh's edge table: a mesh from mesh_domain or
submesh starts with the table built to find its boundary, and mesh_size
and refine read it.

A FermiChart at a boundary point provides the boundary-adapted coordinates
(tangential offset y, inward normal distance t), with the exact jacobians
and the signed curvature of the underlying arc; the chart is orthogonal.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.spatial import Delaunay, cKDTree

from .luxemburg import fixed_order_sum

__all__ = [
    "Segment",
    "CircularArc",
    "BoundaryLoop",
    "PlanarDomain",
    "FermiChart",
    "GeometryError",
    "CornerError",
    "mesh_domain",
    "fermi_chart",
    "unit_disk_loop",
    "polygon_loop",
]


class GeometryError(ValueError):
    """Invalid boundary description or failed boundary recovery."""


class CornerError(ValueError):
    """Chart requested at a junction of boundary pieces."""


# ---------------------------------------------------------------------------
# Boundary arcs


@dataclass(frozen=True)
class Segment:
    start: tuple
    end: tuple

    def __post_init__(self):
        if not self.length > 0:
            raise GeometryError(f"segment from {self.start} to {self.end} has zero length")

    @property
    def length(self):
        return float(np.hypot(self.end[0] - self.start[0], self.end[1] - self.start[1]))

    def point(self, s):
        """Point at arclength s from the start."""
        a = np.asarray(self.start, float)
        b = np.asarray(self.end, float)
        return a + (np.asarray(s) / self.length)[..., None] * (b - a)

    def tangent(self, s):
        a = np.asarray(self.start, float)
        b = np.asarray(self.end, float)
        return (b - a) / self.length

    def project(self, x):
        """(arclength, distance) of the closest point to x."""
        a = np.asarray(self.start, float)
        b = np.asarray(self.end, float)
        t = float(np.clip((np.asarray(x, float) - a) @ (b - a) / self.length**2, 0.0, 1.0))
        p = a + t * (b - a)
        return t * self.length, float(np.linalg.norm(np.asarray(x, float) - p))

@dataclass(frozen=True)
class CircularArc:
    center: tuple
    radius: float
    angle_start: float
    angle_end: float  # traversed from angle_start to angle_end, at most one turn

    def __post_init__(self):
        if self.radius <= 0:
            raise GeometryError("arc radius must be positive")
        if not 0.0 < abs(self.angle_end - self.angle_start) < 2.0 * math.pi + 1e-12:
            raise GeometryError("an arc must sweep more than 0 and at most one full turn")

    @property
    def length(self):
        return abs(self.angle_end - self.angle_start) * self.radius

    def _angle(self, s):
        sign = 1.0 if self.angle_end > self.angle_start else -1.0
        return self.angle_start + sign * np.asarray(s) / self.radius

    def point(self, s):
        a = self._angle(s)
        c = np.asarray(self.center, float)
        return c + self.radius * np.stack([np.cos(a), np.sin(a)], axis=-1)

    def tangent(self, s):
        a = self._angle(s)
        sign = 1.0 if self.angle_end > self.angle_start else -1.0
        return sign * np.stack([-np.sin(a), np.cos(a)], axis=-1)

    @property
    def is_full_circle(self):
        return abs(abs(self.angle_end - self.angle_start) - 2.0 * math.pi) < 1e-12

    def project(self, x):
        """(arclength, distance) of the closest point to x."""
        c = np.asarray(self.center, float)
        v = np.asarray(x, float) - c
        theta = math.atan2(v[1], v[0])
        sign = 1.0 if self.angle_end > self.angle_start else -1.0
        span = abs(self.angle_end - self.angle_start)
        # angle offset from the start, in the traversal direction, mod 2 pi
        off = (sign * (theta - self.angle_start)) % (2.0 * math.pi)
        if off <= span:
            s = off * self.radius
        else:
            s = 0.0 if (2.0 * math.pi - off) < (off - span) else span * self.radius
        p = self.point(s)
        return float(s), float(np.linalg.norm(np.asarray(x, float) - p))

@dataclass(frozen=True)
class BoundaryLoop:
    """Closed, counterclockwise-oriented chain of arcs."""

    arcs: tuple

    def __post_init__(self):
        arcs = tuple(self.arcs)
        if not arcs:
            raise GeometryError("empty boundary")
        for a, b in zip(arcs, arcs[1:] + arcs[:1]):
            pa = a.point(a.length)
            pb = b.point(0.0)
            if np.linalg.norm(pa - pb) > 1e-9 * max(1.0, a.length):
                raise GeometryError(f"boundary not closed between {a} and {b}")
        object.__setattr__(self, "arcs", arcs)

    def polyline(self, spacing):
        """Vertices on the exact arcs with spacing <= spacing, plus arc ids."""
        pts, arc_ids = [], []
        for idx, arc in enumerate(self.arcs):
            n = max(1, int(math.ceil(arc.length / spacing)))
            s = np.linspace(0.0, arc.length, n + 1)[:-1]
            pts.append(arc.point(s))
            arc_ids.extend([idx] * n)
        return np.concatenate(pts, axis=0), np.asarray(arc_ids)

    def nearest(self, x):
        """(arc, arclength, distance) of the loop point closest to x; the
        first arc wins a tie."""
        return min(((arc, *arc.project(x)) for arc in self.arcs), key=lambda hit: hit[2])

    def convex_corners(self):
        """(point, interior angle) of each junction of two arcs where the
        loop turns left, so that the interior angle is below pi; a turn of
        at most 1e-9 rad is rounding at a smooth junction."""
        out = []
        for a, b in zip(self.arcs, self.arcs[1:] + self.arcs[:1]):
            t_in, t_out = a.tangent(a.length), b.tangent(0.0)
            turn = math.atan2(t_in[0] * t_out[1] - t_in[1] * t_out[0], t_in @ t_out)
            if turn > 1e-9:
                out.append((b.point(0.0), math.pi - turn))
        return out

    def signed_area(self):
        """Enclosed area, positive for a counterclockwise loop: half the sum
        over the pieces of the integral of x dy - y dx, a shoelace term per
        segment and its closed form per arc."""
        terms = []
        for a in self.arcs:
            if isinstance(a, Segment):
                terms.append(a.start[0] * a.end[1] - a.end[0] * a.start[1])
            else:
                (cx, cy), rad, a0, a1 = a.center, a.radius, a.angle_start, a.angle_end
                terms.append(rad * (rad * (a1 - a0) + cx * (math.sin(a1) - math.sin(a0))
                                    - cy * (math.cos(a1) - math.cos(a0))))
        return 0.5 * math.fsum(terms)

def unit_disk_loop(radius=1.0, center=(0.0, 0.0)):
    return BoundaryLoop((CircularArc(center, radius, 0.0, 2.0 * math.pi),))


def polygon_loop(vertices):
    vs = [tuple(map(float, v)) for v in vertices]
    return BoundaryLoop(tuple(Segment(a, b) for a, b in zip(vs, vs[1:] + vs[:1])))


# ---------------------------------------------------------------------------
# point-in-polygon and distances (numpy, even-odd rule)


def points_in_polygon(points, ring):
    """Even-odd membership of each point in the closed polygon ring.

    A chord (a0, b0)-(a1, b1) can flip a point's parity only if
    min(b0, b1) <= y < max(b0, b1), which is exactly (b0 > y) != (b1 > y).
    With the points sorted by y, those points are one contiguous run per
    chord, so the work is about one lattice row per chord instead of every
    point against every chord.
    """
    pts = np.atleast_2d(points)
    x, y = pts[:, 0], pts[:, 1]
    x0, y0 = ring[:, 0], ring[:, 1]
    x1, y1 = np.roll(x0, -1), np.roll(y0, -1)
    order = np.argsort(y, kind="stable")
    y_sorted = y[order]
    start = np.searchsorted(y_sorted, np.minimum(y0, y1))
    counts = np.searchsorted(y_sorted, np.maximum(y0, y1)) - start
    # one (point, chord) pair per point in each chord's run
    k = np.repeat(np.arange(len(ring)), counts)
    run_pos = np.arange(len(k)) - np.repeat(np.cumsum(counts) - counts, counts)
    idx = order[np.repeat(start, counts) + run_pos]
    a0, b0, a1, b1 = x0[k], y0[k], x1[k], y1[k]
    xi = a0 + (y[idx] - b0) * (a1 - a0) / (b1 - b0)
    hit = x[idx] < xi
    return (np.bincount(idx[hit], minlength=len(pts)) & 1).astype(bool)


def _segment_d2(p, a, b):
    """Squared distance from p to the segment a b, broadcast over leading axes."""
    ab, ap = b - a, p - a
    denom = ab[..., 0] * ab[..., 0] + ab[..., 1] * ab[..., 1]
    t = (ap[..., 0] * ab[..., 0] + ap[..., 1] * ab[..., 1]) / np.maximum(denom, 1e-300)
    t = np.clip(t, 0.0, 1.0)
    dx = p[..., 0] - (a[..., 0] + t * ab[..., 0])
    dy = p[..., 1] - (a[..., 1] + t * ab[..., 1])
    return dx * dx + dy * dy


def distance_to_segments(points, a, b, pairs=None):
    """Distance from each point to the nearest of the segments a[k] b[k].

    pairs = (i, k) restricts the search to the (point i, segment k) pairs
    listed; a point in no pair gets inf.  By default every point is paired
    with every segment, a block of about 2^16 pairs at a time.  Either way
    the pairs are measured in one vectorized pass.
    """
    pts = np.atleast_2d(points)
    d2 = np.full(len(pts), np.inf)
    if pairs is None:
        step = max(1, 2**16 // max(len(a), 1))
        for s in range(0, len(pts) if len(a) else 0, step):
            block = _segment_d2(pts[s:s + step, None, :], a[None], b[None])
            d2[s:s + step] = block.min(axis=1)
    else:
        i, k = (np.asarray(x, dtype=np.intp) for x in pairs)
        np.minimum.at(d2, i, _segment_d2(pts[i], a[k], b[k]))
    return np.sqrt(d2)


def far_from_ring(points, ring, dist, tree, vertex_dist):
    """Mask of the points at distance >= dist from every chord of the ring.

    Every point of a chord of length L lies within L/2 of one of its ends,
    so a chord closer than dist to a point has an end within dist + L_max/2
    of it.  Only the chords with an end inside the ball of radius
    bound = (dist + L_max/2)(1 + 1e-9) about a point are measured, and a
    point with no ring vertex inside that ball is far from every chord; the
    factor keeps rounding in the computed distances from deciding the test.
    So the mask equals the all-chords one, at a cost linear in the number
    of points near the ring.

    tree is the ring's cKDTree and vertex_dist each point's distance to its
    nearest ring vertex, from a query bounded at or beyond the bound (inf
    past it), so the caller, which needs those distances anyway, makes the
    one query.
    """
    pts = np.atleast_2d(points)
    ends = np.roll(ring, -1, axis=0)
    half = 0.5 * float(np.max(np.hypot(*(ends - ring).T)))
    bound = (dist + half) * (1.0 + 1e-9)
    far = vertex_dist >= bound
    band = np.flatnonzero(~far)
    near = tree.query_ball_point(pts[band], bound)
    counts = np.fromiter(map(len, near), np.intp, len(band))
    vertex = np.fromiter(itertools.chain.from_iterable(near), np.intp, int(counts.sum()))
    owner = np.repeat(band, counts)
    # vertex k ends chord k - 1 and starts chord k
    pairs = (np.concatenate([owner, owner]), np.concatenate([vertex, (vertex - 1) % len(ring)]))
    far[band] = distance_to_segments(pts, ring, ends, pairs)[band] >= dist
    return far


def _triangle_areas(xs, ys):
    """Areas of the triangles (a, b, c) from their corners' coordinate
    columns xs = (x[a], x[b], x[c]) and ys = (y[a], y[b], y[c])."""
    (xa, xb, xc), (ya, yb, yc) = xs, ys
    return 0.5 * np.abs((xb - xa) * (yc - ya) - (yb - ya) * (xc - xa))


def edge_table(triangles):
    """Undirected edges of a triangulation and the triangles on each.

    Returns (edges, tri_edges, counts): edges (m, 2) holds each edge once
    as (low, high) in lexicographic order, tri_edges (nt, 3) the edge ids of
    the sides (0,1), (1,2), (2,0) of each triangle, and counts (m,) the
    number of triangles on each edge (1 on the mesh boundary).
    """
    t = np.asarray(triangles, dtype=np.int64)
    n = int(t.max()) + 1
    after = t[:, [1, 2, 0]]
    keys, inverse, counts = np.unique(
        (np.minimum(t, after) * n + np.maximum(t, after)).ravel(),
        return_inverse=True, return_counts=True,
    )
    return np.stack([keys // n, keys % n], axis=1), inverse.reshape(-1, 3), counts


# ---------------------------------------------------------------------------
# Mesh


@dataclass(frozen=True)
class PlanarDomain:
    """Conforming P1 triangulation of a loop-bounded planar region."""

    vertices: np.ndarray  # (nv, 2)
    triangles: np.ndarray  # (nt, 3) int
    boundary_edges: np.ndarray  # (ne, 2) int, consecutive along the loop
    edge_arc: np.ndarray  # (ne,) arc index of each boundary edge
    gamma_edges: np.ndarray  # (ne,) bool
    loop: BoundaryLoop
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        for name in ("vertices", "triangles", "boundary_edges", "edge_arc", "gamma_edges"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if np.all(self.gamma_edges) and len(self.gamma_edges):
            raise GeometryError("gamma must not be the whole boundary")

    # -- basic quantities ---------------------------------------------------

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    def _columns(self):
        """The vertices' x and y as two contiguous columns."""
        return np.ascontiguousarray(self.vertices.T)

    def _corner_columns(self):
        """The triangles' corner ids (a, b, c) and the corners' coordinates
        (x[a], x[b], x[c]) and (y[a], y[b], y[c]), all contiguous columns."""
        x, y = self._columns()
        abc = np.ascontiguousarray(self.triangles.T)
        return abc, tuple(x[k] for k in abc), tuple(y[k] for k in abc)

    def tri_areas(self):
        if "areas" not in self._cache:
            self._cache["areas"] = _triangle_areas(*self._corner_columns()[1:])
        return self._cache["areas"]

    def edge_lengths(self):
        e = self.boundary_edges
        d = self.vertices[e[:, 1]] - self.vertices[e[:, 0]]
        return np.hypot(d[:, 0], d[:, 1])

    def volume(self):
        return fixed_order_sum(self.tri_areas())

    def boundary_length(self):
        return fixed_order_sum(self.edge_lengths())

    def edges(self):
        """The mesh's edge_table, built on first use; a mesh from
        mesh_domain or submesh comes with the table built to find its
        boundary."""
        if "edges" not in self._cache:
            self._cache["edges"] = edge_table(self.triangles)
        return self._cache["edges"]

    def mesh_size(self):
        """The longest edge."""
        if "h" not in self._cache:
            x, y = self._columns()
            a, b = np.ascontiguousarray(self.edges()[0].T)
            dx, dy = x[a] - x[b], y[a] - y[b]
            # sqrt is monotone, so the root of the largest square is the
            # largest root
            self._cache["h"] = float(np.sqrt(np.max(dx * dx + dy * dy)))
        return self._cache["h"]

    # -- quadrature -----------------------------------------------------------

    def interior_quadrature(self):
        """Midpoint rule (degree 2) and its P1 operators, all from the six
        coordinate columns of the triangles' corners (_corner_columns).
        Returns the points (3nt, 2), point 3i + m at the midpoint of
        triangle i's side from corner m to corner m + 1 (mod 3); the
        weights, a third of the triangle's area each; and the CSR matrices
        S, Gx, Gy.  S (3nt rows) maps nodal values to the values at the
        points, each row 0.5 at its side's two ends; Gx and Gy (nt rows) map
        them to the components of each triangle's constant gradient, each
        row the triangle's three basis gradients, so the gradient at point q
        is row q // 3.  A row lists its vertices in increasing order: each
        corner's entry goes to the slot of its rank among the three, which
        for distinct ids is the order argsort gives."""
        if "iq" not in self._cache:
            (a, b, c), xs, ys = self._corner_columns()
            (xa, xb, xc), (ya, yb, yc) = xs, ys
            pts = 0.5 * np.stack([xa + xb, ya + yb, xb + xc, yb + yc, xc + xa, yc + ya], axis=1)
            if "areas" not in self._cache:
                self._cache["areas"] = _triangle_areas(xs, ys)
            w = np.repeat(self._cache["areas"] / 3.0, 3)
            # P1 basis gradients, constant on each triangle: a corner's is
            # the opposite side, from the next corner to the one after,
            # turned a quarter counterclockwise, over twice the area (the
            # cross product of two such turned sides)
            gx = np.stack([yb - yc, yc - ya, ya - yb])
            gy = np.stack([xc - xb, xa - xc, xb - xa])
            det = gy[2] * gx[1] - gx[2] * gy[1]
            gx /= det
            gy /= det
            # corner k of triangle i goes to entry 3i + (its rank)
            slot = 3 * np.arange(len(a))
            dest = np.concatenate([slot + (a > b) + (a > c), slot + (b > a) + (b > c),
                                   slot + (c > a) + (c > b)])
            cols = np.empty_like(dest, dtype=self.triangles.dtype)
            cols[dest] = np.concatenate([a, b, c])
            gx_rows, gy_rows = np.empty(len(dest)), np.empty(len(dest))
            gx_rows[dest], gy_rows[dest] = gx.ravel(), gy.ravel()
            rows = np.arange(0, len(cols) + 1, 3)
            shape = (len(a), self.n_vertices)
            ends = np.stack([np.minimum(a, b), np.maximum(a, b), np.minimum(b, c),
                             np.maximum(b, c), np.minimum(c, a), np.maximum(c, a)], axis=1).ravel()
            self._cache["iq"] = (
                pts.reshape(-1, 2),
                w,
                csr_matrix((np.full(len(ends), 0.5), ends, np.arange(0, len(ends) + 1, 2)),
                           shape=(len(w), self.n_vertices)),
                csr_matrix((gx_rows, cols, rows), shape=shape),
                csr_matrix((gy_rows, cols, rows), shape=shape),
            )
        return self._cache["iq"]

    def boundary_quadrature(self):
        """2-point Gauss rule per boundary edge and its P1 operator: points,
        weights, and the CSR matrix Sb that maps nodal values to the values
        at the points."""
        if "bq" not in self._cache:
            e = self.boundary_edges
            a = self.vertices[e[:, 0]]
            b = self.vertices[e[:, 1]]
            s = 0.5 / math.sqrt(3.0)
            params = np.array([0.5 - s, 0.5 + s])
            pts = a[:, None, :] + params[None, :, None] * (b - a)[:, None, :]
            w = np.repeat(self.edge_lengths() / 2.0, 2)
            bary = np.stack([1.0 - params, params], axis=1)
            # row q holds its edge's two vertices in increasing order
            order = np.argsort(e, axis=1)
            cols = np.repeat(np.take_along_axis(e, order, axis=1), 2, axis=0).ravel()
            self._cache["bq"] = (
                pts.reshape(-1, 2),
                w,
                csr_matrix((bary.T[order].swapaxes(1, 2).ravel(), cols,
                            np.arange(0, len(cols) + 1, 2)),
                           shape=(len(w), self.n_vertices)),
            )
        return self._cache["bq"]

    # -- topology helpers -----------------------------------------------------

    def gamma_nodes(self):
        """Vertices on gamma-marked edges (closure under shared endpoints)."""
        return np.unique(self.boundary_edges[self.gamma_edges])

    def boundary_nodes(self):
        return np.unique(self.boundary_edges)

    # -- refinement -------------------------------------------------------------

    def refine(self):
        """Uniform bisection into 4 children; nested (no boundary re-snap).

        Returns (fine domain, prolongation) where prolongation maps coarse
        nodal vectors to fine ones exactly (P1 interpolation).
        """
        v = self.vertices
        t = self.triangles
        nv = len(v)
        edges, tri_edges, _ = self.edges()
        m = len(edges)
        # the midpoint of edge e is fine vertex nv + e
        fine_v = np.concatenate([v, 0.5 * (v[edges[:, 0]] + v[edges[:, 1]])], axis=0)
        a, b, c = (nv + tri_edges).T
        i, j, k = t.T
        fine_tris = np.stack(
            [np.stack(x, axis=1) for x in ((i, a, c), (a, j, b), (c, b, k), (a, b, c))],
            axis=1,
        ).reshape(-1, 3)

        be = self.boundary_edges
        lo, hi = np.minimum(be[:, 0], be[:, 1]), np.maximum(be[:, 0], be[:, 1])
        mid = nv + np.searchsorted(edges[:, 0] * nv + edges[:, 1], lo * nv + hi)
        fine_edges = np.stack([be[:, 0], mid, mid, be[:, 1]], axis=1).reshape(-1, 2)

        rows = np.concatenate([np.arange(nv), nv + np.arange(m), nv + np.arange(m)])
        cols = np.concatenate([np.arange(nv), edges[:, 0], edges[:, 1]])
        vals = np.concatenate([np.ones(nv), np.full(2 * m, 0.5)])
        prol = csr_matrix((vals, (rows, cols)), shape=(len(fine_v), len(v)))
        dom = PlanarDomain(
            fine_v,
            fine_tris,
            fine_edges,
            np.repeat(self.edge_arc, 2),
            np.repeat(self.gamma_edges, 2),
            loop=self.loop,
        )
        return dom, prol

    # -- submesh ---------------------------------------------------------------

    def submesh(self, center, radius):
        """Restriction to triangles fully inside the ball; cut edges marked gamma.

        Returns (subdomain, node_map) with node_map[new] = old index.  The
        artificial boundary created by the cut is gamma-marked, so extending
        a subdomain function by zero is admissible on the parent mesh.
        """
        center = np.asarray(center, float)
        d = np.linalg.norm(self.vertices - center, axis=1)
        keep = np.all(d[self.triangles] <= radius, axis=1)
        if not np.any(keep):
            raise GeometryError("empty submesh")
        tris = self.triangles[keep]
        used = np.unique(tris)
        remap = -np.ones(self.n_vertices, dtype=int)
        remap[used] = np.arange(len(used))
        sub_tris = remap[tris]
        sub_v = self.vertices[used]

        # boundary of the submesh = edges with exactly one adjacent triangle
        table = edge_table(sub_tris)
        edges, _, counts = table
        nsub = len(used)
        bkeys = edges[counts == 1] @ np.array([nsub, 1])

        # keep inherited boundary edges in their global order and orientation
        # (a cap covering the whole mesh reproduces the domain bit for bit),
        # then the artificial cut edges in sorted order
        be = remap[self.boundary_edges]
        keys = np.min(be, axis=1) * nsub + np.max(be, axis=1)
        inherited = np.all(be >= 0, axis=1) & np.isin(keys, bkeys)
        cut = bkeys[~np.isin(bkeys, keys[inherited])]
        b_edges = np.concatenate([be[inherited], np.stack([cut // nsub, cut % nsub], axis=1)])
        b_arc = np.concatenate([self.edge_arc[inherited], np.full(len(cut), -1)])  # -1: cut
        b_gamma = np.concatenate([self.gamma_edges[inherited], np.ones(len(cut), dtype=bool)])
        dom = PlanarDomain(
            sub_v,
            sub_tris,
            b_edges,
            b_arc,
            b_gamma,
            loop=self.loop,
        )
        dom._cache["edges"] = table
        return dom, used


# edge_table keys each edge as low * n + high in int64, so a mesh has at most
# this many vertices
MAX_VERTICES = math.isqrt(2**63 - 1)


def _vertex_estimate(loop, spacing):
    """About how many vertices _mesh_once makes at this spacing, found
    without making them: the ring's, one per spacing of boundary, and the
    lattice's, one per cell of area spacing^2 sqrt(3)/2; inf beyond the
    float range."""
    ring = sum(arc.length for arc in loop.arcs) / spacing
    return ring + loop.signed_area() / spacing / spacing * (2.0 / math.sqrt(3.0))


def mesh_domain(loop, target_h, gamma_arcs=()):
    """Triangulate the loop with max edge length <= target_h.

    gamma_arcs lists arc indices whose boundary edges are gamma-marked.

    The lattice spacing is 0.496 target_h, then 0.8 times the last, for up
    to three tries; the first mesh with every edge at most target_h is kept.
    Its triangles are those of the Delaunay triangulation of the ring and
    lattice points, filtered to the polygon, though qhull sees only the
    points near the ring (see _mesh_once).  They come in canonical order:
    each row counterclockwise from its smallest vertex, the rows sorted.
    """
    if not (math.isfinite(target_h) and target_h > 0):
        raise ValueError("target_h must be positive")
    if not loop.signed_area() > 0:
        raise GeometryError("boundary loop must be counterclockwise around a positive area")
    gamma_arcs = set(int(i) for i in gamma_arcs)
    for i in gamma_arcs:
        if i < 0 or i >= len(loop.arcs):
            raise GeometryError(f"gamma arc index {i} out of range")
    if gamma_arcs == set(range(len(loop.arcs))):
        raise GeometryError("gamma must not be the whole boundary")

    # 0.62 * 0.8 rather than 0.496 keeps the spacings' last bits
    spacing = 0.62 * target_h
    dom = None
    for _ in range(3):
        spacing *= 0.8
        if not _vertex_estimate(loop, spacing) <= MAX_VERTICES:
            raise GeometryError(f"h = {target_h!r} is too small to mesh: the mesh would have "
                                f"more than {MAX_VERTICES:.3g} vertices")
        try:
            dom = _mesh_once(loop, spacing, gamma_arcs)
        except GeometryError as err:
            failure = err
            continue
        if dom.mesh_size() <= target_h:
            return dom
    if dom is None:  # no try gave a mesh: the last one's cause, not the size
        raise failure
    raise GeometryError("could not reach the requested mesh size")


def _hex_lattice(lo, hi, spacing):
    """Hexagonal lattice points of the given spacing in the box [lo, hi],
    with the row r and column c of each: the point sits at
    x = lo_x + (0.4 + c) spacing, plus spacing / 2 when r is odd, and
    y = lo_y + (r + 1/2) spacing sqrt(3) / 2.  Every even row holds the same
    x sequence and every odd row the other, so the rows are those two
    sequences tiled, in one allocation per array."""
    dy = spacing * math.sqrt(3.0) / 2.0
    ys = np.arange(lo[1] + 0.5 * dy, hi[1], dy)
    xs = [np.arange(lo[0] + 0.4 * spacing + off, hi[0], spacing) for off in (0.0, 0.5 * spacing)]
    counts = np.where(np.arange(len(ys)) % 2, len(xs[1]), len(xs[0]))
    n = int(counts.sum())
    pairs = (len(ys) + 1) // 2  # an even row and the odd row after it
    x = np.tile(np.concatenate(xs), pairs)[:n]
    col = np.tile(np.concatenate([np.arange(len(xs[0])), np.arange(len(xs[1]))]), pairs)[:n]
    return (np.stack([x, np.repeat(ys, counts)], axis=1),
            np.repeat(np.arange(len(ys)), counts), col)


def _lattice_triangles(ids, rows, cols):
    """The unit triangles of the hexagonal lattice with all three corners
    among the given points, counterclockwise.  The point (r, c), vertex id
    i, spans the up triangle on its right neighbour (r, c + 1) and its upper
    right neighbour, and the down triangle on its upper right and upper left
    neighbours; those two sit at columns c + (r odd) and c + (r odd) - 1 of
    row r + 1, so every unit triangle is spanned once, by its lowest-id
    corner."""
    grid = np.full((rows.max(initial=0) + 2, cols.max(initial=0) + 3), -1)
    grid[rows, cols + 1] = ids
    odd = rows % 2
    right = grid[rows, cols + 2]
    upper_right = grid[rows + 1, cols + 1 + odd]
    upper_left = grid[rows + 1, cols + odd]
    up = (right >= 0) & (upper_right >= 0)
    down = (upper_right >= 0) & (upper_left >= 0)
    return np.concatenate([np.stack([ids, right, upper_right], axis=1)[up],
                           np.stack([ids, upper_right, upper_left], axis=1)[down]])


# lattice rows and columns on each side of a ring vertex's nearest lattice
# cell that _ring_window takes
RING_WINDOW = 6


def _ring_window(ring, lo, spacing, row, col):
    """Mask of the lattice points, at rows row and columns col of
    _hex_lattice's lattice in the box from lo, that are within RING_WINDOW
    rows and RING_WINDOW columns of some ring vertex's nearest lattice cell
    (its row and column rounded with rint, the odd rows' half offset
    ignored).

    Rounding moves a vertex by at most half a row and, with the offset, one
    column, so the window reaches at least 5.5 rows of s sqrt(3)/2, 4.76s,
    and 5 columns of s past the vertex (s the spacing): every lattice point
    within 4.7s of a ring vertex is in the window.  Each point is tested
    against every window at once with a prefix sum over the marked cells of
    the lattice grid, padded by RING_WINDOW on each side.
    """
    w = RING_WINDOW
    dy = spacing * math.sqrt(3.0) / 2.0
    r = np.rint((ring[:, 1] - lo[1]) / dy - 0.5).astype(np.intp) + w
    c = np.rint((ring[:, 0] - lo[0]) / spacing - 0.4).astype(np.intp) + w
    # padded cell (i, j) is marks[i + 1, j + 1], so that total[i, j] counts
    # the marked cells above and left of it; vertices whose window misses
    # the lattice fall off the padded grid
    marks = np.zeros((row.max(initial=0) + 2 * w + 2, col.max(initial=0) + 2 * w + 2), np.intp)
    on = (r >= 0) & (r < marks.shape[0] - 1) & (c >= 0) & (c < marks.shape[1] - 1)
    marks[r[on] + 1, c[on] + 1] = 1
    total = marks.cumsum(axis=0).cumsum(axis=1)
    top, right = row + 2 * w + 1, col + 2 * w + 1
    return total[top, right] - total[row, right] - total[top, col] + total[row, col] > 0


def _mesh_once(loop, spacing, gamma_arcs):
    """Delaunay mesh of the boundary ring and the hexagonal lattice inside
    it, in canonical order; raises GeometryError when boundary recovery
    fails.

    The triangles are those of the Delaunay triangulation of all the points
    (ring and lattice) with their centroid inside the ring, but qhull sees
    only the band near the ring.  With s the spacing, L <= s the longest
    chord and d(x) the distance from x to the nearest ring vertex (every
    chord point is within L/2 of a vertex, so x is at least d(x) - L/2 from
    the ring), call a lattice point deep when d >= 2s + L/2:

    * The circumdisk of a unit lattice triangle has radius s/sqrt(3); the
      other lattice points are at least 2s/sqrt(3) from its centre.  The six
      unit triangles around a deep point have their corners at least s from
      the ring, so the lattice filters kept them, and their circumdisks at
      least (2 - 2/sqrt(3))s from it, so the disks are empty: the six are
      in every Delaunay triangulation of the points and fill the
      neighbourhood of the deep point.  So the triangles with three deep corners are
      exactly the unit triangles with three deep corners, and
      _lattice_triangles builds them from the lattice rows and columns.
    * A triangle with a corner u that is not deep has an empty circumdisk.
      If it had a corner w with d(w) >= 4s, the lattice would be complete
      within 2s of w, so any disk with w on its circle and a radius above
      s/sqrt(3) would hold a lattice point (a disk of radius just above
      s/sqrt(3) inside it, through w, does: its centre is within s/sqrt(3)
      of a lattice point); then |u - w| <= 2s/sqrt(3), while d is
      1-Lipschitz, so |u - w| >= 4s - 2s - L/2 >= 1.5s.  Hence all its
      corners are in the band of the ring and the lattice points with
      d < 4s, and its circumdisk is empty of the band too.  Conversely, the
      full triangulation's triangles around a point that is not deep fill
      its neighbourhood and are all in the band's triangulation, so the
      band's triangles with a corner that is not deep are exactly the full
      triangulation's.

    d itself comes from the ring's KD-tree queried with the bound 4s, and
    only for the lattice points in some ring vertex's _ring_window, which
    reaches at least 4.7s from the vertex; every other point is more than
    4s from every ring vertex and keeps the inf the bounded query would
    give it.

    A domain with no deep point has every point in the band and no lattice
    triangle, through the same code.  Each row starts at its smallest
    vertex, counterclockwise, and the rows are sorted, so the mesh does not
    depend on qhull's output order.
    """
    ring, arc_ids = loop.polyline(spacing)
    n_ring = len(ring)
    if n_ring < 3:
        raise GeometryError("boundary too coarse")
    lo = ring.min(axis=0)
    interior, row, col = _hex_lattice(lo, ring.max(axis=0), spacing)
    keep = points_in_polygon(interior, ring)
    interior, row, col = interior[keep], row[keep], col[keep]
    # each lattice point's distance to the nearest ring vertex, inf from 4s
    # on; chords are at most s long, so far_from_ring's bound is below 4s.
    # Only the points in a ring vertex's window can be within 4s of it.
    tree = cKDTree(ring)
    near = np.full(len(interior), np.inf)
    window = _ring_window(ring, lo, spacing, row, col)
    near[window] = tree.query(interior[window], distance_upper_bound=4.0 * spacing)[0]
    keep = far_from_ring(interior, ring, 0.55 * spacing, tree, near)
    interior, row, col, near = interior[keep], row[keep], col[keep], near[keep]
    allpts = np.concatenate([ring, interior], axis=0)

    half = 0.5 * float(np.max(np.hypot(*(np.roll(ring, -1, axis=0) - ring).T)))
    deep = near >= 2.0 * spacing + half
    band = np.concatenate([np.arange(n_ring), n_ring + np.flatnonzero(near < 4.0 * spacing)])
    cells = band[Delaunay(allpts[band]).simplices]
    # the triangles with three deep corners come from the lattice instead
    deep_vertex = np.concatenate([np.zeros(n_ring, dtype=bool), deep])
    cells = cells[~np.all(deep_vertex[cells], axis=1)]
    cent = allpts[cells].mean(axis=1)
    keep = points_in_polygon(cent, ring)
    v = allpts[cells[keep, 0]]
    a = allpts[cells[keep, 1]] - v
    b = allpts[cells[keep, 2]] - v
    area2 = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    scale = float(np.max(ring.max(axis=0) - ring.min(axis=0)))
    nondeg = np.abs(area2) > 1e-12 * scale**2
    cells = cells[keep][nondeg]
    # orient all triangles counterclockwise
    flip = area2[nondeg] < 0
    cells[flip] = cells[flip][:, ::-1]

    cells = np.concatenate([cells, _lattice_triangles(n_ring + np.flatnonzero(deep),
                                                      row[deep], col[deep])])
    # canonical order: each row from its smallest vertex, the rows sorted
    first = np.argmin(cells, axis=1)
    cells = np.take_along_axis(cells, (first[:, None] + np.arange(3)) % 3, axis=1)
    cells = cells[np.lexsort(cells.T[::-1])]

    # boundary recovery: edges adjacent to exactly one triangle must be the
    # consecutive ring pairs
    edges = np.stack([np.arange(n_ring), (np.arange(n_ring) + 1) % n_ring], axis=1)
    table = edge_table(cells)
    counts = table[2]
    if not np.array_equal(table[0][counts == 1], np.unique(np.sort(edges, axis=1), axis=0)):
        raise GeometryError("boundary recovery failed; refine or simplify the loop")
    # a triangulated disk: Euler's count, and no edge on three triangles
    if len(cells) != 2 * len(allpts) - n_ring - 2 or counts.max() > 2:
        raise GeometryError("the triangles do not tile the ring")

    e_arc = np.asarray(arc_ids)
    gamma = np.isin(e_arc, list(gamma_arcs))
    dom = PlanarDomain(allpts, cells, edges, e_arc, gamma, loop=loop)
    dom._cache["edges"] = table
    return dom


# ---------------------------------------------------------------------------
# Fermi chart


@dataclass(frozen=True)
class FermiChart:
    """Boundary-adapted chart Phi(y, t) = (y, psi(y)) + t nu(y) at x0.

    Frame coordinates: y along the tangent tau, heights along the inward
    normal nu; nu(y) is the unit inward normal of the boundary graph
    n = psi(y), with psi(0) = 0, psi'(0) = 0 and psi''(0) = H (signed
    curvature, positive when the domain is convex at the base point).
    The chart lies inside one segment or arc, so the curvature is the
    constant H along it, and the jacobians are closed-form.
    """

    x0: np.ndarray
    tau: np.ndarray
    nu: np.ndarray
    H: float  # signed curvature; also the mean-curvature surrogate hbar in 2-D
    center_offset: float  # signed distance to the arc center along nu (0 => line)
    validity_radius: float

    def boundary_jacobian(self, y):
        """|d/dy (y, psi(y))| = sqrt(1 + psi'(y)^2); exact."""
        y = np.asarray(y, float)
        r = abs(self.center_offset)
        if r == 0.0:
            return np.ones_like(y)
        dpsi = y / np.sqrt(r * r - y * y)
        return np.sqrt(1.0 + dpsi * dpsi)

    def jacobian(self, y, t):
        """det d Phi = boundary_jacobian(y) * (1 - t H); exact.

        The chart is orthogonal: d_y Phi = boundary_jacobian(y) (1 - t H)
        times the unit tangent and d_t Phi = nu(y), so its metric is
        diag(J^2, 1) with J this jacobian, and |grad u| = hypot(u_y / J, u_t).
        """
        return self.boundary_jacobian(y) * (1.0 - np.asarray(t, float) * self.H)


def fermi_chart(loop, x0):
    """Chart at a point x0 of the boundary loop, inside one of its arcs."""
    arc, s, dist = loop.nearest(np.asarray(x0, float))
    if dist > 1e-6 * max(1.0, arc.length):
        raise GeometryError("x0 does not lie on the boundary")
    periodic = (
        len(loop.arcs) == 1
        and isinstance(arc, CircularArc)
        and arc.is_full_circle
    )
    at_junction = s < 1e-9 * arc.length or s > (1.0 - 1e-9) * arc.length
    if at_junction and not periodic:
        raise CornerError("chart base point sits at a junction of boundary arcs")

    tau = np.asarray(arc.tangent(s), float)
    nu = np.array([-tau[1], tau[0]])  # left normal; inward for a ccw loop
    base = np.asarray(arc.point(s), float)
    if isinstance(arc, CircularArc):
        to_center = np.asarray(arc.center, float) - base
        d = float(to_center @ nu)  # signed center offset along nu
        H = 1.0 / d
        if periodic:
            half_extent = arc.length / 2.0
        else:
            half_extent = min(s, arc.length - s)
        validity = 0.45 * min(abs(d), half_extent)
    else:
        d = 0.0
        H = 0.0
        validity = 0.45 * min(s, arc.length - s)
    return FermiChart(
        x0=base, tau=tau, nu=nu, H=H, center_offset=d,
        validity_radius=validity,
    )
