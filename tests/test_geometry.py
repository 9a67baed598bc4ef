import math

import numpy as np
import pytest
from scipy import integrate
from scipy.sparse import csr_matrix
from scipy.spatial import Delaunay, cKDTree

from vextrace import geometry
from vextrace.geometry import (
    BoundaryLoop,
    CircularArc,
    CornerError,
    GeometryError,
    Segment,
    distance_to_segments,
    far_from_ring,
    fermi_chart,
    mesh_domain,
    points_in_polygon,
    polygon_loop,
    unit_disk_loop,
)

SQUARE = polygon_loop([(0, 0), (1, 0), (1, 1), (0, 1)])
L_SHAPE = polygon_loop([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
COMB = polygon_loop([(0, 0), (3, 0), (3, 2), (2.5, 2), (2.5, 0.5), (2, 0.5), (2, 2),
                     (1, 2), (1, 1), (0.5, 1.5), (0, 1)])


@pytest.fixture(scope="module")
def disk_005():
    return mesh_domain(unit_disk_loop(), 0.05)


def test_square_area_exact():
    dom = mesh_domain(SQUARE, 0.5)
    vol, per = dom.volume(), dom.boundary_length()
    assert vol == pytest.approx(1.0, abs=1e-14)
    assert per == pytest.approx(4.0, abs=1e-14)


def test_square_mesh_size_bound():
    dom = mesh_domain(SQUARE, 0.5)
    assert dom.mesh_size() <= 0.5


def test_disk_measures(disk_005):
    vol, per = disk_005.volume(), disk_005.boundary_length()
    assert vol == pytest.approx(math.pi, abs=3e-3)
    assert vol < math.pi  # inscribed polygon
    assert per == pytest.approx(2 * math.pi, abs=2e-3)
    assert per < 2 * math.pi  # chords


def test_disk_scaled_measures():
    for t in (0.3, 2.0):
        dom = mesh_domain(unit_disk_loop(radius=t), 0.05 * t)
        vol, per = dom.volume(), dom.boundary_length()
        assert vol == pytest.approx(math.pi * t * t, rel=2e-3)
        assert per == pytest.approx(2 * math.pi * t, rel=1e-3)


def test_polygon_scaling_law_exact():
    dom = mesh_domain(SQUARE, 0.5)
    vol, per = dom.volume(), dom.boundary_length()
    for t in (0.5, 2.0, 3.0):
        scaled = mesh_domain(polygon_loop([(0, 0), (t, 0), (t, t), (0, t)]), 0.5 * t)
        assert scaled.volume() == pytest.approx(t * t * vol, rel=1e-14)
        assert scaled.boundary_length() == pytest.approx(t * per, rel=1e-14)


def test_conformity_boundary_edges(disk_005):
    counts = {}
    for tri in disk_005.triangles:
        for i, j in ((0, 1), (1, 2), (2, 0)):
            key = (min(tri[i], tri[j]), max(tri[i], tri[j]))
            counts[key] = counts.get(key, 0) + 1
    boundary = {k for k, c in counts.items() if c == 1}
    declared = {tuple(sorted(e)) for e in map(tuple, disk_005.boundary_edges)}
    assert boundary == declared


def test_mesh_convergence_under_h():
    defects = []
    for h in (0.4, 0.2, 0.1):
        dom = mesh_domain(unit_disk_loop(), h)
        defects.append(math.pi - dom.volume())
    assert defects[0] > defects[1] > defects[2] > 0


def test_refine_nested_and_prolongation():
    dom = mesh_domain(unit_disk_loop(), 0.4)
    fine, prol = dom.refine()
    np.testing.assert_array_equal(fine.vertices[: dom.n_vertices], dom.vertices)
    rng = np.random.default_rng(0)
    coarse_vals = rng.standard_normal(dom.n_vertices)
    fine_vals = prol @ coarse_vals
    # interpolation at midpoints is exact for P1 functions
    mids = fine.vertices[dom.n_vertices :]
    assert fine_vals[: dom.n_vertices] == pytest.approx(coarse_vals.tolist())
    assert fine.volume() == pytest.approx(dom.volume(), rel=1e-13)
    assert fine.boundary_length() == pytest.approx(dom.boundary_length(), rel=1e-13)
    assert len(fine.triangles) == 4 * len(dom.triangles)
    assert len(mids) > 0


def test_self_intersecting_rejected():
    bow = polygon_loop([(0, 0), (1, 1), (1, 0), (0, 1)])
    with pytest.raises(GeometryError):
        mesh_domain(bow, 0.3)


def test_gamma_whole_boundary_rejected():
    with pytest.raises(GeometryError):
        mesh_domain(SQUARE, 0.5, gamma_arcs=(0, 1, 2, 3))


def test_signed_area_is_exact_per_piece():
    assert SQUARE.signed_area() == 1.0
    assert L_SHAPE.signed_area() == 3.0
    assert COMB.signed_area() == 4.5
    assert polygon_loop([(0, 0), (0, 1), (1, 1), (1, 0)]).signed_area() == -1.0
    disk = unit_disk_loop(2.0, (1.0, -3.0))
    assert disk.signed_area() == pytest.approx(4.0 * math.pi, rel=1e-15)
    clockwise = BoundaryLoop((CircularArc((0.5, 0.5), 1.0, 2.0 * math.pi, 0.0),))
    assert clockwise.signed_area() == pytest.approx(-math.pi, rel=1e-15)
    # the upper half disk: the arc from angle 0 to pi, then the diameter back
    half = BoundaryLoop((CircularArc((0.0, 0.0), 1.0, 0.0, math.pi),
                         Segment((-1.0, 0.0), (1.0, 0.0))))
    assert half.signed_area() == pytest.approx(math.pi / 2.0, rel=1e-15)
    # a 1e-13 side is one exact term, not a ring of 8e13 points
    sliver = polygon_loop([(0, 0), (1, 0), (1, 1), (0, 1), (0, 1e-13)])
    assert sliver.signed_area() == 1.0


def test_degenerate_pieces_are_refused():
    with pytest.raises(GeometryError, match="zero length"):
        Segment((1.0, 0.0), (1.0, 0.0))
    with pytest.raises(GeometryError, match="at most one full turn"):
        CircularArc((0.0, 0.0), 1.0, 0.0, 4.0 * math.pi)
    with pytest.raises(GeometryError, match="at most one full turn"):
        CircularArc((0.0, 0.0), 1.0, 0.0, -2.0 * math.pi - 1e-9)
    with pytest.raises(GeometryError, match="more than 0"):
        CircularArc((0.0, 0.0), 1.0, 1.0, 1.0)
    assert CircularArc((0.0, 0.0), 1.0, 1.0, 1.0 + 2.0 * math.pi).is_full_circle


@pytest.mark.parametrize("loop", [
    polygon_loop([(0, 0), (1, 0)]),
    polygon_loop([(0, 0), (1, 1), (2, 2)]),
    unit_disk_loop(1e-300),
], ids=["digon", "collinear", "disk-area-underflow"])
def test_loops_without_area_are_refused(loop):
    with pytest.raises(GeometryError, match="around a positive area"):
        mesh_domain(loop, 0.2)


@pytest.mark.parametrize("h", [0.0, -0.1, math.nan, math.inf, -math.inf])
def test_mesh_size_must_be_positive_and_finite(h):
    with pytest.raises(ValueError, match="target_h must be positive"):
        mesh_domain(SQUARE, h)


def test_gamma_marking_and_closure():
    dom = mesh_domain(SQUARE, 0.5, gamma_arcs=(0,))
    assert np.any(dom.gamma_edges) and not np.all(dom.gamma_edges)
    gnodes = set(dom.gamma_nodes().tolist())
    # both corner endpoints of the bottom side belong to the closure
    for corner in ((0.0, 0.0), (1.0, 0.0)):
        idx = int(np.argmin(np.linalg.norm(dom.vertices - np.array(corner), axis=1)))
        assert idx in gnodes


def test_submesh_cut_is_gamma():
    dom = mesh_domain(unit_disk_loop(), 0.2)
    sub, node_map = dom.submesh((1.0, 0.0), 0.8)
    assert np.any(sub.gamma_edges)
    assert not np.all(sub.gamma_edges)
    cut = sub.edge_arc == -1
    np.testing.assert_array_equal(sub.gamma_edges, cut)
    # cut edges sit near the circle of the cap radius
    for i, j in sub.boundary_edges[cut]:
        for v in (sub.vertices[i], sub.vertices[j]):
            assert np.linalg.norm(v - np.array([1.0, 0.0])) <= 0.8 + 1e-12


def test_quadrature_integrates_polynomials(disk_005):
    dom = mesh_domain(SQUARE, 0.3)
    pts, w, _, _, _ = dom.interior_quadrature()
    # degree-2 rule: x^2 integrates exactly over the square
    assert float(w @ pts[:, 0] ** 2) == pytest.approx(1.0 / 3.0, rel=1e-13)
    assert float(w @ (pts[:, 0] * pts[:, 1])) == pytest.approx(0.25, rel=1e-13)
    bpts, bw, _ = dom.boundary_quadrature()
    assert float(np.sum(bw)) == pytest.approx(4.0, rel=1e-14)
    # 2-point Gauss is exact to degree 3 on each edge
    bottom = np.abs(bpts[:, 1]) < 1e-12
    assert float(bw[bottom] @ bpts[bottom, 0] ** 3) == pytest.approx(0.25, rel=1e-12)


@pytest.mark.parametrize(
    "loop, h, gamma", [(unit_disk_loop(), 0.15, ()), (SQUARE, 0.12, (3,))], ids=["disk", "square"]
)
def test_operators_reproduce_affine_functions(loop, h, gamma):
    dom = mesh_domain(loop, h, gamma_arcs=gamma)
    pts, _, S, Gx, Gy = dom.interior_quadrature()
    bpts, _, Sb = dom.boundary_quadrature()

    def f(x):
        return 0.3 + 1.7 * x[:, 0] - 0.9 * x[:, 1]

    a = f(dom.vertices)
    scale = float(np.max(np.abs(a)))
    ones = np.ones(dom.n_vertices)
    for op, at, want in ((S, pts, f(pts)), (Sb, bpts, f(bpts))):
        np.testing.assert_allclose(op @ a, want, rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(op @ ones, np.ones(len(at)), rtol=1e-12)
    # one gradient row per triangle
    assert Gx.shape[0] == Gy.shape[0] == len(dom.triangles) == len(pts) // 3
    np.testing.assert_allclose(Gx @ a, np.full(len(dom.triangles), 1.7), rtol=1e-12)
    np.testing.assert_allclose(Gy @ a, np.full(len(dom.triangles), -0.9), rtol=1e-12)


def _coo_operators(dom):
    """S, Gx, Gy and Sb assembled from (value, (row, column)) triplets in
    each triangle's (side's, edge's) own vertex order: S has a row per side
    midpoint with 0.5 at the side's two ends, Gx and Gy a row per triangle
    with its three basis gradients."""
    v, t, e = dom.vertices, dom.triangles, dom.boundary_edges
    j, k = v[t[:, [1, 2, 0]]], v[t[:, [2, 0, 1]]]
    g = np.stack([j[..., 1] - k[..., 1], k[..., 0] - j[..., 0]], axis=-1)
    det = g[:, 2, 1] * g[:, 1, 0] - g[:, 2, 0] * g[:, 1, 1]
    g = g / det[:, None, None]
    pattern = (np.repeat(np.arange(len(t)), 3), t.ravel())
    shape = (len(t), dom.n_vertices)
    sides = t[:, [0, 1, 1, 2, 2, 0]].ravel()
    side_pattern = (np.repeat(np.arange(3 * len(t)), 2), sides)
    half_gap = 0.5 / math.sqrt(3.0)
    params = np.array([0.5 - half_gap, 0.5 + half_gap])
    edge_bary = np.stack([1.0 - params, params], axis=1)
    edge_pattern = (np.repeat(np.arange(2 * len(e)), 2), np.repeat(e, 2, axis=0).ravel())
    return (
        csr_matrix((np.full(len(sides), 0.5), side_pattern), shape=(3 * len(t), dom.n_vertices)),
        csr_matrix((g[:, :, 0].ravel(), pattern), shape=shape),
        csr_matrix((g[:, :, 1].ravel(), pattern), shape=shape),
        csr_matrix((np.tile(edge_bary, (len(e), 1)).ravel(), edge_pattern),
                   shape=(2 * len(e), dom.n_vertices)),
    )


@pytest.mark.parametrize(
    "loop, h, gamma",
    [(unit_disk_loop(), 0.05, ()), (SQUARE, 0.04, (3,)), (COMB, 0.1, ())],
    ids=["disk", "square-gamma", "comb"],
)
def test_operators_equal_the_coo_assembly(loop, h, gamma):
    dom = mesh_domain(loop, h, gamma_arcs=gamma)
    # a cut submesh has boundary edges running from the higher vertex too
    sub, _ = dom.submesh(dom.vertices[0], 0.5)
    for d in (dom, sub, dom.refine()[0]):
        got = (*d.interior_quadrature()[2:], *d.boundary_quadrature()[2:])
        for a, b in zip(got, _coo_operators(d)):
            for key in ("indptr", "indices", "data"):
                x, y = getattr(a, key), getattr(b, key)
                assert x.dtype == y.dtype and np.array_equal(x, y), key


# -- Fermi charts -------------------------------------------------------------


def test_chart_unit_disk_curvature():
    loop = unit_disk_loop()
    for theta in (0.3, 2.0, 4.5):
        chart = fermi_chart(loop, (math.cos(theta), math.sin(theta)))
        assert chart.H == pytest.approx(1.0, rel=1e-12)


def test_chart_radius_two():
    loop = unit_disk_loop(radius=2.0)
    chart = fermi_chart(loop, (2.0, 0.0))
    assert chart.H == pytest.approx(0.5, rel=1e-12)


def test_chart_flat_edge():
    loop = SQUARE
    chart = fermi_chart(loop, (0.5, 0.0))
    assert chart.H == 0.0
    np.testing.assert_allclose(chart.nu, [0.0, 1.0], atol=1e-15)


def test_chart_corner_error():
    loop = SQUARE
    with pytest.raises(CornerError):
        fermi_chart(loop, (1.0, 0.0))


def test_chart_inward_normal_and_unit():
    loop = unit_disk_loop()
    for theta in (-0.5 * math.pi, 0.3, 2.0):
        chart = fermi_chart(loop, (math.cos(theta), math.sin(theta)))
        assert np.linalg.norm(chart.nu) == pytest.approx(1.0, rel=1e-14)
        assert abs(float(chart.nu @ chart.tau)) < 1e-14
        assert np.linalg.norm(chart.x0) == pytest.approx(1.0, rel=1e-14)
        # stepping inward from the boundary decreases |x|
        assert np.linalg.norm(chart.x0 + 0.05 * chart.nu) < 1.0


def test_chart_jacobian_expansion_ratio():
    loop = unit_disk_loop()
    chart = fermi_chart(loop, (1.0, 0.0))
    consts = []
    for scale in (0.2, 0.1, 0.05):
        ys = np.linspace(-scale, scale, 7)
        ts = np.linspace(0.0, scale, 7)
        Y, T = np.meshgrid(ys, ts)
        J = chart.jacobian(Y.ravel(), T.ravel())
        err = np.abs(J - (1.0 - chart.H * T.ravel()))
        denom = T.ravel() ** 2 + Y.ravel() ** 2
        mask = denom > 1e-14
        consts.append(float(np.max(err[mask] / denom[mask])))
    # the fitted constant stays bounded (within a factor 2) as scales halve
    assert consts[1] <= 2.0 * consts[0] + 1e-9
    assert consts[2] <= 2.0 * consts[1] + 1e-9


def test_chart_metric_is_orthogonal():
    # Phi(y, t) = (1 - t) (sqrt(1 - y^2), y) on the unit disk at (1, 0): the
    # coordinate lines cross at right angles, |d_y Phi| is the jacobian and
    # d_t Phi is a unit vector, so the metric is diag(J^2, 1)
    chart = fermi_chart(unit_disk_loop(), (1.0, 0.0))

    def phi(y, t):
        return (1.0 - t) * np.array([math.sqrt(1.0 - y * y), y])

    h = 1e-6
    r = chart.validity_radius
    for y, t in ((0.0, 0.0), (0.3 * r, 0.1 * r), (-0.7 * r, 0.5 * r), (0.9 * r, 0.9 * r)):
        d_y = (phi(y + h, t) - phi(y - h, t)) / (2.0 * h)
        d_t = (phi(y, t + h) - phi(y, t - h)) / (2.0 * h)
        assert abs(float(d_y @ d_t)) < 1e-8
        assert float(np.linalg.norm(d_y)) == pytest.approx(float(chart.jacobian(y, t)), abs=1e-8)
        assert float(np.linalg.norm(d_t)) == pytest.approx(1.0, abs=1e-8)


# -- pullback through a chart: the jacobian weights of norm_expansion_check ----


def _half_disk_reference(n):
    """Gauss-Legendre polar rule on the upper unit half-disk: y, t, weights."""
    x, w = np.polynomial.legendre.leggauss(n)
    rho, theta = 0.5 * (x + 1.0), 0.5 * math.pi * (x + 1.0)
    R, T = np.meshgrid(rho, theta, indexing="ij")
    W = np.outer(0.5 * w, 0.5 * math.pi * w) * R
    return (R * np.cos(T)).ravel(), (R * np.sin(T)).ravel(), W.ravel()


def test_pullback_flat_weights_euclidean():
    loop = SQUARE
    chart = fermi_chart(loop, (0.5, 0.0))
    y, t, w = _half_disk_reference(24)
    # identity chart: the weights are the plain half-disk cell measures
    np.testing.assert_array_equal(chart.jacobian(0.1 * y, 0.1 * t), 1.0)
    np.testing.assert_array_equal(chart.boundary_jacobian(0.1 * y), 1.0)
    assert float(np.sum(w)) == pytest.approx(math.pi / 2.0, rel=1e-12)


def _euclidean_ball_integral(u_pow, eps, p):
    """Quadrature oracle for the p-modular of u over B_eps((1,0)) inside the disk.

    Polar coordinates around x0 = (1, 0): the disk interior corresponds to
    angles with cos(theta) < -r/2.
    """
    x0 = np.array([1.0, 0.0])

    def inner(r):
        t0 = math.acos(max(-1.0, -r / 2.0))
        val, _ = integrate.quad(
            lambda th: u_pow(x0 + r * np.array([math.cos(th), math.sin(th)])),
            t0,
            2 * math.pi - t0,
            limit=200,
        )
        return val * r

    val, _ = integrate.quad(inner, 0.0, eps, limit=200)
    return val


def test_pullback_norm_ratio_converges():
    p = 1.5
    loop = unit_disk_loop()
    chart = fermi_chart(loop, (1.0, 0.0))

    def u(x):
        x = np.atleast_2d(x)
        return 1.0 + 0.5 * x[:, 0] - 0.25 * x[:, 1]

    y, t, w = _half_disk_reference(40)
    ratios = []
    for eps in (0.2, 0.1, 0.05):
        # Phi(y, t) on the unit disk at (1, 0): the boundary point
        # (sqrt(1 - y^2), y) moved inward by t along its normal
        ys, ts = eps * y, eps * t
        world = (1.0 - ts)[:, None] * np.stack([np.sqrt(1.0 - ys * ys), ys], axis=1)
        weights = w * chart.jacobian(ys, ts)
        ref_mod = float(np.sum(weights * np.abs(u(world)) ** p))
        ref_norm = (eps**2 * ref_mod) ** (1 / p)
        eu_mod = _euclidean_ball_integral(
            lambda x: abs(float(u(x[None, :])[0])) ** p, eps, p
        )
        ratios.append((eu_mod ** (1 / p)) / ref_norm)
    assert abs(ratios[-1] - 1.0) < abs(ratios[0] - 1.0)
    assert ratios[-1] == pytest.approx(1.0, abs=0.05)


def test_pullback_boundary_measure():
    loop = unit_disk_loop()
    chart = fermi_chart(loop, (1.0, 0.0))
    eps = 0.1
    xg, wg = np.polynomial.legendre.leggauss(64)
    # the chart boundary patch has arclength 2*eps*arcsin-ish; jacobian-weighted
    # reference measure times eps equals the exact arc length
    arc_measure = eps * float(np.sum(wg * chart.boundary_jacobian(eps * xg)))
    # exact: integral over y in [-eps, eps] of sqrt(1 + psi'(y)^2)
    exact, _ = integrate.quad(lambda y: 1.0 / math.sqrt(1 - y * y), -eps, eps)
    assert arc_measure == pytest.approx(exact, rel=1e-10)


def test_arc_projection():
    arc = CircularArc((0.0, 0.0), 2.0, 0.0, math.pi)
    s, d = arc.project((0.0, 2.5))
    assert d == pytest.approx(0.5)
    assert s == pytest.approx(math.pi)
    seg = Segment((0.0, 0.0), (2.0, 0.0))
    s, d = seg.project((0.5, 0.3))
    assert s == pytest.approx(0.5) and d == pytest.approx(0.3)


# -- mesh filters --------------------------------------------------------------


def _even_odd_reference(points, ring):
    """Every point against every chord, one chord at a time."""
    x, y = points[:, 0], points[:, 1]
    inside = np.zeros(len(points), dtype=bool)
    for (a0, b0), (a1, b1) in zip(ring, np.roll(ring, -1, axis=0)):
        cross = (b0 > y) != (b1 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = a0 + (y - b0) * (a1 - a0) / (b1 - b0)
        inside ^= cross & (x < xi)
    return inside


@pytest.mark.parametrize(
    "loop",
    [SQUARE, L_SHAPE, COMB, unit_disk_loop(1.3, (0.2, -0.1))],
    ids=["square", "l-shape", "comb", "disk"],
)
def test_points_in_polygon_matches_even_odd_reference(loop):
    ring, _ = loop.polyline(0.07)
    rng = np.random.default_rng(3)
    lo, hi = ring.min(axis=0) - 0.2, ring.max(axis=0) + 0.2
    levels = np.unique(ring[:, 1])
    on_levels = np.stack([rng.uniform(lo[0], hi[0], size=4 * len(levels)),
                          np.repeat(levels, 4)], axis=1)
    points = np.concatenate([
        rng.uniform(lo, hi, size=(10_000, 2)),
        on_levels,
        ring,
        0.5 * (ring + np.roll(ring, -1, axis=0)),  # chord midpoints, horizontal ones too
    ])
    got = points_in_polygon(points, ring)
    assert got.dtype == bool
    assert np.array_equal(got, _even_odd_reference(points, ring))
    assert 0 < np.count_nonzero(got) < len(points)


# the gamma square of the mesh-fine benchmark: offset and slightly enlarged
OFFSET_SQUARE = polygon_loop([(0.03, -0.07), (1.037, -0.07), (1.037, 0.937), (0.03, 0.937)])


@pytest.mark.parametrize("loop", [unit_disk_loop(), SQUARE, L_SHAPE, COMB, OFFSET_SQUARE],
                         ids=["disk", "square", "l-shape", "comb", "gamma-square"])
@pytest.mark.parametrize("h", [0.1, 0.03])
def test_far_from_ring_matches_dense_distance(loop, h):
    """With the nearest-vertex query _mesh_once makes, bounded at 4
    spacings, the mask is the one every chord gives."""
    for spacing in _tried_spacings(h):
        ring, _ = loop.polyline(spacing)
        lattice = geometry._hex_lattice(ring.min(axis=0), ring.max(axis=0), spacing)[0]
        tree = cKDTree(ring)
        near, _ = tree.query(lattice, distance_upper_bound=4.0 * spacing)
        dense = distance_to_segments(lattice, ring, np.roll(ring, -1, axis=0))
        assert np.array_equal(far_from_ring(lattice, ring, 0.55 * spacing, tree, near),
                              dense >= 0.55 * spacing)


def test_distance_to_segments_pairs_take_the_nearest_listed_segment():
    ring, _ = COMB.polyline(0.3)
    ends = np.roll(ring, -1, axis=0)
    pts = np.random.default_rng(5).uniform(-0.5, 3.5, size=(200, 2))
    one_by_one = np.stack([distance_to_segments(pts, ring[k:k + 1], ends[k:k + 1])
                           for k in range(len(ring))], axis=1)
    assert np.array_equal(distance_to_segments(pts, ring, ends), one_by_one.min(axis=1))
    i = np.repeat(np.arange(100), 3)
    k = np.tile([0, 5, 9], 100)
    got = distance_to_segments(pts, ring, ends, (i, k))
    assert np.array_equal(got[:100], one_by_one[:100, [0, 5, 9]].min(axis=1))
    assert np.all(np.isinf(got[100:]))


# -- the spacing rule --------------------------------------------------------------

HALF_DISK = BoundaryLoop((Segment((-1.0, 0.0), (1.0, 0.0)),
                          CircularArc((0.0, 0.0), 1.0, 0.0, math.pi)))
MESH_DOMAINS = {
    "disk": (unit_disk_loop(), (), 1.0),
    "square-gamma": (SQUARE, (3,), 1.0),
    "l-shape": (L_SHAPE, (), 1.0),
    "half-disk": (HALF_DISK, (0,), 1.0),
    "comb": (COMB, (), 1.0),
    "small-disk": (unit_disk_loop(radius=0.05), (), 0.05),
}


def _tried_spacings(h):
    """The lattice spacings mesh_domain tries, in order: (0.62 h) 0.8^k."""
    spacing, tried = 0.62 * h, []
    for _ in range(3):
        spacing *= 0.8
        tried.append(spacing)
    return tried


def _mesh_domain_reference(loop, h, gamma):
    """One full try per spacing of _tried_spacings; the first that reaches h."""
    for spacing in _tried_spacings(h):
        try:
            dom = geometry._mesh_once(loop, spacing, set(gamma))
        except GeometryError:
            continue
        if dom.mesh_size() <= h:
            return dom
    raise GeometryError("could not reach the requested mesh size")


MESH_HS = (0.5, 0.3, 0.24, 0.2, 0.18, 0.15, 0.1, 0.04)
FINE_BENCHMARK_MESHES = pytest.mark.parametrize(
    "loop, h, gamma",
    [(unit_disk_loop(), 0.03, ()), (SQUARE, 0.025, (3,)), (HALF_DISK, 0.03, (0,))],
    ids=["disk", "square-gamma", "half-disk"],
)


@pytest.mark.parametrize("name", list(MESH_DOMAINS))
def test_mesh_domain_equals_the_all_full_tries_loop(name):
    loop, gamma, scale = MESH_DOMAINS[name]
    for h in MESH_HS:
        h *= scale
        got = mesh_domain(loop, h, gamma_arcs=gamma)
        want = _mesh_domain_reference(loop, h, gamma)
        for key in ("vertices", "triangles", "boundary_edges", "edge_arc", "gamma_edges"):
            a, b = getattr(got, key), getattr(want, key)
            assert a.dtype == b.dtype and np.array_equal(a, b), (h, key)


@FINE_BENCHMARK_MESHES
def test_fine_benchmark_meshes_take_one_full_try(monkeypatch, loop, h, gamma):
    tried, once = [], geometry._mesh_once
    monkeypatch.setattr(geometry, "_mesh_once",
                        lambda loop, s, *a: tried.append(s) or once(loop, s, *a))
    dom = mesh_domain(loop, h, gamma_arcs=gamma)
    assert dom.mesh_size() <= h
    assert tried == [0.62 * h * 0.8]


def _longest_triangle_side(dom):
    v, t = dom.vertices, dom.triangles
    return float(np.max([np.linalg.norm(v[t[:, i]] - v[t[:, j]], axis=1)
                         for i, j in ((0, 1), (1, 2), (2, 0))]))


@pytest.mark.parametrize("name", list(MESH_DOMAINS))
def test_mesh_size_from_the_edge_table_is_the_longest_triangle_side(name):
    loop, gamma, scale = MESH_DOMAINS[name]
    for h in (0.3, 0.1):
        dom = mesh_domain(loop, h * scale, gamma_arcs=gamma)
        sub, _ = dom.submesh(dom.vertices[0], 0.5 * scale)
        # mesh_domain and submesh hand their edge tables to the new mesh
        assert "edges" in dom._cache and "edges" in sub._cache
        # a refined mesh builds its table on first use
        fine = dom.refine()[0]
        assert "edges" not in fine._cache
        for d in (dom, sub, fine):
            assert d.mesh_size() == _longest_triangle_side(d)
            for a, b in zip(d.edges(), geometry.edge_table(d.triangles)):
                assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("name", list(MESH_DOMAINS))
def test_midpoint_rule_reads_each_side_from_its_two_ends(name):
    loop, gamma, scale = MESH_DOMAINS[name]
    dom = mesh_domain(loop, 0.2 * scale, gamma_arcs=gamma)
    sub, _ = dom.submesh(dom.vertices[0], 0.5 * scale)
    a = np.random.default_rng(3).standard_normal(dom.n_vertices)
    for d, x in ((dom, a), (sub, a[:sub.n_vertices]), (dom.refine()[0], dom.refine()[1] @ a)):
        pts, w, S, _, _ = d.interior_quadrature()
        t = d.triangles
        after = t[:, [1, 2, 0]]
        assert np.array_equal(pts, (0.5 * (d.vertices[t] + d.vertices[after])).reshape(-1, 2))
        assert np.array_equal(S @ x, (0.5 * (x[t] + x[after])).ravel())
        v = d.vertices
        e1, e2 = v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]]
        cross = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        assert np.array_equal(w, np.repeat(0.5 * np.abs(cross) / 3.0, 3))


# -- the triangles are the full Delaunay triangulation's ------------------------


def _canonical(triangles):
    """Each row rotated to start at its smallest vertex, the rows sorted."""
    t = np.asarray(triangles)
    t = np.take_along_axis(t, (np.argmin(t, axis=1)[:, None] + np.arange(3)) % 3, axis=1)
    return t[np.lexsort(t.T[::-1])]


def _full_delaunay(dom):
    """qhull on every point of the mesh, then the centroid, degeneracy and
    orientation filters, in canonical order."""
    pts = dom.vertices
    ring = pts[:len(dom.boundary_edges)]
    cells = Delaunay(pts).simplices
    cells = cells[points_in_polygon(pts[cells].mean(axis=1), ring)]
    a, b = pts[cells[:, 1]] - pts[cells[:, 0]], pts[cells[:, 2]] - pts[cells[:, 0]]
    area2 = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    scale = float(np.max(ring.max(axis=0) - ring.min(axis=0)))
    nondeg = np.abs(area2) > 1e-12 * scale**2
    cells, area2 = cells[nondeg], area2[nondeg]
    cells[area2 < 0] = cells[area2 < 0][:, ::-1]
    return _canonical(cells)


def _assert_full_delaunay_in_canonical_order(dom):
    t = dom.triangles
    assert np.array_equal(t, _full_delaunay(dom))
    a = dom.vertices[t[:, 1]] - dom.vertices[t[:, 0]]
    b = dom.vertices[t[:, 2]] - dom.vertices[t[:, 0]]
    assert np.all(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0] > 0)
    assert np.all(t[:, 0] < t[:, 1]) and np.all(t[:, 0] < t[:, 2])
    assert np.array_equal(np.lexsort(t.T[::-1]), np.arange(len(t)))


@pytest.mark.parametrize("name", list(MESH_DOMAINS))
def test_mesh_domain_is_the_full_delaunay(name):
    loop, gamma, scale = MESH_DOMAINS[name]
    for h in MESH_HS:
        _assert_full_delaunay_in_canonical_order(mesh_domain(loop, h * scale, gamma_arcs=gamma))


@FINE_BENCHMARK_MESHES
def test_fine_benchmark_meshes_are_the_full_delaunay(loop, h, gamma):
    _assert_full_delaunay_in_canonical_order(mesh_domain(loop, h, gamma_arcs=gamma))


def test_qhull_sees_only_the_boundary_band(monkeypatch):
    seen, delaunay = [], geometry.Delaunay
    monkeypatch.setattr(geometry, "Delaunay", lambda pts: seen.append(len(pts)) or delaunay(pts))
    shares = []
    for h in (0.12, 0.06, 0.03):
        dom = mesh_domain(unit_disk_loop(), h)
        shares.append(seen[-1] / dom.n_vertices)  # the try that was kept
    assert shares[-1] <= 0.15
    assert shares[0] > shares[1] > shares[2]


def test_mesh_once_refuses_triangles_that_do_not_tile_the_ring(monkeypatch):
    spacing = _tried_spacings(0.1)[0]
    assert geometry._mesh_once(unit_disk_loop(), spacing, set()).n_vertices > 0
    lattice = geometry._lattice_triangles
    monkeypatch.setattr(geometry, "_lattice_triangles",
                        lambda *a: np.concatenate([lattice(*a)] * 2))
    with pytest.raises(GeometryError, match="do not tile"):
        geometry._mesh_once(unit_disk_loop(), spacing, set())
