import math
import random

import numpy as np

from symtiling.exact import Vec2
from symtiling.linkage import (Polygon, random_convex_equilateral,
                               regular_equilateral, solve_equiangular)
from symtiling.moduli import (HyperbolicPoint, area_form, cyclic_fixed_point,
                              pentagon_walls, to_hyperbolic)
from symtiling.pipeline import equiangular_offsets, equilateral_to_hyperbolic

from oracles import (as_array, cyclic_matrix, family_directions,
                     family_normals, hyperbolic_distance, polygon_area,
                     quotient_map, vertices_from_offsets)

TWO_PI = 2.0 * math.pi


def oracle_offsets_from_equiangular(poly: Polygon, tol: float = 1e-6
                                    ) -> np.ndarray:
    """Offsets of the rotated copy of an equiangular polygon whose edge
    lines sit in the canonical direction families.

    Edge j runs from vertex j to vertex j+1; after the aligning rotation
    its traversal direction is -d_k for family k = j+1 mod N, matching
    the left-normal offset convention.  A misaligned input (not
    equiangular in traversal order) raises ValueError.
    """
    n = poly.n
    e = poly.edges
    phi0 = math.atan2(float(e[0].y), float(e[0].x))
    rho = (TWO_PI / n + math.pi) - phi0
    rotated = poly.rotated(rho)
    verts = np.array([[float(v.x), float(v.y)] for v in rotated.vertices])
    d = family_directions(n)
    nm = family_normals(n)
    scale = max(1.0, float(np.max(np.abs(verts))))
    s = np.empty(n)
    for j in range(n):
        k = (j + 1) % n
        a = verts[j]
        b = verts[(j + 1) % n]
        u = b - a
        u = u / np.hypot(*u)
        if float(u @ d[k]) > -1.0 + tol:
            raise ValueError(f"edge {j} does not align with family {k}")
        sa = float(nm[k] @ a)
        sb = float(nm[k] @ b)
        if abs(sa - sb) > tol * scale:
            raise ValueError(f"edge {j} endpoints disagree on offset {k}")
        s[k] = (sa + sb) / 2.0
    return s


def test_offsets_match_the_rotation_oracle():
    rng = random.Random(7)
    for n in (4, 5, 6, 7, 8, 32):
        for _ in range(4):
            sol = solve_equiangular(random_convex_equilateral(rng, n))
            s = equiangular_offsets(sol)
            oracle = oracle_offsets_from_equiangular(sol.polygon)
            assert np.max(np.abs(s - oracle)) <= 1e-11


def test_offsets_reproduce_the_aligned_polygon():
    rng = random.Random(18)
    for _ in range(15):
        n = rng.randint(4, 8)
        poly = random_convex_equilateral(rng, n)
        sol = solve_equiangular(poly)
        s = equiangular_offsets(sol)
        verts = vertices_from_offsets(s)
        area = 0.5 * abs(sum(
            verts[i][0] * verts[(i + 1) % n][1]
            - verts[(i + 1) % n][0] * verts[i][1] for i in range(n)))
        assert abs(area - abs(polygon_area(sol.polygon))) <= 1e-6
        lengths = sorted(np.hypot(*(verts[(i + 1) % n] - verts[i]))
                         for i in range(n))
        target = sorted(sol.polygon.edge_lengths())
        assert np.allclose(lengths, target, atol=1e-6)


def test_regular_pentagon_hits_the_cyclic_fixed_point():
    poly = regular_equilateral(5)
    p = equilateral_to_hyperbolic(poly)
    fp = cyclic_fixed_point(5)
    assert np.max(np.abs(as_array(p) - as_array(fp))) <= 1e-9


def test_images_land_inside_the_wall_pentagon():
    rng = random.Random(40)
    form = area_form(5)
    walls = pentagon_walls()
    for _ in range(30):
        poly = random_convex_equilateral(rng, 5)
        p = equilateral_to_hyperbolic(poly)
        assert all(form.pairing(p.coords, w) > 0 for w in walls)


def test_plane_isometries_do_not_move_the_image():
    rng = random.Random(63)
    for _ in range(12):
        poly = random_convex_equilateral(rng, 5)
        p = equilateral_to_hyperbolic(poly)
        moved = poly.rotated(rng.uniform(0, 2 * math.pi)).translated(
            Vec2(rng.uniform(-5, 5), rng.uniform(-5, 5)))
        q = equilateral_to_hyperbolic(moved)
        assert np.max(np.abs(as_array(p) - as_array(q))) <= 1e-9


def test_reflections_act_by_isometries():
    rng = random.Random(29)
    form = area_form(5)
    fp = cyclic_fixed_point(5)
    for _ in range(10):
        poly = random_convex_equilateral(rng, 5)
        mirrored = Polygon(reversed([Vec2(v.x, -v.y) for v in poly.vertices]))
        p = equilateral_to_hyperbolic(poly)
        q = equilateral_to_hyperbolic(mirrored)
        assert abs(hyperbolic_distance(p, fp)
                   - hyperbolic_distance(q, fp)) <= 1e-9
        assert all(form.pairing(q.coords, w) > 0
                   for w in pentagon_walls())


def test_orbit_dilation_cancels_in_the_image():
    rng = random.Random(86)
    for _ in range(10):
        poly = random_convex_equilateral(rng, 5)
        p = equilateral_to_hyperbolic(poly)
        q = to_hyperbolic(equiangular_offsets(solve_equiangular(poly, 3.7)))
        assert np.max(np.abs(as_array(p) - as_array(q))) <= 1e-10


def test_cyclic_relabel_is_the_induced_isometry():
    """Rotating the vertex list by shift moves the image by the shift-th
    power of the isometry that the cyclic offset relabeling induces."""

    def discrepancy(poly, shift):
        shifted = Polygon(poly.vertices[shift:] + poly.vertices[:shift])
        cq = quotient_map(cyclic_matrix(poly.n))
        moved = (np.linalg.matrix_power(cq, shift)
                 @ as_array(equilateral_to_hyperbolic(poly)))
        return hyperbolic_distance(HyperbolicPoint(poly.n, tuple(moved)),
                                   equilateral_to_hyperbolic(shifted))

    rng = random.Random(52)
    for _ in range(10):
        poly = random_convex_equilateral(rng, 5)
        shift = rng.randrange(1, 5)
        assert discrepancy(poly, shift) <= 1e-9
    assert discrepancy(random_convex_equilateral(rng, 5), 5) <= 1e-9


def test_relabeling_preserves_pairwise_distances():
    rng = random.Random(95)
    for _ in range(8):
        pa = random_convex_equilateral(rng, 5)
        pb = random_convex_equilateral(rng, 5)
        before = hyperbolic_distance(equilateral_to_hyperbolic(pa),
                                     equilateral_to_hyperbolic(pb))
        sa = Polygon(pa.vertices[2:] + pa.vertices[:2])
        sb = Polygon(pb.vertices[2:] + pb.vertices[:2])
        after = hyperbolic_distance(equilateral_to_hyperbolic(sa),
                                    equilateral_to_hyperbolic(sb))
        assert abs(before - after) <= 1e-9
