import math
import random

import numpy as np

from symtiling.exact import Vec2
from symtiling.linkage import (Polygon, random_convex_equilateral,
                               regular_equilateral, solve_equiangular)
from symtiling.moduli import (area_form, cyclic_fixed_point,
                              family_directions, family_normals,
                              hyperbolic_distance, pentagon_walls,
                              vertices_from_offsets)
from symtiling.pipeline import (cyclic_relabel, equiangular_offsets,
                                equilateral_to_hyperbolic)

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
    e = poly.edge_vectors()
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
        assert abs(area - abs(sol.polygon.signed_area())) <= 1e-6
        lengths = sorted(np.hypot(*(verts[(i + 1) % n] - verts[i]))
                         for i in range(n))
        target = sorted(sol.polygon.edge_lengths())
        assert np.allclose(lengths, target, atol=1e-6)


def test_regular_pentagon_hits_the_cyclic_fixed_point():
    form = area_form(5)
    poly = regular_equilateral(5)
    p = equilateral_to_hyperbolic(poly, form=form)
    fp = cyclic_fixed_point(form)
    assert np.max(np.abs(p.as_array() - fp.as_array())) <= 1e-9


def test_images_land_inside_the_wall_pentagon():
    rng = random.Random(40)
    form = area_form(5)
    walls = pentagon_walls(form)
    for _ in range(30):
        poly = random_convex_equilateral(rng, 5)
        p = equilateral_to_hyperbolic(poly, form=form)
        assert all(form.pairing(p.as_array(), w) > 0 for w in walls)


def test_plane_isometries_do_not_move_the_image():
    rng = random.Random(63)
    form = area_form(5)
    for _ in range(12):
        poly = random_convex_equilateral(rng, 5)
        p = equilateral_to_hyperbolic(poly, form=form)
        moved = poly.rotated(rng.uniform(0, 2 * math.pi)).translated(
            Vec2(rng.uniform(-5, 5), rng.uniform(-5, 5)))
        q = equilateral_to_hyperbolic(moved, form=form)
        assert np.max(np.abs(p.as_array() - q.as_array())) <= 1e-9


def test_reflections_act_by_isometries():
    rng = random.Random(29)
    form = area_form(5)
    fp = cyclic_fixed_point(form)
    for _ in range(10):
        poly = random_convex_equilateral(rng, 5)
        mirrored = Polygon(list(reversed(poly.reflected().vertices)))
        p = equilateral_to_hyperbolic(poly, form=form)
        q = equilateral_to_hyperbolic(mirrored, form=form)
        assert abs(hyperbolic_distance(p, fp, form)
                   - hyperbolic_distance(q, fp, form)) <= 1e-9
        assert all(form.pairing(q.as_array(), w) > 0
                   for w in pentagon_walls(form))


def test_orbit_dilation_cancels_in_the_image():
    rng = random.Random(86)
    form = area_form(5)
    for _ in range(10):
        poly = random_convex_equilateral(rng, 5)
        p = equilateral_to_hyperbolic(poly, radius=1.0, form=form)
        q = equilateral_to_hyperbolic(poly, radius=3.7, form=form)
        assert np.max(np.abs(p.as_array() - q.as_array())) <= 1e-10


def test_cyclic_relabel_is_the_induced_isometry():
    rng = random.Random(52)
    form = area_form(5)
    for _ in range(10):
        poly = random_convex_equilateral(rng, 5)
        shift = rng.randrange(1, 5)
        report = cyclic_relabel(poly, shift, form)
        assert report.discrepancy <= 1e-9
    identity = cyclic_relabel(random_convex_equilateral(rng, 5), 5, form)
    assert identity.discrepancy <= 1e-9


def test_relabeling_preserves_pairwise_distances():
    rng = random.Random(95)
    form = area_form(5)
    for _ in range(8):
        pa = random_convex_equilateral(rng, 5)
        pb = random_convex_equilateral(rng, 5)
        before = hyperbolic_distance(equilateral_to_hyperbolic(pa, form=form),
                                     equilateral_to_hyperbolic(pb, form=form),
                                     form)
        sa = Polygon(pa.vertices[2:] + pa.vertices[:2])
        sb = Polygon(pb.vertices[2:] + pb.vertices[:2])
        after = hyperbolic_distance(equilateral_to_hyperbolic(sa, form=form),
                                    equilateral_to_hyperbolic(sb, form=form),
                                    form)
        assert abs(before - after) <= 1e-9
