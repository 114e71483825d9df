import math
import random

import pytest

from symtiling.errors import NotConvex, NotEquilateral
from symtiling.exact import Vec2
from symtiling.linkage import (Polygon, check_equilateral,
                               directions_to_sunburst,
                               random_convex_equilateral, regular_equilateral,
                               solve_equiangular)

from oracles import dot, interior_angles, is_balanced, polygon_area

TWO_PI = 2.0 * math.pi


def test_regular_equilateral_shape():
    for n in (3, 5, 8):
        poly = regular_equilateral(n)
        assert poly.n == n
        side = check_equilateral(poly)
        assert abs(side - 1.0) <= 1e-12
        assert poly.is_convex()
        assert polygon_area(poly) > 0
        target = math.pi * (n - 2) / n
        assert all(abs(a - target) <= 1e-12 for a in interior_angles(poly))


def test_interior_angles_sum():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(3, 10)
        poly = random_convex_equilateral(rng, n)
        total = sum(interior_angles(poly))
        assert abs(total - math.pi * (n - 2)) <= 1e-9


def test_polygon_transforms_preserve_shape():
    rng = random.Random(21)
    poly = random_convex_equilateral(rng, 6)
    side = check_equilateral(poly)
    moved = poly.translated(Vec2(3.0, -2.0)).rotated(0.7)
    assert abs(check_equilateral(moved) - side) <= 1e-12
    assert abs(polygon_area(moved) - polygon_area(poly)) <= 1e-9
    scaled = Polygon(v * 2.5 for v in poly.vertices)
    assert abs(check_equilateral(scaled) - 2.5 * side) <= 1e-12
    mirrored = Polygon(Vec2(v.x, -v.y) for v in poly.vertices)
    assert polygon_area(mirrored) < 0
    assert not mirrored.is_convex()


def test_check_equilateral_rejects_bad_polygons():
    square = Polygon([Vec2(0.0, 0.0), Vec2(2.0, 0.0), Vec2(2.0, 1.0),
                      Vec2(0.0, 1.0)])
    reflex = Polygon([Vec2(0.0, 0.0), Vec2(2.0, 0.0), Vec2(1.0, 0.5),
                      Vec2(1.0, 2.0)])
    for check in (check_equilateral, solve_equiangular):
        with pytest.raises(NotEquilateral):
            check(square)
        with pytest.raises(NotConvex):
            check(reflex)


def test_directions_form_balanced_sunburst():
    rng = random.Random(33)
    for _ in range(30):
        n = rng.randint(3, 10)
        poly = random_convex_equilateral(rng, n)
        burst = directions_to_sunburst(poly)
        assert burst.n == n
        assert is_balanced(burst)


def test_solve_equiangular_produces_equiangular_polygon():
    rng = random.Random(55)
    for _ in range(25):
        n = rng.randint(3, 9)
        poly = random_convex_equilateral(rng, n)
        sol = solve_equiangular(poly)
        out = sol.polygon
        assert out.n == n
        assert out.is_convex()
        assert sol.residual <= 1e-9
        target = math.pi * (n - 2) / n
        for angle in interior_angles(out):
            assert abs(angle - target) <= 1e-9
        edges = out.edges
        for i in range(n):
            cur, nxt = edges[i], edges[(i + 1) % n]
            turn = math.atan2(float(cur.cross(nxt)), float(dot(cur, nxt)))
            assert abs(turn - TWO_PI / n) <= 1e-9


def test_solve_equiangular_radius_scales_output():
    rng = random.Random(4)
    poly = random_convex_equilateral(rng, 7)
    small = solve_equiangular(poly, radius=1.0).polygon
    large = solve_equiangular(poly, radius=2.0).polygon
    for p, q in zip(small.vertices, large.vertices):
        assert (q - p * 2.0).norm() <= 1e-9


def test_regular_input_is_solver_fixed_shape():
    n = 5
    poly = regular_equilateral(n)
    out = solve_equiangular(poly).polygon
    lengths = out.edge_lengths()
    assert max(lengths) - min(lengths) <= 1e-9
    target = math.pi * (n - 2) / n
    assert all(abs(a - target) <= 1e-9 for a in interior_angles(out))
