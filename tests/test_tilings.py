import math
import random
from fractions import Fraction

import pytest

from symtiling.errors import VertexHit
from symtiling.exact import Vec2, rational_circle_point, rotate
from symtiling.tilings import GridEdge, GridTiling, is_transverse


def rand_fraction(rng, span=8, den=40):
    return Fraction(rng.randint(-span * den, span * den), den)


def brute_first_hit(tiling, start, travel, window=200):
    """Reference crossing finder: scan every grid line in a window and
    keep the smallest positive parameter.  Returns (s, axis, line) or the
    string 'vertex' when the nearest crossing is a lattice point."""
    ls = tiling.to_local(start)
    lt = tiling.to_local(travel)
    best = None
    for axis, p0, d, q0, qd in (("v", ls.x, lt.x, ls.y, lt.y),
                                ("h", ls.y, lt.y, ls.x, lt.x)):
        if d == 0:
            continue
        for n in range(-window, window + 1):
            s = (n - p0) / d
            if s <= 0:
                continue
            if best is None or s < best[0]:
                cross = q0 + s * qd
                best = (s, axis, n, cross)
    s, axis, n, cross = best
    if cross == math.floor(cross):
        return "vertex"
    return s, axis, n, math.floor(cross)


def test_first_hit_matches_brute_force_scan():
    rng = random.Random(23)
    grids = [GridTiling.standard(),
             GridTiling.from_parameter(Fraction(1, 3)),
             GridTiling.from_parameter(Fraction(-2, 7))]
    checked = 0
    for _ in range(300):
        tiling = rng.choice(grids)
        start = Vec2(rand_fraction(rng), rand_fraction(rng))
        travel = Vec2(rand_fraction(rng, 3), rand_fraction(rng, 3))
        if travel.is_zero():
            continue
        expect = brute_first_hit(tiling, start, travel)
        if expect == "vertex":
            with pytest.raises(VertexHit):
                tiling.first_hit(start, travel)
            continue
        s, axis, line, cell = expect
        point, edge = tiling.first_hit(start, travel)
        assert point == start + travel * s
        assert edge == GridEdge(axis, line, cell)
        checked += 1
    assert checked > 200


def test_first_hit_starts_on_edge():
    tiling = GridTiling.standard()
    start = Vec2(Fraction(0), Fraction(1, 3))
    point, edge = tiling.first_hit(start, Vec2(1, 0))
    assert edge == GridEdge("v", 1, 0)
    assert point == Vec2(1, Fraction(1, 3))
    point, edge = tiling.first_hit(start, Vec2(-1, 0))
    assert edge == GridEdge("v", -1, 0)


def test_first_hit_float_skips_resident_edge():
    tiling = GridTiling(Vec2(1.0, 0.0), Vec2(0.0, 1.0))
    start = Vec2(1e-12, 0.25)
    point, edge = tiling.first_hit(start, Vec2(1.0, 0.0))
    assert edge.line == 1


def test_first_hit_float_far_from_origin():
    """The absolute float tolerance holds 10^5 cells out: moving the
    start by a lattice vector moves the hit point and the edge by it."""
    rng = random.Random(31)
    tiling = GridTiling.rotated(Vec2(math.cos(1.0), math.sin(1.0)))
    dx, dy = 10 ** 5, -10 ** 5
    shift = tiling.to_world(Vec2(float(dx), float(dy)))
    for _ in range(200):
        edge = GridEdge(rng.choice("vh"), 0, 0)
        particle = tiling.particle_on(edge, rng.uniform(0.01, 0.99),
                                      rng.choice((1, -1)))
        angle = rng.uniform(-1.5, 1.5)
        travel = rotate(particle.direction,
                        Vec2(math.cos(angle), math.sin(angle)))
        try:
            point, hit = tiling.first_hit(particle.point, travel)
        except VertexHit:
            continue
        far_point, far_hit = tiling.first_hit(particle.point + shift, travel)
        assert (far_point - (point + shift)).norm() <= 1e-9
        line, cell = (dx, dy) if hit.axis == "v" else (dy, dx)
        assert far_hit == GridEdge(hit.axis, hit.line + line,
                                   hit.cell + cell)


def test_particle_on_rejects_fractions_off_the_open_edge():
    exact = GridTiling.standard()
    floats = GridTiling(Vec2(1.0, 0.0), Vec2(0.5, 1.0))
    for tiling, fracs in ((exact, (Fraction(0), Fraction(1), Fraction(2),
                                   Fraction(-1, 3))),
                          (floats, (0.0, 1.0, 2.0, -0.5, math.nan))):
        for frac in fracs:
            with pytest.raises(ValueError):
                tiling.particle_on(GridEdge("v", 0, 0), frac)
    inside = exact.particle_on(GridEdge("h", 0, 0), Fraction(1, 9))
    assert inside.point == Vec2(Fraction(1, 9), 0)


def test_local_world_roundtrip():
    rng = random.Random(4)
    tiling = GridTiling.from_parameter(Fraction(7, 11)).transformed(
        2, 1, -1, 3)
    for _ in range(100):
        p = Vec2(rand_fraction(rng), rand_fraction(rng))
        assert tiling.to_world(tiling.to_local(p)) == p
        assert tiling.to_local(tiling.to_world(p)) == p


def test_point_on_and_particle_sides():
    tiling = GridTiling.standard()
    edge = GridEdge("v", 2, -1)
    p = tiling.point_on(edge, Fraction(1, 4))
    assert p == Vec2(2, Fraction(-3, 4))
    left = tiling.particle_on(edge, Fraction(1, 4), 1)
    right = tiling.particle_on(edge, Fraction(1, 4), -1)
    assert left.direction == Vec2(-1, 0)
    assert right.direction == Vec2(1, 0)
    h = GridEdge("h", 0, 3)
    assert tiling.point_on(h, Fraction(1, 2)) == Vec2(Fraction(7, 2), 0)
    assert tiling.particle_on(h, Fraction(1, 2), 1).direction == Vec2(0, 1)


def test_rotated_grid_has_unit_rational_basis():
    t = Fraction(7, 11)
    tiling = GridTiling.from_parameter(t)
    assert tiling.e1 == rational_circle_point(t)
    assert tiling.e1.norm2() == 1
    assert tiling.e1.cross(tiling.e2) == 1


def test_singular_basis_rejected():
    with pytest.raises(ValueError):
        GridTiling(Vec2(1, 2), Vec2(2, 4))


def test_transversality():
    a = GridTiling.standard()
    b = GridTiling.from_parameter(Fraction(1, 3))
    assert is_transverse(a, b)
    assert not is_transverse(a, a)
    assert not is_transverse(a, a.transformed(3, 0, 0, 2))
