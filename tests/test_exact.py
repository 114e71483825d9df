import math
import random
from fractions import Fraction

import pytest

from symtiling.exact import (Vec2, bit_length, rational,
                             rational_circle_point, rotate, unit_from_angle)


def rand_fraction(rng, span=50, den=50):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def rand_vec(rng):
    return Vec2(rand_fraction(rng), rand_fraction(rng))


def test_rational_parsing():
    assert rational("3/4") == Fraction(3, 4)
    assert rational(5) == Fraction(5)
    assert rational(Fraction(-2, 7)) == Fraction(-2, 7)
    with pytest.raises(TypeError):
        rational(0.5)


def test_bit_length_tracks_numerator_and_denominator():
    assert bit_length(Fraction(255, 16)) == 8
    assert bit_length(Fraction(1, 1024)) == 11
    assert bit_length(0) == 1
    big = Fraction(2 ** 300 + 1, 3)
    assert bit_length(big) == 301


def test_vec2_algebra_identities():
    rng = random.Random(11)
    for _ in range(200):
        u, v, w = rand_vec(rng), rand_vec(rng), rand_vec(rng)
        assert u.cross(v) == -v.cross(u)
        assert (u + v).cross(w) == u.cross(w) + v.cross(w)
        assert u.perp().dot(u) == 0
        assert u.perp().cross(u) == -u.norm2()
        assert (u - v) + v == u
        k = rand_fraction(rng)
        assert (u * k).cross(v) == k * u.cross(v)


def test_rational_circle_point_basics():
    assert rational_circle_point(0) == Vec2(1, 0)
    assert rational_circle_point(1) == Vec2(0, 1)
    p = rational_circle_point(Fraction(1, 3))
    assert (p.x, p.y) == (Fraction(4, 5), Fraction(3, 5))
    q = rational_circle_point(Fraction(7, 11))
    assert (q.x, q.y) == (Fraction(36, 85), Fraction(77, 85))


def test_rational_circle_point_is_on_unit_circle():
    rng = random.Random(5)
    for _ in range(300):
        t = rand_fraction(rng, span=200, den=200)
        p = rational_circle_point(t)
        assert p.x * p.x + p.y * p.y == 1
        assert isinstance(p.x, Fraction)


def test_rotation_roundtrip_is_exact():
    rng = random.Random(19)
    for _ in range(100):
        u = rational_circle_point(rand_fraction(rng, 30, 30))
        v = rand_vec(rng)
        assert rotate(rotate(v, u), Vec2(u.x, -u.y)) == v
        assert rotate(v, u).norm2() == v.norm2()


def test_unit_from_angle_roundtrip():
    rng = random.Random(3)
    for _ in range(100):
        theta = rng.uniform(-math.pi, math.pi)
        v = unit_from_angle(theta)
        assert math.isclose(math.atan2(v.y, v.x), theta, abs_tol=1e-12)
        assert math.isclose(float(v.norm2()), 1.0, abs_tol=1e-15)
