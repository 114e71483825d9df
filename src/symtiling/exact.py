"""Planar geometry kernel: rational scalars and vectors.

Scalars are polymorphic.  The same Vec2 works over `fractions.Fraction`
(exact mode, the default for square grids, where every predicate is
decided exactly) and over `float` (for configurations whose angles are
transcendental, such as a grid rotated by pi/4).  A Vec2 does not decide
its arithmetic: a `tilings.GridTiling` decides its own, from its four
basis entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True, slots=True)
class Vec2:
    x: Fraction | float | int
    y: Fraction | float | int

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __mul__(self, k) -> "Vec2":
        return Vec2(self.x * k, self.y * k)

    __rmul__ = __mul__

    def cross(self, other: "Vec2"):
        return self.x * other.y - self.y * other.x

    def perp(self) -> "Vec2":
        """Rotation by +90 degrees."""
        return Vec2(-self.y, self.x)

    def norm(self) -> float:
        return math.hypot(float(self.x), float(self.y))


def rational_circle_point(t) -> Vec2:
    """The unit-circle point ((1 - t^2) / (1 + t^2), 2t / (1 + t^2)).

    Rational t gives a point with exactly rational coordinates, so grids
    rotated by it stay inside exact arithmetic.  t is an int, a Fraction
    or a 'p/q' string; anything else, a float included, is a TypeError.
    """
    if not isinstance(t, (Fraction, int, str)):
        raise TypeError(f"not a rational: {t!r}")
    t = Fraction(t)
    d = 1 + t * t
    return Vec2((1 - t * t) / d, 2 * t / d)


def rotate(v: Vec2, u: Vec2) -> Vec2:
    """Rotate v by the unit vector u, as complex multiplication."""
    return Vec2(v.x * u.x - v.y * u.y, v.x * u.y + v.y * u.x)


def unit_from_angle(theta: float) -> Vec2:
    return Vec2(math.cos(theta), math.sin(theta))


