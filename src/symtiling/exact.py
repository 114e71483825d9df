"""Planar geometry kernel: rational scalars and vectors.

Scalars are polymorphic.  The same Vec2 works over `fractions.Fraction`
(exact mode, the default for square grids, where every predicate is
decided exactly) and over `float` (for configurations whose angles are
transcendental, such as a grid rotated by pi/4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def rational(value) -> Fraction:
    """Parse a rational from an int, a Fraction, or a 'p/q' string."""
    if isinstance(value, (Fraction, int)):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not a rational: {value!r}")


def bit_length(value) -> int:
    """Size diagnostic: max bit length of numerator and denominator.

    Floats count as one mantissa.  The diagnostic is only informative in
    exact mode, where growth tracks the arithmetic complexity of an orbit.
    """
    if isinstance(value, float):
        return 53
    f = Fraction(value)
    return max(f.numerator.bit_length(), f.denominator.bit_length())


@dataclass(frozen=True, slots=True)
class Vec2:
    x: Fraction | float | int
    y: Fraction | float | int

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def __mul__(self, k) -> "Vec2":
        return Vec2(self.x * k, self.y * k)

    __rmul__ = __mul__

    def dot(self, other: "Vec2"):
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Vec2"):
        return self.x * other.y - self.y * other.x

    def perp(self) -> "Vec2":
        """Rotation by +90 degrees."""
        return Vec2(-self.y, self.x)

    def norm2(self):
        return self.x * self.x + self.y * self.y

    def norm(self) -> float:
        return math.hypot(float(self.x), float(self.y))

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def is_exact(self) -> bool:
        return not (isinstance(self.x, float) or isinstance(self.y, float))

    def exactify(self) -> "Vec2":
        """Coerce integer components to Fraction so that later divisions
        stay exact instead of falling into float true division.  Other
        scalar types (Fraction, gmpy2.mpq, floats) pass through.
        """
        x = Fraction(self.x) if isinstance(self.x, int) else self.x
        y = Fraction(self.y) if isinstance(self.y, int) else self.y
        return Vec2(x, y)


def rational_circle_point(t) -> Vec2:
    """The unit-circle point ((1 - t^2) / (1 + t^2), 2t / (1 + t^2)).

    Rational t gives a point with exactly rational coordinates, so grids
    rotated by it stay inside exact arithmetic.
    """
    t = rational(t)
    d = 1 + t * t
    return Vec2((1 - t * t) / d, 2 * t / d)


def rotate(v: Vec2, u: Vec2) -> Vec2:
    """Rotate v by the unit vector u, as complex multiplication."""
    return Vec2(v.x * u.x - v.y * u.y, v.x * u.y + v.y * u.x)


def unit_from_angle(theta: float) -> Vec2:
    return Vec2(math.cos(theta), math.sin(theta))


