"""Convex equilateral polygons and their passage to equiangular ones.

A convex equilateral N-gon P determines the balanced sunburst of its
edge directions.  Pairing that sunburst with a regular N-sunburst and
solving for the holonomy-1 phase closes the orbit into a polygon whose
vertices ride the direction rays of P and whose edges are parallel to a
rotated regular star: a convex equiangular N-gon, unique up to scaling
the start radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import NotConvex, NotEquilateral
from .exact import Vec2, rotate, unit_from_angle
from .weave import (Sunburst, SunburstPair, orbit_points,
                    random_balanced_sunburst, regular_sunburst, solve_phase)

TWO_PI = 2.0 * math.pi

# Relative edge slack: above the rounding of unit edges chained in floats.
EQUILATERAL_TOL = 1e-12


@dataclass(frozen=True)
class Polygon:
    """Planar polygon, vertices listed once, counterclockwise when convex."""

    vertices: tuple

    def __init__(self, vertices):
        object.__setattr__(self, "vertices", tuple(vertices))

    @property
    def n(self) -> int:
        return len(self.vertices)

    def edge_vectors(self):
        v = self.vertices
        return [v[(i + 1) % self.n] - v[i] for i in range(self.n)]

    def signed_area(self) -> float:
        v = self.vertices
        return sum(float(v[i].cross(v[(i + 1) % self.n]))
                   for i in range(self.n)) / 2.0

    def is_convex(self) -> bool:
        e = self.edge_vectors()
        return all(e[i].cross(e[(i + 1) % self.n]) > 0 for i in range(self.n))

    def interior_angles(self):
        e = self.edge_vectors()
        out = []
        for i in range(self.n):
            prev, cur = e[i - 1], e[i]
            turn = math.atan2(float(prev.cross(cur)), float(prev.dot(cur)))
            out.append(math.pi - turn)
        return out

    def edge_lengths(self):
        return [e.norm() for e in self.edge_vectors()]

    def translated(self, t: Vec2) -> "Polygon":
        return Polygon(v + t for v in self.vertices)

    def rotated(self, theta: float) -> "Polygon":
        u = unit_from_angle(theta)
        return Polygon(rotate(v, u) for v in self.vertices)

    def scaled(self, k) -> "Polygon":
        return Polygon(v * k for v in self.vertices)

    def reflected(self) -> "Polygon":
        """Mirror across the x axis; reverses orientation."""
        return Polygon(Vec2(v.x, -v.y) for v in self.vertices)


def regular_equilateral(n: int, phase: float = 0.0) -> Polygon:
    """Regular n-gon with unit edges, built by chaining edge directions."""
    p = Vec2(0.0, 0.0)
    verts = []
    for k in range(n):
        verts.append(p)
        p = p + unit_from_angle(phase + TWO_PI * k / n)
    return Polygon(verts)


def random_convex_equilateral(rng, n: int) -> Polygon:
    """Chains the rays of a random balanced sunburst into a closed
    convex polygon with equal edges.
    """
    burst = random_balanced_sunburst(rng, n)
    p = Vec2(0.0, 0.0)
    verts = []
    for t in burst.angles:
        verts.append(p)
        p = p + unit_from_angle(t)
    return Polygon(verts)


def check_equilateral(poly: Polygon) -> float:
    """Common edge length; raises unless all edges agree to
    EQUILATERAL_TOL (relative) and the polygon has at least 3 vertices
    and is strictly convex counterclockwise.
    """
    if poly.n < 3 or not poly.is_convex():
        raise NotConvex("polygon is not strictly convex counterclockwise")
    lengths = poly.edge_lengths()
    side = lengths[0]
    if any(abs(l - side) > EQUILATERAL_TOL * max(side, 1.0)
           for l in lengths):
        raise NotEquilateral(f"edge lengths vary: {min(lengths)!r} "
                             f"to {max(lengths)!r}")
    return side


def directions_to_sunburst(poly: Polygon) -> Sunburst:
    """The balanced sunburst of edge directions of a convex equilateral
    polygon: one angle per edge vector, after the polygon is checked.
    """
    check_equilateral(poly)
    return Sunburst(math.atan2(float(e.y), float(e.x))
                    for e in poly.edge_vectors())


class EquiangularSolution(NamedTuple):
    polygon: Polygon
    phase: float
    residual: float


def solve_equiangular(poly: Polygon, radius: float = 1.0
                      ) -> EquiangularSolution:
    """Closed holonomy-1 orbit for (edge-direction sunburst, regular).

    The returned polygon has vertex 0 at distance radius along the first
    direction ray; residual is the closure error of the orbit loop.
    """
    burst = directions_to_sunburst(poly)
    regular = regular_sunburst(poly.n)
    phase = solve_phase(burst, regular)
    pts = orbit_points(SunburstPair(burst, regular, phase), r0=radius)
    residual = (pts[-1] - pts[0]).norm()
    return EquiangularSolution(Polygon(pts[:poly.n]), phase, residual)


def equilateral_to_equiangular(poly: Polygon, radius: float = 1.0) -> Polygon:
    return solve_equiangular(poly, radius).polygon
