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
from functools import cached_property
from typing import NamedTuple

from .errors import NotConvex, NotEquilateral
from .exact import Vec2, rotate, unit_from_angle
from .weave import (Sunburst, SunburstPair, orbit_points,
                    random_balanced_sunburst, regular_sunburst, solve_phase)

# Relative edge slack: above the rounding of unit edges chained in floats.
EQUILATERAL_TOL = 1e-12


@dataclass(frozen=True)
class Polygon:
    """Planar polygon, vertices listed once, counterclockwise when convex.
    `edges` holds its edge vectors, edge j from vertex j to vertex j + 1,
    computed once, on first read, and shared by the edge predicates and
    measures."""

    vertices: tuple

    def __init__(self, vertices):
        object.__setattr__(self, "vertices", tuple(vertices))

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def edges(self) -> tuple:
        v = self.vertices
        return tuple(q - p for p, q in zip(v, v[1:] + v[:1]))

    def is_convex(self) -> bool:
        e = self.edges
        return all(d.cross(f) > 0 for d, f in zip(e, e[1:] + e[:1]))

    def edge_lengths(self):
        return [e.norm() for e in self.edges]

    def translated(self, t: Vec2) -> "Polygon":
        return Polygon(v + t for v in self.vertices)

    def rotated(self, theta: float) -> "Polygon":
        u = unit_from_angle(theta)
        return Polygon(rotate(v, u) for v in self.vertices)


def _chain(burst: Sunburst) -> Polygon:
    """Unit edges along the rays of a balanced sunburst, chained from the
    origin into a closed convex polygon with equal edges."""
    p = Vec2(0.0, 0.0)
    verts = []
    for t in burst.angles:
        verts.append(p)
        p = p + unit_from_angle(t)
    return Polygon(verts)


def regular_equilateral(n: int) -> Polygon:
    """Regular n-gon with unit edges: the regular sunburst chained."""
    return _chain(regular_sunburst(n))


def random_convex_equilateral(rng, n: int) -> Polygon:
    """A random balanced sunburst chained."""
    return _chain(random_balanced_sunburst(rng, n))


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
    """The balanced sunburst of edge directions of a polygon that
    check_equilateral passes: one angle per edge vector.  Sunburst
    refuses the directions of a polygon that is not convex.
    """
    return Sunburst(math.atan2(float(e.y), float(e.x))
                    for e in poly.edges)


class EquiangularSolution(NamedTuple):
    polygon: Polygon
    phase: float
    residual: float
    side: float     # the common edge length of the input polygon


def solve_equiangular(poly: Polygon, radius: float = 1.0
                      ) -> EquiangularSolution:
    """Closed holonomy-1 orbit for (edge-direction sunburst, regular).

    The input is checked by check_equilateral first.  The returned
    polygon has vertex 0 at distance radius along the first direction
    ray; residual is the closure error of the orbit loop.
    """
    side = check_equilateral(poly)
    burst = directions_to_sunburst(poly)
    regular = regular_sunburst(poly.n)
    phase = solve_phase(burst, regular)
    pts = orbit_points(SunburstPair(burst, regular, phase), r0=radius)
    residual = (pts[-1] - pts[0]).norm()
    return EquiangularSolution(Polygon(pts[:poly.n]), phase, residual, side)
