"""Tilings of the pair game: affine images of the integer grid, which
the billiard map in `dynamics` steps on.  Sunbursts, the finite fans of
rays whose paired orbits follow in closed form, live in `weave`.

Grid queries run in grid-local coordinates, where the edge set is the
integer grid itself.  A first-hit query then only compares the next
crossing on each axis, so it is O(1) and stays exact over rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import VertexHit
from .exact import Vec2, rational_circle_point


# Float tolerance of first_hit and dynamics.run_orbit, in grid-local
# units, read at call time; first_hit says why an absolute value is right.
FLOAT_TOL = 1e-9


class GridEdge(NamedTuple):
    """One open unit edge of a grid, in grid-local coordinates.

    axis 'v': the segment x = line, cell < y < cell + 1.
    axis 'h': the segment y = line, cell < x < cell + 1.
    """

    axis: str
    line: int
    cell: int


@dataclass(frozen=True, slots=True)
class Particle:
    """A point on the open interior of a tiling edge plus a transverse
    direction.

    Only the side of the edge that the direction points into matters for
    the dynamics; the vector itself is kept for replay and drawing.
    """

    point: Vec2
    edge: object
    direction: Vec2


class GridTiling:
    """Image of the unit integer grid under an invertible linear map."""

    def __init__(self, e1: Vec2, e2: Vec2):
        e1, e2 = e1.exactify(), e2.exactify()
        det = e1.cross(e2)
        if det == 0:
            raise ValueError("grid basis is singular")
        self.e1 = e1
        self.e2 = e2
        self.det = det
        self.exact = e1.is_exact() and e2.is_exact()

    @classmethod
    def standard(cls) -> "GridTiling":
        return cls(Vec2(1, 0), Vec2(0, 1))

    @classmethod
    def rotated(cls, u: Vec2) -> "GridTiling":
        """Grid rotated by the unit vector u."""
        return cls(u, u.perp())

    @classmethod
    def from_parameter(cls, t) -> "GridTiling":
        """Grid rotated by the rational unit vector of circle parameter t."""
        return cls.rotated(rational_circle_point(t))

    def transformed(self, a, b, c, d) -> "GridTiling":
        """Image under the linear map with matrix rows (a, b), (c, d)."""
        def apply(v: Vec2) -> Vec2:
            return Vec2(a * v.x + b * v.y, c * v.x + d * v.y)

        return GridTiling(apply(self.e1), apply(self.e2))

    def to_world(self, p: Vec2) -> Vec2:
        return Vec2(self.e1.x * p.x + self.e2.x * p.y,
                    self.e1.y * p.x + self.e2.y * p.y)

    def to_local(self, p: Vec2) -> Vec2:
        return Vec2(p.cross(self.e2) / self.det, self.e1.cross(p) / self.det)

    def direction_of(self, edge: GridEdge) -> Vec2:
        return self.e2 if edge.axis == "v" else self.e1

    def edge_directions(self):
        return (self.e1, self.e2, -self.e1, -self.e2)

    def point_on(self, edge: GridEdge, frac) -> Vec2:
        """World point at position frac in (0, 1) along the edge."""
        if edge.axis == "v":
            return self.to_world(Vec2(edge.line, edge.cell + frac))
        return self.to_world(Vec2(edge.cell + frac, edge.line))

    def particle_on(self, edge: GridEdge, frac, side: int = 1) -> Particle:
        """Particle at frac along the edge, directed along the edge normal.

        side +1 points to the counterclockwise side of the edge direction.
        Raises ValueError unless 0 < frac < 1: the particle sits on the
        open edge.
        """
        if not 0 < frac < 1:
            raise ValueError(f"edge fraction must lie in (0, 1), got {frac}")
        direction = self.direction_of(edge).perp() * side
        return Particle(self.point_on(edge, frac), edge, direction)

    def first_hit(self, start: Vec2, travel: Vec2):
        """First crossing of the open ray start + s * travel, s > 0, with a
        grid line.  Returns (point, edge) with the point in world
        coordinates and the edge labelled in grid-local coordinates.

        Raises VertexHit when the nearest crossing is a grid vertex.  In
        float mode one tolerance, FLOAT_TOL, serves both tests: crossings
        with s at most FLOAT_TOL are the start's own edge and skipped,
        and a crossing within FLOAT_TOL of a vertex is a vertex hit.

        The tolerance is absolute, and that is right because orbits stay
        near their start in grid-local units: a step leaves its edge into
        the adjacent cell and stops on that cell's boundary, so it moves
        a particle at most one cell diagonal, sqrt 2.  After N steps the
        local coordinates are below |start| + sqrt(2) N.  Floats under
        2^17 are spaced 2^-36, about 1.5e-11, some 70 times finer than
        FLOAT_TOL; so the absolute test is sound while that bound stays
        under 2^17, which from near the origin is over 90,000 steps.
        """
        exact = self.exact and start.is_exact() and travel.is_exact()
        tol = 0 if exact else FLOAT_TOL
        ls = self.to_local(start)
        lt = self.to_local(travel)
        if lt.x == 0 and lt.y == 0:
            raise ValueError("travel vector must be nonzero")
        best = None
        for axis, p0, d in (("v", ls.x, lt.x), ("h", ls.y, lt.y)):
            if d == 0:
                continue
            step = 1 if d > 0 else -1
            n = math.floor(p0) + 1 if d > 0 else math.ceil(p0) - 1
            s = (n - p0) / d
            if s <= tol:
                n += step
                s = (n - p0) / d
            if best is None or s < best[0]:
                best = (s, axis, n)
        s, axis, n = best
        cross = ls.y + s * lt.y if axis == "v" else ls.x + s * lt.x
        point = start + travel * s
        cell = math.floor(cross)
        if cross == cell or not (exact or tol < cross - cell < 1 - tol):
            raise VertexHit((float(point.x), float(point.y)))
        return point, GridEdge(axis, int(n), cell)


def is_transverse(a, b) -> bool:
    """No edge of one grid is parallel to an edge of the other."""
    for u in a.edge_directions():
        for v in b.edge_directions():
            if u.cross(v) == 0 and u.dot(v) > 0:
                return False
    return True
