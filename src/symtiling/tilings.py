"""Tilings of the pair game: affine images of the integer grid, which
the billiard map in `dynamics` steps on.  Sunbursts, the finite fans of
rays whose paired orbits follow in closed form, live in `weave`.

A particle lives in its grid's local coordinates, where the edges are
the integer grid's: an open unit edge, a position in (0, 1) along it,
and the sign with which its next move crosses the edge's line.  So a
first hit is O(1), exact over rationals, and in float mode works on
positions in (0, 1) however far the orbit goes.  World points serve
only to draw and report an orbit (`point_on`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import NonTransverseEdges, VertexHit
from .exact import Vec2, rational_circle_point


# Float tolerance of first_hit's vertex guard and of dynamics.run_orbit's
# key snap and closure residual, in grid-local units, read at call time.
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
    """A point on an open grid edge, in its grid's local coordinates.

    pos is the position in (0, 1) along the edge, from its low end.
    across is +1 or -1: the direction, along the local axis normal to the
    edge (x for a 'v' edge, y for an 'h' edge), in which the particle's
    next move crosses the edge's line.
    """

    edge: GridEdge
    pos: object
    across: int


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

    def point_on(self, edge: GridEdge, frac) -> Vec2:
        """World point at position frac in (0, 1) along the edge."""
        if edge.axis == "v":
            return self.to_world(Vec2(edge.line, edge.cell + frac))
        return self.to_world(Vec2(edge.cell + frac, edge.line))

    def particle_on(self, edge: GridEdge, frac, side: int = 1) -> Particle:
        """Particle at frac in (0, 1) along the open edge, else ValueError,
        whose first move crosses the edge toward its counterclockwise side
        in the world (side +1) or its clockwise side (side -1).  A float
        grid stores float(frac), so its particles run in floats.
        """
        if not self.exact:
            frac = float(frac)
        if not 0 < frac < 1:
            raise ValueError(f"edge fraction must lie in (0, 1), got {frac}")
        # The counterclockwise normal of e2 points to local -x, that of e1
        # to local +y; a basis of negative determinant mirrors both.
        across = side if edge.axis == "h" else -side
        return Particle(edge, frac, across if self.det > 0 else -across)

    def first_hit(self, particle: Particle, chord: Vec2) -> Particle:
        """The particle moved along the grid-local chord or its negative,
        whichever crosses the edge's line the `across` way, to the next
        grid line: the next particle, which keeps crossing the way it
        moved.  Chord components are Fractions or floats, as `to_local`
        gives them, or ints, which divide as Fractions.

        Per unit of travel normal to the edge the position moves by the
        slope, along over normal.  So the next parallel line, line +
        across, is met at pos + slope, unless that leaves (0, 1): then
        the cell's end comes first, after (1 - pos) / slope or
        pos / -slope.

        Raises NonTransverseEdges when the chord is parallel to the edge,
        and VertexHit when the crossing is a grid vertex; in float mode,
        when the new position lies within FLOAT_TOL of an edge end.
        """
        edge, pos, across = particle.edge, particle.pos, particle.across
        if edge.axis == "v":
            normal, along, other = chord.x, chord.y, "h"
        else:
            normal, along, other = chord.y, chord.x, "v"
        if normal == 0:
            raise NonTransverseEdges(
                "chord direction is parallel to the particle's edge")
        if type(normal) is int:
            normal = Fraction(normal)
        slope = along / normal if across > 0 else -along / normal
        end = pos + slope
        if 0 < end < 1:
            hit = Particle(GridEdge(edge.axis, edge.line + across,
                                    edge.cell), end, across)
        else:
            up, forward = slope > 0, across > 0
            travel = (1 - pos) / slope if up else pos / -slope
            hit = Particle(GridEdge(other, edge.cell + 1 if up else edge.cell,
                                    edge.line if forward else edge.line - 1),
                           travel if forward else 1 - travel, 1 if up else -1)
        tol = FLOAT_TOL if isinstance(hit.pos, float) else 0
        if not tol < hit.pos < 1 - tol:
            point = self.point_on(hit.edge, hit.pos)
            raise VertexHit((float(point.x), float(point.y)))
        return hit


def is_transverse(a, b) -> bool:
    """No edge of one grid is parallel to an edge of the other: all four
    cross products of a basis vector of a with one of b are nonzero."""
    return all(u.cross(v) != 0 for u in (a.e1, a.e2) for v in (b.e1, b.e2))
