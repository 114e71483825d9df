"""Tilings of the pair game: affine images of the integer grid, which
the billiard map in `dynamics` steps on.  Sunbursts, the finite fans of
rays whose paired orbits follow in closed form, live in `weave`.

A particle lives in its grid's local coordinates, where the edges are
the integer grid's: an open unit edge, a position in (0, 1) along it,
and the sign with which its next move crosses the edge's line.  So a
first hit is O(1), exact over rationals, and in float mode works on
positions in (0, 1) however far the orbit goes.  World points serve
only to draw and report an orbit (`point_on`, and `float_point` for the
floats and bit length an orbit record keeps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import NonTransverseEdges, VertexHit
from .exact import Vec2, bit_length, rational_circle_point


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
        # The other grid's edge directions in this grid's local frame,
        # keyed by (other grid, edge axis): see `chord`.
        self._chords = {}
        # Exact grids: (d, (a, b, c, e)) with ints such that the matrix
        # of columns e1, e2 is [[a, b], [c, e]] / d: see `float_point`.
        self._int_basis = None
        if self.exact:
            m = [Fraction(v) for v in (e1.x, e2.x, e1.y, e2.y)]
            d = math.lcm(*(v.denominator for v in m))
            self._int_basis = d, tuple(
                v.numerator * (d // v.denominator) for v in m)

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

    def chord(self, other: "GridTiling", edge: GridEdge) -> Vec2:
        """`to_local(other.direction_of(edge))`: the direction of an edge
        of the other grid in this grid's local frame.  It depends only on
        the edge's axis, so it is computed once per other grid and axis
        and then read from a table.
        """
        key = other, edge.axis
        chord = self._chords.get(key)
        if chord is None:
            chord = self._chords[key] = self.to_local(other.direction_of(edge))
        return chord

    def point_on(self, edge: GridEdge, frac) -> Vec2:
        """World point at position frac in (0, 1) along the edge."""
        if edge.axis == "v":
            return self.to_world(Vec2(edge.line, edge.cell + frac))
        return self.to_world(Vec2(edge.cell + frac, edge.line))

    def float_point(self, edge: GridEdge, frac) -> tuple:
        """(x, y, bits): `point_on(edge, frac)` as floats, and the larger
        `exact.bit_length` of its two coordinates, 53 for floats.

        On an exact grid a rational frac = p/q is worked in integers:
        each world coordinate is an integer over d*q, with d the common
        denominator of the basis, reduced by one gcd.  Dividing the
        reduced ints rounds as float() of the Fraction does.
        """
        if self._int_basis is None or isinstance(frac, float):
            point = self.point_on(edge, frac)
            return (float(point.x), float(point.y),
                    max(bit_length(point.x), bit_length(point.y)))
        d, (a, b, c, e) = self._int_basis
        p, q = frac.numerator, frac.denominator
        if edge.axis == "v":
            lx, ly = edge.line * q, edge.cell * q + p
        else:
            lx, ly = edge.cell * q + p, edge.line * q
        den = d * q
        x, y = a * lx + b * ly, c * lx + e * ly
        gx, gy = math.gcd(x, den), math.gcd(y, den)
        x, dx, y, dy = x // gx, den // gx, y // gy, den // gy
        return x / dx, y / dy, max(x.bit_length(), dx.bit_length(),
                                   y.bit_length(), dy.bit_length())

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
    cross products u x v of a basis vector of a with one of b are
    nonzero.  When either grid is float, |u x v| must also exceed
    FLOAT_TOL |u| |v|, so that edges parallel up to rounding count as
    parallel.
    """
    pairs = [(u, v) for u in (a.e1, a.e2) for v in (b.e1, b.e2)]
    if a.exact and b.exact:
        return all(u.cross(v) != 0 for u, v in pairs)
    return all(abs(u.cross(v)) > FLOAT_TOL * u.norm() * v.norm()
               for u, v in pairs)
