"""Tilings of the pair game: affine images of the integer grid, which
the billiard map in `dynamics` steps on.  Sunbursts, the finite fans of
rays whose paired orbits follow in closed form, live in `weave`.

A grid decides its arithmetic once, from its four basis entries: it
holds four Fractions when none of them is a float, and four floats
otherwise.  A pair of grids decides a run's: exact when both grids are,
and float when either is a float grid.

A particle lives in its grid's local coordinates, where the edges are
the integer grid's: an open unit edge, a position in (0, 1) along it,
and the sign with which its next move crosses the edge's line.  So a
first hit is O(1), exact over rationals, and in float mode works on
positions in (0, 1) however far the orbit goes.  It reads a branch
table (`branch_table`) of the direction it moves along, whose entries
each grid keeps once per other grid (`GridTiling.branches`).  That one
set-up per pair of grids also decides that the pair is transverse: it
refuses a pair with parallel edges before it builds a table, so every
table's chord crosses both edge axes of its grid.  The table also
states each exact branch as an affine map of the position and the open
interval on which it holds, which `dynamics.certify` composes.
World points serve only to draw and report an orbit (`point_on`, and
`float_point` for the floats and bit length of an orbit record's
states, which the record builds on their first read).

There is one particle move, `move`, and it works on a plain tuple
(axis, line, cell, pos, across) (`to_tuple`) whose position has the
pair's type: on two exact grids it is the position's exact ratio, a
coprime pair (p, q) of ints, which a float position has too, and on a
pair with a float grid it is a float from the start.  `dynamics.step`
and `dynamics.run_orbit` both step such tuples and build a `Particle`
(`from_tuple`) only where they report one.

Exact positions grow by some bits every step, while chords and grid
bases stay small.  So an exact move does integer work whose every gcd
takes one small argument (`_lowest_terms`): a reduction of a big integer
by a big one would cost time quadratic in the bit length, and a move
costs time linear in it.  A point (`float_point`) is float work for both
types of position, and its bit length is q's, or 53 for a float: it
takes no gcd, and does not change when a grid is scaled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import NonTransverseEdges
from .exact import Vec2, rational_circle_point


# Float tolerance of move's vertex guard and of dynamics.run_orbit's key
# snap and closure residual, in grid-local units, read at call time.
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
    """Image of the unit integer grid under an invertible linear map.  It
    decides its arithmetic from its four basis entries and converts them
    once: to four Fractions, exact, when none is a float, and to four
    floats when any one is."""

    def __init__(self, e1: Vec2, e2: Vec2):
        m = e1.x, e2.x, e1.y, e2.y
        self.exact = not any(isinstance(v, float) for v in m)
        m = tuple(map(Fraction if self.exact else float, m))
        e1, e2 = Vec2(m[0], m[2]), Vec2(m[1], m[3])
        det = e1.cross(e2)
        if det == 0:
            raise ValueError("grid basis is singular")
        self.e1 = e1
        self.e2 = e2
        self.det = det
        # Branch table entries per other grid, as `move` reads them: see
        # `branches`.
        self._branches = {}
        # The matrix of columns e1, e2 is [[a, b], [c, e]] / d: with
        # ints over their common denominator on an exact grid, and with
        # the float entries themselves over d = 1 on a float grid.
        # _float_basis holds float(a / d), ...: see `float_point`.
        self._float_basis = tuple(map(float, m))
        self._basis = 1, m
        if self.exact:
            d = math.lcm(*(v.denominator for v in m))
            self._basis = d, tuple(
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

    def direction_of(self, axis: str) -> Vec2:
        """Direction of this grid's edges of the given axis."""
        return self.e2 if axis == "v" else self.e1

    def branches(self, other: "GridTiling") -> dict:
        """The `branch_table` entries that move a particle of this grid,
        keyed by (its edge axis, its across, the other particle's edge
        axis): the tables of the other grid's two edge directions in this
        grid's local frame.  This is the one set-up of a pair of grids:
        the entries are built once per other grid and then read from a
        table, and before it builds them it raises NonTransverseEdges
        when `is_transverse` finds parallel edges.  So the pair's
        transversality is decided once, and no table is built for a
        parallel pair.
        """
        table = self._branches.get(other)
        if table is None:
            if not is_transverse(self, other):
                raise NonTransverseEdges("the two grids have parallel edges")
            chords = {other_axis: branch_table(
                self.to_local(other.direction_of(other_axis)))
                for other_axis in "vh"}
            table = self._branches[other] = {
                (axis, across, other_axis):
                chords[other_axis][axis][across > 0]
                for axis in "vh" for across in (1, -1) for other_axis in "vh"}
        return table

    def point_on(self, edge: GridEdge, frac) -> Vec2:
        """World point at position frac in (0, 1) along the edge."""
        if edge.axis == "v":
            return self.to_world(Vec2(edge.line, edge.cell + frac))
        return self.to_world(Vec2(edge.cell + frac, edge.line))

    def float_point(self, edge, frac) -> tuple:
        """(x, y, bits): `point_on(edge, frac)` as floats, and the bit
        length of the position: q's for an exact p/q, which lies in (0, 1)
        so q > p, and 53 for a float.  The edge may be any (axis, line,
        cell) triple, and frac a position as `to_tuple` holds it.  This is
        the one place an orbit record's points and bit lengths come from:
        a `dynamics.OrbitRecord` calls it once per particle and state, on
        the first read of its points or bit lengths.

        Each coordinate is a line term plus an along term, as in
        `point_on`.  The along term is the float basis entry times cell +
        frac, for an exact position (cell q + p) / q, one int true
        division.  The line term is (k * line) / d: on an exact grid an
        int true division, and on a float grid, with d = 1, the entry
        times line.  So a float position's point rounds as float() of
        `point_on`'s does, and an exact position's lies within 3 ulps of
        the larger of its two exact terms.
        """
        axis, line, cell = edge
        d, (a, b, c, e) = self._basis
        fa, fb, fc, fe = self._float_basis
        if type(frac) is tuple:
            p, q = frac
            along, bits = (cell * q + p) / q, q.bit_length()
        else:
            along, bits = cell + frac, 53
        if axis == "v":
            return a * line / d + fb * along, c * line / d + fe * along, bits
        return fa * along + b * line / d, fc * along + e * line / d, bits

    def particle_on(self, edge: GridEdge, frac, side: int = 1) -> Particle:
        """Particle at frac in (0, 1) along the open edge, else ValueError,
        whose first move crosses the edge toward its counterclockwise side
        in the world (side +1) or its clockwise side (side -1).  A float
        grid stores float(frac), and an exact grid frac as given.  A run
        holds it by the pair's arithmetic (`to_tuple`): as its exact ratio
        on two exact grids, a float frac's included, and as a float when
        either grid is a float grid.
        """
        if not self.exact:
            frac = float(frac)
        if not 0 < frac < 1:
            raise ValueError(f"edge fraction must lie in (0, 1), got {frac}")
        # The counterclockwise normal of e2 points to local -x, that of e1
        # to local +y; a basis of negative determinant mirrors both.
        across = side if edge.axis == "h" else -side
        return Particle(edge, frac, across if self.det > 0 else -across)

    def vertex_location(self, moved: tuple) -> tuple:
        """The float world point, from `point_on`, of a grid vertex that a
        particle held as `move` holds it has hit."""
        hit = from_tuple(moved)
        point = self.point_on(hit.edge, hit.pos)
        return float(point.x), float(point.y)


def to_tuple(particle: Particle, exact: bool) -> tuple:
    """(axis, line, cell, pos, across), the particle as `move` steps it:
    when exact, for a run on two exact grids, the position as its exact
    ratio, the coprime pair (p, q) of ints of `as_integer_ratio()`, which
    a float has too, and otherwise, for a pair with a float grid, as
    float(pos).
    """
    edge, pos = particle.edge, particle.pos
    pos = pos.as_integer_ratio() if exact else float(pos)
    return edge.axis, edge.line, edge.cell, pos, particle.across


def from_tuple(moved: tuple) -> Particle:
    """The `Particle` of a tuple as `to_tuple` holds it."""
    axis, line, cell, pos, across = moved
    if type(pos) is tuple:
        pos = Fraction(*pos)
    return Particle(GridEdge(axis, line, cell), pos, across)


def move(branch: tuple, axis: str, line: int, cell: int, pos,
         across: int) -> tuple:
    """(hit, inside): the first hit, as a tuple (axis, line, cell, pos,
    across) like the one moved, and False when it is a grid vertex.
    branch is the entry of the particle's edge axis and `across` sign in
    the `branch_table` of the chord it moves along.

    Per unit of travel normal to the edge the position moves by the
    slope, along over normal.  So the next parallel line, line + across,
    is met at pos + slope, unless that leaves (0, 1): then the cell's
    end comes first, after (1 - pos) / slope or pos / -slope, and the
    particle goes on crossing the way it moved.

    An exact position (p, q) on a slope a / b steps in ints.  The branch
    and vertex tests compare n = p b + a q with m = q b, unreduced: the
    parallel line is met when 0 < n < m, and n = 0 or n = m is a vertex.
    The new position is n / m, or at a cell's end the branch's turn map
    (k q + c p) / (d q), and `_lowest_terms` reduces either by gcds with
    small arguments only, so a move costs time linear in the position's
    bit length.  A float position uses the formulas above in floats, and
    a new position within FLOAT_TOL of an edge end is a vertex.  No run
    hands it a float position on a Fraction chord: a run holds floats
    only on a pair with a float grid, whose chords are float.
    """
    slope, up, terms, _ = branch
    if type(pos) is tuple:
        p, q = pos
        a, b, k, c, d = terms
        n, m = p * b + a * q, q * b
        parallel, inside = 0 < n < m, n != 0 and n != m
        end = (_lowest_terms(a, b, p, q, b) if parallel
               else _lowest_terms(k, c, p, q, d))
    else:
        end = pos + slope
        parallel = 0 < end < 1
        if not parallel:
            travel = (1 - pos) / slope if up else pos / -slope
            end = travel if across > 0 else 1 - travel
        inside = FLOAT_TOL < end < 1 - FLOAT_TOL
    if parallel:
        return (axis, line + across, cell, end, across), inside
    return ("h" if axis == "v" else "v", cell + 1 if up else cell,
            line if across > 0 else line - 1, end, 1 if up else -1), inside


def branch_table(chord: Vec2) -> dict:
    """`move`'s branch data for a grid-local chord that crosses both
    edge axes, as the chords of a transverse pair of grids do: per own
    edge axis, a pair indexed by across > 0 of (slope, slope > 0, terms,
    maps).  Chord components are nonzero Fractions or floats, as
    `to_local` gives them.

    slope is along over normal, negated for across < 0, in the chord's
    arithmetic.  For a Fraction slope a / b in lowest terms,
    let pos * scale + shift be the position met at the cell's end:
    (1 - pos) / slope or pos / -slope, and one minus that when across <
    0.  terms is then the ints (a, b, k, c, d) with which `move` steps
    an exact position p / q: the turn map takes it to (k q + c p) /
    (d q), for scale = sn / sd and shift = hn / hd in lowest terms, k =
    hn sd, c = sn hd and d = sd hd.  maps is then the pair, indexed
    by whether the move goes to the parallel line, of (m, c, lo, hi):
    the move takes pos to m * pos + c exactly when pos lies in the open
    interval (lo, hi).  The parallel line is met when 0 < pos + slope <
    1, so the parallel map is (1, slope) on (max(0, -slope), min(1, 1 -
    slope)); the turn map is (scale, shift) on (max(0, 1 - slope), 1)
    for slope > 0 and on (0, min(1, -slope)) for slope < 0.  For a float
    slope terms and maps are None.
    """
    table = {}
    for axis, normal, along in (("v", chord.x, chord.y),
                                ("h", chord.y, chord.x)):
        table[axis] = tuple(_branch(slope, forward) for slope, forward in
                            ((-along / normal, False), (along / normal, True)))
    return table


def _branch(slope, forward: bool) -> tuple:
    """One entry of `branch_table`: (slope, slope > 0, terms, maps)."""
    up = slope > 0
    if not isinstance(slope, Fraction):
        return slope, up, None, None
    inv = 1 / slope
    scale = -inv if forward else inv
    if up:
        shift = inv if forward else 1 - inv
        turn = max(Fraction(0), 1 - slope), Fraction(1)
    else:
        shift = Fraction(0 if forward else 1)
        turn = Fraction(0), min(Fraction(1), -slope)
    parallel = max(Fraction(0), -slope), min(Fraction(1), 1 - slope)
    sn, sd, hn, hd = (scale.numerator, scale.denominator, shift.numerator,
                      shift.denominator)
    terms = slope.numerator, slope.denominator, hn * sd, sn * hd, sd * hd
    return slope, up, terms, (
        (scale, shift) + turn, (Fraction(1), slope) + parallel)


def _lowest_terms(k: int, c: int, p: int, q: int, d: int) -> tuple:
    """(n, m), coprime with m > 0, such that n / m = (k q + c p) / (d q),
    for ints with p/q in lowest terms and q, d > 0.

    p/q is in lowest terms, so gcd(k q + c p, q) = gcd(c, q), and the
    whole gcd divides M = d gcd(c, q), which is small when c and d are.
    Dividing c and q by gcd(c, q) first leaves a numerator prime to q,
    whose gcd with d q is its gcd with d: one remainder of a big integer
    by d.  No gcd here takes two big arguments.
    """
    g = math.gcd(c, q)
    if g > 1:
        c, q = c // g, q // g
    n = k * q + c * p
    g = math.gcd(n % d, d)
    if g > 1:
        return n // g, d * q // g
    return n, d * q


def is_transverse(a, b) -> bool:
    """No edge of one grid is parallel to an edge of the other: all four
    cross products u x v of a basis vector of a with one of b are
    nonzero.  When either grid is float, |u x v| must also exceed
    FLOAT_TOL |u| |v|, so that edges parallel up to rounding count as
    parallel.  It keeps no answer: `GridTiling.branches` asks it once
    per pair of grids, before it builds their branch table.
    """
    pairs = [(u, v) for u in (a.e1, a.e2) for v in (b.e1, b.e2)]
    if a.exact and b.exact:
        return all(u.cross(v) != 0 for u, v in pairs)
    return all(abs(u.cross(v)) > FLOAT_TOL * u.norm() * v.norm()
               for u, v in pairs)
