"""Reference implementations that the unit tests compare the package
against, and the samplers, predicates and inputs those tests use.
Nothing in the package calls them.  pytest collects no tests from this
file.
"""

import math
from fractions import Fraction

import numpy as np

from symtiling.errors import EmptyInterval, NotConvex, ParallelWitnessLines
from symtiling.exact import Vec2
from symtiling.linkage import Polygon
from symtiling.moduli import (HyperbolicPoint, area_form, family_directions,
                              reference_point)
from symtiling.weave import PhaseInterval, phase_arcs

# is_balanced and is_regular: above the rounding of their n-term sums.
SUNBURST_TOL = 1e-12


# Exact kernel.

def bit_length(value) -> int:
    """Size diagnostic: max bit length of numerator and denominator.

    Floats count as one mantissa.  The diagnostic is only informative in
    exact mode, where growth tracks the arithmetic complexity of an orbit.
    """
    if isinstance(value, float):
        return 53
    f = Fraction(value)
    return max(f.numerator.bit_length(), f.denominator.bit_length())


def dot(u: Vec2, v: Vec2):
    return u.x * v.x + u.y * v.y


# Polygons.

def polygon_area(poly: Polygon) -> float:
    """Shoelace area, positive for a counterclockwise polygon."""
    v = poly.vertices
    return sum(float(v[i].cross(v[(i + 1) % poly.n]))
               for i in range(poly.n)) / 2.0


def interior_angles(poly: Polygon):
    e = poly.edge_vectors()
    out = []
    for i in range(poly.n):
        prev, cur = e[i - 1], e[i]
        turn = math.atan2(float(prev.cross(cur)), float(dot(prev, cur)))
        out.append(math.pi - turn)
    return out


# Equiangular polygons as line-family offsets.

def line_intersection(n: int, s, i: int, j: int) -> np.ndarray:
    """Intersection of the lines of families i and j at offsets s."""
    ang = math.tau * np.array([i % n, j % n]) / n
    m = np.column_stack([-np.sin(ang), np.cos(ang)])
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if abs(det) < 1e-12:
        raise ParallelWitnessLines(f"families {i % n} and {j % n} are parallel")
    rhs = np.array([s[i % n], s[j % n]])
    return np.array([(m[1, 1] * rhs[0] - m[0, 1] * rhs[1]) / det,
                     (-m[1, 0] * rhs[0] + m[0, 0] * rhs[1]) / det])


def vertices_from_offsets(s) -> np.ndarray:
    """Vertex k solves lines k and k+1, with determinant sin(2 pi/N)."""
    s = np.asarray(s, dtype=float)
    d = family_directions(len(s))
    return ((s[:, None] * np.roll(d, -1, axis=0)
             - np.roll(s, -1)[:, None] * d) / math.sin(math.tau / len(s)))


def polygon_from_offsets(s) -> Polygon:
    return Polygon(Vec2(float(x), float(y))
                   for x, y in vertices_from_offsets(s))


def signed_area(s) -> float:
    """Shoelace area of the offset polygon; quadratic in the offsets."""
    v = vertices_from_offsets(s)
    w = np.roll(v, -1, axis=0)
    return float(np.sum(v[:, 0] * w[:, 1] - w[:, 0] * v[:, 1])) / 2.0


def signed_edge_lengths(s) -> np.ndarray:
    """Length of edge k measured along its counterclockwise traversal
    direction, which is -d_k under the left-normal convention; all
    positive iff the offsets cut out a convex polygon.  With
    theta = 2 pi/N it is (s_{k-1} + s_{k+1} - 2 cos theta s_k)/sin theta.
    """
    s = np.asarray(s, dtype=float)
    theta = math.tau / len(s)
    return ((np.roll(s, 1) + np.roll(s, -1) - 2.0 * math.cos(theta) * s)
            / math.sin(theta))


def is_convex_offsets(s) -> bool:
    return bool(np.all(signed_edge_lengths(s) > 0))


def random_convex_offsets(rng, n: int) -> np.ndarray:
    """Random offsets near the regular polygon (all offsets 1).

    Each offset moves by at most 0.35, a spread capped at
    (1 - cos theta)/(1 + |cos theta|), below which every draw is convex
    by the edge-length formula.
    """
    c = math.cos(math.tau / n)
    spread = min(0.35, (1.0 - c) / (1.0 + abs(c)))
    s = 1.0 + np.array([rng.uniform(-spread, spread) for _ in range(n)])
    if not is_convex_offsets(s):
        raise NotConvex(f"offsets drawn with spread {spread:.6g} are not "
                        "convex")
    return s


def hyperbolic_distance(p: HyperbolicPoint, q: HyperbolicPoint) -> float:
    """On the unit sheet Q(p - q) = -4 sinh^2(d/2), which stays accurate
    near d = 0, where acosh of the pairing loses half the digits."""
    form = area_form(p.n)
    v = p.as_array() - q.as_array()
    return 2.0 * math.asinh(0.5 * math.sqrt(max(0.0, -form.pairing(v, v))))


def oracle_wall_intersection(wa: np.ndarray, wb: np.ndarray) -> np.ndarray:
    """Positive-sheet point lying on both walls (their common
    perpendicular foot), for three-dimensional quotients: the Lorentz
    cross product of the walls, normalised and turned towards the
    regular polygon.  The numeric construction that the pentagon's
    closed-form vertices replaced.
    """
    form = area_form(len(wa) + 2)
    g = form.quotient_gram
    v = np.cross(g @ wa, g @ wb)
    q = form.pairing(v, v)
    assert q > 0, "walls do not meet on the hyperboloid"
    v = v / math.sqrt(q)
    if form.pairing(reference_point(form.n), v) < 0:
        v = -v
    return v


# Sunbursts.

# Sunbursts against the regular one whose holonomy-1 phase no float
# reaches within weave.PHASE_TOL.  A 10-ray one with a gap within about
# 4e-7 pi of pi, whose weave interval is 9.5e-12 wide; and a 3-ray one
# with a gap of pi - 1e-7 pi, where one ulp of the phase moves log h by
# more than PHASE_TOL.
UNSOLVABLE_SUNBURSTS = [
    [7.2835614847915515, 7.603894146581928, 7.978409586477639,
     8.176567035605224, 8.643290689007156, 9.110381951611174,
     9.382403525035134, 9.69036909645929, 10.028424570482063,
     10.4251541383908],
    [0.0, math.pi - 1e-7 * math.pi, 1.5 * math.pi - 0.5e-7 * math.pi],
]


# A 4-ray sunburst whose weave interval against the regular one,
# (6.282723, 6.283531), straddles tau: its holonomy-1 phase exceeds tau,
# and reducing it by tau would move log h by about 1.4e-12.
STRADDLING_SUNBURST = [5.646441202597186, 6.28353122175576,
                       9.424315841781155, 10.450202719431154]

def is_oriented_weave(pair) -> bool:
    """Each phased B-ray strictly inside the cone from A[i] to -A[i-1]."""
    a = pair.a.angles
    b = pair.b_angles
    return all(math.sin(b[i] - a[i]) > 0 and math.sin(b[i] - a[i - 1]) > 0
               for i in range(pair.n))


def is_balanced(s) -> bool:
    """Unit ray directions summing to zero (up to SUNBURST_TOL)."""
    return math.hypot(sum(map(math.cos, s.angles)),
                      sum(map(math.sin, s.angles))) <= SUNBURST_TOL


def is_regular(s) -> bool:
    """All consecutive ray gaps equal to 2 pi / N (up to SUNBURST_TOL)."""
    t = s.angles
    return all(abs((t[i] - t[i - 1]) % math.tau - math.tau / s.n)
               <= SUNBURST_TOL for i in range(s.n))


def interval_contains(interval, theta: float) -> bool:
    """theta inside the open arc (lo, lo + width) of a PhaseInterval."""
    return 0.0 < (theta - interval.lo) % math.tau < interval.width


def oracle_weave_interval(a, b) -> PhaseInterval:
    """weave_interval by trying every arc start as the intersection's
    start, in O(n^2): a start is a candidate when it lies in every arc,
    and the widest candidate wins, the first of equal widths.
    """
    arcs = phase_arcs(a, b)
    best = None
    for lo, _ in arcs:
        offsets = [(lo - alo) % math.tau for alo, _ in arcs]
        if any(off > aw for off, (_, aw) in zip(offsets, arcs)):
            continue
        width = min(aw - off for off, (_, aw) in zip(offsets, arcs))
        if width > 0 and (best is None or width > best.width):
            best = PhaseInterval(lo, width, tuple(arcs))
    if best is None:
        raise EmptyInterval(tuple(arcs))
    return best
