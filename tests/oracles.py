"""Reference implementations that the unit tests compare the package
against, and the samplers, predicates, inputs and helpers those tests
use.
Nothing in the package calls them.  pytest collects no tests from this
file.
"""

import math
from fractions import Fraction

import numpy as np

from symtiling import tilings
from symtiling.dynamics import (MAX_PERIOD, OrbitRecord, PairState,
                                Termination, certify, step)
from symtiling.errors import (EmptyInterval, NonTransverseEdges, NotConvex,
                              ParallelWitnessLines, VertexHit)
from symtiling.exact import Vec2
from symtiling.linkage import Polygon
from symtiling.moduli import (HyperbolicPoint, area_form, family_directions,
                              reference_point)
from symtiling.tilings import Particle
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


# Grid orbits.

def move_particle(tiling, particle: Particle, table: dict) -> Particle:
    """The particle moved by `tilings.move` along the chord of a
    `tilings.branch_table`: held as its (p, q) from a rational position
    on an exact chord, else as a float, so a float position on an exact
    chord, which no run makes, moves in floats.  Raises VertexHit at a
    grid vertex, as `step` does."""
    branch = table[particle.edge.axis][particle.across > 0]
    exact = branch[2] is not None and not isinstance(particle.pos, float)
    moved, inside = tilings.move(branch, *tilings.to_tuple(particle, exact))
    if not inside:
        raise VertexHit(tiling.vertex_location(moved))
    return tilings.from_tuple(moved)


# The orbit loop on Particles: one `step` of a PairState per step, and
# keys read from Particles.  run_orbit, which steps tuples, must give
# the same record.

def _key(particle: Particle, snap):
    """(edge axis, position along the edge, crossing sign): invariant
    under period-lattice translations.  For snap > 0 the position is
    snapped to floor(position / snap); for snap 0 it is the Fraction's
    (numerator, denominator), which hashes without a modular inverse.
    """
    pos = particle.pos
    if snap > 0:
        pos = math.floor(pos / snap)
    else:
        pos = pos.numerator, pos.denominator
    return particle.edge.axis, pos, particle.across


def _shift(now: Particle, prev: Particle) -> Vec2:
    """Grid-local translation from prev to now, two particles on edges
    of one axis."""
    normal = now.edge.line - prev.edge.line
    along = now.edge.cell - prev.edge.cell + (now.pos - prev.pos)
    return Vec2(normal, along) if now.edge.axis == "v" else Vec2(along, normal)


def _closure(a_tiling, b_tiling, now: PairState, prev: PairState):
    """(residual, drift) of now against prev, in the scalars' arithmetic.

    The residual is the largest of the gap between the two particles'
    world translations and the distance of each translation, in its own
    grid-local coordinates, from the nearest integer vector.  drift is
    the A-local integer vector nearest the A translation.
    """
    la, lb = _shift(now.a, prev.a), _shift(now.b, prev.b)
    va, vb = a_tiling.to_world(la), b_tiling.to_world(lb)
    drift = (round(la.x), round(la.y))
    residual = max(abs(vb.x - va.x), abs(vb.y - va.y),
                   abs(la.x - drift[0]), abs(la.y - drift[1]),
                   abs(lb.x - round(lb.x)), abs(lb.y - round(lb.y)))
    return residual, drift


def oracle_run_orbit(a_tiling, b_tiling, start: PairState,
                     max_steps: int = 1000,
                     keep_states: bool = True) -> OrbitRecord:
    """Iterate the pair map until recurrence, a singularity, or max_steps.

    The grids must be transverse, else NonTransverseEdges is raised
    before the first step.  The first state under each key (edge axis,
    position along the edge, crossing sign of each particle) is kept.  A
    state recurs when the state kept under a matching key has a closure
    residual of at most tol: both particles moved by one and the same
    translation, integral in both period lattices.  Exact inputs use tol
    = 0, so the key is exact and a recurrence is proved.  Each next key
    reads only the pair's keys, so keys that repeat repeat periodically,
    each period adding the same shifts: no later state under a key closes
    unless the first one does, and an exact step reads one dict entry.
    Float inputs use tol = tilings.FLOAT_TOL; the key then snaps
    positions to steps of tol, and the nine keys whose steps are at most
    one away for each particle are looked up.  The earliest matching
    state wins.  Zero translation is a periodic orbit, nonzero a drift
    orbit.  Vertex hits terminate the run and are recorded rather than
    raised.

    An exact run also records each step's joint branch symbol (see
    `certify`).  Once the last 2p symbols repeat with a period p <=
    MAX_PERIOD, both particles' edges are those of p steps before (zero
    lattice shift) and `certify` proves the word contracting, the run
    stops as 'attracted': from then on the orbit converges to a fixed
    pair of points.  The candidate periods are the distances back to the
    earlier visits of the same pair of edges, so a step that meets none
    costs one lookup in a dict of edge pairs.  A lock with a nonzero
    shift runs on.  Float runs record no symbols.

    The run is exact when both grids are exact, and then holds every
    position as its exact ratio, a float start position's included; when
    either grid is a float grid every position is a float from the start
    on.  The kept states hold the start so.  The record's points and bit
    lengths come from `GridTiling.float_point`, given each position as
    `tilings.to_tuple` holds it, in float work that takes no gcd.  Exact
    keys hold a position as its (numerator, denominator).
    """
    if not tilings.is_transverse(a_tiling, b_tiling):
        raise NonTransverseEdges("the two grids have parallel edges")
    exact = a_tiling.exact and b_tiling.exact
    tol = 0 if exact else tilings.FLOAT_TOL

    def held(particle: Particle) -> tuple:
        return tilings.to_tuple(particle, exact)

    state = PairState(tilings.from_tuple(held(start.a)),
                      tilings.from_tuple(held(start.b)))
    states = [state] if keep_states else None
    a_points = []
    b_points = []
    bit_lengths = []
    seen = {}
    termination = None
    index = 0

    def record_state(st: PairState):
        a, b = held(st.a), held(st.b)
        ax, ay, a_bits = a_tiling.float_point(a[:3], a[3])
        bx, by, b_bits = b_tiling.float_point(b[:3], b[3])
        a_points.append((ax, ay))
        b_points.append((bx, by))
        bit_lengths.append(max(a_bits, b_bits))

    def check_recurrence(st: PairState, idx: int):
        ka, kb = _key(st.a, tol), _key(st.b, tol)
        if exact:
            # One lookup, which also keeps the state when its key is new.
            hit = seen.setdefault((ka, kb), (idx, st))
            candidates = (hit,) if hit[0] < idx else ()
        else:
            (axis_a, pos_a, across_a), (axis_b, pos_b, across_b) = ka, kb
            near_b = [(axis_b, pos_b + d, across_b) for d in (-1, 0, 1)]
            candidates = []
            for d in (-1, 0, 1):
                near_a = axis_a, pos_a + d, across_a
                for key_b in near_b:
                    hit = seen.get((near_a, key_b))
                    if hit is not None:
                        candidates.append(hit)
            if len(candidates) > 1:
                candidates.sort()
            seen.setdefault((ka, kb), (idx, st))
        for prev_idx, prev in candidates:
            residual, drift = _closure(a_tiling, b_tiling, st, prev)
            if residual > tol:
                continue
            if drift == (0, 0):
                return Termination("periodic", idx, period=idx - prev_idx,
                                   residual=float(residual))
            return Termination("translation", idx, period=idx - prev_idx,
                               drift=drift, residual=float(residual))
        return None

    symbols = []
    last_at = {}        # (A's edge, B's edge) -> the last step there
    before = [None]     # per step, the step before it at the same edges

    def check_certificate(prev: PairState, st: PairState, idx: int):
        a, b = prev.a, prev.b
        symbols.append((a.edge.axis, a.across, b.edge.axis, b.across,
                        st.a.edge.axis, st.b.edge.axis))
        edges = st.a.edge, st.b.edge
        then = last_at.get(edges)
        last_at[edges] = idx
        before.append(then)
        while then is not None and idx - then <= MAX_PERIOD:
            p = idx - then
            if 2 * p <= idx and symbols[-p:] == symbols[-2 * p:-p]:
                proof = certify(a_tiling, b_tiling, tuple(symbols[-p:]))
                if proof is None:
                    return None
                lock = idx - 2 * p
                while lock > 0 and symbols[lock - 1] == symbols[lock - 1 + p]:
                    lock -= 1
                return Termination("attracted", idx, period=p, lock=lock,
                                   certificate=proof)
            then = before[then]
        return None

    record_state(state)
    check_recurrence(state, 0)
    while termination is None and index < max_steps:
        prev = state
        try:
            state = step(a_tiling, b_tiling, state)
        except VertexHit as hit:
            termination = Termination("vertex", index + 1,
                                      location=hit.location)
            break
        index += 1
        if keep_states:
            states.append(state)
        record_state(state)
        termination = check_recurrence(state, index)
        if termination is None and exact:
            termination = check_certificate(prev, state, index)
    if termination is None:
        termination = Termination("max-steps", index)
    return OrbitRecord(start, termination, a_points, b_points, bit_lengths,
                       exact, states)


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
