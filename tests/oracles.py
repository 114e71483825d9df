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
from symtiling.dynamics import (BOUNDED_ATTRACTED, INCONCLUSIVE,
                                MAX_PERIOD, PERIODIC, SINGULAR,
                                UNBOUNDED_DRIFT, Classification, OrbitRecord,
                                PairState, Termination, certify)
from symtiling.errors import (DegenerateStep, EmptyInterval,
                              NonTransverseEdges, NotConvex,
                              ParallelWitnessLines, VertexHit)
from symtiling.exact import Vec2, unit_from_angle
from symtiling.linkage import Polygon
from symtiling.moduli import HyperbolicPoint, area_form, cyclic_fixed_point
from symtiling.tilings import Particle
from symtiling.weave import (HolonomyReport, PhaseInterval, SunburstPair,
                             orbit_points, phase_arcs)

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
    """The particle moved along the chord of a `tilings.branch_table`,
    by `tilings.move` when held as its (p, q), from a rational position
    on an exact chord, and else by `tilings.move_float` as a float, so a
    float position on an exact chord, which no run makes, moves in
    floats.  Raises VertexHit at a grid vertex."""
    branch = table[particle.edge.axis][particle.across > 0]
    exact = branch[2] is not None and not isinstance(particle.pos, float)
    move = tilings.move if exact else tilings.move_float
    moved, inside = move(branch, tilings.to_tuple(particle, exact))
    if not inside:
        raise VertexHit(tiling.vertex_location(moved))
    return tilings.from_tuple(moved)


# The orbit loop on Particles: each particle moved by `move_particle` per
# step, and keys read from Particles.  run_orbit, which steps tuples,
# must give the same record.

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


def state_symbol(state: PairState) -> tuple:
    """A state's symbol as `certify` reads it: (A's edge axis, A's
    across, B's edge axis, B's across)."""
    return (state.a.edge.axis, state.a.across, state.b.edge.axis,
            state.b.across)


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
    raised; when both moves of a step meet one, A's is recorded.  Each
    particle moves by `move_particle` on the `tilings.branch_table` of
    the other particle's edge direction in its own grid's frame, built
    here per grid and axis.

    An exact run also records each step's joint branch symbol: the
    `state_symbol` of the state it leaves and both particles' next edge
    axes.  Once the last 2p symbols repeat with a period p <=
    MAX_PERIOD, both particles' edges are those of p steps before (zero
    lattice shift) and `certify` proves the word of the period's state
    symbols contracting, the run stops as 'attracted': from then on the
    orbit converges to a fixed pair of points.  The candidate periods
    are the distances back to the earlier visits of the same pair of
    edges, so a step that meets none costs one lookup in a dict of edge
    pairs.  A lock with a nonzero shift runs on.  Float runs record no
    symbols.

    The run is exact when both grids are exact, and then holds every
    position as its exact ratio, a float start position's included; when
    either grid is a float grid every position is a float from the start
    on.  The kept states hold the start so.  The record's points come
    from `GridTiling.float_point`, given each position as
    `tilings.to_tuple` holds it, in float work that takes no gcd.  Its
    bit lengths are read off the held positions: q's for a (p, q), and
    53 for a float.  Exact keys hold a position as its (numerator,
    denominator).
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
        a_points.append(a_tiling.float_point(a[:3], a[3]))
        b_points.append(b_tiling.float_point(b[:3], b[3]))
        bit_lengths.append(max(pos[1].bit_length() if type(pos) is tuple
                               else 53 for pos in (a[3], b[3])))

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
        symbols.append(state_symbol(prev) + (st.a.edge.axis, st.b.edge.axis))
        edges = st.a.edge, st.b.edge
        then = last_at.get(edges)
        last_at[edges] = idx
        before.append(then)
        while then is not None and idx - then <= MAX_PERIOD:
            p = idx - then
            if 2 * p <= idx and symbols[-p:] == symbols[-2 * p:-p]:
                proof = certify(a_tiling, b_tiling,
                                tuple(s[:4] for s in symbols[-p:]))
                if proof is None:
                    return None
                lock = idx - 2 * p
                while lock > 0 and symbols[lock - 1] == symbols[lock - 1 + p]:
                    lock -= 1
                return Termination("attracted", idx, period=p, lock=lock,
                                   certificate=proof)
            then = before[then]
        return None

    tables = {}

    def advance(tiling, other, particle: Particle, other_axis: str):
        key = tiling is a_tiling, other_axis
        if key not in tables:
            tables[key] = tilings.branch_table(
                tiling.to_local(other.direction_of(other_axis)))
        return move_particle(tiling, particle, tables[key])

    record_state(state)
    check_recurrence(state, 0)
    while termination is None and index < max_steps:
        prev = state
        try:
            # A's move first, so that A's vertex is the one recorded.
            state = PairState(
                advance(a_tiling, b_tiling, prev.a, prev.b.edge.axis),
                advance(b_tiling, a_tiling, prev.b, prev.a.edge.axis))
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


def _diameter(points) -> float:
    """Diagonal of the bounding box of points."""
    xs, ys = zip(*points)
    return math.hypot(max(xs) - min(xs), max(ys) - min(ys))


def oracle_classify(record: OrbitRecord) -> Classification:
    """The classification that `classify` gives, built eagerly: every
    verdict's evidence is set when it returns, an attracted run's trace
    measures included, and the bounding boxes are scans of the points
    each covers."""
    t = record.termination
    if t.kind == "periodic":
        return Classification(PERIODIC, {"period": t.period,
                                         "residual": t.residual})
    if t.kind == "translation":
        return Classification(UNBOUNDED_DRIFT, {
            "period": t.period, "drift": t.drift, "residual": t.residual})
    if t.kind == "vertex":
        return Classification(SINGULAR, {"step": t.step,
                                         "location": t.location})
    n = record.steps + 1
    if n < 4 and t.kind != "attracted":
        return Classification(INCONCLUSIVE, {"steps": n - 1})
    half = n // 2
    bits = record.bit_lengths
    peak_half = max(bits[:half]) - bits[0]
    peak_end = max(bits) - bits[0]
    diam_half = _diameter(record.a_points[:half] + record.b_points[:half])
    diam_end = _diameter(record.a_points + record.b_points)
    growth = peak_end / peak_half if peak_half > 0 else math.inf
    spread = (diam_end - diam_half) / diam_end if diam_end > 0 else 0.0
    evidence = {"bit_growth": growth, "bbox_spread": spread,
                "steps": n - 1, "diameter": diam_end}
    if t.kind == "attracted":
        a, b = t.certificate
        return Classification(BOUNDED_ATTRACTED, dict(
            lock=t.lock, period=t.period, lambda_a=a.lam, lambda_b=b.lam,
            cylinder_a=a.cylinder, cylinder_b=b.cylinder, limit_a=a.limit,
            limit_b=b.limit, **evidence))
    if peak_end > 0 and growth >= 2.0 and spread < 0.01:
        return Classification(BOUNDED_ATTRACTED, evidence)
    return Classification(INCONCLUSIVE, evidence)


# Polygons.

def polygon_area(poly: Polygon) -> float:
    """Shoelace area, positive for a counterclockwise polygon."""
    v = poly.vertices
    return sum(float(v[i].cross(v[(i + 1) % poly.n]))
               for i in range(poly.n)) / 2.0


def interior_angles(poly: Polygon):
    e = poly.edges
    out = []
    for i in range(poly.n):
        prev, cur = e[i - 1], e[i]
        turn = math.atan2(float(prev.cross(cur)), float(dot(prev, cur)))
        out.append(math.pi - turn)
    return out


# Equiangular polygons as line-family offsets.

def family_directions(n: int) -> np.ndarray:
    ang = math.tau * np.arange(n) / n
    return np.column_stack([np.cos(ang), np.sin(ang)])


def family_normals(n: int) -> np.ndarray:
    """Rows: the left normals n_k.  Read as columns, they are also the
    offset changes induced by unit x and y translations."""
    d = family_directions(n)
    return np.column_stack([-d[:, 1], d[:, 0]])


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


# The form as ndarrays, which moduli's closed forms on tuples replaced:
# the Gram matrix, the area as the pairing of the quotient coordinates,
# the butterfly moves and the cyclic relabeling as matrices, and the
# maps they induce on quotient coordinates.

def cyclic_matrix(n: int) -> np.ndarray:
    """Offset relabeling (Cs)_k = s_{k+1}; geometrically a rotation of
    the polygon by -2 pi / N, hence an area isometry.
    """
    return np.roll(np.eye(n), 1, axis=1)


def gram(n: int) -> np.ndarray:
    """The full N x N Gram matrix of signed area, with theta = 2 pi/N:
    the circulant with diagonal -cot theta and both cyclic neighbours
    1/(2 sin theta)."""
    theta = math.tau / n
    c = cyclic_matrix(n)
    return (c + c.T) / (2.0 * math.sin(theta)) - np.eye(n) / math.tan(theta)


def quotient_gram(n: int) -> np.ndarray:
    """The Gram matrix on quotient coordinates s_2..s_{N-1}."""
    return gram(n)[2:, 2:]


def form_value(s) -> float:
    """Signed area of offsets s: the translations are the form's
    radical, so it is the pairing of s's quotient coordinates with
    themselves."""
    form = area_form(len(s))
    x = form.reduce(s)
    return form.pairing(x, x)


def butterfly_matrix(n: int, k: int) -> np.ndarray:
    """Linear move replacing line k by its mirror image through the
    intersection p of lines k-1 and k+1: s_k' = 2 n_k . p - s_k with all
    other offsets fixed.  Since n_{k-1} + n_{k+1} = 2 cos(2 pi/N) n_k,
    that is s_k' = (s_{k-1} + s_{k+1})/cos(2 pi/N) - s_k.  The witness
    lines are parallel, and cos(2 pi/N) = 0, exactly when N = 4.
    """
    if n == 4:
        raise ParallelWitnessLines(
            f"witness families {(k - 1) % n} and {(k + 1) % n} are parallel")
    c = math.cos(math.tau / n)
    k %= n
    m = np.eye(n)
    m[k, k] = -1.0
    m[k, (k - 1) % n] = m[k, (k + 1) % n] = 1.0 / c
    return m


def quotient_map(matrix: np.ndarray) -> np.ndarray:
    """The map induced on quotient coordinates by a
    translation-equivariant linear map of offset space: each column
    reduced.
    """
    form = area_form(len(matrix))
    return np.column_stack([form.reduce(col) for col in matrix[:, 2:].T])


def as_array(p: HyperbolicPoint) -> np.ndarray:
    return np.array(p.coords)


def hyperbolic_distance(p: HyperbolicPoint, q: HyperbolicPoint) -> float:
    """On the unit sheet Q(p - q) = -4 sinh^2(d/2), which stays accurate
    near d = 0, where acosh of the pairing loses half the digits."""
    form = area_form(p.n)
    v = as_array(p) - as_array(q)
    return 2.0 * math.asinh(0.5 * math.sqrt(max(0.0, -form.pairing(v, v))))


def oracle_wall_intersection(wa: np.ndarray, wb: np.ndarray) -> np.ndarray:
    """Positive-sheet point lying on both walls (their common
    perpendicular foot), for three-dimensional quotients: the Lorentz
    cross product of the walls, normalised and turned towards the
    regular polygon.  The numeric construction that the pentagon's
    closed-form vertices replaced.
    """
    form = area_form(len(wa) + 2)
    g = quotient_gram(form.n)
    v = np.cross(g @ wa, g @ wb)
    q = form.pairing(v, v)
    assert q > 0, "walls do not meet on the hyperboloid"
    v = v / math.sqrt(q)
    if form.pairing(cyclic_fixed_point(form.n).coords, v) < 0:
        v = -v
    return v


# The ndarray charts that moduli's closed forms replaced: the area as
# s @ gram @ s, the quotient coordinates from the translation along the
# family normals that zeroes s_0 and s_1, and the disk point from the
# Fourier frame as a matrix.

def oracle_to_hyperbolic(s) -> HyperbolicPoint:
    s = np.asarray(s, dtype=float)
    n = len(s)
    t = family_normals(n)
    v = np.array([(s[1] - t[1, 1] * s[0]) / -t[1, 0], -s[0]])
    x = (s + t @ v)[2:] / math.sqrt(float(s @ gram(n) @ s))
    return HyperbolicPoint(n, tuple(x))


def oracle_fourier_frame(n: int) -> np.ndarray:
    """Rows: the real Fourier modes j != +-1 in moduli's order, scaled
    by sqrt|lambda_j| and restricted to columns 2..N-1."""
    theta = math.tau / n
    k = np.arange(n)
    modes = [(0, np.full(n, 1.0 / math.sqrt(n)))]
    for j in range(2, (n + 1) // 2):
        modes.append((j, math.sqrt(2.0 / n) * np.cos(j * theta * k)))
        modes.append((j, math.sqrt(2.0 / n) * np.sin(j * theta * k)))
    if n % 2 == 0:
        modes.append((n // 2, (-1.0) ** k / math.sqrt(n)))
    return np.array([
        math.sqrt(abs(math.cos(j * theta) - math.cos(theta))
                  / math.sin(theta)) * u[2:] for j, u in modes])


def oracle_to_disk(p: HyperbolicPoint) -> np.ndarray:
    y = oracle_fourier_frame(p.n) @ as_array(p)
    return y[1:] / (1.0 + y[0])


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


def oracle_phase_arcs(a, b):
    """phase_arcs with each arc start taken from the angles themselves,
    (A[i] - B[i]) mod tau, not from the step offsets."""
    alpha, beta = a.angles, b.angles
    return [((alpha[i] - beta[i]) % math.tau,
             math.pi - (alpha[i] - alpha[i - 1]) % math.tau)
            for i in range(a.n)]


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


def holonomy_iteration(pair) -> HolonomyReport:
    """Holonomy measured by running the orbit once around: the distance
    from the origin after N steps, starting from distance 1.  The
    independent oracle for weave.holonomy_product's product formula.
    """
    pts = orbit_points(pair, r0=1.0)
    radii = [p.norm() for p in pts]
    factors = tuple(radii[j + 1] / radii[j] for j in range(pair.n))
    return HolonomyReport(radii[-1], factors, "iteration")


# The sunburst orbit and holonomy on Vec2s and pairs, one object per
# step and per evaluation: weave.orbit_points and weave.log_holonomy,
# which step floats, must give the same floats.

def oracle_orbit_points(pair, r0=1.0):
    """weave.orbit_points by Vec2 arithmetic: unit rays and phased unit
    chords, the point carried to the next ray by cross products."""
    rays = [unit_from_angle(t) for t in pair.a.angles]
    chords = [unit_from_angle(t) for t in pair.b_angles]
    n = pair.n
    p = rays[0] * r0
    points = [p]
    for j in range(n):
        nxt = rays[(j + 1) % n]
        chord = chords[(j + 1) % n]
        den = nxt.cross(chord)
        if den == 0:
            raise DegenerateStep(
                f"chord B[{(j + 1) % n}] is parallel to ray A[{(j + 1) % n}]")
        s = p.cross(chord) / den
        if s <= 0:
            raise DegenerateStep(
                f"step {j} leaves ray A[{(j + 1) % n}] at nonpositive radius")
        p = nxt * s
        points.append(p)
    return points


def oracle_step_factors(pair):
    """The holonomy step factors of a SunburstPair, per step j
    sin(c_j + phase) / sin(d_j + phase), with c_j = B[j+1] - A[j] and
    d_j = B[j+1] - A[j+1] before the phase."""
    alpha, beta, n = pair.a.angles, pair.b.angles, pair.n
    factors = []
    for j in range(n):
        k = (j + 1) % n
        den = math.sin((beta[k] - alpha[k]) + pair.phase)
        if den == 0:
            raise DegenerateStep(f"chord B[{k}] is parallel to ray A[{k}]")
        factors.append(math.sin((beta[k] - alpha[j]) + pair.phase) / den)
    return factors


def oracle_log_holonomy(a, b, theta: float) -> float:
    """weave.log_holonomy through a SunburstPair, which refuses unequal
    ray counts: the step factors' logs, summed."""
    factors = oracle_step_factors(SunburstPair(a, b, theta))
    return math.fsum(math.log(f) for f in factors)
