"""The pair billiard map on two grids, orbit iteration, and orbit
classification.

A state is a particle on a grid A plus a particle on a grid B, each held
in its own grid's local coordinates (`tilings.Particle`).  One step
moves each particle along the direction of the edge currently holding
the other particle, to its first hit on its own grid; the particle's
`across` sign picks which way along that direction, and transversality
of the two grids makes the move well defined.  A particle's move reads
only its own state and the axis of the other particle's edge.  So it
moves along one of two chords, the other grid's edge directions in its
own grid's frame, and reads that chord's branch data from the entries
its grid keeps per other grid (`GridTiling.branches`).

`step` and `run_orbit` move particles in one way.  Both start in
`_hold`, which decides the one arithmetic of the step or run from the
grids alone: exact when both grids are exact, else float.  It holds each
particle as the plain tuple (axis, line, cell, pos, across) that
`tilings.move` steps: on an exact pair every position as its exact
ratio, a coprime pair (p, q) of ints, a float start position's included,
and on a pair with a float grid every position as a float from the
start, so a float run rounds a rational start position once.  It also
reads both grids' branch entries from `GridTiling.branches`, the one
set-up of a pair of grids, which refuses a pair with parallel edges
before it builds a table.  Both build a `Particle` only where they
report one.  Over rationals, a position's bit length grows with every
step, while chords and grid bases stay small; so a move is integer work
that reduces a big integer only by gcds with a small one, and costs time
linear in the bit length.  A run keeps each state once, as its pair of
particle tuples in the run's trace: its recurrence indexes hold trace
indices, and its kept states and its record's float world points and bit
lengths (`GridTiling.float_point`) are built from the trace, the points
and bit lengths on their first read, in float work with no gcd.
`classify` reads them only for a run that stops as 'attracted' or at its
step budget, so a run that ends at a vertex or a recurrence never builds
them.

Recurrence detection is one keyed lookup.  A state is keyed by its
position within the period lattices (edge axis, position along the
edge, crossing sign of each particle), so both literal periodicity and
periodicity up to a common lattice translation (a drift orbit) are
found by comparing a state only with the first state under its key.
Over rationals the key and the comparison are exact and the verdict is
proved, and a step reads one dict entry.  In float mode positions are
snapped to steps of the grid kernel's tolerance, `tilings.FLOAT_TOL`,
and the comparison allows that tolerance.  The float states are kept
in a two-level index: the outer key holds both edge axes and crossing
signs and A's snapped position, the inner key B's.  A step reads the
outer keys of A's step and the steps one below and one above, and reads
B's three inner keys only under an outer key that is there, so it meets
the same first states as a lookup of its key and the eight keys one
step away, in three lookups where keys rarely repeat.  A candidate is
compared with the state as two trace entries (`_closure`).

An exact orbit also stops once an itinerary certificate proves that it
contracts.  Each step's joint branch symbol says, per particle, which
branch of its table it took.  When the symbols repeat with a period of
at most `MAX_PERIOD` steps and both particles are back on their edges
of one period before, `certify` composes each particle's branch maps
over the period, read from the same tables, and checks that the
composite contracts a cylinder of positions into itself.  Such an orbit
converges to a fixed pair of points, and the run ends as 'attracted',
which `classify` calls bounded-attracted with the proof as evidence.
Float runs record no symbols.

Sunburst orbits have a closed form and live in `weave`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import tilings
from .errors import VertexHit
from .exact import Vec2
from .tilings import Particle

PERIODIC = "periodic"
UNBOUNDED_DRIFT = "unbounded-drift"
BOUNDED_ATTRACTED = "bounded-attracted"
SINGULAR = "singular"
INCONCLUSIVE = "inconclusive"

VERDICTS = (PERIODIC, UNBOUNDED_DRIFT, BOUNDED_ATTRACTED, SINGULAR,
            INCONCLUSIVE)

# Longest period of the joint branch word that an exact run tries to
# certify (`certify`).
MAX_PERIOD = 12


@dataclass(frozen=True, slots=True)
class PairState:
    a: Particle
    b: Particle


@dataclass(frozen=True, slots=True)
class Contraction:
    """One particle's part of an itinerary certificate (`certify`).

    Over one period of the word, the particle's position along its edge
    moves by pos -> lam * pos + c, with 0 < |lam| < 1, whenever it starts
    in the open interval cylinder = (lo, hi), which the map takes into
    itself.  limit = c / (1 - lam) is the map's fixed point, which the
    positions one period apart converge to.
    """

    lam: Fraction
    cylinder: tuple
    limit: Fraction


@dataclass(frozen=True, slots=True)
class Termination:
    """Why an orbit run stopped.

    kind is one of 'periodic', 'translation', 'attracted', 'vertex',
    'max-steps'.  period, drift and residual are set for the two
    recurrence kinds: drift (translation only) is the common translation
    in A-local integer coordinates, and residual is the float-mode
    closure error (0 in exact mode).  location is the vertex hit, for
    'vertex'.  'attracted' is an exact run whose itinerary certificate
    holds: period is the word's period, lock the first step from which
    the word repeats, and certificate the pair of `Contraction`s of A
    and B, whose cylinders hold the positions at this step.
    """

    kind: str
    step: int
    period: Optional[int] = None
    drift: Optional[tuple] = None
    location: Optional[tuple] = None
    residual: Optional[float] = None
    lock: Optional[int] = None
    certificate: Optional[tuple] = None


@dataclass
class OrbitRecord:
    """One orbit run: per state, from the start on, the float world
    points of A and of B and the larger bit length of the two positions
    (`GridTiling.float_point`): of their denominators, or 53 for floats.

    `run_orbit` makes its record with `traced`, which holds each state's
    pair of particle tuples and the grid pair instead of the three
    lists.  The first read of any of them builds all three, in one pass
    of `float_point` over the tuples, and later reads find them set.  So
    a run whose verdict needs no trace, as a recurrence's or a vertex
    hit's does not, never builds one, while `==`, repr and the wire
    rule, which read every field, see the same lists as a record built
    with them.  steps, termination and exact build nothing.
    """

    start: PairState
    termination: Termination
    a_points: list
    b_points: list
    bit_lengths: list
    exact: bool
    states: Optional[list] = None

    @classmethod
    def traced(cls, start, termination, exact, states, grids, trace):
        """A record whose lists are built on first read, from trace, the
        (A, B) pairs of particle tuples that `tilings.move` steps, on
        grids, the pair (A's grid, B's grid)."""
        record = cls.__new__(cls)
        record.start, record.termination = start, termination
        record.exact, record.states = exact, states
        record._grids, record._trace = grids, trace
        return record

    def __getattr__(self, name):
        # Reached only for an attribute that is not set: on a traced
        # record, one of the three lists before the first read.
        if name not in ("a_points", "b_points", "bit_lengths"):
            raise AttributeError(name)
        (a_tiling, b_tiling), trace = self._grids, self._trace
        a_point, b_point = a_tiling.float_point, b_tiling.float_point
        a_points, b_points, bit_lengths = [], [], []
        for a, b in trace:
            ax, ay, a_bits = a_point(a[:3], a[3])
            bx, by, b_bits = b_point(b[:3], b[3])
            a_points.append((ax, ay))
            b_points.append((bx, by))
            bit_lengths.append(a_bits if a_bits > b_bits else b_bits)
        self.a_points, self.b_points, self.bit_lengths = (
            a_points, b_points, bit_lengths)
        del self._grids, self._trace
        return getattr(self, name)

    @property
    def steps(self) -> int:
        """The steps the run made, one fewer than its states: the step
        that meets a vertex is not one of them."""
        t = self.termination
        return t.step - 1 if t.kind == "vertex" else t.step


@dataclass(frozen=True, slots=True)
class Classification:
    verdict: str
    evidence: dict = field(default_factory=dict)


def _hold(a_tiling, b_tiling, state: PairState) -> tuple:
    """(exact, a, b, branches_a, branches_b): the arithmetic of a step or
    run from the state, its two particles as `tilings.to_tuple` holds
    them for it, and each grid's branch entries against the other
    (`GridTiling.branches`), keyed by (the particle's axis, its across,
    the other particle's axis).  It is exact when both grids are exact,
    whatever the positions' types, and then holds each position as its
    exact ratio (p, q), a float's included; otherwise it holds each as a
    float.  `GridTiling.branches`
    raises NonTransverseEdges, before it builds a table, when the grids
    have parallel edges.
    """
    branches = a_tiling.branches(b_tiling), b_tiling.branches(a_tiling)
    exact = a_tiling.exact and b_tiling.exact
    return (exact, tilings.to_tuple(state.a, exact),
            tilings.to_tuple(state.b, exact)) + branches


def step(a_tiling, b_tiling, state: PairState) -> PairState:
    """One move of each particle, each along the direction of the edge
    currently holding the other particle.  The two moves commute; the
    update reads only the incoming state.  It holds and moves the
    particles as a step of `run_orbit` does, from `_hold` through
    `GridTiling.branches` and `tilings.move`: on two exact grids it
    steps every position exactly, a float's from its binary value, and
    on a pair with a float grid it rounds a rational position.  Raises
    NonTransverseEdges when the grids have parallel edges, and
    VertexHit, A's first, at the world point of a grid vertex that a
    move meets.
    """
    _, a, b, branches_a, branches_b = _hold(a_tiling, b_tiling, state)
    next_a, inside_a = tilings.move(branches_a[a[0], a[4], b[0]], *a)
    next_b, inside_b = tilings.move(branches_b[b[0], b[4], a[0]], *b)
    if not inside_a:
        raise VertexHit(a_tiling.vertex_location(next_a))
    if not inside_b:
        raise VertexHit(b_tiling.vertex_location(next_b))
    return _pair(next_a, next_b)


def _shift(now: tuple, prev: tuple) -> Vec2:
    """Grid-local translation from prev to now, two particles held as
    `tilings.move` holds them, on edges of one axis.  An exact pair is a
    key repeat, whose positions are equal, so its translation is the
    integer change of line and cell."""
    axis, line, cell, pos, _ = now
    _, prev_line, prev_cell, prev_pos, _ = prev
    along = cell - prev_cell
    if type(pos) is not tuple:
        along += pos - prev_pos
    normal = line - prev_line
    return Vec2(normal, along) if axis == "v" else Vec2(along, normal)


def _closure(a_tiling, b_tiling, now: tuple, prev: tuple):
    """(residual, drift) of now against prev, two trace entries of
    `run_orbit`, each the (A, B) pair of held particles of a state with
    the same key, in the scalars' arithmetic.

    The residual is the largest of the gap between the two particles'
    world translations and the distance of each translation, in its own
    grid-local coordinates, from the nearest integer vector.  drift is
    the A-local integer vector nearest the A translation.
    """
    la, lb = _shift(now[0], prev[0]), _shift(now[1], prev[1])
    va, vb = a_tiling.to_world(la), b_tiling.to_world(lb)
    drift = (round(la.x), round(la.y))
    residual = max(abs(vb.x - va.x), abs(vb.y - va.y),
                   abs(la.x - drift[0]), abs(la.y - drift[1]),
                   abs(lb.x - round(lb.x)), abs(lb.y - round(lb.y)))
    return residual, drift


@functools.lru_cache(maxsize=1024)
def certify(a_tiling, b_tiling, word: tuple):
    """The pair (A, B) of `Contraction`s that prove an exact orbit which
    follows the word forever, else None.

    The word is one period of joint branch symbols, as `run_orbit`
    records them: per step, (A's edge axis, A's across, B's edge axis,
    B's across, A's next edge axis, B's next edge axis).  A particle went
    to the parallel line when its next axis is its axis.  So each step
    names, per particle, one map and open interval of the branch table
    that the move read (`tilings.branch_table`, from
    `GridTiling.branches`).
    Composing a particle's maps over the word gives pos -> lam * pos + c,
    and pulling each interval back to the word's start gives the cylinder
    of positions that follow the word.

    A particle qualifies when 0 < |lam| < 1 and its map takes its
    cylinder into itself; the word is certified when both do.  Then a
    state that follows the word, and whose edges one period later are its
    own, keeps following it: a move reads
    only the particle's own position, edge axis and across and the other
    particle's edge axis, the word takes each particle's axis and across
    back to where they started, and each position stays in its cylinder.
    So both positions converge to their fixed points, geometrically by
    |lam| per period, on edges that repeat with the period.  The result
    depends only on the grids and the word, and is memoised.
    """
    proof = (_contraction(a_tiling, b_tiling,
                          [(s[0], s[1], s[2], s[4]) for s in word]),
             _contraction(b_tiling, a_tiling,
                          [(s[2], s[3], s[0], s[5]) for s in word]))
    return proof if all(proof) else None


def _contraction(tiling, other, symbols):
    """One particle's `Contraction` over its symbols (axis, across, other
    particle's axis, next axis), or None when it does not contract into
    its cylinder."""
    lam, c = Fraction(1), Fraction(0)
    lo, hi = Fraction(0), Fraction(1)
    branches = tiling.branches(other)
    for axis, across, other_axis, next_axis in symbols:
        maps = branches[axis, across, other_axis][3]
        m, shift, low, high = maps[next_axis == axis]
        ends = sorted(((low - c) / lam, (high - c) / lam))
        lo, hi = max(lo, ends[0]), min(hi, ends[1])
        lam, c = m * lam, m * c + shift
    images = lam * lo + c, lam * hi + c
    if not (lo < hi and 0 < abs(lam) < 1
            and lo <= min(images) and max(images) <= hi):
        return None
    return Contraction(lam, (lo, hi), c / (1 - lam))


def run_orbit(a_tiling, b_tiling, start: PairState, max_steps: int = 1000,
              keep_states: bool = False) -> OrbitRecord:
    """Iterate the pair map until recurrence, a singularity, or max_steps.

    The grids must be transverse, else NonTransverseEdges is raised
    before the first step, by `GridTiling.branches` before it builds a
    branch table.  The first state under each key (edge axis,
    position along the edge, crossing sign of each particle) is kept.  A
    state recurs when the state kept under a matching key has a closure
    residual of at most tol: both particles moved by one and the same
    translation, integral in both period lattices.  Exact inputs use tol
    = 0, so the key is exact and a recurrence is proved.  Each next key
    reads only the pair's keys, so keys that repeat repeat periodically,
    each period adding the same shifts: no later state under a key closes
    unless the first one does, and an exact step reads one dict entry.
    Float inputs use tol = tilings.FLOAT_TOL; the key then snaps
    positions to steps of tol, and the candidates are the first states
    under the nine keys whose steps are at most one away for each
    particle.  They are kept under an outer key of both axes and
    crossing signs and A's step, then an inner key of B's step, so a
    step looks up three outer keys and reads B's three inner keys only
    under those it finds.  The earliest matching state wins.  Zero
    translation is a periodic orbit, nonzero a drift orbit.  Vertex hits
    terminate the run and are recorded rather than raised.

    An exact run also records each step's joint branch symbol (see
    `certify`).  Once the last 2p symbols repeat with a period p <=
    MAX_PERIOD, both particles' edges are those of p steps before (zero
    lattice shift) and `certify` proves the word contracting, the run
    stops as 'attracted': from then on the orbit converges to a fixed
    pair of points.  The candidate periods are the distances back to the
    earlier visits of the same pair of edges, so a step that meets none
    costs one lookup in a dict of edge pairs.  A lock with a nonzero
    shift runs on.  Float runs record no symbols.

    `_hold` decides the run's one arithmetic from the grids, as for
    `step`: exact, with each position held as its exact ratio (p, q), a
    float start position's from its binary value, when both grids are
    exact, and floats from step 0 when either is a float grid.  Each
    particle is held as the tuple (axis, line, cell, pos, across) that
    `tilings.move` steps, the move `step` makes.  Each move reads
    its branch from the entries its grid keeps per other grid
    (`GridTiling.branches`): over rationals it is integer work whose
    gcds each take one small argument, so a step costs time linear in
    the bit length, and a float position's step is plain float work.

    The trace, each state's pair of tuples, is the run's one store of
    its states.  Both recurrence indexes hold trace indices, and
    `_closure` compares two trace entries.  The record's start is the
    caller's start, and its states, with keep_states, are built from
    the trace after the last step, as `PairState`s of the states as the
    run holds them, from the start's on.  The record
    (`OrbitRecord.traced`) builds its points and bit lengths from the
    trace on their first read, through `GridTiling.float_point`.  A run
    whose reader never asks for them, as `classify` does not for a
    recurrence or a vertex hit, never builds them.  No `Particle` or
    `PairState` is built inside the step loop: only the caller's start,
    the kept states and a vertex hit's location are built as
    `Particle`s.
    """
    exact, a, b, branches_a, branches_b = _hold(a_tiling, b_tiling, start)
    tol = 0 if exact else tilings.FLOAT_TOL

    seen = {}
    termination = None
    trace = [(a, b)]
    index = 0

    def check_recurrence(a, b, idx: int):
        axis_a, _, _, pos_a, across_a = a
        axis_b, _, _, pos_b, across_b = b
        if exact:
            # One lookup, which also keeps the state's trace index when
            # its key is new.  An exact position is keyed as its (p, q),
            # which hashes without a modular inverse.
            hit = seen.setdefault(
                (axis_a, pos_a, across_a, axis_b, pos_b, across_b), idx)
            candidates = (hit,) if hit < idx else ()
        else:
            # Outer key: both axes and acrosses and A's snapped position;
            # inner key: B's snapped position; value: a trace index.
            ka, kb = math.floor(pos_a / tol), math.floor(pos_b / tol)
            candidates = []
            for near_a in (ka - 1, ka, ka + 1):
                inner = seen.get((axis_a, across_a, axis_b, across_b, near_a))
                if inner is not None:
                    for near_b in (kb - 1, kb, kb + 1):
                        hit = inner.get(near_b)
                        if hit is not None:
                            candidates.append(hit)
            if len(candidates) > 1:
                candidates.sort()
            seen.setdefault((axis_a, across_a, axis_b, across_b, ka),
                            {}).setdefault(kb, idx)
        for prev_idx in candidates:
            residual, drift = _closure(a_tiling, b_tiling, trace[idx],
                                       trace[prev_idx])
            if residual > tol:
                continue
            if drift == (0, 0):
                return Termination("periodic", idx, period=idx - prev_idx,
                                   residual=float(residual))
            return Termination("translation", idx, period=idx - prev_idx,
                               drift=drift, residual=float(residual))
        return None

    symbols = []
    last_at = {}        # A's edge + B's edge -> the last step there
    before = [None]     # per step, the step before it at the same edges

    def check_certificate(prev_a, prev_b, a, b, idx: int):
        symbols.append((prev_a[0], prev_a[4], prev_b[0], prev_b[4],
                        a[0], b[0]))
        edges = a[:3] + b[:3]
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

    check_recurrence(a, b, 0)
    move = tilings.move
    while termination is None and index < max_steps:
        next_a, inside_a = move(branches_a[a[0], a[4], b[0]], *a)
        next_b, inside_b = move(branches_b[b[0], b[4], a[0]], *b)
        if not (inside_a and inside_b):
            # A's vertex first, as `step` raises it.
            tiling, hit = ((a_tiling, next_a) if not inside_a
                           else (b_tiling, next_b))
            termination = Termination("vertex", index + 1,
                                      location=tiling.vertex_location(hit))
            break
        prev_a, prev_b, a, b = a, b, next_a, next_b
        index += 1
        trace.append((a, b))
        termination = check_recurrence(a, b, index)
        if termination is None and exact:
            termination = check_certificate(prev_a, prev_b, a, b, index)
    if termination is None:
        termination = Termination("max-steps", index)
    states = [_pair(a, b) for a, b in trace] if keep_states else None
    return OrbitRecord.traced(start, termination, exact, states,
                              (a_tiling, b_tiling), trace)


def _pair(a: tuple, b: tuple) -> PairState:
    return PairState(tilings.from_tuple(a), tilings.from_tuple(b))


def _bbox_diameters(a_points, b_points, half: int) -> tuple:
    """Diagonals of the bounding box of both particles' points: over the
    first half states, and over all of them.  The whole box is the first
    half's widened by the rest's, so each point is scanned once; min and
    max are exact, so both equal a scan of all the points they cover."""
    xs, ys = zip(*(a_points[:half] + b_points[:half]))
    rest_xs, rest_ys = zip(*(a_points[half:] + b_points[half:]))
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    return (math.hypot(x1 - x0, y1 - y0),
            math.hypot(max(x1, max(rest_xs)) - min(x0, min(rest_xs)),
                       max(y1, max(rest_ys)) - min(y0, min(rest_ys))))


def classify(record: OrbitRecord) -> Classification:
    """Verdict for an orbit record.

    Recurrence terminations map directly to exact verdicts, and so does
    'attracted': its itinerary certificate proves bounded-attracted, and
    the evidence holds the proof: the lock step, the period and each
    particle's lam, cylinder and limit (lambda_a, cylinder_a, limit_a,
    and the same for B), next to the trace measures below.  A run that
    hit the step budget is called bounded-attracted when the coordinate
    complexity keeps climbing (the running-max bit-length growth over the
    start at least doubled during the second half) while the bounding
    box of both particles' trace points has settled (its diameter grew
    by less than 1 percent during the second half); that
    verdict is heuristic and ships its evidence.  The growth measure is
    baseline-subtracted so that steady linear bit growth from a simple
    start counts as climbing.  The bit lengths are the positions' own,
    so scaling a grid moves no verdict.  Only these trace measures read
    the record's points and bit lengths, so a recurrence or a vertex hit
    is classified without building them.
    """
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
    # A certificate needs two periods, so an 'attracted' record has at
    # least three states.
    if n < 4 and t.kind != "attracted":
        return Classification(INCONCLUSIVE, {"steps": n - 1})
    half = n // 2
    bits = record.bit_lengths
    peak_half = max(bits[:half]) - bits[0]
    peak_end = max(peak_half, max(bits[half:]) - bits[0])
    diam_half, diam_end = _bbox_diameters(record.a_points, record.b_points,
                                          half)
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


def portrait_cell(a_tiling, b_tiling, edge_a, edge_b, frac_a, frac_b,
                  max_steps: int) -> str:
    """Classify the orbit started at the given edge fractions.  Pure; the
    portrait grid may evaluate cells in any order or in parallel.
    """
    state = PairState(a_tiling.particle_on(edge_a, frac_a),
                      b_tiling.particle_on(edge_b, frac_b))
    record = run_orbit(a_tiling, b_tiling, state, max_steps)
    return classify(record).verdict


def phase_portrait(a_tiling, b_tiling, edge_a, edge_b, resolution,
                   max_steps: int = 200):
    """Verdict raster over (position along edge_a) x (position along
    edge_b), sampled at cell centers (2i+1)/2w by (2j+1)/2h.  Returns h
    rows of w verdict strings, row j holding edge_b fraction (2j+1)/2h.
    """
    w, h = resolution
    return [[portrait_cell(a_tiling, b_tiling, edge_a, edge_b,
                           Fraction(2 * i + 1, 2 * w),
                           Fraction(2 * j + 1, 2 * h), max_steps)
             for i in range(w)]
            for j in range(h)]
