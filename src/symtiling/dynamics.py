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

`run_orbit` iterates the map, and `step` is its first step, so the map
is stepped in one place per arithmetic: `run_orbit`'s exact and float
loops.

Recurrence detection is one keyed lookup.  A state is keyed by its
position within the period lattices (edge axis, position along the
edge, crossing sign of each particle), so both literal periodicity and
periodicity up to a common lattice translation (a drift orbit) are
found by comparing a state only with the first state under its key:
it recurs when both particles moved by one and the same translation,
integral in both period lattices.  Each next key reads only the pair's
keys, so keys that repeat repeat periodically, each period adding the
same shifts, and no later state under a key closes unless the first
one does.  Over rationals the key and the comparison are exact and the
verdict is proved, and a step reads one dict entry.  In float mode
positions are snapped to steps of the grid kernel's tolerance,
`tilings.FLOAT_TOL`, and the comparison allows that tolerance.  A
candidate is compared with the state as two trace entries (`_closes`):
exactly in exact mode, and in float mode by the float formula of
`GridTiling.float_point`, so that a float run does no Fraction
arithmetic.  In float mode the state's key and the eight keys one step
away are looked up, in `_run_float`'s two-level index.

An exact orbit also stops once an itinerary certificate proves that it
contracts.  Each state's symbol holds, per particle, the key of the
branch entry that its move reads: its edge axis and across, and the
other particle's edge axis.  The one period a state tries is the
distance back to the last visit of both particles' edges, at most
`MAX_PERIOD` steps.  When the symbols repeat with that period, so that
both particles are back on their edges of one period before, `certify`
composes each particle's branch maps over the period, each move's
branch read from the next state's axis, and checks that the composite
contracts a cylinder of positions into itself.  Such an orbit converges
to a fixed pair of points, and the run ends as 'attracted', which
`classify` calls bounded-attracted with the proof as evidence.  Float
runs record no symbols.

Sunburst orbits have a closed form and live in `weave`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
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

# Longest period of the state symbols that an exact run tries to
# certify (`certify`): a state compares symbols for its one candidate
# period only when the period is at most this.
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
    points of A and of B (`GridTiling.float_point`) and the larger bit
    length of the two positions: of their denominators, or 53 for floats.

    `run_orbit` makes its record with `traced`, which holds each state's
    pair of particle tuples and the grid pair instead of the three
    lists.  The first read of either point list builds both, in one pass
    of `float_point`, which gives points alone, over the tuples.  The
    first read of the bit lengths builds them in a pass of their own,
    from the positions' denominators, or as 53s for a float run, with no
    point.  Later reads find them set.  So a run whose verdict needs no
    trace, as a recurrence's or a vertex hit's does not, never builds
    one, while `==`, repr and the wire rule, which read every field, see
    the same lists as a record built with them.  steps, termination and
    exact build nothing.
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
        # record, one of the three lists before its first read.
        if name == "bit_lengths":
            trace = self._trace
            self.bit_lengths = ([max(a[3][1].bit_length(),
                                     b[3][1].bit_length()) for a, b in trace]
                                if self.exact else [53] * len(trace))
        elif name in ("a_points", "b_points"):
            (a_tiling, b_tiling), trace = self._grids, self._trace
            a_point, b_point = a_tiling.float_point, b_tiling.float_point
            self.a_points = [a_point(a[:3], a[3]) for a, _ in trace]
            self.b_points = [b_point(b[:3], b[3]) for _, b in trace]
        else:
            raise AttributeError(name)
        return getattr(self, name)

    @property
    def steps(self) -> int:
        """The steps the run made, one fewer than its states: the step
        that meets a vertex is not one of them."""
        t = self.termination
        return t.step - 1 if t.kind == "vertex" else t.step


class _Pending:
    # An attracted run's record, held until its classification's
    # evidence is first read.  It is a base class's slot because a
    # dataclass made with slots=True makes slots for its own fields only
    # and keeps its bases' slots, and pickling, copying, `==` and repr
    # read the fields alone.
    __slots__ = ("_record",)


@dataclass(frozen=True, slots=True)
class Classification(_Pending):
    """An orbit's verdict and the evidence for it (`classify`).

    The classification of an 'attracted' run holds its verdict and the
    run's record with its evidence unset.  The first read of evidence
    builds it from the record, the certificate's fields and then the
    trace measures (`_trace_measures`), stores it and drops the record;
    later reads find it set.  So a caller that reads the verdict alone,
    as `phase_portrait` does, builds no trace point, while `==`, repr,
    copying, pickling and the wire rule, which read every field, see the
    evidence built eagerly.
    """

    verdict: str
    evidence: dict

    def __getattr__(self, name):
        # Reached only for an attribute that is not set: on an attracted
        # run's classification, evidence before its first read.
        if name != "evidence":
            raise AttributeError(name)
        record = self._record
        t = record.termination
        a, b = t.certificate
        object.__setattr__(self, "evidence", dict(
            lock=t.lock, period=t.period, lambda_a=a.lam, lambda_b=b.lam,
            cylinder_a=a.cylinder, cylinder_b=b.cylinder, limit_a=a.limit,
            limit_b=b.limit, **_trace_measures(record)[1]))
        object.__delattr__(self, "_record")
        return self.evidence


def step(a_tiling, b_tiling, state: PairState) -> PairState:
    """The state one `run_orbit` step after state: each particle moves
    along the direction of the edge currently holding the other, in the
    run's arithmetic and by its move.  Raises NonTransverseEdges when the
    grids have parallel edges, and VertexHit, A's first, at the world
    point of a grid vertex that a move meets.
    """
    record = run_orbit(a_tiling, b_tiling, state, 1, keep_states=True)
    if record.termination.kind == "vertex":
        raise VertexHit(record.termination.location)
    return record.states[1]


def _shift(tiling, now: tuple, prev: tuple) -> tuple:
    """(local, world): the translation from prev to now, two particles of
    the tiling held as `tilings.move` holds them, on edges of one axis,
    in grid-local coordinates and in the world.  An exact pair is a key
    repeat, whose positions are equal, so its translation is the integer
    change of line and cell, and `to_world` maps it exactly.  A float
    pair's world translation is `GridTiling.float_point`'s float formula,
    which rounds as `to_world`'s does, with no Fraction arithmetic."""
    axis, line, cell, pos, _ = now
    _, prev_line, prev_cell, prev_pos, _ = prev
    normal, along = line - prev_line, cell - prev_cell
    if type(pos) is tuple:
        local = Vec2(normal, along) if axis == "v" else Vec2(along, normal)
        return local, tiling.to_world(local)
    frac = pos - prev_pos
    x, y = tiling.float_point((axis, normal, along), frac)
    along += frac
    local = Vec2(normal, along) if axis == "v" else Vec2(along, normal)
    return local, Vec2(x, y)


@functools.lru_cache(maxsize=1024)
def certify(a_tiling, b_tiling, word: tuple):
    """The pair (A, B) of `Contraction`s that prove an exact orbit which
    follows the word forever, else None.

    The word is one period of state symbols, as `run_orbit` records
    them: per state, (A's edge axis, A's across, B's edge axis, B's
    across), which holds the keys of both particles' entries in
    `GridTiling.branches`.  A particle's move goes to the parallel line
    when its axis in the next state is the same, and the state after the
    word's last is the word's first again, whose axes it shares.  So each
    state names, per particle, one map and open interval of the branch
    table that its move reads (`tilings.branch_table`).
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
    proof = (_contraction(a_tiling, b_tiling, [s[:3] for s in word]),
             _contraction(b_tiling, a_tiling,
                          [(s[2], s[3], s[0]) for s in word]))
    return proof if all(proof) else None


def _contraction(tiling, other, keys):
    """One particle's `Contraction` over one period of its branch keys
    (axis, across, other particle's axis), or None when it does not
    contract into its cylinder.  Each move's branch is read from the next
    key's axis, and the last move's from the first key's."""
    lam, c = Fraction(1), Fraction(0)
    lo, hi = Fraction(0), Fraction(1)
    branches = tiling.branches(other)
    for key, (next_axis, _, _) in zip(keys, keys[1:] + keys[:1]):
        m, shift, low, high = branches[key][3][next_axis == key[0]]
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
    """Iterate the pair map from start until a recurrence, a vertex hit
    or max_steps steps.

    The grids alone decide the run's one arithmetic: exact when both
    are exact, else float.  The run holds each particle as the tuple
    that the pair's move steps (`tilings.to_tuple`), on an exact pair
    with every position its exact ratio, a float start position's
    included, and on a pair with a float grid with every position a
    float from the start, so a float run rounds a rational start once.
    It reads both grids' branch entries from `GridTiling.branches`, the
    one set-up of a pair of grids, which raises NonTransverseEdges
    before the first step when the grids have parallel edges.

    The termination's kind is 'periodic' or 'translation' when a state
    closes with an earlier one kept under a matching key, at zero or at
    a nonzero common lattice translation; 'attracted' when an exact
    run's itinerary certificate holds (`certify`); 'vertex' when a move
    meets a grid vertex, which is recorded rather than raised; and
    'max-steps' when none of these comes within max_steps steps.

    The record's start is the caller's start.  With keep_states its
    states are the run's states from the start's on, as `PairState`s
    built after the last step; else they are None.  The record
    (`OrbitRecord.traced`) builds its a_points, b_points and bit_lengths
    from the run's trace on their first read.
    """
    branches_a = a_tiling.branches(b_tiling)
    branches_b = b_tiling.branches(a_tiling)
    exact = a_tiling.exact and b_tiling.exact
    trace = [(tilings.to_tuple(start.a, exact),
              tilings.to_tuple(start.b, exact))]
    run = _run_exact if exact else _run_float
    termination = run(a_tiling, b_tiling, branches_a, branches_b, trace,
                      max_steps)
    states = ([PairState(tilings.from_tuple(a), tilings.from_tuple(b))
               for a, b in trace] if keep_states else None)
    return OrbitRecord.traced(start, termination, exact, states,
                              (a_tiling, b_tiling), trace)


def _run_exact(a_tiling, b_tiling, branches_a, branches_b, trace: list,
               max_steps: int) -> Termination:
    """The exact loop of `run_orbit`: from the state in trace[0] on, it
    appends each state to trace and returns the run's termination.  Each
    state makes, in the loop itself: one keyed lookup, the closure test
    against the first state under its key, and the certificate search;
    then it appends its symbol and moves.  So at state index the symbols
    are those of states 0 to index - 1.  The search tries one period p:
    the distance back to the last visit of both particles' edges, at
    most `MAX_PERIOD`, so a state costs one lookup in a dict of edge
    pairs and at most one comparison of symbols.  The run stops as
    'attracted' once the last 2p symbols repeat and `certify` proves the
    word, the last p, contracting.  A lock with a nonzero lattice shift
    runs on, since its edges one period back are not its own."""
    move = tilings.move
    seen = {}
    symbols = []
    last_at = {}        # A's edge + B's edge -> the last step there
    a, b = trace[0]
    index = 0
    while True:
        # One lookup, which also keeps the state's trace index when its
        # key is new.  An exact position is keyed as its (p, q), which
        # hashes without a modular inverse.
        hit = seen.setdefault((a[0], a[3], a[4], b[0], b[3], b[4]), index)
        if hit < index:
            termination = _closes(a_tiling, b_tiling, trace, index, hit, 0)
            if termination is not None:
                return termination
        edges = a[:3] + b[:3]
        # A first visit of the edges gives p = index + MAX_PERIOD, which
        # fails 2p <= index.
        p = index - last_at.get(edges, -MAX_PERIOD)
        last_at[edges] = index
        if (p <= MAX_PERIOD and 2 * p <= index
                and symbols[-p:] == symbols[-2 * p:-p]):
            proof = certify(a_tiling, b_tiling, tuple(symbols[-p:]))
            if proof is not None:
                lock = index - 2 * p
                while lock and symbols[lock - 1] == symbols[lock - 1 + p]:
                    lock -= 1
                return Termination("attracted", index, period=p, lock=lock,
                                   certificate=proof)
        if index >= max_steps:
            return Termination("max-steps", index)
        symbols.append((a[0], a[4], b[0], b[4]))
        next_a, inside_a = move(branches_a[a[0], a[4], b[0]], a)
        next_b, inside_b = move(branches_b[b[0], b[4], a[0]], b)
        if not (inside_a and inside_b):
            return _vertex(a_tiling, b_tiling, next_a, inside_a, next_b,
                           index + 1)
        a, b = next_a, next_b
        index += 1
        trace.append((a, b))


def _run_float(a_tiling, b_tiling, branches_a, branches_b, trace: list,
               max_steps: int) -> Termination:
    """The float loop of `run_orbit`, as `_run_exact` is the exact one.
    It reads `tilings.FLOAT_TOL` once, and each state makes, in the loop
    itself: the three outer lookups, the closure test of each candidate,
    the keeping of the state, then the move.  The outer lookups read A's
    snapped step and the steps one below and one above, and the inner
    lookups B's three steps under each outer key that is there, so a
    state meets the first states under its key and the eight keys one
    step away.  Its common case is three lookups that find no key and a
    new outer key.  The candidate search runs only under an outer key
    that is there, and tries the candidates earliest first: the first
    that closes wins."""
    tol = tilings.FLOAT_TOL
    move, floor = tilings.move_float, math.floor
    # Outer key: A's snapped step; inner key: both axes and acrosses and
    # B's snapped step; value: a trace index.
    seen = {}
    get, append = seen.get, trace.append
    a, b = trace[0]
    index = 0
    while True:
        ka, kb = floor(a[3] / tol), floor(b[3] / tol)
        key = a[0], a[4], b[0], b[4], kb
        below, here, above = get(ka - 1), get(ka), get(ka + 1)
        if below or here or above:
            near = [key[:4] + (kb + d,) for d in (-1, 0, 1)]
            for prev_idx in sorted(inner[k] for inner in (below, here, above)
                                   if inner for k in near if k in inner):
                termination = _closes(a_tiling, b_tiling, trace, index,
                                      prev_idx, tol)
                if termination is not None:
                    return termination
        if here is None:
            seen[ka] = {key: index}
        else:
            here.setdefault(key, index)
        if index >= max_steps:
            return Termination("max-steps", index)
        next_a, inside_a = move(branches_a[a[0], a[4], b[0]], a)
        next_b, inside_b = move(branches_b[b[0], b[4], a[0]], b)
        if not (inside_a and inside_b):
            return _vertex(a_tiling, b_tiling, next_a, inside_a, next_b,
                           index + 1)
        a, b = next_a, next_b
        index += 1
        append((a, b))


def _closes(a_tiling, b_tiling, trace: list, idx: int, prev_idx: int, tol):
    """The recurrence termination of trace[idx] against trace[prev_idx],
    a state kept under a matching key, or None when their closure
    residual exceeds tol.  Each trace entry is the (A, B) pair of held
    particles of a state, compared in the scalars' arithmetic.

    The residual is the largest of the gap between the two particles'
    world translations and the distance of each translation, in its own
    grid-local coordinates, from the nearest integer vector.  The drift
    is the A-local integer vector nearest the A translation.
    """
    now, prev = trace[idx], trace[prev_idx]
    (la, va), (lb, vb) = (_shift(a_tiling, now[0], prev[0]),
                          _shift(b_tiling, now[1], prev[1]))
    drift = (round(la.x), round(la.y))
    residual = max(abs(vb.x - va.x), abs(vb.y - va.y),
                   abs(la.x - drift[0]), abs(la.y - drift[1]),
                   abs(lb.x - round(lb.x)), abs(lb.y - round(lb.y)))
    if residual > tol:
        return None
    if drift == (0, 0):
        return Termination("periodic", idx, period=idx - prev_idx,
                           residual=float(residual))
    return Termination("translation", idx, period=idx - prev_idx,
                       drift=drift, residual=float(residual))


def _vertex(a_tiling, b_tiling, next_a, inside_a: bool, next_b,
            index: int) -> Termination:
    """The termination of a step to index whose moves, to next_a and
    next_b, meet a vertex: A's when inside_a is False, else B's.  So when
    both moves meet one, A's is reported, and `step` raises it."""
    tiling, hit = ((a_tiling, next_a) if not inside_a
                   else (b_tiling, next_b))
    return Termination("vertex", index, location=tiling.vertex_location(hit))


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


def _trace_measures(record: OrbitRecord) -> tuple:
    """(peak_end, measures) of a record of at least three states: the
    largest bit length above the start's, and the trace measures
    bit_growth, bbox_spread, steps and diameter that `classify` reports
    (its docstring defines them).  This is the one reader of the
    record's points and bit lengths in `classify`."""
    n = record.steps + 1
    half = n // 2
    bits = record.bit_lengths
    peak_half = max(bits[:half]) - bits[0]
    peak_end = max(peak_half, max(bits[half:]) - bits[0])
    diam_half, diam_end = _bbox_diameters(record.a_points, record.b_points,
                                          half)
    growth = peak_end / peak_half if peak_half > 0 else math.inf
    spread = (diam_end - diam_half) / diam_end if diam_end > 0 else 0.0
    return peak_end, {"bit_growth": growth, "bbox_spread": spread,
                      "steps": n - 1, "diameter": diam_end}


def classify(record: OrbitRecord) -> Classification:
    """Verdict for an orbit record.

    Recurrence terminations map directly to exact verdicts, and so does
    'attracted': its itinerary certificate proves bounded-attracted, and
    the evidence holds the proof: the lock step, the period and each
    particle's lam, cylinder and limit (lambda_a, cylinder_a, limit_a,
    and the same for B), next to the trace measures below.  Since the
    verdict needs no measure, that evidence is built on its first read
    (`Classification`).  A run that hit the step budget is called
    bounded-attracted when the coordinate complexity keeps climbing (the
    running-max bit-length growth over the start at least doubled during
    the second half) while the bounding box of both particles' trace
    points has settled (its diameter grew by less than 1 percent during
    the second half); that verdict is heuristic and ships its evidence.
    The growth measure is baseline-subtracted so that steady linear bit
    growth from a simple start counts as climbing.  The bit lengths are
    the positions' own, so scaling a grid moves no verdict.  Only these
    trace measures read the record's points and bit lengths, so a
    recurrence, a vertex hit, and an attracted run whose evidence is not
    read are classified without building them.
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
    if t.kind == "attracted":
        # A certificate needs two periods, so the record has at least
        # three states, as `_trace_measures` needs.
        pending = Classification.__new__(Classification)
        object.__setattr__(pending, "verdict", BOUNDED_ATTRACTED)
        object.__setattr__(pending, "_record", record)
        return pending
    if record.steps < 3:
        return Classification(INCONCLUSIVE, {"steps": record.steps})
    peak_end, evidence = _trace_measures(record)
    if (peak_end > 0 and evidence["bit_growth"] >= 2.0
            and evidence["bbox_spread"] < 0.01):
        return Classification(BOUNDED_ATTRACTED, evidence)
    return Classification(INCONCLUSIVE, evidence)


def phase_portrait(a_tiling, b_tiling, edge_a, edge_b, resolution,
                   max_steps: int = 200):
    """Verdict raster over (position along edge_a) x (position along
    edge_b), sampled at cell centers (2i+1)/2w by (2j+1)/2h.  Returns h
    rows of w verdict strings, row j holding edge_b fraction (2j+1)/2h:
    cell (i, j) is the `classify` verdict of the orbit from that centre.
    """
    w, h = resolution

    def verdict(i, j):
        state = PairState(
            a_tiling.particle_on(edge_a, Fraction(2 * i + 1, 2 * w)),
            b_tiling.particle_on(edge_b, Fraction(2 * j + 1, 2 * h)))
        return classify(run_orbit(a_tiling, b_tiling, state,
                                  max_steps)).verdict

    return [[verdict(i, j) for i in range(w)] for j in range(h)]
