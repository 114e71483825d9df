"""The pair billiard map on two grids, orbit iteration, and orbit
classification.

A state is a particle on a grid A plus a particle on a grid B.  One step
moves each particle along the direction of the edge currently holding
the other particle, to its first hit on its own grid.  The travel sign
is fixed by requiring the chord to leave the particle's own edge on the
side the particle is facing; transversality of the two grids makes that
choice unambiguous.

Recurrence detection is one keyed lookup.  A state is keyed by its
position within the period lattices (edge axis, position along the
edge, facing side of each particle), so both literal periodicity and
periodicity up to a common lattice translation (a drift orbit) are
found by comparing a state only with the earlier states under its key.
Over rationals the key and the comparison are exact and the verdict is
proved; in float mode positions are snapped to steps of the grid
kernel's tolerance, `tilings.FLOAT_TOL`, and the comparison allows that
tolerance.

Sunburst orbits have a closed form and live in `weave`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import tilings
from .errors import NonTransverseEdges, VertexHit
from .exact import Vec2, bit_length
from .tilings import Particle

PERIODIC = "periodic"
UNBOUNDED_DRIFT = "unbounded-drift"
BOUNDED_ATTRACTED = "bounded-attracted"
SINGULAR = "singular"
INCONCLUSIVE = "inconclusive"

VERDICTS = (PERIODIC, UNBOUNDED_DRIFT, BOUNDED_ATTRACTED, SINGULAR,
            INCONCLUSIVE)


@dataclass(frozen=True, slots=True)
class PairState:
    a: Particle
    b: Particle


@dataclass(frozen=True, slots=True)
class Termination:
    """Why an orbit run stopped.

    kind is one of 'periodic', 'translation', 'vertex', 'max-steps'.
    period, drift and residual are set for the two recurrence kinds:
    drift (translation only) is the common translation in A-local
    integer coordinates, and residual is the float-mode closure error
    (0 in exact mode).  location is the vertex hit, for 'vertex'.
    """

    kind: str
    step: int
    period: Optional[int] = None
    drift: Optional[tuple] = None
    location: Optional[tuple] = None
    residual: Optional[float] = None


@dataclass(slots=True)
class OrbitRecord:
    start: PairState
    termination: Termination
    a_points: list
    b_points: list
    bit_lengths: list
    exact: bool
    states: Optional[list] = None

    @property
    def steps(self) -> int:
        return len(self.a_points) - 1


@dataclass(frozen=True, slots=True)
class Classification:
    verdict: str
    evidence: dict = field(default_factory=dict)


def _advance(tiling, particle: Particle, chord_dir: Vec2) -> Particle:
    """Move a particle to its first hit along +-chord_dir, choosing the
    sign that keeps the chord on the particle's facing side of its own
    edge line.
    """
    edge_dir = tiling.direction_of(particle.edge)
    facing = edge_dir.cross(particle.direction)
    lean = edge_dir.cross(chord_dir)
    if lean == 0:
        raise NonTransverseEdges(
            "chord direction is parallel to the particle's edge")
    travel = chord_dir if (lean > 0) == (facing > 0) else -chord_dir
    point, edge = tiling.first_hit(particle.point, travel)
    return Particle(point, edge, travel)


def step(a_tiling, b_tiling, state: PairState) -> PairState:
    """One move of each particle, each along the direction of the edge
    currently holding the other particle.  The two moves commute; the
    update reads only the incoming state.
    """
    a = _advance(a_tiling, state.a, b_tiling.direction_of(state.b.edge))
    b = _advance(b_tiling, state.b, a_tiling.direction_of(state.a.edge))
    return PairState(a, b)


def _side(tiling, particle: Particle) -> int:
    return 1 if tiling.direction_of(particle.edge).cross(
        particle.direction) > 0 else -1


def _key(tiling, particle: Particle, snap):
    """(edge axis, position along the edge, facing side): invariant under
    period-lattice translations.  For snap > 0 the position is snapped
    to floor(position / snap).
    """
    loc = tiling.to_local(particle.point)
    frac = (loc.y if particle.edge.axis == "v" else loc.x) - particle.edge.cell
    if snap > 0:
        frac = math.floor(frac / snap)
    return particle.edge.axis, frac, _side(tiling, particle)


def _closure(a_tiling, b_tiling, now: PairState, prev: PairState):
    """(residual, drift) of now against prev, in the scalars' arithmetic.

    The residual is the largest of the gap between the two particles'
    translations and the distance of each translation, in its own
    grid-local coordinates, from the nearest integer vector.  drift is
    the A-local integer vector nearest the A translation.
    """
    va = now.a.point - prev.a.point
    vb = now.b.point - prev.b.point
    la, lb = a_tiling.to_local(va), b_tiling.to_local(vb)
    drift = (round(la.x), round(la.y))
    residual = max(abs(vb.x - va.x), abs(vb.y - va.y),
                   abs(la.x - drift[0]), abs(la.y - drift[1]),
                   abs(lb.x - round(lb.x)), abs(lb.y - round(lb.y)))
    return residual, drift


def run_orbit(a_tiling, b_tiling, start: PairState, max_steps: int = 1000,
              keep_states: bool = True) -> OrbitRecord:
    """Iterate the pair map until recurrence, a singularity, or max_steps.

    Every state is filed under its key (edge axis, position along the
    edge, facing side of each particle).  A state recurs when an earlier
    state under a matching key has a closure residual of at most tol:
    both particles moved by one and the same translation, integral in
    both period lattices.  Exact inputs use tol = 0, so the key is exact
    and a recurrence is proved.  Float inputs use tol =
    tilings.FLOAT_TOL; the key then snaps positions to steps of tol and
    the neighbouring steps are probed too, so no pair of states within
    tol is missed.  The earliest matching state wins.  Zero translation
    is a periodic orbit, nonzero a drift orbit.  Vertex hits terminate
    the run and are recorded rather than raised.
    """
    exact = (start.a.point.is_exact() and start.b.point.is_exact()
             and a_tiling.exact and b_tiling.exact)
    tol = 0 if exact else tilings.FLOAT_TOL

    states = [start] if keep_states else None
    a_points = []
    b_points = []
    bit_lengths = []
    seen = {}
    termination = None
    state = start
    index = 0

    def record_state(st: PairState):
        a_points.append((float(st.a.point.x), float(st.a.point.y)))
        b_points.append((float(st.b.point.x), float(st.b.point.y)))
        bit_lengths.append(max(bit_length(st.a.point.x),
                               bit_length(st.a.point.y),
                               bit_length(st.b.point.x),
                               bit_length(st.b.point.y)))

    def probes(key):
        if tol <= 0:
            return (key,)
        axis, frac, side = key
        return [(axis, frac + d, side) for d in (-1, 0, 1)]

    def check_recurrence(st: PairState, idx: int):
        ka, kb = _key(a_tiling, st.a, tol), _key(b_tiling, st.b, tol)
        candidates = sorted(prev for pa in probes(ka) for pb in probes(kb)
                            for prev in seen.get((pa, pb), ()))
        seen.setdefault((ka, kb), []).append((idx, st))
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

    record_state(start)
    check_recurrence(start, 0)
    while termination is None and index < max_steps:
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
    if termination is None:
        termination = Termination("max-steps", index)
    return OrbitRecord(start, termination, a_points, b_points, bit_lengths,
                       exact, states)


def _bbox_diameter(points) -> float:
    """Diagonal of the bounding box of a list of float pairs."""
    xs, ys = zip(*points)
    return math.hypot(max(xs) - min(xs), max(ys) - min(ys))


def classify(record: OrbitRecord) -> Classification:
    """Verdict for an orbit record.

    Recurrence terminations map directly to exact verdicts.  A run that
    hit the step budget is called bounded-attracted when the coordinate
    complexity keeps climbing (the running-max bit-length growth over the
    start at least doubled during the second half) while the bounding
    box of both particles' trace points has settled (its diameter grew
    by less than 1 percent during the second half); that
    verdict is heuristic and ships its evidence.  The growth measure is
    baseline-subtracted so that steady linear bit growth from a simple
    start counts as climbing.
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
    n = len(record.bit_lengths)
    if n < 4:
        return Classification(INCONCLUSIVE, {"steps": n - 1})
    half = n // 2
    base = record.bit_lengths[0]
    peak_half = max(record.bit_lengths[:half]) - base
    peak_end = max(record.bit_lengths) - base
    diam_half = _bbox_diameter(record.a_points[:half]
                               + record.b_points[:half])
    diam_end = _bbox_diameter(record.a_points + record.b_points)
    growth = peak_end / peak_half if peak_half > 0 else math.inf
    spread = (diam_end - diam_half) / diam_end if diam_end > 0 else 0.0
    evidence = {"bit_growth": growth, "bbox_spread": spread,
                "steps": n - 1, "diameter": diam_end}
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
    record = run_orbit(a_tiling, b_tiling, state, max_steps, keep_states=False)
    return classify(record).verdict


def phase_portrait(a_tiling, b_tiling, edge_a, edge_b, resolution,
                   max_steps: int = 200):
    """Verdict raster over (position along edge_a) x (position along
    edge_b), sampled at cell centers (2i+1)/2w by (2j+1)/2h.  Returns h
    rows of w verdict strings, row j holding edge_b fraction (2j+1)/2h.
    """
    if a_tiling.direction_of(edge_a).cross(b_tiling.direction_of(edge_b)) == 0:
        raise NonTransverseEdges("portrait edges are parallel")
    w, h = resolution
    exact = a_tiling.exact and b_tiling.exact

    def frac(i, n):
        return Fraction(2 * i + 1, 2 * n) if exact else (2 * i + 1) / (2 * n)

    return [[portrait_cell(a_tiling, b_tiling, edge_a, edge_b,
                           frac(i, w), frac(j, h), max_steps)
             for i in range(w)]
            for j in range(h)]
