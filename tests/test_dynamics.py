import itertools
import math
import random
from fractions import Fraction

import pytest

from symtiling import tilings
from symtiling.dynamics import (BOUNDED_ATTRACTED, INCONCLUSIVE, PERIODIC,
                                SINGULAR, UNBOUNDED_DRIFT, OrbitRecord,
                                PairState, Termination, classify,
                                phase_portrait, portrait_cell, run_orbit,
                                step)
from symtiling.errors import NonTransverseEdges, VertexHit
from symtiling.exact import Vec2
from symtiling.tilings import GridEdge, GridTiling


def oracle_advance(tiling, particle, chord_dir, window=64):
    """Reference single-particle move: pick the travel orientation with
    the cross-side rule, then scan every grid line in a window for the
    nearest crossing.  Written independently of first_hit."""
    edge_dir = tiling.direction_of(particle.edge)
    lean = edge_dir.cross(chord_dir)
    facing = edge_dir.cross(particle.direction)
    assert lean != 0
    travel = chord_dir if (lean > 0) == (facing > 0) else -chord_dir
    ls = tiling.to_local(particle.point)
    lt = tiling.to_local(travel)
    hits = []
    for n in range(-window, window + 1):
        if lt.x != 0:
            s = (n - ls.x) / lt.x
            if s > 0:
                hits.append((s, "v", n, ls.y + s * lt.y))
        if lt.y != 0:
            s = (n - ls.y) / lt.y
            if s > 0:
                hits.append((s, "h", n, ls.x + s * lt.x))
    s, axis, line, cross = min(hits)
    if cross == math.floor(cross):
        return "vertex"
    point = particle.point + travel * s
    return point, GridEdge(axis, line, math.floor(cross)), travel


def random_state(rng, a, b):
    def particle(tiling):
        edge = GridEdge(rng.choice("vh"), rng.randint(-2, 2),
                        rng.randint(-2, 2))
        frac = Fraction(rng.randint(1, 99), 100)
        return tiling.particle_on(edge, frac, rng.choice((1, -1)))

    return PairState(particle(a), particle(b))


def test_step_matches_oracle():
    rng = random.Random(31)
    a = GridTiling.standard()
    for t in (Fraction(1, 3), Fraction(7, 11), Fraction(-3, 5)):
        b = GridTiling.from_parameter(t)
        for _ in range(60):
            state = random_state(rng, a, b)
            want_a = oracle_advance(a, state.a,
                                    b.direction_of(state.b.edge))
            want_b = oracle_advance(b, state.b,
                                    a.direction_of(state.a.edge))
            if want_a == "vertex" or want_b == "vertex":
                with pytest.raises(VertexHit):
                    step(a, b, state)
                continue
            out = step(a, b, state)
            assert (out.a.point, out.a.edge, out.a.direction) == want_a
            assert (out.b.point, out.b.edge, out.b.direction) == want_b


def test_single_step_by_hand():
    a = GridTiling.standard()
    b = GridTiling.from_parameter(Fraction(1, 3))
    state = PairState(a.particle_on(GridEdge("v", 0, 0), Fraction(1, 2), 1),
                      b.particle_on(GridEdge("v", 0, 0), Fraction(1, 3), 1))
    out = step(a, b, state)
    assert out.a.point == Vec2(Fraction(-3, 8), 1)
    assert out.a.edge == GridEdge("h", 1, -1)
    assert out.a.direction == Vec2(Fraction(-3, 5), Fraction(4, 5))
    assert out.b.point == Vec2(Fraction(-1, 5), Fraction(-3, 20))
    assert out.b.edge == GridEdge("h", 0, -1)
    assert out.b.direction == Vec2(0, -1)


def test_step_rejects_parallel_chord():
    a = GridTiling.standard()
    b = a.transformed(2, 0, 0, 3)
    state = PairState(a.particle_on(GridEdge("v", 0, 0), Fraction(1, 2), 1),
                      b.particle_on(GridEdge("v", 0, 0), Fraction(1, 2), 1))
    with pytest.raises(NonTransverseEdges):
        step(a, b, state)


def test_run_orbit_replay_and_states():
    a = GridTiling.standard()
    b = GridTiling.from_parameter(Fraction(1, 3))
    state = PairState(a.particle_on(GridEdge("v", 0, 0), Fraction(2, 7), 1),
                      b.particle_on(GridEdge("h", 0, 0), Fraction(3, 5), -1))
    rec1 = run_orbit(a, b, state, max_steps=120)
    rec2 = run_orbit(a, b, state, max_steps=120)
    assert rec1.termination == rec2.termination
    assert rec1.a_points == rec2.a_points
    assert rec1.states is not None
    assert len(rec1.states) == rec1.steps + 1
    for prev, nxt in zip(rec1.states, rec1.states[1:]):
        assert step(a, b, prev) == nxt


def test_crafted_vertex_hit():
    a = GridTiling.standard()
    b = GridTiling.from_parameter(Fraction(1, 3))
    state = PairState(a.particle_on(GridEdge("v", 0, 0), Fraction(1, 4), -1),
                      b.particle_on(GridEdge("h", 0, 0), Fraction(1, 2), 1))
    rec = run_orbit(a, b, state, max_steps=10)
    assert rec.termination.kind == "vertex"
    assert rec.termination.step == 1
    x, y = rec.termination.location
    assert (x, y) == (1.0, 1.0)
    assert classify(rec).verdict == SINGULAR


def test_float_right_angle_grids_close_up():
    a = GridTiling.standard()
    u = Vec2(math.cos(math.pi / 4), math.sin(math.pi / 4))
    b = GridTiling.rotated(u)
    state = PairState(a.particle_on(GridEdge("v", 0, 0), 0.3, 1),
                      b.particle_on(GridEdge("v", 0, 0), 0.6, 1))
    rec = run_orbit(a, b, state, max_steps=400)
    assert rec.termination.kind == "periodic"
    assert rec.termination.residual <= 1e-9
    assert classify(rec).verdict == PERIODIC


def oracle_float_termination(a, b, start, max_steps, tol):
    """Reference recurrence test: compare each state with every earlier
    state on the same edge axes and facing sides, O(steps^2).  A match
    needs both particles moved by one translation, integral in both
    grid-local frames, to within tol; the earliest match wins."""
    def loose(st):
        return tuple((t.direction_of(p.edge).cross(p.direction) > 0,
                      p.edge.axis) for t, p in ((a, st.a), (b, st.b)))

    def off_integer(v):
        return max(abs(v.x - round(v.x)), abs(v.y - round(v.y)))

    history = []
    state = start
    for idx in range(max_steps + 1):
        if idx:
            try:
                state = step(a, b, state)
            except VertexHit as hit:
                return Termination("vertex", idx, location=hit.location)
        key = loose(state)
        for prev_key, prev_idx, prev in history:
            if prev_key != key:
                continue
            va = state.a.point - prev.a.point
            vb = state.b.point - prev.b.point
            la, lb = a.to_local(va), b.to_local(vb)
            residual = max(abs(vb.x - va.x), abs(vb.y - va.y),
                           off_integer(la), off_integer(lb))
            if residual > tol:
                continue
            drift = (round(la.x), round(la.y))
            if drift == (0, 0):
                return Termination("periodic", idx, period=idx - prev_idx,
                                   residual=residual)
            return Termination("translation", idx, period=idx - prev_idx,
                               drift=drift, residual=residual)
        history.append((key, idx, state))
    return Termination("max-steps", max_steps)


def float_grid(theta=None, t=None):
    if theta is not None:
        return GridTiling.rotated(Vec2(math.cos(theta), math.sin(theta)))
    b = GridTiling.from_parameter(t)
    return GridTiling(Vec2(float(b.e1.x), float(b.e1.y)),
                      Vec2(float(b.e2.x), float(b.e2.y)))


def test_float_recurrence_matches_linear_scan():
    """At the grid kernel's tolerance these orbits contract onto a
    vertex and hit it."""
    rng = random.Random(61)
    a = GridTiling.standard()
    kinds = []
    for b in (float_grid(theta=math.pi / 5), float_grid(theta=1.0),
              float_grid(t=Fraction(1, 3)), float_grid(t=Fraction(7, 11))):
        for _ in range(12):
            start = PairState(
                a.particle_on(GridEdge(rng.choice("vh"), 0, 0),
                              rng.randint(1, 9999) / 10000,
                              rng.choice((1, -1))),
                b.particle_on(GridEdge(rng.choice("vh"), 0, 0),
                              rng.randint(1, 9999) / 10000,
                              rng.choice((1, -1))))
            want = oracle_float_termination(a, b, start, 120,
                                            tilings.FLOAT_TOL)
            got = run_orbit(a, b, start, 120, keep_states=False).termination
            assert got == want
            kinds.append(got.kind)
    assert kinds.count("vertex") >= 24


def test_float_recurrence_across_key_arcs(monkeypatch):
    """A grid tolerance of 2^-20 snaps positions to steps of 2^-20, so
    starts at eighths of an edge sit on step boundaries and a return a
    rounding error below the start lands in the neighbouring step."""
    a = GridTiling.standard()
    b = float_grid(theta=math.pi / 4)
    tol = 2.0 ** -20
    monkeypatch.setattr(tilings, "FLOAT_TOL", tol)
    for ea, eb, sa, sb in itertools.product("vh", "vh", (1, -1), (1, -1)):
        for j, k in itertools.product(range(1, 8), repeat=2):
            start = PairState(a.particle_on(GridEdge(ea, 0, 0), j / 8, sa),
                              b.particle_on(GridEdge(eb, 0, 0), k / 8, sb))
            want = oracle_float_termination(a, b, start, 40, tol)
            got = run_orbit(a, b, start, 40, keep_states=False).termination
            assert got == want and got.kind == "periodic"


def test_exact_recurrence_needs_no_direction_match():
    """The start's direction is the edge normal, later directions are
    chords; only the facing side matters, so the start itself recurs."""
    a = GridTiling.standard()
    b = a.transformed(1, 1, -1, 1)
    state = PairState(a.particle_on(GridEdge("v", 0, 0), Fraction(1, 2), 1),
                      b.particle_on(GridEdge("v", 0, 0), Fraction(1, 5), 1))
    rec = run_orbit(a, b, state, max_steps=50)
    assert rec.termination == Termination("periodic", 4, period=4,
                                          residual=0.0)
    assert rec.states[4].a.direction != state.a.direction
    assert classify(rec).verdict == PERIODIC


def test_exact_bounded_orbit_classifies():
    a = GridTiling.standard()
    b = GridTiling.from_parameter(Fraction(1, 3))
    state = PairState(a.particle_on(GridEdge("v", 0, 0), Fraction(1, 32), 1),
                      b.particle_on(GridEdge("v", 0, 0), Fraction(1, 32), 1))
    rec = run_orbit(a, b, state, max_steps=400, keep_states=False)
    assert rec.termination.kind == "max-steps"
    cls = classify(rec)
    assert cls.verdict == BOUNDED_ATTRACTED
    assert cls.evidence["bit_growth"] >= 2.0
    assert cls.evidence["bbox_spread"] < 0.01


def test_zero_step_budget():
    a = GridTiling.standard()
    b = GridTiling.from_parameter(Fraction(1, 3))
    state = PairState(a.particle_on(GridEdge("v", 0, 0), Fraction(1, 2), 1),
                      b.particle_on(GridEdge("v", 0, 0), Fraction(1, 3), 1))
    rec = run_orbit(a, b, state, max_steps=0)
    assert rec.steps == 0
    assert rec.termination == Termination("max-steps", 0)
    assert classify(rec).verdict == INCONCLUSIVE


def synthetic_record(bits, reach, kind="max-steps"):
    """A record whose A particle stays at the origin while B's trace
    point at step i is (reach[i], 0), so the bounding-box diameter of
    the first i + 1 states is max(reach[:i + 1])."""
    a = GridTiling.standard()
    state = PairState(a.particle_on(GridEdge("v", 0, 0), Fraction(1, 2), 1),
                      a.particle_on(GridEdge("h", 0, 0), Fraction(1, 2), 1))
    n = len(bits)
    return OrbitRecord(state, Termination(kind, n - 1), [(0.0, 0.0)] * n,
                       [(x, 0.0) for x in reach], list(bits), True)


def test_classify_growth_is_baseline_subtracted():
    n = 40
    linear = [100 + 2 * i for i in range(n)]
    flat_box = [1.0] * n
    cls = classify(synthetic_record(linear, flat_box))
    assert cls.verdict == BOUNDED_ATTRACTED
    assert (cls.evidence["bbox_spread"], cls.evidence["diameter"]) == (0, 1)
    stalled = [100] * n
    assert classify(synthetic_record(stalled, flat_box)).verdict \
        == INCONCLUSIVE
    growing_box = [1.0 + 0.1 * i for i in range(n)]
    cls = classify(synthetic_record(linear, growing_box))
    assert cls.verdict == INCONCLUSIVE
    assert cls.evidence["diameter"] == growing_box[-1]
    assert cls.evidence["bbox_spread"] == pytest.approx(
        (growing_box[-1] - growing_box[n // 2 - 1]) / growing_box[-1])


def test_classify_terminations_map_to_verdicts():
    rec = synthetic_record([1, 1, 1, 1], [1.0] * 4, kind="periodic")
    rec.termination = Termination("periodic", 3, period=3, residual=0.0)
    assert classify(rec).verdict == PERIODIC
    rec.termination = Termination("translation", 3, period=3, drift=(1, -2),
                                  residual=0.0)
    cls = classify(rec)
    assert cls.verdict == UNBOUNDED_DRIFT
    assert cls.evidence["drift"] == (1, -2)


def test_portrait_cell_and_grid():
    a = GridTiling.standard()
    b = GridTiling.from_parameter(Fraction(1, 3))
    edge = GridEdge("v", 0, 0)
    single = phase_portrait(a, b, edge, edge, (1, 1), max_steps=40)
    assert single == [[portrait_cell(a, b, edge, edge, Fraction(1, 2),
                                     Fraction(1, 2), 40)]]
    rows = phase_portrait(a, b, edge, edge, (3, 2), max_steps=30)
    assert len(rows) == 2 and all(len(r) == 3 for r in rows)
    allowed = {PERIODIC, UNBOUNDED_DRIFT, BOUNDED_ATTRACTED, SINGULAR,
               INCONCLUSIVE}
    assert all(v in allowed for row in rows for v in row)


def test_portrait_rejects_parallel_edges():
    a = GridTiling.standard()
    b = a.transformed(2, 0, 0, 3)
    edge = GridEdge("v", 0, 0)
    with pytest.raises(NonTransverseEdges):
        phase_portrait(a, b, edge, edge, (2, 2))


def test_affine_naturality_single_map():
    a = GridTiling.standard()
    b = GridTiling.from_parameter(Fraction(1, 3))
    m = (Fraction(2), Fraction(1, 3), Fraction(-1), Fraction(1))
    ta, tb = a.transformed(*m), b.transformed(*m)

    def image(p):
        return Vec2(m[0] * p.x + m[1] * p.y, m[2] * p.x + m[3] * p.y)

    state = PairState(a.particle_on(GridEdge("v", 0, 0), Fraction(2, 7), 1),
                      b.particle_on(GridEdge("h", 0, 0), Fraction(3, 5), -1))
    tstate = PairState(
        type(state.a)(image(state.a.point), state.a.edge,
                      image(state.a.direction)),
        type(state.b)(image(state.b.point), state.b.edge,
                      image(state.b.direction)))
    cur, tcur = state, tstate
    for _ in range(80):
        cur = step(a, b, cur)
        tcur = step(ta, tb, tcur)
        assert tcur.a.point == image(cur.a.point)
        assert tcur.b.point == image(cur.b.point)
        assert tcur.a.edge == cur.a.edge
        assert tcur.b.edge == cur.b.edge
