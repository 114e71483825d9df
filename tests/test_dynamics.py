import collections
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from symtiling import dynamics, serialize, svgout, tilings
from symtiling.dynamics import (BOUNDED_ATTRACTED, INCONCLUSIVE, PERIODIC,
                                SINGULAR, UNBOUNDED_DRIFT, OrbitRecord,
                                PairState, Termination, certify, classify,
                                phase_portrait, portrait_cell, run_orbit,
                                step)
from symtiling.errors import NonTransverseEdges, VertexHit
from symtiling.exact import Vec2, rational_circle_point
from symtiling.tilings import GridEdge, GridTiling, Particle

from oracles import move_particle, oracle_run_orbit


def oracle_advance(tiling, particle, chord_dir, window=64):
    """Reference single-particle move: pick the travel orientation that
    crosses the particle's edge line the `across` way, then scan every
    grid line in a window for the nearest crossing.  Returns the world
    hit point, the hit edge and the new crossing sign.  Written
    independently of tilings.move."""
    start = tiling.point_on(particle.edge, particle.pos)
    ls = tiling.to_local(start)
    lt = tiling.to_local(chord_dir)
    normal = lt.x if particle.edge.axis == "v" else lt.y
    assert normal != 0
    if (normal > 0) != (particle.across > 0):
        lt = -lt
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
    point = start + tiling.to_world(lt) * s
    across = 1 if (lt.x if axis == "v" else lt.y) > 0 else -1
    return point, GridEdge(axis, line, math.floor(cross)), across


def random_state(rng, a, b):
    def particle(tiling):
        edge = GridEdge(rng.choice("vh"), rng.randint(-2, 2),
                        rng.randint(-2, 2))
        frac = Fraction(rng.randint(1, 99), 100)
        return tiling.particle_on(edge, frac, rng.choice((1, -1)))

    return PairState(particle(a), particle(b))


def random_integer_pair(rng):
    """A transverse pair of grids with random integer bases, entries in
    [-3, 3]."""
    def grid():
        while True:
            m = [rng.randint(-3, 3) for _ in range(4)]
            if m[0] * m[3] != m[1] * m[2]:
                return GridTiling(Vec2(m[0], m[1]), Vec2(m[2], m[3]))

    while True:
        a, b = grid(), grid()
        if tilings.is_transverse(a, b):
            return a, b


def test_step_matches_oracle():
    rng = random.Random(31)
    a = GridTiling.standard()
    for t in (Fraction(1, 3), Fraction(7, 11), Fraction(-3, 5)):
        b = GridTiling.from_parameter(t)
        for _ in range(60):
            state = random_state(rng, a, b)
            want_a = oracle_advance(a, state.a,
                                    b.direction_of(state.b.edge.axis))
            want_b = oracle_advance(b, state.b,
                                    a.direction_of(state.a.edge.axis))
            if want_a == "vertex" or want_b == "vertex":
                with pytest.raises(VertexHit):
                    step(a, b, state)
                continue
            out = step(a, b, state)
            assert (a.point_on(out.a.edge, out.a.pos), out.a.edge,
                    out.a.across) == want_a
            assert (b.point_on(out.b.edge, out.b.pos), out.b.edge,
                    out.b.across) == want_b


def test_single_step_by_hand():
    a = GridTiling.standard()
    b = GridTiling.from_parameter(Fraction(1, 3))
    state = PairState(a.particle_on(GridEdge("v", 0, 0), Fraction(1, 2), 1),
                      b.particle_on(GridEdge("v", 0, 0), Fraction(1, 3), 1))
    out = step(a, b, state)
    assert a.point_on(out.a.edge, out.a.pos) == Vec2(Fraction(-3, 8), 1)
    assert out.a.edge == GridEdge("h", 1, -1)
    # The chord (-3/5, 4/5) crosses the h edge upward, to +y.
    assert out.a.across == 1
    assert b.point_on(out.b.edge, out.b.pos) == Vec2(Fraction(-1, 5),
                                                     Fraction(-3, 20))
    assert out.b.edge == GridEdge("h", 0, -1)
    # The chord (0, -1) is -4/5 e1 + 3/5 e2 in B: it crosses downward.
    assert out.b.across == -1


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
    rec1 = run_orbit(a, b, state, max_steps=120, keep_states=True)
    rec2 = run_orbit(a, b, state, max_steps=120, keep_states=True)
    assert rec1.termination == rec2.termination
    assert rec1.a_points == rec2.a_points
    assert rec1.states is not None
    assert len(rec1.states) == rec1.steps + 1
    for prev, nxt in zip(rec1.states, rec1.states[1:]):
        assert step(a, b, prev) == nxt


@pytest.mark.parametrize("exact", [True, False])
def test_step_reads_each_grid_pairs_own_chords(exact):
    """One A stepped against two B grids in turn moves as tilings.move
    does on the branch_table of chords freshly computed by to_local, for
    every pair of edge axes and crossing signs: a table keyed on A
    alone, or a float chord that drifts from to_local, fails."""
    ts = (Fraction(1, 3), Fraction(7, 11))
    if exact:
        a = GridTiling(Vec2(2, 1), Vec2(-1, 3))
        bs = [GridTiling.from_parameter(t) for t in ts]
        pos_a, pos_b = Fraction(2, 7), Fraction(3, 5)
    else:
        a = GridTiling(Vec2(2.0, 1.0), Vec2(-1.0, 3.0))
        bs = [float_grid(t=t) for t in ts]
        pos_a, pos_b = 2 / 7, 3 / 5
    for b in bs + bs[:1]:
        for axis_a, axis_b, across_a, across_b in itertools.product(
                "vh", "vh", (1, -1), (1, -1)):
            state = PairState(
                Particle(GridEdge(axis_a, 1, -2), pos_a, across_a),
                Particle(GridEdge(axis_b, 0, 1), pos_b, across_b))
            chord_a = a.to_local(b.direction_of(state.b.edge.axis))
            chord_b = b.to_local(a.direction_of(state.a.edge.axis))
            want = PairState(
                move_particle(a, state.a, tilings.branch_table(chord_a)),
                move_particle(b, state.b, tilings.branch_table(chord_b)))
            assert step(a, b, state) == want


def test_branch_tables_are_built_once_per_grid_pair(monkeypatch):
    """Each grid builds the branch tables of the other grid's edge axes
    on first use: at most four tables for a pair of grids however long
    the run, in exact and in float mode, and none on a second run over
    the same grids: each grid keeps its particle's branches per other
    grid.  A step that built its branch data again would fail."""
    built = []
    build = tilings.branch_table
    monkeypatch.setattr(tilings, "branch_table",
                        lambda chord: built.append(chord) or build(chord))
    fa, fb = GridTiling(Vec2(1.0, 0.0), Vec2(0.0, 1.0)), float_grid(theta=1.0)
    floats = fa, fb, PairState(
        fa.particle_on(GridEdge("v", 0, 0), 0.3, 1),
        fb.particle_on(GridEdge("h", 0, 0), 0.6, -1))
    for a, b, start in (seven_elevenths_start(), floats):
        for run in range(2):
            built.clear()
            rec = run_orbit(a, b, start, 200, keep_states=False)
            assert rec.steps > 4
            assert len(built) <= (4 if run == 0 else 0)


def recorded(tiling, particle):
    """Oracle of one particle's record: float() of point_on's world
    coordinates, and the position's bit length: 53 for a float, and its
    denominator's for an exact position."""
    p = tiling.point_on(particle.edge, particle.pos)
    bits = (53 if isinstance(particle.pos, float)
            else particle.pos.denominator.bit_length())
    return (float(p.x), float(p.y)), bits


def ulps_off(tiling, particle, point) -> Fraction:
    """How far point's coordinates lie from point_on's exact ones, at
    most, each in ulps of the larger of its two exact terms: the line
    term and the along term."""
    edge, pos = particle.edge, particle.pos
    along = edge.cell + pos
    local = (edge.line, along) if edge.axis == "v" else (along, edge.line)
    want = tiling.point_on(edge, pos)
    off = Fraction(0)
    for got, exact, entries in ((point[0], want.x, (tiling.e1.x, tiling.e2.x)),
                                (point[1], want.y, (tiling.e1.y, tiling.e2.y))):
        larger = max(abs(u * v) for u, v in zip(entries, local))
        off = max(off, abs(Fraction(got) - exact)
                  / Fraction(math.ulp(float(larger))))
    return off


def check_recording(a, b, start, max_steps):
    """Every state's record: exact states within 3 ulps of point_on and
    the larger bit length of the two denominators, float states equal to
    float() of point_on at 53 bits."""
    rec = run_orbit(a, b, start, max_steps, keep_states=True)
    assert len(rec.states) == len(rec.a_points) == len(rec.bit_lengths)
    for st, pa, pb, bits in zip(rec.states, rec.a_points, rec.b_points,
                                rec.bit_lengths):
        (want_a, bits_a), (want_b, bits_b) = (recorded(a, st.a),
                                              recorded(b, st.b))
        assert bits == max(bits_a, bits_b)
        if rec.exact:
            assert ulps_off(a, st.a, pa) <= 3 and ulps_off(b, st.b, pb) <= 3
        else:
            assert (pa, pb) == (want_a, want_b)
    return rec


def float_a():
    """The A grid of the CLI's --angle runs: the standard grid in floats."""
    return GridTiling(Vec2(1.0, 0.0), Vec2(0.0, 1.0))


def check_recordings(a):
    rng = random.Random(15)
    pairs = [(a, GridTiling.from_parameter(t))
             for t in (Fraction(1, 3), Fraction(7, 11), Fraction(3, 7))]
    pairs += [random_integer_pair(rng) for _ in range(4)]
    pairs.append((a, GridTiling.rotated(Vec2(math.cos(math.pi / 5),
                                             math.sin(math.pi / 5)))))
    for a, b in pairs:
        for _ in range(4):
            check_recording(a, b, random_state(rng, a, b), 60)


def test_recorded_points_and_bits_match_point_on():
    """Exact runs on rotation and integer pairs record points within 3
    ulps of point_on and the bit length of the larger denominator; the
    float run at pi/5 records float() of point_on at 53 bits."""
    check_recordings(GridTiling.standard())


def test_recorded_points_and_bits_match_point_on_with_a_float_a():
    """The same checks with a float A: its runs against the rotation
    grids are float runs, and the integer pairs, which do not use A, run
    exact."""
    check_recordings(float_a())


def test_float_point_matches_point_on_bit_for_bit():
    """float_point's plain float work rounds as float() of point_on's
    world point does, 53 bits: float positions on exact grids, three of
    whose bases have a common denominator d > 1, and on float grids, one
    of them given Fraction and float entries, on both axes, with lines
    and cells up to 10^6 either way."""
    rng = random.Random(19)
    exact = [GridTiling.standard(), GridTiling.from_parameter(Fraction(7, 11)),
             GridTiling.from_parameter(Fraction(3, 7)),
             GridTiling(Vec2(Fraction(2, 3), Fraction(-5, 7)),
                        Vec2(Fraction(1, 9), Fraction(13, 5)))]
    floats = [float_a(), float_grid(theta=math.pi / 5), float_grid(theta=2.0),
              float_grid(t=Fraction(7, 11)),
              GridTiling(Vec2(Fraction(1, 3), 0.5), Vec2(0.25, Fraction(2, 7)))]
    for tiling in exact + floats:
        for _ in range(1500):
            span = 10 ** rng.randint(0, 6)
            edge = GridEdge(rng.choice("vh"), rng.randint(-span, span),
                            rng.randint(-span, span))
            pos = rng.uniform(0.0, 1.0) or 0.5
            (x, y), bits = recorded(tiling, Particle(edge, pos, 1))
            assert tiling.float_point(edge, pos) == (x, y, bits) == (
                x, y, 53)


def seven_elevenths_start():
    """C3's first start: its orbit gains about 6 bits a step."""
    a = GridTiling.standard()
    b = GridTiling.from_parameter(Fraction(7, 11))
    return a, b, PairState(
        a.particle_on(GridEdge("v", 0, 0), Fraction(1, 4), -1),
        b.particle_on(GridEdge("v", 0, 0), Fraction(1, 3), 1))


def seven_elevenths_mirror_start():
    """A start on the 7/11 pair whose itinerary never locks: it keeps
    pos_A + pos_B = 1 or pos_A = pos_B, and its orbit gains about 3.5
    bits a step."""
    a = GridTiling.standard()
    b = GridTiling.from_parameter(Fraction(7, 11))
    return a, b, PairState(
        a.particle_on(GridEdge("v", 0, 0), Fraction(1, 4), 1),
        b.particle_on(GridEdge("v", 0, 0), Fraction(3, 4), 1))


def test_long_exact_orbit_records_match_point_on():
    """3,000 exact steps whose positions reach 10,000 bits: every point
    is within 3 ulps of point_on, and every bit length is the larger
    denominator's."""
    rec = check_recording(*seven_elevenths_mirror_start(), 3000)
    assert rec.termination.kind == "max-steps"
    assert rec.steps == 3000 and max(rec.bit_lengths) > 10_000


def test_records_do_not_change_when_b_is_scaled():
    """A move reads only slopes, so scaling B's grid by k > 0 changes no
    step.  Against B at t = 1/3, 7/11 and 3/7, and against kB with k the
    denominator of B's circle point, 5, 85 and 29, which makes kB an
    integer grid, the same exact starts end the same way at the same
    step, with the same bit lengths and the same verdict."""
    rng = random.Random(33)
    a = GridTiling.standard()
    for t, k in ((Fraction(1, 3), 5), (Fraction(7, 11), 85),
                 (Fraction(3, 7), 29)):
        b = GridTiling.from_parameter(t)
        scaled_b = b.transformed(k, 0, 0, k)
        for _ in range(100):
            start = random_state(rng, a, b)
            rec, scaled = (run_orbit(a, grid, start, 200, keep_states=False)
                           for grid in (b, scaled_b))
            assert rec.exact and scaled.exact
            assert (rec.termination.kind, rec.termination.step) == (
                scaled.termination.kind, scaled.termination.step)
            assert rec.bit_lengths == scaled.bit_lengths
            assert classify(rec).verdict == classify(scaled).verdict


def test_long_exact_orbit_takes_only_big_by_small_gcds(monkeypatch):
    """A gcd of two big integers costs time quadratic in their length;
    every gcd of an exact step has one argument of at most 64 bits, so a
    step costs time linear in the length.  Reading the record's points
    and bit lengths takes no gcd at all."""
    gcd, sizes = math.gcd, []

    def recording_gcd(*args):
        sizes.append(min(abs(v).bit_length() for v in args))
        return gcd(*args)

    monkeypatch.setattr(math, "gcd", recording_gcd)
    rec = run_orbit(*seven_elevenths_mirror_start(), 3000, keep_states=False)
    run_gcds = len(sizes)
    # The record builds its points and bit lengths on first read.
    rec.bit_lengths, rec.a_points
    read_gcds = len(sizes) - run_gcds
    monkeypatch.undo()
    assert max(rec.bit_lengths) > 10_000
    assert run_gcds > 2500 and max(sizes) <= 64
    assert read_gcds == 0


def test_float_position_on_an_exact_pair_is_held_exactly():
    """The exact 1/3 pair holds A's float 0.25 as 1/4, so the record is
    exact and its first bit length is 3, that of 1/4, above B's 1/2.
    `float_point`, handed the float itself, still reads 53 bits."""
    a = GridTiling.standard()
    b = GridTiling.from_parameter(Fraction(1, 3))
    start = PairState(Particle(GridEdge("v", 0, 0), 0.25, 1),
                      b.particle_on(GridEdge("h", 0, 0), Fraction(1, 2), -1))
    assert a.float_point(start.a.edge, start.a.pos) == (0.0, 0.25, 53)
    rec = check_recording(a, b, start, 40)
    assert rec.exact and rec.bit_lengths[0] == 3
    assert rec.states[0].a.pos == Fraction(1, 4)


def test_a_run_holds_one_arithmetic():
    """A run holds every position in its pair's one arithmetic from step
    0.  On the exact 7/11 pair three float A starts run exact, from their
    binary values: each record is the record of the same start with
    Fraction(float) positions, and its kept states are Fractions.  On
    the standard grid against a float grid two Fraction starts run in
    floats: each record is the record of the same start with float()
    positions, all of its bit lengths are 53, and it ends at a vertex,
    which step raises on its last state.  In both, step moves the start,
    and each kept state, to the next kept state."""
    a = GridTiling.standard()
    b = GridTiling.from_parameter(Fraction(7, 11))
    v, h = GridEdge("v", 0, 0), GridEdge("h", 0, 0)
    runs = [(a, b, Particle(v, pos_a, 1), Particle(v, pos_b, -1))
            for pos_a, pos_b in ((0.25, Fraction(3, 4)), (0.3, Fraction(1, 3)),
                                 (0.5, Fraction(2, 5)))]
    runs += [(a, float_grid(theta=1.0), Particle(v, Fraction(1, 3), across),
              Particle(h, Fraction(2, 5), 1)) for across in (1, -1)]
    for grid_a, grid_b, pa, pb in runs:
        exact = grid_b.exact
        held = Fraction if exact else float
        start = PairState(pa, pb)
        converted = PairState(Particle(pa.edge, held(pa.pos), pa.across),
                              Particle(pb.edge, held(pb.pos), pb.across))
        got = run_orbit(grid_a, grid_b, start, 200, keep_states=True)
        want = run_orbit(grid_a, grid_b, converted, 200, keep_states=True)
        assert got.start is start
        assert repr(got.termination) == repr(want.termination)
        assert (got.a_points, got.b_points, got.bit_lengths, got.exact) == (
            want.a_points, want.b_points, want.bit_lengths, want.exact)
        assert got.exact == exact
        assert [(type(st.a.pos), type(st.b.pos)) for st in got.states] == [
            (held, held)] * len(want.states)
        assert got.states == want.states
        assert step(grid_a, grid_b, start) == got.states[1]
        for prev, now in zip(got.states, got.states[1:]):
            assert step(grid_a, grid_b, prev) == now
        if not exact:
            assert set(got.bit_lengths) == {53}
            assert got.termination.kind == "vertex"
            with pytest.raises(VertexHit):
                step(grid_a, grid_b, got.states[-1])


def test_float_starts_on_an_exact_pair_run_exact():
    """Float start positions on the exact 1/3, 7/11 and 3/7 pairs run
    exactly, from their binary values: each run is exact, certifies
    'attracted', and is the run from the same start with
    Fraction(float) positions, but for its start, which is the
    caller's."""
    rng = random.Random(5)
    a = GridTiling.standard()
    for t in (Fraction(1, 3), Fraction(7, 11), Fraction(3, 7)):
        b = GridTiling.from_parameter(t)
        for _ in range(12):
            pa, pb = (tiling.particle_on(
                GridEdge(rng.choice("vh"), 0, 0),
                rng.randint(1, 9999) / 10000, rng.choice((1, -1)))
                for tiling in (a, b))
            start = PairState(pa, pb)
            converted = PairState(
                Particle(pa.edge, Fraction(pa.pos), pa.across),
                Particle(pb.edge, Fraction(pb.pos), pb.across))
            got = run_orbit(a, b, start, 200, keep_states=True)
            want = run_orbit(a, b, converted, 200, keep_states=True)
            assert got.start is start and got.exact, t
            assert got.termination.kind == "attracted", t
            assert classify(got).verdict == BOUNDED_ATTRACTED
            assert repr(got.termination) == repr(want.termination)
            assert repr((got.a_points, got.b_points, got.bit_lengths,
                         got.states)) == repr((want.a_points, want.b_points,
                                               want.bit_lengths, want.states))


def test_a_grid_with_a_float_entry_is_a_float_grid():
    """One float basis entry makes a grid hold all four entries as
    floats, and a run on such a grid is the run from the same start on
    the grid given in floats."""
    for tiling in (GridTiling(Vec2(1.0, 0), Vec2(0, 1.0)),
                   GridTiling.standard().transformed(0.5, 0, 0, 1)):
        assert not tiling.exact
        assert [type(v) for v in (tiling.e1.x, tiling.e1.y, tiling.e2.x,
                                  tiling.e2.y)] == [float] * 4
    mixed = GridTiling(Vec2(1.0, 0), Vec2(0, 1.0))
    starts = float_pairs(mixed)
    b = GridTiling.from_parameter(Fraction(1, 3))
    starts.append((b, PairState(
        mixed.particle_on(GridEdge("v", 0, 0), Fraction(1, 3), 1),
        b.particle_on(GridEdge("h", 0, 0), Fraction(2, 5), -1))))
    for b, start in starts:
        got = run_orbit(mixed, b, start, 120)
        want = run_orbit(float_a(), b, start, 120)
        assert repr(got.termination) == repr(want.termination)
        assert (got.a_points, got.b_points, got.bit_lengths, got.exact,
                got.states) == (want.a_points, want.b_points,
                                want.bit_lengths, want.exact, want.states)


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
    state on the same edge axes and crossing signs, O(steps^2).  A match
    needs both particles moved by one translation, integral in both
    grid-local frames, to within tol; the earliest match wins."""
    def loose(st):
        return tuple((p.across, p.edge.axis) for p in (st.a, st.b))

    def off_integer(v):
        return max(abs(v.x - round(v.x)), abs(v.y - round(v.y)))

    def shift(now, prev):
        """Local translation between particles on edges of one axis."""
        normal = now.edge.line - prev.edge.line
        along = now.edge.cell - prev.edge.cell + (now.pos - prev.pos)
        return (Vec2(normal, along) if now.edge.axis == "v"
                else Vec2(along, normal))

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
            la, lb = shift(state.a, prev.a), shift(state.b, prev.b)
            va, vb = a.to_world(la), b.to_world(lb)
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


def float_pairs(a):
    """48 float starts against A on four float grids."""
    rng = random.Random(61)
    runs = []
    for b in (float_grid(theta=math.pi / 5), float_grid(theta=1.0),
              float_grid(t=Fraction(1, 3)), float_grid(t=Fraction(7, 11))):
        for _ in range(12):
            runs.append((b, PairState(
                a.particle_on(GridEdge(rng.choice("vh"), 0, 0),
                              rng.randint(1, 9999) / 10000,
                              rng.choice((1, -1))),
                b.particle_on(GridEdge(rng.choice("vh"), 0, 0),
                              rng.randint(1, 9999) / 10000,
                              rng.choice((1, -1))))))
    return runs


def check_float_recurrence(a):
    """At the grid kernel's tolerance these orbits contract onto a
    vertex and hit it."""
    kinds = []
    for b, start in float_pairs(a):
        want = oracle_float_termination(a, b, start, 120, tilings.FLOAT_TOL)
        got = run_orbit(a, b, start, 120, keep_states=False).termination
        assert got == want
        kinds.append(got.kind)
    assert kinds.count("vertex") >= 24


def test_float_recurrence_matches_linear_scan():
    check_float_recurrence(GridTiling.standard())


def test_float_recurrence_matches_linear_scan_with_a_float_a():
    check_float_recurrence(float_a())


@pytest.mark.parametrize("grid_a", [GridTiling.standard, float_a],
                         ids=["exact-a", "float-a"])
def test_float_records_skip_point_on(monkeypatch, grid_a):
    """A float run's record is plain float work: point_on runs only where
    a move meets a vertex, once per vertex termination."""
    a = grid_a()
    calls = []
    point_on = GridTiling.point_on
    monkeypatch.setattr(GridTiling, "point_on",
                        lambda self, *args: calls.append(args)
                        or point_on(self, *args))
    kinds = [run_orbit(a, b, start, 120, keep_states=False).termination.kind
             for b, start in float_pairs(a)]
    assert kinds.count("vertex") >= 24
    assert len(calls) == kinds.count("vertex")


KEY_ARC_TOL = 2.0 ** -20


def key_arc_starts(place):
    """The pi/4 pair and its starts at place(j / 8) on both edges."""
    a = GridTiling.standard()
    b = float_grid(theta=math.pi / 4)
    for ea, eb, sa, sb in itertools.product("vh", "vh", (1, -1), (1, -1)):
        for j, k in itertools.product(range(1, 8), repeat=2):
            yield a, b, PairState(
                a.particle_on(GridEdge(ea, 0, 0), place(j / 8), sa),
                b.particle_on(GridEdge(eb, 0, 0), place(k / 8), sb))


def check_key_arcs(monkeypatch, place):
    """Periodic orbits on the pi/4 pair from starts at place(j / 8),
    recurring as the linear scan finds, at a grid tolerance of 2^-20."""
    monkeypatch.setattr(tilings, "FLOAT_TOL", KEY_ARC_TOL)
    for a, b, start in key_arc_starts(place):
        want = oracle_float_termination(a, b, start, 40, KEY_ARC_TOL)
        got = run_orbit(a, b, start, 40, keep_states=False).termination
        assert got == want and got.kind == "periodic"


def test_float_recurrence_across_key_arcs(monkeypatch):
    """A grid tolerance of 2^-20 snaps positions to steps of 2^-20, so
    starts at eighths of an edge sit on step boundaries and a return a
    rounding error below the start lands in the step below."""
    check_key_arcs(monkeypatch, lambda x: x)


def test_float_recurrence_across_key_arcs_from_below(monkeypatch):
    """Starts one float below the eighths sit at the top of the step
    below a boundary, so a return a rounding error above the start lands
    in the step above."""
    check_key_arcs(monkeypatch, lambda x: math.nextafter(x, 0))


def test_float_recurrence_reads_neighbour_keys(monkeypatch):
    """On the key-arc starts, from both placements, run_orbit's
    terminations are the nine-key reference's, and the snapped positions
    of a recurrence's state and of the state it matches differ by -1, 0
    or +1, each of which occurs for A and for B.  So a float probe that
    skipped the keys one step away, for either particle, would fail."""
    monkeypatch.setattr(tilings, "FLOAT_TOL", KEY_ARC_TOL)
    offsets_a, offsets_b = set(), set()
    for place in (lambda x: x, lambda x: math.nextafter(x, 0)):
        for a, b, start in key_arc_starts(place):
            want = oracle_run_orbit(a, b, start, 40, keep_states=True)
            got = run_orbit(a, b, start, 40, keep_states=False)
            assert repr(got.termination) == repr(want.termination)
            t = want.termination
            now, prev = want.states[t.step], want.states[t.step - t.period]
            offsets_a.add(math.floor(now.a.pos / KEY_ARC_TOL)
                          - math.floor(prev.a.pos / KEY_ARC_TOL))
            offsets_b.add(math.floor(now.b.pos / KEY_ARC_TOL)
                          - math.floor(prev.b.pos / KEY_ARC_TOL))
    assert offsets_a == offsets_b == {-1, 0, 1}


def test_exact_recurrence_needs_no_direction_match():
    """The start was placed by its side of the edge, later states by the
    chords they moved along; a particle holds only its crossing sign, so
    the start itself recurs."""
    a = GridTiling.standard()
    b = a.transformed(1, 1, -1, 1)
    state = PairState(a.particle_on(GridEdge("v", 0, 0), Fraction(1, 2), 1),
                      b.particle_on(GridEdge("v", 0, 0), Fraction(1, 5), 1))
    rec = run_orbit(a, b, state, max_steps=50, keep_states=True)
    assert rec.termination == Termination("periodic", 4, period=4,
                                          residual=0.0)
    assert rec.states[4] == state
    assert classify(rec).verdict == PERIODIC


def test_particle_a_reads_only_the_axis_of_b():
    """Decoupling: A's move reads only A's own state and the axis of B's
    edge.  Starts whose B fractions differ by 10^-6 and whose B edge axes
    agree over 40 steps move A through the same (edge, pos, across) at
    every step, while B's positions stay apart."""
    rng = random.Random(40)
    a = GridTiling.standard()
    for t in (Fraction(1, 3), Fraction(7, 11), Fraction(3, 7)):
        b = GridTiling.from_parameter(t)
        pairs = 0
        for _ in range(12):
            ea, eb = rng.choice("vh"), rng.choice("vh")
            sa, sb = rng.choice((1, -1)), rng.choice((1, -1))
            fa = Fraction(rng.randint(1, 999), 1000)
            fb = Fraction(rng.randint(1, 999), 1000)
            orbits = []
            for frac_b in (fb, fb + Fraction(1, 10 ** 6)):
                state = PairState(a.particle_on(GridEdge(ea, 0, 0), fa, sa),
                                  b.particle_on(GridEdge(eb, 0, 0), frac_b,
                                                sb))
                orbit = [state]
                try:
                    for _ in range(40):
                        orbit.append(step(a, b, orbit[-1]))
                except VertexHit:
                    break
                orbits.append(orbit)
            if len(orbits) < 2 or ([st.b.edge.axis for st in orbits[0]]
                                   != [st.b.edge.axis for st in orbits[1]]):
                continue
            assert [st.a for st in orbits[0]] == [st.a for st in orbits[1]]
            assert orbits[0][-1].b.pos != orbits[1][-1].b.pos
            pairs += 1
        assert pairs >= 10


def test_exact_bounded_orbit_classifies():
    a = GridTiling.standard()
    b = GridTiling.from_parameter(Fraction(1, 3))
    state = PairState(a.particle_on(GridEdge("v", 0, 0), Fraction(1, 32), 1),
                      b.particle_on(GridEdge("v", 0, 0), Fraction(1, 32), 1))
    rec = run_orbit(a, b, state, max_steps=400, keep_states=True)
    t = rec.termination
    assert (t.kind, t.period) == ("attracted", 4) and t.step < 400
    # Zero shift: each particle's edge after one period is its edge before.
    then, now = rec.states[-1 - t.period], rec.states[-1]
    assert (then.a.edge, then.b.edge) == (now.a.edge, now.b.edge)
    cls = classify(rec)
    assert cls.verdict == BOUNDED_ATTRACTED
    assert cls.evidence["period"] == 4
    assert cls.evidence["lambda_a"] == cls.evidence["lambda_b"] \
        == Fraction(3, 4) ** 4
    assert cls.evidence["bit_growth"] >= 2.0
    assert cls.evidence["bbox_spread"] < 0.01


def joint_symbol(prev, now):
    """The joint branch symbol of the step from prev to now."""
    return (prev.a.edge.axis, prev.a.across, prev.b.edge.axis,
            prev.b.across, now.a.edge.axis, now.b.edge.axis)


def test_certified_orbits_keep_their_certificate():
    """Certified starts on three rotation pairs, stepped 400 more times:
    no vertex is hit, the joint word keeps repeating, and one period
    apart each particle is back on its edge, inside its cylinder, and
    lam times as far from its limit as before."""
    rng = random.Random(19)
    a = GridTiling.standard()
    for t in (Fraction(1, 3), Fraction(7, 11), Fraction(3, 7)):
        b = GridTiling.from_parameter(t)
        certified = 0
        while certified < 4:
            start = PairState(
                a.particle_on(GridEdge(rng.choice("vh"), 0, 0),
                              Fraction(rng.randint(1, 99), 100),
                              rng.choice((1, -1))),
                b.particle_on(GridEdge(rng.choice("vh"), 0, 0),
                              Fraction(rng.randint(1, 99), 100),
                              rng.choice((1, -1))))
            rec = run_orbit(a, b, start, 200, keep_states=True)
            term = rec.termination
            if term.kind != "attracted":
                continue
            certified += 1
            p, proof = term.period, term.certificate
            word = [joint_symbol(prev, now) for prev, now in
                    zip(rec.states[-1 - p:-1], rec.states[-p:])]
            state = base = rec.states[-1]
            for k in range(1, 401):
                nxt = step(a, b, state)
                assert joint_symbol(state, nxt) == word[(k - 1) % p]
                state = nxt
                if k % p:
                    continue
                for part, prev, now in zip(proof, (base.a, base.b),
                                           (state.a, state.b)):
                    lo, hi = part.cylinder
                    assert now.edge == prev.edge and lo < now.pos < hi
                    assert abs(now.pos - part.limit) == abs(part.lam) * abs(
                        prev.pos - part.limit)
                base = state


def test_rotation_pairs_contract_by_the_fourth_power_of_the_circle_ratio():
    """For every t = p/q in (0, 1) with q <= 20, two starts certify with
    period 4 and lam_A = lam_B = (min(x, y) / max(x, y))^4, where (x, y)
    is the circle point of t."""
    a = GridTiling.standard()
    edge = GridEdge("v", 0, 0)
    ts = {Fraction(p, q) for q in range(2, 21) for p in range(1, q)}
    assert len(ts) == 127
    for t in ts:
        b = GridTiling.from_parameter(t)
        for (fa, sa), (fb, sb) in (
                ((Fraction(1, 3), 1), (Fraction(2, 5), 1)),
                ((Fraction(2, 7), -1), (Fraction(1, 6), 1))):
            start = PairState(a.particle_on(edge, fa, sa),
                              b.particle_on(edge, fb, sb))
            term = run_orbit(a, b, start, 400, keep_states=False).termination
            assert (term.kind, term.period) == ("attracted", 4), t
            u = rational_circle_point(t)
            lam = (min(u.x, u.y) / max(u.x, u.y)) ** 4
            assert [part.lam for part in term.certificate] == [lam, lam], t


def test_float_runs_never_certify(monkeypatch):
    """The certificate is exact-only: a run on two float grids and a run
    of the standard grid against a float grid call it never, while an
    exact run from Fraction positions does."""
    calls = []
    certify = dynamics.certify
    monkeypatch.setattr(dynamics, "certify",
                        lambda *args: calls.append(args) or certify(*args))
    a = GridTiling.standard()
    b = GridTiling.from_parameter(Fraction(1, 3))
    fa, fb = GridTiling(Vec2(1.0, 0.0), Vec2(0.0, 1.0)), float_grid(
        t=Fraction(1, 3))
    edge = GridEdge("v", 0, 0)
    runs = [(fa, fb, PairState(fa.particle_on(edge, 0.3, 1),
                               fb.particle_on(edge, 0.4, 1))),
            (a, fb, PairState(Particle(edge, 0.3, -1),
                              fb.particle_on(edge, Fraction(2, 5), 1)))]
    for grid_a, grid_b, start in runs:
        rec = run_orbit(grid_a, grid_b, start, 200, keep_states=False)
        assert rec.steps >= 24
    assert calls == []
    exact = PairState(a.particle_on(edge, Fraction(3, 10), 1),
                      b.particle_on(edge, Fraction(2, 5), 1))
    assert run_orbit(a, b, exact, 200).termination.kind == "attracted"
    assert len(calls) >= 1


def test_a_lock_with_a_lattice_shift_runs_on():
    """This integer pair's orbit locks onto a word of period 2 whose maps
    contract, but each period moves both particles to other edges: only
    a zero shift bounds the orbit, so the run goes on to its budget."""
    a = GridTiling.standard()
    b = GridTiling(Vec2(-2, 1), Vec2(1, -2))
    start = PairState(a.particle_on(GridEdge("v", 0, 0), Fraction(12, 25), -1),
                      b.particle_on(GridEdge("v", 0, 0), Fraction(39, 50), 1))
    rec = run_orbit(a, b, start, 60, keep_states=True)
    assert rec.termination.kind == "max-steps"
    symbols = [joint_symbol(prev, now)
               for prev, now in zip(rec.states, rec.states[1:])]
    word = tuple(symbols[-2:])
    assert symbols[-40:] == list(word) * 20
    assert certify(a, b, word) is not None
    then, now = rec.states[-3], rec.states[-1]
    assert then.a.edge != now.a.edge and then.b.edge != now.b.edge


class OneBranchGrid:
    """A stand-in grid for `certify`: every branch of its table moves a
    position by pos -> m * pos + c on the open interval (lo, hi)."""

    def __init__(self, m, c, lo=Fraction(0), hi=Fraction(1)):
        self.maps = ((m, c, lo, hi),) * 2

    def branches(self, other):
        entry = (None, None, None, self.maps)
        return {(axis, across, other_axis): entry for axis in "vh"
                for across in (1, -1) for other_axis in "vh"}


def test_certify_accepts_only_maps_that_contract_into_their_cylinder():
    half = Fraction(1, 2)
    word = (("v", 1, "h", -1, "v", "h"),)
    into = OneBranchGrid(half, 0, 0, half)
    flip = OneBranchGrid(-half, half)
    a, b = certify(into, flip, word)
    assert (a.lam, a.cylinder, a.limit) == (half, (0, half), 0)
    assert (b.lam, b.cylinder, b.limit) == (-half, (0, 1), Fraction(1, 3))
    # Two steps compose, and their intervals pull back to the start.
    a, _ = certify(OneBranchGrid(-half, Fraction(3, 4), 0, Fraction(5, 8)),
                   flip, word * 2)
    assert (a.lam, a.cylinder, a.limit) == (Fraction(1, 4),
                                            (Fraction(1, 4), Fraction(5, 8)),
                                            half)
    for rejected in (OneBranchGrid(half, half, 0, half),   # leaves (0, 1/2)
                     OneBranchGrid(Fraction(2), 0),         # expands
                     OneBranchGrid(Fraction(1), 0)):        # lam = 1
        assert certify(into, rejected, word) is None
        assert certify(rejected, into, word) is None


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


def test_run_orbit_rejects_non_transverse_grids_before_any_step(
        monkeypatch):
    """Each particle's first move from this start would cross its edge,
    but the pair of grids is not transverse: step and run_orbit refuse
    it before they build a branch table or move a particle."""
    a = GridTiling.standard()
    b = a.transformed(2, 0, 0, 3)
    state = PairState(a.particle_on(GridEdge("v", 0, 0), Fraction(1, 2), 1),
                      b.particle_on(GridEdge("h", 0, 0), Fraction(1, 2), 1))

    def no_step(*args):
        raise AssertionError("a non-transverse pair was stepped")

    monkeypatch.setattr(tilings, "branch_table", no_step)
    monkeypatch.setattr(tilings, "move", no_step)
    with pytest.raises(NonTransverseEdges):
        step(a, b, state)
    with pytest.raises(NonTransverseEdges):
        run_orbit(a, b, state, max_steps=10)


def test_particle_on_takes_the_grid_arithmetic():
    edge = GridEdge("v", 0, 0)
    kept = GridTiling.standard().particle_on(edge, Fraction(1, 3)).pos
    assert type(kept) is Fraction and kept == Fraction(1, 3)
    rotated = GridTiling.rotated(Vec2(math.cos(1.0), math.sin(1.0)))
    pos = rotated.particle_on(edge, Fraction(1, 3)).pos
    assert type(pos) is float and pos == 1 / 3


def test_exact_run_checks_one_earlier_state_per_step(monkeypatch):
    """Only the first state under a key is kept: these keys repeat from
    early on without closing, and each later step makes one closure
    check rather than one per earlier state under its key."""
    a = GridTiling.standard()
    b = GridTiling(Vec2(-2, -1), Vec2(2, -1))
    edge = GridEdge("v", 0, 0)
    state = PairState(a.particle_on(edge, Fraction(27, 50), -1),
                      b.particle_on(edge, Fraction(23, 50), -1))
    calls = []
    closure = dynamics._closure

    def counted(*args):
        calls.append(1)
        return closure(*args)

    monkeypatch.setattr(dynamics, "_closure", counted)
    rec = run_orbit(a, b, state, max_steps=1000, keep_states=False)
    assert rec.termination.kind == "max-steps"
    assert 0 < len(calls) <= 1000
    assert classify(rec).verdict == INCONCLUSIVE


def check_same_record(a, b, start, max_steps, keep_states):
    """run_orbit and the Particle loop of oracles.oracle_run_orbit give
    the same record; returns its termination kind."""
    got = run_orbit(a, b, start, max_steps, keep_states)
    want = oracle_run_orbit(a, b, start, max_steps, keep_states)
    assert repr(got.termination) == repr(want.termination)
    assert (got.a_points, got.b_points, got.bit_lengths, got.exact) == (
        want.a_points, want.b_points, want.bit_lengths, want.exact)
    assert got.states == want.states
    return got.termination.kind


def test_run_orbit_matches_the_particle_loop():
    """run_orbit steps each particle as a tuple, holding an exact position
    as a pair of ints; the oracle steps Particles through `step`.  Whole
    records agree, certificates and vertex locations included, with and
    without kept states: on the three rotation pairs, on integer pairs,
    on float grids against an exact and a float A, from float positions
    on exact grids, at a vertex on the first step, at a zero budget, on
    a start whose exact keys repeat without closing, and on the mirror
    start's 3,000 steps.  Every termination kind but 'translation'
    occurs; random searches over integer and float grid pairs found no
    translation run to add."""
    rng = random.Random(27)
    a = GridTiling.standard()
    runs = []
    for t in (Fraction(1, 3), Fraction(7, 11), Fraction(3, 7)):
        b = GridTiling.from_parameter(t)
        runs += [(a, b, random_state(rng, a, b), 200) for _ in range(8)]
        runs.append((a, b, PairState(
            Particle(GridEdge("v", 0, 0), rng.uniform(0.01, 0.99), 1),
            b.particle_on(GridEdge("h", 0, 0), Fraction(1, 2), -1)), 60))
    for _ in range(12):
        grid_a, grid_b = random_integer_pair(rng)
        runs += [(grid_a, grid_b, random_state(rng, grid_a, grid_b), 300)
                 for _ in range(4)]
    floats = [float_grid(theta=theta)
              for theta in (math.pi / 4, math.pi / 5, 1.0, 2.0)]
    floats += [float_grid(t=Fraction(1, 3)), float_grid(t=Fraction(7, 11))]
    runs += [(grid_a, b, random_state(rng, grid_a, b), 120)
             for grid_a in (a, float_a()) for b in floats for _ in range(4)]
    b = GridTiling.from_parameter(Fraction(1, 3))
    edge = GridEdge("v", 0, 0)
    runs.append((a, b, PairState(
        a.particle_on(edge, Fraction(1, 4), -1),
        b.particle_on(GridEdge("h", 0, 0), Fraction(1, 2), 1)), 10))
    runs.append((a, b, random_state(rng, a, b), 0))
    repeat = GridTiling(Vec2(-2, -1), Vec2(2, -1))
    runs.append((a, repeat, PairState(
        a.particle_on(edge, Fraction(27, 50), -1),
        repeat.particle_on(edge, Fraction(23, 50), -1)), 300))
    kinds = [check_same_record(*run, keep_states=n % 2 == 0)
             for n, run in enumerate(runs)]
    assert set(kinds) == {"periodic", "attracted", "vertex", "max-steps"}
    assert check_same_record(*seven_elevenths_mirror_start(), 3000,
                             keep_states=False) == "max-steps"


def test_transversality_is_decided_once_per_grid_pair(monkeypatch):
    """A second run on the same pair of grids takes no cross product:
    `GridTiling.branches` decides transversality when the first run
    builds the pair's branch tables, and a later run only reads the
    tables, in exact and in float mode."""
    crossed = []
    cross = Vec2.cross
    monkeypatch.setattr(Vec2, "cross",
                        lambda u, v: crossed.append(1) or cross(u, v))
    fa, fb = float_a(), float_grid(theta=1.0)
    floats = fa, fb, PairState(
        fa.particle_on(GridEdge("v", 0, 0), 0.3, 1),
        fb.particle_on(GridEdge("h", 0, 0), 0.6, -1))
    for a, b, start in (seven_elevenths_start(), floats):
        for run in range(2):
            crossed.clear()
            run_orbit(a, b, start, 200, keep_states=False)
            assert (len(crossed) > 0) == (run == 0)


def test_exact_steps_build_no_fraction_or_particle(monkeypatch):
    """run_orbit steps and records an exact position as a pair of ints.
    After a warm-up run has built the chord tables and certify's memo,
    300 and 3,000 steps of the mirror start build the same numbers of
    Fractions and of Particles: no step builds either.  A start whose
    exact keys repeat without closing builds as many Particles in 300
    steps as in 3,000, so comparing a key repeat builds none, and a
    float run on the pi/4 pair that ends periodic builds no Particle:
    a candidate is compared as two trace entries."""
    a, b, start = seven_elevenths_mirror_start()
    repeat = GridTiling(Vec2(-2, -1), Vec2(2, -1))
    edge = GridEdge("v", 0, 0)
    repeat_start = PairState(a.particle_on(edge, Fraction(27, 50), -1),
                             repeat.particle_on(edge, Fraction(23, 50), -1))
    fa, fb = float_a(), float_grid(theta=math.pi / 4)
    float_start = PairState(fa.particle_on(edge, 0.3, 1),
                            fb.particle_on(GridEdge("h", 0, 0), 0.6, -1))
    runs = {"mirror": (a, b, start), "repeat": (a, repeat, repeat_start),
            "float": (fa, fb, float_start)}
    for run in runs.values():
        run_orbit(*run, 3000)
    built = collections.Counter()
    new, init = Fraction.__new__, Particle.__init__

    def counted_new(cls, *args, **kwargs):
        built["Fraction"] += 1
        return new(cls, *args, **kwargs)

    def counted_init(self, *args):
        built["Particle"] += 1
        init(self, *args)

    monkeypatch.setattr(Fraction, "__new__", counted_new)
    monkeypatch.setattr(Particle, "__init__", counted_init)
    counts, kinds = collections.defaultdict(list), {}
    for name, run in runs.items():
        for budget in (300, 3000):
            built.clear()
            rec = run_orbit(*run, budget)
            # The record builds its points and bit lengths on first read.
            rec.bit_lengths, rec.a_points
            counts[name].append(dict(built))
            kinds[name] = rec.termination.kind
    monkeypatch.undo()
    assert kinds == {"mirror": "max-steps", "repeat": "max-steps",
                     "float": "periodic"}
    assert counts["mirror"][0] == counts["mirror"][1]
    assert [c.get("Particle", 0) for c in counts["repeat"]] == [0, 0]
    assert [c.get("Particle", 0) for c in counts["float"]] == [0, 0]


def test_trace_is_built_once_on_first_read(monkeypatch):
    """run_orbit and classify call `GridTiling.float_point` on no state
    of a run that ends at a vertex or a recurrence.  The first read of
    any of the record's points and bit lengths builds all three, with
    one call per particle and state, and later reads build nothing."""
    calls = []
    float_point = GridTiling.float_point
    monkeypatch.setattr(GridTiling, "float_point", lambda self, *args: (
        calls.append(1) or float_point(self, *args)))
    fa, fb = float_a(), float_grid(theta=math.pi / 5)
    ea, eb = GridTiling(Vec2(-3, 0), Vec2(-1, 1)), GridTiling(Vec2(3, 2),
                                                              Vec2(0, 3))
    exact_start = PairState(
        Particle(GridEdge("v", 1, -2), Fraction(4, 25), 1),
        Particle(GridEdge("h", 1, 0), Fraction(49, 100), 1))
    runs = [
        (fa, fb, PairState(fa.particle_on(GridEdge("v", 0, 0), 0.3, 1),
                           fb.particle_on(GridEdge("h", 0, 0), 0.6, -1)),
         "vertex"),
        (*next(key_arc_starts(lambda x: x)), "periodic"),
        (ea, eb, exact_start, "vertex")]
    for a, b, start, kind in runs:
        for name in ("a_points", "b_points", "bit_lengths"):
            calls.clear()
            rec = run_orbit(a, b, start, 200, keep_states=False)
            classify(rec)
            assert rec.termination.kind == kind and rec.steps > 3
            assert rec.exact == (a is ea) and not calls
            assert len(getattr(rec, name)) == rec.steps + 1
            assert len(calls) == 2 * (rec.steps + 1)
            calls.clear()
            rec.a_points, rec.b_points, rec.bit_lengths
            assert not calls


def test_traced_record_writes_as_the_eager_record():
    """A record that builds its lists on first read gives the JSON text,
    key order included, and the figure of the oracle's record, which is
    built with them; no particle tuple or grid reaches the wire."""
    fa, fb = float_a(), float_grid(theta=1.0)
    float_start = PairState(fa.particle_on(GridEdge("v", 0, 0), 0.3, 1),
                            fb.particle_on(GridEdge("h", 0, 0), 0.6, -1))
    runs = [seven_elevenths_start(), seven_elevenths_mirror_start(),
            (fa, fb, float_start)]
    kinds = []
    for a, b, start in runs:
        want = oracle_run_orbit(a, b, start, 200, keep_states=False)
        text = json.dumps(run_orbit(a, b, start, 200, keep_states=False),
                          default=serialize.encode)
        assert text == json.dumps(want, default=serialize.encode)
        assert list(json.loads(text)) == ["start", "termination", "a_points",
                                          "b_points", "bit_lengths", "exact"]
        figure = svgout.orbit_figure(
            run_orbit(a, b, start, 200, keep_states=False), a, b)
        assert figure.render() == svgout.orbit_figure(want, a, b).render()
        got = run_orbit(a, b, start, 200, keep_states=False)
        assert got == want
        kinds.append((got.termination.kind, got.exact))
    assert kinds[:2] == [("attracted", True), ("max-steps", True)]
    assert kinds[2][1] is False


def test_affine_naturality_single_map():
    a = GridTiling.standard()
    b = GridTiling.from_parameter(Fraction(1, 3))
    m = (Fraction(2), Fraction(1, 3), Fraction(-1), Fraction(1))
    ta, tb = a.transformed(*m), b.transformed(*m)

    def image(p):
        return Vec2(m[0] * p.x + m[1] * p.y, m[2] * p.x + m[3] * p.y)

    state = PairState(a.particle_on(GridEdge("v", 0, 0), Fraction(2, 7), 1),
                      b.particle_on(GridEdge("h", 0, 0), Fraction(3, 5), -1))
    # A map of negative determinant would swap the sides of an edge.
    tstate = PairState(
        ta.particle_on(GridEdge("v", 0, 0), Fraction(2, 7), 1),
        tb.particle_on(GridEdge("h", 0, 0), Fraction(3, 5), -1))
    cur, tcur = state, tstate
    for _ in range(80):
        cur = step(a, b, cur)
        tcur = step(ta, tb, tcur)
        assert ta.point_on(tcur.a.edge, tcur.a.pos) == image(
            a.point_on(cur.a.edge, cur.a.pos))
        assert tb.point_on(tcur.b.edge, tcur.b.pos) == image(
            b.point_on(cur.b.edge, cur.b.pos))
        assert tcur.a.edge == cur.a.edge
        assert tcur.b.edge == cur.b.edge
