import math
import random
from fractions import Fraction

import pytest

from symtiling import tilings
from symtiling.errors import VertexHit
from symtiling.exact import Vec2, rational_circle_point, unit_from_angle
from symtiling.tilings import (GridEdge, GridTiling, Particle, branch_table,
                               is_transverse)

from oracles import dot, move_particle


def rand_fraction(rng, span=8, den=40):
    return Fraction(rng.randint(-span * den, span * den), den)


def rand_chord(rng, span=8, den=40):
    """A chord with two nonzero rand_fraction components: a chord with a
    zero component is parallel to an edge axis, and no transverse pair
    of grids moves along one."""
    while True:
        chord = Vec2(rand_fraction(rng, span, den),
                     rand_fraction(rng, span, den))
        if chord.x and chord.y:
            return chord


def brute_first_hit(tiling, start, travel, window=200):
    """Reference crossing finder: scan every grid line in a window and
    keep the smallest positive parameter.  Returns (s, axis, line) or the
    string 'vertex' when the nearest crossing is a lattice point."""
    ls = tiling.to_local(start)
    lt = tiling.to_local(travel)
    best = None
    for axis, p0, d, q0, qd in (("v", ls.x, lt.x, ls.y, lt.y),
                                ("h", ls.y, lt.y, ls.x, lt.x)):
        if d == 0:
            continue
        for n in range(-window, window + 1):
            s = (n - p0) / d
            if s <= 0:
                continue
            if best is None or s < best[0]:
                cross = q0 + s * qd
                best = (s, axis, n, cross)
    s, axis, n, cross = best
    if cross == math.floor(cross):
        return "vertex"
    return s, axis, n, math.floor(cross)


def test_first_hit_matches_brute_force_scan():
    rng = random.Random(23)
    grids = [GridTiling.standard(),
             GridTiling.from_parameter(Fraction(1, 3)),
             GridTiling.from_parameter(Fraction(-2, 7))]
    checked = 0
    for _ in range(300):
        tiling = rng.choice(grids)
        particle = Particle(GridEdge(rng.choice("vh"), rng.randint(-8, 8),
                                     rng.randint(-8, 8)),
                            Fraction(rng.randint(1, 39), 40),
                            rng.choice((1, -1)))
        chord = rand_chord(rng, 3)
        normal = chord.x if particle.edge.axis == "v" else chord.y
        if (normal > 0) != (particle.across > 0):
            chord = Vec2(-chord.x, -chord.y)
        start = tiling.point_on(particle.edge, particle.pos)
        travel = tiling.to_world(chord)
        expect = brute_first_hit(tiling, start, travel)
        if expect == "vertex":
            with pytest.raises(VertexHit):
                move_particle(tiling, particle, branch_table(chord))
            continue
        s, axis, line, cell = expect
        hit = move_particle(tiling, particle, branch_table(chord))
        assert tiling.point_on(hit.edge, hit.pos) == start + travel * s
        assert hit.edge == GridEdge(axis, line, cell)
        assert hit.across == (1 if (chord.x if axis == "v" else chord.y) > 0
                              else -1)
        checked += 1
    assert checked > 200


def test_first_hit_divides_int_chords_exactly():
    """Chords of integral Fractions, as `to_local` gives them on integer
    grids, move a Fraction position exactly; a float chord gives a
    float."""
    tiling = GridTiling.standard()
    start = Particle(GridEdge("v", 0, 0), Fraction(1, 3), 1)
    hit = move_particle(tiling, start,
                        branch_table(Vec2(Fraction(2), Fraction(1))))
    assert isinstance(hit.pos, Fraction) and hit.pos == Fraction(5, 6)
    assert hit.edge == GridEdge("v", 1, 0)
    turn = move_particle(tiling, start,
                         branch_table(Vec2(Fraction(1), Fraction(2))))
    assert turn == Particle(GridEdge("h", 1, 0), Fraction(1, 3), 1)
    assert isinstance(turn.pos, Fraction)
    float_hit = move_particle(tiling, start, branch_table(Vec2(1.0, 2.0)))
    assert isinstance(float_hit.pos, float)


def oracle_first_hit(tiling, particle, chord):
    """A first hit as one formula in the scalars' own arithmetic: the
    slope is divided out on every call, and every test compares
    scalars."""
    edge, pos, across = particle.edge, particle.pos, particle.across
    if edge.axis == "v":
        normal, along, other = chord.x, chord.y, "h"
    else:
        normal, along, other = chord.y, chord.x, "v"
    slope = along / normal if across > 0 else -along / normal
    end = pos + slope
    if 0 < end < 1:
        hit = Particle(GridEdge(edge.axis, edge.line + across, edge.cell),
                       end, across)
    else:
        up, forward = slope > 0, across > 0
        travel = (1 - pos) / slope if up else pos / -slope
        hit = Particle(GridEdge(other, edge.cell + 1 if up else edge.cell,
                                edge.line if forward else edge.line - 1),
                       travel if forward else 1 - travel, 1 if up else -1)
    tol = tilings.FLOAT_TOL if isinstance(hit.pos, float) else 0
    if not tol < hit.pos < 1 - tol:
        point = tiling.point_on(hit.edge, hit.pos)
        raise VertexHit((float(point.x), float(point.y)))
    return hit


def outcome(mover, *args):
    try:
        hit = mover(*args)
    except VertexHit as exc:
        return "vertex", exc.location
    return hit, type(hit.pos)


def test_first_hit_matches_the_fraction_formula():
    """Integral and other Fraction chords and float chords, each
    stepped through its branch_table, and chords stepped through the
    entries GridTiling.branches keeps for a transverse grid; both edge
    axes and both crossing signs, from Fraction positions of a few and of
    about 10,000 bits, which a float chord moves as their float(), and
    from float positions; the same hit, or the same vertex."""
    rng = random.Random(16)
    grids = [GridTiling.standard(),
             GridTiling.from_parameter(Fraction(7, 11)),
             GridTiling.from_parameter(Fraction(3, 7)).transformed(
                 2, 1, -1, 3)]
    kinds = {"int": lambda: Fraction(rng.choice([-3, -2, -1, 1, 2, 3])),
             "fraction": lambda: rand_fraction(rng, 3, 13) or Fraction(1, 2),
             "float": lambda: rng.uniform(-3.0, 3.0)}

    def position(bits):
        if bits == "float":
            return rng.uniform(0.001, 0.999)
        q = rng.getrandbits(bits) | 1 << (bits - 1)
        return Fraction(rng.randrange(1, q), q)

    seen = set()
    for _ in range(800):
        tiling = rng.choice(grids)
        kind = rng.choice(list(kinds))
        chord = Vec2(kinds[kind](), kinds[kind]())
        other = rng.choice([g for g in grids if is_transverse(tiling, g)])
        other_axis = rng.choice("vh")
        shared = tiling.to_local(other.direction_of(other_axis))
        branches = tiling.branches(other)
        kept = {axis: tuple(branches[axis, across, other_axis]
                            for across in (-1, 1)) for axis in "vh"}
        for chord, table in ((chord, branch_table(chord)), (shared, kept)):
            edge = GridEdge(rng.choice("vh"), rng.randint(-5, 5),
                            rng.randint(-5, 5))
            across = rng.choice((1, -1))
            normal, along = ((chord.x, chord.y) if edge.axis == "v"
                             else (chord.y, chord.x))
            slope = Fraction(along) / normal * across
            for pos in (position(rng.choice((8, 10_000))), position("float"),
                        1 - slope, -slope):
                if not 0 < pos < 1:
                    continue
                particle = Particle(edge, pos, across)
                held = (Particle(edge, float(pos), across)
                        if type(chord.x) is float else particle)
                got = outcome(move_particle, tiling, particle, table)
                assert got == outcome(oracle_first_hit, tiling, held, chord)
                size = ("float" if isinstance(pos, float) else
                        "big" if pos.denominator.bit_length() > 9000
                        else "small")
                seen.add((edge.axis, across, got[0] == "vertex", size,
                          type(chord.x)))
    # Every edge axis and crossing sign met a vertex, and every kind of
    # position and chord was stepped.
    assert {(a, s) for a, s, vertex, _, _ in seen if vertex} == {
        (a, s) for a in "vh" for s in (1, -1)}
    assert {(p, c) for _, _, _, p, c in seen} == {
        (p, c) for p in ("float", "small", "big")
        for c in (Fraction, float)}


def test_branch_maps_give_first_hits_new_position():
    """Each exact branch's map (m, c) on its open interval (lo, hi) is
    the move's: from random positions in the interval, the hit is
    at m * pos + c, on the parallel line exactly for the parallel map.
    The two intervals meet at the one position whose move ends on a
    vertex."""
    rng = random.Random(18)
    standard = GridTiling.standard()
    grids = [GridTiling.from_parameter(t) for t in
             (Fraction(1, 3), Fraction(7, 11), Fraction(3, 7),
              Fraction(-2, 9))]
    grids.append(GridTiling(Vec2(-2, 1), Vec2(1, -2)))
    tables = [branch_table(tiling.to_local(other.direction_of(axis)))
              for tiling, other in [(standard, g) for g in grids]
              + [(g, standard) for g in grids] for axis in "vh"]
    tables += [branch_table(Vec2(rand_fraction(rng, 3, 13) or Fraction(1),
                                 rand_fraction(rng, 3, 13) or Fraction(1)))
               for _ in range(40)]
    checked = set()
    for table in tables:
        for axis in "vh":
            for across in (1, -1):
                slope, up, _, maps = table[axis][across > 0]
                edge = GridEdge(axis, rng.randint(-3, 3), rng.randint(-3, 3))
                for parallel, (m, c, lo, hi) in ((False, maps[0]),
                                                 (True, maps[1])):
                    for _ in range(6 if lo < hi else 0):
                        q = rng.randint(2, 2 ** 40)
                        pos = lo + (hi - lo) * Fraction(rng.randrange(1, q),
                                                        q)
                        hit = move_particle(
                            standard, Particle(edge, pos, across), table)
                        assert hit.pos == m * pos + c
                        assert (hit.edge.axis == axis) == parallel
                        checked.add((axis, across, up, parallel))
                cut = 1 - slope if up else -slope
                parts = {(lo, hi) for _, _, lo, hi in maps if lo < hi}
                if 0 < cut < 1:
                    assert parts == {(0, cut), (cut, 1)}
                    with pytest.raises(VertexHit):
                        move_particle(standard, Particle(edge, cut, across),
                                      table)
                else:
                    assert parts == {(0, 1)}
    assert len(checked) == 16


def test_first_hit_float_skips_resident_edge():
    tiling = GridTiling(Vec2(1.0, 0.0), Vec2(0.0, 1.0))
    start = Particle(GridEdge("v", 0, 0), 0.25, 1)
    hit = move_particle(tiling, start, branch_table(Vec2(1.0, 0.5)))
    assert hit.edge.line == 1


def test_first_hit_float_far_from_origin():
    """Positions stay in (0, 1) 10^5 cells out: moving the start by a
    lattice vector moves the hit edge by it and keeps the position."""
    rng = random.Random(31)
    tiling = GridTiling.rotated(Vec2(math.cos(1.0), math.sin(1.0)))
    dx, dy = 10 ** 5, -10 ** 5
    for _ in range(200):
        edge = GridEdge(rng.choice("vh"), 0, 0)
        particle = tiling.particle_on(edge, rng.uniform(0.01, 0.99),
                                      rng.choice((1, -1)))
        angle = rng.uniform(0.0, 2.0 * math.pi)
        table = branch_table(
            tiling.to_local(Vec2(math.cos(angle), math.sin(angle))))
        try:
            hit = move_particle(tiling, particle, table)
        except VertexHit:
            continue
        line, cell = (dx, dy) if edge.axis == "v" else (dy, dx)
        far = Particle(GridEdge(edge.axis, line, cell), particle.pos,
                       particle.across)
        far_hit = move_particle(tiling, far, table)
        assert far_hit.pos == hit.pos and far_hit.across == hit.across
        line, cell = (dx, dy) if hit.edge.axis == "v" else (dy, dx)
        assert far_hit.edge == GridEdge(hit.edge.axis, hit.edge.line + line,
                                        hit.edge.cell + cell)


def test_particle_on_rejects_fractions_off_the_open_edge():
    exact = GridTiling.standard()
    floats = GridTiling(Vec2(1.0, 0.0), Vec2(0.5, 1.0))
    for tiling, fracs in ((exact, (Fraction(0), Fraction(1), Fraction(2),
                                   Fraction(-1, 3))),
                          (floats, (0.0, 1.0, 2.0, -0.5, math.nan))):
        for frac in fracs:
            with pytest.raises(ValueError):
                tiling.particle_on(GridEdge("v", 0, 0), frac)
    inside = exact.particle_on(GridEdge("h", 0, 0), Fraction(1, 9))
    assert inside == Particle(GridEdge("h", 0, 0), Fraction(1, 9), 1)
    assert exact.point_on(inside.edge, inside.pos) == Vec2(Fraction(1, 9), 0)


def test_local_world_roundtrip():
    rng = random.Random(4)
    tiling = GridTiling.from_parameter(Fraction(7, 11)).transformed(
        2, 1, -1, 3)
    for _ in range(100):
        p = Vec2(rand_fraction(rng), rand_fraction(rng))
        assert tiling.to_world(tiling.to_local(p)) == p
        assert tiling.to_local(tiling.to_world(p)) == p


def test_point_on_and_particle_sides():
    tiling = GridTiling.standard()
    edge = GridEdge("v", 2, -1)
    p = tiling.point_on(edge, Fraction(1, 4))
    assert p == Vec2(2, Fraction(-3, 4))
    left = tiling.particle_on(edge, Fraction(1, 4), 1)
    right = tiling.particle_on(edge, Fraction(1, 4), -1)
    assert left.across == -1
    assert right.across == 1
    h = GridEdge("h", 0, 3)
    assert tiling.point_on(h, Fraction(1, 2)) == Vec2(Fraction(7, 2), 0)
    assert tiling.particle_on(h, Fraction(1, 2), 1).across == 1
    mirrored = tiling.transformed(1, 0, 0, -1)
    assert mirrored.particle_on(edge, Fraction(1, 4), 1).across == 1
    assert mirrored.particle_on(h, Fraction(1, 2), 1).across == -1


def test_rotated_grid_has_unit_rational_basis():
    t = Fraction(7, 11)
    tiling = GridTiling.from_parameter(t)
    assert tiling.e1 == rational_circle_point(t)
    assert dot(tiling.e1, tiling.e1) == 1
    assert tiling.e1.cross(tiling.e2) == 1


def test_singular_basis_rejected():
    with pytest.raises(ValueError):
        GridTiling(Vec2(1, 2), Vec2(2, 4))


def test_transversality():
    a = GridTiling.standard()
    b = GridTiling.from_parameter(Fraction(1, 3))
    assert is_transverse(a, b)
    assert not is_transverse(a, a)
    assert not is_transverse(a, a.transformed(3, 0, 0, 2))


def test_float_grids_parallel_up_to_rounding_are_not_transverse(
        monkeypatch):
    a = GridTiling.standard()
    right = GridTiling.rotated(unit_from_angle(math.pi / 2))
    assert right.e1.x != 0  # cos(pi/2) rounds to 6.1e-17
    assert not is_transverse(a, right)
    assert not is_transverse(right, a)
    assert not is_transverse(a, GridTiling.rotated(unit_from_angle(math.pi)))
    assert is_transverse(a, GridTiling.rotated(unit_from_angle(math.pi / 5)))
    # FLOAT_TOL is read at call time.
    monkeypatch.setattr(tilings, "FLOAT_TOL", 0.0)
    assert is_transverse(a, right)
