import json
import math
import random
from fractions import Fraction

from symtiling import serialize
from symtiling.dynamics import PairState, Termination, run_orbit
from symtiling.exact import Vec2
from symtiling.linkage import Polygon, random_convex_equilateral
from symtiling.tilings import GridEdge, GridTiling
from symtiling.weave import (holonomy, random_balanced_sunburst,
                             random_oriented_weave, regular_sunburst,
                             weave_interval)


def test_scalar_wire_format():
    assert serialize.scalar_to_json(Fraction(4, 5)) == "4/5"
    assert serialize.scalar_to_json(Fraction(-3)) == "-3"
    assert serialize.scalar_to_json(7) == 7
    assert serialize.scalar_to_json(0.25) == 0.25
    assert serialize.scalar_from_json("4/5") == Fraction(4, 5)
    assert serialize.scalar_from_json("-3") == Fraction(-3)
    assert serialize.scalar_from_json(0.25) == 0.25


def test_vec_particle_state_roundtrip():
    a = GridTiling.standard()
    p = a.particle_on(GridEdge("v", 2, -1), Fraction(3, 7), -1)
    data = serialize.particle_to_json(p)
    text = json.dumps(data)
    back = serialize.particle_from_json(json.loads(text))
    assert back == p
    assert back.point.x == Fraction(2)
    state = PairState(p, a.particle_on(GridEdge("h", 0, 0), Fraction(1, 9), 1))
    assert serialize.pair_state_from_json(
        json.loads(json.dumps(serialize.pair_state_to_json(state)))) == state


def test_termination_roundtrip():
    t = Termination("translation", 44, period=28, drift=(2, -3),
                    residual=0.0)
    back = serialize.termination_from_json(
        json.loads(json.dumps(serialize.termination_to_json(t))))
    assert back == t
    bare = Termination("max-steps", 10)
    assert serialize.termination_from_json(
        serialize.termination_to_json(bare)) == bare


def test_orbit_record_roundtrip_exact_and_float():
    a = GridTiling.standard()
    b = GridTiling.from_parameter(Fraction(1, 3))
    state = PairState(a.particle_on(GridEdge("v", 0, 0), Fraction(2, 7), 1),
                      b.particle_on(GridEdge("h", 0, 0), Fraction(3, 5), -1))
    rec = run_orbit(a, b, state, max_steps=80, keep_states=False)
    data = json.loads(json.dumps(serialize.orbit_record_to_json(rec)))
    back = serialize.orbit_record_from_json(data)
    assert back.start == rec.start
    assert back.termination == rec.termination
    assert back.a_points == rec.a_points
    assert back.bit_lengths == rec.bit_lengths
    assert back.exact
    rerun = run_orbit(a, b, back.start, max_steps=80, keep_states=False)
    assert rerun.a_points == rec.a_points

    fa = GridTiling(Vec2(1.0, 0.0), Vec2(0.0, 1.0))
    u = Vec2(math.cos(math.pi / 4), math.sin(math.pi / 4))
    fb = GridTiling.rotated(u)
    fstate = PairState(fa.particle_on(GridEdge("v", 0, 0), 0.3, 1),
                       fb.particle_on(GridEdge("v", 0, 0), 0.6, 1))
    frec = run_orbit(fa, fb, fstate, max_steps=60, keep_states=False)
    fdata = json.loads(json.dumps(serialize.orbit_record_to_json(frec)))
    fback = serialize.orbit_record_from_json(fdata)
    assert not fback.exact
    assert fback.a_points == frec.a_points
    assert fback.termination == frec.termination


def test_polygon_roundtrip():
    rng = random.Random(44)
    poly = random_convex_equilateral(rng, 6)
    back = serialize.polygon_from_json(
        json.loads(json.dumps(serialize.polygon_to_json(poly))))
    assert back.n == poly.n
    for p, q in zip(back.vertices, poly.vertices):
        assert (p - q).norm() <= 1e-15


def test_report_wire_shapes():
    rng = random.Random(9)
    pair = random_oriented_weave(rng, 5)
    rep = serialize.holonomy_report_to_json(holonomy(pair))
    assert set(rep) == {"h", "step_factors", "method"}
    assert len(rep["step_factors"]) == 5
    a = random_balanced_sunburst(rng, 5)
    iv = serialize.phase_interval_to_json(
        weave_interval(a, regular_sunburst(5)))
    assert set(iv) == {"lo", "width", "arcs"}
    assert len(iv["arcs"]) == 5


def test_write_and_read_json(tmp_path):
    path = tmp_path / "out.json"
    payload = {"x": "4/5", "y": [1, 2.5]}
    serialize.write_json(payload, path)
    assert serialize.read_json(path) == payload

