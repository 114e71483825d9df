import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from symtiling import serialize
from symtiling.dynamics import PairState, Termination, run_orbit
from symtiling.exact import Vec2
from symtiling.linkage import random_convex_equilateral
from symtiling.tilings import GridEdge, GridTiling
from symtiling.weave import (holonomy, random_balanced_sunburst,
                             random_oriented_weave, regular_sunburst,
                             weave_interval)


def wire(obj):
    """obj as the parsed JSON that write_json would produce."""
    return json.loads(json.dumps(obj, default=serialize.encode))


def test_scalar_wire_format():
    assert wire(Fraction(4, 5)) == "4/5"
    assert wire(Fraction(-3)) == "-3"
    assert wire(7) == 7
    assert wire(0.25) == 0.25
    assert wire(np.array([0.5, -1.0])) == [0.5, -1.0]
    with pytest.raises(TypeError):
        serialize.encode(object())


def test_vec_particle_state_wire_shapes():
    assert wire(Vec2(Fraction(1, 3), 2)) == ["1/3", 2]
    assert wire(Vec2(0.5, -1.5)) == [0.5, -1.5]
    a = GridTiling.standard()
    p = a.particle_on(GridEdge("v", 2, -1), Fraction(3, 7), -1)
    assert wire(p) == {"point": ["2", "-4/7"], "edge": ["v", 2, -1],
                       "direction": ["1", "0"]}
    q = a.particle_on(GridEdge("h", 0, 0), Fraction(1, 9), 1)
    assert wire(PairState(p, q)) == {"a": wire(p), "b": wire(q)}


def test_termination_wire_leaves_out_unset_fields():
    t = Termination("translation", 44, period=28, drift=(2, -3),
                    residual=0.0)
    assert wire(t) == {"kind": "translation", "step": 44, "period": 28,
                       "drift": [2, -3], "residual": 0.0}
    assert wire(Termination("max-steps", 10)) == {"kind": "max-steps",
                                                  "step": 10}
    assert wire(Termination("vertex", 3, location=(0.5, 1.0))) == {
        "kind": "vertex", "step": 3, "location": [0.5, 1.0]}


def test_orbit_record_wire_fields_exact_and_float():
    fields = {"start", "termination", "a_points", "b_points",
              "bit_lengths", "exact"}
    a = GridTiling.standard()
    b = GridTiling.from_parameter(Fraction(1, 3))
    state = PairState(a.particle_on(GridEdge("v", 0, 0), Fraction(2, 7), 1),
                      b.particle_on(GridEdge("h", 0, 0), Fraction(3, 5), -1))
    rec = run_orbit(a, b, state, max_steps=80, keep_states=False)
    data = wire(rec)
    assert set(data) == fields
    assert data["start"] == wire(state)
    assert data["a_points"] == [list(p) for p in rec.a_points]
    assert data["bit_lengths"] == rec.bit_lengths
    assert data["exact"] is True

    fa = GridTiling(Vec2(1.0, 0.0), Vec2(0.0, 1.0))
    u = Vec2(math.cos(math.pi / 4), math.sin(math.pi / 4))
    fb = GridTiling.rotated(u)
    fstate = PairState(fa.particle_on(GridEdge("v", 0, 0), 0.3, 1),
                       fb.particle_on(GridEdge("v", 0, 0), 0.6, 1))
    frec = run_orbit(fa, fb, fstate, max_steps=60, keep_states=False)
    fdata = wire(frec)
    assert set(fdata) == fields
    assert fdata["exact"] is False
    assert fdata["b_points"] == [list(p) for p in frec.b_points]
    assert fdata["termination"] == wire(frec.termination)


def test_polygon_roundtrip():
    rng = random.Random(44)
    poly = random_convex_equilateral(rng, 6)
    back = serialize.polygon_from_json(wire(poly.vertices))
    assert back.n == poly.n
    for p, q in zip(back.vertices, poly.vertices):
        assert (p - q).norm() <= 1e-15
    exact = serialize.polygon_from_json([[0, 0], ["1/2", 0], [0, "1/3"]])
    assert exact.vertices[2] == Vec2(0, Fraction(1, 3))


def test_report_wire_shapes():
    rng = random.Random(9)
    pair = random_oriented_weave(rng, 5)
    rep = wire(holonomy(pair))
    assert set(rep) == {"h", "step_factors", "method"}
    assert len(rep["step_factors"]) == 5
    a = random_balanced_sunburst(rng, 5)
    iv = wire(weave_interval(a, regular_sunburst(5)))
    assert set(iv) == {"lo", "width", "arcs"}
    assert len(iv["arcs"]) == 5


def test_write_and_read_json(tmp_path):
    path = tmp_path / "out.json"
    payload = {"x": Fraction(4, 5), "y": [1, 2.5], "v": Vec2(1, 2)}
    serialize.write_json(payload, path)
    assert serialize.read_json(path) == {"x": "4/5", "y": [1, 2.5],
                                         "v": [1, 2]}
    assert path.read_text().count("\n") == 1


def test_write_json_writes_nothing_when_encoding_fails(tmp_path):
    path = tmp_path / "out.json"
    with pytest.raises(TypeError):
        serialize.write_json({"x": object()}, path)
    assert not path.exists()
