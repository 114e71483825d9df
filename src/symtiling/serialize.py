"""JSON wire formats for orbits, polygons and reports.

Rational scalars travel as "p/q" strings so a record written in exact
mode replays bit for bit; floats pass through as JSON numbers, which
Python prints with enough digits to round-trip exactly.  A sunburst
travels as its plain list of ray angles in radians, which is what
`weave.Sunburst` takes and stores.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .dynamics import OrbitRecord, PairState, Termination
from .exact import Vec2
from .linkage import Polygon
from .tilings import GridEdge, Particle


def scalar_to_json(x):
    if isinstance(x, (int, float)):
        return x
    return str(Fraction(x))


def scalar_from_json(v):
    if isinstance(v, str):
        return Fraction(v)
    return v


def vec_to_json(v: Vec2):
    return [scalar_to_json(v.x), scalar_to_json(v.y)]


def vec_from_json(data) -> Vec2:
    return Vec2(scalar_from_json(data[0]), scalar_from_json(data[1]))


def point_to_json(p):
    """A trace point, which orbit records store as a float pair."""
    return [scalar_to_json(p[0]), scalar_to_json(p[1])]


def point_from_json(data):
    return (scalar_from_json(data[0]), scalar_from_json(data[1]))


def edge_to_json(edge: GridEdge):
    return [edge.axis, edge.line, edge.cell]


def edge_from_json(data) -> GridEdge:
    return GridEdge(str(data[0]), int(data[1]), int(data[2]))


def particle_to_json(p):
    return {
        "point": vec_to_json(p.point),
        "edge": edge_to_json(p.edge),
        "direction": vec_to_json(p.direction),
    }


def particle_from_json(data):
    return Particle(vec_from_json(data["point"]),
                    edge_from_json(data["edge"]),
                    vec_from_json(data["direction"]))


def pair_state_to_json(state: PairState):
    return {"a": particle_to_json(state.a), "b": particle_to_json(state.b)}


def pair_state_from_json(data) -> PairState:
    return PairState(particle_from_json(data["a"]),
                     particle_from_json(data["b"]))


def termination_to_json(t: Termination):
    out = {"kind": t.kind, "step": t.step}
    if t.period is not None:
        out["period"] = t.period
    if t.drift is not None:
        out["drift"] = [scalar_to_json(d) for d in t.drift]
    if t.location is not None:
        out["location"] = list(t.location)
    if t.residual is not None:
        out["residual"] = t.residual
    return out


def termination_from_json(data) -> Termination:
    drift = data.get("drift")
    location = data.get("location")
    return Termination(
        kind=data["kind"],
        step=int(data["step"]),
        period=data.get("period"),
        drift=tuple(scalar_from_json(d) for d in drift) if drift else None,
        location=tuple(location) if location else None,
        residual=data.get("residual"),
    )


def orbit_record_to_json(record: OrbitRecord):
    return {
        "exact": record.exact,
        "start": pair_state_to_json(record.start),
        "termination": termination_to_json(record.termination),
        "a_points": [point_to_json(p) for p in record.a_points],
        "b_points": [point_to_json(p) for p in record.b_points],
        "bit_lengths": list(record.bit_lengths),
        "bbox_diameters": list(record.bbox_diameters),
    }


def orbit_record_from_json(data) -> OrbitRecord:
    return OrbitRecord(
        start=pair_state_from_json(data["start"]),
        termination=termination_from_json(data["termination"]),
        a_points=[point_from_json(p) for p in data["a_points"]],
        b_points=[point_from_json(p) for p in data["b_points"]],
        bit_lengths=list(data["bit_lengths"]),
        bbox_diameters=list(data["bbox_diameters"]),
        exact=bool(data["exact"]),
    )


def polygon_to_json(poly: Polygon):
    return [vec_to_json(v) for v in poly.vertices]


def polygon_from_json(data) -> Polygon:
    if not (isinstance(data, list)
            and all(isinstance(v, list) and len(v) == 2 for v in data)):
        raise ValueError("a polygon is a list of [x, y] vertex pairs")
    return Polygon([vec_from_json(v) for v in data])


def holonomy_report_to_json(report):
    return {
        "h": report.h,
        "step_factors": list(report.step_factors),
        "method": report.method,
    }


def phase_interval_to_json(interval):
    return {
        "lo": interval.lo,
        "width": interval.width,
        "arcs": [[lo, width] for lo, width in interval.arcs],
    }


def hyperbolic_point_to_json(point):
    return {"n": point.n, "coords": [float(c) for c in point.coords]}


def write_json(data, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
