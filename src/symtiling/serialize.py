"""JSON wire format: one rule for every record, applied by the `json`
default= hook `encode`.  A dataclass becomes an object of its fields,
leaving out fields that are None; a `Vec2` becomes [x, y]; a `Fraction`
becomes a "p/q" string, so exact records keep their rationals bit for
bit.  Floats are JSON numbers, printed with enough digits to round-trip
exactly, and tuples become lists.  The one reader, `polygon_from_json`,
is the CLI's polygon input.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from fractions import Fraction

from .exact import Vec2
from .linkage import Polygon


def encode(obj):
    """The JSON form of one object that `json` cannot write itself; the
    parts it returns are encoded in turn."""
    if isinstance(obj, Vec2):
        return [obj.x, obj.y]
    if isinstance(obj, Fraction):
        return str(obj)
    if dataclasses.is_dataclass(obj):
        fields = ((f.name, getattr(obj, f.name))
                  for f in dataclasses.fields(obj))
        return {name: value for name, value in fields if value is not None}
    raise TypeError(f"{type(obj).__name__} has no JSON form")


def _coordinate(value):
    """A JSON number, which `json.load` makes an int or a float, or a
    "p/q" string, within float range; a boolean, a value that is not
    finite, one beyond float range and a string that is not a rational
    are refused, naming the value."""
    if type(value) in (float, int, str):
        try:
            coordinate = Fraction(value) if type(value) is str else value
        except (ValueError, ZeroDivisionError):
            pass        # a string Fraction cannot read: refused below
        else:
            if abs(coordinate) <= sys.float_info.max:
                return coordinate
    raise ValueError(f"a polygon coordinate is a finite number or a \"p/q\" "
                     f"string within float range, got {value!r}")


def polygon_from_json(data) -> Polygon:
    if not (isinstance(data, list)
            and all(isinstance(v, list) and len(v) == 2 for v in data)):
        raise ValueError("a polygon is a list of [x, y] vertex pairs")
    return Polygon([Vec2(_coordinate(x), _coordinate(y)) for x, y in data])


def write_json(data, path):
    """Compact JSON under the wire rule; nothing is written if a value
    has no JSON form."""
    text = json.dumps(data, default=encode)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def read_json(path):
    """The JSON value in the file; ValueError, naming the file, when its
    text is not JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path} is not JSON: {exc}") from None
