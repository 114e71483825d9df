"""Per-layer spans recorded from outside the package.

A Tracer replaces each named public function with a timing wrapper at
every place a caller can look it up: the defining module, each
`symtiling` module that imported the name, and the class for methods.
It records calls, total time and self time, where self time is total
time minus the part covered by child spans.  A name the program no
longer has is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# Span name -> places the function is defined, as (module, attribute path).
SPANS = {
    "tilings.first_hit": [("tilings", "GridTiling.first_hit"),
                          ("tilings", "Sunburst.first_hit")],
    "dynamics.step": [("dynamics", "step")],
    "dynamics.run_orbit": [("dynamics", "run_orbit")],
    "dynamics.classify": [("dynamics", "classify")],
    "weave.solve_phase": [("weave", "solve_phase")],
    "weave.holonomy_product": [("weave", "holonomy_product")],
    "weave.weave_interval": [("weave", "weave_interval")],
    "weave.orbit_points": [("weave", "orbit_points")],
    "weave.holonomy": [("weave", "holonomy")],
    "linkage.solve_equiangular": [("linkage", "solve_equiangular")],
    "linkage.check_equilateral": [("linkage", "check_equilateral")],
    "pipeline.equilateral_to_hyperbolic": [
        ("pipeline", "equilateral_to_hyperbolic")],
    "pipeline.offsets_from_equiangular": [
        ("pipeline", "offsets_from_equiangular")],
    "moduli.area_form": [("moduli", "area_form")],
    "moduli.to_hyperbolic": [("moduli", "to_hyperbolic")],
    "moduli.to_disk": [("moduli", "to_disk")],
    "moduli.pentagon_walls": [("moduli", "pentagon_walls")],
    "moduli.wall_intersection": [("moduli", "wall_intersection")],
    "moduli.cyclic_fixed_point": [("moduli", "cyclic_fixed_point")],
    "serialize.write_json": [("serialize", "write_json")],
    "serialize.read_json": [("serialize", "read_json")],
    "svgout.write": [("svgout", "Canvas.write")],
    "cli.main": [("cli", "main")],
}

PACKAGE = "symtiling"


class Tracer:
    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name in SPANS}  # calls, s, s
        self.absent = []
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        stats = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                covered = stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - covered
                if stack:
                    stack[-1] += elapsed

        return span

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE
                                         or key.startswith(PACKAGE + "."))]
        for name, places in SPANS.items():
            found = False
            for module, path in places:
                owner, attr = _resolve(module, path)
                if owner is None:
                    continue
                found = True
                original = vars(owner)[attr]
                wrapper = self._wrap(name, original)
                if isinstance(owner, type):
                    self._patch(owner, attr, original, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapper)
            if not found and name not in self.absent:
                self.absent.append(name)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def metrics(self):
        out = {}
        for name, (calls, total, self_time) in self.stats.items():
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.total_ms"] = (total * 1e3, "ms")
            out[f"{name}.self_ms"] = (self_time * 1e3, "ms")
        return out


def _resolve(module, path):
    """(object holding the attribute, attribute name) or (None, None)."""
    try:
        owner = importlib.import_module(f"{PACKAGE}.{module}")
    except ImportError:
        return None, None
    *parents, attr = path.split(".")
    for part in parents:
        owner = vars(owner).get(part)
        if owner is None:
            return None, None
    if attr not in vars(owner):
        return None, None
    return owner, attr
