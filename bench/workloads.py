"""The benchmark's three workloads: inputs, items, counts and output checks.

Every workload owns a fixed input pool built by this file's generator
(never by the package's samplers or the CLI's --seed paths, so a change
to those cannot change the measured work).  The pool is grouped into
strata; one round of the closed loop runs every stratum of the round
layout once, each with the next variant of a seeded deal, in a seeded
order.  Rounds keep the mix of costly and cheap inputs the same for every
seed, so run-to-run spread measures the program rather than the draw.

`bench/reference.json` holds, per pool entry, the output the program gave
when the benchmark was recorded; `bench/record.py` rewrites it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
from fractions import Fraction

from symtiling import cli, dynamics, moduli, tilings
from symtiling.exact import Vec2

POOL_SEED = 2307_12259
JITTER = 0.3        # polygon edge-direction jitter, a share of the regular gap
MAX_STEPS = 200
VERDICTS = dynamics.VERDICTS
TERMINATIONS = ("periodic", "translation", "vertex", "escaped", "max-steps")


def sha256_json(data) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    """A pool of inputs in strata plus the code that runs one item.

    Subclasses define `strata` (lists of JSON-able entry specs), `layout`
    (stratum indices forming one round), `prepare`, `warm_up`, `run`,
    `counts`, `reference_of` and `check`, and may define `stage`.
    """

    name = ""
    pass_rounds = 1     # rounds per pass of a --trace 0 run: a few seconds
    trace_rounds = 1    # rounds of a --trace 1 run

    def pool_sha256(self) -> str:
        return sha256_json(self.strata)

    def rounds(self, seed: int):
        """The seed's endless stream of rounds of (stratum, variant, twist)
        items.  Each stratum deals its variants in a seeded order and
        starts over only when all are dealt, so a run repeats an input
        only after it has used the whole stratum.  The twist in [0, 1)
        lets a workload vary an input without changing its output."""
        rng = random.Random(seed)
        order = [rng.sample(range(len(st)), len(st)) for st in self.strata]
        dealt = [0] * len(self.strata)
        while True:
            batch = []
            for s in self.layout:
                batch.append((s, order[s][dealt[s] % len(order[s])],
                              rng.random()))
                dealt[s] += 1
            rng.shuffle(batch)
            yield batch

    def items(self, seed: int, rounds: int):
        """The seed's first rounds, as one list."""
        stream = self.rounds(seed)
        return [item for _ in range(rounds) for item in next(stream)]

    def stage(self, item):
        """Untimed preparation of one item's input."""


class _Grid(Workload):
    """Pair orbits on the standard grid and a rotated copy: one item is
    run_orbit(keep_states=False) plus classify, checked against the
    recorded verdict.  A stratum is a pair of grids and a pair of edges
    (v:0:0 or h:0:0 each); its variants are the facing sides and start
    fractions.
    """

    EDGES = ("v", "h")
    SIDES = (1, -1)

    def __init__(self):
        self.strata = [
            [dict(pair=pair, edge_a=ea, edge_b=eb, side_a=sa, side_b=sb,
                  frac_a=fa, frac_b=fb)
             for sa in self.SIDES for sb in self.SIDES
             for fa, fb in self.fractions(pair)]
            for pair in self.PAIRS for ea in self.EDGES for eb in self.EDGES]
        self.layout = list(range(len(self.strata)))

    def prepare(self, workdir):
        a = tilings.GridTiling.standard()
        grids = {pair: self.grid(pair) for pair in self.PAIRS}
        self.states = [
            [(a, grids[e["pair"]], dynamics.PairState(
                a.particle_on(tilings.GridEdge(e["edge_a"], 0, 0),
                              self.scalar(e["frac_a"]), e["side_a"]),
                grids[e["pair"]].particle_on(
                    tilings.GridEdge(e["edge_b"], 0, 0),
                    self.scalar(e["frac_b"]), e["side_b"])))
             for e in stratum]
            for stratum in self.strata]

    def warm_up(self):
        """A short orbit on each pair of grids."""
        per_pair = len(self.strata) // len(self.PAIRS)
        for s in range(0, len(self.strata), per_pair):
            a, b, start = self.states[s][0]
            dynamics.classify(dynamics.run_orbit(a, b, start, 20,
                                                 keep_states=False))

    def run(self, item):
        s, v, _ = item
        a, b, start = self.states[s][v]
        record = dynamics.run_orbit(a, b, start, MAX_STEPS, keep_states=False)
        return record, dynamics.classify(record)

    @staticmethod
    def counts(output):
        record, verdict = output
        return {"steps": record.steps, "peak_bits": max(record.bit_lengths),
                "verdict": verdict.verdict,
                "termination": record.termination.kind}

    @staticmethod
    def reference_of(output):
        return output[1].verdict

    @staticmethod
    def check(output, ref):
        verdict = output[1].verdict
        if verdict != ref:
            return f"verdict {verdict} != recorded {ref}"
        return None


class GridExact(_Grid):
    """Fraction orbits on the grids of circle parameters 1/3, 7/11, 3/7,
    started at the cell centres of a 6x6 raster over the two edges."""

    name = "grid-exact"
    pass_rounds = 4
    trace_rounds = 8
    PAIRS = ("1/3", "7/11", "3/7")
    RASTER = 6

    def fractions(self, pair):
        w = self.RASTER
        cells = [f"{2 * i + 1}/{2 * w}" for i in range(w)]
        return [(str(Fraction(fa)), str(Fraction(fb)))
                for fa in cells for fb in cells]

    @staticmethod
    def scalar(text):
        return Fraction(text)

    @staticmethod
    def grid(pair):
        return tilings.GridTiling.from_parameter(Fraction(pair))


class GridFloat(_Grid):
    """Float orbits on grids rotated by irrational angles and on float
    copies of the 1/3 and 7/11 grids, from seeded random fractions."""

    name = "grid-float"
    pass_rounds = 10
    trace_rounds = 20
    ANGLES = {"pi/4": math.pi / 4, "pi/5": math.pi / 5, "1": 1.0, "2": 2.0}
    PAIRS = tuple(ANGLES) + ("1/3", "7/11")
    VARIANTS = 64

    def fractions(self, pair):
        rng = random.Random(f"{POOL_SEED}:{self.name}:{pair}")
        return [(rng.randint(1, 9999) / 10000, rng.randint(1, 9999) / 10000)
                for _ in range(self.VARIANTS)]

    @staticmethod
    def scalar(value):
        return float(value)

    @classmethod
    def grid(cls, pair):
        if pair in cls.ANGLES:
            theta = cls.ANGLES[pair]
            return tilings.GridTiling.rotated(Vec2(math.cos(theta),
                                                   math.sin(theta)))
        b = tilings.GridTiling.from_parameter(Fraction(pair))
        return tilings.GridTiling(Vec2(float(b.e1.x), float(b.e1.y)),
                                  Vec2(float(b.e2.x), float(b.e2.y)))


def balanced_angles(rng, n: int):
    """Sorted edge directions of a convex equilateral n-gon near the
    regular one: unit vectors whose sum vanishes.

    Each direction is jittered by up to JITTER of the regular gap; the
    jitter is projected off the first Fourier mode, which cancels the
    imbalance to first order, and directions 0 and n // 3 are then solved
    exactly for the rest.
    """
    gap = 2.0 * math.pi / n
    cos_k = [math.cos(gap * k) for k in range(n)]
    sin_k = [math.sin(gap * k) for k in range(n)]
    i, j = 0, n // 3
    for _ in range(100):
        eps = [rng.uniform(-JITTER, JITTER) * gap for _ in range(n)]
        ec = sum(e * c for e, c in zip(eps, cos_k)) * 2.0 / n
        es = sum(e * s for e, s in zip(eps, sin_k)) * 2.0 / n
        base = rng.uniform(0.0, 2.0 * math.pi)
        ang = [base + gap * k + e - ec * c - es * s
               for k, (e, c, s) in enumerate(zip(eps, cos_k, sin_k))]
        sx = sum(math.cos(t) for k, t in enumerate(ang) if k not in (i, j))
        sy = sum(math.sin(t) for k, t in enumerate(ang) if k not in (i, j))
        mx, my = -sx / 2.0, -sy / 2.0
        m = math.hypot(mx, my)
        if not 0.0 < m < 1.0:
            continue
        h = math.sqrt(1.0 - m * m) / m
        first = math.atan2(my - h * mx, mx + h * my)
        second = math.atan2(my + h * mx, mx - h * my)
        # The solved pair keeps the counterclockwise order of i before j.
        ang[i] = ang[i] + _wrap(first - ang[i])
        ang[j] = ang[j] + _wrap(second - ang[j])
        gaps = [ang[k + 1] - ang[k] for k in range(n - 1)]
        gaps.append(ang[0] + 2.0 * math.pi - ang[-1])
        balance = math.hypot(sum(math.cos(t) for t in ang),
                             sum(math.sin(t) for t in ang))
        if min(gaps) > 0.25 * gap and balance < 1e-13:
            return ang
    raise RuntimeError(f"no balanced {n}-gon in 100 attempts")


def _wrap(t: float) -> float:
    return (t + math.pi) % (2.0 * math.pi) - math.pi


def chain(angles):
    """Vertices of the polygon whose edges are the unit directions."""
    x = y = 0.0
    verts = []
    for t in angles:
        verts.append([x, y])
        x += math.cos(t)
        y += math.sin(t)
    return verts


_FLOAT = r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)"


def _printed(text, key):
    match = re.search(rf"\b{key}={_FLOAT}", text)
    return float(match.group(1)) if match else None


class CliPolygons(Workload):
    """In-process CLI calls on generated equilateral polygons and their
    direction sunbursts; n = 5 is weighted four times.  sunburst-solve,
    linkage-convert and moduli-embed read the input file `stage` wrote
    and write --json and --out files; pentagon-verify writes --json.
    """

    name = "cli-polygons"
    pass_rounds = 3
    trace_rounds = 8
    NS = (5, 6, 7, 8, 12, 16, 24, 32)
    VARIANTS = 8
    COMMANDS = ("sunburst-solve", "linkage-convert", "moduli-embed")
    HEAVY_N, HEAVY_WEIGHT, PENTAGON_WEIGHT = 5, 4, 2

    def __init__(self):
        rng = random.Random(f"{POOL_SEED}:{self.name}")
        angles = {n: [balanced_angles(rng, n) for _ in range(self.VARIANTS)]
                  for n in self.NS}
        self.strata = [[dict(command=c, n=n, angles=a) for a in angles[n]]
                       for n in self.NS for c in self.COMMANDS]
        self.strata.append([dict(command="pentagon-verify")])
        heavy = [s for s, st in enumerate(self.strata)
                 if st[0].get("n") == self.HEAVY_N]
        self.layout = (list(range(len(self.strata)))
                       + heavy * (self.HEAVY_WEIGHT - 1)
                       + [len(self.strata) - 1] * (self.PENTAGON_WEIGHT - 1))

    def prepare(self, workdir):
        """Build the cold area forms the moduli commands read from the
        package's cache."""
        self.in_json = os.path.join(workdir, "in.json")
        self.out_json = os.path.join(workdir, "out.json")
        self.out_svg = os.path.join(workdir, "out.svg")
        for n in self.NS:
            moduli.area_form(n)

    def warm_up(self):
        stratum = [s for s in range(len(self.strata))
                   if self.strata[s][0].get("n") == self.HEAVY_N]
        for s in stratum + [len(self.strata) - 1]:
            self.stage((s, 0, None))
            self.run((s, 0, None))

    def stage(self, item):
        """Write the item's polygon, or its sunburst, turned by an angle
        and moved by an offset drawn from its twist (none for None).  The
        outputs checked do not change under such a motion, while no two
        items read the same input."""
        s, v, twist = item
        entry = self.strata[s][v]
        if entry["command"] == "pentagon-verify":
            return
        turn, dx, dy = 0.0, 0.0, 0.0
        if twist is not None:
            rng = random.Random(twist)
            turn = rng.uniform(0.0, 2.0 * math.pi)
            dx, dy = rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0)
        angles = [t + turn for t in entry["angles"]]
        if entry["command"] == "sunburst-solve":
            data = angles
        else:
            data = [[x + dx, y + dy] for x, y in chain(angles)]
        with open(self.in_json, "w") as fh:
            json.dump(data, fh)

    def argv(self, item):
        command = self.strata[item[0]][item[1]]["command"]
        if command == "pentagon-verify":
            return [command, "--json", self.out_json]
        return [command, self.in_json, "--json", self.out_json,
                "--out", self.out_svg]

    def run(self, item):
        argv = self.argv(item)
        for path in (self.out_json, self.out_svg):
            if os.path.exists(path):
                os.remove(path)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return argv[0], code, out.getvalue(), err.getvalue()

    def _outputs(self):
        if not os.path.exists(self.out_json):
            return None
        with open(self.out_json) as fh:
            return json.load(fh)

    def counts(self, output):
        command = output[0]
        sizes = {}
        for key, path in (("json_bytes", self.out_json),
                          ("svg_bytes", self.out_svg)):
            sizes[key] = os.path.getsize(path) if os.path.exists(path) else 0
        if command == "pentagon-verify":
            sizes["json_bytes"] = 0    # written by cli itself, not serialize
        return sizes

    def reference_of(self, output):
        if output[0] != "moduli-embed":
            return None
        return self._outputs()["point"]["coords"]

    def check(self, output, ref):
        command, code, out, err = output
        if code != 0:
            return f"{command} exited {code}: {err.strip()[:200]}"
        data = self._outputs()
        if command == "pentagon-verify":
            if not json.loads(out)["passed"]:
                return "pentagon-verify did not pass"
            return None
        if command == "moduli-embed":
            coords = data["point"]["coords"]
            if len(coords) != len(ref) or max(
                    abs(c - r) for c, r in zip(coords, ref)) > 1e-9:
                return "moduli-embed coordinates differ from the reference"
            return None
        closure = _printed(out, "closure")
        if closure is None or closure > 1e-9:
            return f"{command} closure {closure}"
        if command == "linkage-convert":
            return _equiangular_problem(data["equiangular"])
        log_h = _printed(out, "log_h")
        if log_h is None or abs(log_h) > 1e-12:
            return f"sunburst-solve |log_h| {log_h}"
        return None


def _equiangular_problem(pts):
    """None when the polygon is convex counterclockwise with every
    interior angle pi - 2 pi / n to 1e-9, else what is wrong."""
    n = len(pts)
    edges = [(pts[(k + 1) % n][0] - pts[k][0], pts[(k + 1) % n][1] - pts[k][1])
             for k in range(n)]
    target = math.pi - 2.0 * math.pi / n
    for k in range(n):
        (px, py), (cx, cy) = edges[k - 1], edges[k]
        cross = px * cy - py * cx
        if cross <= 0:
            return f"equiangular output not convex at vertex {k}"
        angle = math.pi - math.atan2(cross, px * cx + py * cy)
        if abs(angle - target) > 1e-9:
            return f"interior angle {k} off by {angle - target:.3e}"
    return None


WORKLOADS = {w.name: w for w in (GridExact, GridFloat, CliPolygons)}
