"""Command-line workbench: pair orbits on grids, verdict portraits,
sunburst phase solving, polygon conversion, and the hyperbolic embedding.

Every command is deterministic given its flags, however often main(argv)
runs in one process; randomness only enters through an explicit --seed.
Exit codes: 0 on success, 2 on degenerate or invalid input, 1 on IO failure;
main(argv) returns every one of them, argparse's refusals and --help included.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from random import Random

from . import serialize, svgout
from .dynamics import PairState, classify, phase_portrait, run_orbit
from .errors import GeometryError
from .exact import Vec2
from .linkage import Polygon, random_convex_equilateral, solve_equiangular
from .tilings import GridEdge, GridTiling
from .weave import (Sunburst, SunburstPair, holonomy_product, orbit_points,
                    random_balanced_sunburst, random_oriented_weave,
                    regular_sunburst, solve_phase, weave_interval)

# pentagon-verify's pass bound; the closed-form walls miss by about 5e-16.
PENTAGON_TOL = 1e-9


def parse_angle(text: str) -> float:
    """Angles like 'pi/4', '3pi/8', 'pi', or a plain float in radians;
    ValueError unless the angle is finite."""
    head, pi, tail = text.strip().replace(" ", "").partition("pi")
    if not pi:
        angle = float(head)
    else:
        num = float(head) if head not in ("", "+") else (
            -1.0 if head == "-" else 1.0)
        den = 1.0
        if tail:
            if not tail.startswith("/"):
                raise ValueError(f"cannot parse angle {text!r}")
            den = float(tail[1:])
        angle = num * math.pi / den if den else math.inf
    if not math.isfinite(angle):
        raise ValueError(f"angle must be finite, got {text!r}")
    return angle


def parse_edge(text: str) -> GridEdge:
    parts = text.split(":")
    try:
        if len(parts) == 3 and parts[0] in ("v", "h"):
            return GridEdge(parts[0], int(parts[1]), int(parts[2]))
    except ValueError:
        pass
    raise ValueError(f"edge must look like v:0:0 or h:2:-1, got {text!r}")


def parse_resolution(text: str):
    """WxH, or a bare W for a square."""
    w, x, h = text.lower().partition("x")
    if x and not h:
        raise ValueError(f"resolution needs a height after x, got {text!r}")
    try:
        hw, hh = int(w), int(h or w)
    except ValueError:
        raise ValueError(f"resolution must look like 64x64 or 64, "
                         f"got {text!r}") from None
    if hw < 1 or hh < 1:
        raise ValueError(f"resolution must be positive, got {text!r}")
    return hw, hh


def parse_steps(text: str) -> int:
    """A --max-steps budget: a whole number of steps, 0 or more."""
    steps = int(text)
    if steps < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {steps}")
    return steps


def parse_fraction(flag: str, text: str) -> Fraction:
    """The flag's rational value, else ValueError naming the flag."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{flag} must be a rational such as 1/3, "
                         f"got {text!r}") from None


def build_tilings(args):
    """The standard grid paired with its rotation: by --angle in floats,
    else exactly by the rational circle parameter --t, 1/3 if unset."""
    if args.angle is None:
        if args.t is None:
            args.t = "1/3"
        return (GridTiling.standard(),
                GridTiling.from_parameter(parse_fraction("--t", args.t)))
    theta = parse_angle(args.angle)
    return (GridTiling(Vec2(1.0, 0.0), Vec2(0.0, 1.0)),
            GridTiling.rotated(Vec2(math.cos(theta), math.sin(theta))))


# The start flags of grid-orbit and their values when --seed is not given.
START_DEFAULTS = {"frac_a": "1/2", "frac_b": "1/3", "side_a": 1, "side_b": 1}


def start_state(a, b, args) -> PairState:
    """The start --seed draws, or the one the start flags give; unset start
    flags get their defaults in args, so the JSON config records them."""
    given = [key for key in START_DEFAULTS if getattr(args, key) is not None]
    if args.seed is not None:
        if given:
            raise ValueError("--seed draws the start; it cannot be combined "
                             "with --" + ", --".join(given).replace("_", "-"))
        rng = Random(args.seed)
        fa, fb = (Fraction(rng.randint(1, 9999), 10000) for _ in range(2))
        sa, sb = rng.choice((1, -1)), rng.choice((1, -1))
    else:
        vars(args).update({key: value for key, value in START_DEFAULTS.items()
                           if key not in given})
        fa = parse_fraction("--frac-a", args.frac_a)
        fb = parse_fraction("--frac-b", args.frac_b)
        sa, sb = args.side_a, args.side_b
    return PairState(a.particle_on(parse_edge(args.edge_a), fa, sa),
                     b.particle_on(parse_edge(args.edge_b), fb, sb))


def input_files(args):
    """The input files, which fix the input: refuse more of them than the
    command reads, two for sunburst-solve and one otherwise, and with
    them the flags that only shape a random draw; without them --n is 5
    if unset."""
    most = 2 if args.command == "sunburst-solve" else 1
    if len(args.files) > most:
        raise ValueError(f"{args.command} reads at most {most} input "
                         f"file{'s' if most > 1 else ''}, got "
                         f"{len(args.files)}")
    given = [flag for flag, on in (("--n", args.n is not None),
                                   ("--seed", args.seed is not None),
                                   ("--free", vars(args).get("free")))
             if on]
    if args.files and given:
        raise ValueError("input files fix the input; they cannot be "
                         "combined with " + ", ".join(given))
    if not args.files and args.n is None:
        args.n = 5
    return args.files


def _summary(cls) -> str:
    bits = [f"verdict={cls.verdict}"]
    for key in ("lock", "period", "lambda_a", "lambda_b", "drift",
                "residual", "bit_growth", "bbox_spread", "steps", "location"):
        if key in cls.evidence and cls.evidence[key] is not None:
            val = cls.evidence[key]
            if isinstance(val, float):
                bits.append(f"{key}={val:.6g}")
            else:
                bits.append(f"{key}={val}")
    return " ".join(bits)


def cmd_grid_orbit(args):
    a, b = build_tilings(args)
    state = start_state(a, b, args)
    record = run_orbit(a, b, state, max_steps=args.max_steps)
    verdict = classify(record)
    payload = dict(serialize.encode(record), verdict=verdict.verdict)
    return (_summary(verdict), payload,
            lambda path: svgout.orbit_figure(record, a, b).write(path))


def cmd_grid_portrait(args):
    a, b = build_tilings(args)
    rows = phase_portrait(a, b, parse_edge(args.edge_a),
                          parse_edge(args.edge_b),
                          parse_resolution(args.resolution),
                          max_steps=args.max_steps)
    counts = Counter(v for row in rows for v in row)
    return (" ".join(f"{k}={counts[k]}" for k in sorted(counts)),
            {"rows": rows}, lambda path: svgout.write_ppm(path, rows))


def cmd_sunburst_solve(args):
    rng = Random(args.seed)
    if input_files(args):
        a = Sunburst(serialize.read_json(args.files[0]))
        b = (Sunburst(serialize.read_json(args.files[1]))
             if len(args.files) > 1 else regular_sunburst(a.n))
    elif args.free:
        a = random_oriented_weave(rng, args.n).a
        b = regular_sunburst(args.n)
    else:
        a = random_balanced_sunburst(rng, args.n)
        b = regular_sunburst(args.n)
    interval = weave_interval(a, b)
    theta = solve_phase(a, b)
    pair = SunburstPair(a, b, theta)
    report = holonomy_product(pair)
    pts = orbit_points(pair)
    closure = (pts[-1] - pts[0]).norm()
    poly = Polygon(pts[:pair.n])
    line = (f"theta={theta:.12f} h={report.h:.12g} "
            f"log_h={math.log(report.h):.3e} closure={closure:.3e} "
            f"convex={poly.is_convex()} "
            f"interval=({interval.lo:.6f}, {interval.hi:.6f})")
    payload = {"a": a.angles, "b": b.angles, "theta": theta,
               "holonomy": report, "interval": interval, "closure": closure,
               "points": poly.vertices}
    return (line, payload,
            lambda path: svgout.sunburst_figure(pair, pts).write(path))


def _input_polygon(args) -> Polygon:
    if input_files(args):
        return serialize.polygon_from_json(serialize.read_json(args.files[0]))
    rng = Random(args.seed)
    return random_convex_equilateral(rng, args.n)


def cmd_linkage_convert(args):
    poly = _input_polygon(args)
    sol = solve_equiangular(poly)
    line = (f"n={poly.n} side={poly.edge_lengths()[0]:.6g} "
            f"phase={sol.phase:.12f} closure={sol.residual:.3e} "
            f"convex={sol.polygon.is_convex()}")
    payload = {"input": poly.vertices, "equiangular": sol.polygon.vertices,
               "phase": sol.phase, "closure": sol.residual}
    return (line, payload,
            lambda path: svgout.polygon_figure([poly, sol.polygon]).write(path))


def cmd_moduli_embed(args):
    # Imported here so that numpy, which moduli loads, stays out of the
    # other commands.
    from . import moduli, pipeline
    poly = _input_polygon(args)
    point = pipeline.equilateral_to_hyperbolic(poly)
    disk = moduli.to_disk(point)

    def draw(path):
        chords = []
        if poly.n == 5:
            corners = [moduli.to_disk(moduli.HyperbolicPoint(5, tuple(c)))
                       for c in moduli.pentagon_report()["vertices"]]
            chords = [(corners[i], corners[(i + 1) % 5]) for i in range(5)]
        svgout.disk_figure([disk], chords).write(path)

    line = (f"n={poly.n} coords={[f'{c:.9f}' for c in point.coords]} "
            f"disk=({', '.join(f'{c:.9f}' for c in disk)})")
    return line, {"input": poly.vertices, "point": point,
                  "disk": disk.tolist()}, draw


def cmd_pentagon_verify(args):
    from . import moduli
    form = moduli.area_form(5)
    report = moduli.pentagon_report()
    angle_residual = max(abs(a - math.pi / 2) for a in report["angles"])
    right_angled = angle_residual <= PENTAGON_TOL
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    side_residual = max(abs(math.cosh(s) - golden) for s in report["sides"])
    walls, order = report["walls"], report["order"]
    ortho = [abs(form.pairing(walls[order[i]], walls[order[(i + 1) % 5]]))
             for i in range(5)]
    out = {
        "signature": list(form.signature),
        "angles": list(report["angles"]),
        "sides": list(report["sides"]),
        "angle_residual": angle_residual,
        "side_cosh_residual": side_residual,
        "adjacent_wall_pairing": ortho,
        "right_angled": right_angled,
        "passed": right_angled and max(ortho) <= PENTAGON_TOL,
    }
    return json.dumps(out, indent=2), out, None


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """Built once per process, then only read; binds cmd_* at that build."""
    parser = argparse.ArgumentParser(
        prog="symtiling",
        description="Workbench for coupled billiards on pairs of tilings.")
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, func, about, *, seed=True, out=True, max_steps=None,
                files=None):
        """A subcommand with its shared flags: the grid flags when
        max_steps gives their step budget, the polygon inputs when files
        gives their help."""
        sub = subs.add_parser(name, help=about)
        if max_steps is not None:
            rotation = sub.add_mutually_exclusive_group()
            rotation.add_argument(
                "--t", help="rational circle parameter, e.g. 1/3; write a "
                            "negative one as --t=-1/3")
            rotation.add_argument("--angle", default=None,
                                  help="rotation angle in place of --t, "
                                       "e.g. pi/4; runs in float arithmetic")
            sub.add_argument("--max-steps", type=parse_steps,
                             default=max_steps)
            sub.add_argument("--edge-a", default="v:0:0")
            sub.add_argument("--edge-b", default="v:0:0")
        if files is not None:
            sub.add_argument("files", nargs="*", help=files)
            sub.add_argument("--n", type=int)
        if seed:
            sub.add_argument("--seed", type=int, default=None)
        if out:
            sub.add_argument("--out", default=None,
                             help="SVG or PPM output path")
        sub.add_argument("--json", default=None, help="JSON output path")
        sub.set_defaults(func=func)
        return sub

    orbit = command("grid-orbit", cmd_grid_orbit,
                    "run one pair orbit on a grid and its rotation",
                    max_steps=1000)
    orbit.add_argument("--frac-a")
    orbit.add_argument("--frac-b")
    orbit.add_argument("--side-a", type=int, choices=(1, -1))
    orbit.add_argument("--side-b", type=int, choices=(1, -1))

    portrait = command("grid-portrait", cmd_grid_portrait,
                       "verdict raster over paired edge positions",
                       seed=False, max_steps=200)
    portrait.add_argument("--resolution", default="64x64")

    solve = command("sunburst-solve", cmd_sunburst_solve,
                    "solve the phase making a sunburst pair holonomy-free",
                    files="JSON angle lists: first sunburst, then optional "
                          "second (default regular)")
    solve.add_argument("--free", action="store_true",
                       help="draw an unconstrained random sunburst instead "
                            "of a balanced one")

    vertex_list = "JSON vertex list of an equilateral polygon"
    command("linkage-convert", cmd_linkage_convert,
            "equilateral polygon to the parallel equiangular one",
            files=vertex_list)
    command("moduli-embed", cmd_moduli_embed,
            "embed an equilateral polygon in the hyperbolic moduli space; "
            "the regular polygon is the disk centre, and for n >= 6 the "
            "SVG shows the j = 2 Fourier mode", files=vertex_list)
    command("pentagon-verify", cmd_pentagon_verify,
            "check the right-angled wall pentagon numerically", seed=False,
            out=False)
    return parser


def main(argv=None) -> int:
    """Parse argv into a fresh Namespace from the declared defaults and run
    its command, which returns its summary line, JSON payload and figure
    drawer.  The line goes to stdout, the payload with the flags as "config"
    to --json, the figure to --out; "passed": false in it exits 2.  Refused
    flags return 2 and --help 0: every outcome is a returned code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        line, payload, draw = args.func(args)
        print(line)
        if args.json:
            config = {k: v for k, v in vars(args).items() if k != "func"}
            serialize.write_json({"config": config, **payload}, args.json)
        if vars(args).get("out"):
            draw(args.out)
    except (GeometryError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if payload.get("passed", True) else 2

if __name__ == "__main__":
    sys.exit(main())
