"""Command-line workbench: pair orbits on grids, verdict portraits,
sunburst phase solving, polygon conversion, and the hyperbolic embedding.

Every command is deterministic given its flags; randomness only enters
through an explicit --seed.  Exit codes: 0 on success, 2 on degenerate
or invalid input, 1 on IO failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from random import Random

import numpy as np

from . import moduli, pipeline, serialize, svgout
from .dynamics import (BOUNDED_ATTRACTED, INCONCLUSIVE, PERIODIC, SINGULAR,
                       UNBOUNDED_DRIFT, PairState, classify, phase_portrait,
                       run_orbit)
from .errors import EmptyInterval, GeometryError, InvalidSunburst
from .exact import Vec2
from .linkage import Polygon, random_convex_equilateral, solve_equiangular
from .tilings import GridEdge, GridTiling
from .weave import (Sunburst, SunburstPair, holonomy, orbit_points,
                    random_balanced_sunburst, regular_sunburst, solve_phase,
                    weave_interval)

# pentagon-verify's pass bound; the closed-form walls miss by about 5e-16.
PENTAGON_TOL = 1e-9

VERDICT_COLORS = {
    PERIODIC: (0, 166, 62),
    UNBOUNDED_DRIFT: (214, 39, 40),
    BOUNDED_ATTRACTED: (31, 119, 180),
    SINGULAR: (0, 0, 0),
    INCONCLUSIVE: (150, 150, 150),
}


def _run_config(args) -> dict:
    """The parsed flags of one CLI run, embedded in JSON outputs so a
    record documents how to reproduce itself."""
    return {k: v for k, v in vars(args).items() if k != "func"}


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r} ({exc})") from None


def parse_angle(text: str) -> float:
    """Angles like 'pi/4', '3pi/8', 'pi', or a plain float in radians."""
    s = text.strip().replace(" ", "")
    if "pi" in s:
        head, _, tail = s.partition("pi")
        num = float(head) if head not in ("", "+") else (
            -1.0 if head == "-" else 1.0)
        den = 1.0
        if tail:
            if not tail.startswith("/"):
                raise ValueError(f"cannot parse angle {text!r}")
            den = float(tail[1:])
        return num * math.pi / den
    return float(s)


def parse_edge(text: str) -> GridEdge:
    parts = text.split(":")
    if len(parts) != 3 or parts[0] not in ("v", "h"):
        raise ValueError(f"edge must look like v:0:0 or h:2:-1, got {text!r}")
    return GridEdge(parts[0], int(parts[1]), int(parts[2]))


def parse_resolution(text: str):
    w, _, h = text.lower().partition("x")
    hw, hh = int(w), int(h or w)
    if hw < 1 or hh < 1:
        raise ValueError(f"resolution must be positive, got {text!r}")
    return hw, hh


def build_tilings(args):
    """Standard grid paired with its rotated copy, exact or float."""
    a = GridTiling.standard()
    if args.angle is not None:
        if not args.float:
            raise ValueError("--angle needs --float")
        theta = parse_angle(args.angle)
        b = GridTiling.rotated(Vec2(math.cos(theta), math.sin(theta)))
    else:
        t = parse_rational(args.t)
        b = GridTiling.from_parameter(t)
        if args.float:
            b = GridTiling(Vec2(float(b.e1.x), float(b.e1.y)),
                           Vec2(float(b.e2.x), float(b.e2.y)))
    return a, b


# The start flags of grid-orbit and their values when --seed is not given.
START_DEFAULTS = {"frac_a": "1/2", "frac_b": "1/3", "side_a": 1, "side_b": 1}


def start_state(a, b, args) -> PairState:
    """The start --seed draws, or the one the start flags give; unset start
    flags get their defaults in args, so the JSON config records them."""
    exact = a.exact and b.exact
    given = [key for key in START_DEFAULTS if getattr(args, key) is not None]
    if args.seed is not None:
        if given:
            raise ValueError("--seed draws the start; it cannot be combined "
                             "with --" + ", --".join(given).replace("_", "-"))
        rng = Random(args.seed)
        def pick():
            f = Fraction(rng.randint(1, 9999), 10000)
            return f if exact else float(f)
        fa, fb = pick(), pick()
        sa, sb = rng.choice((1, -1)), rng.choice((1, -1))
    else:
        vars(args).update({key: value for key, value in START_DEFAULTS.items()
                           if key not in given})
        fa = parse_rational(args.frac_a)
        fb = parse_rational(args.frac_b)
        if not exact:
            fa, fb = float(fa), float(fb)
        sa, sb = args.side_a, args.side_b
    return PairState(a.particle_on(parse_edge(args.edge_a), fa, sa),
                     b.particle_on(parse_edge(args.edge_b), fb, sb))


def write_ppm(path, rows):
    """P6 raster of verdict strings; rows run bottom-up, as in the
    mathematical frame, so the last row lands at the top of the image."""
    h = len(rows)
    w = len(rows[0])
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (w, h))
        for row in reversed(rows):
            fh.write(b"".join(bytes(VERDICT_COLORS[v]) for v in row))


def _summary(cls) -> str:
    bits = [f"verdict={cls.verdict}"]
    for key in ("period", "drift", "residual", "bit_growth", "bbox_spread",
                "steps", "location"):
        if key in cls.evidence and cls.evidence[key] is not None:
            val = cls.evidence[key]
            if isinstance(val, float):
                bits.append(f"{key}={val:.6g}")
            else:
                bits.append(f"{key}={val}")
    return " ".join(bits)


def cmd_grid_orbit(args) -> int:
    a, b = build_tilings(args)
    state = start_state(a, b, args)
    record = run_orbit(a, b, state, max_steps=args.max_steps,
                       keep_states=False)
    verdict = classify(record)
    payload = serialize.encode(record)
    payload["config"] = _run_config(args)
    payload["verdict"] = verdict.verdict
    if args.json:
        serialize.write_json(payload, args.json)
    if args.out:
        svgout.orbit_figure(record, a, b).write(args.out)
    print(_summary(verdict))
    return 0


def cmd_grid_portrait(args) -> int:
    a, b = build_tilings(args)
    rows = phase_portrait(a, b, parse_edge(args.edge_a),
                          parse_edge(args.edge_b),
                          parse_resolution(args.resolution),
                          max_steps=args.max_steps)
    if args.out:
        write_ppm(args.out, rows)
    counts = {}
    for row in rows:
        for v in row:
            counts[v] = counts.get(v, 0) + 1
    print(" ".join(f"{k}={counts[k]}" for k in sorted(counts)))
    if args.json:
        serialize.write_json({"config": _run_config(args), "rows": rows},
                             args.json)
    return 0


def _random_free_sunburst(rng, n):
    """Random gaps, redrawn while they do not form a sunburst; raises
    InvalidSunburst after 100 rejected attempts."""
    for _ in range(100):
        gaps = [0.25 + rng.random() for _ in range(n)]
        total = sum(gaps)
        angles = []
        acc = rng.uniform(0.0, 2.0 * math.pi)
        for g in gaps:
            angles.append(acc)
            acc += 2.0 * math.pi * g / total
        try:
            return Sunburst(angles)
        except InvalidSunburst:
            continue
    raise InvalidSunburst(f"no free {n}-ray sunburst in 100 attempts")


def cmd_sunburst_solve(args) -> int:
    rng = Random(args.seed)
    if args.files:
        a = Sunburst(serialize.read_json(args.files[0]))
        b = (Sunburst(serialize.read_json(args.files[1]))
             if len(args.files) > 1 else regular_sunburst(a.n))
    elif args.free:
        a = _random_free_sunburst(rng, args.n)
        b = regular_sunburst(args.n)
    else:
        a = random_balanced_sunburst(rng, args.n)
        b = regular_sunburst(args.n)
    try:
        interval = weave_interval(a, b)
    except EmptyInterval as exc:
        print("empty weave interval; per-index arcs (lo, width):",
              file=sys.stderr)
        for i, (lo, width) in enumerate(exc.arcs):
            print(f"  {i}: ({lo:.6f}, {width:.6f})", file=sys.stderr)
        return 2
    theta = solve_phase(a, b)
    pair = SunburstPair(a, b, theta)
    report = holonomy(pair)
    pts = orbit_points(pair)
    closure = math.hypot(float(pts[-1].x - pts[0].x),
                         float(pts[-1].y - pts[0].y))
    poly = Polygon(pts[:pair.n])
    print(f"theta={theta:.12f} h={report.h:.12g} "
          f"log_h={math.log(report.h):.3e} closure={closure:.3e} "
          f"convex={poly.is_convex()} "
          f"interval=({interval.lo:.6f}, {interval.hi:.6f})")
    if args.json:
        serialize.write_json({
            "config": _run_config(args),
            "a": a.angles,
            "b": b.angles,
            "theta": theta,
            "holonomy": report,
            "interval": interval,
            "closure": closure,
            "points": poly.vertices,
        }, args.json)
    if args.out:
        svgout.sunburst_figure(pair, pts).write(args.out)
    return 0


def _input_polygon(args) -> Polygon:
    if args.files:
        return serialize.polygon_from_json(serialize.read_json(args.files[0]))
    rng = Random(args.seed)
    return random_convex_equilateral(rng, args.n)


def cmd_linkage_convert(args) -> int:
    poly = _input_polygon(args)
    sol = solve_equiangular(poly)
    print(f"n={poly.n} side={poly.edge_lengths()[0]:.6g} "
          f"phase={sol.phase:.12f} closure={sol.residual:.3e} "
          f"convex={sol.polygon.is_convex()}")
    if args.json:
        serialize.write_json({
            "config": _run_config(args),
            "input": poly.vertices,
            "equiangular": sol.polygon.vertices,
            "phase": sol.phase,
            "closure": sol.residual,
        }, args.json)
    if args.out:
        svgout.polygon_figure([poly, sol.polygon]).write(args.out)
    return 0


def cmd_moduli_embed(args) -> int:
    poly = _input_polygon(args)
    point = pipeline.equilateral_to_hyperbolic(poly)
    disk = moduli.to_disk(point)
    print(f"n={poly.n} coords={[f'{c:.9f}' for c in point.coords]} "
          f"disk=({', '.join(f'{c:.9f}' for c in disk)})")
    # The figure is a disk: n = 4 draws its one coordinate on the x axis.
    disk_points = [tuple(np.append(disk, 0.0)[:2])]
    chords = []
    if poly.n == 5:
        corners = [tuple(moduli.to_disk(moduli.HyperbolicPoint(5, tuple(c))))
                   for c in moduli.pentagon_report()["vertices"]]
        chords = [(corners[i], corners[(i + 1) % 5]) for i in range(5)]
    if args.json:
        serialize.write_json({
            "config": _run_config(args),
            "input": poly.vertices,
            "point": point,
            "disk": disk,
        }, args.json)
    if args.out:
        svgout.disk_figure(disk_points, chords).write(args.out)
    return 0


def cmd_pentagon_verify(args) -> int:
    form = moduli.area_form(5)
    report = moduli.pentagon_report()
    angle_residual = max(abs(a - math.pi / 2) for a in report["angles"])
    right_angled = angle_residual <= PENTAGON_TOL
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    side_residual = max(abs(math.cosh(s) - golden) for s in report["sides"])
    walls, order = report["walls"], report["order"]
    ortho = [abs(form.pairing(walls[order[i]], walls[order[(i + 1) % 5]]))
             for i in range(5)]
    eig = np.linalg.eigvalsh(form.quotient_gram)
    out = {
        "signature": [int(np.sum(eig > 0)), int(np.sum(eig < 0))],
        "angles": list(report["angles"]),
        "sides": list(report["sides"]),
        "angle_residual": angle_residual,
        "side_cosh_residual": side_residual,
        "adjacent_wall_pairing": ortho,
        "right_angled": right_angled,
        "passed": right_angled and max(ortho) <= PENTAGON_TOL,
    }
    print(json.dumps(out, indent=2))
    if args.json:
        serialize.write_json(out, args.json)
    return 0 if out["passed"] else 2


def _add_common(sub, seed=True, out=True):
    if seed:
        sub.add_argument("--seed", type=int, default=None)
    if out:
        sub.add_argument("--out", default=None, help="SVG or PPM output path")
    sub.add_argument("--json", default=None, help="JSON output path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symtiling",
        description="Workbench for coupled billiards on pairs of tilings.")
    subs = parser.add_subparsers(dest="command", required=True)

    orbit = subs.add_parser(
        "grid-orbit", help="run one pair orbit on a grid and its rotation")
    orbit.add_argument("--t", default="1/3", help="rational circle parameter")
    orbit.add_argument("--float", action="store_true",
                       help="run in float arithmetic")
    orbit.add_argument("--angle", default=None,
                       help="rotation angle for --float, e.g. pi/4")
    orbit.add_argument("--max-steps", type=int, default=1000)
    orbit.add_argument("--edge-a", default="v:0:0")
    orbit.add_argument("--edge-b", default="v:0:0")
    orbit.add_argument("--frac-a")
    orbit.add_argument("--frac-b")
    orbit.add_argument("--side-a", type=int, choices=(1, -1))
    orbit.add_argument("--side-b", type=int, choices=(1, -1))
    _add_common(orbit)
    orbit.set_defaults(func=cmd_grid_orbit)

    portrait = subs.add_parser(
        "grid-portrait", help="verdict raster over paired edge positions")
    portrait.add_argument("--t", default="1/3")
    portrait.add_argument("--float", action="store_true")
    portrait.add_argument("--angle", default=None)
    portrait.add_argument("--max-steps", type=int, default=200)
    portrait.add_argument("--resolution", default="64x64")
    portrait.add_argument("--edge-a", default="v:0:0")
    portrait.add_argument("--edge-b", default="v:0:0")
    _add_common(portrait, seed=False)
    portrait.set_defaults(func=cmd_grid_portrait)

    solve = subs.add_parser(
        "sunburst-solve",
        help="solve the phase making a sunburst pair holonomy-free")
    solve.add_argument("files", nargs="*",
                       help="JSON angle lists: first sunburst, then optional "
                            "second (default regular)")
    solve.add_argument("--n", type=int, default=5)
    solve.add_argument("--free", action="store_true",
                       help="draw an unconstrained random sunburst instead "
                            "of a balanced one")
    _add_common(solve)
    solve.set_defaults(func=cmd_sunburst_solve)

    convert = subs.add_parser(
        "linkage-convert",
        help="equilateral polygon to the parallel equiangular one")
    convert.add_argument("files", nargs="*",
                         help="JSON vertex list of an equilateral polygon")
    convert.add_argument("--n", type=int, default=5)
    _add_common(convert)
    convert.set_defaults(func=cmd_linkage_convert)

    embed = subs.add_parser(
        "moduli-embed",
        help="embed an equilateral polygon in the hyperbolic moduli space; "
             "the regular polygon is the disk centre, and for n >= 6 the "
             "SVG shows the j = 2 Fourier mode")
    embed.add_argument("files", nargs="*",
                       help="JSON vertex list of an equilateral polygon")
    embed.add_argument("--n", type=int, default=5)
    _add_common(embed)
    embed.set_defaults(func=cmd_moduli_embed)

    verify = subs.add_parser(
        "pentagon-verify",
        help="check the right-angled wall pentagon numerically")
    _add_common(verify, seed=False, out=False)
    verify.set_defaults(func=cmd_pentagon_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
