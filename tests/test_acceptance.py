"""End-to-end acceptance run: twelve numbered checks covering the exact
kernel, the grid pair dynamics, the sunburst phase solver, the polygon
correspondence, and the hyperbolic moduli suite.  Each check appends one
pass/fail line to the summary printed at the end of the session.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from symtiling.dynamics import (BOUNDED_ATTRACTED, PairState, classify,
                                run_orbit, step)
from symtiling.errors import VertexHit
from symtiling.exact import Vec2, rational_circle_point
from symtiling.linkage import (Polygon, random_convex_equilateral,
                               regular_equilateral, solve_equiangular)
from symtiling.moduli import (area_form, cyclic_fixed_point, pentagon_report,
                              pentagon_walls, to_hyperbolic)
from symtiling.pipeline import equiangular_offsets, equilateral_to_hyperbolic
from symtiling.tilings import GridEdge, GridTiling
from symtiling.weave import (SunburstPair, holonomy_product,
                             left_times_right_holonomy, log_holonomy,
                             orbit_points, random_balanced_sunburst,
                             random_oriented_weave, regular_sunburst,
                             solve_phase, weave_interval)

from oracles import (as_array, butterfly_matrix, gram, holonomy_iteration,
                     quotient_gram, quotient_map)

TWO_PI = 2.0 * math.pi


def test_c01_rational_circle_point_is_exact(criterion):
    t0 = time.perf_counter()
    p = rational_circle_point(Fraction(1, 3))
    assert p == Vec2(Fraction(4, 5), Fraction(3, 5))
    assert isinstance(p.x, Fraction) and isinstance(p.y, Fraction)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    criterion("[C1 PASS] rational_circle_point(1/3) == (4/5, 3/5) exactly")


def test_c02_diagonal_pair_orbits_close_into_squares(criterion):
    t0 = time.perf_counter()
    a = GridTiling(Vec2(1.0, 0.0), Vec2(0.0, 1.0))
    u = Vec2(math.cos(math.pi / 4), math.sin(math.pi / 4))
    b = GridTiling.rotated(u)
    rng = random.Random(24)
    good = 0
    draws = 0
    worst_residual = 0.0
    worst_angle = 0.0
    while good < 20 and draws < 100:
        draws += 1
        ea = GridEdge(rng.choice("vh"), rng.randint(-1, 1), rng.randint(-1, 1))
        eb = GridEdge(rng.choice("vh"), rng.randint(-1, 1), rng.randint(-1, 1))
        state = PairState(
            a.particle_on(ea, rng.uniform(0.05, 0.95), rng.choice((1, -1))),
            b.particle_on(eb, rng.uniform(0.05, 0.95), rng.choice((1, -1))))
        try:
            rec = run_orbit(a, b, state, max_steps=100, keep_states=False)
        except VertexHit:
            continue
        assert rec.termination.kind == "periodic"
        assert rec.termination.residual <= 1e-9
        assert rec.termination.period == 4
        worst_residual = max(worst_residual, rec.termination.residual)
        for pts in (rec.a_points, rec.b_points):
            quad = pts[:4]
            for i in range(4):
                p0, p1, p2 = quad[i], quad[(i + 1) % 4], quad[(i + 2) % 4]
                e1 = (p1[0] - p0[0], p1[1] - p0[1])
                e2 = (p2[0] - p1[0], p2[1] - p1[1])
                dot = abs(e1[0] * e2[0] + e1[1] * e2[1])
                rel = dot / (math.hypot(*e1) * math.hypot(*e2))
                assert rel <= 1e-9
                worst_angle = max(worst_angle, rel)
        good += 1
    elapsed = time.perf_counter() - t0
    assert good == 20
    assert elapsed < 1.0
    criterion(f"[C2 PASS] 20/20 float pi/4 orbits periodic, period 4, both "
              f"projections squares (worst residual {worst_residual:.1e}, "
              f"worst angle defect {worst_angle:.1e}); {elapsed:.2f}s")


def test_c03_translation_drift_for_seven_elevenths(criterion):
    # Drift convention: a translation recurrence repeats the edge pattern
    # shifted by a lattice vector (dx, dy); "southeast" means dy < 0.
    t0 = time.perf_counter()
    a = GridTiling.standard()
    b = GridTiling.from_parameter(Fraction(7, 11))
    starts = [(Fraction(1, 4), Fraction(1, 3)),
              (Fraction(2, 7), Fraction(3, 8)),
              (Fraction(1, 3), Fraction(2, 5)),
              (Fraction(3, 8), Fraction(5, 12)),
              (Fraction(2, 5), Fraction(1, 6))]
    budget = 2500
    terminations = []
    for fra, frb in starts:
        state = PairState(a.particle_on(GridEdge("v", 0, 0), fra, -1),
                          b.particle_on(GridEdge("v", 0, 0), frb, 1))
        rec = run_orbit(a, b, state, max_steps=budget, keep_states=False)
        terminations.append(rec.termination)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    drifting = [t for t in terminations
                if t.kind == "translation" and t.drift != (0, 0)]
    if len(drifting) >= 5:
        assert all(t.drift[1] < 0 for t in drifting)
        criterion(f"[C3 PASS] 5/5 starts translation-periodic with "
                  f"southeast drift; {elapsed:.1f}s")
        return
    ends = [f"{t.kind} at step {t.step}" for t in terminations]
    criterion(f"[C3 FAIL] t=7/11: {len(drifting)}/5 starts reached a "
              f"translation recurrence (terminations {ends}, budget "
              f"{budget} exact steps, {elapsed:.1f}s); orbits contract onto "
              f"fixed lattice vertices instead -- see docs/decisions.md")
    pytest.fail(
        "no translation-periodic recurrence for the 7/11 pair: the five "
        f"documented starts, with a budget of {budget} exact steps, "
        f"terminated as {ends}. Exact recurrence would need the rational "
        "coordinates to repeat modulo a lattice shift, but each start's "
        "itinerary certificate proves that its positions contract onto "
        "edge ends with zero lattice shift, so each particle converges to "
        "a fixed vertex of its grid. Full analysis: docs/decisions.md")


def test_c04_one_third_orbits_are_bounded_attracted(criterion):
    t0 = time.perf_counter()
    a = GridTiling.standard()
    b = GridTiling.from_parameter(Fraction(1, 3))
    starts = [(Fraction(1, 32), Fraction(1, 3)),
              (Fraction(1, 4), Fraction(2, 5)),
              (Fraction(2, 7), Fraction(3, 8)),
              (Fraction(5, 12), Fraction(1, 6)),
              (Fraction(3, 10), Fraction(4, 9))]
    growths = []
    spreads = []
    for fra, frb in starts:
        state = PairState(a.particle_on(GridEdge("v", 0, 0), fra, 1),
                          b.particle_on(GridEdge("v", 0, 0), frb, 1))
        rec = run_orbit(a, b, state, max_steps=600, keep_states=False)
        cls = classify(rec)
        assert cls.verdict == BOUNDED_ATTRACTED
        assert cls.evidence["bit_growth"] >= 2.0
        assert cls.evidence["bbox_spread"] < 0.01
        growths.append(cls.evidence["bit_growth"])
        spreads.append(cls.evidence["bbox_spread"])
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    criterion(f"[C4 PASS] 5/5 starts bounded-attracted: bounding box stable "
              f"over the second half (spread <= {max(spreads):.1e}) while "
              f"bit length grew {min(growths):.2f}-{max(growths):.2f}x; "
              f"{elapsed:.1f}s")


def test_c05_holonomy_product_matches_iteration(criterion):
    t0 = time.perf_counter()
    rng = random.Random(555)
    worst = 0.0
    for _ in range(1000):
        n = rng.randint(3, 12)
        pair = random_oriented_weave(rng, n)
        hp = holonomy_product(pair)
        hi = holonomy_iteration(pair)
        assert hp.method == "product" and hi.method == "iteration"
        rel = abs(hp.h - hi.h) / hi.h
        assert rel <= 1e-12
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    criterion(f"[C5 PASS] product holonomy == iteration ratio on 1000 "
              f"weaves, n in 3..12 (worst rel {worst:.1e}); {elapsed:.1f}s")


def test_c06_solved_phase_gives_closed_convex_orbits(criterion):
    t0 = time.perf_counter()
    rng = random.Random(66)
    worst_log = 0.0
    worst_closure = 0.0
    for _ in range(500):
        n = rng.randint(3, 10)
        a = random_balanced_sunburst(rng, n)
        b = regular_sunburst(n)
        theta = solve_phase(a, b)
        resid = abs(log_holonomy(a, b, theta))
        assert resid <= 1e-12
        worst_log = max(worst_log, resid)
        iv = weave_interval(a, b)
        assert ((theta - iv.lo) % TWO_PI) <= iv.width + 1e-12
        pair = SunburstPair(a, b, theta)
        pts = orbit_points(pair)
        closure = math.hypot(float(pts[-1].x - pts[0].x),
                             float(pts[-1].y - pts[0].y))
        assert closure <= 1e-9
        worst_closure = max(worst_closure, closure)
        assert Polygon(pts[:n]).is_convex()
        eps = 1e-9 * iv.width
        logs = [log_holonomy(a, b,
                             iv.lo + eps + (iv.width - 2 * eps) * j / 99)
                for j in range(100)]
        flips = sum(1 for x, y in zip(logs, logs[1:]) if (x > 0) != (y > 0))
        assert flips == 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    criterion(f"[C6 PASS] 500 solved phases: |log h| <= 1e-12 (worst "
              f"{worst_log:.1e}), closure <= 1e-9 (worst "
              f"{worst_closure:.1e}), convex, single sign change on "
              f"100-point scans; {elapsed:.1f}s")


def test_c07_weave_intervals_nonempty_with_known_width(criterion):
    t0 = time.perf_counter()
    rng = random.Random(777)
    for _ in range(1000):
        n = rng.randint(3, 12)
        b = random_balanced_sunburst(rng, n)
        iv = weave_interval(regular_sunburst(n), b)
        assert iv.hi > iv.lo
    worst = 0.0
    for n in range(3, 13):
        iv = weave_interval(regular_sunburst(n), regular_sunburst(n))
        err = abs((iv.hi - iv.lo) - (math.pi - TWO_PI / n))
        assert err <= 1e-12
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    criterion(f"[C7 PASS] 1000 balanced-vs-regular weave intervals "
              f"nonempty; regular/regular width == pi - 2pi/n to "
              f"{worst:.1e}; {elapsed:.1f}s")


def test_c08_left_and_right_holonomy_are_reciprocal(criterion):
    t0 = time.perf_counter()
    rng = random.Random(888)
    worst = 0.0
    for _ in range(200):
        n = rng.randint(3, 12)
        pair = random_oriented_weave(rng, n)
        err = abs(left_times_right_holonomy(pair) - 1.0)
        assert err <= 1e-10
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0
    criterion(f"[C8 PASS] left x right holonomy == 1 on 200 weaves "
              f"(worst {worst:.1e}); {elapsed:.1f}s")


def test_c09_sine_chord_inequalities(criterion):
    t0 = time.perf_counter()
    for k in range(10_000):
        t = 0.001 + (0.499 - 0.001) * k / 9999
        assert math.sin(math.pi * t) > t / (1.0 - t)
    checked = 0
    for n in range(2, 201):
        j = 2
        while j - 1 < n / 2:
            assert math.sin(math.pi * (j - 1) / n) > (j - 1) / (n - j + 1)
            checked += 1
            j += 1
    assert checked > 4000
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    criterion(f"[C9 PASS] sin(pi t) > t/(1-t) on 10^4 samples and the "
              f"discrete form on {checked} (n, j) pairs, n <= 200")


def test_c10_area_form_reflection_group_suite(criterion):
    t0 = time.perf_counter()
    form5 = area_form(5)
    eig = np.linalg.eigvalsh(quotient_gram(5))
    assert (int(np.sum(eig > 1e-9)), int(np.sum(eig < -1e-9))) == (1, 2)
    for n in range(4, 11):
        full = np.linalg.eigvalsh(gram(n))
        assert int(np.sum(np.abs(full) <= 1e-9)) == 2
        quot = np.linalg.eigvalsh(quotient_gram(n))
        counts = (int(np.sum(quot > 1e-9)), int(np.sum(quot < -1e-9)))
        assert counts == area_form(n).signature == (1, n - 3)
    iso_worst = 0.0
    for n in (5, 6, 7):
        g = quotient_gram(n)
        eye = np.eye(n - 2)
        for k in range(n):
            m = quotient_map(butterfly_matrix(n, k))
            assert np.max(np.abs(m @ m - eye)) <= 1e-12
            resid = np.max(np.abs(m.T @ g @ m - g))
            assert resid <= 1e-12
            iso_worst = max(iso_worst, resid)
            assert np.linalg.matrix_rank(m - eye, tol=1e-9) == 1
    mats = [quotient_map(butterfly_matrix(5, k)) for k in range(5)]
    walls = pentagon_walls()
    ortho_worst = 0.0
    for j in range(5):
        for k in range(j + 1, 5):
            consecutive = (k - j) % 5 in (1, 4)
            comm = np.max(np.abs(mats[j] @ mats[k] - mats[k] @ mats[j]))
            pairing = abs(form5.pairing(walls[j], walls[k]))
            if not consecutive:
                assert comm <= 1e-12
                assert pairing <= 1e-9
                ortho_worst = max(ortho_worst, pairing)
            else:
                assert comm > 1e-6
    angles = pentagon_report()["angles"]
    angle_worst = max(abs(a - math.pi / 2) for a in angles)
    assert angle_worst <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0
    criterion(f"[C10 PASS] signature (1,2) at n=5, radical dim 2 for n in "
              f"4..10, butterflies are commuting Q-reflections (isometry "
              f"resid {iso_worst:.1e}, wall pairing {ortho_worst:.1e}), "
              f"pentagon angles pi/2 +- {angle_worst:.1e}; {elapsed:.1f}s")


def test_c11_equilateral_pentagons_embed_in_the_wall_pentagon(criterion):
    t0 = time.perf_counter()
    form = area_form(5)
    walls = pentagon_walls()
    fp = cyclic_fixed_point(5)
    p_reg = equilateral_to_hyperbolic(regular_equilateral(5))
    reg_err = float(np.max(np.abs(as_array(p_reg) - as_array(fp))))
    assert reg_err <= 1e-9
    rng = random.Random(1100)
    for _ in range(100):
        poly = random_convex_equilateral(rng, 5)
        p = equilateral_to_hyperbolic(poly)
        assert all(form.pairing(p.coords, w) > 0 for w in walls)
    iso_worst = 0.0
    for _ in range(15):
        poly = random_convex_equilateral(rng, 5)
        p = equilateral_to_hyperbolic(poly)
        moved = poly.rotated(rng.uniform(0.0, TWO_PI)).translated(
            Vec2(rng.uniform(-8, 8), rng.uniform(-8, 8)))
        q = equilateral_to_hyperbolic(moved)
        diff = float(np.max(np.abs(as_array(p) - as_array(q))))
        assert diff <= 1e-9
        iso_worst = max(iso_worst, diff)
    dil_worst = 0.0
    for _ in range(10):
        poly = random_convex_equilateral(rng, 5)
        p = equilateral_to_hyperbolic(poly)
        q = to_hyperbolic(equiangular_offsets(solve_equiangular(poly, 3.7)))
        diff = float(np.max(np.abs(as_array(p) - as_array(q))))
        assert diff <= 1e-10
        dil_worst = max(dil_worst, diff)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    criterion(f"[C11 PASS] regular pentagon -> cyclic fixed point "
              f"({reg_err:.1e}), 100/100 pentagons strictly inside the "
              f"wall pentagon, plane isometries move the image by "
              f"<= {iso_worst:.1e}, dilation by <= {dil_worst:.1e}; "
              f"{elapsed:.1f}s")


def test_c12_orbits_commute_with_linear_maps(criterion):
    t0 = time.perf_counter()
    a = GridTiling.standard()
    b = GridTiling.from_parameter(Fraction(1, 3))
    start = PairState(a.particle_on(GridEdge("v", 0, 0), Fraction(2, 7), 1),
                      b.particle_on(GridEdge("h", 0, 0), Fraction(3, 5), -1))
    states = [start]
    cur = start
    for _ in range(1000):
        cur = step(a, b, cur)
        states.append(cur)
    rng = random.Random(1212)
    maps = []
    while len(maps) < 20:
        m = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                  for _ in range(4))
        if m[0] * m[3] - m[1] * m[2] != 0:
            maps.append(m)
    dets = [m[0] * m[3] - m[1] * m[2] for m in maps]
    assert any(d > 0 for d in dets) and any(d < 0 for d in dets)
    for m in maps:
        ta, tb = a.transformed(*m), b.transformed(*m)

        def image(p):
            return Vec2(m[0] * p.x + m[1] * p.y, m[2] * p.x + m[3] * p.y)

        # A map of negative determinant swaps the sides of an edge.
        side = 1 if m[0] * m[3] - m[1] * m[2] > 0 else -1
        tcur = PairState(
            ta.particle_on(GridEdge("v", 0, 0), Fraction(2, 7), side),
            tb.particle_on(GridEdge("h", 0, 0), Fraction(3, 5), -side))
        for i in range(1000):
            tcur = step(ta, tb, tcur)
            ref = states[i + 1]
            assert ta.point_on(tcur.a.edge, tcur.a.pos) == image(
                a.point_on(ref.a.edge, ref.a.pos))
            assert tb.point_on(tcur.b.edge, tcur.b.pos) == image(
                b.point_on(ref.b.edge, ref.b.pos))
            assert tcur.a.edge == ref.a.edge
            assert tcur.b.edge == ref.b.edge
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    criterion(f"[C12 PASS] 20 rational linear maps ({sum(d > 0 for d in dets)}"
              f" det>0, {sum(d < 0 for d in dets)} det<0) commute exactly "
              f"with 1000-step orbits; {elapsed:.1f}s")
