import math
import random
from itertools import accumulate

import pytest

from symtiling import weave
from symtiling.errors import DegenerateStep, EmptyInterval, InvalidSunburst
from symtiling.exact import unit_from_angle
from symtiling.weave import (Sunburst, SunburstPair, holonomy_iteration,
                             holonomy_product, left_times_right_holonomy,
                             log_holonomy, orbit_points, phase_arcs,
                             random_balanced_sunburst, random_oriented_weave,
                             regular_sunburst, solve_phase, weave_interval)

from oracles import (STRADDLING_SUNBURST, UNSOLVABLE_SUNBURSTS, dot,
                     interval_contains, is_balanced, is_oriented_weave,
                     is_regular, oracle_weave_interval)

TWO_PI = 2.0 * math.pi


def test_sunburst_validation():
    s = Sunburst([3.0, 3.0 + 2.5, 3.0 + 5.0, 3.0 + 6.0])
    assert s.n == 4 and s.angles == (3.0, 5.5, 8.0, 9.0)
    assert Sunburst([1, 2, 3, 4, 5]).angles == (1.0, 2.0, 3.0, 4.0, 5.0)
    for angles in ([0.0, 2.0],
                   [0.0, 2.0, 2.0, 4.0],
                   [0.0, math.pi, 1.5 * math.pi],
                   [0.0, 1.0, 4.5],
                   [k * 4 * math.pi / 5 for k in range(5)],
                   [0.0, math.nan, 4.0],
                   [0.0, 2.0, math.inf],
                   5):
        with pytest.raises(InvalidSunburst):
            Sunburst(angles)


def test_regular_pair_symmetric_phase_is_a_weave():
    for n in (3, 5, 8):
        a = regular_sunburst(n)
        symmetric = math.pi / 2 - math.pi / n
        assert is_oriented_weave(SunburstPair(a, a, symmetric))
        assert not is_oriented_weave(SunburstPair(a, a, 0.0))


def test_regular_pair_closes_to_regular_polygon():
    n = 5
    a = regular_sunburst(n)
    pair = SunburstPair(a, a, math.pi / 2 - math.pi / n)
    pts = orbit_points(pair)
    assert len(pts) == n + 1
    closure = (pts[-1] - pts[0]).norm()
    assert closure <= 1e-12
    radii = [p.norm() for p in pts]
    assert max(radii) - min(radii) <= 1e-12
    assert abs(holonomy_product(pair).h - 1.0) <= 1e-12


def test_holonomy_product_equals_iteration():
    rng = random.Random(77)
    for _ in range(150):
        n = rng.randint(3, 12)
        pair = random_oriented_weave(rng, n)
        hp = holonomy_product(pair)
        hi = holonomy_iteration(pair)
        assert hp.method == "product" and hi.method == "iteration"
        assert len(hp.step_factors) == n
        assert abs(hp.h - hi.h) <= 1e-12 * hi.h
        prod = 1.0
        for f in hp.step_factors:
            assert f > 0
            prod *= f
        assert abs(prod - hp.h) <= 1e-13 * hp.h


def test_holonomy_report_consistency_check():
    rng = random.Random(5)
    pair = random_oriented_weave(rng, 6)
    report = holonomy_product(pair)
    assert abs(report.h - holonomy_iteration(pair).h) <= 1e-12 * report.h


def test_product_meets_iteration_on_an_ill_conditioned_pair():
    """One gap just under pi puts a chord nearly along its ray, where
    the iteration's unit-vector cross products lose digits: at the solved
    phase the product still meets the iteration to 1e-12 relative, times
    the pair's conditioning, the largest 1/|sin| over the step factors'
    sines sin(c_j + phase) and sin(d_j + phase)."""
    a = Sunburst([2.0, 2.0 + TWO_PI * 1.998 / 3.998,
                  2.0 + TWO_PI * 2.998 / 3.998])
    b = regular_sunburst(3)
    pair = SunburstPair(a, b, solve_phase(a, b))
    beta = pair.b_angles
    cond = max(1.0 / abs(math.sin(beta[(j + 1) % 3] - a.angles[k]))
               for j in range(3) for k in (j, (j + 1) % 3))
    assert cond > 1000.0
    product, iteration = holonomy_product(pair).h, holonomy_iteration(pair).h
    assert abs(product - iteration) <= 1e-12 * max(1.0, cond) * iteration


def test_left_times_right_is_one():
    rng = random.Random(13)
    for _ in range(100):
        n = rng.choice((5, 7))
        pair = random_oriented_weave(rng, n)
        assert abs(left_times_right_holonomy(pair) - 1.0) <= 1e-10


def test_orbit_points_land_on_rays_with_positive_radii():
    rng = random.Random(29)
    for _ in range(50):
        n = rng.randint(3, 9)
        pair = random_oriented_weave(rng, n)
        pts = orbit_points(pair)
        assert len(pts) == n + 1
        for j, p in enumerate(pts):
            ray = unit_from_angle(pair.a.angles[j % n])
            assert abs(float(ray.cross(p))) <= 1e-9 * max(1.0, p.norm())
            assert float(dot(ray, p)) > 0
        bpts = orbit_points(pair.swapped())
        assert len(bpts) == n + 1
        for j, p in enumerate(bpts):
            ray = unit_from_angle(pair.b_angles[j % n])
            assert abs(float(ray.cross(p))) <= 1e-9 * max(1.0, p.norm())
            assert float(dot(ray, p)) > 0


def test_orbit_dilation_invariance():
    rng = random.Random(41)
    pair = random_oriented_weave(rng, 7)
    one = orbit_points(pair, r0=1.0)
    two = orbit_points(pair, r0=2.0)
    for p, q in zip(one, two):
        assert (q - p * 2).norm() <= 1e-12


def test_degenerate_pair_raises():
    a = regular_sunburst(4)
    with pytest.raises(DegenerateStep):
        orbit_points(SunburstPair(a, a, 0.0))


def test_a_pair_of_unequal_ray_counts_raises():
    with pytest.raises(InvalidSunburst, match="equal ray counts"):
        SunburstPair(regular_sunburst(5), regular_sunburst(6))


def test_phase_arcs_widths():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(3, 9)
        a = random_balanced_sunburst(rng, n)
        b = regular_sunburst(n)
        arcs = phase_arcs(a, b)
        assert len(arcs) == n
        ang = a.angles
        for i, (lo, width) in enumerate(arcs):
            gap = (ang[i] - ang[i - 1]) % TWO_PI
            assert abs(width - (math.pi - gap)) <= 1e-12
            assert 0 < width < math.pi


def test_interval_membership_matches_weave_predicate():
    rng = random.Random(59)
    for _ in range(40):
        n = rng.randint(3, 9)
        a = random_balanced_sunburst(rng, n)
        b = regular_sunburst(n)
        interval = weave_interval(a, b)
        for _ in range(20):
            theta = rng.uniform(0.0, TWO_PI)
            inside = interval_contains(interval, theta)
            margin = min((theta - interval.lo) % TWO_PI,
                         (interval.hi - theta) % TWO_PI)
            if margin < 1e-9:
                continue
            assert is_oriented_weave(SunburstPair(a, b, theta)) == inside


def test_regular_regular_interval_length():
    for n in range(3, 13):
        a = regular_sunburst(n)
        interval = weave_interval(a, a)
        assert abs(interval.width - (math.pi - TWO_PI / n)) <= 1e-12
        symmetric = math.pi / 2 - math.pi / n
        assert interval_contains(interval, symmetric)
        midpoint = (interval.lo + 0.5 * interval.width) % TWO_PI
        assert abs(midpoint - symmetric) <= 1e-12


def uneven_sunburst(rng, n: int) -> Sunburst:
    """Gap weights u^4: most rays bunch up and a few gaps open wide."""
    while True:
        weights = [rng.uniform(0.03, 1.0) ** 4 for _ in range(n)]
        gaps = [w * TWO_PI / sum(weights) for w in weights]
        if max(gaps) < math.pi:
            break
    start = rng.uniform(0.0, TWO_PI)
    return Sunburst(list(accumulate(gaps, initial=start))[1:])


def interval_pairs(rng, n, unrelated, turns):
    """An oriented weave, a balanced-vs-regular pair, unrelated pairs
    (often empty for n <= 30), and regular pairs turned by each of turns;
    turns of 0.0 and +-1e-16 tie arc starts at 0.0 and tau."""
    regular = regular_sunburst(n)
    yield random_oriented_weave(rng, n)
    yield SunburstPair(random_balanced_sunburst(rng, n), regular)
    for _ in range(unrelated):
        yield SunburstPair(uneven_sunburst(rng, n), uneven_sunburst(rng, n))
    for turn in turns:
        turned = Sunburst(t + turn for t in regular.angles)
        yield SunburstPair(turned, regular)
        yield SunburstPair(regular, turned)


def test_weave_interval_matches_the_quadratic_scan():
    rng = random.Random(131)
    cases = [(n, 4, (0.0, 1e-16, -1e-16, rng.uniform(0.0, TWO_PI)))
             for n in range(3, 65)]
    # The scan takes 0.3 s a pair at n = 1500.
    cases.append((1500, 1, (1e-16,)))
    empty = 0
    for case in cases:
        for pair in interval_pairs(rng, *case):
            try:
                expected = oracle_weave_interval(pair.a, pair.b)
            except EmptyInterval as exc:
                with pytest.raises(EmptyInterval) as info:
                    weave_interval(pair.a, pair.b)
                assert info.value.arcs == exc.arcs
                empty += 1
                continue
            got = weave_interval(pair.a, pair.b)
            assert (got.lo, got.width, got.arcs) == (
                expected.lo, expected.width, expected.arcs), case
    assert empty >= 40


def test_empty_interval_carries_arcs():
    a = Sunburst([0.0, 2.8, 5.6])
    b = regular_sunburst(3)
    try:
        interval = weave_interval(a, b)
    except EmptyInterval as exc:
        assert len(exc.arcs) == 3
    else:
        assert interval.width < math.pi


def test_log_holonomy_monotone_decreasing():
    rng = random.Random(109)
    for _ in range(20):
        n = rng.randint(3, 8)
        a = random_balanced_sunburst(rng, n)
        b = regular_sunburst(n)
        interval = weave_interval(a, b)
        pad = 1e-6 * interval.width
        thetas = [interval.lo + pad + (interval.width - 2 * pad) * k / 30
                  for k in range(31)]
        vals = [log_holonomy(a, b, t) for t in thetas]
        assert all(x > y for x, y in zip(vals, vals[1:]))


def test_holonomy_blows_up_at_interval_ends():
    rng = random.Random(17)
    a = random_balanced_sunburst(rng, 6)
    b = regular_sunburst(6)
    interval = weave_interval(a, b)
    h_lo = math.exp(log_holonomy(a, b, interval.lo + 1e-6))
    h_hi = math.exp(log_holonomy(a, b, interval.hi - 1e-6))
    assert h_lo > 10.0
    assert h_hi < 0.1


def test_solve_phase_on_balanced_regular_pairs():
    """Also on a sunburst whose weave interval straddles tau: the phase
    returned is the one tested, inside (lo, lo + width) unreduced."""
    rng = random.Random(71)
    bursts = [random_balanced_sunburst(rng, rng.randint(3, 9))
              for _ in range(30)] + [Sunburst(STRADDLING_SUNBURST)]
    for a in bursts:
        n = a.n
        b = regular_sunburst(n)
        theta = solve_phase(a, b)
        interval = weave_interval(a, b)
        assert interval_contains(interval, theta)
        assert interval.lo < theta < interval.lo + interval.width
        assert abs(log_holonomy(a, b, theta)) <= weave.PHASE_TOL
        pts = orbit_points(SunburstPair(a, b, theta))
        assert (pts[-1] - pts[0]).norm() <= 1e-9
        edges = [pts[i + 1] - pts[i] for i in range(n)]
        crosses = [float(edges[i].cross(edges[(i + 1) % n]))
                   for i in range(n)]
        assert all(c > 0 for c in crosses) or all(c < 0 for c in crosses)


def test_solve_phase_regular_regular_is_symmetric():
    n = 7
    a = regular_sunburst(n)
    theta = solve_phase(a, a)
    assert abs(theta - (math.pi / 2 - math.pi / n)) <= 1e-9


def test_balanced_and_regular_predicates():
    for n in (3, 4, 9):
        s = regular_sunburst(n)
        assert is_balanced(s)
        assert is_regular(s)
    tilted = Sunburst([0.0, 1.9, 4.0])
    assert not is_regular(tilted)
    skew = Sunburst([0.0, 0.5 * math.pi, 1.25 * math.pi])
    assert not is_balanced(skew)
    rng = random.Random(7)
    for _ in range(20):
        assert is_balanced(random_balanced_sunburst(rng, rng.randint(3, 10)))


def test_calculus_inequality_continuous():
    for k in range(10_000):
        t = 0.001 + (0.499 - 0.001) * k / 9_999
        assert math.sin(math.pi * t) - t / (1.0 - t) > 0.0


def test_calculus_inequality_discrete():
    count = 0
    for n in range(3, 201):
        j = 2
        while j - 1 < n / 2:
            lhs = math.sin(math.pi * (j - 1) / n)
            rhs = (j - 1) / (n - j + 1)
            assert lhs > rhs, (n, j)
            count += 1
            j += 1
    assert count > 4000


def oracle_bisect_phase(a, b, tol=1e-12):
    """The holonomy-1 phase by bisection on log_holonomy over the padded
    weave interval, then a secant polish: a check on solve_phase that
    does not use the closed-form slope."""
    interval = weave_interval(a, b)
    pad = interval.width * 1e-9
    lo, hi = interval.lo + pad, interval.hi - pad
    flo, fhi = log_holonomy(a, b, lo), log_holonomy(a, b, hi)
    assert flo > 0 > fhi
    best, fbest = lo, flo
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fmid = log_holonomy(a, b, mid)
        if abs(fmid) < abs(fbest):
            best, fbest = mid, fmid
        if abs(fmid) <= tol or hi - lo < 1e-15:
            break
        if fmid > 0:
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
    for _ in range(8):
        if abs(fbest) <= tol or fhi == flo:
            break
        cand = hi - fhi * (hi - lo) / (fhi - flo)
        if not (lo < cand < hi):
            cand = 0.5 * (lo + hi)
        fcand = log_holonomy(a, b, cand)
        if abs(fcand) < abs(fbest):
            best, fbest = cand, fcand
        if fcand > 0:
            lo, flo = cand, fcand
        else:
            hi, fhi = cand, fcand
    return best % TWO_PI


def test_solve_phase_matches_bisection_oracle():
    rng = random.Random(211)
    for n in list(range(3, 13)) * 4 + [50, 200] * 3:
        a = random_balanced_sunburst(rng, n)
        b = regular_sunburst(n)
        theta = solve_phase(a, b)
        assert abs(log_holonomy(a, b, theta)) <= 1e-12
        gap = math.remainder(theta - oracle_bisect_phase(a, b), TWO_PI)
        assert abs(gap) <= 1e-10, (n, gap)


def test_solve_phase_needs_few_holonomy_evaluations(monkeypatch):
    calls = [0]
    plain = weave.log_holonomy

    def counted(*args):
        calls[0] += 1
        return plain(*args)

    monkeypatch.setattr(weave, "log_holonomy", counted)
    rng = random.Random(223)
    for n in (5, 32, 200):
        b = regular_sunburst(n)
        bursts = [random_balanced_sunburst(rng, n) for _ in range(5)]
        calls[0] = 0
        for a in bursts:
            solve_phase(a, b)
        assert calls[0] / len(bursts) <= 4, (n, calls[0])


@pytest.mark.parametrize("angles", UNSOLVABLE_SUNBURSTS)
def test_solve_phase_refuses_a_phase_it_cannot_reach(angles):
    a = Sunburst(angles)
    with pytest.raises(DegenerateStep, match=r"\|log h\| = "):
        solve_phase(a, regular_sunburst(a.n))


def near_pi_sunburst(rng) -> Sunburst:
    """n = 3..12 rays, one gap pi - eps with eps / pi log-uniform in
    [1e-12, 1e-1], the other gaps random."""
    n = rng.randint(3, 12)
    eps = math.pi * 10 ** rng.uniform(-12, -1)
    weights = [rng.uniform(0.1, 1.0) for _ in range(n - 1)]
    gaps = [math.pi - eps] + [w * (math.pi + eps) / sum(weights)
                              for w in weights]
    k = rng.randrange(n)
    start = rng.uniform(0.0, TWO_PI)
    gaps = gaps[k:] + gaps[:k]
    return Sunburst(list(accumulate(gaps, initial=start))[1:])


def test_solve_phase_near_pi_returns_or_refuses():
    """Every draw returns a phase in the interval, or raises EmptyInterval
    or DegenerateStep; nothing else escapes, and all three happen."""
    rng = random.Random(233)
    outcomes = {"phase": 0, "empty": 0, "refused": 0}
    for _ in range(2000):
        a = near_pi_sunburst(rng)
        b = regular_sunburst(a.n)
        try:
            theta = solve_phase(a, b)
        except EmptyInterval:
            outcomes["empty"] += 1
        except DegenerateStep:
            outcomes["refused"] += 1
        else:
            assert interval_contains(weave_interval(a, b), theta)
            outcomes["phase"] += 1
    assert min(outcomes.values()) > 0, outcomes


def test_random_balanced_sunburst_scales_with_n():
    rng = random.Random(227)
    for n in (42, 100, 200):
        s = random_balanced_sunburst(rng, n)
        assert s.n == n and is_balanced(s)
        gaps = [(t1 - t0) % TWO_PI
                for t0, t1 in zip(s.angles, s.angles[1:])]
        assert min(gaps) >= 0.12 * TWO_PI / n


def test_random_balanced_sunburst_gives_up_after_bounded_attempts(
        monkeypatch):
    # SAMPLER_MARGIN is read at call time.
    monkeypatch.setattr(weave, "SAMPLER_MARGIN", 1.0)
    with pytest.raises(InvalidSunburst, match="100 attempts"):
        random_balanced_sunburst(random.Random(229), 5)


def test_random_oriented_weave_is_a_weave_at_large_n():
    for n in (20, 200):
        pair = random_oriented_weave(random.Random(1), n)
        assert pair.n == n and is_oriented_weave(pair)
