"""Sunbursts and their pairs: spiral holonomy, the phase interval, and
the phase solver that closes the orbit into a convex polygon.

A sunburst is the list of its ray angles, and every quantity here is a
function of those angles; vectors are built only to iterate the orbit.

Conventions.  Both sunbursts list N rays counterclockwise.  For an
oriented weave, ray B[i] (after applying the pair's phase rotation)
lies strictly inside the open cone spanned by A[i] and -A[i-1]; that is
exactly the condition for a chord parallel to B[i] to carry a point
from ray A[i-1] to ray A[i] at positive radius.  The orbit therefore
visits the A-rays in counterclockwise order, the step from ray j to
ray j+1 traveling parallel to B[j+1] (indices mod N).  After one full
loop the radius is multiplied by the holonomy h; h = 1 closes the orbit
into a convex polygon inscribed in the A-rays.

Step j scales the radius by sin(c_j + phase) / sin(d_j + phase), with
c_j the angle from A[j] to B[j+1] and d_j that from A[j+1] to B[j+1];
so log h and its slope are closed forms in the phase, which the phase
solver's bracketed Newton iteration uses.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from numbers import Real

from .errors import DegenerateStep, EmptyInterval, InvalidSunburst
from .exact import Vec2

# solve_phase's stop on |log h|: the orbit then closes to 1e-12 of r0.
PHASE_TOL = 1e-12
# random_balanced_sunburst's balance: its unit rays sum to a vector at
# most this long, ten times below the 1e-12 slack that the rounding of
# an n-term sum calls for.
SAMPLER_TOL = 1e-13
# The sampler's least gap, and least gap to pi, as a fraction of the
# regular gap 2 pi / n; read at call time.
SAMPLER_MARGIN = 0.12


class Sunburst:
    """N rays from the origin, given by their angles in radians.

    The angles are stored as floats in the caller's order, unwrapped.
    Each counterclockwise turn from one ray to the next, taken mod
    2 pi, lies strictly between 0 and pi, and the turns add up to one
    full circle; so the rays are never contained in a closed halfplane.
    """

    def __init__(self, angles):
        try:
            angles = tuple(angles)
        except TypeError:
            raise InvalidSunburst("ray angles must be a list") from None
        if len(angles) < 3:
            raise InvalidSunburst("a sunburst needs at least 3 rays")
        for t in angles:
            # An exact comparison, which a value beyond float range cannot
            # overflow, as math.isfinite would.
            if not ((type(t) is float or type(t) is int
                     or isinstance(t, Real) and not isinstance(t, bool))
                    and abs(t) <= sys.float_info.max):
                raise InvalidSunburst(f"ray angles must be finite real "
                                      f"numbers within float range, got {t!r}")
        angles = tuple(map(float, angles))
        n = len(angles)
        total = 0.0
        for i, (t, u) in enumerate(zip(angles, angles[1:] + angles[:1])):
            turn = (u - t) % math.tau
            if not 0.0 < turn < math.pi:
                raise InvalidSunburst(
                    f"rays {i} and {(i + 1) % n} do not turn counterclockwise "
                    "by less than pi")
            total += turn
        if round(total / math.tau) != 1:
            raise InvalidSunburst("rays wrap around the circle more than once")
        self.angles = angles

    @property
    def n(self) -> int:
        return len(self.angles)


@lru_cache(maxsize=None)
def regular_sunburst(n: int) -> Sunburst:
    """Rays at the n-th roots of unity.  Built once per n and shared by
    every caller, which only reads it."""
    return Sunburst(math.tau * k / n for k in range(n))


@dataclass(frozen=True)
class SunburstPair:
    """Two N-sunbursts plus a phase rotation applied to the second."""

    a: Sunburst
    b: Sunburst
    phase: float = 0.0

    def __post_init__(self):
        if self.a.n != self.b.n:
            raise InvalidSunburst("paired sunbursts must have equal ray counts")

    @property
    def n(self) -> int:
        return self.a.n

    @property
    def b_angles(self):
        """The B angles turned by the phase."""
        return tuple(t + self.phase for t in self.b.angles)

    def swapped(self) -> "SunburstPair":
        """The pair with roles exchanged: the phased B-rays carry the
        orbit and A[j] is the chord from B[j] to B[j+1].
        """
        a = self.a.angles
        return SunburstPair(Sunburst(self.b_angles), Sunburst(a[-1:] + a[:-1]))


def orbit_points(pair: SunburstPair, r0=1.0):
    """The a-projection of the orbit over one loop: n + 1 points on rays
    A[0], A[1], ..., A[n - 1], A[0].

    Iterates unit ray vectors, independently of the sine-ratio product.
    Starts at distance r0 along ray A[0] and runs n steps.  Each step
    intersects the chord through the current point parallel to the
    phased ray B[j+1] with the next A-ray; a nonpositive intersection
    coefficient means the pair is not woven and raises DegenerateStep.
    The steps run on coordinate pairs in the order of `Vec2.cross` and
    `Vec2.__mul__`, so each point is the Vec2 those would give.
    """
    cos, sin, phase = math.cos, math.sin, pair.phase
    rays = [(cos(t), sin(t)) for t in pair.a.angles]
    chords = [(cos(t + phase), sin(t + phase)) for t in pair.b.angles]
    n = len(rays)
    x, y = rays[0]
    x, y = x * r0, y * r0
    points = [Vec2(x, y)]
    for j in range(n):
        k = (j + 1) % n
        (rx, ry), (cx, cy) = rays[k], chords[k]
        den = rx * cy - ry * cx
        if den == 0:
            raise DegenerateStep(f"chord B[{k}] is parallel to ray A[{k}]")
        s = (x * cy - y * cx) / den
        if s <= 0:
            raise DegenerateStep(
                f"step {j} leaves ray A[{k}] at nonpositive radius")
        x, y = rx * s, ry * s
        points.append(Vec2(x, y))
    return points


@dataclass(frozen=True)
class HolonomyReport:
    h: float
    step_factors: tuple
    method: str


def _phase_offsets(a: Sunburst, b: Sunburst):
    """Per step j, the angles c_j from A[j] to B[j+1] and d_j from
    A[j+1] to B[j+1], before the phase rotation of B.
    """
    if a.n != b.n:
        raise InvalidSunburst("paired sunbursts must have equal ray counts")
    alpha, beta = a.angles, b.angles
    beta = beta[1:] + beta[:1]
    return ([bj - aj for aj, bj in zip(alpha, beta)],
            [bj - aj for aj, bj in zip(alpha[1:] + alpha[:1], beta)])


def _step_factors(a: Sunburst, b: Sunburst, theta: float):
    """Per step j the radius ratio cross(A[j], B[j+1]) / cross(A[j+1],
    B[j+1]) over unit rays, B turned by theta: sin(c_j + theta) /
    sin(d_j + theta)."""
    factors = []
    for j, (cj, dj) in enumerate(zip(*_phase_offsets(a, b))):
        den = math.sin(dj + theta)
        if den == 0:
            k = (j + 1) % a.n
            raise DegenerateStep(f"chord B[{k}] is parallel to ray A[{k}]")
        factors.append(math.sin(cj + theta) / den)
    return factors


def holonomy_product(pair: SunburstPair) -> HolonomyReport:
    """Closed-form holonomy: the product of the step factors, as
    sunburst-solve reports it."""
    factors = _step_factors(pair.a, pair.b, pair.phase)
    return HolonomyReport(math.prod(factors), tuple(factors), "product")


def left_times_right_holonomy(pair: SunburstPair) -> float:
    """Product of the a-side holonomy and the b-side holonomy (the
    latter computed over the role-swapped orbit).
    """
    return holonomy_product(pair).h * holonomy_product(pair.swapped()).h


@dataclass(frozen=True)
class PhaseInterval:
    """Open arc (lo, lo + width) of phases making the pair a weave,
    together with the per-index arcs whose intersection it is.
    """

    lo: float
    width: float
    arcs: tuple

    @property
    def hi(self) -> float:
        return self.lo + self.width


def phase_arcs(a: Sunburst, b: Sunburst):
    """Per-index arcs of phases theta with rot_theta(B[i]) inside the
    cone from A[i] to -A[i-1].  Each arc is (lo, width) with width =
    pi minus the gap from A[i-1] to A[i], hence always below pi.  Arc i
    starts at the phase that turns B[i] onto A[i], which is -d_{i-1} of
    `_phase_offsets`.
    """
    _, d = _phase_offsets(a, b)
    alpha = a.angles
    return [((-d[i - 1]) % math.tau,
             math.pi - (alpha[i] - alpha[i - 1]) % math.tau)
            for i in range(a.n)]


def weave_interval(a: Sunburst, b: Sunburst) -> PhaseInterval:
    """Intersection of the per-index phase arcs, in one pass.

    Every arc is shorter than pi, so when the intersection is nonempty,
    each arc start lies less than pi clockwise of the intersection's: the
    walk moves to each start strictly ahead, keeping the first of exact
    ties.  A width <= 0 past the start it ends on means it is empty.
    """
    arcs = tuple(phase_arcs(a, b))
    lo = arcs[0][0]
    for alo, _ in arcs:
        if 0 < (alo - lo) % math.tau < math.pi:
            lo = alo
    width = min(aw - (lo - alo) % math.tau for alo, aw in arcs)
    if width <= 0:
        raise EmptyInterval(arcs)
    return PhaseInterval(lo, width, arcs)


def log_holonomy(a: Sunburst, b: Sunburst, theta: float) -> float:
    """Summed per step: the product h underflows near the interval ends."""
    return math.fsum(map(math.log, _step_factors(a, b, theta)))


def solve_phase(a: Sunburst, b: Sunburst) -> float:
    """The unique phase in the weave interval with holonomy 1."""
    return solve_in(weave_interval(a, b), a, b)


def solve_in(interval: PhaseInterval, a: Sunburst, b: Sunburst) -> float:
    """The unique phase with holonomy 1 in the pair's weave interval,
    which the caller has: in (lo, lo + width) with lo in [0, tau), so it
    may exceed tau.

    log h falls strictly across the interval, from +inf at its clockwise
    end to -inf at the other: its slope, the sum of cot(c_j + phase) -
    cot(d_j + phase), is negative because c_j = d_j + gap_j with both
    angles in (0, pi).  So no end is evaluated: Newton steps from the
    midpoint of the interval padded off its poles keep a sign bracket,
    bisecting it when a step leaves it, until |log h| <= PHASE_TOL.
    DegenerateStep names the |log h| reached after 100 evaluations, or
    once no float lies inside the bracket and so none can do better.
    """
    pad = max(interval.width * 1e-9, 4 * math.ulp(interval.hi))
    lo, hi = interval.lo + pad, interval.hi - pad
    c, d = _phase_offsets(a, b)
    f, theta = math.inf, 0.5 * (lo + hi)
    for _ in range(100):
        if not lo < theta < hi:
            break
        f = log_holonomy(a, b, theta)
        if abs(f) <= PHASE_TOL:
            return theta
        lo, hi = (theta, hi) if f > 0 else (lo, theta)
        slope = math.fsum(1.0 / math.tan(cj + theta)
                          - 1.0 / math.tan(dj + theta)
                          for cj, dj in zip(c, d))
        theta -= f / slope
        if not lo < theta < hi:
            theta = 0.5 * (lo + hi)
    raise DegenerateStep(f"phase solve stalls at |log h| = {abs(f):.3g}")


def random_oriented_weave(rng, n: int) -> SunburstPair:
    """Random weave, built so that every draw is one.

    The A gaps g_i have weights in [1, 2), so each is below pi for
    n >= 3.  B ray i sits at A[i] + u_i (pi - g_i), inside its cone,
    with u_i = c + delta_i for one common c in [1/4, 3/4].  B gap i is
    then the convex combination (1 - c) g_{i+1} + c g_i plus
    delta_{i+1} (pi - g_{i+1}) - delta_i (pi - g_i).  With |delta_i| <
    m / (2 pi), m = min(min g, pi - max g) <= pi / 2, that jitter is
    under m, so the B gap lies in (0, pi), and u_i lies in (0, 1).
    """
    weights = [1.0 + rng.random() for _ in range(n)]
    total = sum(weights)
    gaps = [w * math.tau / total for w in weights]
    alpha = []
    acc = rng.uniform(0.0, math.tau)
    for g in gaps:
        acc += g
        alpha.append(acc)
    a = Sunburst(alpha)
    c = rng.uniform(0.25, 0.75)
    jitter = 0.9 * min(min(gaps), math.pi - max(gaps)) / math.tau
    beta = [t + (c + jitter * rng.uniform(-1.0, 1.0)) * (math.pi - g)
            for t, g in zip(alpha, gaps)]
    return SunburstPair(a, Sunburst(beta))


def random_balanced_sunburst(rng, n: int) -> Sunburst:
    """Random sunburst whose unit rays sum to zero.

    Samples counterclockwise angles with comfortable gaps, then projects
    onto the two balance constraints by Gauss-Newton; rejects draws
    whose projection spoils the gap margins, which are SAMPLER_MARGIN
    times the regular gap 2 pi / n.  Raises InvalidSunburst after 100
    rejected attempts.
    """
    if n < 3:
        raise InvalidSunburst("a sunburst needs at least 3 rays")
    margin = SAMPLER_MARGIN * (math.tau / n)
    for _ in range(100):
        weights = [rng.uniform(0.35, 1.0) for _ in range(n)]
        total = sum(weights)
        acc = rng.uniform(0.0, math.tau)
        ang = []
        for w in weights:
            acc += w * math.tau / total
            ang.append(acc)
        for _ in range(60):
            rx = sum(math.cos(t) for t in ang)
            ry = sum(math.sin(t) for t in ang)
            if math.hypot(rx, ry) <= SAMPLER_TOL:
                break
            jxx = sum(math.sin(t) ** 2 for t in ang)
            jxy = -sum(math.sin(t) * math.cos(t) for t in ang)
            jyy = sum(math.cos(t) ** 2 for t in ang)
            det = jxx * jyy - jxy * jxy
            if abs(det) < 1e-12:
                break
            lx = (jyy * rx - jxy * ry) / det
            ly = (-jxy * rx + jxx * ry) / det
            ang = [t - (-math.sin(t) * lx + math.cos(t) * ly) for t in ang]
        gaps = [(ang[(i + 1) % n] - ang[i]) % math.tau for i in range(n)]
        if (math.hypot(sum(math.cos(t) for t in ang),
                       sum(math.sin(t) for t in ang)) <= SAMPLER_TOL
                and abs(sum(gaps) - math.tau) <= 1e-9
                and margin <= min(gaps) and max(gaps) < math.pi - margin):
            return Sunburst(ang)
    raise InvalidSunburst(f"no balanced {n}-ray sunburst within the gap "
                          "margins in 100 attempts")
