"""Sunbursts and their pairs: weave predicates, spiral holonomy, the
phase interval, and the phase solver that closes the orbit into a
convex polygon.

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
from dataclasses import dataclass
from numbers import Real

from .errors import (DegenerateStep, EmptyInterval, HolonomyMismatch,
                     InvalidSunburst)
from .exact import unit_from_angle

TWO_PI = 2.0 * math.pi

# solve_phase's stop on |log h|: the orbit then closes to 1e-12 of r0.
PHASE_TOL = 1e-12
# is_balanced and is_regular: above the rounding of their n-term sums.
SUNBURST_TOL = 1e-12
# The sampler's balance, inside SUNBURST_TOL so its samples are balanced.
SAMPLER_TOL = 1e-13


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
        if not all(isinstance(t, Real) and math.isfinite(t) for t in angles):
            raise InvalidSunburst("ray angles must be finite real numbers")
        angles = tuple(map(float, angles))
        n = len(angles)
        total = 0.0
        for i in range(n):
            turn = (angles[(i + 1) % n] - angles[i]) % TWO_PI
            if not 0.0 < turn < math.pi:
                raise InvalidSunburst(
                    f"rays {i} and {(i + 1) % n} do not turn counterclockwise "
                    "by less than pi")
            total += turn
        if round(total / TWO_PI) != 1:
            raise InvalidSunburst("rays wrap around the circle more than once")
        self.angles = angles

    @property
    def n(self) -> int:
        return len(self.angles)


def regular_sunburst(n: int) -> Sunburst:
    """Rays at the n-th roots of unity."""
    return Sunburst(TWO_PI * k / n for k in range(n))


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


def is_oriented_weave(pair: SunburstPair) -> bool:
    """Each phased B-ray strictly inside the cone from A[i] to -A[i-1]."""
    a = pair.a.angles
    b = pair.b_angles
    return all(math.sin(b[i] - a[i]) > 0 and math.sin(b[i] - a[i - 1]) > 0
               for i in range(pair.n))


def orbit_points(pair: SunburstPair, r0=1.0, steps=None):
    """The a-projection of the orbit: points on rays A[0], A[1], ...

    Iterates unit ray vectors, independently of the sine-ratio product.
    Starts at distance r0 along ray A[0] and runs the given number of
    steps, one full loop by default.  Each step intersects the chord
    through the current point parallel to the phased ray B[j+1] with
    the next A-ray; a nonpositive intersection coefficient means the
    pair is not woven and raises DegenerateStep.
    """
    rays = [unit_from_angle(t) for t in pair.a.angles]
    chords = [unit_from_angle(t) for t in pair.b_angles]
    n = pair.n
    if steps is None:
        steps = n
    p = rays[0] * r0
    points = [p]
    for j in range(steps):
        nxt = rays[(j + 1) % n]
        chord = chords[(j + 1) % n]
        den = nxt.cross(chord)
        if den == 0:
            raise DegenerateStep(
                f"chord B[{(j + 1) % n}] is parallel to ray A[{(j + 1) % n}]")
        s = p.cross(chord) / den
        if s <= 0:
            raise DegenerateStep(
                f"step {j} leaves ray A[{(j + 1) % n}] at nonpositive radius")
        p = nxt * s
        points.append(p)
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
    alpha, beta = a.angles, b.angles
    beta = beta[1:] + beta[:1]
    return ([bj - aj for aj, bj in zip(alpha, beta)],
            [bj - aj for aj, bj in zip(alpha[1:] + alpha[:1], beta)])


def holonomy_product(pair: SunburstPair) -> HolonomyReport:
    """Closed-form holonomy: per step j the radius ratio is
    cross(A[j], B[j+1]) / cross(A[j+1], B[j+1]) over unit rays, that is
    sin(c_j + phase) / sin(d_j + phase).
    """
    factors = []
    for j, (cj, dj) in enumerate(zip(*_phase_offsets(pair.a, pair.b))):
        den = math.sin(dj + pair.phase)
        if den == 0:
            k = (j + 1) % pair.n
            raise DegenerateStep(f"chord B[{k}] is parallel to ray A[{k}]")
        factors.append(math.sin(cj + pair.phase) / den)
    return HolonomyReport(math.prod(factors), tuple(factors), "product")


def holonomy_iteration(pair: SunburstPair) -> HolonomyReport:
    """Holonomy measured by running the orbit once around: the distance
    from the origin after N steps, starting from distance 1.  Serves as
    an independent oracle for the product formula.
    """
    pts = orbit_points(pair, r0=1.0)
    radii = [p.norm() for p in pts]
    factors = tuple(radii[j + 1] / radii[j] for j in range(pair.n))
    return HolonomyReport(radii[-1], factors, "iteration")


def holonomy(pair: SunburstPair) -> HolonomyReport:
    """Product-formula holonomy, cross-checked against the orbit
    iteration to 1e-12 relative error.
    """
    prod = holonomy_product(pair)
    it = holonomy_iteration(pair)
    if abs(prod.h - it.h) > 1e-12 * abs(it.h):
        raise HolonomyMismatch(
            f"holonomy mismatch: product {prod.h!r} vs iteration {it.h!r}")
    return prod


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

    def contains(self, theta: float) -> bool:
        return 0.0 < (theta - self.lo) % TWO_PI < self.width


def phase_arcs(a: Sunburst, b: Sunburst):
    """Per-index arcs of phases theta with rot_theta(B[i]) inside the
    cone from A[i] to -A[i-1].  Each arc is (lo, width) with width =
    pi minus the gap from A[i-1] to A[i], hence always below pi.
    """
    alpha, beta = a.angles, b.angles
    arcs = []
    for i in range(a.n):
        gap = (alpha[i] - alpha[i - 1]) % TWO_PI
        lo = (alpha[i] - beta[i]) % TWO_PI
        arcs.append((lo, math.pi - gap))
    return arcs


def weave_interval(a: Sunburst, b: Sunburst) -> PhaseInterval:
    """Intersection of the per-index phase arcs.

    Every arc is shorter than pi, so the intersection is empty or a
    single open arc whose counterclockwise endpoint is one of the arc
    endpoints; testing each candidate endpoint for membership in all
    arcs settles it without unwrapping the circle.
    """
    if a.n != b.n:
        raise InvalidSunburst("paired sunbursts must have equal ray counts")
    arcs = phase_arcs(a, b)
    best = None
    for lo, _ in arcs:
        offsets = [(lo - alo) % TWO_PI for alo, _ in arcs]
        if any(off > aw for off, (_, aw) in zip(offsets, arcs)):
            continue
        width = min(aw - off for off, (_, aw) in zip(offsets, arcs))
        if width > 0 and (best is None or width > best.width):
            best = PhaseInterval(lo, width, tuple(arcs))
    if best is None:
        raise EmptyInterval(tuple(arcs))
    return best


def log_holonomy(a: Sunburst, b: Sunburst, theta: float) -> float:
    """Summed per step: the product h underflows near the interval ends."""
    report = holonomy_product(SunburstPair(a, b, theta))
    return math.fsum(math.log(f) for f in report.step_factors)


def solve_phase(a: Sunburst, b: Sunburst) -> float:
    """The unique phase in the weave interval with holonomy 1.

    log h decreases strictly in the phase across the interval, blowing
    up to +inf at the clockwise end and down to -inf at the other: its
    slope, the sum of cot(c_j + phase) - cot(d_j + phase), is negative
    because c_j = d_j + gap_j with both angles in (0, pi).  Newton steps
    from the midpoint keep a sign bracket and bisect it whenever a step
    leaves it, until |log h| <= PHASE_TOL.
    """
    interval = weave_interval(a, b)
    pad = interval.width * 1e-9
    lo, hi = interval.lo + pad, interval.hi - pad
    if not (log_holonomy(a, b, lo) > 0 > log_holonomy(a, b, hi)):
        raise DegenerateStep("holonomy does not change sign over the "
                             "weave interval")
    c, d = _phase_offsets(a, b)
    theta = 0.5 * (lo + hi)
    for _ in range(100):
        f = log_holonomy(a, b, theta)
        if abs(f) <= PHASE_TOL:
            break
        lo, hi = (theta, hi) if f > 0 else (lo, theta)
        slope = math.fsum(1.0 / math.tan(cj + theta)
                          - 1.0 / math.tan(dj + theta)
                          for cj, dj in zip(c, d))
        theta -= f / slope
        if not lo < theta < hi:
            theta = 0.5 * (lo + hi)
    return theta % TWO_PI


def is_balanced(s: Sunburst) -> bool:
    """Unit ray directions summing to zero (up to SUNBURST_TOL)."""
    return math.hypot(sum(map(math.cos, s.angles)),
                      sum(map(math.sin, s.angles))) <= SUNBURST_TOL


def is_regular(s: Sunburst) -> bool:
    """All consecutive ray gaps equal to 2 pi / N (up to SUNBURST_TOL)."""
    t = s.angles
    return all(abs((t[i] - t[i - 1]) % TWO_PI - TWO_PI / s.n) <= SUNBURST_TOL
               for i in range(s.n))


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
    gaps = [w * TWO_PI / total for w in weights]
    alpha = []
    acc = rng.uniform(0.0, TWO_PI)
    for g in gaps:
        acc += g
        alpha.append(acc)
    c = rng.uniform(0.25, 0.75)
    jitter = 0.9 * min(min(gaps), math.pi - max(gaps)) / TWO_PI
    beta = [t + (c + jitter * rng.uniform(-1.0, 1.0)) * (math.pi - g)
            for t, g in zip(alpha, gaps)]
    return SunburstPair(Sunburst(alpha), Sunburst(beta))


def random_balanced_sunburst(rng, n: int, margin: float = 0.12) -> Sunburst:
    """Random sunburst whose unit rays sum to zero.

    Samples counterclockwise angles with comfortable gaps, then projects
    onto the two balance constraints by Gauss-Newton; rejects draws
    whose projection spoils the gap margins, which are margin times the
    regular gap 2 pi / n.  Raises InvalidSunburst after 100 rejected
    attempts.
    """
    if n < 3:
        raise InvalidSunburst("a sunburst needs at least 3 rays")
    margin *= TWO_PI / n
    for _ in range(100):
        weights = [rng.uniform(0.35, 1.0) for _ in range(n)]
        total = sum(weights)
        acc = rng.uniform(0.0, TWO_PI)
        ang = []
        for w in weights:
            acc += w * TWO_PI / total
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
        gaps = [(ang[(i + 1) % n] - ang[i]) % TWO_PI for i in range(n)]
        if (math.hypot(sum(math.cos(t) for t in ang),
                       sum(math.sin(t) for t in ang)) <= SAMPLER_TOL
                and abs(sum(gaps) - TWO_PI) <= 1e-9
                and margin <= min(gaps) and max(gaps) < math.pi - margin):
            return Sunburst(ang)
    raise InvalidSunburst(f"no balanced {n}-ray sunburst within the gap "
                          "margins in 100 attempts")
