"""Equiangular polygons as line-family offsets, the signed-area Lorentz
form, butterfly reflections, and the hyperboloid embedding.

Family k consists of lines parallel to the N-th root of unity
d_k = (cos 2 pi k/N, sin 2 pi k/N), encoded by the signed offset s_k of
the line {x : n_k . x = s_k} against the left normal n_k = rot90(d_k).
A choice of one line per family cuts out an equiangular N-gon whose
k-th vertex is the intersection of lines k and k+1.  Signed area is a
quadratic form in the offsets (Bavard-Ghys 1992; Thurston, "Shapes of
polyhedra", 1998).  With theta = 2 pi/N its Gram matrix is the
circulant with diagonal -cot theta and both cyclic neighbours
1/(2 sin theta), so its eigenvalues are
(cos(2 pi j/N) - cos theta)/sin theta, j = 0..N-1: positive for j = 0,
zero for j = +-1 (the translations) and negative otherwise.  On the
quotient by translations the form thus has Lorentz signature (1, N-3).
Unit-area convex polygons then live on a hyperboloid sheet: a
hyperbolic space of dimension N-3, with the butterfly moves acting as
reflections.  Their unit wall normals w_k have the Gram matrix
-I + (C + C^T)/(2 cos theta), with C the cyclic shift: neighbouring
walls pair to 1/(2 cos theta), which is the golden ratio phi at N = 5,
and all other walls are orthogonal.

The code takes these facts from the spectrum and measures none of
them; the tests keep the numeric checks as oracles.  Both coordinate
systems are closed forms too.  Quotient coordinates translate the
polygon until s_0 = s_1 = 0 and read off s_2..s_{N-1}.  The disk chart
reads the real Fourier modes j != +-1, which are the form's
eigenvectors: mode 0 is the timelike axis through the regular polygon,
so the regular polygon sits at the centre.

Offsets, points, walls and disk points are tuples of floats, and every
closed form is evaluated with math alone: the form is a sum over
neighbouring offsets, exactly rounded by math.fsum, and the disk chart
is one fsum dot product per Fourier row.

The form depends on N alone: each function reads the cached
area_form(N) itself, with N taken from its offsets, point or argument.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

from .errors import NonPositiveArea, ParallelWitnessLines


@dataclass(frozen=True)
class AreaForm:
    """Signed area as a quadratic form on offset space.

    The radical (translations) is quotiented away by translating until
    s_0 = s_1 = 0, which leaves s_2..s_{N-1} as coordinates; on them
    the form is the tridiagonal block of the circulant, which pairing
    sums directly.  signature is its (1, N-3), the counts of positive
    and negative eigenvalues read off the closed-form spectrum
    (cos(2 pi j/N) - cos theta)/sin theta.  frame maps those coordinates
    to the Fourier frame, where the form is diag(1, -1, ..., -1).
    """

    n: int
    signature: tuple
    frame: tuple

    def reduce(self, s) -> tuple:
        """Quotient coordinates: translate by the v that zeroes s_0 and
        s_1, v = ((s_1 - cos theta s_0)/sin theta, -s_0) with
        theta = 2 pi/N, then read off components 2..N-1.  They are
        s_k + (sin((k-1) theta) s_0 - sin(k theta) s_1)/sin theta.
        """
        theta = math.tau / self.n
        a, b = s[0] / math.sin(theta), s[1] / math.sin(theta)
        return tuple(s[k] + math.sin((k - 1) * theta) * a
                     - math.sin(k * theta) * b for k in range(2, self.n))

    def pairing(self, x, y) -> float:
        """The form on quotient coordinates: the circulant's diagonal
        -cot theta and neighbours 1/(2 sin theta) without its cyclic
        corner, which pairs the zeroed s_0 with s_{N-1}.  Its terms
        cancel by a factor growing with N, so they are summed by fsum,
        which rounds once.
        """
        theta = math.tau / self.n
        side, diag = 0.5 / math.sin(theta), -1.0 / math.tan(theta)
        terms = [diag * a * b for a, b in zip(x, y)]
        for k in range(1, len(x)):
            terms += (side * x[k - 1] * y[k], side * x[k] * y[k - 1])
        return math.fsum(terms)


def _fourier_frame(n: int) -> tuple:
    """Rows: the orthonormal real Fourier modes j != +-1, each scaled by
    sqrt|lambda_j| with lambda_j = (cos j theta - cos theta)/sin theta
    and restricted to columns 2..N-1.  They come in the order j = 0,
    then the cos and sin modes of 2 <= j < N/2, then (-1)^k for even N.
    The translations are the modes +-1, so every other mode reads the
    same value off any translate of the offsets.
    """
    theta = math.tau / n
    modes = [(0, [1.0 / math.sqrt(n)] * n)]
    for j in range(2, (n + 1) // 2):
        for wave in (math.cos, math.sin):
            modes.append((j, [math.sqrt(2.0 / n) * wave(j * theta * k)
                              for k in range(n)]))
    if n % 2 == 0:
        modes.append((n // 2, [(-1.0) ** k / math.sqrt(n) for k in range(n)]))
    return tuple(
        tuple(math.sqrt(abs(math.cos(j * theta) - math.cos(theta))
                        / math.sin(theta)) * u for u in row[2:])
        for j, row in modes)


@lru_cache(maxsize=None)
def area_form(n: int) -> AreaForm:
    """Signed area, with theta = 2 pi/N: the circulant Gram matrix with
    diagonal -cot theta, both cyclic neighbours 1/(2 sin theta) and
    zeros elsewhere.  Its eigenvalues
    (cos(2 pi j/N) - cos theta)/sin theta are positive only for j = 0
    and vanish only for j = +-1, whose eigenvectors span the
    translations; hence the quotient signature (1, N-3).  Both facts
    are taken from the spectrum, not measured.  The Fourier disk frame
    is built here too, once per N.
    """
    if n < 4:
        raise ValueError(f"the area form needs at least 4 vertices, got {n}")
    return AreaForm(n, (1, n - 3), _fourier_frame(n))


@dataclass(frozen=True)
class HyperbolicPoint:
    """Point on the unit-area sheet in quotient coordinates."""

    n: int
    coords: tuple


def to_hyperbolic(s) -> HyperbolicPoint:
    """Reduce to quotient coordinates and normalize to unit area."""
    form = area_form(len(s))
    x = form.reduce(s)
    area = form.pairing(x, x)
    if area <= 0:
        raise NonPositiveArea(f"signed area {area:.6g} is not positive")
    scale = math.sqrt(area)
    return HyperbolicPoint(form.n, tuple(c / scale for c in x))


def wall_normal(n: int, k: int) -> tuple:
    """Unit spacelike Q-normal of the fixed hyperplane of butterfly k in
    the quotient, positive against the regular polygon.

    Butterfly k moves only offset k and sends e_k to -e_k, so its
    mirror's normal is the class of e_k, with Q(e_k) = -cot(2 pi/N):
    zero exactly when the witness lines k-1 and k+1 are parallel
    (N = 4), negative for N >= 5, and e_k is divided by its square root.
    Its pairing with the regular polygon's offsets (all ones) is
    tan(pi/N) > 0: no sign flip needed.
    """
    if n == 4:
        raise ParallelWitnessLines(
            f"witness families {(k - 1) % n} and {(k + 1) % n} are parallel")
    x = area_form(n).reduce([float(i == k % n) for i in range(n)])
    norm = math.sqrt(1.0 / math.tan(math.tau / n))
    return tuple(c / norm for c in x)


def pentagon_walls():
    return [wall_normal(5, k) for k in range(5)]


@lru_cache(maxsize=None)
def pentagon_report():
    """Vertices, interior angles, and side lengths of the right-angled
    pentagon bounded by the five butterfly walls, and the pairings of
    its adjacent walls.  Built once and shared by every caller, which
    only reads it.

    The walls' boundary order lives here, as the report's "order",
    [0, 2, 4, 1, 3]: walls a and b consecutive in it have b = a + 2, and
    m = a + 1 is the wall next to both.  By the wall Gram closed form,
    w_a and w_b are orthogonal with self-pairing -1, and each pairs to
    phi = 1/(2 cos(2 pi/5)) with w_m.  Projecting w_m off both gives
    w_m + phi (w_a + w_b), of self-pairing 2 phi^2 - 1 = phi^3: the
    vertex is v = (w_m + phi (w_a + w_b))/phi^(3/2).  A positive sum of
    walls, v pairs positively with the regular polygon, so it needs no
    sign test.  The angles are measured from the adjacent walls'
    pairings, kept as the report's "pairings", and the sides from the
    vertices' pairings.
    """
    form = area_form(5)
    walls = pentagon_walls()
    # Consecutive entries are non-consecutive butterflies, whose walls
    # meet at right angles.
    order = [0, 2, 4, 1, 3]
    phi = 1.0 / (2.0 * math.cos(math.tau / 5))
    verts = []
    pairings = []
    for i in range(5):
        wa, wb = walls[order[i]], walls[order[(i + 1) % 5]]
        wm = walls[(order[i] + 1) % 5]
        verts.append(tuple((m + phi * (a + b)) / phi ** 1.5
                           for m, a, b in zip(wm, wa, wb)))
        pairings.append(form.pairing(wa, wb))
    angles = [math.acos(max(-1.0, min(1.0, -p))) for p in pairings]
    sides = [math.acosh(max(form.pairing(verts[i], verts[(i + 1) % 5]), 1.0))
             for i in range(5)]
    return {"walls": walls, "order": order, "pairings": pairings,
            "vertices": verts, "angles": angles, "sides": sides}


def cyclic_fixed_point(n: int) -> HyperbolicPoint:
    """Fixed point of the induced cyclic relabeling isometry on the
    positive sheet: the regular n-gon, since relabeling leaves the
    all-ones offset vector unchanged.
    """
    return to_hyperbolic((1.0,) * n)


def to_disk(p: HyperbolicPoint) -> tuple:
    """Poincare ball projection of a positive-sheet point in the Fourier
    frame: N - 3 coordinates, with the regular polygon at the centre.
    For N >= 6 the first two are the j = 2 mode, the polygon's affine
    deformation, which the disk figures show.
    """
    y = [math.fsum(map(operator.mul, row, p.coords))
         for row in area_form(p.n).frame]
    return tuple(c / (1.0 + y[0]) for c in y[1:])


@lru_cache(maxsize=None)
def pentagon_disk_chords():
    """The sides of the right-angled pentagon as chords of the Poincare
    disk: consecutive pairs of its vertices under to_disk, as
    (x, y) pairs.  Built once and shared by every caller, which only
    reads it."""
    corners = [to_disk(HyperbolicPoint(5, c))
               for c in pentagon_report()["vertices"]]
    return tuple((corners[i], corners[(i + 1) % 5]) for i in range(5))
