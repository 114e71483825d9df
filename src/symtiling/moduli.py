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

The form depends on N alone: each function reads the cached
area_form(N) itself, with N taken from its offsets, point or argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonPositiveArea, ParallelWitnessLines


def family_directions(n: int) -> np.ndarray:
    ang = math.tau * np.arange(n) / n
    return np.column_stack([np.cos(ang), np.sin(ang)])


def family_normals(n: int) -> np.ndarray:
    """Rows: the left normals n_k.  Read as columns, they are also the
    offset changes induced by unit x and y translations."""
    d = family_directions(n)
    return np.column_stack([-d[:, 1], d[:, 0]])


@dataclass(frozen=True)
class AreaForm:
    """Signed area as a quadratic form on offset space.

    gram is the full N x N Gram matrix.  The radical (translations) is
    quotiented away by translating until s_0 = s_1 = 0, which leaves
    s_2..s_{N-1} as coordinates with Gram matrix quotient_gram.
    signature is its (1, N-3), the counts of positive and negative
    eigenvalues read off the closed-form spectrum
    (cos(2 pi j/N) - cos theta)/sin theta.  frame maps those coordinates
    to the Fourier frame, where the form is diag(1, -1, ..., -1).
    """

    n: int
    gram: np.ndarray
    quotient_gram: np.ndarray
    signature: tuple
    frame: np.ndarray

    def value(self, s) -> float:
        s = np.asarray(s, dtype=float)
        return float(s @ self.gram @ s)

    def reduce(self, s) -> np.ndarray:
        """Quotient coordinates: translate by the v that zeroes s_0 and
        s_1, v = ((s_1 - cos theta s_0)/sin theta, -s_0) with
        theta = 2 pi/N, then read off components 2..N-1.  They are
        s_k + (sin((k-1) theta) s_0 - sin(k theta) s_1)/sin theta.  An
        N x m matrix is reduced column by column.
        """
        s = np.asarray(s, dtype=float)
        t = family_normals(self.n)
        v = np.array([(s[1] - t[1, 1] * s[0]) / -t[1, 0], -s[0]])
        return (s + t @ v)[2:]

    def pairing(self, x, y) -> float:
        return float(np.asarray(x) @ self.quotient_gram @ np.asarray(y))


def _fourier_frame(n: int) -> np.ndarray:
    """Rows: the orthonormal real Fourier modes j != +-1, each scaled by
    sqrt|lambda_j| with lambda_j = (cos j theta - cos theta)/sin theta
    and restricted to columns 2..N-1.  They come in the order j = 0,
    then the cos and sin modes of 2 <= j < N/2, then (-1)^k for even N.
    The translations are the modes +-1, so every other mode reads the
    same value off any translate of the offsets.
    """
    theta = math.tau / n
    k = np.arange(n)
    modes = [(0, np.full(n, 1.0 / math.sqrt(n)))]
    for j in range(2, (n + 1) // 2):
        modes.append((j, math.sqrt(2.0 / n) * np.cos(j * theta * k)))
        modes.append((j, math.sqrt(2.0 / n) * np.sin(j * theta * k)))
    if n % 2 == 0:
        modes.append((n // 2, (-1.0) ** k / math.sqrt(n)))
    return np.array([
        math.sqrt(abs(math.cos(j * theta) - math.cos(theta))
                  / math.sin(theta)) * u[2:] for j, u in modes])


@lru_cache(maxsize=None)
def area_form(n: int) -> AreaForm:
    """Gram matrix of signed area, with theta = 2 pi/N: the circulant
    with diagonal -cot theta, both cyclic neighbours 1/(2 sin theta)
    and zeros elsewhere.  Its eigenvalues
    (cos(2 pi j/N) - cos theta)/sin theta are positive only for j = 0
    and vanish only for j = +-1, whose eigenvectors span the
    translations; hence the quotient signature (1, N-3).  Both facts
    are taken from the spectrum, not measured.  The Fourier disk frame
    is built here too, once per N.
    """
    if n < 4:
        raise ValueError("area form needs at least 4 families")
    theta = math.tau / n
    c = cyclic_matrix(n)
    gram = (c + c.T) / (2.0 * math.sin(theta)) - np.eye(n) / math.tan(theta)
    return AreaForm(n, gram, gram[2:, 2:], (1, n - 3), _fourier_frame(n))


def butterfly_matrix(n: int, k: int) -> np.ndarray:
    """Linear move replacing line k by its mirror image through the
    intersection p of lines k-1 and k+1: s_k' = 2 n_k . p - s_k with all
    other offsets fixed.  Since n_{k-1} + n_{k+1} = 2 cos(2 pi/N) n_k,
    that is s_k' = (s_{k-1} + s_{k+1})/cos(2 pi/N) - s_k.  The witness
    lines are parallel, and cos(2 pi/N) = 0, exactly when N = 4.
    """
    if n == 4:
        raise ParallelWitnessLines(
            f"witness families {(k - 1) % n} and {(k + 1) % n} are parallel")
    c = math.cos(math.tau / n)
    k %= n
    m = np.eye(n)
    m[k, k] = -1.0
    m[k, (k - 1) % n] = m[k, (k + 1) % n] = 1.0 / c
    return m


def quotient_map(matrix: np.ndarray) -> np.ndarray:
    """The map induced on quotient coordinates by a
    translation-equivariant linear map of offset space.
    """
    return area_form(len(matrix)).reduce(matrix[:, 2:])


def cyclic_matrix(n: int) -> np.ndarray:
    """Offset relabeling (Cs)_k = s_{k+1}; geometrically a rotation of
    the polygon by -2 pi / N, hence an area isometry.
    """
    return np.roll(np.eye(n), 1, axis=1)


@dataclass(frozen=True)
class HyperbolicPoint:
    """Point on the unit-area sheet in quotient coordinates."""

    n: int
    coords: tuple

    def as_array(self) -> np.ndarray:
        return np.array(self.coords)


def reference_point(n: int) -> np.ndarray:
    """Image of the regular n-gon (all offsets equal), selecting the
    positive sheet.
    """
    form = area_form(n)
    ones = np.ones(n)
    return form.reduce(ones) / math.sqrt(form.value(ones))


def to_hyperbolic(s) -> HyperbolicPoint:
    """Reduce to quotient coordinates and normalize to unit area."""
    s = np.asarray(s, dtype=float)
    form = area_form(len(s))
    area = form.value(s)
    if area <= 0:
        raise NonPositiveArea(f"signed area {area:.6g} is not positive")
    x = form.reduce(s) / math.sqrt(area)
    return HyperbolicPoint(form.n, tuple(x))


def wall_normal(n: int, k: int) -> np.ndarray:
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
    return (area_form(n).reduce(np.eye(n)[k % n])
            / math.sqrt(1.0 / math.tan(math.tau / n)))


def pentagon_walls():
    return [wall_normal(5, k) for k in range(5)]


def pentagon_wall_order():
    """Boundary order of the five walls: consecutive entries are
    non-consecutive butterflies, whose walls meet at right angles.
    """
    return [0, 2, 4, 1, 3]


@lru_cache(maxsize=None)
def pentagon_report():
    """Vertices, interior angles, and side lengths of the right-angled
    pentagon bounded by the five butterfly walls.  Built once and
    shared by every caller, which only reads it.

    Walls a and b consecutive in pentagon_wall_order() have b = a + 2,
    and m = a + 1 is the wall next to both.  By the wall Gram closed
    form, w_a and w_b are orthogonal with self-pairing -1, and each pairs
    to phi = 1/(2 cos(2 pi/5)) with w_m.  Projecting w_m off both gives
    w_m + phi (w_a + w_b), of self-pairing 2 phi^2 - 1 = phi^3: the
    vertex is v = (w_m + phi (w_a + w_b))/phi^(3/2).  A positive sum of
    walls, v pairs positively with the regular polygon, so it needs no
    sign test.  Angles and sides are measured from pairings.
    """
    form = area_form(5)
    walls = pentagon_walls()
    order = pentagon_wall_order()
    phi = 1.0 / (2.0 * math.cos(math.tau / 5))
    verts = []
    angles = []
    for i in range(5):
        wa, wb = walls[order[i]], walls[order[(i + 1) % 5]]
        wm = walls[(order[i] + 1) % 5]
        verts.append((wm + phi * (wa + wb)) / phi ** 1.5)
        angles.append(math.acos(max(-1.0, min(1.0, -form.pairing(wa, wb)))))
    sides = [math.acosh(max(form.pairing(verts[i], verts[(i + 1) % 5]), 1.0))
             for i in range(5)]
    return {"walls": walls, "order": order, "vertices": verts,
            "angles": angles, "sides": sides}


def cyclic_fixed_point(n: int) -> HyperbolicPoint:
    """Fixed point of the induced cyclic relabeling isometry on the
    positive sheet: the regular n-gon, since relabeling leaves the
    all-ones offset vector unchanged.
    """
    return HyperbolicPoint(n, tuple(reference_point(n)))


def to_disk(p: HyperbolicPoint) -> np.ndarray:
    """Poincare ball projection of a positive-sheet point in the Fourier
    frame: N - 3 coordinates, with the regular polygon at the centre.
    For N >= 6 the first two are the j = 2 mode, the polygon's affine
    deformation, which the disk figures show.
    """
    y = area_form(p.n).frame @ p.as_array()
    return y[1:] / (1.0 + y[0])


@lru_cache(maxsize=None)
def pentagon_disk_chords():
    """The sides of the right-angled pentagon as chords of the Poincare
    disk: consecutive pairs of its vertices under to_disk, as float
    (x, y) pairs.  Built once and shared by every caller, which only
    reads it."""
    corners = [tuple(map(float, to_disk(HyperbolicPoint(5, tuple(c)))))
               for c in pentagon_report()["vertices"]]
    return tuple((corners[i], corners[(i + 1) % 5]) for i in range(5))
