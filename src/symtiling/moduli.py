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
reflections.

Both coordinate systems on that space are closed forms.  Quotient
coordinates translate the polygon until s_0 = s_1 = 0 and keep
s_2..s_{N-1}.  The disk chart reads the real Fourier modes j != +-1,
which are the form's eigenvectors: mode 0 is the timelike axis through
the regular polygon, so the regular polygon sits at the centre.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (NonPositiveArea, NotConvex, ParallelWitnessLines,
                     SignatureMismatch)
from .exact import Vec2
from .linkage import Polygon

TWO_PI = 2.0 * math.pi


def family_directions(n: int) -> np.ndarray:
    ang = TWO_PI * np.arange(n) / n
    return np.column_stack([np.cos(ang), np.sin(ang)])


def family_normals(n: int) -> np.ndarray:
    d = family_directions(n)
    return np.column_stack([-d[:, 1], d[:, 0]])


def translation_offsets(n: int) -> np.ndarray:
    """Columns: the offset changes induced by unit x and y translations."""
    return family_normals(n)


def line_intersection(n: int, s, i: int, j: int) -> np.ndarray:
    """Intersection of the lines of families i and j at offsets s."""
    ang = TWO_PI * np.array([i % n, j % n]) / n
    m = np.column_stack([-np.sin(ang), np.cos(ang)])
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if abs(det) < 1e-12:
        raise ParallelWitnessLines(f"families {i % n} and {j % n} are parallel")
    rhs = np.array([s[i % n], s[j % n]])
    return np.array([(m[1, 1] * rhs[0] - m[0, 1] * rhs[1]) / det,
                     (-m[1, 0] * rhs[0] + m[0, 0] * rhs[1]) / det])


def vertices_from_offsets(s) -> np.ndarray:
    """Vertex k solves lines k and k+1, with determinant sin(2 pi/N)."""
    s = np.asarray(s, dtype=float)
    d = family_directions(len(s))
    return ((s[:, None] * np.roll(d, -1, axis=0)
             - np.roll(s, -1)[:, None] * d) / math.sin(TWO_PI / len(s)))


def polygon_from_offsets(s) -> Polygon:
    return Polygon(Vec2(float(x), float(y))
                   for x, y in vertices_from_offsets(s))


def signed_area(s) -> float:
    """Shoelace area of the offset polygon; quadratic in the offsets."""
    v = vertices_from_offsets(s)
    w = np.roll(v, -1, axis=0)
    return float(np.sum(v[:, 0] * w[:, 1] - w[:, 0] * v[:, 1])) / 2.0


def signed_edge_lengths(s) -> np.ndarray:
    """Length of edge k measured along its counterclockwise traversal
    direction, which is -d_k under the left-normal convention; all
    positive iff the offsets cut out a convex polygon.  With
    theta = 2 pi/N it is (s_{k-1} + s_{k+1} - 2 cos theta s_k)/sin theta.
    """
    s = np.asarray(s, dtype=float)
    theta = TWO_PI / len(s)
    return ((np.roll(s, 1) + np.roll(s, -1) - 2.0 * math.cos(theta) * s)
            / math.sin(theta))


def is_convex_offsets(s) -> bool:
    return bool(np.all(signed_edge_lengths(s) > 0))


def random_convex_offsets(rng, n: int, spread: float = 0.35) -> np.ndarray:
    """Random offsets near the regular polygon (all offsets 1).

    The spread is capped at (1 - cos theta)/(1 + |cos theta|), below
    which every draw is convex by the edge-length formula.
    """
    c = math.cos(TWO_PI / n)
    spread = min(spread, (1.0 - c) / (1.0 + abs(c)))
    s = 1.0 + np.array([rng.uniform(-spread, spread) for _ in range(n)])
    if not is_convex_offsets(s):
        raise NotConvex(f"offsets drawn with spread {spread:.6g} are not "
                        "convex")
    return s


@dataclass(frozen=True)
class AreaForm:
    """Signed area as a quadratic form on offset space.

    gram is the full N x N Gram matrix.  The radical (translations) is
    quotiented away by translating until s_0 = s_1 = 0, which leaves the
    keep-indices 2..N-1 as coordinates with Gram matrix quotient_gram of
    signature (1, N-3).  frame maps those coordinates to the Fourier
    frame, where the form is diag(1, -1, ..., -1).
    """

    n: int
    gram: np.ndarray
    keep: tuple
    quotient_gram: np.ndarray
    frame: np.ndarray

    def value(self, s) -> float:
        s = np.asarray(s, dtype=float)
        return float(s @ self.gram @ s)

    def reduce(self, s) -> np.ndarray:
        """Quotient coordinates: translate by the v that zeroes s_0 and
        s_1, v = ((s_1 - cos theta s_0)/sin theta, -s_0) with
        theta = 2 pi/N, then read off the kept components.  They are
        s_k + (sin((k-1) theta) s_0 - sin(k theta) s_1)/sin theta.  An
        N x m matrix is reduced column by column.
        """
        s = np.asarray(s, dtype=float)
        t = translation_offsets(self.n)
        v = np.array([(s[1] - t[1, 1] * s[0]) / -t[1, 0], -s[0]])
        return (s + t @ v)[2:]

    def embed(self, x) -> np.ndarray:
        """Offset vector with s_0 = s_1 = 0 representing x."""
        s = np.zeros(self.n)
        s[list(self.keep)] = np.asarray(x, dtype=float)
        return s

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
    theta = TWO_PI / n
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
    translations; hence the quotient signature (1, N-3).  Self-checks
    confirm both facts numerically.  The Fourier disk frame is built
    here too, once per N.
    """
    if n < 4:
        raise ValueError("area form needs at least 4 families")
    theta = TWO_PI / n
    c = cyclic_matrix(n)
    gram = (c + c.T) / (2.0 * math.sin(theta)) - np.eye(n) / math.tan(theta)
    t = translation_offsets(n)
    if np.max(np.abs(gram @ t)) > 1e-9:
        raise SignatureMismatch("translations do not annihilate the form")
    null_dim = int(np.sum(np.abs(np.linalg.eigvalsh(gram)) <= 1e-9))
    if null_dim != 2:
        raise SignatureMismatch(f"radical dimension {null_dim}, expected 2")
    keep = tuple(range(2, n))
    quotient = gram[np.ix_(keep, keep)]
    eig = np.linalg.eigvalsh(quotient)
    plus = int(np.sum(eig > 1e-9))
    minus = int(np.sum(eig < -1e-9))
    if (plus, minus) != (1, n - 3):
        raise SignatureMismatch(
            f"quotient signature ({plus},{minus}), expected (1,{n - 3})")
    return AreaForm(n, gram, keep, quotient, _fourier_frame(n))


def butterfly_matrix(n: int, k: int) -> np.ndarray:
    """Linear move replacing line k by its mirror image through the
    intersection of lines k-1 and k+1: s_k' = 2 n_k . p - s_k with all
    other offsets fixed.
    """
    nm = family_normals(n)
    k %= n
    a, b = nm[(k - 1) % n]
    c, d = nm[(k + 1) % n]
    det = a * d - b * c
    if abs(det) < 1e-12:
        raise ParallelWitnessLines(
            f"witness families {(k - 1) % n} and {(k + 1) % n} are parallel")
    nx, ny = nm[k]
    m = np.eye(n)
    m[k, k] = -1.0
    m[k, (k - 1) % n] = 2.0 * (nx * d - ny * c) / det
    m[k, (k + 1) % n] = 2.0 * (-nx * b + ny * a) / det
    return m


def butterfly(s, k: int) -> np.ndarray:
    return butterfly_matrix(len(s), k) @ np.asarray(s, dtype=float)


def quotient_map(form: AreaForm, matrix: np.ndarray) -> np.ndarray:
    """The map induced on quotient coordinates by a
    translation-equivariant linear map of offset space.
    """
    return form.reduce(matrix[:, list(form.keep)])


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


def reference_point(form: AreaForm) -> np.ndarray:
    """Image of the regular polygon (all offsets equal), selecting the
    positive sheet.
    """
    ones = np.ones(form.n)
    return form.reduce(ones) / math.sqrt(form.value(ones))


def to_hyperbolic(s, form: AreaForm = None) -> HyperbolicPoint:
    """Reduce to quotient coordinates and normalize to unit area."""
    s = np.asarray(s, dtype=float)
    if form is None:
        form = area_form(len(s))
    area = form.value(s)
    if area <= 0:
        raise NonPositiveArea(f"signed area {area:.6g} is not positive")
    x = form.reduce(s) / math.sqrt(area)
    return HyperbolicPoint(form.n, tuple(x))


def hyperbolic_distance(p: HyperbolicPoint, q: HyperbolicPoint,
                        form: AreaForm = None) -> float:
    """On the unit sheet Q(p - q) = -4 sinh^2(d/2), which stays accurate
    near d = 0, where acosh of the pairing loses half the digits."""
    if form is None:
        form = area_form(p.n)
    v = p.as_array() - q.as_array()
    return 2.0 * math.asinh(0.5 * math.sqrt(max(0.0, -form.pairing(v, v))))


def wall_normal(form: AreaForm, k: int) -> np.ndarray:
    """Unit spacelike Q-normal of the fixed hyperplane of butterfly k in
    the quotient, oriented positively against the regular polygon.

    Butterfly k moves only offset k and sends e_k to -e_k, so its
    mirror's normal is the class of e_k, with Q(e_k) = -cot(2 pi/N).
    That vanishes exactly when the witness lines k-1 and k+1 are
    parallel (N = 4).
    """
    n = form.n
    w = form.reduce(np.eye(n)[k % n])
    q = form.pairing(w, w)
    if abs(q) <= 1e-12:
        raise ParallelWitnessLines(
            f"witness families {(k - 1) % n} and {(k + 1) % n} are parallel")
    if q > 0:
        raise SignatureMismatch(f"butterfly {k} mirror normal is not "
                                "spacelike")
    w = w / math.sqrt(-q)
    if form.pairing(reference_point(form), w) < 0:
        w = -w
    return w


def wall_intersection(form: AreaForm, wa: np.ndarray, wb: np.ndarray
                      ) -> np.ndarray:
    """Positive-sheet point lying on both walls (their common
    perpendicular foot), for three-dimensional quotients.
    """
    g = form.quotient_gram
    v = np.cross(g @ wa, g @ wb)
    q = form.pairing(v, v)
    if q <= 0:
        raise SignatureMismatch("walls do not meet on the hyperboloid")
    v = v / math.sqrt(q)
    if form.pairing(reference_point(form), v) < 0:
        v = -v
    return v


def pentagon_walls(form: AreaForm = None):
    if form is None:
        form = area_form(5)
    return [wall_normal(form, k) for k in range(5)]


def pentagon_wall_order():
    """Boundary order of the five walls: consecutive entries are
    non-consecutive butterflies, whose walls meet at right angles.
    """
    return [0, 2, 4, 1, 3]


def pentagon_report(form: AreaForm = None):
    """Vertices, interior angles, and side lengths of the right-angled
    pentagon bounded by the five butterfly walls.
    """
    if form is None:
        form = area_form(5)
    walls = pentagon_walls(form)
    order = pentagon_wall_order()
    verts = []
    angles = []
    for i in range(5):
        wa, wb = walls[order[i]], walls[order[(i + 1) % 5]]
        verts.append(wall_intersection(form, wa, wb))
        angles.append(math.acos(max(-1.0, min(1.0, -form.pairing(wa, wb)))))
    sides = [math.acosh(max(form.pairing(verts[i], verts[(i + 1) % 5]), 1.0))
             for i in range(5)]
    return {"walls": walls, "order": order, "vertices": verts,
            "angles": angles, "sides": sides}


def cyclic_fixed_point(form: AreaForm = None) -> HyperbolicPoint:
    """Fixed point of the induced cyclic relabeling isometry on the
    positive sheet: the regular polygon, since relabeling leaves the
    all-ones offset vector unchanged.
    """
    if form is None:
        form = area_form(5)
    return HyperbolicPoint(form.n, tuple(reference_point(form)))


def chart_c_coordinate(s) -> float:
    """x-spacing between the intersections of line 0 with lines 2 and 3;
    a translation-invariant linear functional used as a chart check.
    """
    n = len(s)
    p = line_intersection(n, s, 0, 2)
    q = line_intersection(n, s, 0, 3)
    return float(p[0] - q[0])


def to_disk(p: HyperbolicPoint, form: AreaForm = None) -> np.ndarray:
    """Poincare ball projection of a positive-sheet point in the Fourier
    frame: N - 3 coordinates, with the regular polygon at the centre.
    For N >= 6 the first two are the j = 2 mode, the polygon's affine
    deformation, which the disk figures show.
    """
    if form is None:
        form = area_form(p.n)
    y = form.frame @ p.as_array()
    return y[1:] / (1.0 + y[0])
