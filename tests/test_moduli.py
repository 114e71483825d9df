import math
import random

import numpy as np
import pytest

from symtiling.errors import NonPositiveArea, ParallelWitnessLines
from symtiling.moduli import (area_form, cyclic_fixed_point, pentagon_report,
                              pentagon_walls, to_disk, to_hyperbolic,
                              wall_normal)

from symtiling.linkage import random_convex_equilateral
from symtiling.pipeline import equilateral_to_hyperbolic

from oracles import (as_array, butterfly_matrix, cyclic_matrix,
                     family_directions, family_normals, form_value, gram,
                     hyperbolic_distance, is_convex_offsets,
                     line_intersection, oracle_to_disk, oracle_to_hyperbolic,
                     oracle_wall_intersection, polygon_area,
                     polygon_from_offsets, quotient_gram, quotient_map,
                     random_convex_offsets, signed_area, signed_edge_lengths,
                     vertices_from_offsets)


def oracle_polarized_gram(n):
    """Gram matrix of signed area by polarizing the shoelace area over
    pairs of basis offsets."""
    basis = np.eye(n)
    diag = [signed_area(basis[i]) for i in range(n)]
    g = np.empty((n, n))
    for i in range(n):
        g[i, i] = diag[i]
        for j in range(i + 1, n):
            both = signed_area(basis[i] + basis[j])
            g[i, j] = g[j, i] = (both - diag[i] - diag[j]) / 2.0
    return g


def test_family_frames():
    for n in (3, 5, 8):
        d = family_directions(n)
        nm = family_normals(n)
        assert np.allclose(np.linalg.norm(d, axis=1), 1.0)
        for k in range(n):
            assert np.allclose(nm[k], [-d[k][1], d[k][0]])
        assert np.allclose(d[0], [1.0, 0.0])


def test_translation_offsets_span_translations():
    rng = random.Random(2)
    for n in (4, 5, 7):
        t = family_normals(n)
        shift = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2)])
        s = random_convex_offsets(random.Random(n), n)
        moved = s + t @ shift
        va = vertices_from_offsets(s)
        vb = vertices_from_offsets(moved)
        assert np.allclose(vb - va, shift[None, :], atol=1e-9)


def test_signed_area_matches_shoelace():
    rng = random.Random(8)
    for n in [rng.randint(4, 9) for _ in range(40)] + [6, 12, 50, 200]:
        s = random_convex_offsets(rng, n)
        lines = [line_intersection(n, s, k, k + 1) for k in range(n)]
        assert np.allclose(vertices_from_offsets(s), lines, rtol=0,
                           atol=1e-12 * n)
        poly = polygon_from_offsets(s)
        assert abs(signed_area(s) - polygon_area(poly)) <= 1e-9
        assert signed_area(s) > 0
        assert is_convex_offsets(s)
        assert np.all(signed_edge_lengths(s) > 0)
        lengths = poly.edge_lengths()
        assert np.allclose(np.sort(signed_edge_lengths(s)),
                           np.sort(lengths), atol=1e-9)


def test_square_area_closed_form():
    rng = random.Random(14)
    for _ in range(50):
        s = np.array([rng.uniform(-1, 2) for _ in range(4)])
        closed = (s[0] + s[2]) * (s[1] + s[3])
        assert abs(signed_area(s) - closed) <= 1e-12


def test_parallel_families_have_no_intersection():
    with pytest.raises(ParallelWitnessLines):
        line_intersection(4, np.ones(4), 0, 2)


def test_gram_matrix_reproduces_area():
    rng = random.Random(23)
    for n in (*range(4, 13), 30):
        assert np.max(np.abs(gram(n) - oracle_polarized_gram(n))) <= 1e-12
        for _ in range(20):
            s = np.array([rng.uniform(-1, 2) for _ in range(n)])
            assert abs(form_value(s) - signed_area(s)) <= 1e-9


def test_radical_and_signature():
    for n in range(4, 11):
        form = area_form(n)
        t = family_normals(n)
        assert np.max(np.abs(gram(n) @ t)) <= 1e-9
        eigs = np.linalg.eigvalsh(gram(n))
        null = np.sum(np.abs(eigs) <= 1e-9)
        assert null == 2
        qeigs = np.linalg.eigvalsh(quotient_gram(n))
        assert np.sum(qeigs > 1e-9) == 1
        assert np.sum(qeigs < -1e-9) == n - 3
        assert form.signature == (int(np.sum(qeigs > 1e-9)),
                                  int(np.sum(qeigs < -1e-9)))
    for n in (*range(4, 13), 30, 64, 101, 200):
        theta = 2.0 * math.pi / n
        closed = np.sort((np.cos(theta * np.arange(n)) - math.cos(theta))
                         / math.sin(theta))
        eigs = np.linalg.eigvalsh(gram(n))
        assert np.max(np.abs(eigs - closed)) <= 1e-12 * max(1.0, closed[-1])


def test_reduce_is_translation_invariant_and_embeds_back():
    rng = random.Random(31)
    for n in (5, 7):
        form = area_form(n)
        t = family_normals(n)
        for _ in range(20):
            s = random_convex_offsets(rng, n)
            shift = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1)])
            assert np.allclose(form.reduce(s), form.reduce(s + t @ shift),
                               atol=1e-9)
            x = form.reduce(s)
            back = np.concatenate(([0.0, 0.0], x))
            assert abs(form_value(back) - form_value(s)) <= 1e-9
            assert abs(form.pairing(x, x) - form_value(s)) <= 1e-9


def oracle_gauge_reduce(s, gauge):
    """Coordinates left after solving for the translation that zeroes
    the two gauge offsets, and the Gram matrix of the kept offsets: the
    solve-based reduction that the closed form replaced."""
    n = len(s)
    t = family_normals(n)
    g = list(gauge)
    keep = [i for i in range(n) if i not in gauge]
    x = (s + t @ np.linalg.solve(t[g], -s[g]))[keep]
    return x, gram(n)[np.ix_(keep, keep)]


def test_closed_form_reduce_matches_the_gauge_solve_oracle():
    rng = random.Random(47)

    def distance(x, y, g):
        v = x - y
        return 2.0 * math.asinh(0.5 * math.sqrt(max(0.0, -(v @ g @ v))))

    for n in (5, 7):
        form = area_form(n)
        for _ in range(20):
            s1 = random_convex_offsets(rng, n)
            s2 = random_convex_offsets(rng, n)
            x, _ = oracle_gauge_reduce(s1, (0, 1))
            assert np.allclose(form.reduce(s1), x, rtol=1e-12, atol=1e-12)
            closed = hyperbolic_distance(to_hyperbolic(s1),
                                         to_hyperbolic(s2))
            for gauge in ((0, 1), (2, 4)):
                x1, g = oracle_gauge_reduce(s1 / math.sqrt(form_value(s1)),
                                            gauge)
                x2, _ = oracle_gauge_reduce(s2 / math.sqrt(form_value(s2)),
                                            gauge)
                assert abs(distance(x1, x2, g) - closed) <= 1e-9


def test_fourier_frame_diagonalizes_the_quotient_form():
    for n in (*range(4, 13), 30, 64, 200):
        form = area_form(n)
        frame = np.array(form.frame)
        signs = np.diag([1.0] + [-1.0] * (n - 3))
        q = quotient_gram(n)
        assert frame.shape == (n - 2, n - 2)
        assert np.max(np.abs(frame.T @ signs @ frame - q)) <= (
            1e-12 * max(1.0, np.max(np.abs(q))))


@pytest.mark.parametrize("n", [*range(4, 13), 16, 24, 32, 60, 100, 200])
def test_closed_forms_match_the_ndarray_oracles(n):
    """to_hyperbolic, to_disk and pairing against the ndarray charts
    that their closed forms replaced."""
    rng = random.Random(n)
    form = area_form(n)
    pts = []
    for _ in range(10):
        s = random_convex_offsets(rng, n)
        p, q = to_hyperbolic(s), oracle_to_hyperbolic(s)
        assert np.max(np.abs(as_array(p) - as_array(q))) <= 1e-12
        assert np.max(np.abs(np.asarray(to_disk(p))
                             - oracle_to_disk(q))) <= 1e-12
        pts.append(p)
    for p, q in zip(pts, pts[1:]):
        assert math.isclose(form.pairing(p.coords, q.coords),
                            as_array(p) @ quotient_gram(n) @ as_array(q),
                            rel_tol=1e-12)


def test_regular_polygon_is_the_disk_centre():
    for n in (*range(4, 13), 32):
        assert np.linalg.norm(to_disk(cyclic_fixed_point(n))) <= 1e-12


def test_butterfly_reflects_vertex_through_neighbor_intersection():
    rng = random.Random(3)
    for n in (3, 5, 6, 8):
        nm = family_normals(n)
        for _ in range(10):
            s = random_convex_offsets(rng, n)
            k = rng.randrange(n)
            s2 = butterfly_matrix(n, k) @ s
            others = [i for i in range(n) if i != k]
            assert np.allclose(s2[others], s[others])
            p = line_intersection(n, s, (k - 1) % n, (k + 1) % n)
            assert abs(s2[k] - (2.0 * float(nm[k] @ p) - s[k])) <= 1e-9


def test_square_butterfly_has_parallel_witness_lines():
    with pytest.raises(ParallelWitnessLines):
        butterfly_matrix(4, 0)
    with pytest.raises(ParallelWitnessLines):
        butterfly_matrix(4, 2) @ np.ones(4)
    for k in range(4):
        with pytest.raises(ParallelWitnessLines):
            wall_normal(4, k)
    with pytest.raises(ValueError):
        wall_normal(3, 0)
    for n in range(5, 65):
        for k in range(n):
            butterfly_matrix(n, k)
            wall_normal(n, k)


def test_wall_normals_are_spacelike_and_point_inward():
    """The closed forms that leave wall_normal no sign test: the class
    of e_k has Q(e_k) = -cot(2 pi/n) < 0, and it pairs positively with
    the regular polygon."""
    for n in range(5, 65):
        form = area_form(n)
        q = -1.0 / math.tan(2.0 * math.pi / n)
        ref = cyclic_fixed_point(n).coords
        for k in range(n):
            e = form.reduce(np.eye(n)[k])
            assert math.isclose(form.pairing(e, e), q, rel_tol=1e-12)
            assert form.pairing(ref, wall_normal(n, k)) > 0


def test_butterflies_are_lorentz_reflections():
    for n in (5, 6, 7):
        form = area_form(n)
        for k in range(n):
            m = butterfly_matrix(n, k)
            assert np.allclose(m @ m, np.eye(n), atol=1e-12)
            assert np.max(np.abs(m.T @ gram(n) @ m - gram(n))) <= 1e-12
            assert np.linalg.matrix_rank(m - np.eye(n), tol=1e-9) == 1
            q = quotient_map(m)
            qg = quotient_gram(n)
            assert np.max(np.abs(q.T @ qg @ q - qg)) <= 1e-10
            assert np.allclose(q @ q, np.eye(n - 2), atol=1e-10)
            w = wall_normal(n, k)
            assert np.max(np.abs(q @ w + w)) <= 1e-12
            assert abs(form.pairing(w, w) + 1.0) <= 1e-12


def test_nonconsecutive_butterflies_commute():
    n = 5
    b = [butterfly_matrix(n, k) for k in range(n)]
    assert np.allclose(b[0] @ b[2], b[2] @ b[0], atol=1e-12)
    assert np.allclose(b[1] @ b[4], b[4] @ b[1], atol=1e-12)
    assert not np.allclose(b[0] @ b[1], b[1] @ b[0], atol=1e-6)


def test_walls_are_normalized_and_adjacent_orthogonal():
    """The report's pairings are those of its walls adjacent in its
    order, bit for bit, and vanish."""
    form = area_form(5)
    walls = pentagon_walls()
    report = pentagon_report()
    order = report["order"]
    for w in walls:
        assert abs(form.pairing(w, w) + 1.0) <= 1e-9
    for i in range(5):
        wa = walls[order[i]]
        wb = walls[order[(i + 1) % 5]]
        assert report["pairings"][i] == form.pairing(wa, wb)
        assert abs(form.pairing(wa, wb)) <= 1e-9


def test_pentagon_is_right_angled_with_golden_sides():
    report = pentagon_report()
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    for angle in report["angles"]:
        assert abs(angle - math.pi / 2) <= 1e-9
    for side in report["sides"]:
        assert abs(math.cosh(side) - golden) <= 1e-12
    for v in report["vertices"]:
        form = area_form(5)
        assert abs(form.pairing(v, v) - 1.0) <= 1e-9


def test_pentagon_report_is_built_once():
    assert pentagon_report() is pentagon_report()


def test_hyperboloid_embedding_and_distance_axioms():
    rng = random.Random(91)
    form = area_form(5)
    pts = []
    for _ in range(12):
        s = random_convex_offsets(rng, 5)
        p = to_hyperbolic(s)
        assert abs(form.pairing(p.coords, p.coords) - 1.0) <= 1e-9
        pts.append(p)
    for p in pts:
        assert hyperbolic_distance(p, p) <= 1e-6
    for _ in range(40):
        a, b, c = rng.sample(pts, 3)
        dab = hyperbolic_distance(a, b)
        dbc = hyperbolic_distance(b, c)
        dac = hyperbolic_distance(a, c)
        assert abs(dab - hyperbolic_distance(b, a)) <= 1e-12
        assert dac <= dab + dbc + 1e-9


def test_distance_is_accurate_near_zero():
    rng = random.Random(31)
    form = area_form(5)
    pts = [to_hyperbolic(random_convex_offsets(rng, 5))
           for _ in range(120)]
    for p in pts:
        assert hyperbolic_distance(p, p) <= 1e-12
    for p, q in zip(pts, pts[1:]):
        cosh = form.pairing(p.coords, q.coords)
        assert math.isclose(hyperbolic_distance(p, q),
                            math.acosh(cosh), rel_tol=1e-9)


def test_scaling_offsets_does_not_move_the_point():
    rng = random.Random(6)
    for _ in range(20):
        s = random_convex_offsets(rng, 5)
        p = to_hyperbolic(s)
        q = to_hyperbolic(2.5 * s)
        assert np.max(np.abs(as_array(p) - as_array(q))) <= 1e-12


def test_nonpositive_area_rejected():
    with pytest.raises(NonPositiveArea):
        to_hyperbolic(np.array([1.0, 1.0, -2.0, 1.0]))


def test_cyclic_fixed_point_is_fixed():
    form = area_form(5)
    fp = cyclic_fixed_point(5)
    x = as_array(fp)
    assert abs(form.pairing(x, x) - 1.0) <= 1e-9
    cq = quotient_map(cyclic_matrix(5))
    assert np.max(np.abs(cq @ x - x)) <= 1e-9
    regular = to_hyperbolic(np.ones(5))
    assert np.max(np.abs(as_array(regular) - x)) <= 1e-9


def test_fixed_point_inside_wall_pentagon():
    form = area_form(5)
    fp = as_array(cyclic_fixed_point(5))
    for w in pentagon_walls():
        assert form.pairing(fp, w) > 0


def test_wall_intersection_lies_on_both_walls():
    """Each closed-form vertex of the report is the numeric Lorentz
    cross-product intersection of its two walls."""
    form = area_form(5)
    report = pentagon_report()
    walls, order = report["walls"], report["order"]
    for i, v in enumerate(report["vertices"]):
        wa, wb = walls[order[i]], walls[order[(i + 1) % 5]]
        assert np.max(np.abs(v - oracle_wall_intersection(wa, wb))) <= 1e-12
        assert abs(form.pairing(v, wa)) <= 1e-9
        assert abs(form.pairing(v, wb)) <= 1e-9


def test_wall_gram_closed_form():
    """The wall normals pair as -I + (C + C^T)/(2 cos(2 pi/n)): -1 with
    themselves, 1/(2 cos(2 pi/n)) with their neighbours, 0 otherwise."""
    for n in range(5, 13):
        w = np.array([wall_normal(n, k) for k in range(n)])
        c = cyclic_matrix(n)
        closed = -np.eye(n) + (c + c.T) / (2.0 * math.cos(math.tau / n))
        assert np.max(np.abs(w @ quotient_gram(n) @ w.T - closed)) <= 1e-12


def test_wall_pairings_are_signed_edge_lengths():
    """Edge k has signed length 2 (G s)_k, and the moduli point pairs
    with wall k in proportion to it: times 2 sqrt(Q(s) cot(2 pi/n))."""
    rng = random.Random(1100)
    for n in range(5, 13):
        form = area_form(n)
        cot = 1.0 / math.tan(math.tau / n)
        walls = [wall_normal(n, k) for k in range(n)]
        for _ in range(50):
            s = random_convex_offsets(rng, n)
            lengths = signed_edge_lengths(s)
            tol = 1e-12 * np.max(np.abs(lengths))
            assert np.max(np.abs(2.0 * gram(n) @ s - lengths)) <= tol
            x = as_array(to_hyperbolic(s))
            scale = 2.0 * math.sqrt(form_value(s) * cot)
            paired = np.array([form.pairing(x, w) * scale for w in walls])
            assert np.max(np.abs(paired - lengths)) <= tol


def test_convex_equilateral_polygons_lie_inside_all_walls():
    rng = random.Random(1100)
    for n in range(5, 11):
        form = area_form(n)
        walls = [wall_normal(n, k) for k in range(n)]
        for _ in range(200):
            x = as_array(equilateral_to_hyperbolic(
                random_convex_equilateral(rng, n)))
            assert min(form.pairing(x, w) for w in walls) > 0


def test_disk_projection_is_an_isometry():
    """Disk distances match the hyperboloid's: the Mobius form on the
    one- and two-dimensional disks, the Poincare ball form above."""
    rng = random.Random(10)
    for n in (4, 5, 6, 9, 32):
        pts = []
        for _ in range(10):
            p = to_hyperbolic(random_convex_offsets(rng, n))
            z = np.asarray(to_disk(p))
            assert len(z) == n - 3 and np.linalg.norm(z) < 1.0
            pts.append((p, z))
        for _ in range(30):
            (p, z), (q, w) = rng.sample(pts, 2)
            if n <= 5:
                z, w = (complex(*np.append(v, 0.0)[:2]) for v in (z, w))
                d_disk = 2.0 * math.atanh(abs(z - w)
                                          / abs(1.0 - z * w.conjugate()))
            else:
                d_disk = 2.0 * math.asinh(np.linalg.norm(z - w) / math.sqrt(
                    (1.0 - z @ z) * (1.0 - w @ w)))
            assert abs(d_disk - hyperbolic_distance(p, q)) <= 1e-9
