import math
import random

import numpy as np
import pytest

from symtiling.errors import NonPositiveArea, ParallelWitnessLines
from symtiling.moduli import (HyperbolicPoint, area_form, butterfly,
                              butterfly_matrix, chart_c_coordinate,
                              cyclic_fixed_point, cyclic_matrix,
                              family_directions, family_normals,
                              hyperbolic_distance, is_convex_offsets,
                              line_intersection, pentagon_report,
                              pentagon_wall_order, pentagon_walls,
                              polygon_from_offsets, quotient_map,
                              random_convex_offsets, reference_point,
                              signed_area, signed_edge_lengths, to_disk,
                              to_hyperbolic, translation_offsets,
                              vertices_from_offsets, wall_intersection,
                              wall_normal)


def oracle_polarized_gram(n):
    """Gram matrix of signed area by polarizing the shoelace area over
    pairs of basis offsets."""
    basis = np.eye(n)
    diag = [signed_area(basis[i]) for i in range(n)]
    gram = np.empty((n, n))
    for i in range(n):
        gram[i, i] = diag[i]
        for j in range(i + 1, n):
            both = signed_area(basis[i] + basis[j])
            gram[i, j] = gram[j, i] = (both - diag[i] - diag[j]) / 2.0
    return gram


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
        t = translation_offsets(n)
        nm = family_normals(n)
        shift = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2)])
        s = random_convex_offsets(random.Random(n), n)
        moved = s + t @ shift
        assert np.allclose(moved - s, nm @ shift)
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
        assert abs(signed_area(s) - poly.signed_area()) <= 1e-9
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
        form = area_form(n)
        assert np.max(np.abs(form.gram - oracle_polarized_gram(n))) <= 1e-12
        for _ in range(20):
            s = np.array([rng.uniform(-1, 2) for _ in range(n)])
            assert abs(form.value(s) - signed_area(s)) <= 1e-9


def test_radical_and_signature():
    for n in range(4, 11):
        form = area_form(n)
        t = translation_offsets(n)
        assert np.max(np.abs(form.gram @ t)) <= 1e-9
        eigs = np.linalg.eigvalsh(form.gram)
        null = np.sum(np.abs(eigs) <= 1e-9)
        assert null == 2
        qeigs = np.linalg.eigvalsh(form.quotient_gram)
        assert np.sum(qeigs > 1e-9) == 1
        assert np.sum(qeigs < -1e-9) == n - 3
    for n in (*range(4, 13), 30, 64, 101, 200):
        theta = 2.0 * math.pi / n
        closed = np.sort((np.cos(theta * np.arange(n)) - math.cos(theta))
                         / math.sin(theta))
        eigs = np.linalg.eigvalsh(area_form(n).gram)
        assert np.max(np.abs(eigs - closed)) <= 1e-12 * max(1.0, closed[-1])


def test_reduce_is_translation_invariant_and_embeds_back():
    rng = random.Random(31)
    for n in (5, 7):
        form = area_form(n)
        t = translation_offsets(n)
        for _ in range(20):
            s = random_convex_offsets(rng, n)
            shift = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1)])
            assert np.allclose(form.reduce(s), form.reduce(s + t @ shift),
                               atol=1e-9)
            x = form.reduce(s)
            assert abs(form.value(form.embed(x)) - form.value(s)) <= 1e-9
            assert abs(form.pairing(x, x) - form.value(s)) <= 1e-9


def oracle_gauge_reduce(s, gauge):
    """Coordinates left after solving for the translation that zeroes
    the two gauge offsets, and the Gram matrix of the kept offsets: the
    solve-based reduction that the closed form replaced."""
    n = len(s)
    t = translation_offsets(n)
    g = list(gauge)
    keep = [i for i in range(n) if i not in gauge]
    x = (s + t @ np.linalg.solve(t[g], -s[g]))[keep]
    return x, area_form(n).gram[np.ix_(keep, keep)]


def test_closed_form_reduce_matches_the_gauge_solve_oracle():
    rng = random.Random(47)

    def distance(x, y, gram):
        v = x - y
        return 2.0 * math.asinh(0.5 * math.sqrt(max(0.0, -(v @ gram @ v))))

    for n in (5, 7):
        form = area_form(n)
        for _ in range(20):
            s1 = random_convex_offsets(rng, n)
            s2 = random_convex_offsets(rng, n)
            x, _ = oracle_gauge_reduce(s1, (0, 1))
            assert np.allclose(form.reduce(s1), x, rtol=1e-12, atol=1e-12)
            closed = hyperbolic_distance(to_hyperbolic(s1, form),
                                         to_hyperbolic(s2, form), form)
            for gauge in ((0, 1), (2, 4)):
                x1, gram = oracle_gauge_reduce(s1 / math.sqrt(form.value(s1)),
                                               gauge)
                x2, _ = oracle_gauge_reduce(s2 / math.sqrt(form.value(s2)),
                                            gauge)
                assert abs(distance(x1, x2, gram) - closed) <= 1e-9


def test_fourier_frame_diagonalizes_the_quotient_form():
    for n in (*range(4, 13), 30, 64, 200):
        form = area_form(n)
        signs = np.diag([1.0] + [-1.0] * (n - 3))
        q = form.quotient_gram
        assert form.frame.shape == (n - 2, n - 2)
        assert np.max(np.abs(form.frame.T @ signs @ form.frame - q)) <= (
            1e-12 * max(1.0, np.max(np.abs(q))))


def test_regular_polygon_is_the_disk_centre():
    for n in (*range(4, 13), 32):
        form = area_form(n)
        assert np.linalg.norm(to_disk(cyclic_fixed_point(form), form)) <= 1e-12


def test_butterfly_reflects_vertex_through_neighbor_intersection():
    rng = random.Random(3)
    for n in (5, 8):
        nm = family_normals(n)
        for _ in range(10):
            s = random_convex_offsets(rng, n)
            k = rng.randrange(n)
            s2 = butterfly(s, k)
            others = [i for i in range(n) if i != k]
            assert np.allclose(s2[others], s[others])
            p = line_intersection(n, s, (k - 1) % n, (k + 1) % n)
            assert abs(s2[k] - (2.0 * float(nm[k] @ p) - s[k])) <= 1e-9


def test_square_butterfly_has_parallel_witness_lines():
    with pytest.raises(ParallelWitnessLines):
        butterfly_matrix(4, 0)
    with pytest.raises(ParallelWitnessLines):
        butterfly(np.ones(4), 2)
    with pytest.raises(ParallelWitnessLines):
        wall_normal(area_form(4), 0)


def test_butterflies_are_lorentz_reflections():
    for n in (5, 6, 7):
        form = area_form(n)
        for k in range(n):
            m = butterfly_matrix(n, k)
            assert np.allclose(m @ m, np.eye(n), atol=1e-12)
            assert np.max(np.abs(m.T @ form.gram @ m - form.gram)) <= 1e-12
            assert np.linalg.matrix_rank(m - np.eye(n), tol=1e-9) == 1
            q = quotient_map(form, m)
            qg = form.quotient_gram
            assert np.max(np.abs(q.T @ qg @ q - qg)) <= 1e-10
            assert np.allclose(q @ q, np.eye(n - 2), atol=1e-10)
            w = wall_normal(form, k)
            assert np.max(np.abs(q @ w + w)) <= 1e-12
            assert abs(form.pairing(w, w) + 1.0) <= 1e-12


def test_nonconsecutive_butterflies_commute():
    n = 5
    b = [butterfly_matrix(n, k) for k in range(n)]
    assert np.allclose(b[0] @ b[2], b[2] @ b[0], atol=1e-12)
    assert np.allclose(b[1] @ b[4], b[4] @ b[1], atol=1e-12)
    assert not np.allclose(b[0] @ b[1], b[1] @ b[0], atol=1e-6)


def test_walls_are_normalized_and_adjacent_orthogonal():
    form = area_form(5)
    walls = pentagon_walls(form)
    order = pentagon_wall_order()
    for w in walls:
        assert abs(form.pairing(w, w) + 1.0) <= 1e-9
    for i in range(5):
        wa = walls[order[i]]
        wb = walls[order[(i + 1) % 5]]
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


def test_hyperboloid_embedding_and_distance_axioms():
    rng = random.Random(91)
    form = area_form(5)
    pts = []
    for _ in range(12):
        s = random_convex_offsets(rng, 5)
        p = to_hyperbolic(s, form)
        assert abs(form.pairing(p.as_array(), p.as_array()) - 1.0) <= 1e-9
        pts.append(p)
    for p in pts:
        assert hyperbolic_distance(p, p, form) <= 1e-6
    for _ in range(40):
        a, b, c = rng.sample(pts, 3)
        dab = hyperbolic_distance(a, b, form)
        dbc = hyperbolic_distance(b, c, form)
        dac = hyperbolic_distance(a, c, form)
        assert abs(dab - hyperbolic_distance(b, a, form)) <= 1e-12
        assert dac <= dab + dbc + 1e-9


def test_distance_is_accurate_near_zero():
    rng = random.Random(31)
    form = area_form(5)
    pts = [to_hyperbolic(random_convex_offsets(rng, 5), form)
           for _ in range(120)]
    for p in pts:
        assert hyperbolic_distance(p, p, form) <= 1e-12
    for p, q in zip(pts, pts[1:]):
        cosh = form.pairing(p.as_array(), q.as_array())
        assert math.isclose(hyperbolic_distance(p, q, form),
                            math.acosh(cosh), rel_tol=1e-9)


def test_scaling_offsets_does_not_move_the_point():
    rng = random.Random(6)
    form = area_form(5)
    for _ in range(20):
        s = random_convex_offsets(rng, 5)
        p = to_hyperbolic(s, form)
        q = to_hyperbolic(2.5 * s, form)
        assert np.max(np.abs(p.as_array() - q.as_array())) <= 1e-12


def test_nonpositive_area_rejected():
    form = area_form(4)
    with pytest.raises(NonPositiveArea):
        to_hyperbolic(np.array([1.0, 1.0, -2.0, 1.0]), form)


def test_cyclic_fixed_point_is_fixed():
    form = area_form(5)
    fp = cyclic_fixed_point(form)
    x = fp.as_array()
    assert abs(form.pairing(x, x) - 1.0) <= 1e-9
    cq = quotient_map(form, cyclic_matrix(5))
    assert np.max(np.abs(cq @ x - x)) <= 1e-9
    regular = to_hyperbolic(np.ones(5), form)
    assert np.max(np.abs(regular.as_array() - x)) <= 1e-9
    ref = reference_point(form)
    assert np.max(np.abs(ref - x)) <= 1e-9


def test_fixed_point_inside_wall_pentagon():
    form = area_form(5)
    fp = cyclic_fixed_point(form).as_array()
    for w in pentagon_walls(form):
        assert form.pairing(fp, w) > 0


def test_wall_intersection_lies_on_both_walls():
    form = area_form(5)
    walls = pentagon_walls(form)
    order = pentagon_wall_order()
    for i in range(5):
        wa, wb = walls[order[i]], walls[order[(i + 1) % 5]]
        v = wall_intersection(form, wa, wb)
        assert abs(form.pairing(v, wa)) <= 1e-9
        assert abs(form.pairing(v, wb)) <= 1e-9


def test_chart_coordinate_is_translation_invariant_linear():
    rng = random.Random(77)
    t = translation_offsets(5)
    for _ in range(20):
        s = random_convex_offsets(rng, 5)
        shift = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1)])
        assert abs(chart_c_coordinate(s)
                   - chart_c_coordinate(s + t @ shift)) <= 1e-9
        s2 = random_convex_offsets(rng, 5)
        lhs = chart_c_coordinate(0.5 * (s + s2))
        rhs = 0.5 * (chart_c_coordinate(s) + chart_c_coordinate(s2))
        assert abs(lhs - rhs) <= 1e-9


def test_disk_projection_is_an_isometry():
    """Disk distances match the hyperboloid's: the Mobius form on the
    one- and two-dimensional disks, the Poincare ball form above."""
    rng = random.Random(10)
    for n in (4, 5, 6, 9, 32):
        form = area_form(n)
        pts = []
        for _ in range(10):
            p = to_hyperbolic(random_convex_offsets(rng, n), form)
            z = to_disk(p, form)
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
            assert abs(d_disk - hyperbolic_distance(p, q, form)) <= 1e-9
