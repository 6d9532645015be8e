"""Projective point sets: normalization, constructors, parsing, evaluation
matrices, vanishing ideals, and zero sets."""

import itertools
import random
import time

import numpy as np
import pytest

from rghw.field import PrimeField
from rghw.groebner import Ideal
from rghw.linalg import ModulusTooLargeError, matrix_rank, rref
from rghw.monideal import GradedQuotientSummary, monomial_quotient_degree
from rghw import points
from rghw.points import (
    ProjectivePointSet,
    affine_cartesian,
    all_projective_points,
    evaluation_matrix,
    format_points,
    parse_points,
    projective_torus,
    projective_zero_set,
    zero_set,
)
from rghw.polyring import GREVLEX, GRLEX, LEX, ORDERS, PolyRing, divides, monomials_of_degree

from oracles import ideal_equal, projective_reps, vanishing_ideal_by_buchberger


def random_point_set(rng, q, s, n):
    field = PrimeField(q)
    pool = list(all_projective_points(q, s))
    return ProjectivePointSet(field, rng.sample(pool, n))


def test_normalize_examples():
    f5 = PrimeField(5)
    assert ProjectivePointSet(f5, [(2, 4, 0)])[0] == (1, 2, 0)
    assert ProjectivePointSet(f5, [(0, 0, 3)])[0] == (0, 0, 1)
    assert ProjectivePointSet(f5, [(1, 2, 0)])[0] == (1, 2, 0)
    # scaling by any nonzero constant lands on the same representative
    assert ProjectivePointSet(f5, [(3, 6, 0)])[0] == ProjectivePointSet(f5, [(2, 4, 0)])[0]


def test_coordinates_must_be_integers():
    # numpy integers are integers; a float is refused, not truncated
    f5 = PrimeField(5)
    assert ProjectivePointSet(f5, [np.array([2, 4, 0])])[0] == (1, 2, 0)
    assert ProjectivePointSet(f5, [(np.int64(7), np.uint8(1))])[0] == (1, 3)
    assert len(affine_cartesian(5, [np.arange(3), (np.int32(1),)])) == 3
    with pytest.raises(TypeError):
        ProjectivePointSet(f5, [(1.5, 2.9)])
    with pytest.raises(TypeError):
        affine_cartesian(5, [(0.5, 1.7)])


def test_zero_vector_rejected():
    with pytest.raises(ValueError):
        ProjectivePointSet(PrimeField(3), [(0, 0, 0)])


def test_point_set_rejects_duplicates_and_mixed_widths():
    f3 = PrimeField(3)
    with pytest.raises(ValueError, match="duplicate"):
        ProjectivePointSet(f3, [(1, 0), (2, 0)])  # both normalize to [1:0]
    with pytest.raises(ValueError, match="mixed"):
        ProjectivePointSet(f3, [(1, 0), (1, 0, 1)])
    with pytest.raises(ValueError, match="empty"):
        ProjectivePointSet(f3, [])


def test_torus_sizes():
    assert len(projective_torus(5, 3)) == 16
    assert len(projective_torus(3, 4)) == 8
    assert len(projective_torus(2, 4)) == 1
    for p in projective_torus(5, 3):
        assert all(v for v in p)


def test_cartesian_sizes():
    assert len(affine_cartesian(3, [(0, 1, 2), (0, 1, 2)])) == 9
    assert len(affine_cartesian(5, [(0, 1), (0, 1)])) == 4
    X = affine_cartesian(5, [(2,)])
    assert len(X) == 1
    assert X[0] == (1, 3)  # [2:1] scaled so the lead coordinate is 1
    # [x : 1] up to scaling; [0:2:1] lands on the representative [0:1:2]
    got = set(affine_cartesian(3, [(0, 1), (1, 2)]))
    assert got == {(0, 1, 1), (0, 1, 2), (1, 1, 1), (1, 2, 1)}


def test_all_projective_points_count():
    assert len(all_projective_points(3, 3)) == 13
    assert len(all_projective_points(5, 2)) == 6
    assert len(all_projective_points(2, 4)) == 15
    pts = all_projective_points(3, 3)
    assert len(set(pts)) == len(pts)


def test_parse_and_format_round_trip():
    text = "# sample\n1:0:0\n0:1:0  # axis\n1:2:3\n"
    X = parse_points(text, 5)
    assert len(X) == 3
    assert list(parse_points(format_points(X), 5)) == list(X)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        parse_points("1:0\nbad:x\n", 5)
    with pytest.raises(ValueError, match="line 3"):
        parse_points("1:0\n0:1\n2:0\n", 5)  # [2:0] duplicates [1:0]
    with pytest.raises(ValueError, match="line 2"):
        parse_points("1:0\n1:2:3\n", 5)
    with pytest.raises(ValueError, match="^line 2: projective point needs a nonzero coordinate$"):
        parse_points("1:0\n0:0\n", 5)


def test_single_point_vanishing_ideal():
    f3 = PrimeField(3)
    X = ProjectivePointSet(f3, [(1, 0, 0)])
    ideal = X.vanishing_ideal()
    assert sorted(g.format() for g in ideal.groebner_basis()) == ["t2", "t3"]
    assert ideal.degree() == 1
    assert ideal.quotient_summary().reg_index == 0


def test_collinear_points_reach_a_high_regularity_fast():
    # 30 points on a line of P^9/F_31: t3..t10 lead from degree 1 on, so each
    # later degree has d + 1 standard monomials, up to the regularity index 29
    X = ProjectivePointSet(PrimeField(31), [(1, a) + (0,) * 8 for a in range(30)])
    start = time.perf_counter()
    ideal = X.vanishing_ideal()
    assert ideal.quotient_summary().reg_index == 29
    assert sorted(g.degree() for g in ideal.groebner_basis()) == [1] * 8 + [30]
    assert time.perf_counter() - start < 5.0


def test_coordinate_points_certify_fast():
    # e_2, ..., e_24 in P^23/F_2: t1 leads in degree 1 and every t_i t_j with
    # 2 <= i < j in degree 2, so the quotient by the degree-1 leads alone has
    # dimension 23, and its standard monomials lie on 23 rays
    X = ProjectivePointSet(PrimeField(2), [tuple(int(i == j) for i in range(24)) for j in range(1, 24)])
    start = time.perf_counter()
    ideal = X.vanishing_ideal()
    assert ideal.quotient_summary() == GradedQuotientSummary((1,) + (23,) * 25, 1, 23, 1)
    assert sorted(g.degree() for g in ideal.groebner_basis()) == [1] + [2] * 253
    assert time.perf_counter() - start < 5.0


def test_torus_ideals_match_binomial_presentations():
    # both routes: the closed form for grids and the linear algebra
    X2 = projective_torus(5, 3)
    ring3 = PolyRing(PrimeField(5), 3)
    shown2 = Ideal(ring3, [ring3.parse("t1^4 - t3^4"), ring3.parse("t2^4 - t3^4")])
    assert ideal_equal(X2.vanishing_ideal(), shown2)
    assert ideal_equal(points.vanishing_ideal(X2), shown2)

    X3 = projective_torus(3, 4)
    ring4 = PolyRing(PrimeField(3), 4)
    shown3 = Ideal(
        ring4,
        [ring4.parse("t1^2 - t4^2"), ring4.parse("t2^2 - t4^2"), ring4.parse("t3^2 - t4^2")],
    )
    assert ideal_equal(X3.vanishing_ideal(), shown3)
    assert ideal_equal(points.vanishing_ideal(X3), shown3)


def test_torus_ideal_of_a_large_factor_is_fast():
    # prod_{a in F_q^*} (t1 - a t2) = t1^(q-1) - t2^(q-1), multiplied out in
    # about q^2 coefficient steps
    X = projective_torus(4001, 2)
    start = time.perf_counter()
    basis = X.vanishing_ideal().groebner_basis()
    elapsed = time.perf_counter() - start
    assert basis == [PolyRing(PrimeField(4001), 2).parse("t1^4000 - t2^4000")]
    assert elapsed < 0.3, f"torus ideal over F_4001 took {elapsed:.2f} s"


def grid_point_sets():
    """The tori with q <= 7, s <= 4 and at most 64 points, then 30 seeded
    random Cartesian sets with q <= 7, s <= 4 and at most 64 points."""
    for q in (2, 3, 5, 7):
        for s in (2, 3, 4):
            if (q - 1) ** (s - 1) <= 64:
                yield projective_torus(q, s)
    rng = random.Random(2014)
    count = 0
    while count < 30:
        q = rng.choice([2, 3, 5, 7])
        factors = [rng.sample(range(q), rng.randint(1, q)) for _ in range(rng.choice([1, 2, 3]))]
        if np.prod([len(A) for A in factors]) <= 64:
            count += 1
            yield affine_cartesian(q, factors)


def test_grid_ideals_match_linear_algebra_and_buchberger():
    for X in grid_point_sets():
        assert X.factors is not None
        for order in ORDERS.values():
            got = X.vanishing_ideal(order)
            for want in (points.vanishing_ideal(X, order), vanishing_ideal_by_buchberger(X, order)):
                assert got.groebner_basis() == want.groebner_basis(), (X, order)
                assert got.initial_ideal().gens == want.initial_ideal().gens, (X, order)
                assert got.quotient_summary() == want.quotient_summary(), (X, order)


def test_grid_summary_is_the_monomial_quotient_degree(seed=3000):
    # larger grids than the oracles reach, including factors of one element
    rng = random.Random(seed)
    for _ in range(100):
        q = rng.choice([2, 3, 5, 7, 11, 13])
        factors = [rng.sample(range(q), rng.randint(1, q)) for _ in range(rng.randint(1, 4))]
        if np.prod([len(A) for A in factors]) > 5000:
            continue
        X = affine_cartesian(q, factors)
        assert {tuple(map(int, row[:-1] * pow(int(row[-1]), -1, q) % q)) for row in X.coords} \
            == set(itertools.product(*(map(int, A) for A in X.factors)))
        for order in ORDERS.values():
            ideal = X.vanishing_ideal(order)
            assert ideal.quotient_summary() == monomial_quotient_degree(ideal.initial_ideal())
            assert ideal.degree() == len(X)


def test_constructor_rows_are_distinct_and_standard():
    # the constructors skip the point-set checks, so their rows must pass them
    conic = PolyRing(PrimeField(5), 3).parse("t1^2 - t2*t3")
    for q, coords in [
        (5, projective_torus(5, 3).coords),
        (2, projective_torus(2, 4).coords),
        (7, affine_cartesian(7, [(0, 3, 5), (6, 2), (4,)]).coords),
        (5, affine_cartesian(5, [range(5)] * 3).coords),
        (3, all_projective_points(3, 4).coords),
        (2, all_projective_points(2, 1).coords),
        (5, projective_zero_set(5, 3, [conic])),
    ]:
        assert points._first_repeat(coords) is None
        assert np.array_equal(points._standard_position(coords, q), coords)
        assert ((0 <= coords) & (coords < q)).all()


def test_vanishing_ideal_generators_vanish(seed=82901):
    rng = random.Random(seed)
    for _ in range(10):
        q = rng.choice([2, 3, 5])
        s = rng.choice([2, 3])
        n = rng.randrange(1, min(7, len(all_projective_points(q, s))) + 1)
        X = random_point_set(rng, q, s, n)
        ideal = X.vanishing_ideal()
        for g in ideal.groebner_basis():
            for p in X:
                total = 0
                for mono, coeff in g.terms.items():
                    assert type(coeff) is int and 0 < coeff < q
                    val = coeff
                    for i, e in enumerate(mono):
                        val = val * pow(p[i], e, q) % q
                    total = (total + val) % q
                assert total == 0
        assert ideal.degree() == len(X)


def test_hilbert_function_equals_evaluation_rank(seed=15101):
    rng = random.Random(seed)
    ring_cache = {}
    for _ in range(8):
        q = rng.choice([2, 3])
        s = 3
        n = rng.randrange(2, min(8, len(all_projective_points(q, s))) + 1)
        X = random_point_set(rng, q, s, n)
        ideal = X.vanishing_ideal()
        ring = ring_cache.setdefault(q, PolyRing(PrimeField(q), s))
        reg = ideal.quotient_summary().reg_index
        for d in range(1, reg + 3):
            basis = ring.monomials_of_degree(d)
            rows = evaluation_matrix(X, basis)
            assert ideal.hilbert_function(d) == matrix_rank(rows.T.copy(), q)


def oracle_point_sets():
    """The eight sets of test_hilbert_function_equals_evaluation_rank (seed
    15101), then 22 more with q in {2, 3, 5, 7} and s in {2, 3, 4}."""
    rng = random.Random(15101)
    for _ in range(8):
        q = rng.choice([2, 3])
        n = rng.randrange(2, min(8, len(all_projective_points(q, 3))) + 1)
        yield random_point_set(rng, q, 3, n)
    rng = random.Random(60713)
    for _ in range(22):
        q = rng.choice([2, 3, 5, 7])
        s = rng.choice([2, 3, 4])
        n = rng.randrange(1, min(9, len(all_projective_points(q, s))) + 1)
        yield random_point_set(rng, q, s, n)


def test_vanishing_ideal_matches_buchberger_oracle():
    above_reg_plus_one = 0
    for X in oracle_point_sets():
        for order in (GREVLEX, GRLEX, LEX):
            got = X.vanishing_ideal(order)
            want = vanishing_ideal_by_buchberger(X, order)
            assert got.groebner_basis() == want.groebner_basis()
            assert got.quotient_summary() == want.quotient_summary()
            reg = got.quotient_summary().reg_index
            tops = [g.degree() for g in got.groebner_basis()]
            above_reg_plus_one += max(tops, default=0) > reg + 1
    # the sets include initial ideals with a generator beyond reg + 1, the
    # degree where the rank scan alone would have stopped
    assert above_reg_plus_one > 0


@pytest.mark.parametrize("order", sorted(ORDERS))
def test_vanishing_ideal_border_is_the_degree_slice(monkeypatch, order):
    # each degree's columns are the degree-d monomials that no leading
    # monomial of lower degree divides, and each column's evaluation row,
    # built as a row of the last degree times a coordinate, is its own
    walks, matrices = [], []

    def walked(nvars, d, avoid):
        columns = monomials_of_degree(nvars, d, avoid)
        walks.append(columns)
        return columns

    def reduced(A, q):
        matrices.append(A.copy())
        return rref(A, q)

    monkeypatch.setattr(points, "monomials_of_degree", walked)
    monkeypatch.setattr(points, "rref", reduced)
    rng = random.Random(sorted(ORDERS).index(order))
    for _ in range(25):
        q = rng.choice([2, 3, 5, 7])
        s = rng.choice([2, 3, 4])
        n = rng.randrange(1, min(24, len(all_projective_points(q, s))) + 1)
        X = random_point_set(rng, q, s, n)
        walks.clear()
        matrices.clear()
        ideal = points.vanishing_ideal(X, ORDERS[order])
        leads = [g.leading_monomial(ORDERS[order]) for g in ideal.groebner_basis()]
        ring = PolyRing(q, s)
        assert walks and len(walks) == len(matrices)
        for d, (columns, A) in enumerate(zip(walks, matrices)):
            lower = [g for g in leads if sum(g) < d]
            want = [m for m in ring.monomials_of_degree(d) if not any(divides(g, m) for g in lower)]
            assert columns == want, (X, order, d)
            assert (A.T == evaluation_matrix(X, ORDERS[order].sorted(columns))).all()


def test_sixty_points_in_p3_over_f5_are_fast():
    X = random_point_set(random.Random(60), 5, 4, 60)
    start = time.perf_counter()
    ideal = X.vanishing_ideal()
    elapsed = time.perf_counter() - start
    summary = ideal.quotient_summary()
    assert summary.degree == 60
    ring = ideal.ring
    for d in range(summary.reg_index + 3):
        rows = evaluation_matrix(X, ring.monomials_of_degree(d))
        assert ideal.hilbert_function(d) == matrix_rank(rows, 5)
    assert elapsed < 10.0, f"vanishing ideal of 60 points took {elapsed:.1f} s"


def test_evaluation_matrix_known_rows():
    X = projective_torus(3, 4)
    ring = PolyRing(PrimeField(3), 4)
    rows = evaluation_matrix(X, [ring.parse("t1")])
    assert rows.shape == (1, 8)
    assert (rows == 1).all()  # torus points are normalized to t1 = 1
    member = ring.parse("t1^2 - t4^2")
    assert (evaluation_matrix(X, [member]) == 0).all()
    assert evaluation_matrix(X, []).shape == (0, 8)


def test_evaluation_matrix_rejects_bad_bases():
    X = projective_torus(3, 4)
    ring = PolyRing(PrimeField(3), 4)
    with pytest.raises(ValueError):
        evaluation_matrix(X, [ring.parse("t1 + t2^2")])
    with pytest.raises(ValueError):
        evaluation_matrix(X, [ring.parse("t1"), ring.parse("t2^2")])
    with pytest.raises(ValueError):
        evaluation_matrix(X, [ring.parse("0")])


def test_evaluation_matrix_rejects_a_variable_count_off_the_points():
    # the torus in P^1 has 2 coordinates: a third exponent must not be
    # dropped, and a missing one must not surface as an IndexError
    X = projective_torus(5, 2)
    for entry in ((1, 1, 1), PolyRing(PrimeField(5), 3).parse("t1 - t3"),
                  (2,), PolyRing(PrimeField(5), 1).parse("t1")):
        with pytest.raises(ValueError, match="2 coordinates"):
            evaluation_matrix(X, [entry])
    with pytest.raises(ValueError, match="2 coordinates"):
        zero_set(X, [PolyRing(PrimeField(5), 3).parse("t1 - t3")])
    assert evaluation_matrix(X, [(1, 1)]).shape == (1, len(X))


def test_evaluation_matrix_rejects_float_and_negative_exponents():
    X = projective_torus(5, 2)
    with pytest.raises(TypeError):
        evaluation_matrix(X, [(1.5, 0.5)])
    with pytest.raises(ValueError, match="negative"):
        evaluation_matrix(X, [(3, -1)])
    assert (evaluation_matrix(X, [np.array([1, 1])]) == evaluation_matrix(X, [(1, 1)])).all()


def test_zero_set_examples():
    X3 = projective_torus(3, 4)
    ring = PolyRing(PrimeField(3), 4)
    hits = zero_set(X3, [ring.parse("t1 - t2")])
    assert len(hits) == 4
    assert all(p[0] == p[1] for p in hits)
    assert len(zero_set(projective_torus(5, 3), [PolyRing(PrimeField(5), 3).parse("t1")])) == 0
    with pytest.raises(ValueError):
        zero_set(X3, [ring.parse("t1 + t2^2")])


@pytest.mark.parametrize("step", [1, 4, 7, 1 << 16])
def test_projective_zero_set_matches_the_whole_space(monkeypatch, step, seed=3061):
    # the chart-by-chart search finds the zero set that filtering every
    # representative of P^(s-1)(F_q) finds, in the same order, whether a
    # step holds part of one coordinate's values, several heads, or a whole
    # chart
    monkeypatch.setattr(points, "_SEARCH_STEP", step)
    rng = random.Random(seed)
    for q, s in ((2, 4), (3, 3), (5, 2), (5, 3), (2, 1)):
        ring = PolyRing(PrimeField(q), s)
        space = ProjectivePointSet(PrimeField(q), projective_reps(s, q))
        # with no polynomials the search is the whole space, row for row
        assert all_projective_points(q, s).coords.tolist() == space.coords.tolist()
        for _ in range(4):
            polys = []
            for _ in range(rng.randrange(0, 3)):
                pool = ring.monomials_of_degree(rng.randrange(1, 3))
                terms = rng.sample(pool, rng.randrange(1, min(3, len(pool)) + 1))
                polys.append(ring.from_terms({m: rng.randrange(1, q) for m in terms}))
            found = projective_zero_set(q, s, polys)
            assert found.tolist() == zero_set(space, polys).tolist(), (q, s, step)


def test_projective_zero_set_caps_the_zeros_and_the_search(monkeypatch):
    ring = PolyRing(PrimeField(3), 4)
    line = [ring.parse("t1"), ring.parse("t2")]
    # MAX_POINTS caps the zero set, not the 40 points searched
    monkeypatch.setattr(points, "MAX_POINTS", 4)
    assert projective_zero_set(3, 4, line).tolist() == [[0, 0, 1, 0], [0, 0, 1, 1],
                                                         [0, 0, 1, 2], [0, 0, 0, 1]]
    with pytest.raises(ValueError, match="would have 13 points; at most 4 can be"):
        projective_zero_set(3, 4, line[:1])
    monkeypatch.setattr(points, "MAX_SEARCHED", 39)
    with pytest.raises(ValueError, match=r"P\^3\(F_3\) has 40 points; at most 39 can be searched"):
        projective_zero_set(3, 4, line)


def test_nonvanishing_count_matches_degree_drop(seed=69307):
    # points outside the zero set of F are counted by the degree drop from
    # S/I to S/(I, F), whenever the zero set meets X
    rng = random.Random(seed)
    for _ in range(10):
        q = rng.choice([2, 3])
        X = random_point_set(rng, q, 3, rng.randrange(2, 7))
        ring = PolyRing(PrimeField(q), 3)
        ideal = X.vanishing_ideal()
        pool = ring.monomials_of_degree(1) + ring.monomials_of_degree(2)
        f = ring.from_terms({rng.choice(pool): rng.randrange(1, q)})
        hits = zero_set(X, [f])
        if not len(hits):
            continue
        bigger = Ideal(ring, list(ideal.groebner_basis()) + [f])
        assert len(X) - len(hits) == ideal.degree() - bigger.degree()


def test_vanishing_ideal_respects_order_cache():
    X = projective_torus(5, 3)
    first = X.vanishing_ideal()
    assert X.vanishing_ideal() is first

    from rghw.polyring import LEX

    other = X.vanishing_ideal(LEX)
    assert other is not first
    assert ideal_equal(first, other)


def test_coordinate_matrix_shape():
    X = projective_torus(3, 4)
    assert X.coords.shape == (8, 4)
    assert (X.coords[:, 0] == 1).all()


def test_large_prime_basis_vanishes_exactly():
    # q = 10^9 + 7 keeps (q-1)^2 below 2^63; the basis must vanish on the
    # points when evaluated with Python integers, not int64
    q = 10**9 + 7
    coords = [(1, 2, 3), (1, 0, 0), (0, 1, 0), (0, 0, 1), (5, 7, 1000000000)]
    X = ProjectivePointSet(PrimeField(q), coords)
    ideal = X.vanishing_ideal()
    assert ideal.degree() == len(coords)
    for g in ideal.groebner_basis():
        for p in coords:
            value = 0
            for mono, coeff in g.terms.items():
                assert type(coeff) is int and 0 < coeff < q
                term = coeff
                for v, e in zip(p, mono):
                    term = term * pow(v, e, q) % q
                value += term
            assert value % q == 0, (g, p)


def test_evaluation_refuses_moduli_beyond_int64():
    # the point set itself refuses such q, before anything is evaluated
    with pytest.raises(ValueError, match="q <= 3037000500"):
        ProjectivePointSet(PrimeField(10**18 + 3), [(1, 2, 3), (0, 0, 1)])


def test_point_set_refuses_moduli_beyond_int64():
    with pytest.raises(ModulusTooLargeError):
        ProjectivePointSet(PrimeField(10**18 + 3), [(1, 2, 3)])


def test_evaluation_matrix_matches_polynomial_evaluate(seed=40961):
    # monomials and random homogeneous polynomials of degree <= 6, against
    # evaluation with Python integers, up to the largest q int64 allows
    rng = random.Random(seed)
    for q in (2, 3, 5, 7, 10**9 + 7, 3037000493):
        for s in (2, 3, 4):
            field = PrimeField(q)
            ring = PolyRing(field, s)
            draws = [[rng.randrange(q) for _ in range(s)] for _ in range(12)]
            points = sorted({ProjectivePointSet(field, [p])[0] for p in draws if any(p)})
            X = ProjectivePointSet(field, points)
            for d in range(7):
                pool = ring.monomials_of_degree(d)
                basis = rng.sample(pool, min(4, len(pool)))
                polys = [ring.from_terms({m: 1}) for m in basis]
                for _ in range(3):
                    terms = rng.sample(pool, rng.randrange(1, min(5, len(pool)) + 1))
                    f = ring.from_terms({m: rng.randrange(1, q) for m in terms})
                    basis.append(f)
                    polys.append(f)
                rows = evaluation_matrix(X, basis)
                assert rows.shape == (len(basis), len(X))
                for j, p in enumerate(X):
                    assert [int(v) for v in rows[:, j]] == [f.evaluate(p) for f in polys]
