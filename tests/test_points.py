"""Projective point sets: normalization, constructors, parsing, evaluation
matrices, vanishing ideals, and zero sets."""

import random
import time

import numpy as np
import pytest

from rghw.field import PrimeField
from rghw.groebner import Ideal
from rghw.linalg import matrix_rank
from rghw.points import (
    ProjectivePoint,
    ProjectivePointSet,
    affine_cartesian,
    all_projective_points,
    evaluation_matrix,
    format_points,
    parse_points,
    projective_torus,
    zero_set,
)
from rghw.polyring import GREVLEX, GRLEX, LEX, PolyRing

from oracles import ideal_equal, vanishing_ideal_by_buchberger


def random_point_set(rng, q, s, n):
    field = PrimeField(q)
    pool = list(all_projective_points(q, s))
    return ProjectivePointSet(field, rng.sample(pool, n))


def test_normalize_examples():
    f5 = PrimeField(5)
    assert ProjectivePoint(f5, (2, 4, 0)).values == (1, 2, 0)
    assert ProjectivePoint(f5, (0, 0, 3)).values == (0, 0, 1)
    assert ProjectivePoint(f5, (1, 2, 0)).values == (1, 2, 0)
    # scaling by any nonzero constant lands on the same representative
    assert ProjectivePoint(f5, (3, 6, 0)).values == ProjectivePoint(f5, (2, 4, 0)).values


def test_zero_vector_rejected():
    with pytest.raises(ValueError):
        ProjectivePoint(PrimeField(3), (0, 0, 0))


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
        assert all(v for v in p.values)


def test_cartesian_sizes():
    assert len(affine_cartesian(3, [(0, 1, 2), (0, 1, 2)])) == 9
    assert len(affine_cartesian(5, [(0, 1), (0, 1)])) == 4
    X = affine_cartesian(5, [(2,)])
    assert len(X) == 1
    assert X[0].values == (1, 3)  # [2:1] scaled so the lead coordinate is 1
    # [x : 1] up to scaling; [0:2:1] lands on the representative [0:1:2]
    got = {p.values for p in affine_cartesian(3, [(0, 1), (1, 2)])}
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
    assert parse_points(format_points(X), 5).points == X.points


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        parse_points("1:0\nbad:x\n", 5)
    with pytest.raises(ValueError, match="line 3"):
        parse_points("1:0\n0:1\n2:0\n", 5)  # [2:0] duplicates [1:0]
    with pytest.raises(ValueError, match="line 2"):
        parse_points("1:0\n1:2:3\n", 5)


def test_single_point_vanishing_ideal():
    f3 = PrimeField(3)
    X = ProjectivePointSet(f3, [(1, 0, 0)])
    ideal = X.vanishing_ideal()
    assert sorted(g.format() for g in ideal.groebner_basis()) == ["t2", "t3"]
    assert ideal.degree() == 1
    assert ideal.quotient_summary().reg_index == 0


def test_torus_ideals_match_binomial_presentations():
    X2 = projective_torus(5, 3)
    ring3 = PolyRing(PrimeField(5), 3)
    shown2 = Ideal(ring3, [ring3.parse("t1^4 - t3^4"), ring3.parse("t2^4 - t3^4")])
    assert ideal_equal(X2.vanishing_ideal(), shown2)

    X3 = projective_torus(3, 4)
    ring4 = PolyRing(PrimeField(3), 4)
    shown3 = Ideal(
        ring4,
        [ring4.parse("t1^2 - t4^2"), ring4.parse("t2^2 - t4^2"), ring4.parse("t3^2 - t4^2")],
    )
    assert ideal_equal(X3.vanishing_ideal(), shown3)


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
                    val = coeff.value
                    for i, e in enumerate(mono.exponents):
                        val = val * pow(p.values[i], e, q) % q
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


def test_evaluation_matrix_rejects_bad_bases():
    X = projective_torus(3, 4)
    ring = PolyRing(PrimeField(3), 4)
    with pytest.raises(ValueError):
        evaluation_matrix(X, [ring.parse("t1 + t2^2")])
    with pytest.raises(ValueError):
        evaluation_matrix(X, [ring.parse("t1"), ring.parse("t2^2")])
    with pytest.raises(ValueError):
        evaluation_matrix(X, [ring.parse("0")])


def test_zero_set_examples():
    X3 = projective_torus(3, 4)
    ring = PolyRing(PrimeField(3), 4)
    hits = zero_set(X3, [ring.parse("t1 - t2")])
    assert len(hits) == 4
    assert all(p.values[0] == p.values[1] for p in hits)
    assert zero_set(projective_torus(5, 3), [PolyRing(PrimeField(5), 3).parse("t1")]) == ()
    with pytest.raises(ValueError):
        zero_set(X3, [ring.parse("t1 + t2^2")])


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
        if not hits:
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
    mat = X.coordinate_matrix()
    assert mat.shape == (4, 8)
    assert (mat[0] == 1).all()


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
                term = coeff.value
                for v, e in zip(p, mono.exponents):
                    term = term * pow(v, e, q) % q
                value += term
            assert value % q == 0, (g, p)


def test_evaluation_refuses_moduli_beyond_int64():
    X = ProjectivePointSet(PrimeField(10**18 + 3), [(1, 2, 3), (0, 0, 1)])
    ring = PolyRing(X.field, 3)
    with pytest.raises(ValueError, match="q <= 3037000500"):
        evaluation_matrix(X, [ring.parse("t1")])
