"""Evaluation codes on point sets, subcode handling, and the weight
hierarchies M_r read from the subspace scan (`rgmdf`), against known
hierarchies, single-codeword scans and the Singleton bound."""

import random

import numpy as np
import pytest

from oracles import minimum_distance_scan, subspace_support

from rghw.codes import (
    BudgetExceededError,
    DependentSubcodeError,
    build_code,
    singleton_bound,
    validate_subcode,
)
from rghw.field import PrimeField
from rghw.linalg import gaussian_binomial, matrix_rank
from rghw.points import (
    ProjectivePointSet,
    all_projective_points,
    evaluation_matrix,
    projective_torus,
    zero_set,
)
from rghw.polyring import PolyRing
from rghw.weights import rgmdf


def random_point_set(rng, q, s, n):
    pool = list(all_projective_points(q, s))
    return ProjectivePointSet(PrimeField(q), rng.sample(pool, n))


def test_code_dimensions():
    assert (build_code(projective_torus(3, 4), 1).n, build_code(projective_torus(3, 4), 1).k) == (8, 4)
    code2 = build_code(projective_torus(5, 3), 1)
    assert (code2.n, code2.k) == (16, 3)
    full = build_code(projective_torus(5, 3), 6)
    assert (full.n, full.k) == (16, 16)
    single = build_code(ProjectivePointSet(PrimeField(3), [(1, 0)]), 2)
    assert (single.n, single.k) == (1, 1)


def test_generator_rows_shape_and_rank():
    code = build_code(projective_torus(3, 4), 1)
    assert code.generator_rows.shape == (4, 8)
    assert len(code.standard_monomials) == 4
    assert code.q == 3


def test_coefficient_round_trip(seed=52121):
    rng = random.Random(seed)
    code = build_code(projective_torus(3, 4), 2)
    for _ in range(20):
        coeffs = [rng.randrange(3) for _ in range(code.k)]
        poly = code.coefficients_to_polynomial(coeffs)
        if poly.is_zero():
            continue
        back = code.polynomial_to_coefficients(poly)
        assert list(back) == coeffs


def test_polynomial_to_coefficients_rejects_wrong_degree():
    code = build_code(projective_torus(3, 4), 1)
    with pytest.raises(ValueError):
        code.polynomial_to_coefficients(code.ring.parse("t1^2"))


def test_subcode_of_linear_form():
    code = build_code(projective_torus(3, 4), 1)
    sub = validate_subcode(code, [code.ring.parse("t1")])
    assert sub.shape == (1, 4)
    [row] = sub
    poly = code.coefficients_to_polynomial(row)
    assert poly.leading_monomial(code.order) == (1, 0, 0, 0)
    assert (evaluation_matrix(code.X, [poly]) == 1).all()


def test_empty_subcode():
    code = build_code(projective_torus(3, 4), 1)
    sub = validate_subcode(code, [])
    assert sub.shape == (0, code.k)


def test_dependent_subcode_rejected_with_witness():
    code = build_code(projective_torus(3, 4), 1)
    f = code.ring.parse("t1")
    g = code.ring.parse("2*t1")
    with pytest.raises(DependentSubcodeError) as err:
        validate_subcode(code, [f, g])
    witness = err.value.witness
    assert any(int(c) % 3 for c in witness)
    combo = code.ring.zero()
    for c, poly in zip(witness, [f, g]):
        combo = combo + poly * code.ring.constant(int(c))
    assert code.ideal.normal_form(combo).is_zero()


def test_subcode_degree_mismatch_rejected():
    code = build_code(projective_torus(3, 4), 1)
    with pytest.raises(ValueError):
        validate_subcode(code, [code.ring.parse("t1^2")])


def test_known_weight_hierarchies():
    code3 = build_code(projective_torus(3, 4), 1)
    sub = validate_subcode(code3, [code3.ring.parse("t1")])
    assert [rgmdf(code3, r, sub) for r in (1, 2, 3)] == [4, 6, 7]
    empty = validate_subcode(code3, [])
    assert [rgmdf(code3, r, empty) for r in (1, 2, 3, 4)] == [4, 6, 7, 8]

    code2 = build_code(projective_torus(5, 3), 1)
    empty2 = validate_subcode(code2, [])
    assert [rgmdf(code2, r, empty2) for r in (1, 2, 3)] == [12, 15, 16]


def test_first_weight_matches_codeword_scan(seed=36097):
    rng = random.Random(seed)
    for _ in range(8):
        q = rng.choice([2, 3])
        X = random_point_set(rng, q, 3, rng.randrange(3, 8))
        d = rng.choice([1, 2])
        code = build_code(X, d)
        sub = validate_subcode(code, [])
        assert rgmdf(code, 1, sub) == minimum_distance_scan(code)


def test_singleton_bound_values_and_bounding(seed=90135):
    code = build_code(projective_torus(3, 4), 1)
    sub = validate_subcode(code, [code.ring.parse("t1")])
    assert [singleton_bound(code, sub, r) for r in (1, 2, 3)] == [5, 6, 7]
    rng = random.Random(seed)
    for _ in range(6):
        q = rng.choice([2, 3])
        X = random_point_set(rng, q, 3, rng.randrange(3, 8))
        code = build_code(X, 1)
        sub = validate_subcode(code, [])
        for r in range(1, code.k + 1):
            assert rgmdf(code, r, sub) <= singleton_bound(code, sub, r)


def test_weight_hierarchy_strictly_increases(seed=61507):
    rng = random.Random(seed)
    for _ in range(6):
        q = rng.choice([2, 3])
        X = random_point_set(rng, q, 3, rng.randrange(3, 8))
        code = build_code(X, 1)
        sub = validate_subcode(code, [])
        values = [rgmdf(code, r, sub) for r in range(1, code.k + 1)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] == code.n


def test_out_of_range_rank_rejected():
    code = build_code(projective_torus(3, 4), 1)
    sub = validate_subcode(code, [code.ring.parse("t1")])
    with pytest.raises(ValueError):
        rgmdf(code, 0, sub)
    with pytest.raises(ValueError):
        rgmdf(code, 4, sub)  # k - k1 = 3
    with pytest.raises(ValueError):
        singleton_bound(code, sub, 4)


def test_budget_guard():
    code = build_code(projective_torus(5, 3), 1)
    sub = validate_subcode(code, [])
    with pytest.raises(BudgetExceededError) as err:
        rgmdf(code, 1, sub, budget=10)
    assert err.value.needed == gaussian_binomial(3, 1, 5)
    assert err.value.budget == 10


def test_budget_message_past_the_int_to_str_digit_limit():
    # up to 4300 digits the count prints exactly; past that, str() refuses
    # it, and the message gives the tightest power-of-ten lower bound
    exact = 10**4300 - 1
    assert str(BudgetExceededError(exact, 10)) == (
        f"enumeration needs {'9' * 4300} candidates, budget is 10"
    )
    for needed, e in ((10**4300, 4299), (10**4300 + 1, 4300), (7**12000, 10141)):
        err = BudgetExceededError(needed, 10)
        assert 10**e < needed <= 10 ** (e + 1)
        assert str(err) == f"enumeration needs more than 10^{e} candidates, budget is 10"
        assert err.needed == needed


def test_subspace_support_examples():
    assert subspace_support(np.array([[1, 0, 2, 0]]), 3) == 2
    assert subspace_support(np.array([[1, 0, 1, 0], [0, 0, 2, 1]]), 3) == 3
    with pytest.raises(ValueError):
        subspace_support(np.array([[1, 2], [2, 4]]), 5)  # dependent rows


def test_subspace_support_counts_nonvanishing_points(seed=47017):
    # the support of the span of evaluation rows of F is exactly the set of
    # points where some member of F does not vanish
    rng = random.Random(seed)
    for _ in range(12):
        q = rng.choice([2, 3])
        limit = len(all_projective_points(q, 3))
        X = random_point_set(rng, q, 3, rng.randrange(3, min(9, limit + 1)))
        ring = PolyRing(PrimeField(q), 3)
        d = rng.choice([1, 2])
        pool = ring.monomials_of_degree(d)
        polys = []
        for _ in range(rng.randrange(1, 3)):
            f = ring.from_terms(
                {m: rng.randrange(q) for m in rng.sample(pool, min(2, len(pool)))}
            )
            if not f.is_zero():
                polys.append(f)
        if not polys:
            continue
        stacked = evaluation_matrix(X, polys)
        if matrix_rank(stacked.copy(), q) < len(polys):
            continue
        assert subspace_support(stacked, q) == len(X) - len(zero_set(X, polys))
