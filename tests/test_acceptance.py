"""Acceptance gate: six end-to-end checks with stated runtime limits, one
pass/fail line each (visible under pytest -s)."""

import random
import time
from contextlib import contextmanager

from oracles import (
    full_space_rgmdf,
    ideal_equal,
    intersection_of_point_ideals,
    random_subcode,
    rghw_by_support_scan,
    sample_instance,
)

from rghw.codes import build_code, singleton_bound, validate_subcode
from rghw.field import PrimeField
from rghw.groebner import Ideal
from rghw.linalg import gaussian_binomial
from rghw.points import (
    ProjectivePointSet,
    all_projective_points,
    evaluation_matrix,
    projective_torus,
    zero_set,
)
from rghw.polyring import PolyRing
from rghw.weights import FootprintProfile, rgff, rgmdf


@contextmanager
def gate(number, limit):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL ({time.perf_counter() - started:.2f}s)")
        raise
    elapsed = time.perf_counter() - started
    assert elapsed < limit, f"criterion {number} exceeded {limit}s: took {elapsed:.2f}s"
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.2f}s < {limit}s)")


def torus2_ideal():
    ring = PolyRing(PrimeField(5), 3)
    return Ideal(ring, [ring.parse("t1^4 - t3^4"), ring.parse("t2^4 - t3^4")])


EXPECTED_MATRIX = [
    [12, 15, 16],
    [8, 11, 12, 14, 15, 16],
    [4, 7, 8, 10, 11, 12, 13, 14, 15, 16],
    [3, 4, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16],
    [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16],
    [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16],
]


def test_criterion_1_hilbert_table():
    with gate(1, 1.0):
        ideal = torus2_ideal()
        assert [ideal.hilbert_function(d) for d in range(1, 7)] == [3, 6, 10, 13, 15, 16]
        summary = ideal.quotient_summary()
        assert summary.degree == 16
        assert summary.reg_index == 6


def test_criterion_2_footprint_matrix():
    with gate(2, 30.0):
        ideal = torus2_ideal()
        for d, expected_row in enumerate(EXPECTED_MATRIX, start=1):
            k = ideal.hilbert_function(d)
            assert k == len(expected_row)
            profile = FootprintProfile(ideal, d, k)
            row = [profile.value(r) for r in range(1, k + 1)]
            assert row == expected_row
            # columns past k are out of range for this degree
            assert profile.candidate_count(k + 1) == 0
        anchors = {(1, 1): 12, (2, 1): 8, (3, 1): 4, (4, 1): 3, (5, 1): 2, (6, 1): 1, (6, 16): 16}
        for (d, r), value in anchors.items():
            assert EXPECTED_MATRIX[d - 1][r - 1] == value


def test_criterion_3_torus_identification():
    with gate(3, 300.0):
        X = projective_torus(5, 3)
        for d in (1, 2):
            code = build_code(X, d)
            sub = validate_subcode(code, [])
            profile = FootprintProfile(code.ideal, d, code.k)
            for r in range(1, code.k + 1):
                fp = profile.value(r)
                weight = rgmdf(code, r, sub)
                assert fp == weight, (d, r, fp, weight)
                if d == 1:
                    assert rghw_by_support_scan(code, sub, r)[0] == weight


def test_criterion_4_subcode_example():
    with gate(4, 10.0):
        code = build_code(projective_torus(3, 4), 1)
        sub = validate_subcode(code, [code.ring.parse("t1")])
        got = {}
        for r in (1, 2, 3):
            got[r] = (
                rgff(code.ideal, 1, r),
                rgmdf(code, r, sub),
                rghw_by_support_scan(code, sub, r)[0],
                full_space_rgmdf(code, r, sub),
                singleton_bound(code, sub, r),
            )
        assert got[1] == (4, 4, 4, 4, 5)
        assert got[2] == (6, 6, 6, 6, 6)
        assert got[3] == (7, 7, 7, 7, 7)
        for r in (1, 2, 3):
            assert got[r][3] <= got[r][4]
        assert got[2][3] == got[2][4]
        assert got[3][3] == got[3][4]


def test_criterion_5_property_suites():
    with gate(5, 600.0):
        rng = random.Random(20260815)
        oracle_checks = 0
        for _ in range(50):
            code = sample_instance(rng)
            full_space_dim = len(code.ring.monomials_of_degree(code.d))
            small_enough_for_oracle = code.q**code.k <= 3**5
            for k1 in range(code.k):
                sub = random_subcode(rng, code, k1)
                for r in range(1, code.k - k1 + 1):
                    weight = rgmdf(code, r, sub)
                    support = rghw_by_support_scan(code, sub, r)[0]
                    assert weight == support, (code, k1, r, weight, support)
                    assert rgff(code.ideal, code.d, r) <= weight
                    if (
                        small_enough_for_oracle
                        and gaussian_binomial(full_space_dim, r, code.q) <= 300_000
                    ):
                        assert full_space_rgmdf(code, r, sub) == weight
                        oracle_checks += 1
        assert oracle_checks >= 10

        # support of the span of evaluation rows = points where some member
        # of F does not vanish
        rng2 = random.Random(777)
        checks = 0
        while checks < 100:
            q = rng2.choice([2, 3])
            s = rng2.choice([3, 4])
            pool = list(all_projective_points(q, s))
            n = rng2.randrange(3, min(8, len(pool)) + 1)
            X = ProjectivePointSet(PrimeField(q), rng2.sample(pool, n))
            ring = PolyRing(X.field, s)
            d = rng2.choice([1, 2])
            monomials = ring.monomials_of_degree(d)
            polys = []
            for _ in range(rng2.randrange(1, 4)):
                f = ring.from_terms(
                    {
                        m: rng2.randrange(q)
                        for m in rng2.sample(monomials, min(3, len(monomials)))
                    }
                )
                if not f.is_zero():
                    polys.append(f)
            if not polys:
                continue
            rows = evaluation_matrix(X, polys)
            support = int((rows != 0).any(axis=0).sum())
            assert support == len(X) - len(zero_set(X, polys))
            checks += 1


def test_criterion_6_vanishing_ideal_correctness():
    with gate(6, 120.0):
        X2 = projective_torus(5, 3)
        assert ideal_equal(X2.vanishing_ideal(), torus2_ideal())
        X3 = projective_torus(3, 4)
        ring4 = PolyRing(PrimeField(3), 4)
        shown = Ideal(
            ring4,
            [ring4.parse("t1^2 - t4^2"), ring4.parse("t2^2 - t4^2"), ring4.parse("t3^2 - t4^2")],
        )
        assert ideal_equal(X3.vanishing_ideal(), shown)

        rng = random.Random(4099)
        for _ in range(20):
            q = rng.choice([2, 3, 5])
            s = rng.choice([2, 3])
            pool = list(all_projective_points(q, s))
            n = rng.randrange(1, min(6, len(pool)) + 1)
            X = ProjectivePointSet(PrimeField(q), rng.sample(pool, n))
            assert ideal_equal(X.vanishing_ideal(), intersection_of_point_ideals(X))
