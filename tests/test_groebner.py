"""Groebner engine tests: normal forms, Buchberger output shape, graded
quotient data, and the intersection / colon constructions of the test
oracles."""

import random

import pytest

from oracles import exact_divide, ideal_equal, ideal_intersection, ideal_quotient, is_graded

from rghw.field import PrimeField
from rghw.groebner import Ideal, buchberger, normal_form, reduced_basis, spolynomial
from rghw.polyring import GREVLEX, GRLEX, LEX, Monomial, PolyRing


def ring_over(q, s):
    return PolyRing(PrimeField(q), s)


def random_poly(rng, ring, max_terms=4, max_deg=3):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        expo = [0] * ring.nvars
        for _ in range(rng.randrange(max_deg + 1)):
            expo[rng.randrange(ring.nvars)] += 1
        terms[Monomial(tuple(expo))] = rng.randrange(ring.field.q)
    return ring.from_terms(terms)


def random_homog(rng, ring, deg, max_terms=3):
    pool = ring.monomials_of_degree(deg)
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        terms[rng.choice(pool)] = rng.randrange(1, ring.field.q)
    return ring.from_terms(terms)


def test_spolynomial_cancels_leading_terms():
    ring = ring_over(7, 2)
    f = ring.parse("t1^2 + t2")
    g = ring.parse("t1*t2 + 1")
    s = spolynomial(f, g, GREVLEX)
    # lcm(t1^2, t1*t2) = t1^2 t2, and the t1^2 t2 terms cancel
    assert s == ring.parse("t2^2 - t1")


def test_normal_form_is_zero_only_for_members():
    ring = ring_over(5, 2)
    basis = [ring.parse("t1^2 - t2^2")]
    assert normal_form(ring.parse("t1^2 - t2^2"), basis).is_zero()
    assert normal_form(ring.parse("t1^3 - t1*t2^2"), basis).is_zero()
    assert not normal_form(ring.parse("t1"), basis).is_zero()


def test_normal_form_no_lead_divisible(seed=13309):
    # the remainder must have no term divisible by any basis leading monomial
    rng = random.Random(seed)
    ring = ring_over(3, 3)
    for _ in range(60):
        basis = [p for p in (random_poly(rng, ring) for _ in range(2)) if not p.is_zero()]
        if not basis:
            continue
        f = random_poly(rng, ring)
        rem = normal_form(f, basis, GREVLEX)
        leads = [g.leading_monomial(GREVLEX) for g in basis]
        for mono in rem.terms:
            assert not any(lm.divides(mono) for lm in leads)


def test_exact_divide_roundtrip(seed=60601):
    rng = random.Random(seed)
    ring = ring_over(5, 2)
    for _ in range(40):
        g = random_poly(rng, ring)
        h = random_poly(rng, ring)
        if g.is_zero() or h.is_zero():
            continue
        assert exact_divide(g * h, g) == h


def test_buchberger_closes_spolynomials(seed=90121):
    # every s-polynomial of the output reduces to zero: the defining property
    rng = random.Random(seed)
    ring = ring_over(3, 3)
    for _ in range(25):
        gens = [p for p in (random_poly(rng, ring) for _ in range(3)) if not p.is_zero()]
        if not gens:
            continue
        gb = buchberger(gens, GREVLEX)
        for i in range(len(gb)):
            for j in range(i + 1, len(gb)):
                s = spolynomial(gb[i], gb[j], GREVLEX)
                assert normal_form(s, gb, GREVLEX).is_zero()
        # the input generators are members
        for g in gens:
            assert normal_form(g, gb, GREVLEX).is_zero()


def test_reduced_basis_is_monic_antichain(seed=77171):
    rng = random.Random(seed)
    ring = ring_over(5, 3)
    for _ in range(25):
        gens = [p for p in (random_poly(rng, ring) for _ in range(3)) if not p.is_zero()]
        if not gens:
            continue
        gb = reduced_basis(buchberger(gens, GREVLEX), GREVLEX)
        leads = [g.leading_monomial(GREVLEX) for g in gb]
        for i, g in enumerate(gb):
            assert g.terms[leads[i]].value == 1
            for j, lm in enumerate(leads):
                if i == j:
                    continue
                for mono in g.terms:
                    assert not lm.divides(mono)


def test_reduced_basis_is_canonical(seed=31151):
    # same ideal from shuffled generators gives the identical reduced basis
    rng = random.Random(seed)
    ring = ring_over(3, 3)
    for _ in range(15):
        gens = [p for p in (random_poly(rng, ring) for _ in range(3)) if not p.is_zero()]
        if len(gens) < 2:
            continue
        gb1 = Ideal(ring, gens).groebner_basis()
        shuffled = gens[:]
        rng.shuffle(shuffled)
        extra = gens[0].scaled_shift(Monomial((1, 0, 0)), ring.field(2)) + gens[-1]
        gb2 = Ideal(ring, shuffled + [extra]).groebner_basis()
        assert [p.terms for p in gb1] == [p.terms for p in gb2]


def test_binomial_torus_ideal_basis():
    ring = ring_over(5, 3)
    ideal = Ideal(ring, [ring.parse("t1^4 - t3^4"), ring.parse("t2^4 - t3^4")])
    gb = [g.format() for g in ideal.groebner_basis()]
    assert gb == ["t2^4 + 4*t3^4", "t1^4 + 4*t3^4"]


def test_hilbert_values_of_binomial_torus_ideal():
    ring = ring_over(5, 3)
    ideal = Ideal(ring, [ring.parse("t1^4 - t3^4"), ring.parse("t2^4 - t3^4")])
    values = [ideal.hilbert_function(d) for d in range(1, 8)]
    assert values == [3, 6, 10, 13, 15, 16, 16]
    summary = ideal.quotient_summary()
    assert summary.degree == 16
    assert summary.reg_index == 6


def test_membership_and_footprint():
    ring = ring_over(3, 4)
    gens = ["t1^2 - t4^2", "t2^2 - t4^2", "t3^2 - t4^2"]
    ideal = Ideal(ring, [ring.parse(g) for g in gens])
    assert ring.parse("t1^2*t2 - t2*t4^2") in ideal
    assert ring.parse("t1^2 - t2^2") in ideal
    assert ring.parse("t1*t2") not in ideal
    assert ideal.hilbert_function(1) == 4
    assert ideal.degree() == 8
    assert ideal.quotient_summary().reg_index == 3
    assert len(ideal.footprint_slice(1)) == 4


def test_initial_ideal_of_graded_input():
    ring = ring_over(5, 3)
    ideal = Ideal(ring, [ring.parse("t1^4 - t3^4"), ring.parse("t2^4 - t3^4")])
    assert is_graded(ideal)
    initial = ideal.initial_ideal()
    assert sorted(m.exponents for m in initial.gens) == [(0, 4, 0), (4, 0, 0)]


def test_order_changes_initial_ideal_not_hilbert():
    ring = ring_over(5, 3)
    gens = [ring.parse("t1^2 - t2*t3"), ring.parse("t2^2 - t1*t3")]
    by_order = {}
    for order in (GREVLEX, LEX, GRLEX):
        ideal = Ideal(ring, gens, order)
        by_order[order.name] = [ideal.hilbert_function(d) for d in range(7)]
    assert by_order["grevlex"] == by_order["lex"] == by_order["grlex"]


def test_zero_and_unit_ideals():
    ring = ring_over(3, 2)
    zero = Ideal(ring, [])
    assert zero.is_zero()
    assert ring.parse("t1") not in zero
    unit = Ideal(ring, [ring.parse("2")])
    assert ring.parse("t1") in unit
    assert unit.hilbert_function(0) == 0


def test_intersection_known_cases():
    ring = ring_over(5, 2)
    t1 = Ideal(ring, [ring.parse("t1")])
    t2 = Ideal(ring, [ring.parse("t2")])
    both = ideal_intersection(t1, t2)
    assert [g.format() for g in both.groebner_basis()] == ["t1*t2"]
    sq = ideal_intersection(t1, Ideal(ring, [ring.parse("t1^2 + t2^2")]))
    member = ring.parse("t1^3 + t1*t2^2")
    assert member in sq
    assert ring.parse("t1") not in sq


def test_intersection_membership_random(seed=24113):
    # f in I cap J exactly when f is in both; graded inputs only, since the
    # construction splits eliminated generators into homogeneous parts
    rng = random.Random(seed)
    ring = ring_over(3, 3)
    for _ in range(12):
        left = Ideal(ring, [p for p in [random_homog(rng, ring, rng.randrange(1, 3))] if not p.is_zero()])
        right = Ideal(ring, [p for p in [random_homog(rng, ring, rng.randrange(1, 3))] if not p.is_zero()])
        if left.is_zero() or right.is_zero():
            continue
        meet = ideal_intersection(left, right)
        for g in meet.groebner_basis():
            assert g in left and g in right
        for _ in range(8):
            f = random_homog(rng, ring, rng.randrange(1, 4), 4)
            if f in left and f in right:
                assert f in meet


def test_quotient_known_cases():
    ring = ring_over(5, 2)
    prod = Ideal(ring, [ring.parse("t1*t2")])
    by_t1 = ideal_quotient(prod, [ring.parse("t1")])
    assert [g.format() for g in by_t1.groebner_basis()] == ["t2"]
    mixed = Ideal(ring, [ring.parse("t1^2"), ring.parse("t1*t2")])
    assert sorted(g.format() for g in ideal_quotient(mixed, [ring.parse("t1")]).groebner_basis()) == ["t1", "t2"]
    diff = Ideal(ring, [ring.parse("t1^2 - t2^2")])
    assert [g.format() for g in ideal_quotient(diff, [ring.parse("t1 - t2")]).groebner_basis()] == ["t1 + t2"]


def test_quotient_defining_property(seed=51307):
    # g in (I : F) exactly when g * f in I for every f in F
    rng = random.Random(seed)
    ring = ring_over(3, 2)
    for _ in range(10):
        base = [p for p in (random_homog(rng, ring, rng.randrange(1, 4)) for _ in range(2)) if not p.is_zero()]
        divs = [p for p in (random_homog(rng, ring, 1) for _ in range(2)) if not p.is_zero()]
        if not base or not divs:
            continue
        ideal = Ideal(ring, base)
        quot = ideal_quotient(ideal, divs)
        for g in quot.groebner_basis():
            for f in divs:
                assert g * f in ideal
        for _ in range(6):
            g = random_homog(rng, ring, rng.randrange(1, 3), 4)
            if all(g * f in ideal for f in divs):
                assert g in quot


def test_quotient_by_nonzerodivisor_is_identity():
    ring = ring_over(3, 3)
    ideal = Ideal(ring, [ring.parse("t1*t2 - t3^2")])
    quot = ideal_quotient(ideal, [ring.parse("t1 + t2 + t3")])
    assert ideal_equal(quot, ideal)


def test_ideal_equal_detects_same_and_different():
    ring = ring_over(5, 2)
    a = Ideal(ring, [ring.parse("t1 + t2")])
    b = Ideal(ring, [ring.parse("2*t1 + 2*t2"), ring.parse("t1^2 - t2^2")])
    assert ideal_equal(a, b)
    c = Ideal(ring, [ring.parse("t1")])
    assert not ideal_equal(a, c)


def test_elimination_drops_last_variable():
    # the intersection construction relies on eliminating the tag variable;
    # check it through a product of shifted ideals
    ring = ring_over(7, 2)
    left = Ideal(ring, [ring.parse("t1 - 2*t2")])
    right = Ideal(ring, [ring.parse("t1 - 3*t2")])
    meet = ideal_intersection(left, right)
    expected = ring.parse("t1^2 - 5*t1*t2 + 6*t2^2")
    assert ideal_equal(meet, Ideal(ring, [expected]))


def test_quotient_summary_rejects_positive_dimensional_pair():
    ring = ring_over(3, 3)
    ideal = Ideal(ring, [ring.parse("t1")])
    from rghw.monideal import UnsupportedDimensionError
    with pytest.raises(UnsupportedDimensionError):
        ideal.quotient_summary()
