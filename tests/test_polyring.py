import random

import numpy as np
import pytest

from oracles import ELIMINATE_LAST, homogeneous_components

from rghw.field import PrimeField
from rghw.groebner import normal_form, spolynomial
from rghw.monideal import MonomialIdeal
from rghw.polyring import (
    GREVLEX,
    GRLEX,
    LEX,
    ORDERS,
    PolyParseError,
    PolyRing,
    divides,
    format_monomial,
    lcm,
    monomial,
    mul,
    quotient,
)


def M(*exps):
    return monomial(exps)


class TestMonomial:
    def test_basic_ops(self):
        a, b = M(2, 1, 0), M(1, 0, 3)
        assert mul(a, b) == M(3, 1, 3)
        assert sum(a) == 3
        assert lcm(a, b) == M(2, 1, 3)
        gcd = tuple(map(min, a, b))
        assert gcd == M(1, 0, 0)
        assert not divides(a, b)
        assert divides(gcd, a)
        assert quotient(mul(a, b), a) == b
        # a quotient by a non-divisor is refused where it enters a shift
        with pytest.raises(ValueError):
            PolyRing(5, 3).one().scaled_shift(quotient(a, b), 1)

    def test_coprime(self):
        # buchberger skips a pair whose leading monomials share no variable,
        # `not any(map(min, a, b))`: its S-polynomial reduces to zero
        ring = PolyRing(5, 3)
        f, g = ring.parse("t1^2 + t2*t3"), ring.parse("t2^3 + t1*t3^2")
        lf, lg = f.leading_monomial(), g.leading_monomial()
        assert (lf, lg) == (M(2, 0, 0), M(0, 3, 0))
        assert not any(map(min, lf, lg))
        assert normal_form(spolynomial(f, g, GREVLEX), [f, g]).is_zero()
        assert any(map(min, M(2, 1, 0), M(0, 1, 3)))

    def test_dimension_mismatch(self):
        ring = PolyRing(5, 3)
        with pytest.raises(ValueError):
            ring.monomial(M(1, 0))
        with pytest.raises(ValueError):
            ring.one().scaled_shift(M(1, 0), 1)
        with pytest.raises(ValueError):
            ring.from_terms({M(1, 0, 0, 0): 1})

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            M(1, -1)
        with pytest.raises(ValueError):
            PolyRing(5, 2).monomial((1, -1))

    def test_exponents_must_be_integers(self):
        # 1.5 must not be truncated to 1; numpy ints are still taken, as ints
        with pytest.raises(TypeError):
            M(1.5, 2)
        with pytest.raises(TypeError):
            PolyRing(5, 2).monomial((1.5, 2))
        with pytest.raises(TypeError):
            MonomialIdeal(2, [(1.5, 0)])
        m = monomial(np.array([2, 1]))
        assert m == M(2, 1) and all(type(e) is int for e in m)
        assert PolyRing(5, 2).monomial(np.array([2, 1])) == (2, 1)

    def test_repr(self):
        assert format_monomial(M(0, 0)) == "1"
        assert format_monomial(M(2, 0, 1)) == "t1^2*t3"


class TestOrders:
    def test_grevlex_degree_two_chain(self):
        # in three variables: t1^2 > t1t2 > t2^2 > t1t3 > t2t3 > t3^2
        chain = [M(2, 0, 0), M(1, 1, 0), M(0, 2, 0), M(1, 0, 1), M(0, 1, 1), M(0, 0, 2)]
        for hi, lo in zip(chain, chain[1:]):
            assert GREVLEX.compare(hi, lo) > 0

    def test_lex_ignores_degree(self):
        assert LEX.compare(M(1, 0, 0), M(0, 5, 5)) > 0

    def test_graded_orders_respect_degree(self):
        for order in (GREVLEX, GRLEX):
            assert order.compare(M(0, 0, 3), M(1, 1, 0)) > 0
            assert order.compare(M(4, 0, 0), M(0, 0, 5)) < 0

    def test_grlex_grevlex_disagree(self):
        a, b = M(2, 1, 2), M(1, 3, 1)
        assert GRLEX.compare(a, b) > 0
        assert GREVLEX.compare(a, b) < 0

    def test_orders_registry(self):
        assert set(ORDERS) == {"grevlex", "lex", "grlex"}
        assert ORDERS["grevlex"] is GREVLEX

    def test_eliminate_last(self):
        order = ELIMINATE_LAST
        # anything holding the last variable beats anything without it
        assert order.compare(M(0, 0, 1), M(9, 9, 0)) > 0
        # ties on the last variable fall back to grevlex in front
        assert order.compare(M(2, 0, 1), M(1, 1, 1)) > 0

    def test_sorted_is_total(self):
        rng = random.Random(4402)
        mons = [M(*(rng.randrange(4) for _ in range(3))) for _ in range(40)]
        for order in (GREVLEX, LEX, GRLEX, ELIMINATE_LAST):
            ordered = order.sorted(mons)
            for x, y in zip(ordered, ordered[1:]):
                assert order.compare(x, y) <= 0


@pytest.fixture
def ring():
    return PolyRing(5, 3)


class TestPolynomialArithmetic:
    def test_construction(self, ring):
        t1, t2, t3 = ring.gens()
        f = t1 * t1 + 2 * t2 * t3 + 3
        assert f.coefficient(M(2, 0, 0)) == 1
        assert f.coefficient(M(0, 1, 1)) == 2
        assert f.coefficient(M(0, 0, 0)) == 3
        assert f.coefficient(M(1, 0, 0)) == 0

    def test_zero_handling(self, ring):
        t1, _, _ = ring.gens()
        z = t1 - t1
        assert z.is_zero()
        assert not z
        assert z == 0
        assert z.degree() == -1
        with pytest.raises(ValueError):
            z.leading_monomial()

    def test_subtraction_and_scalars(self, ring):
        t1, t2, _ = ring.gens()
        f = 3 * t1 - t2 + 1
        g = f - f
        assert g.is_zero()
        assert (f * 0).is_zero()
        assert (1 - t1) + (t1 - 1) == 0

    def test_pow(self, ring):
        t1, t2, _ = ring.gens()
        f = (t1 + t2) ** 2
        assert f == t1**2 + 2 * t1 * t2 + t2**2
        assert (t1 + t2) ** 0 == 1

    def test_ring_mismatch(self, ring):
        other = PolyRing(5, 2)
        with pytest.raises(ValueError):
            ring.gens()[0] + other.gens()[0]

    def test_evaluate(self, ring):
        t1, t2, t3 = ring.gens()
        f = t1**2 * t3 + 4 * t2
        assert f.evaluate([2, 1, 3]) == (4 * 3 + 4) % 5
        assert f.evaluate([0, 0, 0]) == 0

    def test_arithmetic_respects_evaluation(self):
        """Evaluation is a ring map: check +, *, - against it on random input.
        Every coefficient of a result is an int in [1, q)."""
        rng = random.Random(77031)
        for _ in range(60):
            q = rng.choice([2, 3, 5])
            nv = rng.choice([2, 3])
            ring = PolyRing(q, nv)

            def rand_poly():
                terms = {}
                for _ in range(rng.randrange(1, 6)):
                    mon = tuple(rng.randrange(3) for _ in range(nv))
                    terms[mon] = rng.randrange(q)
                return ring.from_terms(terms)

            f, g = rand_poly(), rand_poly()
            pt = [rng.randrange(q) for _ in range(nv)]
            assert (f + g).evaluate(pt) == (f.evaluate(pt) + g.evaluate(pt)) % q
            assert (f * g).evaluate(pt) == (f.evaluate(pt) * g.evaluate(pt)) % q
            assert (f - g).evaluate(pt) == (f.evaluate(pt) - g.evaluate(pt)) % q
            for h in (f + g, f - g, f * g, f.monic()):
                for c in h.terms.values():
                    assert type(c) is int and 0 < c < q

    def test_leading_terms(self, ring):
        t1, t2, t3 = ring.gens()
        f = t2**2 + t1 * t3  # grevlex prefers t2^2, lex prefers t1*t3
        assert f.leading_monomial(GREVLEX) == M(0, 2, 0)
        assert f.leading_monomial(LEX) == M(1, 0, 1)
        assert f.leading_monomial(GREVLEX) == M(0, 2, 0)  # cached path
        g = 3 * t1 + t2
        assert g.leading_coefficient(GREVLEX) == 3
        assert g.monic().leading_coefficient() == 1
        assert g.monic() == t1 + 2 * t2

    def test_homogeneous(self, ring):
        t1, t2, t3 = ring.gens()
        f = t1 * t2 + t3**2
        assert f.is_homogeneous()
        assert f.degree() == 2
        g = f + t1
        assert not g.is_homogeneous()
        parts = homogeneous_components(g)
        assert all(p.is_homogeneous() for p in parts)
        assert [p.degree() for p in parts] == [1, 2]
        assert sum(parts, ring.zero()) == g
        assert ring.zero().is_homogeneous()

    def test_monomials_of_degree(self, ring):
        mons = ring.monomials_of_degree(2)
        assert len(mons) == 6  # C(3+2-1, 2)
        assert len(set(mons)) == 6
        assert all(sum(m) == 2 for m in mons)
        assert ring.monomials_of_degree(0) == [M(0, 0, 0)]


class TestParsing:
    def test_basic(self, ring):
        f = ring.parse("t1^2 + 2*t2*t3 + 3")
        t1, t2, t3 = ring.gens()
        assert f == t1**2 + 2 * t2 * t3 + 3

    def test_implicit_multiplication_and_signs(self, ring):
        t1, t2, _ = ring.gens()
        assert ring.parse("3t1t2") == 3 * t1 * t2
        assert ring.parse("-t1 + t1") == 0
        assert ring.parse("- -t1") == t1
        assert ring.parse("2*2*t1") == 4 * t1
        assert ring.parse("t1 - 6") == t1 - 1

    def test_repeated_variable_accumulates(self, ring):
        t1, _, _ = ring.gens()
        assert ring.parse("t1*t1*t1") == t1**3
        assert ring.parse("t1^2*t1") == t1**3

    def test_roundtrip_random(self):
        rng = random.Random(55190)
        for _ in range(80):
            q = rng.choice([2, 3, 5, 7])
            nv = rng.choice([1, 2, 3, 4])
            ring = PolyRing(q, nv)
            terms = {}
            for _ in range(rng.randrange(1, 7)):
                mon = tuple(rng.randrange(4) for _ in range(nv))
                terms[mon] = rng.randrange(1, q) if q > 1 else 1
            f = ring.from_terms(terms)
            assert ring.parse(f.format()) == f
            assert ring.parse(f.format(LEX)) == f

    def test_format_canonical(self, ring):
        f = ring.parse("t3 + t1 + 2")
        assert f.format() == "t1 + t3 + 2"
        assert f.format(LEX) == "t1 + t3 + 2"
        assert ring.zero().format() == "0"
        assert ring.parse("4*t1^3").format() == "4*t1^3"

    def test_coefficients_normalized(self, ring):
        assert ring.parse("7*t1").format() == "2*t1"
        assert ring.parse("5*t1").is_zero()

    @pytest.mark.parametrize(
        "text",
        ["", "t5", "t0", "^2", "t1^", "t1 +", "+ t1", "t1 t2 +* 3", "x + 1", "t1^t2"],
    )
    def test_rejects_bad_input(self, ring, text):
        with pytest.raises(PolyParseError):
            ring.parse(text)

    def test_error_carries_offset(self, ring):
        with pytest.raises(PolyParseError) as info:
            ring.parse("t1 + x")
        assert info.value.offset == 5
        with pytest.raises(PolyParseError) as info:
            ring.parse("t1 + t9^2")
        assert info.value.offset == 5

    @pytest.mark.parametrize("text, offset", [("2^3", 1), ("t1^2^3", 4)])
    def test_caret_after_a_finished_factor_needs_an_operator(self, ring, text, offset):
        with pytest.raises(PolyParseError) as info:
            ring.parse(text)
        assert str(info.value) == f"expected '+' or '-' between terms (at offset {offset})"
        assert info.value.offset == offset

    def test_trailing_whitespace_parses(self, ring):
        t1, t2, _ = ring.gens()
        assert ring.parse("t1 + t2 ") == t1 + t2
        assert ring.parse("t1 + t2 \t\n") == t1 + t2

    def test_exponent_cap(self, ring):
        with pytest.raises(PolyParseError, match="cap"):
            ring.parse("t1^10000000")
