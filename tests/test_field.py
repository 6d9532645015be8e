import random

import pytest

from rghw.field import FieldElement, PrimeField


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_field_axioms_exhaustive(q):
    """Ring axioms and inverses over every element triple."""
    F = PrimeField(q)
    elems = F.elements()
    assert len(elems) == q
    for a in elems:
        assert a + F.zero() == a
        assert a * F.one() == a
        assert a + (-a) == F.zero()
        if not a.is_zero():
            assert a * a.inv() == F.one()
    for a in elems:
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
            for c in elems:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


def test_int_interop():
    F = PrimeField(5)
    a = F(3)
    assert a + 1 == 4
    assert 1 + a == 4
    assert a - 4 == 4
    assert 4 - a == 1
    assert 2 * a == 1
    assert a * 2 == 1
    assert a / 2 == 4  # 3 * inverse(2) = 3 * 3 = 9 = 4
    assert 2 / a == 4  # 2 * inverse(3) = 2 * 2 = 4
    assert a == 3
    assert a == -2
    assert a != 2


def test_pow():
    F = PrimeField(7)
    a = F(3)
    assert a**0 == 1
    assert a**6 == 1
    assert a**-1 == a.inv()
    assert a**-2 == (a * a).inv()
    assert F(0) ** 0 == 1


def test_zero_division():
    F = PrimeField(5)
    with pytest.raises(ZeroDivisionError):
        F(0).inv()
    with pytest.raises(ZeroDivisionError):
        F(1) / F(0)


def test_modulus_mismatch():
    a = PrimeField(5)(2)
    b = PrimeField(7)(2)
    with pytest.raises(ValueError, match="mismatch"):
        a + b
    with pytest.raises(ValueError, match="mismatch"):
        a * b
    with pytest.raises(ValueError, match="mismatch"):
        a == b


@pytest.mark.parametrize("q", [1, 4, 6, 9, 15, 0, -3])
def test_rejects_nonprime(q):
    with pytest.raises(ValueError):
        PrimeField(q)


def test_large_moduli_decided_without_trial_division():
    # Mersenne prime 2^61 - 1 is accepted; 2^61 + 1 is divisible by 3
    assert PrimeField(2**61 - 1).q == 2**61 - 1
    with pytest.raises(ValueError, match="prime"):
        PrimeField(2**61 + 1)
    # strong pseudoprimes to the first few bases are still composite
    for n in (2047, 3215031751, 3825123056546413051, 318665857834031151167461):
        with pytest.raises(ValueError, match="prime"):
            PrimeField(n)
    assert PrimeField(10**18 + 3).q == 10**18 + 3
    # beyond the bases' proven range the modulus is refused, not guessed
    with pytest.raises(ValueError, match="too large"):
        PrimeField(2**89 - 1)


def test_coercion_and_normalization():
    F = PrimeField(5)
    assert F(12).value == 2
    assert F(-1).value == 4
    assert F(F(3)).value == 3
    with pytest.raises(ValueError):
        F(PrimeField(7)(3))


def test_hash_and_dict_keys():
    F = PrimeField(5)
    seen = {F(i): i for i in range(5)}
    assert seen[F(7)] == 2
    assert F(2) in seen
    assert hash(F(2)) == hash(PrimeField(5)(2))


def test_random_arithmetic_matches_ints():
    rng = random.Random(91101)
    for _ in range(300):
        q = rng.choice([2, 3, 5, 7, 11, 13])
        F = PrimeField(q)
        x, y = rng.randrange(1000), rng.randrange(1000)
        assert (F(x) + F(y)).value == (x + y) % q
        assert (F(x) - F(y)).value == (x - y) % q
        assert (F(x) * F(y)).value == (x * y) % q
        if y % q:
            assert ((F(x) / F(y)) * F(y)).value == x % q


def test_field_equality_and_repr():
    assert PrimeField(5) == PrimeField(5)
    assert PrimeField(5) != PrimeField(7)
    assert "5" in repr(PrimeField(5))
    assert repr(PrimeField(5)(3)) == "3"
    assert isinstance(PrimeField(5)(3), FieldElement)
