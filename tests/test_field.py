import pytest

from rghw.field import PrimeField


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


def test_field_equality_and_repr():
    assert PrimeField(5) == PrimeField(5)
    assert PrimeField(5) != PrimeField(7)
    assert "5" in repr(PrimeField(5))
