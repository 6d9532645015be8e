"""The prime modulus of F_q.

Field elements are plain Python ints in [0, q) throughout the package;
`PrimeField` only checks that q is prime and carries it."""

from __future__ import annotations


# Miller-Rabin with the first 13 primes as bases is exact below this bound,
# the smallest strong pseudoprime to all of them (Sorenson-Webster 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError for n >= _MR_LIMIT,
    where these bases no longer decide primality."""
    if n >= _MR_LIMIT:
        raise ValueError(f"modulus {n} is too large: primality is decided below {_MR_LIMIT}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd //= 2
        twos += 1
    for a in _MR_BASES:
        x = pow(a, odd, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field of integers modulo a prime q; its elements are ints in [0, q)."""

    __slots__ = ("q",)

    def __init__(self, q: int):
        if isinstance(q, bool) or not isinstance(q, int):
            raise TypeError(f"modulus must be an int, got {type(q).__name__}")
        if not _is_prime(q):
            raise ValueError(f"modulus must be a prime number, got {q}")
        self.q = q

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self) -> int:
        return hash(("PrimeField", self.q))

    def __repr__(self) -> str:
        return f"PrimeField({self.q})"
