"""Exact arithmetic in a prime field F_q."""

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
    """The field of integers modulo a prime q."""

    __slots__ = ("q",)

    def __init__(self, q: int):
        if isinstance(q, bool) or not isinstance(q, int):
            raise TypeError(f"modulus must be an int, got {type(q).__name__}")
        if not _is_prime(q):
            raise ValueError(f"modulus must be a prime number, got {q}")
        self.q = q

    def __call__(self, value: int) -> "FieldElement":
        if isinstance(value, FieldElement):
            if value.field != self:
                raise ValueError(f"modulus mismatch: {value.field.q} vs {self.q}")
            return value
        return FieldElement(int(value) % self.q, self)

    def zero(self) -> "FieldElement":
        return self(0)

    def one(self) -> "FieldElement":
        return self(1)

    def elements(self) -> list["FieldElement"]:
        return [self(v) for v in range(self.q)]

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self) -> int:
        return hash(("PrimeField", self.q))

    def __repr__(self) -> str:
        return f"PrimeField({self.q})"


class FieldElement:
    """An element of a PrimeField, stored as a canonical representative in [0, q)."""

    __slots__ = ("value", "field")

    def __init__(self, value: int, field: PrimeField):
        self.value = value % field.q
        self.field = field

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise ValueError(
                    f"modulus mismatch: {self.field.q} vs {other.field.q}"
                )
            return other
        if isinstance(other, int):
            return FieldElement(other, self.field)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.value + other.value, self.field)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.value - other.value, self.field)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(other.value - self.value, self.field)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.value * other.value, self.field)

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElement(-self.value, self.field)

    def inv(self) -> "FieldElement":
        """Multiplicative inverse via Fermat's little theorem."""
        if self.value == 0:
            raise ZeroDivisionError("inverse of zero in a prime field")
        return FieldElement(pow(self.value, self.field.q - 2, self.field.q), self.field)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inv() ** (-exponent)
        return FieldElement(pow(self.value, exponent, self.field.q), self.field)

    def is_zero(self) -> bool:
        return self.value == 0

    def __bool__(self) -> bool:
        return self.value != 0

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise ValueError(f"modulus mismatch: {self.field.q} vs {other.field.q}")
            return other.value == self.value
        if isinstance(other, int):
            return self.value == other % self.field.q
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.value, self.field.q))

    def __repr__(self) -> str:
        return f"{self.value}"
