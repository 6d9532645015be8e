"""Dense linear algebra over a prime field F_q on numpy int64 arrays: row
reduction, ranks, kernels, Gaussian binomials, and mixed-radix digits.

Matrices hold representatives in [0, q).  Everything here is exact integer
arithmetic as long as every sum of L products of two residues, at most
(q - 1)^2 * L, stays below 2^63; `require_exact_int64` refuses larger q.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt, log10, prod

import numpy as np


# str() refuses ints of more than 4300 digits (Python's default
# int_max_str_digits)
_PRINTABLE = 10**4300


def count_text(n: int) -> str:
    """n in decimal, or past 4300 digits the tightest 'more than 10^e'."""
    if n < _PRINTABLE:
        return str(n)
    e = int(n.bit_length() * log10(2))
    while 10**e >= n:
        e -= 1
    return f"more than 10^{e}"


class ModulusTooLargeError(ValueError):
    """Raised for a modulus whose residue products overflow int64."""


def require_exact_int64(q: int, length: int = 1) -> None:
    """Raise ModulusTooLargeError unless (q - 1)^2 * length < 2^63, that is
    unless a sum of `length` products of residues mod q fits in int64."""
    length = max(length, 1)
    if (q - 1) ** 2 * length >= 1 << 63:
        limit = isqrt(((1 << 63) - 1) // length) + 1
        raise ModulusTooLargeError(
            f"q = {q} is too large for exact int64 arithmetic: "
            f"(q - 1)^2 * {length} must stay below 2^63, which needs q <= {limit}"
        )


def digits(lo: int, hi: int, radix) -> np.ndarray:
    """The mixed-radix digits of lo..hi-1, most significant first: row i
    holds those of lo + i, whose digit j lies in [0, radix[j])."""
    # place values as Python ints: an int64 cumulative product would wrap
    place = [prod(radix[j + 1 :]) for j in range(len(radix))]
    numbers = np.arange(lo, hi, dtype=np.int64)[:, None]
    return numbers // np.array(place, dtype=np.int64) % np.array(radix, dtype=np.int64)


def rref(matrix, q: int):
    """Reduced row echelon form over F_q.

    Returns (R, pivots) where R has the same shape as the input and pivots
    lists the pivot column of each nonzero row in order.  q must be prime:
    each pivot is inverted as v^(q-2) by Fermat's little theorem.
    """
    require_exact_int64(q)
    R = np.array(matrix, dtype=np.int64) % q
    if R.ndim != 2:
        raise ValueError(f"expected a 2-dimensional array, got shape {R.shape}")
    nrows, ncols = R.shape
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        nz = np.nonzero(R[row:, col])[0]
        if nz.size == 0:
            continue
        src = row + int(nz[0])
        # the pivot row is 0 left of col, like every row from `row` on, so
        # only columns col.. change
        pivot = R[src, col:] * pow(int(R[src, col]), q - 2, q) % q
        if src != row:
            R[src] = R[row]
        rest = R[:, col:]
        np.remainder(rest - R[:, col, None] * pivot, q, out=rest)
        rest[row] = pivot
        pivots.append(col)
        row += 1
    return R, pivots


def matrix_rank(matrix, q: int) -> int:
    _, pivots = rref(matrix, q)
    return len(pivots)


def kernel_basis(matrix, q: int) -> np.ndarray:
    """Basis of {x : matrix @ x = 0} as rows of a (dim, ncols) array."""
    R, pivots = rref(matrix, q)
    ncols = R.shape[1]
    free = [c for c in range(ncols) if c not in pivots]
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for i, pc in enumerate(pivots):
            basis[k, pc] = (-R[i, fc]) % q
    return basis


def gaussian_binomial(k: int, r: int, q: int) -> int:
    """Number of r-dimensional subspaces of F_q^k, as an exact integer."""
    if r < 0 or r > k:
        return 0
    return _gaussian_row(k, q)[r]


@lru_cache(maxsize=32)
def _gaussian_row(k: int, q: int) -> tuple[int, ...]:
    """[k, r]_q for r = 0..k, each from the one before by the exact
    division [k, r] = [k, r - 1] (q^(k - r + 1) - 1) / (q^r - 1)."""
    row = [1]
    for r in range(1, k + 1):
        row.append(row[-1] * (q ** (k - r + 1) - 1) // (q**r - 1))
    return tuple(row)
