"""Dense linear algebra over a prime field F_q on numpy int64 arrays.

Matrices hold representatives in [0, q).  Everything here is exact integer
arithmetic as long as every sum of L products of two residues, at most
(q - 1)^2 * L, stays below 2^63; `require_exact_int64` refuses larger q.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

from .field import _is_prime


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


def inverse_table(q: int) -> np.ndarray:
    """inv[v] for v in 1..q-1; inv[0] is 0 and must never be used."""
    if not _is_prime(q):
        raise ValueError(f"{q} is not prime")
    table = np.zeros(q, dtype=np.int64)
    for v in range(1, q):
        table[v] = pow(v, q - 2, q)
    return table


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
        if src != row:
            R[[row, src]] = R[[src, row]]
        R[row] = R[row] * pow(int(R[row, col]), q - 2, q) % q
        others = R[:, col].copy()
        others[row] = 0
        R -= np.outer(others, R[row])
        R %= q
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


def mul_mod(a, b, q: int) -> np.ndarray:
    a = np.asarray(a, dtype=np.int64)
    require_exact_int64(q, a.shape[-1])
    return a @ np.asarray(b, dtype=np.int64) % q


def gaussian_binomial(k: int, r: int, q: int) -> int:
    """Number of r-dimensional subspaces of F_q^k, as an exact integer."""
    if r < 0 or r > k:
        return 0
    num = 1
    den = 1
    for i in range(r):
        num *= q ** (k - i) - 1
        den *= q ** (i + 1) - 1
    quotient, rest = divmod(num, den)
    if rest:
        raise RuntimeError(f"Gaussian binomial [{k} {r}]_{q} is not an integer")
    return quotient


def all_vectors(n: int, q: int) -> np.ndarray:
    """All q^n vectors of F_q^n, one per row, in base-q counting order."""
    if n == 0:
        return np.zeros((1, 0), dtype=np.int64)
    idx = np.arange(q**n, dtype=np.int64)
    powers = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return idx[:, None] // powers[None, :] % q


def projective_reps(r: int, q: int) -> np.ndarray:
    """One representative per line of F_q^r: first nonzero entry scaled to 1.
    Shape ((q^r - 1) // (q - 1), r)."""
    blocks = []
    for j in range(r):
        tail = all_vectors(r - 1 - j, q)
        block = np.zeros((tail.shape[0], r), dtype=np.int64)
        block[:, j] = 1
        block[:, j + 1 :] = tail
        blocks.append(block)
    return np.concatenate(blocks, axis=0)


def iter_subspace_batches(k: int, r: int, q: int, max_batch: int = 4096):
    """Enumerate every r-dimensional subspace of F_q^k exactly once.

    Yields int64 arrays of shape (B, r, k); each slice [b] is the reduced
    row echelon basis of one subspace.  Grouping into batches keeps the
    downstream matrix products vectorized.
    """
    from itertools import combinations

    if r == 0:
        yield np.zeros((1, 0, k), dtype=np.int64)
        return
    for pattern in combinations(range(k), r):
        pivot_set = set(pattern)
        free = [
            (i, j)
            for i, p in enumerate(pattern)
            for j in range(p + 1, k)
            if j not in pivot_set
        ]
        nfree = len(free)
        total = q**nfree
        base = np.zeros((r, k), dtype=np.int64)
        for i, p in enumerate(pattern):
            base[i, p] = 1
        start = 0
        while start < total:
            stop = min(start + max_batch, total)
            idx = np.arange(start, stop, dtype=np.int64)
            batch = np.broadcast_to(base, (stop - start, r, k)).copy()
            for slot, (i, j) in enumerate(free):
                batch[:, i, j] = idx // q**slot % q
            yield batch
            start = stop
