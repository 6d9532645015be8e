import random
from itertools import product

import numpy as np
import pytest

from oracles import all_vectors, iter_subspace_batches, projective_reps

from rghw.linalg import (
    digits,
    gaussian_binomial,
    kernel_basis,
    matrix_rank,
    require_exact_int64,
    rref,
)


def span_size(rows, q):
    """|span| by brute enumeration of all coefficient vectors."""
    rows = [tuple(r) for r in rows]
    seen = set()
    for coeffs in product(range(q), repeat=len(rows)):
        v = tuple(
            sum(c * r[j] for c, r in zip(coeffs, rows)) % q for j in range(len(rows[0]))
        )
        seen.add(v)
    return len(seen)


def test_rref_known():
    R, pivots = rref([[2, 4], [1, 3]], 5)
    assert pivots == [0, 1]
    assert np.array_equal(R, np.eye(2, dtype=np.int64))

    R, pivots = rref([[1, 2, 3], [2, 4, 6]], 7)
    assert pivots == [0]
    assert np.array_equal(R, [[1, 2, 3], [0, 0, 0]])


def test_rref_idempotent_and_rank():
    rng = random.Random(33001)
    for _ in range(100):
        q = rng.choice([2, 3, 5])
        rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
        A = np.array(
            [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)],
            dtype=np.int64,
        )
        R, pivots = rref(A, q)
        R2, pivots2 = rref(R, q)
        assert np.array_equal(R, R2)
        assert pivots == pivots2
        # rank agrees with the size of the row span
        assert q ** len(pivots) == span_size(A, q)
        # pivot columns are unit columns
        for i, c in enumerate(pivots):
            col = R[:, c]
            assert col[i] == 1 and np.count_nonzero(col) == 1


def test_kernel_basis():
    rng = random.Random(90210)
    for _ in range(100):
        q = rng.choice([2, 3, 5, 7])
        rows, cols = rng.randrange(1, 5), rng.randrange(1, 6)
        A = np.array(
            [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)],
            dtype=np.int64,
        )
        K = kernel_basis(A, q)
        assert K.shape[0] + matrix_rank(A, q) == cols
        if K.shape[0]:
            assert not np.any(A @ K.T % q)
            assert matrix_rank(K, q) == K.shape[0]


def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(4, 1, 2) == 15
    assert gaussian_binomial(4, 4, 2) == 1
    assert gaussian_binomial(4, 0, 2) == 1
    assert gaussian_binomial(3, 1, 3) == 13
    assert gaussian_binomial(3, 2, 3) == 13  # duality r <-> k-r
    assert gaussian_binomial(2, 3, 5) == 0


def _product_formula(k, r, q):
    """[k, r]_q = prod_{i < r} (q^(k-i) - 1) / (q^(i+1) - 1), formed whole."""
    if not 0 <= r <= k:
        return 0
    num = den = 1
    for i in range(r):
        num *= q ** (k - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def test_gaussian_binomial_matches_the_product_formula():
    for q in (2, 3, 5, 7, 11):
        for k in range(25):
            for r in range(-1, k + 2):
                assert gaussian_binomial(k, r, q) == _product_formula(k, r, q), (k, r, q)
    # a row with thousands of digits (the torus of P^3/F_7 at d = 9 has k = 216)
    for r in (1, 44, 108, 172, 216):
        assert gaussian_binomial(216, r, 7) == _product_formula(216, r, 7)


@pytest.mark.parametrize("k,r,q", [(4, 2, 2), (4, 2, 3), (5, 3, 2), (3, 1, 5), (4, 4, 3)])
def test_subspace_enumeration_complete_and_distinct(k, r, q):
    count = 0
    seen = set()
    for batch in iter_subspace_batches(k, r, q, max_batch=64):
        assert batch.shape[1:] == (r, k)
        for b in range(batch.shape[0]):
            basis = batch[b]
            assert matrix_rank(basis, q) == r
            R, _ = rref(basis, q)
            assert np.array_equal(R, basis)  # emitted bases are already canonical
            seen.add(basis.tobytes())
        count += batch.shape[0]
    assert count == gaussian_binomial(k, r, q)
    assert len(seen) == count


def test_subspace_enumeration_r_zero():
    batches = list(iter_subspace_batches(3, 0, 2))
    assert len(batches) == 1 and batches[0].shape == (1, 0, 3)


def test_projective_reps():
    for q, r in [(2, 3), (3, 2), (5, 2), (3, 3)]:
        P = projective_reps(r, q)
        assert P.shape == ((q**r - 1) // (q - 1), r)
        seen = set()
        for row in P:
            nz = np.nonzero(row)[0]
            assert nz.size > 0 and row[nz[0]] == 1
            seen.add(row.tobytes())
        assert len(seen) == P.shape[0]
        # every nonzero vector is a multiple of exactly one representative
        reps = {tuple(r_) for r_ in P.tolist()}
        covered = set()
        for rep in reps:
            for c in range(1, q):
                covered.add(tuple(c * x % q for x in rep))
        assert len(covered) == q**r - 1


def test_all_vectors():
    V = all_vectors(3, 3)
    assert V.shape == (27, 3)
    assert len({v.tobytes() for v in V}) == 27
    assert all_vectors(0, 5).shape == (1, 0)


@pytest.mark.parametrize("radix", [[], [1], [4], [2, 3], [3, 1, 2], [1, 1], [5, 2, 1, 3]])
def test_digits_count_in_mixed_radix(radix):
    # most significant digit first: the rows of itertools.product, in order,
    # for every window lo..hi
    rows = [list(t) for t in product(*map(range, radix))]
    for lo in range(len(rows) + 1):
        for hi in range(lo, len(rows) + 1):
            got = digits(lo, hi, radix)
            assert got.shape == (hi - lo, len(radix)) and got.dtype == np.int64
            assert got.tolist() == rows[lo:hi]


def test_int64_bound_refuses_large_moduli():
    big = 10**18 + 3
    with pytest.raises(ValueError, match="q <= 3037000500"):
        rref([[1, 2], [3, 4]], big)
    # 2^31 - 1: (q-1)^2 fits twice below 2^63 but not three times
    q = 2**31 - 1
    require_exact_int64(q, 2)
    with pytest.raises(ValueError, match="\\(q - 1\\)\\^2 \\* 3"):
        require_exact_int64(q, 3)
