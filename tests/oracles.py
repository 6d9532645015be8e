"""Shared reference constructions used by the acceptance tests: independent
slow routes to the same quantities the package computes."""

import numpy as np

from rghw.codes import BudgetExceededError, build_code, validate_subcode
from rghw.field import PrimeField
from rghw.groebner import Ideal, ideal_intersection
from rghw.linalg import (
    all_vectors,
    gaussian_binomial,
    iter_subspace_batches,
    kernel_basis,
    matrix_rank,
    projective_reps,
    rref,
)
from rghw.monideal import FootprintRays
from rghw.points import ProjectivePointSet, all_projective_points, evaluation_matrix
from rghw.polyring import PolyRing


def minimum_distance_scan(code):
    """Smallest codeword weight found by walking every coefficient vector."""
    q = code.q
    best = code.n
    for coeffs in all_vectors(code.k, q):
        if not any(coeffs):
            continue
        word = np.asarray(coeffs, dtype=np.int64) @ code.generator_rows % q
        best = min(best, int(np.count_nonzero(word)))
    return best


def single_point_ideal(ring, point):
    """Linear forms cutting out one projective point: all 2x2 minors of the
    matrix stacking the variables over the coordinates."""
    a = point.values
    variables = ring.gens()
    gens = []
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            coeffs = {}
            if a[j]:
                coeffs[variables[i].leading_monomial()] = ring.field(a[j])
            if a[i]:
                coeffs[variables[j].leading_monomial()] = -ring.field(a[i])
            if coeffs:
                gens.append(ring.from_terms(coeffs))
    return Ideal(ring, gens)


def intersection_of_point_ideals(X):
    """Vanishing ideal computed the slow way: intersect the ideals of the
    individual points."""
    ring = PolyRing(X.field, X.s)
    result = None
    for p in X:
        ideal = single_point_ideal(ring, p)
        result = ideal if result is None else ideal_intersection(result, ideal)
    return result


def vanishing_ideal_by_buchberger(X, order):
    """Vanishing ideal built the Buchberger way: each degree's evaluation
    kernel adds the vectors not yet in the ideal as generators, and the
    reduced basis is recomputed after each one.  Stops one degree past the
    first full-rank degree, which suffices for generating I_X; Buchberger
    then finds the initial ideal's generators in any higher degree."""
    ring = PolyRing(X.field, X.s)
    field = X.field
    gens = []
    ideal = Ideal(ring, [], order)
    d = -1
    rank_reached = None
    while rank_reached is None or d < rank_reached + 1:
        d += 1
        monomials = ring.monomials_of_degree(d)
        rows = evaluation_matrix(X, monomials)
        for vec in kernel_basis(rows.T, field.q):
            poly = ring.from_terms({m: field(int(c)) for m, c in zip(monomials, vec)})
            if not ideal.normal_form(poly).is_zero():
                gens.append(poly)
                ideal = Ideal(ring, gens, order)
        if rank_reached is None and matrix_rank(rows, field.q) == len(X):
            rank_reached = d
    return ideal


def enumeration_cost(k, q):
    """Number of echelon bases touched when every feasible (r, k1) pair of a
    dimension-k code is enumerated once."""
    total = 0
    for k1 in range(k):
        for r in range(1, k - k1 + 1):
            total += gaussian_binomial(k, r, q)
    return total


def sample_instance(rng, cost_cap=60_000):
    """One random (X, d, code) with every enumeration pass affordable;
    rejection keeps drawing until the cost cap is met."""
    while True:
        q = rng.choice([2, 3])
        s = rng.choice([3, 4])
        pool = list(all_projective_points(q, s))
        n = rng.randrange(3, min(8, len(pool)) + 1)
        X = ProjectivePointSet(PrimeField(q), rng.sample(pool, n))
        d = rng.choice([1, 2])
        code = build_code(X, d)
        if enumeration_cost(code.k, q) <= cost_cap:
            return code


def random_subcode(rng, code, k1):
    """A rank-k1 subcode spanned by random standard polynomials."""
    q = code.q
    while True:
        raw = np.array(
            [[rng.randrange(q) for _ in range(code.k)] for _ in range(k1)],
            dtype=np.int64,
        )
        if k1 == 0 or matrix_rank(raw.copy(), q) == k1:
            polys = [code.coefficients_to_polynomial(row) for row in raw]
            return validate_subcode(code, polys)


def _reduce_rows_mod_subcode(Z, sub_rref, pivots, q):
    """Eliminate the subcode's pivot coordinates from every row of every
    batch entry; the result is zero exactly on combinations lying in the
    subcode."""
    out = Z.copy()
    for row_idx, col in enumerate(pivots):
        factor = out[:, :, col]
        out = (out - factor[:, :, None] * sub_rref[row_idx][None, None, :]) % q
    return out


def rghw_by_support_scan(code, sub, r):
    """Walk every r-dimensional subspace of the code in evaluation space and
    keep those meeting the subcode only in zero, found by reducing modulo
    the subcode's echelon rows and testing every projective combination.
    Returns (min support, admissible count, feasible count), where the
    admissible subspaces are the feasible ones with a common zero on X."""
    k, n, q = code.k, code.n, code.q
    gen = code.generator_rows
    if sub.k1:
        sub_rref, sub_pivots = rref(sub.rows, q)
        combos = projective_reps(r, q)
    best = None
    admissible = feasible_count = 0
    for batch in iter_subspace_batches(k, r, q):
        Z = np.matmul(batch, gen) % q
        if sub.k1:
            reduced = _reduce_rows_mod_subcode(Z, sub_rref, sub_pivots, q)
            mixed = np.einsum("ck,bkn->bcn", combos, reduced) % q
            feasible = ~((mixed == 0).all(axis=2).any(axis=1))
        else:
            feasible = np.ones(Z.shape[0], dtype=bool)
        if not feasible.any():
            continue
        supports = (Z[feasible] != 0).any(axis=1).sum(axis=1)
        feasible_count += int(feasible.sum())
        admissible += int((supports < n).sum())
        m = int(supports.min())
        if best is None or m < best:
            best = m
    return best, admissible, feasible_count


def full_space_rgmdf(code, query, budget=10**7):
    """rgmdf over subspaces of the entire degree-d coefficient space (not
    just standard polynomials): confirms that restricting to standard
    polynomials never changes the maximum."""
    ring = code.ring
    q = code.q
    monomials = code.order.sorted(ring.monomials_of_degree(code.d), reverse=True)
    N = len(monomials)
    r = query.r
    total = gaussian_binomial(N, r, q)
    if total > budget:
        raise BudgetExceededError(total, budget)
    rows = evaluation_matrix(code.X, monomials)
    # coefficient rows of the normal forms, for independence-mod-I tests
    nf_rows = np.zeros((N, code.k), dtype=np.int64)
    for i, m in enumerate(monomials):
        nf_rows[i] = code.polynomial_to_coefficients(ring.from_terms({m: code.X.field(1)}))
    sub = query.subcode
    combos = projective_reps(r + sub.k1, q)
    degree = code.ideal.degree()
    best = None
    for batch in iter_subspace_batches(N, r, q, max_batch=1 << 12):
        coeff = np.matmul(batch, nf_rows) % q
        if sub.k1:
            stacked = np.concatenate(
                [coeff, np.broadcast_to(sub.coeff_rows, (batch.shape[0],) + sub.coeff_rows.shape)],
                axis=1,
            )
        else:
            stacked = coeff
        mixed = np.einsum("ck,bkj->bcj", combos, stacked) % q
        independent = ~((mixed == 0).all(axis=2).any(axis=1))
        Z = np.matmul(batch, rows) % q
        vanishing = (Z == 0).all(axis=1).sum(axis=1)
        admissible = independent & (vanishing > 0)
        if admissible.any():
            m = int(vanishing[admissible].max())
            if best is None or m > best:
                best = m
    if best is None:
        return degree
    return degree - best


def footprint_by_subset_walk(ideal, d, rmax):
    """Walk every admissible monomial subset of the degree-d footprint slice
    up to size rmax, in the profile's pool order, with no cut.  Returns
    (counts, best): counts[r] admissible r-subsets, and best[r] the largest
    score among them (popcount of the survivor mask, or the finite-quotient
    length when that mask is 0), None when there is none."""
    initial = ideal.initial_ideal()
    pool = ideal.order.sorted(ideal.footprint_slice(d), reverse=True)
    rmax = min(rmax, len(pool))
    counts = [0] * (rmax + 1)
    best = [None] * (rmax + 1)
    if not pool or rmax < 1:
        return counts, best
    engine = FootprintRays(initial)
    witness = [engine.witness_mask(m) for m in pool]
    survival = [engine.survival_mask(m) for m in pool]
    chosen = []

    def walk(start, wmask, smask):
        size = len(chosen) + 1
        for i in range(start, len(pool)):
            w = wmask & witness[i]
            if w == 0:
                continue
            chosen.append(i)
            s = smask & survival[i]
            value = engine.sum_degree([pool[j] for j in chosen], s)
            counts[size] += 1
            if best[size] is None or value > best[size]:
                best[size] = value
            if size < rmax:
                walk(i + 1, w, s)
            chosen.pop()

    walk(0, -1, (1 << len(engine.ray_cells)) - 1)
    return counts, best
