"""Shared reference constructions used by the acceptance tests: independent
slow routes to the same quantities the package computes."""

import numpy as np

from rghw.codes import build_code, validate_subcode
from rghw.field import PrimeField
from rghw.groebner import Ideal, ideal_intersection
from rghw.linalg import all_vectors, gaussian_binomial, kernel_basis, matrix_rank
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
