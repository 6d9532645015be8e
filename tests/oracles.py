"""Independent slow routes to the quantities the package computes, used only
by the tests.  The footprint walk scores subsets with witness and survival
masks built one cell at a time and with Hilbert-sum lengths, where the
package builds its masks by array passes.

Besides the reference scans below, this module holds the general ideal
algebra that the package no longer needs: exact polynomial division,
homogeneous components, the last-variable elimination order, ideal
intersections and colon ideals by elimination, ideal equality, monomial
intersections and colon ideals, and the enumerations of F_q^n, of
projective representatives and of every r-dimensional subspace of F_q^k."""

from itertools import combinations

import numpy as np

from rghw.codes import BudgetExceededError, build_code, validate_subcode
from rghw.field import PrimeField
from rghw.groebner import Ideal, buchberger, reduced_basis
from rghw.linalg import gaussian_binomial, kernel_basis, matrix_rank, rref
from rghw.monideal import FootprintRays, MonomialIdeal, monomial_quotient_degree
from rghw.points import ProjectivePointSet, all_projective_points, evaluation_matrix
from rghw.polyring import GREVLEX, Monomial, MonomialOrder, PolyRing, Polynomial


# --- polynomial and ideal algebra -------------------------------------------


class EliminateLastOrder(MonomialOrder):
    """Block order that eliminates the last variable: compare its exponent
    first, break ties by grevlex on the remaining variables.  Any monomial
    containing the last variable is greater than any monomial without it, so
    a leading monomial free of it certifies the whole polynomial is."""

    name = "eliminate-last"

    def key(self, monomial: Monomial):
        e = monomial.exponents
        front = e[:-1]
        return (e[-1], sum(front), tuple(-x for x in reversed(front)))


def exact_divide(f: Polynomial, g: Polynomial, order: MonomialOrder = GREVLEX) -> Polynomial:
    """Quotient f/g when g divides f exactly; raises otherwise."""
    quotient = f.ring.zero()
    work = f
    glm = g.leading_monomial(order)
    q = f.ring.q
    ginv = pow(g.leading_coefficient(order), -1, q)
    while not work.is_zero():
        lm = work.leading_monomial(order)
        if not glm.divides(lm):
            raise ValueError(f"{g} does not divide {f}")
        step = lm.divide_by(glm)
        coeff = work.leading_coefficient(order) * ginv % q
        quotient = quotient + f.ring.from_terms({step: coeff})
        work = work - g.scaled_shift(step, coeff)
    return quotient


def homogeneous_components(f: Polynomial) -> list[Polynomial]:
    """The homogeneous parts of f, by increasing degree."""
    by_degree: dict[int, dict] = {}
    for m, c in f.terms.items():
        by_degree.setdefault(m.degree, {})[m] = c
    return [Polynomial(f.ring, by_degree[d]) for d in sorted(by_degree)]


def is_graded(ideal: Ideal) -> bool:
    """True when every given generator is homogeneous (which makes the
    ideal graded; the converse is not tested)."""
    return all(g.is_homogeneous() for g in ideal.gens)


def _eliminate_last(gens, ring: PolyRing) -> list[Polynomial]:
    """Groebner basis members free of the last (auxiliary) variable, mapped
    back down to the original ring."""
    order = EliminateLastOrder()
    gb = reduced_basis(buchberger(gens, order), order)
    out = []
    for g in gb:
        if g.leading_monomial(order).exponents[-1] == 0:
            out.append(
                ring.from_terms(
                    {Monomial(m.exponents[:-1]): c for m, c in g.terms.items()}
                )
            )
    return out


def _lift(f: Polynomial, ring_ext: PolyRing) -> Polynomial:
    return ring_ext.from_terms(
        {Monomial(m.exponents + (0,)): c for m, c in f.terms.items()}
    )


def ideal_intersection(left: Ideal, right: Ideal) -> Ideal:
    """I intersect J, via the auxiliary-variable trick: eliminate w from
    w*I + (1-w)*J.  Both inputs must be graded; each eliminated generator is
    split into homogeneous components, which still generate because the
    intersection of graded ideals is graded."""
    ring = left.ring
    if right.ring != ring:
        raise ValueError("ideals from different rings")
    if not (is_graded(left) and is_graded(right)):
        raise ValueError("intersection requires homogeneous generators")
    ext = PolyRing(ring.field, ring.nvars + 1)
    w = ext.gens()[-1]
    gens = [_lift(g, ext) * w for g in left.gens]
    gens += [_lift(g, ext) * (ext.one() - w) for g in right.gens]
    projected = _eliminate_last(gens, ring)
    split = [comp for g in projected for comp in homogeneous_components(g)]
    return Ideal(ring, split, left.order)


def ideal_quotient(ideal: Ideal, polys) -> Ideal:
    """The colon ideal (I : (f1..fr)) = {g : g*fi in I for every i},
    computed one fi at a time via (I : f) = (I intersect (f)) / f."""
    polys = [ideal.ring.parse(f) if isinstance(f, str) else f for f in polys]
    if not polys or any(f.is_zero() for f in polys):
        raise ValueError("colon requires nonzero polynomials")
    result: Ideal | None = None
    for f in polys:
        meet = ideal_intersection(ideal, Ideal(ideal.ring, [f], ideal.order))
        single = Ideal(
            ideal.ring,
            [exact_divide(g, f, ideal.order) for g in meet.groebner_basis()],
            ideal.order,
        )
        result = single if result is None else ideal_intersection(result, single)
    return result


def ideal_equal(left: Ideal, right: Ideal) -> bool:
    return all(g in right for g in left.gens) and all(g in left for g in right.gens)


def monomial_intersection(left: MonomialIdeal, right: MonomialIdeal) -> MonomialIdeal:
    """J intersect K, generated by the pairwise lcms of the generators."""
    if not isinstance(right, MonomialIdeal) or right.nvars != left.nvars:
        raise ValueError("monomial ideals over different variable counts")
    if left.is_zero() or right.is_zero():
        return MonomialIdeal(left.nvars)
    return MonomialIdeal(
        left.nvars, [a.lcm(b) for a in left.gens for b in right.gens]
    )


def quotient_by_monomial(ideal: MonomialIdeal, m: Monomial) -> MonomialIdeal:
    """The colon ideal (J : m) = {f : f*m in J}."""
    if not isinstance(m, Monomial) or len(m.exponents) != ideal.nvars:
        raise ValueError(f"expected a monomial in {ideal.nvars} variables")
    return MonomialIdeal(ideal.nvars, [g.divide_by(g.gcd(m)) for g in ideal.gens])


def quotient_by_set(ideal: MonomialIdeal, monomials) -> MonomialIdeal:
    """(J : (m1, .., mk)), the intersection of the single colon ideals."""
    mons = list(monomials)
    if not mons:
        raise ValueError("colon by an empty set of monomials")
    result = quotient_by_monomial(ideal, mons[0])
    for m in mons[1:]:
        result = monomial_intersection(result, quotient_by_monomial(ideal, m))
    return result


# --- vector and subspace enumeration over F_q --------------------------------


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

    Yields int64 arrays of shape (B, r, k) with B <= max_batch; each slice
    [b] is the reduced row echelon basis of one subspace.
    """
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
        total = q ** len(free)
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


def subspace_support(rows, q: int) -> int:
    """Support size of the row space: coordinates where some row is nonzero.
    The rows must be an independent basis."""
    rows = np.asarray(rows, dtype=np.int64) % q
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise ValueError("need a nonempty list of rows")
    if matrix_rank(rows, q) < rows.shape[0]:
        raise ValueError("dependent basis rows")
    return int((rows.any(axis=0)).sum())


# --- reference routes ---------------------------------------------------------


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
    a = point
    variables = ring.gens()
    gens = []
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            coeffs = {}
            if a[j]:
                coeffs[variables[i].leading_monomial()] = a[j]
            if a[i]:
                coeffs[variables[j].leading_monomial()] = -a[i]
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
            poly = ring.from_terms({m: int(c) for m, c in zip(monomials, vec)})
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
    admissible subspaces are the feasible ones with a common zero on X.
    The subcode's evaluation rows come from evaluating its polynomials at X,
    not from the scan's product of coefficient rows and generator rows."""
    k, n, q = code.k, code.n, code.q
    gen = code.generator_rows
    if sub.k1:
        polys = [code.coefficients_to_polynomial(row) for row in sub.coeff_rows]
        sub_rref, sub_pivots = rref(evaluation_matrix(code.X, polys), q)
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


def full_space_rgmdf(code, r, sub=None, budget=10**7):
    """rgmdf over subspaces of the entire degree-d coefficient space (not
    just standard polynomials), as deg(S/I) minus the largest common zero
    set: confirms that restricting to standard polynomials never changes
    the maximum."""
    ring = code.ring
    q = code.q
    monomials = code.order.sorted(ring.monomials_of_degree(code.d), reverse=True)
    N = len(monomials)
    total = gaussian_binomial(N, r, q)
    if total > budget:
        raise BudgetExceededError(total, budget)
    rows = evaluation_matrix(code.X, monomials)
    # coefficient rows of the normal forms, for independence-mod-I tests
    nf_rows = np.zeros((N, code.k), dtype=np.int64)
    for i, m in enumerate(monomials):
        nf_rows[i] = code.polynomial_to_coefficients(ring.from_terms({m: 1}))
    if sub is None:
        sub = validate_subcode(code, [])
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


def survival_mask(engine, monomial):
    """Bit b set when ray cell b of the FootprintRays engine stays standard
    in S/(J + (monomial)), one cell at a time: the monomial kills cell
    (i, m') exactly when its exponents away from direction i fit under m'."""
    mu = monomial.exponents
    mask = 0
    for b, (i, cell) in enumerate(engine.ray_cells):
        if any(mu[j] > cell[j] for j in range(len(mu)) if j != i):
            mask |= 1 << b
    return mask


def witness_mask(engine, monomial):
    """Bit b set when witness cell b of the engine lands in J once
    multiplied by the monomial, tested against J's generators divided by
    their gcd with it, one cell at a time."""
    shifted = [g.divide_by(g.gcd(monomial)) for g in engine.ideal.gens]
    mask = 0
    for b, v in enumerate(engine.witness_cells):
        if any(all(s <= w for s, w in zip(g.exponents, v)) for g in shifted):
            mask |= 1 << b
    return mask


def sum_degree(engine, monomials, survivors=None):
    """deg S/(J + (M)): the popcount of the AND of the survival masks when
    it is nonzero, and otherwise the Hilbert sum of the finite quotient."""
    if survivors is None:
        survivors = (1 << len(engine.ray_cells)) - 1
        for m in monomials:
            survivors &= survival_mask(engine, m)
    if survivors:
        return survivors.bit_count()
    return monomial_quotient_degree(engine.ideal, monomials).degree


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
    witness = [witness_mask(engine, m) for m in pool]
    survival = [survival_mask(engine, m) for m in pool]
    chosen = []

    def walk(start, wmask, smask):
        size = len(chosen) + 1
        for i in range(start, len(pool)):
            w = wmask & witness[i]
            if w == 0:
                continue
            chosen.append(i)
            s = smask & survival[i]
            value = sum_degree(engine, [pool[j] for j in chosen], s)
            counts[size] += 1
            if best[size] is None or value > best[size]:
                best[size] = value
            if size < rmax:
                walk(i + 1, w, s)
            chosen.pop()

    walk(0, -1, (1 << len(engine.ray_cells)) - 1)
    return counts, best
