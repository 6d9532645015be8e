"""The three weight functions on a degree-d slice: the footprint lower bound
from monomial subsets of the initial ideal, and the two subspace-enumeration
functions (degree-drop maximization and colon-degree minimization) that both
compute the relative generalized Hamming weight for vanishing ideals."""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .codes import (
    BudgetExceededError,
    EvaluationCode,
    SubcodeSpec,
    validate_subcode,
)
from .groebner import Ideal
from .linalg import gaussian_binomial
from .monideal import FootprintRays, MonomialIdeal
from .points import zero_set
from .polyring import Monomial, Polynomial


class WeightQuery:
    """A validated (d, r, k1, G) tuple bound to a code: r must lie in
    [1, k - k1] for the code's dimension k."""

    def __init__(self, code: EvaluationCode, r: int, subcode: SubcodeSpec | None = None):
        if subcode is None:
            subcode = validate_subcode(code, [])
        if subcode.code is not code:
            raise ValueError("subcode was validated against a different code")
        if not 1 <= r <= code.k - subcode.k1:
            raise ValueError(f"rank r={r} outside [1, {code.k - subcode.k1}]")
        self.code = code
        self.d = code.d
        self.r = r
        self.k1 = subcode.k1
        self.subcode = subcode

    def __repr__(self) -> str:
        return f"WeightQuery(d={self.d}, r={self.r}, k1={self.k1})"


class FootprintProfile:
    """Shared depth-first scan over admissible monomial subsets of the
    degree-d footprint slice, recording for every size r both the number of
    admissible subsets and the largest degree of S modulo the enlarged
    initial ideal.  Raises BudgetExceededError once it has visited more than
    `budget` admissible subsets."""

    def __init__(
        self, ideal: Ideal, d: int, rmax: int | None = None, budget: int = 10**7
    ):
        self.ideal = ideal
        self.d = d
        initial = ideal.initial_ideal()
        self.pool = ideal.order.sorted(ideal.footprint_slice(d), reverse=True)
        self.total_degree = ideal.degree()
        rmax = len(self.pool) if rmax is None else min(rmax, len(self.pool))
        self.rmax = rmax
        self.counts = [0] * (rmax + 1)
        self.best = [None] * (rmax + 1)
        if not self.pool or rmax < 1:
            return
        engine = FootprintRays(initial)
        witness = [engine.witness_mask(m) for m in self.pool]
        survival = [engine.survival_mask(m) for m in self.pool]
        full = (1 << len(engine.ray_cells)) - 1
        fallback_cache: dict[tuple, int] = {}

        def degree_of(chosen, survivors):
            if survivors:
                return survivors.bit_count()
            key = initial.add([self.pool[i] for i in chosen]).gens
            if key not in fallback_cache:
                fallback_cache[key] = engine.sum_degree(
                    [self.pool[i] for i in chosen], survivors
                )
            return fallback_cache[key]

        chosen: list[int] = []
        remaining = budget

        def walk(start, wmask, smask):
            nonlocal remaining
            size = len(chosen)
            for i in range(start, len(self.pool)):
                w = wmask & witness[i]
                if w == 0:
                    continue
                remaining -= 1
                if remaining < 0:
                    raise BudgetExceededError(None, budget)
                chosen.append(i)
                s = smask & survival[i]
                value = degree_of(chosen, s)
                self.counts[size + 1] += 1
                if self.best[size + 1] is None or value > self.best[size + 1]:
                    self.best[size + 1] = value
                if size + 1 < rmax:
                    walk(i + 1, w, s)
                chosen.pop()

        walk(0, -1, full)

    def value(self, r: int) -> int:
        """fp at rank r: degree drop against the best admissible subset, or
        the full degree when no subset of size r is admissible."""
        if r < 1:
            raise ValueError(f"rank must be positive, got {r}")
        if r > self.rmax or self.best[r] is None:
            return self.total_degree
        return self.total_degree - self.best[r]

    def candidate_count(self, r: int) -> int:
        return self.counts[r] if 1 <= r <= self.rmax else 0


def rgff(ideal_or_query, d: int | None = None, r: int | None = None) -> int:
    """Footprint lower bound fp(d, r) for a graded ideal, from the maximal
    degree drop over admissible monomial subsets of the degree-d footprint.
    Accepts either (ideal, d, r) or a WeightQuery."""
    if isinstance(ideal_or_query, WeightQuery):
        query = ideal_or_query
        profile = FootprintProfile(query.code.ideal, query.d, query.r)
        return profile.value(query.r)
    if d is None or r is None:
        raise ValueError("rgff needs d and r when called with an ideal")
    return FootprintProfile(ideal_or_query, d, r).value(r)


class CandidateScan:
    """One pass over every r-dimensional subspace D of the coefficient space
    with D meeting the subcode C_1 only in zero, recording how many there are
    (`feasible_count`), how many share a zero on X (`family_count`, the
    admissible ones), and the largest common zero set (`max_vanishing`).

    With C_1 in reduced echelon form on pivot set P, each such D is the row
    space of E + L C_1 for exactly one reduced echelon basis E supported off
    P and one L in F_q^(r x k1), so the pass enumerates the pairs (E, L) and
    filters nothing: there are q^(r k1) [k - k1, r]_q of them.

    For one pivot pattern of E, the evaluations (E + L C_1) G form an affine
    family base + sum_t v_t dirs[t], v in F_q^m, with one direction per free
    entry of E and one per entry of L (`_echelon_family`).  The pass splits
    v into a head and a tail: D vanishes at a point exactly where the head's
    column there equals minus the tail's, mod q.  Each column is packed into
    one integer, so the test is one comparison per (head, tail, point)."""

    def __init__(self, query: WeightQuery, budget: int = 10**7):
        code = query.code
        k, n, q, r = code.k, code.n, code.q, query.r
        total = gaussian_binomial(k, r, q)
        if total > budget:
            raise BudgetExceededError(total, budget)
        self.query = query
        sub = query.subcode
        pivots = {int(np.argmax(row != 0)) for row in sub.coeff_rows}
        rows = code.generator_rows
        off_pivot_rows = rows[[c for c in range(k) if c not in pivots]]
        sub_evals = np.matmul(sub.coeff_rows, rows) % q
        # base-q packing of r residues into int64 words, `group` per word
        group = max(1, 62 // q.bit_length())
        pack = np.zeros((-(-r // group), r), dtype=np.int64)
        for i in range(r):
            pack[i // group, i] = q ** (i % group)
        tail_len = 0
        while q ** (tail_len + 1) <= _SCAN_BATCH:
            tail_len += 1
        count_dtype = np.min_scalar_type(n)
        feasible_count = family_count = max_vanishing = 0
        for pattern in combinations(range(k - sub.k1), r):
            base, dirs = _echelon_family(pattern, off_pivot_rows, sub_evals)
            split = max(0, len(dirs) - tail_len)
            tail = -_span(dirs[split:], q) % q
            # words as (word, point, tail): with the tail as the inner axis
            # each comparison runs over one long contiguous row
            tail_words = np.einsum("gi,tin->gnt", pack, tail)
            heads = q**split
            step = max(1, _SCAN_BATCH // len(tail))
            for lo in range(0, heads, step):
                coeffs = _digits(lo, min(lo + step, heads), split, q)
                head = (base + np.tensordot(coeffs, dirs[:split], axes=1)) % q
                head_words = np.einsum("gi,cin->gcn", pack, head)
                hits = head_words[0, :, :, None] == tail_words[0]
                for g in range(1, len(pack)):
                    hits &= head_words[g, :, :, None] == tail_words[g]
                vanishing = hits.sum(axis=1, dtype=count_dtype)
                feasible_count += vanishing.size
                family_count += int(np.count_nonzero(vanishing))
                max_vanishing = max(max_vanishing, int(vanishing.max()))
        if feasible_count == 0:
            raise RuntimeError(f"no feasible subspace despite r = {r} <= k - k1")
        self.feasible_count = feasible_count
        self.family_count = family_count
        self.max_vanishing = max_vanishing
        self.min_support = n - max_vanishing

    @property
    def delta(self) -> int:
        # max_vanishing is 0 when no subspace is admissible: delta is deg
        return self.query.code.ideal.degree() - self.max_vanishing

    @property
    def theta(self) -> int:
        if not self.family_count:
            return self.query.code.ideal.degree()
        return self.min_support


# (head, tail) pairs per numpy step: bounds the scan's peak memory.
_SCAN_BATCH = 1 << 14


def _echelon_family(pattern, off_pivot_rows: np.ndarray, sub_evals: np.ndarray):
    """Evaluations of the subspaces whose echelon part E has the given pivot
    pattern on the off-pivot coordinates: base (r, n) and dirs (m, r, n) such
    that the rows of (E + L C_1) G are base + sum_t v_t dirs[t] for exactly
    one v in F_q^m."""
    r, (width, n) = len(pattern), off_pivot_rows.shape
    slots = [
        (i, off_pivot_rows[j])
        for i, p in enumerate(pattern)
        for j in range(p + 1, width)
        if j not in pattern
    ]
    slots += [(i, e) for i in range(r) for e in sub_evals]
    dirs = np.zeros((len(slots), r, n), dtype=np.int64)
    for t, (i, vec) in enumerate(slots):
        dirs[t, i] = vec
    return off_pivot_rows[list(pattern)], dirs


def _span(dirs: np.ndarray, q: int) -> np.ndarray:
    """Every sum_t v_t dirs[t] for v in F_q^len(dirs), unreduced, as an
    array of shape (q^len(dirs), r, n)."""
    out = np.zeros((1,) + dirs.shape[1:], dtype=np.int64)
    for d in dirs:
        multiples = np.arange(q, dtype=np.int64)[:, None, None, None]
        out = (out[None] + multiples * d).reshape((-1,) + dirs.shape[1:])
    return out


def _digits(lo: int, hi: int, width: int, q: int) -> np.ndarray:
    """Base-q digit vectors, of the given width, of the integers lo..hi-1."""
    idx = np.arange(lo, hi, dtype=np.int64)
    return idx[:, None] // q ** np.arange(width, dtype=np.int64) % q


def rgmdf(query: WeightQuery, budget: int = 10**7) -> int:
    """Degree-drop weight: deg(S/I) minus the largest vanishing-set size over
    admissible subspaces; deg(S/I) itself when no subspace is admissible."""
    return CandidateScan(query, budget).delta


def vasconcelos(query: WeightQuery, budget: int = 10**7) -> int:
    """Colon-degree weight: the smallest count of points left alive by an
    admissible subspace; deg(S/I) when no subspace is admissible."""
    return CandidateScan(query, budget).theta


def candidate_membership_check(code: EvaluationCode, items):
    """Admissibility test with a witness.

    For polynomials: whether the common zero set on X is nonempty; the
    witness is its first point.  For monomials: whether coloning the initial
    ideal by the set enlarges it; the witness is a standard monomial landing
    inside the initial ideal under every member."""
    items = list(items)
    if not items:
        raise ValueError("empty candidate set")
    if all(isinstance(m, Monomial) for m in items):
        initial = code.ideal.initial_ideal()
        engine = FootprintRays(initial)
        acc = -1
        for m in items:
            acc &= engine.witness_mask(m)
        if acc == 0:
            return False, None
        low = (acc & -acc).bit_length() - 1
        return True, Monomial(engine.witness_cells[low])
    if all(isinstance(p, Polynomial) for p in items):
        V = zero_set(code.X, items)
        if V:
            return True, V[0]
        return False, None
    raise ValueError("mix of monomials and polynomials in candidate set")
