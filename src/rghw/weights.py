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
from .linalg import gaussian_binomial, require_exact_int64
from .monideal import FootprintRays


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
    """The largest degree of S modulo the enlarged initial ideal over the
    admissible monomial subsets of each size r <= rmax of the degree-d
    footprint slice, found by one depth-first branch-and-bound per rank.

    A subset M is admissible when the AND of its witness masks is nonzero,
    and scores the popcount of the AND of its survival masks, or, when that
    AND is 0, the length of the finite quotient S/(J + M).  Three cuts are
    exact:
    - size: fewer compatible candidates remain than the subset still needs;
    - popcount: survivor masks only shrink, so while no descendant can reach
      mask 0 a subtree scores at most the need-th largest child popcount;
    - zero mask: once the mask is 0 the quotient is finite and only shrinks,
      so a node whose length is at most the best found is cut.

    `counts[r]` is the number of nodes rank r's search expanded; the nodes
    of all ranks count against `budget`, past which BudgetExceededError is
    raised.  `candidate_count` enumerates the admissible subsets themselves,
    on first call, against a budget of its own."""

    def __init__(
        self, ideal: Ideal, d: int, rmax: int | None = None, budget: int = 10**7
    ):
        self.ideal = ideal
        self.d = d
        self.budget = budget
        initial = ideal.initial_ideal()
        pool = self.pool = ideal.order.sorted(ideal.footprint_slice(d), reverse=True)
        self.total_degree = ideal.degree()
        rmax = len(pool) if rmax is None else min(rmax, len(pool))
        self.rmax = rmax
        self.counts = [0] * (rmax + 1)
        self.best = [None] * (rmax + 1)
        self._admissible = None
        if not pool or rmax < 1:
            return
        engine = FootprintRays(initial)
        witness = self._witness = [engine.witness_mask(m) for m in pool]
        survival = [engine.survival_mask(m) for m in pool]
        full = (1 << len(engine.ray_cells)) - 1
        # tail_kill[i]: AND of the survival masks of the candidates j >= i
        # that are admissible alone; s & tail_kill[i] != 0 means no subset
        # drawn from them can take survivor mask s to 0
        tail_kill = [full] * (len(pool) + 1)
        for i in reversed(range(len(pool))):
            tail_kill[i] = tail_kill[i + 1] & (survival[i] if witness[i] else full)
        lengths: dict[tuple, int] = {}

        def length(chosen):
            monomials = [pool[i] for i in chosen]
            key = initial.add(monomials).gens
            if key not in lengths:
                lengths[key] = engine.sum_degree(monomials, 0)
            return lengths[key]

        chosen: list[int] = []
        nodes = 0
        best = -1

        def search(start, wmask, smask, need):
            nonlocal nodes, best
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(None, budget)
            kids = []
            for i in range(start, len(pool)):
                w = wmask & witness[i]
                if w:
                    s = smask & survival[i]
                    kids.append((-s.bit_count(), i, w, s))
            if len(kids) < need:
                return
            if need == 1:
                for neg, i, _, s in kids:
                    if s:
                        best = max(best, -neg)
                    else:
                        chosen.append(i)
                        best = max(best, length(chosen))
                        chosen.pop()
                return
            # a child must leave need - 1 compatible candidates after it
            last = kids[-need][1]
            safe = smask & tail_kill[start] != 0
            kids.sort()  # largest popcount first
            if safe and -kids[need - 1][0] <= best:
                return
            for neg, i, w, s in kids:
                if i > last:
                    continue
                chosen.append(i)
                if s:
                    keep = -neg > best or not s & tail_kill[i + 1]
                else:
                    keep = length(chosen) > best
                if keep:
                    search(i + 1, w, s, need - 1)
                chosen.pop()

        for r in range(1, rmax + 1):
            before, best = nodes, -1
            search(0, -1, full, r)
            self.counts[r] = nodes - before
            if best < 0:
                # no admissible r-subset, hence none larger either
                break
            self.best[r] = best

    def value(self, r: int) -> int:
        """fp at rank r: degree drop against the best admissible subset, or
        the full degree when no subset of size r is admissible."""
        if r < 1:
            raise ValueError(f"rank must be positive, got {r}")
        if r > self.rmax or self.best[r] is None:
            return self.total_degree
        return self.total_degree - self.best[r]

    def candidate_count(self, r: int) -> int:
        """Number of admissible subsets of size r.  The first call counts
        every size up to rmax by a depth-first walk over the witness masks,
        and raises BudgetExceededError past `budget` subsets."""
        if not 1 <= r <= self.rmax:
            return 0
        if self._admissible is None:
            self._admissible = self._count_admissible()
        return self._admissible[r]

    def _count_admissible(self) -> list[int]:
        witness, rmax, budget = self._witness, self.rmax, self.budget
        counts = [0] * (rmax + 1)
        visited = 0

        def walk(start, wmask, size):
            nonlocal visited
            for i in range(start, len(witness)):
                w = wmask & witness[i]
                if w:
                    visited += 1
                    if visited > budget:
                        raise BudgetExceededError(None, budget)
                    counts[size] += 1
                    if size < rmax:
                        walk(i + 1, w, size + 1)

        walk(0, -1, 1)
        return counts


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
        # products: C_1 coefficients times k generator rows, and base plus
        # up to r (k - r) directions, each a residue times a residue
        require_exact_int64(q, max(k, r * (k - r) + 1))
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
