"""The weight functions on a degree-d slice: the footprint lower bound
from monomial subsets of the initial ideal, and the relative generalized
Hamming weight M_r by one scan over the subspaces independent of the
subcode.  For the vanishing ideal of X, which every code is built on, the
relative generalized minimum distance function and the Vasconcelos function
both equal M_r, so the scan serves all three."""

from __future__ import annotations

import numpy as np

from .codes import (
    BudgetExceededError,
    EvaluationCode,
    SubcodeSpec,
    validate_subcode,
)
from .groebner import Ideal
from .linalg import gaussian_binomial, require_exact_int64


class FootprintProfile:
    """The largest degree of S modulo the enlarged initial ideal over the
    admissible monomial subsets of each size r <= rmax of the degree-d
    footprint slice, found by one depth-first branch-and-bound per rank.

    A subset M is admissible when the AND of its witness masks is nonzero,
    and scores the popcount of the AND of its survival masks, or, when that
    AND is 0, the length of the finite quotient S/(J + M), which is a fixed
    count plus the popcount of the AND of its length masks (see
    FootprintRays).  Four cuts are exact:
    - size: fewer compatible candidates remain than the subset still needs;
    - popcount: survivor masks only shrink, so while no descendant can reach
      mask 0 a subtree scores at most the need-th largest child popcount;
    - zero mask: once the mask is 0 the quotient is finite and only shrinks,
      so a node whose length is at most the best found is cut;
    - dominance: a dominates b when the survival mask of a contains that of
      b.  Swapping b for a keeps a survivor mask no smaller, and a nonzero
      survivor mask makes a subset admissible (below), so where no
      completion can reach mask 0, and at leaves with a nonzero mask, b is
      cut whenever a dominator a earlier in the pool is left out.  The best
      nonzero-mask subset with the least index sum is never cut, and
      zero-mask subsets are never dominance-cut.

    A nonzero survivor mask implies admissibility.  If every member of M
    spares the ray along t_i with base cell m', each exceeds m' away from
    t_i, so has a positive exponent at some t_j, j != i.  Take a
    componentwise maximal base cell m* along t_i and w = m* t_i^max_i: no
    generator divides w and w lies in the box, so w is a witness cell.  For
    j != i, m* + e_j lies in the box (base cells sit strictly inside it) but
    is no base cell, so a generator, its i-th exponent at most max_i,
    divides w t_j.  So w m lies in J for every m in M, and the witness bit
    of w survives the AND over M.

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
        pool = self.pool = ideal.order.sorted(ideal.footprint_slice(d), reverse=True)
        self.total_degree = ideal.degree()
        rmax = len(pool) if rmax is None else min(rmax, len(pool))
        self.rmax = rmax
        self.counts = [0] * (rmax + 1)
        self.best = [None] * (rmax + 1)
        self._admissible = None
        if not pool or rmax < 1:
            return
        engine = ideal.footprint_rays()
        witness, survival = engine.masks(pool)
        # larger masks first, so that every dominator precedes what it
        # dominates; ties keep the order's ranking
        rank = sorted(
            range(len(pool)),
            key=lambda i: (-survival[i].bit_count(), -witness[i].bit_count()),
        )
        pool = self.pool = [pool[i] for i in rank]
        witness = self._witness = [witness[i] for i in rank]
        survival = [survival[i] for i in rank]
        # dominators[b]: bit a set for each a < b whose survival mask
        # contains b's
        dominators = [
            sum(1 << a for a in range(b) if survival[a] & survival[b] == survival[b])
            for b in range(len(pool))
        ]
        full = (1 << len(engine.ray_cells)) - 1
        # tail_kill[i]: AND of the survival masks of the candidates j >= i
        # that are admissible alone; s & tail_kill[i] != 0 means no subset
        # drawn from them can take survivor mask s to 0
        tail_kill = [full] * (len(pool) + 1)
        for i in reversed(range(len(pool))):
            tail_kill[i] = tail_kill[i + 1] & (survival[i] if witness[i] else full)
        if tail_kill[0]:
            # no admissible subset empties its survivor mask: no lengths
            below, alive = 0, [0] * len(pool)
        else:
            below, alive = engine.length_masks(pool, d)

        chosen = 0  # bit i set for each pool index on the current path
        nodes = 0
        best = -1

        def search(start, wmask, smask, amask, need):
            nonlocal chosen, nodes, best
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(None, budget)
            safe = smask & tail_kill[start] != 0
            # a dominator left out below start stays out of this subtree
            out = ~chosen & ((1 << start) - 1) if safe else 0
            kids = []
            for i in range(start, len(pool)):
                w = wmask & witness[i]
                if w and not dominators[i] & out:
                    s = smask & survival[i]
                    kids.append((-s.bit_count(), i, w, s))
            if len(kids) < need:
                return
            if need == 1:
                for neg, i, _, s in kids:
                    if not s:
                        best = max(best, below + (amask & alive[i]).bit_count())
                    elif not dominators[i] & ~chosen:
                        best = max(best, -neg)
                return
            # a child must leave need - 1 compatible candidates after it
            last = kids[-need][1]
            kids.sort()  # largest popcount first
            if safe and -kids[need - 1][0] <= best:
                return
            for neg, i, w, s in kids:
                if i > last or safe and dominators[i] & ~chosen:
                    continue
                a = amask & alive[i]
                if s:
                    keep = -neg > best or not s & tail_kill[i + 1]
                else:
                    keep = below + a.bit_count() > best
                if keep:
                    chosen |= 1 << i
                    search(i + 1, w, s, a, need - 1)
                    chosen &= ~(1 << i)

        for r in range(1, rmax + 1):
            before, best = nodes, -1
            search(0, -1, full, -1, r)
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


def rgff(ideal: Ideal, d: int, r: int) -> int:
    """Footprint lower bound fp(d, r) for a graded ideal, from the maximal
    degree drop over admissible monomial subsets of the degree-d footprint."""
    return FootprintProfile(ideal, d, r).value(r)


class CandidateScan:
    """One pass over every r-dimensional subspace D of the coefficient space
    with D meeting the subcode C_1 only in zero, recording how many there are
    (`feasible_count`), how many share a zero on X (`family_count`, the
    admissible ones), and the largest common zero set (`max_vanishing`).

    With C_1 in reduced echelon form on pivot set P, each such D is the row
    space of E + L C_1 for exactly one reduced echelon basis E supported off
    P and one L in F_q^(r x k1), so the pass enumerates the pairs (E, L) and
    filters nothing: there are q^(r k1) [k - k1, r]_q of them, and that
    visited count is what the budget gate weighs.

    Fix the pivots p_0 < ... < p_(r-1) of E.  Row i of (E + L C_1) G is then
    off[p_i] + sum v_j off[j] + sum L_il C_1[l] G, over the off-pivot
    columns j > p_i that are no pivot of E: an affine family of codewords
    that depends only on p_i and the later pivots, independent of the other
    rows.  The common zero set of D is the AND of its rows' zero sets, so
    the pass builds each row family's zero sets once, as bitmasks over X
    (`_zero_masks`), and visits every subspace as one AND across rows and
    one popcount.  Row 0's family is the largest (its free columns contain
    every later row's); it is streamed in steps and sits on the contiguous
    axis, while the later rows' families, found by a depth-first walk from
    the last pivot, are held while their patterns are visited and combined
    in blocks (`_and_blocks`) that drop masks already empty.

    `sub` defaults to the zero subcode; r must lie in [1, k - k1], and `sub`
    must have been validated against `code`."""

    def __init__(
        self,
        code: EvaluationCode,
        r: int,
        sub: SubcodeSpec | None = None,
        budget: int = 10**7,
    ):
        if sub is None:
            sub = validate_subcode(code, [])
        if sub.code is not code:
            raise ValueError("subcode was validated against a different code")
        k, n, q, k1 = code.k, code.n, code.q, sub.k1
        if not 1 <= r <= k - k1:
            raise ValueError(f"rank r={r} outside [1, {k - k1}]")
        total = q ** (r * k1) * gaussian_binomial(k - k1, r, q)
        if total > budget:
            raise BudgetExceededError(total, budget)
        # products: C_1 coefficients times k generator rows, and base plus
        # up to r (k - r) directions, each a residue times a residue
        require_exact_int64(q, max(k, r * (k - r) + 1))
        pivots = {int(np.argmax(row != 0)) for row in sub.coeff_rows}
        rows = code.generator_rows
        off = rows[[c for c in range(k) if c not in pivots]]
        words = -(-n // 64)
        sub_evals = np.matmul(sub.coeff_rows, rows) % q
        width = k - k1

        def family(p, later):
            free = [j for j in range(p + 1, width) if j not in later]
            dirs = np.concatenate([off[free], sub_evals])
            return q ** len(dirs), _zero_masks(off[p], dirs, q, words)

        feasible_count = family_count = max_vanishing = 0

        def descend(i, later, outer, count):
            # rows i + 1.. have the pivots `later`, `count` codeword tuples
            # and, in `outer`, their families' nonzero masks; once one
            # family has none, no subspace below shares a zero and the
            # walk only counts
            nonlocal feasible_count, family_count, max_vanishing
            live = all(len(masks) for masks in outer)
            for p in range(i, later[0] if later else width):
                size, steps = family(p, later)
                if i:
                    below = outer
                    if live:
                        masks = np.concatenate(list(steps))
                        below = outer + [masks[masks.any(axis=1)]]
                    descend(i - 1, (p,) + later, below, count * size)
                    continue
                feasible_count += count * size
                for chunk in steps if live else ():
                    step = max(1, _SCAN_BATCH // len(chunk))
                    for block in _and_blocks(outer, words):
                        for lo in range(0, len(block), step):
                            common = block[lo : lo + step, None] & chunk
                            vanishing = np.bitwise_count(common).sum(axis=-1)
                            family_count += int(np.count_nonzero(vanishing))
                            max_vanishing = max(max_vanishing, int(vanishing.max()))

        descend(r - 1, (), [], 1)
        if feasible_count == 0:
            raise RuntimeError(f"no feasible subspace despite r = {r} <= k - k1")
        self.feasible_count = feasible_count
        self.family_count = family_count
        self.max_vanishing = max_vanishing
        self.min_support = n - max_vanishing


# masks or (head, tail) pairs per numpy step: bounds the scan's peak memory.
_SCAN_BATCH = 1 << 14


def _zero_masks(base: np.ndarray, dirs: np.ndarray, q: int, words: int):
    """Zero sets of the codewords base + sum_t v_t dirs[t] mod q, for v in
    F_q^len(dirs), as bitmasks of `words` uint64 words: yields arrays of
    shape (c, words), at most _SCAN_BATCH codewords each.

    v splits into a head and a tail: a codeword vanishes at a point exactly
    where the head's value there equals minus the tail's, so each step
    compares a block of heads with every tail, in the smallest unsigned
    type that holds 2q.  Both are padded to 64 * words columns, heads with
    0 and tails with q, which no residue equals, so the comparison fills
    whole mask words and `packbits` turns it into masks directly."""
    n = len(base)
    tail_len = 0
    while tail_len < len(dirs) and q ** (tail_len + 1) <= _SCAN_BATCH:
        tail_len += 1
    split = len(dirs) - tail_len
    dtype = np.min_scalar_type(2 * q)
    span = _span(-dirs[split:] % q, q, dtype)
    tail = np.full((len(span), 64 * words), q, dtype=dtype)
    tail[:, :n] = span
    heads = q**split
    step = max(1, _SCAN_BATCH // len(tail))
    for lo in range(0, heads, step):
        coeffs = _digits(lo, min(lo + step, heads), split, q)
        head = np.zeros((len(coeffs), 64 * words), dtype=dtype)
        head[:, :n] = (base + coeffs @ dirs[:split]) % q
        zero = head[:, None, :] == tail
        yield np.packbits(zero, bitorder="little").view(np.uint64).reshape(-1, words)


def _and_blocks(families: list[np.ndarray], words: int):
    """The ANDs of one mask from each family, every combination once, in
    blocks of at most _SCAN_BATCH masks with the zero masks dropped; the
    empty product is the single all-ones mask."""
    if not families:
        yield ~np.zeros((1, words), dtype=np.uint64)
        return
    *outer, inner = families
    for block in _and_blocks(outer, words):
        for ilo in range(0, len(inner), _SCAN_BATCH):
            part = inner[ilo : ilo + _SCAN_BATCH]
            step = max(1, _SCAN_BATCH // len(part))
            for lo in range(0, len(block), step):
                both = (block[lo : lo + step, None] & part).reshape(-1, words)
                both = both[both.any(axis=1)]
                if len(both):
                    yield both


def _span(dirs: np.ndarray, q: int, dtype) -> np.ndarray:
    """Every sum_t v_t dirs[t] mod q for v in F_q^len(dirs), as an array of
    shape (q^len(dirs), width) in the unsigned `dtype`, which must hold
    2q - 2.  Each direction adds its q multiples, and a sum s is reduced as
    min(s, s - q): below q, s - q wraps around past s.  No step divides."""
    out = np.zeros((1, dirs.shape[1]), dtype=dtype)
    for d in dirs:
        multiples = (np.arange(q)[:, None] * d % q).astype(dtype)
        out = (multiples[:, None] + out).reshape(-1, dirs.shape[1])
        np.minimum(out, out - dtype.type(q), out=out)
    return out


def _digits(lo: int, hi: int, width: int, q: int) -> np.ndarray:
    """Base-q digit vectors, of the given width, of the integers lo..hi-1."""
    idx = np.arange(lo, hi, dtype=np.int64)
    return idx[:, None] // q ** np.arange(width, dtype=np.int64) % q


def rgmdf(
    code: EvaluationCode, r: int, sub: SubcodeSpec | None = None, budget: int = 10**7
) -> int:
    """M_r(C, C_1): the smallest support n - |V_X(D)| over the r-dimensional
    subcodes D of C meeting C_1 only in zero.  n = deg(S/I_X), so this is
    also the degree-drop and the colon-degree weight of I_X."""
    return CandidateScan(code, r, sub, budget).min_support
