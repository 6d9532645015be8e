"""The weight functions on a degree-d slice: the footprint lower bound
from monomial subsets of the initial ideal, and the relative generalized
Hamming weight M_r by one scan over the subspaces independent of the
subcode.  For the vanishing ideal of X, which every code is built on, the
relative generalized minimum distance function and the Vasconcelos function
both equal M_r, so the scan serves all three.  The scan reads a plain
generator matrix, so any linear code, such as a dual, goes through it too."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .codes import BudgetExceededError, EvaluationCode
from .groebner import Ideal
from .linalg import digits, gaussian_binomial, matrix_rank, require_exact_int64, rref


class FootprintProfile:
    """The largest degree of S modulo the enlarged initial ideal over the
    admissible monomial subsets of each size r <= rmax of the degree-d
    footprint slice, found by one depth-first branch-and-bound over
    index-increasing subsets: a node with m candidates chosen scores its
    kids as (m + 1)-subsets and descends while a larger size can improve.

    A subset M is admissible when the AND of its witness masks is nonzero,
    and scores the popcount of the AND of its survival masks, or, when that
    AND is 0, the length of the finite quotient S/(J + M), which is a fixed
    count plus the popcount of the AND of its length masks (see
    FootprintRays).  Three cuts are exact, each for every size at once:
    - popcount: survivor masks only shrink, so while no completion can
      reach mask 0 an (m + j)-subset below a node scores at most the j-th
      largest kid popcount, and the node is cut when that is at most the
      best of size m + j for every j >= 2; a kid whose mask cannot reach 0
      is not entered when its popcount is at most the least best of the
      sizes it can reach below (one per later sibling: a kid's kids are
      among its later siblings, so a kid with none is never entered);
    - zero mask: once the mask is 0 the quotient is finite and only shrinks,
      so a kid whose length is at most that least best is not entered;
    - dominance: a dominates b when the survival mask of a contains that of
      b.  Swapping b for a keeps a survivor mask no smaller, and a nonzero
      survivor mask makes a subset admissible (below), so where no
      completion can reach mask 0, and at kids with a nonzero mask, b is
      cut whenever a dominator a earlier in the pool is left out.  The best
      nonzero-mask subset of each size with the least index sum is never
      cut, and zero-mask subsets are never dominance-cut.

    A nonzero survivor mask implies admissibility.  If every member of M
    spares the ray along t_i with base cell m', each exceeds m' away from
    t_i, so has a positive exponent at some t_j, j != i.  Take a
    componentwise maximal base cell m* along t_i and w = m* t_i^max_i: no
    generator divides w and w lies in the box, so w is a witness cell.  For
    j != i, m* + e_j lies in the box (base cells sit strictly inside it) but
    is no base cell, so a generator, its i-th exponent at most max_i,
    divides w t_j.  So w m lies in J for every m in M, and the witness bit
    of w survives the AND over M.

    `counts[m]` is the number of nodes expanded with m candidates chosen;
    every node counts against `budget`, past which BudgetExceededError is
    raised.  The number of admissible subsets is `admissible_counts`."""

    def __init__(
        self, ideal: Ideal, d: int, rmax: int | None = None, budget: int = 10**7
    ):
        self.ideal = ideal
        self.d = d
        pool = self.pool = ideal.order.sorted(ideal.footprint_slice(d), reverse=True)
        self.total_degree = ideal.degree()
        rmax = len(pool) if rmax is None else min(rmax, len(pool))
        self.rmax = rmax
        self.counts = [0] * (rmax + 1)
        self.best = [None] * (rmax + 1)
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
        witness = [witness[i] for i in rank]
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

        nodes = 0
        best = [-1] * (rmax + 1)

        def search(start, size, wmask, smask, amask, chosen):
            # chosen: bit i set for each pool index on the current path
            nonlocal nodes
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(None, budget)
            self.counts[size] += 1
            safe = smask & tail_kill[start] != 0
            # a dominator left out below start stays out of this subtree
            out = ~chosen & ((1 << start) - 1) if safe else 0
            kids = []
            score = best[size + 1]
            for i in range(start, len(pool)):
                w = wmask & witness[i]
                if w and not dominators[i] & out:
                    s = smask & survival[i]
                    if not s:
                        score = max(score, below + (amask & alive[i]).bit_count())
                    elif not dominators[i] & ~chosen:
                        score = max(score, s.bit_count())
                    kids.append((-s.bit_count(), i, len(kids), w, s))
            best[size + 1] = score
            kids.sort()  # largest popcount first
            # a subset of size + j below this node scores at most the j-th
            # largest kid popcount while no completion reaches mask 0
            if size + 2 > rmax or safe and all(
                -kids[j - 1][0] <= best[size + j]
                for j in range(2, min(len(kids), rmax - size) + 1)
            ):
                return
            for neg, i, at, w, s in kids:
                # the kid's own kids are among its later siblings: w only
                # shrinks and safe here makes the kid safe, so a kid with
                # m of them reaches at most m sizes deeper
                later = len(kids) - 1 - at
                if not later or safe and dominators[i] & ~chosen:
                    continue
                floor = min(best[size + 2 : size + 2 + later])  # what it must beat
                a = amask & alive[i]
                if s:
                    keep = -neg > floor or not s & tail_kill[i + 1]
                else:
                    keep = below + a.bit_count() > floor
                if keep:
                    search(i + 1, size + 1, w, s, a, chosen | 1 << i)

        search(0, 0, -1, full, -1, 0)
        self.best = [None if b < 0 else b for b in best]

    def value(self, r: int) -> int:
        """fp at rank r: degree drop against the best admissible subset, or
        the full degree when no subset of size r is admissible, as when r
        exceeds the pool.  A rank past rmax within the pool was not searched,
        and raises ValueError."""
        if r < 1:
            raise ValueError(f"rank must be positive, got {r}")
        if self.rmax < r <= len(self.pool):
            raise ValueError(f"rank {r} exceeds the profile's rmax = {self.rmax}")
        if r > self.rmax or self.best[r] is None:
            return self.total_degree
        return self.total_degree - self.best[r]


def admissible_counts(ideal: Ideal, d: int, rmax: int, budget: int = 10**7) -> list[int]:
    """counts[r], for r <= rmax: the number of admissible r-subsets of the
    degree-d footprint slice, those whose witness masks AND to nonzero.

    The candidates join one at a time, 0/1-knapsack style.  Each distinct
    nonzero AND reached so far (the empty subset's is -1) keeps its number
    of subsets of each size below rmax, as one int with a B-bit digit per
    size, B = pool size + 1, so no digit carries.  A candidate with witness
    mask w adds the vector of each AND m, one size up, to the AND m & w and
    to the total, reading the vectors as they were before its pass.  Each
    (AND, candidate) update counts against `budget`, past which
    BudgetExceededError is raised."""
    pool = ideal.footprint_slice(d)
    rmax = min(rmax, len(pool))
    if rmax < 1:
        return [0] * (rmax + 1)
    witness, _ = ideal.footprint_rays().masks(pool)
    width = len(pool) + 1
    growing = (1 << width * rmax) - 1  # sizes below rmax
    by_mask = {-1: 1}
    total = updates = 0
    for w in witness:
        for m, vec in list(by_mask.items()):
            both = m & w
            if both:
                updates += 1
                if updates > budget:
                    raise BudgetExceededError(None, budget)
                grown = vec << width
                total += grown
                if grown & growing:
                    by_mask[both] = by_mask.get(both, 0) + (grown & growing)
    digit = (1 << width) - 1
    return [total >> width * r & digit for r in range(rmax + 1)]


def rgff(ideal: Ideal, d: int, r: int) -> int:
    """Footprint lower bound fp(d, r) for a graded ideal, from the maximal
    degree drop over admissible monomial subsets of the degree-d footprint."""
    return FootprintProfile(ideal, d, r).value(r)


class RankCounts(NamedTuple):
    """What one rank's pass of a CandidateScan found: the subspaces visited,
    those sharing a zero on X, their largest common zero set, and n minus
    that, the smallest support."""

    feasible_count: int
    family_count: int
    max_vanishing: int
    min_support: int


class CandidateScan:
    """Passes over every r-dimensional subspace D of the coefficient space
    with D meeting the subcode C_1 only in zero, one pass per rank r in
    `ranks`, all on one setup.  `rank(r)` runs rank r's pass and returns how
    many subspaces it visited (`feasible_count`, in closed form below), how
    many share a zero on X (`family_count`, the admissible ones), and the
    largest common zero set (`max_vanishing`).

    With P the pivots of C_1's reduced echelon form, each such D is the row
    space of E + L C_1 for exactly one reduced echelon basis E supported off
    P and one L in F_q^(r x k1), so the pass enumerates the pairs (E, L) and
    filters nothing: there are q^(r k1) [k - k1, r]_q of them, and that
    visited count is what each rank's budget gate weighs.

    Fix the pivots p_0 < ... < p_(r-1) of E.  Row i of (E + L C_1) G is then
    off[p_i] + sum v_j off[j] + sum L_il C_1[l] G, over the off-pivot
    columns j > p_i that are no pivot of E: an affine family of codewords
    that depends only on p_i and the later pivots, independent of the other
    rows.  The common zero set of D is the AND of its rows' zero sets, so
    the pass takes each row family's zero sets as bitmasks over X and
    visits every subspace as one AND across rows and one popcount.  Row 0's
    family is the largest (its free columns contain every later row's), so
    `_and_blocks` takes it last.  The later rows' families, found by a
    depth-first walk from the last pivot, are held while their patterns are
    visited; their ANDs are formed once per pattern, empty ones dropped.
    Rank 1 needs no AND, so it counts the zeros of row 0's families without
    masks, except where a higher rank passes its gate and so builds the
    blocks, which rank 1 then reads in place.

    A family lists its codewords in `digits` order, its first direction most
    significant.  The directions are off[1:], then C_1's evaluated rows, and
    the family at p takes those from the p-th on, less the later pivots'.
    The scan splits them once: the tail is the last t, t the largest with
    q^t masks within _SCAN_BATCH words, spanned once, and a family is its
    head directions, streamed, with its slice of that span, the tail digits
    it lacks set to 0.  From `first_block` = k - 1 - t on a family has no
    head, and its pivot p gets one block of the q^(k - 1 - p) zero masks of
    off[p] + sum_(j > p) v_j off[j] + L C_1, built on first use, with one
    axis per v_j; the family (p, later) is its slice with the digits at
    `later` set to 0.  Below `first_block`, families are built alone, and
    row 0's streamed: p's block could dwarf them (at r = k - k1 the family
    at p = 1 is q^k1 masks, the block q^(k - 2)).

    G, a (k, n) array of residues mod the prime q with independent rows,
    generates any linear code; `sub`, independent (k1, k) coefficient rows
    over G's rows as `validate_subcode` gives them, defaults to the zero
    subcode, and every rank must lie in [1, k - k1].  A rank whose visited
    count exceeds `budget` is refused by `rank(r)` with BudgetExceededError.
    The other checks on the inputs run only when some rank passes its gate,
    so a scan refused for its size costs no rref."""

    def __init__(
        self, G: np.ndarray, q: int, ranks, sub: np.ndarray | None = None, budget: int = 10**7
    ):
        k, n = G.shape
        sub = np.zeros((0, k), dtype=np.int64) if sub is None else sub
        k1 = len(sub)
        width = self.width = k - k1
        self.visited = {}
        for r in ranks:
            if not 1 <= r <= width:
                raise ValueError(f"rank r={r} outside [1, {width}]")
            self.visited[r] = q ** (r * k1) * gaussian_binomial(width, r, q)
        self.q, self.n, self.budget = q, n, budget
        self.words = -(-n // 64)
        self.blocks = {}
        if all(total > budget for total in self.visited.values()):
            return
        require_exact_int64(q, k)
        if matrix_rank(G, q) < k:
            raise ValueError(f"the {k} rows of G are dependent")
        if sub.shape[1:] != (k,):
            raise ValueError(f"sub must have shape (k1, {k}), got {sub.shape}")
        pivots = rref(sub, q)[1] if k1 else []
        if len(pivots) < k1:
            raise ValueError(f"the {k1} rows of sub are dependent")
        self.off = G[[c for c in range(k) if c not in pivots]]
        # off[j] is direction j - 1; the span is of minus the tails, with one
        # axis per tail direction
        dirs = np.concatenate([self.off[1:], np.matmul(sub, G) % q])
        t = max((t for t in range(k) if q**t * self.words <= _SCAN_BATCH), default=0)
        self.first_block = k - 1 - t
        self.head_dirs = dirs[: self.first_block]
        span = _span(-dirs[self.first_block :] % q, q, np.min_scalar_type(2 * q))
        self.span = span.reshape((q,) * t + (n,))

    def family(self, p: int, later: tuple[int, ...]) -> np.ndarray:
        """The zero masks of row family (p, later), as one array in the order
        of `stream`: from `first_block` on, the slice of p's one-step block
        with the digits at `later` 0; below it, the steps of `stream` joined."""
        if p < self.first_block:
            return np.concatenate(list(self.stream(p, later)))
        if p not in self.blocks:
            [masks] = self.stream(p, ())
            # one axis per off-pivot direction, then one for all of L C_1
            self.blocks[p] = masks.reshape((self.q,) * (self.width - 1 - p) + (-1, self.words))
        cut = tuple(0 if j in later else slice(None) for j in range(p + 1, self.width))
        return self.blocks[p][cut].reshape(-1, self.words)

    def stream(self, p: int, later: tuple[int, ...]):
        """The `_zero_masks` steps of row family (p, later)."""
        return _zero_masks(self.off[p], *self._split(p, later), self.q, self.words)

    def _split(self, p: int, later: tuple[int, ...]):
        """Row family (p, later)'s head directions and its rows of the span,
        where the tail digits it lacks, those before direction p and those
        of the later pivots, are 0."""
        fb, t = self.first_block, self.span.ndim - 1
        head = [i for i in range(p, fb) if i + 1 not in later]
        cut = tuple(0 if i < p or i + 1 in later else slice(None) for i in range(fb, fb + t))
        return self.head_dirs[head], self.span[cut].reshape(-1, self.n)

    def rank(self, r: int) -> RankCounts:
        """Rank r's pass; BudgetExceededError when its visited count exceeds
        the budget."""
        total = self.visited[r]
        if total > self.budget:
            raise BudgetExceededError(total, self.budget)
        if r == 1:
            steps = self._rank_one_steps()
        else:
            # one subspace per AND of the outer rows' masks and a row-0 mask
            steps = (
                _popcounts(common)
                for row0, outer in self._visits(r - 1, (), [])
                for common in _and_blocks(outer + [row0], self.words)
            )
        family_count = max_vanishing = 0
        for vanishing in steps:
            family_count += int(np.count_nonzero(vanishing))
            max_vanishing = max(max_vanishing, int(vanishing.max()))
        return RankCounts(total, family_count, max_vanishing, self.n - max_vanishing)

    def _rank_one_steps(self):
        """The zero counts of every codeword, family by family.  When a
        higher rank of the group passes its gate, and so builds or has built
        the blocks, rank 1 reads them in place; otherwise the family's zeros
        are counted without masks."""
        higher = any(s > 1 and total <= self.budget for s, total in self.visited.items())
        for p in range(self.width):
            if higher and p >= self.first_block:
                yield _popcounts(self.family(p, ()))
            else:
                yield from _zero_counts(self.off[p], *self._split(p, ()), self.q, self.words)

    def _visits(self, i: int, later: tuple[int, ...], outer: list[np.ndarray]):
        """Pairs (row-0 masks, outer) below a node of the walk: rows i + 1..
        have the pivots `later` and, in `outer`, their families' nonzero
        masks.  A family with none leaves no subspace below sharing a zero."""
        if outer and not len(outer[-1]):
            return
        pivots = range(i, later[0] if later else self.width)
        if i:
            for p in pivots:
                masks = self.family(p, later)
                yield from self._visits(i - 1, (p,) + later, outer + [masks[masks.any(axis=1)]])
            return
        for p in pivots:
            if p < self.first_block:
                for chunk in self.stream(p, later):
                    yield chunk, outer
        held = [self.family(p, later) for p in pivots if p >= self.first_block]
        if held:
            yield np.concatenate(held), outer


# mask words per numpy step and per block: bounds the scan's peak memory.
# A step's comparison array takes 64 bytes per mask word, 1 MiB in all.
_SCAN_BATCH = 1 << 14


def _zero_masks(base: np.ndarray, head_dirs: np.ndarray, rows: np.ndarray, q: int, words: int):
    """Zero sets of the codewords base + sum_t v_t head_dirs[t] - row mod q,
    for v in F_q^len(head_dirs) in `digits` order and, under each v, each
    row of `rows` in order, as bitmasks of `words` uint64 words: yields
    arrays of shape (c, words), at most _SCAN_BATCH words each.

    A codeword vanishes at a point exactly where the head's value there
    equals the row's, so each step compares a block of heads with every
    row, in `rows`' unsigned dtype, which holds 2q.  Both are padded to
    64 * words columns, heads with 0 and rows with q, which no residue
    equals, so each comparison fills whole mask words that `packbits` turns
    into masks."""
    n = len(base)
    tail = np.full((len(rows), 64 * words), q, dtype=rows.dtype)
    tail[:, :n] = rows
    for head in _heads(base, head_dirs, rows, q, words):
        padded = np.zeros((len(head), 64 * words), dtype=rows.dtype)
        padded[:, :n] = head
        zero = padded[:, None, :] == tail
        yield np.packbits(zero, bitorder="little").view(np.uint64).reshape(-1, words)


def _zero_counts(base: np.ndarray, head_dirs: np.ndarray, rows: np.ndarray, q: int, words: int):
    """The zero counts of the codewords of `_zero_masks(base, head_dirs,
    rows, q, words)`, in its order and steps, without the masks: the rows,
    transposed to one row per point, are compared with each head's value
    there, and the matches summed over the points.  The inner loops run
    over contiguous rows, not over mask words."""
    columns = np.ascontiguousarray(rows.T)
    count_type = np.min_scalar_type(len(base))
    for head in _heads(base, head_dirs, rows, q, words):
        zero = head[:, :, None] == columns
        yield zero.view(np.uint8).sum(axis=1, dtype=count_type).reshape(-1)


def _heads(base: np.ndarray, head_dirs: np.ndarray, rows: np.ndarray, q: int, words: int):
    """The head values base + sum_t v_t head_dirs[t] mod q of the steps of
    `_zero_masks`, in `digits` order and `rows`' dtype: as many heads a step
    as keep its masks, one per (head, row), within _SCAN_BATCH words."""
    step = max(1, _SCAN_BATCH // (len(rows) * words))
    count = q ** len(head_dirs)
    for lo in range(0, count, step):
        coeffs = digits(lo, min(lo + step, count), [q] * len(head_dirs))
        yield ((base + coeffs @ head_dirs) % q).astype(rows.dtype)


def _popcounts(masks: np.ndarray) -> np.ndarray:
    """The number of set bits of each mask of a (c, words) array, with the
    axis of words kept when there is one word."""
    counts = np.bitwise_count(masks)
    return counts.sum(axis=-1) if masks.shape[-1] > 1 else counts


def _and_blocks(families: list[np.ndarray], words: int):
    """The ANDs of one mask from each family, every combination once and the
    last family fastest, in blocks of at most _SCAN_BATCH words; the empty
    product is the single all-ones mask.  A block is read with its zero
    masks dropped, so only the last family's ANDs can be 0."""
    if not families:
        yield ~np.zeros((1, words), dtype=np.uint64)
        return
    *outer, inner = families
    per_step = max(1, _SCAN_BATCH // words)
    for block in _and_blocks(outer, words):
        block = block[block.any(axis=1)]
        for ilo in range(0, len(inner), per_step):
            part = inner[ilo : ilo + per_step]
            step = max(1, per_step // len(part))
            for lo in range(0, len(block), step):
                yield (block[lo : lo + step, None] & part).reshape(-1, words)


def _span(dirs: np.ndarray, q: int, dtype) -> np.ndarray:
    """Every sum_t v_t dirs[t] mod q for v in F_q^len(dirs), in the order of
    `digits`, as an array of shape (q^len(dirs), width) in the unsigned
    `dtype`, which must hold 2q - 2.  Each direction adds its q multiples as
    the fastest axis, and a sum s is reduced as min(s, s - q): below q,
    s - q wraps around past s.  No step divides."""
    out = np.zeros((1, dirs.shape[1]), dtype=dtype)
    for d in dirs:
        multiples = (np.arange(q)[:, None] * d % q).astype(dtype)
        out = (out[:, None] + multiples).reshape(-1, dirs.shape[1])
        np.minimum(out, out - dtype.type(q), out=out)
    return out


def rgmdf(
    code: EvaluationCode, r: int, sub: np.ndarray | None = None, budget: int = 10**7
) -> int:
    """M_r(C, C_1): the smallest support n - |V_X(D)| over the r-dimensional
    subcodes D of C meeting C_1 only in zero.  n = deg(S/I_X), so this is
    also the degree-drop and the colon-degree weight of I_X."""
    return CandidateScan(code.generator_rows, code.q, [r], sub, budget).rank(r).min_support
