"""Finite sets of projective points over a prime field: normalization to
standard position, torus and cartesian constructors, evaluation matrices,
vanishing ideals, and zero sets."""

from __future__ import annotations

from itertools import accumulate
from math import prod
from operator import index

import numpy as np

from .field import PrimeField
from .groebner import Ideal
from .linalg import count_text, digits, require_exact_int64, rref
from .monideal import GradedQuotientSummary, MonomialIdeal, monomial_quotient_degree
from .polyring import GREVLEX, MonomialOrder, PolyRing, Polynomial, monomial


class ProjectivePointSet:
    """An ordered list of distinct points of P^{s-1} over F_q, stored as one
    (n, s) int64 array `coords` whose rows are in standard position: residues
    in [0, q), scaled so the first nonzero one equals 1.  The row order fixes
    the codeword coordinate layout and is never changed after construction.
    Iterating or indexing gives the rows as tuples of ints.  `factors` is
    None unless the set is a grid (see _from_standard_rows)."""

    def __init__(self, field: PrimeField, points):
        q = field.q
        # scaling a row multiplies two residues, exact in int64 below this q
        require_exact_int64(q)
        if isinstance(points, np.ndarray) and points.dtype == np.int64 and points.ndim == 2:
            coords = points % q
        else:
            rows = [[index(c) % q for c in p] for p in points]
            if any(len(row) != len(rows[0]) for row in rows):
                raise ValueError("points with mixed coordinate counts")
            coords = np.array(rows, dtype=np.int64)
        if not len(coords):
            raise ValueError("empty point set")
        if not coords.shape[1]:
            raise ValueError("projective point needs a nonzero coordinate")
        coords = _standard_position(coords, q)
        bad = _first_repeat(coords)
        if bad is not None:
            i, j = bad
            if j < 0:
                raise ValueError("projective point needs a nonzero coordinate")
            raise ValueError("duplicate point [" + ":".join(map(str, coords[i])) + "]")
        self._adopt(field, coords, None)

    @classmethod
    def _from_standard_rows(cls, field: PrimeField, coords: np.ndarray, factors=None):
        """The point set on an (n, s) int64 array whose rows the caller built
        nonzero, distinct and in standard position; nothing is re-checked.
        `factors`, when given, are sets A_1..A_(s-1) of residues with X the
        image of A_1 x ... x A_(s-1) under x -> [x : 1] (see _grid_ideal)."""
        require_exact_int64(field.q)
        X = cls.__new__(cls)
        X._adopt(field, coords, factors)
        return X

    def _adopt(self, field: PrimeField, coords: np.ndarray, factors) -> None:
        coords.flags.writeable = False
        self.field = field
        self.coords = coords
        self.s = coords.shape[1]
        self.factors = factors
        self._ideal_cache: dict[str, Ideal] = {}

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return map(tuple, self.coords.tolist())

    def __getitem__(self, i) -> tuple[int, ...]:
        return tuple(self.coords[i].tolist())

    def vanishing_ideal(self, order: MonomialOrder = GREVLEX) -> Ideal:
        """I_X with its reduced Groebner basis under `order`: in closed form
        when X is a grid (`factors` is set), else by linear algebra."""
        if order.name not in self._ideal_cache:
            build = vanishing_ideal if self.factors is None else _grid_ideal
            self._ideal_cache[order.name] = build(self, order)
        return self._ideal_cache[order.name]

    def __repr__(self) -> str:
        return f"ProjectivePointSet(q={self.field.q}, {len(self)} points in P^{self.s - 1})"


def _standard_position(coords: np.ndarray, q: int) -> np.ndarray:
    """The rows of a residue array scaled so that each first nonzero entry
    is 1; zero rows stay zero."""
    lead = coords[np.arange(len(coords)), (coords != 0).argmax(axis=1)]
    if (lead <= 1).all():
        return coords
    scale = np.array([pow(v, -1, q) if v else 0 for v in lead.tolist()], dtype=np.int64)
    return coords * scale[:, None] % q


def _first_repeat(coords: np.ndarray) -> tuple[int, int] | None:
    """(i, j) for the first row i that is zero (j = -1) or equals an earlier
    row j, or None when the rows are nonzero and distinct."""
    # equal rows are adjacent after a stable sort, first occurrence first,
    # and a zero row sorts first of all
    order = np.lexsort(coords.T)
    ranked = coords[order]
    new = np.ones(len(coords), dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    if new.all() and ranked[0].any():
        return None
    earlier = np.empty_like(order)
    earlier[order] = order[new][np.cumsum(new) - 1]
    zero = ~coords.any(axis=1)
    i = int((zero | (earlier != np.arange(len(coords)))).argmax())
    return i, -1 if zero[i] else int(earlier[i])


# the most points a constructor enumerates: the 2^20 - 1 points of P^19
# over F_2 take 1.8 s and 0.7 GB at peak to build on a 2-core Xeon
MAX_POINTS = 1 << 20


def _require_enumerable(count: int) -> None:
    if count > MAX_POINTS:
        raise ValueError(f"the point set would have {count_text(count)} points; "
                         f"at most {MAX_POINTS} can be enumerated")


def _lex_grid(sets) -> np.ndarray:
    """The tuples of product(*sets), in that (lexicographic) order, as the
    rows of an int64 array."""
    grids = np.meshgrid(*sets, indexing="ij")
    return np.stack(grids, axis=-1).reshape(-1, len(sets)).astype(np.int64)


def projective_torus(q: int, s: int) -> ProjectivePointSet:
    """All points of P^{s-1} over F_q with every coordinate nonzero, in
    lexicographic order; there are (q-1)^{s-1} of them."""
    field = PrimeField(q)
    if s < 2:
        raise ValueError(f"ambient dimension s must be at least 2, got {s}")
    _require_enumerable((q - 1) ** (s - 1))
    coords = _lex_grid([[1]] + [range(1, q)] * (s - 1))
    # the torus is the grid with every factor F_q^*: x_i / x_s is nonzero
    return ProjectivePointSet._from_standard_rows(field, coords, (tuple(range(1, q)),) * (s - 1))


def affine_cartesian(q: int, factors) -> ProjectivePointSet:
    """Image of A_1 x ... x A_{s-1} in P^{s-1} under x -> [x : 1], one point
    per tuple in lexicographic order."""
    field = PrimeField(q)
    sets = []
    for i, A in enumerate(factors):
        vals = sorted({index(a) % q for a in A})
        if not vals:
            raise ValueError(f"factor {i + 1} is empty")
        sets.append(vals)
    if not sets:
        raise ValueError("need at least one factor")
    _require_enumerable(prod(map(len, sets)))
    require_exact_int64(q)
    coords = _standard_position(_lex_grid(sets + [[1]]), q)
    return ProjectivePointSet._from_standard_rows(field, coords, tuple(map(tuple, sets)))


def all_projective_points(q: int, s: int) -> ProjectivePointSet:
    """Every point of P^{s-1} once, by standard representative, in
    lexicographic order; there are (q^s - 1)/(q - 1) of them."""
    field = PrimeField(q)
    if s < 1:
        raise ValueError(f"ambient dimension s must be at least 1, got {s}")
    _require_enumerable((q**s - 1) // (q - 1))
    return ProjectivePointSet._from_standard_rows(field, projective_zero_set(q, s, ()))


def parse_points(text: str, q: int) -> ProjectivePointSet:
    """Point list in the text format: one point per line, integer coordinates
    separated by ':', comments starting with '#'.  A refusal of a line names
    the first offending one."""
    field = PrimeField(q)
    require_exact_int64(q)
    rows, linenos = [], []
    failure = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            row = [int(p) % q for p in line.split(":")]
        except ValueError:
            failure = ValueError(f"line {lineno}: bad coordinate in {line!r}")
            break
        if rows and len(row) != len(rows[0]):
            failure = ValueError(
                f"line {lineno}: expected {len(rows[0])} coordinates, got {len(row)}"
            )
            break
        rows.append(row)
        linenos.append(lineno)
    if rows:
        coords = np.array(rows, dtype=np.int64)
        try:
            X = ProjectivePointSet(field, coords)
        except ValueError:
            # a zero or repeated row, on a line before any failing one
            i, j = _first_repeat(_standard_position(coords, q))
            if j < 0:
                reason = "projective point needs a nonzero coordinate"
            else:
                reason = f"duplicate of the point on line {linenos[j]}"
            raise ValueError(f"line {linenos[i]}: {reason}") from None
    if failure is not None:
        raise failure
    if not rows:
        raise ValueError("no points in input")
    return X


def format_points(X: ProjectivePointSet) -> str:
    return "\n".join(":".join(map(str, p)) for p in X) + "\n"


def evaluation_matrix(X: ProjectivePointSet, basis) -> np.ndarray:
    """Matrix whose row i evaluates basis[i] at the points of X.  Entries may
    be exponent tuples or polynomials in X.s variables; all must be
    homogeneous of one degree."""
    return _evaluate(X.coords, X.field.q, basis)


def _evaluate(coords: np.ndarray, q: int, basis) -> np.ndarray:
    """evaluation_matrix at the rows of an (n, s) array of residues mod q."""
    entries = [b if isinstance(b, Polynomial) else monomial(b) for b in basis]
    degree = None
    for b in entries:
        if isinstance(b, Polynomial):
            if b.is_zero():
                raise ValueError("zero polynomial in evaluation basis")
            if not b.is_homogeneous():
                raise ValueError(f"inhomogeneous entry {b.format()}")
            d, nvars = b.degree(), b.ring.nvars
        else:
            d, nvars = sum(b), len(b)
        if nvars != coords.shape[1]:
            raise ValueError(
                f"entry in {nvars} variables, points have {coords.shape[1]} coordinates"
            )
        if degree is None:
            degree = d
        elif d != degree:
            raise ValueError(f"degree mismatch: {d} vs {degree}")
    require_exact_int64(q)
    if not entries:
        return np.zeros((0, len(coords)), dtype=np.int64)
    # every term of every entry, the terms of one entry contiguous
    starts, monomials, coeffs = [], [], []
    for b in entries:
        terms = b.terms if isinstance(b, Polynomial) else {b: 1}
        starts.append(len(monomials))
        monomials.extend(terms)
        coeffs.extend(terms.values())
    # only the variables that occur: a polynomial in few of many variables
    # is evaluated at its cost, not the space's
    exponents = np.array(monomials, dtype=np.int64)
    used = exponents.any(axis=0)
    if not used.all():
        coords, exponents = coords[:, used], exponents[:, used]
    # powers[e, i, j] = t_j^e at point i, up to the common degree
    powers = np.empty((degree + 1,) + coords.shape, dtype=np.int64)
    powers[0] = 1
    for e in range(1, degree + 1):
        powers[e] = powers[e - 1] * coords % q
    values = np.ones((len(monomials), len(coords)), dtype=np.int64)
    for j in range(coords.shape[1]):
        values = values * powers[exponents[:, j], :, j] % q
    terms = np.array(coeffs, dtype=np.int64)[:, None] * values % q
    return np.add.reduceat(terms, starts, axis=0) % q


def vanishing_ideal(X: ProjectivePointSet, order: MonomialOrder = GREVLEX) -> Ideal:
    """The ideal of all homogeneous polynomials vanishing on X, with its
    reduced Groebner basis, by graded linear algebra (the projective
    Buchberger-Moeller method of Marinari, Moeller and Mora), each degree
    built from the last.

    L is the monomial ideal of the leading monomials found so far.  In each
    degree d the evaluation matrix has one column per degree-d monomial
    outside L, in increasing order: the products t_i m of the degree-(d-1)
    standard monomials m whose degree-(d-1) divisors are all standard
    (`_border`), and the column of t_i m is that of m times coordinate i.  A
    monomial in L is never a pivot (its column is a combination of smaller
    standard columns), so leaving it out changes no pivot and no kernel
    vector.  The RREF has the standard monomials as pivot columns; a free
    column m is a new leading monomial of I_X, and the kernel vector
    m - sum R[i, m] * pivot_i is the monic, tail-reduced basis element with
    leading monomial m.

    Degrees are added until L certifies itself: dim S/L <= 1, deg S/L =
    |X|, and the regularity index of S/L is the first degree where the
    evaluation rank is |X|.  Since L is inside in(I_X) and agrees with it
    in every degree scanned, equal Hilbert functions make L = in(I_X).  By
    Gotzmann persistence in(I_X) has no generator above degree |X|, so the
    certificate must hold by then; failing it raises RuntimeError.
    """
    ring = PolyRing(X.field, X.s)
    q = X.field.q
    n = len(X)
    basis: list[Polynomial] = []
    leads: list[tuple[int, ...]] = []
    # the standard monomials of the last degree and their evaluation rows
    standard, evals = [(0,) * X.s], np.ones((1, n), dtype=np.int64)
    rank_reached = None
    d = 0
    while True:
        if d:
            border = _border(standard)
            monomials = order.sorted(border)
            parent, var = np.array([border[m] for m in monomials]).T
            evals = evals[parent] * X.coords.T[var] % q
        else:
            monomials = standard
        R, pivots = rref(evals.T, q)
        if rank_reached is None and len(pivots) == n:
            rank_reached = d
        pivot_set = set(pivots)
        free = [col for col in range(len(monomials)) if col not in pivot_set]
        # row i of the free columns, one list per column: only rows whose
        # pivot lies left of the column are nonzero there
        for col, column in zip(free, R[: len(pivots), free].T.tolist()):
            terms = {monomials[col]: 1}
            for i, v in enumerate(column):
                if v:
                    terms[monomials[pivots[i]]] = q - v
            basis.append(Polynomial(ring, terms))
            leads.append(monomials[col])
        standard, evals = [monomials[p] for p in pivots], evals[pivots]
        if rank_reached is not None:
            initial = MonomialIdeal(ring.nvars, leads)
            # L inside in(I_X) makes dim S/L >= 1, so dim <= 1 means dim 1
            if initial.dimension_at_most_one():
                summary = monomial_quotient_degree(initial)
                if summary.degree < n or summary.reg_index < rank_reached:
                    raise RuntimeError(
                        f"leading monomials through degree {d} give deg "
                        f"{summary.degree}, reg {summary.reg_index}; |X| = {n} "
                        f"and the evaluation rank first reaches it in degree "
                        f"{rank_reached}"
                    )
                if summary.degree == n and summary.reg_index == rank_reached:
                    break
        if d >= n:
            raise RuntimeError(
                f"vanishing ideal of {n} points not certified by degree {d}"
            )
        d += 1
    rank = sorted(range(len(leads)), key=lambda i: order.key(leads[i]))
    return Ideal._from_reduced_basis(ring, [basis[i] for i in rank], order, initial, summary)


def _border(standard: list[tuple[int, ...]]) -> dict[tuple[int, ...], tuple[int, int]]:
    """The monomials u = t_i m, m in `standard` (the standard monomials of
    one degree), whose divisors of that degree are all standard: the
    standard monomials of the next degree and the leading monomials it
    adds.  Each u maps to (index of m, i) for the first such m."""
    index = {m: k for k, m in enumerate(standard)}
    border: dict[tuple[int, ...], tuple[int, int]] = {}
    tried = set()
    for k, m in enumerate(standard):
        support = [j for j, e in enumerate(m) if e]
        for i in range(len(m)):
            u = m[:i] + (m[i] + 1,) + m[i + 1 :]
            if u in tried:
                continue
            tried.add(u)
            # u / t_i = m is standard; u / t_j, j != i, needs m_j > 0
            if all(u[:j] + (u[j] - 1,) + u[j + 1 :] in index for j in support if j != i):
                border[u] = (k, i)
    return border


def _grid_ideal(X: ProjectivePointSet, order: MonomialOrder) -> Ideal:
    """The vanishing ideal of a grid X, the image of A_1 x ... x A_(s-1)
    under x -> [x : 1] (X.factors), in closed form: its reduced Groebner
    basis is f_i = prod_{a in A_i} (t_i - a t_s), i < s (Lopez,
    Renteria-Marquez and Villarreal, "Affine cartesian codes", DCC 2014;
    t_i^(q-1) - t_s^(q-1) on the torus).

    Each f_i vanishes on X, since x_i / x_s lies in A_i at every point.
    Every order in ORDERS puts t_i above t_s, so the leading monomial of
    f_i is t_i^|A_i|; these are pairwise coprime, so the f_i are a Groebner
    basis of the ideal J they generate, and it is reduced: no tail monomial
    t_i^j t_s^(|A_i|-j), j < |A_i|, is divisible by a leading one.  t_s
    divides no leading monomial, so J is saturated, and S/J has the Hilbert
    function of the standard monomials t^u t_s^e with u_i < |A_i|: H(d) is
    the sum of the coefficients of prod_i (1 + x + ... + x^(|A_i|-1))
    through degree d.  So deg S/J = prod |A_i| = |X|, reached in degree
    sum (|A_i| - 1).  J lies inside I_X and has its degree, so the two
    agree in high degree; J is saturated, so J = I_X.

    The summary lists H through degree sum |A_i| + 1, as
    monomial_quotient_degree does for the same initial ideal; no point is
    evaluated and no cell array is built."""
    ring = PolyRing(X.field, X.s)
    q = X.field.q
    s = X.s
    basis, sizes = [], []
    for i, A in enumerate(X.factors):
        # coefficients of prod_{a in A} (x - a), constant term first
        coeffs = [1]
        for a in A:
            coeffs = [(lo - a * hi) % q for lo, hi in zip([0] + coeffs, coeffs + [0])]
        m = len(A)
        terms = {}
        for j, c in enumerate(coeffs):
            if c:
                terms[tuple(j if v == i else m - j if v == s - 1 else 0 for v in range(s))] = c
        basis.append(Polynomial(ring, terms))
        sizes.append(m)
    basis.sort(key=lambda f: order.key(f.leading_monomial(order)))
    initial = MonomialIdeal(s, [f.leading_monomial(order) for f in basis])
    # counts[j]: the standard monomials of degree j in t_1..t_(s-1)
    counts = [1]
    for m in sizes:
        counts = [sum(counts[max(0, j - m + 1) : j + 1]) for j in range(len(counts) + m - 1)]
    values = list(accumulate(counts))
    values += [values[-1]] * (sum(sizes) + 2 - len(values))
    summary = GradedQuotientSummary(tuple(values), 1, values[-1], len(counts) - 1)
    return Ideal._from_reduced_basis(ring, basis, order, initial, summary)


def zero_set(X: ProjectivePointSet, polys) -> np.ndarray:
    """The rows of X.coords, in order, at which every polynomial in the list
    vanishes, as an (m, s) array."""
    return X.coords[_vanishing(X.coords, X.field.q, polys)]


def _vanishing(coords: np.ndarray, q: int, polys) -> np.ndarray:
    """The indices, in order, of the rows of coords at which every
    polynomial in the list vanishes; each is evaluated only at the rows
    where the ones before it vanish."""
    polys = list(polys)
    for f in polys:
        if not f.is_homogeneous():
            raise ValueError(f"inhomogeneous polynomial {f.format()}")
    alive, rows = np.arange(len(coords)), coords
    for f in polys:
        if not f.is_zero():
            keep = _evaluate(rows, q, [f])[0] == 0
            alive, rows = alive[keep], rows[keep]
    return alive


# the most points of P^(s-1)(F_q) searched for a zero set, in steps of at
# most _SEARCH_STEP points: the 16777215 points of P^23 over F_2 take 1.7 s
# for one linear form on a 2-core Xeon
MAX_SEARCHED = 1 << 24
_SEARCH_STEP = 1 << 16


def projective_zero_set(q: int, s: int, polys) -> np.ndarray:
    """The points of P^{s-1}(F_q) at which every polynomial in the list
    vanishes, in standard position and lexicographic order, as the rows of
    an (m, s) array, without building the whole space; with no polynomials
    it is the whole space (all_projective_points).  The chart of the points
    whose first nonzero coordinate is coordinate `lead` is searched in steps
    of at most _SEARCH_STEP points, keeping only the zeros.  A space of more than MAX_SEARCHED points, or a
    zero set of more than MAX_POINTS, is refused with ValueError."""
    PrimeField(q)  # refuses a q that is not prime
    if s < 1:
        raise ValueError(f"ambient dimension s must be at least 1, got {s}")
    total = (q**s - 1) // (q - 1)
    if total > MAX_SEARCHED:
        raise ValueError(f"P^{s - 1}(F_{q}) has {count_text(total)} points; "
                         f"at most {MAX_SEARCHED} can be searched for zeros")
    zeros, count = [], 0
    for lead in range(s):
        # within a step the chart's last `tail` free coordinates take every
        # value, and the ones before them (the head) `per` consecutive ones
        free = s - 1 - lead
        tail = 0
        while tail < free and q ** (tail + 1) <= _SEARCH_STEP:
            tail += 1
        heads = q ** (free - tail)
        per = min(_SEARCH_STEP // q**tail, heads)
        grid = np.zeros((per, q**tail, s), dtype=np.int64)
        grid[:, :, lead] = 1
        grid[:, :, s - tail :] = digits(0, q**tail, [q] * tail)
        for lo in range(0, heads, per):
            head = digits(lo, min(lo + per, heads), [q] * (free - tail))
            grid[: len(head), :, lead + 1 : s - tail] = head[:, None]
            chunk = grid[: len(head)].reshape(-1, s)
            found = _vanishing(chunk, q, polys)
            count += len(found)
            if count <= MAX_POINTS:
                zeros.append(chunk[found])
    _require_enumerable(count)
    return np.vstack(zeros)
