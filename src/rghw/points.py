"""Finite sets of projective points over a prime field: normalization to
standard position, torus and cartesian constructors, evaluation matrices,
vanishing ideals, and zero sets."""

from __future__ import annotations

from math import prod
from operator import index

import numpy as np

from .field import PrimeField
from .groebner import Ideal
from .linalg import count_text, digits, require_exact_int64, rref
from .monideal import MonomialIdeal, monomial_quotient_degree
from .polyring import GREVLEX, MonomialOrder, PolyRing, Polynomial, monomial


class ProjectivePointSet:
    """An ordered list of distinct points of P^{s-1} over F_q, stored as one
    (n, s) int64 array `coords` whose rows are in standard position: residues
    in [0, q), scaled so the first nonzero one equals 1.  The row order fixes
    the codeword coordinate layout and is never changed after construction.
    Iterating or indexing gives the rows as tuples of ints."""

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
        coords.flags.writeable = False
        self.field = field
        self.coords = coords
        self.s = coords.shape[1]
        self._ideal_cache: dict[str, Ideal] = {}

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return map(tuple, self.coords.tolist())

    def __getitem__(self, i) -> tuple[int, ...]:
        return tuple(self.coords[i].tolist())

    def vanishing_ideal(self, order: MonomialOrder = GREVLEX) -> Ideal:
        if order.name not in self._ideal_cache:
            self._ideal_cache[order.name] = vanishing_ideal(self, order)
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
    return ProjectivePointSet(field, _lex_grid([[1]] + [range(1, q)] * (s - 1)))


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
    return ProjectivePointSet(field, _lex_grid(sets + [[1]]))


def all_projective_points(q: int, s: int) -> ProjectivePointSet:
    """Every point of P^{s-1} once, by standard representative, in
    lexicographic order; there are (q^s - 1)/(q - 1) of them."""
    field = PrimeField(q)
    if s < 1:
        raise ValueError(f"ambient dimension s must be at least 1, got {s}")
    _require_enumerable((q**s - 1) // (q - 1))
    return ProjectivePointSet(field, projective_zero_set(q, s, ()))


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
    Buchberger-Moeller method of Marinari, Moeller and Mora).

    L is the monomial ideal of the leading monomials found so far.  In each
    degree d the evaluation matrix has one column per degree-d monomial
    outside L, in increasing order.  A monomial in L is never a pivot (its
    column is a combination of smaller standard columns), so leaving it out
    changes no pivot and no kernel vector.  The RREF has the standard
    monomials as pivot columns; a free column m is a new leading monomial of
    I_X, and the kernel vector m - sum R[i, m] * pivot_i is the monic,
    tail-reduced basis element with leading monomial m.

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
    initial = MonomialIdeal(ring.nvars)
    rank_reached = None
    d = -1
    while True:
        d += 1
        monomials = order.sorted(initial.degree_slice(d))
        R, pivots = rref(evaluation_matrix(X, monomials).T, q)
        if rank_reached is None and len(pivots) == n:
            rank_reached = d
        pivot_set = set(pivots)
        for col, m in enumerate(monomials):
            if col in pivot_set:
                continue
            terms = {m: 1}
            # only rows whose pivot lies left of col are nonzero there
            for i in np.flatnonzero(R[:, col]).tolist():
                terms[monomials[pivots[i]]] = q - int(R[i, col])
            basis.append(Polynomial(ring, terms))
            leads.append(m)
        initial = MonomialIdeal(ring.nvars, leads)
        if rank_reached is not None:
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
    basis.sort(key=lambda g: order.key(g.leading_monomial(order)))
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
