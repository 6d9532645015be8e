"""Finite sets of projective points over a prime field: normalization to
standard position, torus and cartesian constructors, evaluation matrices,
vanishing ideals, and zero sets."""

from __future__ import annotations

from itertools import product

import numpy as np

from .field import FieldElement, PrimeField
from .groebner import Ideal
from .linalg import require_exact_int64, rref
from .monideal import MonomialIdeal, monomial_quotient_degree
from .polyring import GREVLEX, Monomial, MonomialOrder, PolyRing, Polynomial


class ProjectivePoint:
    """A point of P^{s-1} stored in standard position: coordinates are
    scaled so the first nonzero one equals 1."""

    __slots__ = ("field", "coordinates", "values")

    def __init__(self, field: PrimeField, coordinates):
        values = [field(c).value for c in coordinates]
        if not any(values):
            raise ValueError("projective point needs a nonzero coordinate")
        first = next(v for v in values if v)
        if first != 1:
            scale = pow(first, field.q - 2, field.q)
            values = [v * scale % field.q for v in values]
        self.field = field
        self.values = tuple(values)
        self.coordinates = tuple(field(v) for v in values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.coordinates)

    def __getitem__(self, i) -> FieldElement:
        return self.coordinates[i]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ProjectivePoint)
            and other.field == self.field
            and other.values == self.values
        )

    def __hash__(self) -> int:
        return hash((self.field.q, self.values))

    def __repr__(self) -> str:
        return "[" + ":".join(str(v) for v in self.values) + "]"


class ProjectivePointSet:
    """An ordered list of distinct projective points.  The order fixes the
    codeword coordinate layout and is never changed after construction."""

    def __init__(self, field: PrimeField, points):
        pts = []
        seen = set()
        for p in points:
            if not isinstance(p, ProjectivePoint):
                p = ProjectivePoint(field, p)
            if p.field != field:
                raise ValueError("point field does not match the set's field")
            if pts and len(p) != len(pts[0]):
                raise ValueError("points with mixed coordinate counts")
            if p in seen:
                raise ValueError(f"duplicate point {p}")
            seen.add(p)
            pts.append(p)
        if not pts:
            raise ValueError("empty point set")
        self.field = field
        self.points = tuple(pts)
        self.s = len(pts[0])
        self._ideal_cache: dict[str, Ideal] = {}

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i) -> ProjectivePoint:
        return self.points[i]

    def coordinate_matrix(self) -> np.ndarray:
        """s x n integer matrix whose columns are the points."""
        return np.array([p.values for p in self.points], dtype=np.int64).T

    def vanishing_ideal(self, order: MonomialOrder = GREVLEX) -> Ideal:
        if order.name not in self._ideal_cache:
            self._ideal_cache[order.name] = vanishing_ideal(self, order)
        return self._ideal_cache[order.name]

    def __repr__(self) -> str:
        return f"ProjectivePointSet(q={self.field.q}, {len(self)} points in P^{self.s - 1})"


def projective_torus(q: int, s: int) -> ProjectivePointSet:
    """All points of P^{s-1} over F_q with every coordinate nonzero, in
    lexicographic order; there are (q-1)^{s-1} of them."""
    field = PrimeField(q)
    if s < 2:
        raise ValueError(f"ambient dimension s must be at least 2, got {s}")
    pts = [
        ProjectivePoint(field, (1,) + rest)
        for rest in product(range(1, q), repeat=s - 1)
    ]
    return ProjectivePointSet(field, pts)


def affine_cartesian(q: int, factors) -> ProjectivePointSet:
    """Image of A_1 x ... x A_{s-1} in P^{s-1} under x -> [x : 1], one point
    per tuple in lexicographic order."""
    field = PrimeField(q)
    sets = []
    for i, A in enumerate(factors):
        vals = sorted({field(a).value for a in A})
        if not vals:
            raise ValueError(f"factor {i + 1} is empty")
        sets.append(vals)
    if not sets:
        raise ValueError("need at least one factor")
    pts = [ProjectivePoint(field, tup + (1,)) for tup in product(*sets)]
    return ProjectivePointSet(field, pts)


def all_projective_points(q: int, s: int) -> ProjectivePointSet:
    """Every point of P^{s-1} once, by standard representative, in
    lexicographic order; there are (q^s - 1)/(q - 1) of them."""
    field = PrimeField(q)
    if s < 1:
        raise ValueError(f"ambient dimension s must be at least 1, got {s}")
    pts = []
    for lead in range(s):
        for rest in product(range(q), repeat=s - 1 - lead):
            pts.append(ProjectivePoint(field, (0,) * lead + (1,) + rest))
    return ProjectivePointSet(field, pts)


def parse_points(text: str, q: int) -> ProjectivePointSet:
    """Point list in the text format: one point per line, integer coordinates
    separated by ':', comments starting with '#'."""
    field = PrimeField(q)
    pts = []
    seen = {}
    width = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(":")
        try:
            coords = [int(p.strip()) for p in parts]
        except ValueError:
            raise ValueError(f"line {lineno}: bad coordinate in {line!r}") from None
        if width is None:
            width = len(coords)
            if width < 1:
                raise ValueError(f"line {lineno}: no coordinates")
        elif len(coords) != width:
            raise ValueError(
                f"line {lineno}: expected {width} coordinates, got {len(coords)}"
            )
        try:
            p = ProjectivePoint(field, coords)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if p in seen:
            raise ValueError(
                f"line {lineno}: duplicate of the point on line {seen[p]}"
            )
        seen[p] = lineno
        pts.append(p)
    if not pts:
        raise ValueError("no points in input")
    return ProjectivePointSet(field, pts)


def format_points(X: ProjectivePointSet) -> str:
    return "\n".join(":".join(str(v) for v in p.values) for p in X) + "\n"


def _monomial_row(X: ProjectivePointSet, exponents) -> np.ndarray:
    q = X.field.q
    coords = X.coordinate_matrix()
    row = np.ones(len(X), dtype=np.int64)
    for j, e in enumerate(exponents):
        base = coords[j]
        for _ in range(e):
            row = row * base % q
    return row


def evaluation_matrix(X: ProjectivePointSet, basis) -> np.ndarray:
    """Matrix whose row i evaluates basis[i] at the points of X.  Entries may
    be monomials or polynomials; all must be homogeneous of one degree."""
    entries = list(basis)
    degree = None
    for b in entries:
        if isinstance(b, Monomial):
            d = b.degree
        elif isinstance(b, Polynomial):
            if b.is_zero():
                raise ValueError("zero polynomial in evaluation basis")
            if not b.is_homogeneous():
                raise ValueError(f"inhomogeneous entry {b.format()}")
            d = b.degree()
        else:
            raise ValueError(f"expected Monomial or Polynomial, got {type(b).__name__}")
        if d >= 0:
            if degree is None:
                degree = d
            elif d != degree:
                raise ValueError(f"degree mismatch: {d} vs {degree}")
    q = X.field.q
    require_exact_int64(q)
    rows = np.zeros((len(entries), len(X)), dtype=np.int64)
    for i, b in enumerate(entries):
        if isinstance(b, Monomial):
            rows[i] = _monomial_row(X, b.exponents)
        else:
            acc = np.zeros(len(X), dtype=np.int64)
            for mono, coeff in b.terms.items():
                acc = (acc + coeff.value * _monomial_row(X, mono.exponents)) % q
            rows[i] = acc
    return rows


def vanishing_ideal(X: ProjectivePointSet, order: MonomialOrder = GREVLEX) -> Ideal:
    """The ideal of all homogeneous polynomials vanishing on X, with its
    reduced Groebner basis, by graded linear algebra (the projective
    Buchberger-Moeller method of Marinari, Moeller and Mora).

    In each degree d the evaluation matrix has one column per monomial, in
    increasing order.  Its RREF has the standard monomials as pivot columns;
    a free column m is a leading monomial of I_X, and when no earlier
    leading monomial divides m, the kernel vector m - sum R[i, m] * pivot_i
    is the monic, tail-reduced basis element with leading monomial m.

    Degrees are added until the monomial ideal L of the leading monomials
    found so far certifies itself: dim S/L <= 1, deg S/L = |X|, and the
    regularity index of S/L is the first degree where the evaluation rank
    is |X|.  Since L is inside in(I_X) and agrees with it in every degree
    scanned, equal Hilbert functions make L = in(I_X).  By Gotzmann
    persistence in(I_X) has no generator above degree |X|, so the
    certificate must hold by then; failing it raises RuntimeError.
    """
    ring = PolyRing(X.field, X.s)
    field = X.field
    n = len(X)
    basis: list[Polynomial] = []
    leads: list[Monomial] = []
    rank_reached = None
    d = -1
    while True:
        d += 1
        monomials = order.sorted(ring.monomials_of_degree(d))
        R, pivots = rref(evaluation_matrix(X, monomials).T, field.q)
        if rank_reached is None and len(pivots) == n:
            rank_reached = d
        pivot_set = set(pivots)
        # leads of degree d cannot divide one another, so one pass suffices
        for col, m in enumerate(monomials):
            if col in pivot_set or any(lm.divides(m) for lm in leads):
                continue
            terms = {m: field.one()}
            for i, pc in enumerate(pivots):
                if pc > col:
                    break
                if R[i, col]:
                    terms[monomials[pc]] = field(-int(R[i, col]))
            basis.append(Polynomial(ring, terms))
            leads.append(m)
        if rank_reached is not None:
            initial = MonomialIdeal(ring.nvars, leads)
            # L inside in(I_X) makes dim S/L >= 1
            if initial.dimension() == 1:
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


def zero_set(X: ProjectivePointSet, polys) -> tuple[ProjectivePoint, ...]:
    """The points of X where every polynomial in the list vanishes."""
    polys = list(polys)
    for f in polys:
        if not f.is_homogeneous():
            raise ValueError(f"inhomogeneous polynomial {f.format()}")
    alive = np.ones(len(X), dtype=bool)
    for f in polys:
        if f.is_zero():
            continue
        alive &= evaluation_matrix(X, [f])[0] == 0
    return tuple(p for p, keep in zip(X.points, alive) if keep)
