"""Monomial ideals and their quotients: minimal generators, Hilbert
functions, and degree computations when S/J has Krull dimension at
most one.  The FootprintRays engine turns repeated queries of the form
deg S/(J + (M)) and (J : (M)) != J into bitmask operations."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .polyring import divides, format_monomial, monomial, monomials_of_degree


class UnsupportedDimensionError(ValueError):
    """Raised when a quotient has Krull dimension two or more; degree and
    stabilization queries are only defined here for dimension zero and one."""


@dataclass(frozen=True)
class GradedQuotientSummary:
    """Hilbert data of S/J.

    hilbert_values collects H(0), H(1), ... through the point where the
    function provably stabilizes (dimension one: through D+1, where D sums
    over the variables the largest exponent any generator gives it; see
    monomial_quotient_degree) or reaches zero (dimension zero).  degree is
    the total count of standard monomials in dimension zero and the stable
    value in dimension one.  reg_index is the least d from which H is
    constant, or None in dimension zero.
    """

    hilbert_values: tuple[int, ...]
    dimension: int
    degree: int
    reg_index: int | None


class MonomialIdeal:
    """An ideal generated by monomials (exponent tuples), kept as its unique
    minimal basis."""

    __slots__ = ("nvars", "gens")

    def __init__(self, nvars: int, monomials=()):
        self.nvars = nvars
        mons = [monomial(m) for m in monomials]
        for m in mons:
            self._check(m)
        self.gens = self._minimalize(mons)

    def _check(self, m):
        if len(m) != self.nvars:
            raise ValueError(
                f"monomial {format_monomial(m)} has {len(m)} exponents, expected {self.nvars}"
            )

    @staticmethod
    def _minimalize(mons) -> tuple[tuple[int, ...], ...]:
        kept: list[tuple[int, ...]] = []
        for m in sorted(set(mons), key=lambda m: (sum(m), m)):
            if not any(divides(g, m) for g in kept):
                kept.append(m)
        return tuple(kept)

    def is_zero(self) -> bool:
        return not self.gens

    def is_unit(self) -> bool:
        return bool(self.gens) and not any(self.gens[0])

    def contains(self, monomial) -> bool:
        self._check(monomial)
        return any(divides(g, monomial) for g in self.gens)

    __contains__ = contains

    def add(self, monomials) -> "MonomialIdeal":
        """The sum J + (monomials)."""
        extra = monomials.gens if isinstance(monomials, MonomialIdeal) else monomials
        return MonomialIdeal(self.nvars, list(self.gens) + list(extra))

    def pure_power_exponents(self) -> list[int | None]:
        """For each variable, the exponent of its pure power among the
        generators, or None when no pure power is present."""
        out: list[int | None] = [None] * self.nvars
        for g in self.gens:
            support = [j for j, e in enumerate(g) if e]
            if len(support) == 1:
                out[support[0]] = g[support[0]]
            elif not support:
                out = [0] * self.nvars
        return out

    def dimension(self) -> int:
        """Krull dimension of S/J: the most variables spanning a coordinate
        subspace that avoids every generator, nvars less the fewest meeting
        every generator's support.  -1 for the unit ideal (the zero ring)."""
        if self.is_unit():
            return -1
        if self.dimension_at_most_one():
            return int(None in self.pure_power_exponents())
        supports = frozenset(frozenset(j for j, e in enumerate(g) if e) for g in self.gens)
        return self.nvars - _fewest_meeting(supports, {})

    def dimension_at_most_one(self) -> bool:
        """Whether dim S/J <= 1: no two variables without a pure power in J
        span a plane that avoids every generator, a test over pairs."""
        free = [j for j, e in enumerate(self.pure_power_exponents()) if e is None]
        supports = {tuple(j for j, e in enumerate(g) if e) for g in self.gens}
        return all(pair in supports for pair in combinations(free, 2))

    def degree_slice(self, d: int) -> list[tuple[int, ...]]:
        """Standard monomials (monomials outside J) of total degree d, in
        increasing lexicographic order, from the walk that cuts every
        prefix J's generators already fit (polyring.monomials_of_degree)."""
        return monomials_of_degree(self.nvars, d, self.gens)

    def hilbert_function(self, d: int) -> int:
        return len(self.degree_slice(d))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MonomialIdeal)
            and other.nvars == self.nvars
            and other.gens == self.gens
        )

    def __hash__(self) -> int:
        return hash((self.nvars, self.gens))

    def __repr__(self) -> str:
        inner = ", ".join(map(format_monomial, self.gens)) if self.gens else "0"
        return f"MonomialIdeal({inner})"


def _fewest_meeting(supports: frozenset, seen: dict) -> int:
    """The size of a smallest set of variables meeting every support: a
    variable v of a smallest support is taken, or else dropped from every
    support.  Sets met again are read from seen, so cliques stay polynomial."""
    if supports in seen or not supports:
        return seen.get(supports, 0)
    first = min(supports, key=len)
    v = min(first)
    fewest = 1 + _fewest_meeting(frozenset(s for s in supports if v not in s), seen)
    if len(first) > 1:
        fewest = min(fewest, _fewest_meeting(frozenset(s - {v} for s in supports), seen))
    seen[supports] = fewest
    return fewest


# array cells per numpy step of the mask builds: bounds their memory
_GRID_BATCH = 1 << 16


def _exponent_array(monomials, nvars: int) -> np.ndarray:
    return np.array(monomials, dtype=np.int64).reshape(-1, nvars)


def _standard_cells(gens: np.ndarray, caps, top: int | None = None) -> np.ndarray:
    """The cells u with 0 <= u_j <= caps[j] (and |u| <= top when given) that
    no row of gens divides, as rows of an array in lexicographic order.
    They form an order ideal, built one coordinate at a time: each cell on
    coordinates 0..k-1 takes every value of coordinate k up to its cap, and
    a row is tested at its last nonzero coordinate, so the work follows the
    cells, not their box."""
    lasts = [max(np.flatnonzero(g), default=0) for g in gens]
    cells = np.zeros((1, len(caps)), dtype=np.int64)
    for k, cap in enumerate(caps):
        if cap:
            count = len(cells)
            cells = np.repeat(cells, cap + 1, axis=0)
            cells[:, k] = np.tile(np.arange(cap + 1), count)
            if top is not None:
                cells = cells[cells.sum(axis=1) <= top]
        for g in (g for g, last in zip(gens, lasts) if last == k):
            cells = cells[~(cells >= g).all(axis=1)]
    return cells


def _bitmasks(bits: np.ndarray) -> list[int]:
    """Row k of a 2-d boolean array as the int whose bit b is bits[k, b]."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _dimension_at_most_one(ideal: MonomialIdeal) -> int:
    """dim S/J, raising UnsupportedDimensionError when it is 2 or more."""
    dim = ideal.dimension()
    if dim >= 2:
        raise UnsupportedDimensionError(
            f"quotient has dimension {dim}; only dimensions 0 and 1 are supported"
        )
    return dim


def monomial_quotient_degree(ideal: MonomialIdeal) -> GradedQuotientSummary:
    """Hilbert data and degree of S/J for a monomial ideal J, requiring
    dim <= 1.  Larger dimensions raise UnsupportedDimensionError.

    In dimension zero every variable has a pure power x_j^p_j in J, so the
    standard monomials are the cells of the grid u_j < p_j outside J, and
    the Hilbert function is their count by degree, through its first zero.
    In dimension one it is evaluated through D+1, where D = sum_j max_j and
    max_j is the largest exponent of variable j among the generators (the
    exponent box).  A standard monomial with two coordinates at or above
    their box maxima would span a standard 2-dimensional cone, so in
    dimension one every standard monomial has at most one such coordinate,
    and every standard monomial of degree at least D - nvars + 1 has exactly
    one: it lies on a ray of FootprintRays.  H is therefore the ray count
    from D - nvars + 1 on, and the last two values must agree.  The cells
    counted are those of degree at most D + 1.
    """
    if ideal.is_unit():
        return GradedQuotientSummary((0,), 0, 0, None)
    dim = _dimension_at_most_one(ideal)
    gens = _exponent_array(ideal.gens, ideal.nvars)
    box = int(gens.max(axis=0, initial=0).sum())
    top = box + 1
    degrees = _standard_cells(gens, [top] * ideal.nvars, top).sum(axis=1)
    values = np.bincount(degrees, minlength=top + 1).tolist()
    if dim == 0:
        values = values[: values.index(0) + 1]
        return GradedQuotientSummary(tuple(values), 0, sum(values), None)
    if values[box] != values[box + 1]:
        raise RuntimeError(
            f"Hilbert function not stable past the exponent box of {ideal}: "
            f"H({box}) = {values[box]}, H({box + 1}) = {values[box + 1]}"
        )
    degree = values[box]
    reg = box
    while reg > 0 and values[reg - 1] == degree:
        reg -= 1
    return GradedQuotientSummary(tuple(values), 1, degree, reg)


class FootprintRays:
    """Degree engine for a fixed monomial ideal J with dim S/J <= 1.

    The standard monomials of J that persist in high degree sit on rays: for
    a direction i, a base cell m' (with zero i-th exponent) generates the ray
    {m' + k*e_i} and the ray stays outside J exactly when every generator
    exceeds m' in some coordinate other than i.  The stable Hilbert value of
    S/J is the total ray count, and the same holds after enlarging J to
    J + (M): a new generator m kills the tail of a ray exactly when m divides
    some point of it, i.e. when m is bounded by the base cell away from the
    ray direction.  Both ray survival and the admissibility test
    (J : (M)) != J reduce to fixed bitmasks per monomial (`masks`), and so
    does the length of S/(J + M) once M kills every ray (`length_masks`), so
    scanning many sets M costs one AND plus a popcount per step.
    """

    def __init__(self, ideal: MonomialIdeal):
        if ideal.is_unit():
            raise ValueError("the unit ideal has no standard monomials")
        _dimension_at_most_one(ideal)
        self.ideal = ideal
        nv = ideal.nvars
        gens = self._gens = _exponent_array(ideal.gens, nv)
        self.max_exponents = gens.max(axis=0, initial=0).tolist()
        # witness cells: standard monomials inside the box; a witness for
        # (J:(M)) != J is standard and lands in J after every multiplier in M,
        # and capping its exponents at the box keeps both properties
        self._witness = _standard_cells(gens, self.max_exponents)
        self.witness_cells: list[tuple[int, ...]] = list(map(tuple, self._witness.tolist()))
        # ray cells along t_i: base cells m' in the box with m'_i = 0 such
        # that no generator, its i-th exponent dropped, divides m'; no i-th
        # exponent passes max_i, so these are the witnesses with u_i = max_i
        maxima = np.array(self.max_exponents)
        dirs, bases = [], []
        for i in range(nv):
            off = np.arange(nv) != i
            cells = self._witness[self._witness[:, i] == maxima[i]] * off
            # dim <= 1 keeps every escaping cell strictly inside the box
            edge = cells[:, off] == maxima[off]
            if edge.any():
                cell = tuple(cells[edge.any(axis=1)][0].tolist())
                raise RuntimeError(
                    f"escaping ray {cell} along t{i + 1} on the box "
                    f"boundary of {ideal}, impossible in dim <= 1"
                )
            dirs.extend([i] * len(cells))
            bases.append(cells)
        self._ray_bases = np.concatenate(bases) if bases else np.zeros((0, nv), np.int64)
        # a ray's own direction never decides survival
        self._ray_off = np.arange(nv) != np.array(dirs, dtype=np.int64).reshape(-1, 1)
        self.ray_cells: list[tuple[int, tuple[int, ...]]] = [
            (i, tuple(c)) for i, c in zip(dirs, self._ray_bases.tolist())
        ]

    def masks(self, monomials) -> tuple[list[int], list[int]]:
        """Witness and survival masks of each monomial, built by one array
        pass per generator.

        Witness bit b is set when witness cell v_b lands in J once multiplied
        by the monomial; an AND over a set M that stays nonzero certifies
        (J : (M)) != J.  Survival bit b is set when ray cell b stays standard
        in S/(J + (monomial)): the monomial kills cell (i, m') exactly when
        its exponents away from direction i fit under m'; its i-th exponent
        only delays the kill."""
        mus = _exponent_array(monomials, self.ideal.nvars)
        beyond = (mus[:, None] > self._ray_bases) & self._ray_off
        survival = _bitmasks(beyond.any(axis=2))
        landed = np.zeros((len(mus), len(self._witness)), dtype=bool)
        step = max(1, _GRID_BATCH // max(1, len(self._witness)))
        for lo in range(0, len(mus), step):
            shifted = self._witness + mus[lo : lo + step, None]
            for g in self._gens:
                landed[lo : lo + step] |= (shifted >= g).all(axis=2)
        return _bitmasks(landed), survival

    def length_masks(self, monomials, d: int) -> tuple[int, list[int]]:
        """For monomials of degree d: the count of standard monomials of
        degree below d, and per monomial a mask over the cells C = {u
        standard, |u| >= d, u_j <= max(max_j, d - 1)} with bit b set when the
        monomial does not divide cell b.

        When M kills every ray, each standard monomial u of S/(J + M) with
        |u| >= d lies in C: a coordinate u_i above max_i puts u on the ray
        along t_i through its base cell, the member of M killing that ray has
        i-th exponent at most d, so it divides u once u_i >= d too.  So
        deg S/(J + M) is the count plus the popcount of the AND of the
        masks of M."""
        cells = _standard_cells(self._gens, [max(e, d - 1) for e in self.max_exponents])
        degrees = cells.sum(axis=1)
        cells = cells[degrees >= d]
        mus = _exponent_array(monomials, self.ideal.nvars)
        spared = np.empty((len(mus), len(cells)), dtype=bool)
        step = max(1, _GRID_BATCH // max(1, len(cells)))
        for lo in range(0, len(mus), step):
            spared[lo : lo + step] = ~(cells >= mus[lo : lo + step, None]).all(axis=2)
        return int((degrees < d).sum()), _bitmasks(spared)
