"""Monomial ideals and their quotients: minimal generators, Hilbert
functions, and degree computations when S/J has Krull dimension at
most one.  The FootprintRays engine turns repeated queries of the form
deg S/(J + (M)) and (J : (M)) != J into bitmask operations."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .polyring import Monomial


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
    """An ideal generated by monomials, kept as its unique minimal basis."""

    __slots__ = ("nvars", "gens")

    def __init__(self, nvars: int, monomials=()):
        self.nvars = nvars
        mons = []
        for m in monomials:
            if not isinstance(m, Monomial):
                m = Monomial(m)
            if len(m.exponents) != nvars:
                raise ValueError(
                    f"monomial {m} has {len(m.exponents)} exponents, expected {nvars}"
                )
            mons.append(m)
        self.gens = self._minimalize(mons)

    @staticmethod
    def _minimalize(mons) -> tuple[Monomial, ...]:
        mons = sorted(set(mons), key=lambda m: (m.degree, m.exponents))
        kept: list[Monomial] = []
        for m in mons:
            if not any(g.divides(m) for g in kept):
                kept.append(m)
        return tuple(kept)

    def is_zero(self) -> bool:
        return not self.gens

    def is_unit(self) -> bool:
        return bool(self.gens) and self.gens[0].degree == 0

    def contains(self, monomial: Monomial) -> bool:
        return any(g.divides(monomial) for g in self.gens)

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
            support = [j for j, e in enumerate(g.exponents) if e]
            if len(support) == 1:
                out[support[0]] = g.exponents[support[0]]
            elif not support:
                out = [0] * self.nvars
        return out

    def dimension(self) -> int:
        """Krull dimension of S/J: the largest number of variables spanning a
        coordinate subspace that avoids every generator.  -1 for the unit
        ideal (the zero ring)."""
        if self.is_unit():
            return -1
        supports = {
            frozenset(j for j, e in enumerate(g.exponents) if e) for g in self.gens
        }
        minimal = [s for s in supports if not any(t < s for t in supports)]
        for size in range(self.nvars, -1, -1):
            for subset in combinations(range(self.nvars), size):
                chosen = set(subset)
                if not any(s <= chosen for s in minimal):
                    return size
        return 0

    def degree_slice(self, d: int) -> list[Monomial]:
        """Standard monomials (monomials outside J) of total degree d."""
        if d < 0:
            raise ValueError(f"degree must be nonnegative, got {d}")
        if self.is_unit():
            return []
        caps = [
            d if e is None else min(d, e - 1) for e in self.pure_power_exponents()
        ]
        out: list[Monomial] = []
        exps = [0] * self.nvars

        def walk(pos: int, remaining: int):
            if pos == self.nvars - 1:
                if remaining <= caps[pos]:
                    exps[pos] = remaining
                    m = Monomial(exps)
                    if not self.contains(m):
                        out.append(m)
                    exps[pos] = 0
                return
            for e in range(min(remaining, caps[pos]) + 1):
                exps[pos] = e
                walk(pos + 1, remaining - e)
            exps[pos] = 0

        walk(0, d)
        return out

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
        inner = ", ".join(repr(g) for g in self.gens) if self.gens else "0"
        return f"MonomialIdeal({inner})"


def monomial_quotient_degree(ideal: MonomialIdeal, extra=()) -> GradedQuotientSummary:
    """Hilbert data and degree of S/(J + (extra)) for a monomial ideal J and
    optional extra monomial generators, requiring dim <= 1.  Larger
    dimensions raise UnsupportedDimensionError.

    In dimension zero the Hilbert function is summed until it reaches zero
    (the standard monomials form a finite down-set).  In dimension one it is
    evaluated through D+1, where D = sum_j max_j and max_j is the largest
    exponent of variable j among the generators (the exponent box).  A
    standard monomial with two coordinates at or above their box maxima
    would span a standard 2-dimensional cone, so in dimension one every
    standard monomial has at most one such coordinate, and every standard
    monomial of degree at least D - nvars + 1 has exactly one: it lies on a
    ray of FootprintRays.  H is therefore the ray count from D - nvars + 1
    on, and the last two values must agree.
    """
    extra = tuple(extra)
    if extra:
        ideal = ideal.add(extra)
    if ideal.is_unit():
        return GradedQuotientSummary((0,), 0, 0, None)
    dim = ideal.nvars if ideal.is_zero() else ideal.dimension()
    if dim >= 2:
        raise UnsupportedDimensionError(
            f"quotient has dimension {dim}; only dimensions 0 and 1 are supported"
        )
    if dim == 0:
        values = []
        d = 0
        while True:
            h = ideal.hilbert_function(d)
            values.append(h)
            if h == 0:
                break
            d += 1
        return GradedQuotientSummary(tuple(values), 0, sum(values), None)
    box = sum(
        max((g.exponents[j] for g in ideal.gens), default=0)
        for j in range(ideal.nvars)
    )
    values = [ideal.hilbert_function(d) for d in range(box + 2)]
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
    (J : (M)) != J reduce to fixed bitmasks per monomial, so scanning many
    sets M costs one AND plus a popcount per step.
    """

    def __init__(self, ideal: MonomialIdeal):
        if ideal.is_unit():
            raise ValueError("the unit ideal has no standard monomials")
        dim = ideal.nvars if ideal.is_zero() else ideal.dimension()
        if dim >= 2:
            raise UnsupportedDimensionError(
                f"quotient has dimension {dim}; only dimensions 0 and 1 are supported"
            )
        self.ideal = ideal
        nv = ideal.nvars
        gens = [g.exponents for g in ideal.gens]
        self.max_exponents = [
            max((g[j] for g in gens), default=0) for j in range(nv)
        ]
        # ray cells: (direction, base exponents); dim <= 1 keeps every
        # escaping cell strictly inside the generator exponent box
        self.ray_cells: list[tuple[int, tuple[int, ...]]] = []
        for i in range(nv):
            ranges = [
                range(self.max_exponents[j] + 1) if j != i else range(1)
                for j in range(nv)
            ]
            for cell in product(*ranges):
                if all(
                    any(g[j] > cell[j] for j in range(nv) if j != i) for g in gens
                ):
                    if any(
                        cell[j] == self.max_exponents[j] for j in range(nv) if j != i
                    ):
                        raise RuntimeError(
                            f"escaping ray {cell} along t{i + 1} on the box "
                            f"boundary of {ideal}, impossible in dim <= 1"
                        )
                    self.ray_cells.append((i, cell))
        # witness cells: standard monomials inside the box; a witness for
        # (J:(M)) != J is standard and lands in J after every multiplier in M,
        # and capping its exponents at the box keeps both properties
        self.witness_cells: list[tuple[int, ...]] = [
            v
            for v in product(*(range(e + 1) for e in self.max_exponents))
            if not ideal.contains(Monomial(v))
        ]

    def stable_degree(self) -> int:
        """deg S/J: ray count in dimension one, footprint size in dimension
        zero (no rays)."""
        if self.ray_cells:
            return len(self.ray_cells)
        return monomial_quotient_degree(self.ideal).degree

    def survival_mask(self, monomial: Monomial) -> int:
        """Bit b set when ray cell b stays standard in S/(J + (monomial)).

        The monomial kills cell (i, m') exactly when its exponents away from
        direction i fit under m'; its i-th exponent only delays the kill.
        """
        mu = monomial.exponents
        nv = self.ideal.nvars
        mask = 0
        for b, (i, cell) in enumerate(self.ray_cells):
            if any(mu[j] > cell[j] for j in range(nv) if j != i):
                mask |= 1 << b
        return mask

    def witness_mask(self, monomial: Monomial) -> int:
        """Bit b set when witness cell b lands in J once multiplied by the
        monomial; an AND over a set M that stays nonzero certifies
        (J : (M)) != J."""
        shifted = [g.divide_by(g.gcd(monomial)) for g in self.ideal.gens]
        mask = 0
        for b, v in enumerate(self.witness_cells):
            if any(
                all(s <= w for s, w in zip(g.exponents, v)) for g in shifted
            ):
                mask |= 1 << b
        return mask

    def sum_degree(self, monomials, survivors: int | None = None) -> int:
        """deg S/(J + (M)).  When the precomputed AND of survival masks is
        supplied and nonzero its popcount is the answer; otherwise the
        enlarged quotient is finite and counted directly."""
        if survivors is None:
            survivors = -1
            for m in monomials:
                survivors &= self.survival_mask(m)
            if survivors < 0:
                survivors &= (1 << len(self.ray_cells)) - 1
        if survivors:
            return survivors.bit_count()
        return monomial_quotient_degree(self.ideal, monomials).degree
