"""Buchberger's algorithm with reduced bases, plus the graded ideal
operations built on it: normal forms, initial ideals, and Hilbert data."""

from __future__ import annotations

from .monideal import GradedQuotientSummary, MonomialIdeal, monomial_quotient_degree
from .polyring import GREVLEX, Monomial, MonomialOrder, PolyRing, Polynomial


def spolynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    lf, lg = f.leading_monomial(order), g.leading_monomial(order)
    lcm = lf.lcm(lg)
    cf, cg = f.leading_coefficient(order), g.leading_coefficient(order)
    return f.scaled_shift(lcm.divide_by(lf), cf.inv()) - g.scaled_shift(
        lcm.divide_by(lg), cg.inv()
    )


def normal_form(f: Polynomial, divisors, order: MonomialOrder = GREVLEX) -> Polynomial:
    """Remainder of f under full division by the divisor list: no monomial of
    the result is divisible by any divisor's leading monomial."""
    divisors = [d for d in divisors if not d.is_zero()]
    leads = [(d.leading_monomial(order), d.leading_coefficient(order), d) for d in divisors]
    remainder = f.ring.zero()
    work = f
    while not work.is_zero():
        lm = work.leading_monomial(order)
        lc = work.leading_coefficient(order)
        for dlm, dlc, d in leads:
            if dlm.divides(lm):
                work = work - d.scaled_shift(lm.divide_by(dlm), lc / dlc)
                break
        else:
            remainder = remainder + work.ring.from_terms({lm: lc})
            work = work - work.ring.from_terms({lm: lc})
    return remainder


def buchberger(gens, order: MonomialOrder = GREVLEX) -> list[Polynomial]:
    """A Groebner basis containing the input generators.

    Pairs are processed smallest lcm first; pairs with coprime leading
    monomials are skipped since their S-polynomial always reduces to zero.
    """
    basis = [g for g in gens if not g.is_zero()]
    if not basis:
        return []
    pairs = {(i, j) for i in range(len(basis)) for j in range(i)}
    while pairs:
        i, j = min(
            pairs,
            key=lambda p: order.key(
                basis[p[0]]
                .leading_monomial(order)
                .lcm(basis[p[1]].leading_monomial(order))
            ),
        )
        pairs.remove((i, j))
        fi, fj = basis[i], basis[j]
        if fi.leading_monomial(order).is_coprime_with(fj.leading_monomial(order)):
            continue
        s = normal_form(spolynomial(fi, fj, order), basis, order)
        if not s.is_zero():
            basis.append(s)
            k = len(basis) - 1
            pairs.update((k, m) for m in range(k))
    return basis


def reduced_basis(basis, order: MonomialOrder = GREVLEX) -> list[Polynomial]:
    """The unique reduced Groebner basis: monic, pairwise tail-reduced,
    leading monomials forming an antichain, sorted by leading monomial."""
    basis = [g for g in basis if not g.is_zero()]
    # keep one generator per minimal leading monomial
    kept: list[Polynomial] = []
    for g in sorted(basis, key=lambda g: order.key(g.leading_monomial(order))):
        lm = g.leading_monomial(order)
        if not any(h.leading_monomial(order).divides(lm) for h in kept):
            kept.append(g)
    while True:
        reduced = []
        changed = False
        for idx, g in enumerate(kept):
            others = kept[:idx] + kept[idx + 1 :]
            r = normal_form(g, others, order).monic(order)
            if r != g:
                changed = True
            if not r.is_zero():
                reduced.append(r)
        kept = reduced
        if not changed:
            break
    return sorted(kept, key=lambda g: order.key(g.leading_monomial(order)))


class Ideal:
    """An ideal of a PolyRing.  Built once and never changed, so its reduced
    Groebner basis, initial ideal and Hilbert summary are each computed at
    most once."""

    def __init__(self, ring: PolyRing, gens, order: MonomialOrder = GREVLEX):
        self.ring = ring
        self.order = order
        clean = []
        for g in gens:
            if isinstance(g, str):
                g = ring.parse(g)
            if not isinstance(g, Polynomial) or g.ring != ring:
                raise ValueError(f"generator {g!r} does not live in {ring!r}")
            if not g.is_zero():
                clean.append(g)
        self.gens = tuple(clean)
        self._gb: list[Polynomial] | None = None
        self._initial: MonomialIdeal | None = None
        self._summary: GradedQuotientSummary | None = None

    @classmethod
    def _from_reduced_basis(
        cls,
        ring: PolyRing,
        basis: list[Polynomial],
        order: MonomialOrder,
        initial: MonomialIdeal,
        summary: GradedQuotientSummary,
    ) -> "Ideal":
        """An ideal whose reduced Groebner basis (sorted by leading
        monomial), initial ideal and Hilbert summary the caller has already
        certified; nothing is recomputed."""
        ideal = cls(ring, basis, order)
        ideal._gb = list(basis)
        ideal._initial = initial
        ideal._summary = summary
        return ideal

    def groebner_basis(self) -> list[Polynomial]:
        if self._gb is None:
            self._gb = reduced_basis(buchberger(self.gens, self.order), self.order)
        return self._gb

    def normal_form(self, f: Polynomial) -> Polynomial:
        if isinstance(f, str):
            f = self.ring.parse(f)
        return normal_form(f, self.groebner_basis(), self.order)

    def __contains__(self, f) -> bool:
        return self.normal_form(f).is_zero()

    def is_zero(self) -> bool:
        return not self.groebner_basis()

    def initial_ideal(self) -> MonomialIdeal:
        if self._initial is None:
            self._initial = MonomialIdeal(
                self.ring.nvars,
                [g.leading_monomial(self.order) for g in self.groebner_basis()],
            )
        return self._initial

    def footprint_slice(self, d: int) -> list[Monomial]:
        """Standard monomials of degree d; their classes are a basis of the
        degree-d part of the quotient ring."""
        return self.initial_ideal().degree_slice(d)

    def hilbert_function(self, d: int) -> int:
        return len(self.footprint_slice(d))

    def quotient_summary(self) -> GradedQuotientSummary:
        if self._summary is None:
            self._summary = monomial_quotient_degree(self.initial_ideal())
        return self._summary

    def degree(self) -> int:
        return self.quotient_summary().degree

    def __repr__(self) -> str:
        inner = ", ".join(str(g) for g in self.gens)
        return f"Ideal({inner})"
