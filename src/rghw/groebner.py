"""Buchberger's algorithm with reduced bases, plus the graded ideal
operations built on it: normal forms, initial ideals, and Hilbert data."""

from __future__ import annotations

import heapq

from .monideal import (
    FootprintRays,
    GradedQuotientSummary,
    MonomialIdeal,
    monomial_quotient_degree,
)
from .polyring import GREVLEX, MonomialOrder, PolyRing, Polynomial, divides, lcm, quotient


def _one_ring(polys):
    ring = polys[0].ring if polys else None
    if any(p.ring is not ring and p.ring != ring for p in polys):
        raise ValueError("polynomials from different rings")


def spolynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    lf, lg = f.leading_monomial(order), g.leading_monomial(order)
    m = lcm(lf, lg)
    q = f.ring.q
    return f.scaled_shift(quotient(m, lf), pow(f.terms[lf], -1, q)) - g.scaled_shift(
        quotient(m, lg), pow(g.terms[lg], -1, q)
    )


def normal_form(f: Polynomial, divisors, order: MonomialOrder = GREVLEX) -> Polynomial:
    """Remainder of f under full division by the divisor list: no monomial of
    the result is divisible by any divisor's leading monomial."""
    divisors = list(divisors)
    _one_ring([f] + divisors)
    q = f.ring.q
    leads = [(d.leading_monomial(order), d) for d in divisors if not d.is_zero()]
    leads = [(dlm, pow(d.terms[dlm], -1, q), d) for dlm, d in leads]
    remainder = f.ring.zero()
    work = f
    while not work.is_zero():
        lm = work.leading_monomial(order)
        lc = work.terms[lm]
        for dlm, dinv, d in leads:
            if divides(dlm, lm):
                work = work - d.scaled_shift(quotient(lm, dlm), lc * dinv)
                break
        else:
            term = Polynomial(f.ring, {lm: lc})
            remainder = remainder + term
            work = work - term
    return remainder


def buchberger(gens, order: MonomialOrder = GREVLEX) -> list[Polynomial]:
    """A Groebner basis containing the input generators.

    Pairs are processed smallest lcm first, from a heap keyed once per pair
    when it is made; pairs with coprime leading monomials are skipped since
    their S-polynomial always reduces to zero.
    """
    gens = list(gens)
    _one_ring(gens)
    basis = [g for g in gens if not g.is_zero()]
    leads = [g.leading_monomial(order) for g in basis]
    pairs: list = []

    def add_pairs(k: int):
        for m in range(k):
            heapq.heappush(pairs, (order.key(lcm(leads[k], leads[m])), k, m))

    for k in range(len(basis)):
        add_pairs(k)
    while pairs:
        _, i, j = heapq.heappop(pairs)
        if not any(map(min, leads[i], leads[j])):
            continue
        s = normal_form(spolynomial(basis[i], basis[j], order), basis, order)
        if not s.is_zero():
            basis.append(s)
            leads.append(s.leading_monomial(order))
            add_pairs(len(basis) - 1)
    return basis


def reduced_basis(basis, order: MonomialOrder = GREVLEX) -> list[Polynomial]:
    """The unique reduced Groebner basis: monic, pairwise tail-reduced,
    leading monomials forming an antichain, sorted by leading monomial.

    `basis` must be a Groebner basis (as `buchberger` returns).  Keeping one
    element per minimal leading monomial leaves a Groebner basis, and a
    normal form modulo a Groebner basis is unique, so one pass suffices:
    each kept element, reduced by the elements with smaller leading
    monomials (only those divide a monomial of its tail), is the reduced
    element for its leading monomial."""
    reduced: list[Polynomial] = []
    for g in sorted(
        (g for g in basis if not g.is_zero()),
        key=lambda g: order.key(g.leading_monomial(order)),
    ):
        lm = g.leading_monomial(order)
        if not any(divides(h.leading_monomial(order), lm) for h in reduced):
            reduced.append(normal_form(g, reduced, order).monic(order))
    return reduced


class Ideal:
    """An ideal of a PolyRing.  Built once and never changed, so its reduced
    Groebner basis, initial ideal, Hilbert summary and footprint ray engine
    are each computed at most once."""

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
        self._rays: FootprintRays | None = None

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

    def footprint_slice(self, d: int) -> list[tuple[int, ...]]:
        """Standard monomials of degree d; their classes are a basis of the
        degree-d part of the quotient ring."""
        return self.initial_ideal().degree_slice(d)

    def hilbert_function(self, d: int) -> int:
        return len(self.footprint_slice(d))

    def quotient_summary(self) -> GradedQuotientSummary:
        if self._summary is None:
            self._summary = monomial_quotient_degree(self.initial_ideal())
        return self._summary

    def footprint_rays(self) -> FootprintRays:
        """The FootprintRays engine of the initial ideal, shared by the
        footprint profiles of every degree."""
        if self._rays is None:
            self._rays = FootprintRays(self.initial_ideal())
        return self._rays

    def degree(self) -> int:
        return self.quotient_summary().degree

    def __repr__(self) -> str:
        inner = ", ".join(str(g) for g in self.gens)
        return f"Ideal({inner})"
