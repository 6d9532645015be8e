"""Multivariate polynomial ring K[t1..ts] over a prime field, with selectable
monomial orders and a text grammar for reading and printing polynomials."""

from __future__ import annotations

import re
from itertools import combinations_with_replacement

from .field import FieldElement, PrimeField

EXPONENT_CAP = 10**6


class Monomial:
    """A power product of the ring variables, stored as an exponent tuple."""

    __slots__ = ("exponents", "degree", "_hash")

    def __init__(self, exponents):
        exps = tuple(int(e) for e in exponents)
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps}")
        self.exponents = exps
        self.degree = sum(exps)
        self._hash = hash(exps)

    def __mul__(self, other: "Monomial") -> "Monomial":
        self._check(other)
        return Monomial(a + b for a, b in zip(self.exponents, other.exponents))

    def divides(self, other: "Monomial") -> bool:
        self._check(other)
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def divide_by(self, other: "Monomial") -> "Monomial":
        """Exact quotient self / other; other must divide self."""
        if not other.divides(self):
            raise ValueError(f"{other} does not divide {self}")
        return Monomial(a - b for a, b in zip(self.exponents, other.exponents))

    def lcm(self, other: "Monomial") -> "Monomial":
        self._check(other)
        return Monomial(max(a, b) for a, b in zip(self.exponents, other.exponents))

    def gcd(self, other: "Monomial") -> "Monomial":
        self._check(other)
        return Monomial(min(a, b) for a, b in zip(self.exponents, other.exponents))

    def is_coprime_with(self, other: "Monomial") -> bool:
        self._check(other)
        return all(min(a, b) == 0 for a, b in zip(self.exponents, other.exponents))

    def _check(self, other: "Monomial"):
        if len(other.exponents) != len(self.exponents):
            raise ValueError("monomials from rings with different variable counts")

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and other.exponents == self.exponents

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        parts = [
            f"t{i + 1}" if e == 1 else f"t{i + 1}^{e}"
            for i, e in enumerate(self.exponents)
            if e != 0
        ]
        return "*".join(parts) if parts else "1"


class MonomialOrder:
    """A monomial order given by a sort key on exponent tuples.

    Keys are strictly increasing with the order, so max(..., key=order.key)
    picks the leading monomial.
    """

    name = "?"

    def key(self, monomial: Monomial):
        raise NotImplementedError

    def compare(self, a: Monomial, b: Monomial) -> int:
        if len(a.exponents) != len(b.exponents):
            raise ValueError("cannot compare monomials with different variable counts")
        ka, kb = self.key(a), self.key(b)
        return (ka > kb) - (ka < kb)

    def sorted(self, monomials, reverse: bool = False) -> list[Monomial]:
        return sorted(monomials, key=self.key, reverse=reverse)

    def __repr__(self) -> str:
        return f"<order {self.name}>"


class _Grevlex(MonomialOrder):
    name = "grevlex"

    def key(self, monomial: Monomial):
        e = monomial.exponents
        return (monomial.degree, tuple(-x for x in reversed(e)))


class _Lex(MonomialOrder):
    name = "lex"

    def key(self, monomial: Monomial):
        return monomial.exponents


class _Grlex(MonomialOrder):
    name = "grlex"

    def key(self, monomial: Monomial):
        return (monomial.degree, monomial.exponents)


GREVLEX = _Grevlex()
LEX = _Lex()
GRLEX = _Grlex()
ORDERS = {"grevlex": GREVLEX, "lex": LEX, "grlex": GRLEX}


class PolyParseError(ValueError):
    """Syntax or semantic error in polynomial text, with a byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class PolyRing:
    """K[t1..t<nvars>] over F_q."""

    __slots__ = ("field", "nvars")

    def __init__(self, q, nvars: int):
        self.field = q if isinstance(q, PrimeField) else PrimeField(q)
        if not isinstance(nvars, int) or nvars < 1:
            raise ValueError(f"need at least one variable, got {nvars!r}")
        self.nvars = nvars

    @property
    def q(self) -> int:
        return self.field.q

    def monomial(self, exponents) -> Monomial:
        m = exponents if isinstance(exponents, Monomial) else Monomial(exponents)
        if len(m.exponents) != self.nvars:
            raise ValueError(
                f"expected {self.nvars} exponents, got {len(m.exponents)}"
            )
        return m

    def one_monomial(self) -> Monomial:
        return Monomial((0,) * self.nvars)

    def gens(self) -> tuple["Polynomial", ...]:
        out = []
        for i in range(self.nvars):
            exps = [0] * self.nvars
            exps[i] = 1
            out.append(self.from_terms({Monomial(exps): 1}))
        return tuple(out)

    def variable(self, index: int) -> "Polynomial":
        return self.gens()[index]

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c) -> "Polynomial":
        return self.from_terms({self.one_monomial(): c})

    def from_terms(self, terms) -> "Polynomial":
        """Build a polynomial from {Monomial: coefficient}, dropping zeros."""
        clean = {}
        for mon, coeff in terms.items():
            mon = self.monomial(mon)
            coeff = self.field(coeff)
            if not coeff.is_zero():
                clean[mon] = coeff
        return Polynomial(self, clean)

    def monomials_of_degree(self, d: int) -> list[Monomial]:
        """All monomials of total degree d, unsorted."""
        if d < 0:
            raise ValueError(f"degree must be nonnegative, got {d}")
        out = []
        for combo in combinations_with_replacement(range(self.nvars), d):
            exps = [0] * self.nvars
            for i in combo:
                exps[i] += 1
            out.append(Monomial(exps))
        return out

    def parse(self, text: str) -> "Polynomial":
        return parse_polynomial(text, self)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyRing)
            and other.field == self.field
            and other.nvars == self.nvars
        )

    def __hash__(self) -> int:
        return hash(("PolyRing", self.field.q, self.nvars))

    def __repr__(self) -> str:
        names = ",".join(f"t{i + 1}" for i in range(self.nvars))
        return f"GF({self.field.q})[{names}]"


class Polynomial:
    """An element of a PolyRing: a finite map from monomials to nonzero
    coefficients.  Instances are treated as immutable."""

    __slots__ = ("ring", "terms", "_lm_cache")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms
        self._lm_cache = {}

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _coerce_scalar(self, other):
        if isinstance(other, (int, FieldElement)):
            return self.ring.field(other)
        return None

    def __add__(self, other):
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise ValueError("polynomials from different rings")
            merged = dict(self.terms)
            for mon, coeff in other.terms.items():
                acc = merged.get(mon)
                s = coeff if acc is None else acc + coeff
                if s.is_zero():
                    merged.pop(mon, None)
                else:
                    merged[mon] = s
            return Polynomial(self.ring, merged)
        c = self._coerce_scalar(other)
        if c is None:
            return NotImplemented
        return self + self.ring.constant(c)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, Polynomial):
            return self + (-other)
        c = self._coerce_scalar(other)
        if c is None:
            return NotImplemented
        return self + self.ring.constant(-c)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise ValueError("polynomials from different rings")
            out: dict = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    mon = m1 * m2
                    prod = c1 * c2
                    acc = out.get(mon)
                    s = prod if acc is None else acc + prod
                    if s.is_zero():
                        out.pop(mon, None)
                    else:
                        out[mon] = s
            return Polynomial(self.ring, out)
        c = self._coerce_scalar(other)
        if c is None:
            return NotImplemented
        if c.is_zero():
            return self.ring.zero()
        return Polynomial(self.ring, {m: v * c for m, v in self.terms.items()})

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        result = self.ring.one()
        for _ in range(exponent):
            result = result * self
        return result

    def scaled_shift(self, monomial: Monomial, coeff) -> "Polynomial":
        """coeff * monomial * self, the workhorse step of division."""
        c = self.ring.field(coeff)
        if c.is_zero():
            return self.ring.zero()
        return Polynomial(
            self.ring, {m * monomial: v * c for m, v in self.terms.items()}
        )

    def leading_monomial(self, order: MonomialOrder = GREVLEX) -> Monomial:
        if not self.terms:
            raise ValueError("the zero polynomial has no leading monomial")
        cached = self._lm_cache.get(order.name)
        if cached is None:
            cached = max(self.terms, key=order.key)
            self._lm_cache[order.name] = cached
        return cached

    def leading_coefficient(self, order: MonomialOrder = GREVLEX) -> FieldElement:
        return self.terms[self.leading_monomial(order)]

    def coefficient(self, monomial: Monomial) -> FieldElement:
        return self.terms.get(monomial, self.ring.field.zero())

    def monomials(self) -> list[Monomial]:
        return list(self.terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(m.degree for m in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {m.degree for m in self.terms}
        return len(degrees) <= 1

    def homogeneous_degree(self) -> int:
        if not self.terms:
            raise ValueError("the zero polynomial has no homogeneous degree")
        degrees = {m.degree for m in self.terms}
        if len(degrees) != 1:
            raise ValueError(f"polynomial is not homogeneous: {self}")
        return degrees.pop()

    def monic(self, order: MonomialOrder = GREVLEX) -> "Polynomial":
        if not self.terms:
            return self
        lc = self.leading_coefficient(order)
        if lc == 1:
            return self
        return self * lc.inv()

    def evaluate(self, values) -> FieldElement:
        field = self.ring.field
        vals = [field(v).value for v in values]
        if len(vals) != self.ring.nvars:
            raise ValueError(f"expected {self.ring.nvars} values, got {len(vals)}")
        q = field.q
        total = 0
        for mon, coeff in self.terms.items():
            prod = coeff.value
            for v, e in zip(vals, mon.exponents):
                if e:
                    prod = prod * pow(v, e, q) % q
            total = (total + prod) % q
        return field(total)

    def format(self, order: MonomialOrder = GREVLEX) -> str:
        """Canonical text form: terms in decreasing order, coefficients in
        [0, q), '*' between all factors.  parse(format(f)) == f."""
        if not self.terms:
            return "0"
        parts = []
        for mon in order.sorted(self.terms, reverse=True):
            coeff = self.terms[mon].value
            if mon.degree == 0:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(repr(mon))
            else:
                parts.append(f"{coeff}*{mon!r}")
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return self.format()

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return other.ring == self.ring and other.terms == self.terms
        if isinstance(other, (int, FieldElement)):
            c = self.ring.field(other)
            if c.is_zero():
                return self.is_zero()
            return self.terms == {self.ring.one_monomial(): c}
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ring, frozenset((m, c.value) for m, c in self.terms.items())))


_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<var>t\d+)|(?P<op>[+\-*^])|(?P<bad>\S))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            break
        if m.group("bad"):
            raise PolyParseError(f"unexpected character {m.group('bad')!r}", m.start("bad"))
        if m.group("int"):
            tokens.append(("int", m.group("int"), m.start("int")))
        elif m.group("var"):
            tokens.append(("var", m.group("var"), m.start("var")))
        elif m.group("op"):
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def parse_polynomial(text: str, ring: PolyRing) -> Polynomial:
    """Parse the grammar: sum of terms, a term is factors joined by optional
    '*', a factor is an integer or a variable with optional '^exponent'.
    Unary minus is allowed, whitespace is insignificant."""
    tokens = _tokenize(text)
    idx = 0

    def peek():
        return tokens[idx]

    def advance():
        nonlocal idx
        tok = tokens[idx]
        idx += 1
        return tok

    def parse_factor(exps: list, coeff: int) -> int:
        kind, value, offset = advance()
        if kind == "int":
            return coeff * int(value)
        if kind == "var":
            var_index = int(value[1:])
            if not 1 <= var_index <= ring.nvars:
                raise PolyParseError(
                    f"unknown variable {value} in a ring with {ring.nvars} variables",
                    offset,
                )
            exponent = 1
            if peek()[:2] == ("op", "^"):
                advance()
                kind2, value2, offset2 = advance()
                if kind2 != "int":
                    raise PolyParseError("expected an integer exponent after '^'", offset2)
                exponent = int(value2)
                if exponent > EXPONENT_CAP:
                    raise PolyParseError(
                        f"exponent {exponent} exceeds the cap {EXPONENT_CAP}", offset2
                    )
            exps[var_index - 1] += exponent
            return coeff
        raise PolyParseError("expected a coefficient or a variable", offset)

    def parse_term(sign: int, terms: dict):
        exps = [0] * ring.nvars
        coeff = sign
        coeff = parse_factor(exps, coeff)
        while True:
            kind, value, _ = peek()
            if kind == "op" and value == "*":
                advance()
                coeff = parse_factor(exps, coeff)
            elif kind in ("int", "var"):
                coeff = parse_factor(exps, coeff)
            else:
                break
        mon = Monomial(exps)
        acc = terms.get(mon, 0) + coeff
        if acc % ring.q == 0:
            terms.pop(mon, None)
        else:
            terms[mon] = acc

    terms: dict = {}
    first = True
    while True:
        kind, value, offset = peek()
        if kind == "end":
            if first:
                raise PolyParseError("empty polynomial text", offset)
            break
        sign = 1
        if kind == "op" and value in "+-":
            if first and value == "+":
                raise PolyParseError("polynomial cannot start with '+'", offset)
            advance()
            if value == "-":
                sign = -1
            while peek()[:2] in (("op", "-"), ("op", "+")):
                _, v2, _ = advance()
                if v2 == "-":
                    sign = -sign
        elif not first:
            raise PolyParseError("expected '+' or '-' between terms", offset)
        parse_term(sign, terms)
        first = False
    return ring.from_terms(terms)
