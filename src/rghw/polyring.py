"""Multivariate polynomial ring K[t1..ts] over a prime field, with selectable
monomial orders and a text grammar for reading and printing polynomials.

A monomial is its exponent tuple, and a polynomial maps monomials to
coefficients that are plain ints in [1, q): every operation reduces mod q
and drops the zeros."""

from __future__ import annotations

import re
from operator import add, index, le, sub

from .field import PrimeField

EXPONENT_CAP = 10**6


def monomial(exponents) -> tuple[int, ...]:
    """A monomial: its exponent tuple, from any iterable of nonnegative
    integers (numpy integers included).  A non-integer exponent raises
    TypeError, a negative one ValueError."""
    exps = tuple(map(index, exponents))
    if min(exps, default=0) < 0:
        raise ValueError(f"negative exponent in {exps}")
    return exps


def divides(a, b) -> bool:
    return all(map(le, a, b))


def mul(a, b) -> tuple[int, ...]:
    return tuple(map(add, a, b))


def quotient(a, b) -> tuple[int, ...]:
    """a / b, for b dividing a."""
    return tuple(map(sub, a, b))


def lcm(a, b) -> tuple[int, ...]:
    return tuple(map(max, a, b))


def monomials_of_degree(nvars: int, d: int, avoid=()) -> list[tuple[int, ...]]:
    """The monomials in nvars >= 1 variables of total degree d that no
    monomial in `avoid` divides, in increasing lexicographic order.  The
    walk sets one exponent at a time: g in `avoid`, last nonzero at j,
    divides m when its earlier exponents fit m's and g_j <= m_j, so once
    the prefix covers them g caps exponent j below g_j.  No completion of a
    cut prefix is visited."""
    if d < 0:
        raise ValueError(f"degree must be nonnegative, got {d}")
    # cuts[j]: (g_0..g_(j-1), g_j) for each g of avoid with last nonzero j
    cuts: list[list] = [[] for _ in range(nvars)]
    for g in avoid:
        support = [j for j, e in enumerate(g) if e]
        if not support:
            return []
        cuts[support[-1]].append((g[: support[-1]], g[support[-1]]))
    out: list[tuple[int, ...]] = []
    exps = [0] * nvars

    def walk(pos: int, remaining: int):
        cap = remaining
        for prefix, e in cuts[pos]:
            if e <= cap and all(map(le, prefix, exps)):
                cap = e - 1
        if pos == nvars - 1:
            if remaining <= cap:
                exps[pos] = remaining
                out.append(tuple(exps))
            return
        for e in range(cap + 1):
            exps[pos] = e
            walk(pos + 1, remaining - e)

    walk(0, d)
    return out


def format_monomial(m) -> str:
    parts = (f"t{i + 1}" if e == 1 else f"t{i + 1}^{e}" for i, e in enumerate(m) if e)
    return "*".join(parts) or "1"


class MonomialOrder:
    """A monomial order given by a sort key on exponent tuples.

    Keys are strictly increasing with the order, so max(..., key=order.key)
    picks the leading monomial.
    """

    __slots__ = ("name", "key")

    def __init__(self, name: str, key):
        self.name = name
        self.key = key

    def compare(self, a, b) -> int:
        if len(a) != len(b):
            raise ValueError("cannot compare monomials with different variable counts")
        ka, kb = self.key(a), self.key(b)
        return (ka > kb) - (ka < kb)

    def sorted(self, monomials, reverse: bool = False) -> list[tuple[int, ...]]:
        return sorted(monomials, key=self.key, reverse=reverse)

    def __repr__(self) -> str:
        return f"<order {self.name}>"


GREVLEX = MonomialOrder("grevlex", lambda m: (sum(m), tuple(-e for e in reversed(m))))
LEX = MonomialOrder("lex", lambda m: m)
GRLEX = MonomialOrder("grlex", lambda m: (sum(m), m))
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

    def monomial(self, exponents) -> tuple[int, ...]:
        m = monomial(exponents)
        if len(m) != self.nvars:
            raise ValueError(f"expected {self.nvars} exponents, got {len(m)}")
        return m

    def one_monomial(self) -> tuple[int, ...]:
        return (0,) * self.nvars

    def gens(self) -> tuple["Polynomial", ...]:
        n = self.nvars
        return tuple(
            Polynomial(self, {tuple(int(i == j) for j in range(n)): 1}) for i in range(n)
        )

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c) -> "Polynomial":
        return self.from_terms({self.one_monomial(): c})

    def from_terms(self, terms) -> "Polynomial":
        """Build a polynomial from {exponent tuple: integer coefficient}, reducing
        mod q and dropping zeros.  A non-integer coefficient raises TypeError."""
        q = self.field.q
        clean = {}
        for mon, coeff in terms.items():
            mon = self.monomial(mon)
            coeff = index(coeff) % q
            if coeff:
                clean[mon] = coeff
        return Polynomial(self, clean)

    def monomials_of_degree(self, d: int) -> list[tuple[int, ...]]:
        """All monomials of total degree d, in increasing lexicographic order."""
        return monomials_of_degree(self.nvars, d)

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

    def __add__(self, other):
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise ValueError("polynomials from different rings")
            q = self.ring.q
            merged = dict(self.terms)
            for mon, coeff in other.terms.items():
                s = (merged.get(mon, 0) + coeff) % q
                if s:
                    merged[mon] = s
                else:
                    merged.pop(mon, None)
            return Polynomial(self.ring, merged)
        if not isinstance(other, int):
            return NotImplemented
        return self + self.ring.constant(other)

    __radd__ = __add__

    def __neg__(self):
        q = self.ring.q
        return Polynomial(self.ring, {m: q - c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, Polynomial):
            return self + (-other)
        if not isinstance(other, int):
            return NotImplemented
        return self + self.ring.constant(-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise ValueError("polynomials from different rings")
            out: dict = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    mon = mul(m1, m2)
                    out[mon] = out.get(mon, 0) + c1 * c2
            return self.ring.from_terms(out)
        if not isinstance(other, int):
            return NotImplemented
        q = self.ring.q
        c = other % q
        if not c:
            return self.ring.zero()
        return Polynomial(self.ring, {m: v * c % q for m, v in self.terms.items()})

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        result = self.ring.one()
        for _ in range(exponent):
            result = result * self
        return result

    def scaled_shift(self, monomial, coeff) -> "Polynomial":
        """coeff * monomial * self, the workhorse step of division."""
        shift = self.ring.monomial(monomial)
        q = self.ring.q
        c = index(coeff) % q
        if not c:
            return self.ring.zero()
        return Polynomial(
            self.ring, {mul(m, shift): v * c % q for m, v in self.terms.items()}
        )

    def leading_monomial(self, order: MonomialOrder = GREVLEX) -> tuple[int, ...]:
        if not self.terms:
            raise ValueError("the zero polynomial has no leading monomial")
        cached = self._lm_cache.get(order.name)
        if cached is None:
            cached = max(self.terms, key=order.key)
            self._lm_cache[order.name] = cached
        return cached

    def leading_coefficient(self, order: MonomialOrder = GREVLEX) -> int:
        return self.terms[self.leading_monomial(order)]

    def coefficient(self, monomial) -> int:
        return self.terms.get(monomial, 0)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max(map(sum, self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        return len(set(map(sum, self.terms))) <= 1

    def monic(self, order: MonomialOrder = GREVLEX) -> "Polynomial":
        if not self.terms:
            return self
        lc = self.leading_coefficient(order)
        if lc == 1:
            return self
        return self * pow(lc, -1, self.ring.q)

    def evaluate(self, values) -> int:
        q = self.ring.q
        vals = [index(v) % q for v in values]
        if len(vals) != self.ring.nvars:
            raise ValueError(f"expected {self.ring.nvars} values, got {len(vals)}")
        total = 0
        for mon, coeff in self.terms.items():
            prod = coeff
            for v, e in zip(vals, mon):
                if e:
                    prod = prod * pow(v, e, q) % q
            total = (total + prod) % q
        return total

    def format(self, order: MonomialOrder = GREVLEX) -> str:
        """Canonical text form: terms in decreasing order, coefficients in
        [0, q), '*' between all factors.  parse(format(f)) == f."""
        if not self.terms:
            return "0"
        parts = []
        for mon in order.sorted(self.terms, reverse=True):
            coeff = self.terms[mon]
            if not any(mon):
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(format_monomial(mon))
            else:
                parts.append(f"{coeff}*{format_monomial(mon)}")
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return self.format()

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return other.ring == self.ring and other.terms == self.terms
        if isinstance(other, int):
            c = other % self.ring.q
            if not c:
                return self.is_zero()
            return self.terms == {self.ring.one_monomial(): c}
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ring, frozenset(self.terms.items())))


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
        mon = tuple(exps)
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
