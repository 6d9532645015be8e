"""Evaluation codes on projective point sets: generator matrices indexed by
standard monomials, subcode validation, and the Singleton bound."""

from __future__ import annotations

import numpy as np

from .linalg import kernel_basis, matrix_rank, require_exact_int64, rref
from .points import ProjectivePointSet, evaluation_matrix
from .polyring import GREVLEX, MonomialOrder, Polynomial


class BudgetExceededError(RuntimeError):
    """Raised when an enumeration would visit more candidates than allowed.
    `needed` is None for walks whose size is only known by walking them."""

    def __init__(self, needed: int | None, budget: int):
        if needed is None:
            message = f"enumeration passed the budget of {budget} candidates"
        else:
            message = f"enumeration needs {needed} candidates, budget is {budget}"
        super().__init__(message)
        self.needed = needed
        self.budget = budget


class DependentSubcodeError(ValueError):
    """Raised for generator lists whose evaluations are linearly dependent;
    carries a nonzero coefficient vector witnessing the dependency."""

    def __init__(self, witness):
        super().__init__(f"dependent generators, witness combination {witness}")
        self.witness = tuple(witness)


class EvaluationCode:
    """The image of the degree-d slice of S/I_X under evaluation at X.

    Rows of generator_rows evaluate the degree-d standard monomials, listed
    in decreasing monomial order so that echelon pivots line up with leading
    monomials.  k = number of standard monomials = rank, n = |X|.
    """

    def __init__(self, X: ProjectivePointSet, d: int, order: MonomialOrder = GREVLEX):
        if d < 1:
            raise ValueError(f"degree must be at least 1, got {d}")
        self.X = X
        self.d = d
        self.order = order
        self.ideal = X.vanishing_ideal(order)
        self.ring = self.ideal.ring
        self.standard_monomials = order.sorted(self.ideal.footprint_slice(d), reverse=True)
        self.k = len(self.standard_monomials)
        # codewords are coefficient vectors times the k generator rows
        require_exact_int64(X.field.q, self.k)
        self.generator_rows = evaluation_matrix(X, self.standard_monomials)
        self.n = len(X)
        rank = matrix_rank(self.generator_rows, self.q)
        if rank != self.k:
            raise RuntimeError(
                f"{self.k} standard monomials of degree {d} evaluate to rank {rank}"
            )

    @property
    def q(self) -> int:
        return self.X.field.q

    def coefficients_to_polynomial(self, coeffs) -> Polynomial:
        return self.ring.from_terms(dict(zip(self.standard_monomials, coeffs)))

    def polynomial_to_coefficients(self, poly: Polynomial) -> np.ndarray:
        """Coefficient vector of the normal form over the standard-monomial
        coordinates; rejects polynomials of the wrong degree."""
        nf = self.ideal.normal_form(poly)
        out = np.zeros(self.k, dtype=np.int64)
        index = {m: i for i, m in enumerate(self.standard_monomials)}
        for mono, coeff in nf.terms.items():
            if mono not in index:
                raise ValueError(
                    f"{poly.format()} is not homogeneous of degree {self.d} modulo the ideal"
                )
            out[index[mono]] = coeff
        return out

    def __repr__(self) -> str:
        return f"EvaluationCode(n={self.n}, k={self.k}, d={self.d}, q={self.q})"


def build_code(X: ProjectivePointSet, d: int, order: MonomialOrder = GREVLEX) -> EvaluationCode:
    return EvaluationCode(X, d, order)


class SubcodeSpec:
    """A validated independent generator list for the subcode: the original
    polynomials and, in reduced echelon form, their coefficient rows over
    the standard monomials, whose distinct pivots are the leading monomials
    of the echelon representatives."""

    def __init__(self, code: EvaluationCode, polynomials, normalized_coeffs: np.ndarray):
        self.code = code
        self.polynomials = tuple(polynomials)
        self.coeff_rows = normalized_coeffs
        self.k1 = normalized_coeffs.shape[0]

    def __repr__(self) -> str:
        inner = ", ".join(
            self.code.coefficients_to_polynomial(row).format(self.code.order)
            for row in self.coeff_rows
        )
        return f"SubcodeSpec(k1={self.k1}, [{inner}])"


def validate_subcode(code: EvaluationCode, polynomials) -> SubcodeSpec:
    """Checks the generators are homogeneous of the code degree with
    independent evaluations, and produces echelon representatives."""
    polys = list(polynomials)
    q = code.q
    if not polys:
        return SubcodeSpec(code, (), np.zeros((0, code.k), dtype=np.int64))
    coeff_rows = []
    for p in polys:
        if not isinstance(p, Polynomial):
            raise ValueError(f"expected a polynomial, got {type(p).__name__}")
        if p.is_zero() or not p.is_homogeneous() or p.degree() != code.d:
            raise ValueError(
                f"subcode generator {p.format()} is not homogeneous of degree {code.d}"
            )
        coeff_rows.append(code.polynomial_to_coefficients(p))
    A = np.array(coeff_rows, dtype=np.int64)
    if matrix_rank(A, q) < len(polys):
        witness = kernel_basis(A.T, q)[0]
        raise DependentSubcodeError(witness.tolist())
    if len(polys) > code.k:
        raise ValueError(f"more generators than the code dimension {code.k}")
    reduced, _ = rref(A, q)
    return SubcodeSpec(code, polys, reduced)


def singleton_bound(code: EvaluationCode, sub: SubcodeSpec, r: int) -> int:
    """n - k + r, an upper bound for the r-th relative weight."""
    if not 1 <= r <= code.k - sub.k1:
        raise ValueError(f"rank r={r} outside [1, {code.k - sub.k1}]")
    return code.n - code.k + r
