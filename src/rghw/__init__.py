"""Evaluation codes on finite projective point sets over prime fields:
Groebner bases, Hilbert functions, and relative generalized Hamming weights."""

from .codes import (
    BudgetExceededError,
    DependentSubcodeError,
    EvaluationCode,
    SubcodeSpec,
    build_code,
    singleton_bound,
    validate_subcode,
)
from .field import PrimeField
from .groebner import (
    Ideal,
    buchberger,
    normal_form,
    reduced_basis,
)
from .monideal import (
    FootprintRays,
    GradedQuotientSummary,
    MonomialIdeal,
    UnsupportedDimensionError,
    monomial_quotient_degree,
)
from .points import (
    ProjectivePointSet,
    affine_cartesian,
    all_projective_points,
    evaluation_matrix,
    format_points,
    parse_points,
    projective_torus,
    vanishing_ideal,
    zero_set,
)
from .polyring import (
    GREVLEX,
    GRLEX,
    LEX,
    ORDERS,
    Monomial,
    MonomialOrder,
    PolyParseError,
    PolyRing,
    Polynomial,
)
from .weights import (
    CandidateScan,
    FootprintProfile,
    rgff,
    rgmdf,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CandidateScan",
    "DependentSubcodeError",
    "EvaluationCode",
    "FootprintProfile",
    "FootprintRays",
    "GradedQuotientSummary",
    "GREVLEX",
    "GRLEX",
    "Ideal",
    "LEX",
    "Monomial",
    "MonomialIdeal",
    "MonomialOrder",
    "ORDERS",
    "PolyParseError",
    "PolyRing",
    "Polynomial",
    "PrimeField",
    "ProjectivePointSet",
    "SubcodeSpec",
    "UnsupportedDimensionError",
    "affine_cartesian",
    "all_projective_points",
    "buchberger",
    "build_code",
    "evaluation_matrix",
    "format_points",
    "monomial_quotient_degree",
    "normal_form",
    "parse_points",
    "projective_torus",
    "reduced_basis",
    "rgff",
    "rgmdf",
    "singleton_bound",
    "validate_subcode",
    "vanishing_ideal",
    "zero_set",
]
