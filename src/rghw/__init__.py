"""Evaluation codes on finite projective point sets over prime fields:
Groebner bases, Hilbert functions, and relative generalized Hamming weights."""

from .codes import (
    BudgetExceededError,
    DependentSubcodeError,
    EvaluationCode,
    SubcodeSpec,
    build_code,
    rghw_bruteforce,
    singleton_bound,
    validate_subcode,
)
from .field import FieldElement, PrimeField
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
    ProjectivePoint,
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
    WeightQuery,
    rgff,
    rgmdf,
    vasconcelos,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CandidateScan",
    "DependentSubcodeError",
    "EvaluationCode",
    "FieldElement",
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
    "ProjectivePoint",
    "ProjectivePointSet",
    "SubcodeSpec",
    "UnsupportedDimensionError",
    "WeightQuery",
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
    "rghw_bruteforce",
    "rgff",
    "rgmdf",
    "singleton_bound",
    "validate_subcode",
    "vanishing_ideal",
    "vasconcelos",
    "zero_set",
]
