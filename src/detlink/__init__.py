"""Exact Groebner kernel and verifier for 2xn minor links and residual intersections."""

from .rings import (
    Monomial,
    Polynomial,
    Ring,
    Term,
)
from .groebner import (
    Budget,
    BudgetExceeded,
    DivisionResult,
    GBCertificate,
    GBStats,
    Ideal,
    divide,
    ideal_equal,
    is_groebner_basis,
    member,
    minimal_generators,
    reduced_groebner_basis,
    s_polynomial,
)
from .idealops import (
    dimension,
    height,
    intersect,
    quotient,
    quotient_by_poly,
    sum_ideals,
)

__all__ = [
    "Monomial",
    "Polynomial",
    "Ring",
    "Term",
    "Budget",
    "BudgetExceeded",
    "DivisionResult",
    "GBCertificate",
    "GBStats",
    "Ideal",
    "divide",
    "ideal_equal",
    "is_groebner_basis",
    "member",
    "minimal_generators",
    "reduced_groebner_basis",
    "s_polynomial",
    "dimension",
    "height",
    "intersect",
    "quotient",
    "quotient_by_poly",
    "sum_ideals",
]
