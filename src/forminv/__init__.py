"""Exact counts of invariants of binary and ternary forms."""

from .poly import (
    ExactDivisionError,
    LaurentPoly,
    OrderTooSmallError,
    TruncatedSeries,
    expand_inverse_product,
    series_mul,
)
from .qbinom import gaussian_binomial, pq_binomial
from .weights import (
    c_ternary,
    monomial_count,
    num_variables,
    omega_binary,
    variables,
    weight_table,
)
from .sl3 import (
    InvalidCharacterError,
    character,
    decompose,
    dimension,
    e_lambda,
    weight_multiplicity,
)
from .counts import (
    DEFAULT_WORK_LIMIT,
    WorkLimitExceeded,
    count,
    gamma_binary,
    gamma_binary_full,
    gamma_binary_qbinom,
    nu_ternary_counting,
    nu_ternary_genfunc,
    nu_ternary_peel,
    nu_ternary_pqbinom,
    peel_work_estimate,
    poincare_series,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_WORK_LIMIT",
    "ExactDivisionError",
    "InvalidCharacterError",
    "LaurentPoly",
    "OrderTooSmallError",
    "TruncatedSeries",
    "WorkLimitExceeded",
    "c_ternary",
    "character",
    "count",
    "decompose",
    "dimension",
    "e_lambda",
    "expand_inverse_product",
    "gamma_binary",
    "gamma_binary_full",
    "gamma_binary_qbinom",
    "gaussian_binomial",
    "monomial_count",
    "nu_ternary_counting",
    "nu_ternary_genfunc",
    "nu_ternary_peel",
    "nu_ternary_pqbinom",
    "num_variables",
    "omega_binary",
    "peel_work_estimate",
    "poincare_series",
    "pq_binomial",
    "series_mul",
    "variables",
    "weight_multiplicity",
    "weight_table",
]
