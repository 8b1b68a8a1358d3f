"""Exact counts of invariants of binary and ternary forms."""

from .weights import (
    c_ternary,
    monomial_count,
    num_variables,
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
    gamma_binary_full,
    peel_work_estimate,
    poincare_series,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_WORK_LIMIT",
    "InvalidCharacterError",
    "WorkLimitExceeded",
    "c_ternary",
    "character",
    "count",
    "decompose",
    "dimension",
    "e_lambda",
    "gamma_binary_full",
    "monomial_count",
    "num_variables",
    "peel_work_estimate",
    "poincare_series",
    "variables",
    "weight_multiplicity",
    "weight_table",
]
