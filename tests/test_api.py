"""The names the package root exports, pinned.

The test oracles (``forminv.poly`` and the binomials of ``qbinom`` built
by exact division) are importable from their modules only.
"""

import pytest

import forminv
from forminv import poly

PUBLIC = [
    "DEFAULT_WORK_LIMIT",
    "InvalidCharacterError",
    "WorkLimitExceeded",
    "c_ternary",
    "character",
    "count",
    "decompose",
    "dimension",
    "e_lambda",
    "gamma_binary",
    "gamma_binary_full",
    "gamma_binary_qbinom",
    "monomial_count",
    "nu_ternary_peel",
    "num_variables",
    "omega_binary",
    "peel_work_estimate",
    "poincare_series",
    "variables",
    "weight_multiplicity",
    "weight_table",
]

# every class and function that forminv.poly defines, and the two
# binomial oracles
ORACLES = sorted(
    name
    for name, value in vars(poly).items()
    if not name.startswith("_")
    and getattr(value, "__module__", None) == poly.__name__
) + ["gaussian_binomial", "pq_binomial"]


def test_all_is_pinned():
    assert forminv.__all__ == PUBLIC


def test_every_exported_name_resolves():
    for name in forminv.__all__:
        assert getattr(forminv, name) is not None, name


@pytest.mark.parametrize("name", ORACLES)
def test_oracle_is_not_exported(name):
    assert name not in forminv.__all__
    with pytest.raises(ImportError):
        exec(f"from forminv import {name}", {})


def test_oracles_import_from_their_modules():
    from forminv.poly import (  # noqa: F401
        ExactDivisionError,
        LaurentPoly,
        OrderTooSmallError,
        TruncatedSeries,
        expand_inverse_product,
        series_mul,
    )
    from forminv.qbinom import gaussian_binomial, pq_binomial  # noqa: F401
