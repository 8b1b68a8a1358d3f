"""The names the package root exports, pinned, and the names README.md
points to, resolved.

The test oracles (``forminv.poly`` and the binomials of ``qbinom`` built
by exact division) are importable from their modules only, and so are
the point functions, which name a method a second time beside
``count``.
"""

import importlib
import re
from pathlib import Path

import pytest

import forminv
from forminv import poly

README = Path(__file__).resolve().parent.parent / "README.md"

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
    "gamma_binary_full",
    "monomial_count",
    "num_variables",
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

# each is one count or one reader read; ``count`` and
# ``poincare_series`` are the root's only entries by method
POINT_FUNCTIONS = [
    ("counts", "gamma_binary"),
    ("counts", "gamma_binary_qbinom"),
    ("counts", "nu_ternary_peel"),
    ("weights", "omega_binary"),
]


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


@pytest.mark.parametrize("module, name", POINT_FUNCTIONS)
def test_point_function_imports_from_its_module_only(module, name):
    assert name not in forminv.__all__
    with pytest.raises(ImportError):
        exec(f"from forminv import {name}", {})
    assert callable(getattr(importlib.import_module(f"forminv.{module}"), name))


# a backticked ``module.name`` or ``module.Class.name``, for each module
# whose docstrings the README points to
POINTER = re.compile(r"`(cli|counts|weights|qbinom|sl3|poly)\.(\w+(?:\.\w+)*)")


def test_readme_pointers_resolve():
    pointers = POINTER.findall(README.read_text(encoding="utf-8"))
    assert pointers
    missing = []
    for module, name in pointers:
        target = importlib.import_module(f"forminv.{module}")
        for part in name.split("."):
            target = getattr(target, part, None)
        if target is None:
            missing.append(f"{module}.{name}")
    assert not missing
