"""Invariant counts for binary and ternary forms, by several routes.

Binary forms: the weight-count difference and its q-binomial restatement.
Ternary forms: four mutually independent methods for the number of
linearly independent degree-n invariants,

  * counting  -- five lattice-point counts combined with signs,
  * genfunc   -- coefficient extraction from the inverse-product series,
  * pqbinom   -- the same series assembled from pq-binomial factors,
  * peel      -- highest-weight peeling of the full weight table.

All methods return exact Python ints and agree with each other; the
redundancy is the point.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Tuple

from . import weights
from .poly import LaurentPoly, TruncatedSeries, expand_inverse_product, series_mul
from .qbinom import gaussian_binomial, pq_binomial
from .sl3 import decompose
from .weights import _check_dn, c_ternary, omega_binary, variables, weight_table

DEFAULT_WORK_LIMIT = 10 ** 8

# The coefficient-extraction operator 1 + pq + q^2/p - 2q - q^2:
# exponent pair -> coefficient.
OPERATOR_TERMS: Dict[Tuple[int, int], int] = {
    (0, 0): 1,
    (1, 1): 1,
    (-1, 2): 1,
    (0, 1): -2,
    (0, 2): -1,
}


class WorkLimitExceeded(RuntimeError):
    """A method's estimated state count exceeds the allowed budget."""


# ---------------------------------------------------------------------------
# binary forms


def gamma_binary(d: int, n: int) -> int:
    """Invariants of degree n of the binary form of degree d, as the
    difference of the zero-weight and weight-2 monomial counts."""
    _check_dn(d, n)
    if (d * n) % 2:
        return 0
    half = d * n // 2
    return omega_binary(d, n, half) - omega_binary(d, n, half - 1)


def gamma_binary_qbinom(d: int, n: int) -> int:
    """Same count via the q-binomial: coefficient of q^{dn/2} in
    (1 - q) * gaussian_binomial(d, n)."""
    _check_dn(d, n)
    if (d * n) % 2:
        return 0
    poly = (LaurentPoly.one() - LaurentPoly.monomial(0, 1)) * gaussian_binomial(d, n)
    return poly.coeff(0, d * n // 2)


def gamma_binary_full(d: int, n: int, k: int) -> int:
    """Multiplicity of the (k+1)-dimensional irreducible summand in the
    degree-n piece of the binary form's coefficient ring."""
    _check_dn(d, n, k)
    if k < 0 or k > d * n or (d * n - k) % 2:
        return 0
    w = (d * n - k) // 2
    return omega_binary(d, n, w) - omega_binary(d, n, w - 1)


# ---------------------------------------------------------------------------
# ternary forms


def nu_ternary_counting(d: int, n: int) -> int:
    """Signed combination of five weight-multiplicity counts:
    c(0,0) + c(3,0) + c(0,3) - 2 c(1,1) - c(2,2)."""
    _check_dn(d, n)
    return (
        c_ternary(d, n, 0, 0)
        + c_ternary(d, n, 3, 0)
        + c_ternary(d, n, 0, 3)
        - 2 * c_ternary(d, n, 1, 1)
        - c_ternary(d, n, 2, 2)
    )


def nu_ternary_genfunc(d: int, n: int) -> int:
    """Coefficient extraction from the expansion of
    (prod_{k+l<=d} (1 - t p^k q^l))^{-1}."""
    _check_dn(d, n)
    if (d * n) % 3:
        return 0
    series = _inverse_product_series(d, n)
    return _apply_operator(series.coeff(n), d * n // 3)


def nu_ternary_pqbinom(d: int, n: int) -> int:
    """Same extraction, with the series assembled as the product of the
    pq-binomial generating series G_0 ... G_d."""
    _check_dn(d, n)
    if (d * n) % 3:
        return 0
    series = _pq_product_series(d, n)
    return _apply_operator(series.coeff(n), d * n // 3)


def nu_ternary_peel(
    d: int, n: int, work_limit: int = DEFAULT_WORK_LIMIT
) -> int:
    """Trivial-representation multiplicity via highest-weight peeling of
    the full weight table.  Guarded by a state-count work limit."""
    _check_dn(d, n)
    est = peel_work_estimate(d, n)
    if est > work_limit:
        raise WorkLimitExceeded(
            f"peel at d={d}, n={n} needs ~{est} states (limit {work_limit})"
        )
    return decompose(weight_table(d, n).entries).get((0, 0), 0)


def peel_work_estimate(d: int, n: int) -> int:
    """Rough state count of the peel route: the weight-table DP plus the
    quadratic cost of peeling the dominant sector."""
    dn = d * n
    table_states = weights.num_variables(d) * (n + 1) * (dn + 1) ** 2
    dominant = (dn + 1) ** 2 // 2
    return table_states + dominant ** 2


# ---------------------------------------------------------------------------
# series drivers

BINARY_METHODS: Dict[str, Callable[[int, int], int]] = {
    "omega": gamma_binary,
    "qbinom": gamma_binary_qbinom,
}

TERNARY_METHODS: Dict[str, Callable[..., int]] = {
    "counting": nu_ternary_counting,
    "genfunc": nu_ternary_genfunc,
    "pqbinom": nu_ternary_pqbinom,
    "peel": nu_ternary_peel,
}


def poincare_series(
    form: str,
    d: int,
    n_max: int,
    method: str | None = None,
    include_zeros: bool = True,
    work_limit: int = DEFAULT_WORK_LIMIT,
) -> List[Tuple[int, int]]:
    """Per-degree invariant counts for n = 0..n_max.

    One truncated expansion (or one counting grid) is computed up front
    and reused for every degree, so whole-series generation is much
    cheaper than n_max independent point queries.
    """
    if form not in ("binary", "ternary"):
        raise ValueError(f"unknown form {form!r}")
    _check_dn(d, n_max)
    if method is None:
        method = "omega" if form == "binary" else "counting"

    if form == "binary":
        if method not in BINARY_METHODS:
            raise ValueError(f"method {method!r} invalid for binary forms")
        fn = BINARY_METHODS[method]
        rows = [(n, fn(d, n)) for n in range(n_max + 1)]
    else:
        if method not in TERNARY_METHODS:
            raise ValueError(f"method {method!r} invalid for ternary forms")
        if method == "counting":
            rows = _counting_series(d, n_max)
        elif method == "peel":
            rows = [
                (n, nu_ternary_peel(d, n, work_limit=work_limit))
                for n in range(n_max + 1)
            ]
        else:
            build = (
                _inverse_product_series
                if method == "genfunc"
                else _pq_product_series
            )
            series = build(d, n_max)
            rows = []
            for n in range(n_max + 1):
                if (d * n) % 3:
                    rows.append((n, 0))
                else:
                    rows.append((n, _apply_operator(series.coeff(n), d * n // 3)))
    if not include_zeros:
        rows = [(n, v) for n, v in rows if v]
    return rows


def _counting_series(d: int, n_max: int) -> List[Tuple[int, int]]:
    cell = weights.solution_count_grid(d, n_max).cell
    rows = []
    for n in range(n_max + 1):
        if (d * n) % 3:
            rows.append((n, 0))
            continue
        w = d * n // 3
        v = (
            cell(n, w, w)
            + cell(n, w - 1, w - 1)
            + cell(n, w + 1, w - 2)
            - 2 * cell(n, w, w - 1)
            - cell(n, w, w - 2)
        )
        rows.append((n, v))
    return rows


def _apply_operator(coeff_poly: LaurentPoly, w: int) -> int:
    """Extract the (pq)^w coefficient of the operator polynomial applied
    to coeff_poly."""
    return sum(
        c * coeff_poly.coeff(w - a, w - b)
        for (a, b), c in OPERATOR_TERMS.items()
    )


# Cached expansions, grown on demand; guarded so concurrent series
# generation stays correct.
_SERIES_LOCK = threading.Lock()
_INVPROD_CACHE: Dict[int, TruncatedSeries] = {}
_PQPROD_CACHE: Dict[int, TruncatedSeries] = {}


def _inverse_product_series(d: int, order: int) -> TruncatedSeries:
    with _SERIES_LOCK:
        cached = _INVPROD_CACHE.get(d)
        if cached is not None and cached.order >= order:
            return cached
    series = expand_inverse_product(variables(d), order)
    with _SERIES_LOCK:
        cached = _INVPROD_CACHE.get(d)
        if cached is None or cached.order < order:
            _INVPROD_CACHE[d] = series
    return series


def _pq_product_series(d: int, order: int) -> TruncatedSeries:
    with _SERIES_LOCK:
        cached = _PQPROD_CACHE.get(d)
        if cached is not None and cached.order >= order:
            return cached
    prod = TruncatedSeries(
        [pq_binomial(0, j) for j in range(order + 1)], order=order
    )
    for m in range(1, d + 1):
        gm = TruncatedSeries(
            [pq_binomial(m, j) for j in range(order + 1)], order=order
        )
        prod = series_mul(prod, gm, order)
    with _SERIES_LOCK:
        cached = _PQPROD_CACHE.get(d)
        if cached is None or cached.order < order:
            _PQPROD_CACHE[d] = prod
    return prod


def clear_caches() -> None:
    with _SERIES_LOCK:
        _INVPROD_CACHE.clear()
        _PQPROD_CACHE.clear()
