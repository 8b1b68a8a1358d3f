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

from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from . import weights
from .poly import (
    LaurentPoly,
    TruncatedSeries,
    expand_inverse_product,
    product_coeffs,
    series_mul,
)
# pq_binomial is not called here; perfbench/tracer.py requires this binding.
from .qbinom import gaussian_binomial, pq_binomial, pq_binomial_row  # noqa: F401
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
    return _pq_extract(_pq_halves(d, n), n, d * n // 3)


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


def resolve_method(
    form: str, method: Optional[str] = None, work_limit: int = DEFAULT_WORK_LIMIT
) -> Tuple[str, Callable[[int, int], int]]:
    """The method a request runs and its point count ``f(d, n)``.

    ``method=None`` picks the default (omega for binary forms, counting
    for ternary forms); peel gets ``work_limit`` bound.  An unknown form,
    or a method of the other form, raises ValueError.
    """
    if form not in ("binary", "ternary"):
        raise ValueError(f"unknown form {form!r}")
    table = BINARY_METHODS if form == "binary" else TERNARY_METHODS
    if method is None:
        method = "omega" if form == "binary" else "counting"
    if method not in table:
        raise ValueError(f"method {method!r} invalid for {form} forms")
    fn = table[method]
    if method == "peel":
        fn = partial(fn, work_limit=work_limit)
    return method, fn


def poincare_series(
    form: str,
    d: int,
    n_max: int,
    method: str | None = None,
    include_zeros: bool = True,
    work_limit: int = DEFAULT_WORK_LIMIT,
) -> List[Tuple[int, int]]:
    """Per-degree invariant counts for n = 0..n_max.

    counting builds one counting grid, and genfunc and pqbinom one
    truncated expansion, up front and read every degree from it, so a
    whole series is much cheaper than n_max independent point queries.
    genfunc and pqbinom build only the weight box  a <= w+1, b <= w,
    w = d*n_max//3, that the extraction operator reads; pqbinom keeps
    the product G_0 ... G_d split in two halves and reads each operator
    coefficient as a dot product of the halves.  The other methods run
    one point count per degree.
    """
    method, point = resolve_method(form, method, work_limit)
    _check_dn(d, n_max)
    if form == "ternary" and method == "counting":
        rows = _counting_series(d, n_max)
    elif form == "ternary" and method == "genfunc":
        coeffs = _inverse_product_series(d, n_max).coeffs
        rows = _extracted_series(
            d, n_max, lambda n, w: _apply_operator(coeffs[n], w)
        )
    elif form == "ternary" and method == "pqbinom":
        halves = _pq_halves(d, n_max)
        rows = _extracted_series(
            d, n_max, lambda n, w: _pq_extract(halves, n, w)
        )
    else:
        rows = [(n, point(d, n)) for n in range(n_max + 1)]
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


def _extracted_series(
    d: int, n_max: int, extract: Callable[[int, int], int]
) -> List[Tuple[int, int]]:
    """Rows n = 0..n_max, with extract(n, d*n/3) where 3 | d*n, else 0."""
    return [
        (n, 0 if (d * n) % 3 else extract(n, d * n // 3))
        for n in range(n_max + 1)
    ]


def _apply_operator(coeff_poly: LaurentPoly, w: int) -> int:
    """Extract the (pq)^w coefficient of the operator polynomial applied
    to coeff_poly."""
    return sum(
        c * coeff_poly.coeff(w - a, w - b)
        for (a, b), c in OPERATOR_TERMS.items()
    )


def _operator_box(d: int, order: int) -> Tuple[int, int]:
    """Exponent bounds of every coefficient the operator reads from the
    t^n terms, n <= order: p^a q^b with a <= w+1, b <= w, w = d*order//3.
    The box only grows with the order, so an expansion clipped at one
    order serves every lower one exactly."""
    w = d * order // 3
    return (w + 1, w)


# Cached expansions per d, each clipped to the box of its order, grown on
# demand.  Plain dicts, emptied by clear_caches(); nothing here is made
# safe for concurrent use.
_INVPROD_CACHE: Dict[int, TruncatedSeries] = {}
_PQPROD_CACHE: Dict[int, Tuple[TruncatedSeries, TruncatedSeries]] = {}


def _inverse_product_series(d: int, order: int) -> TruncatedSeries:
    cached = _INVPROD_CACHE.get(d)
    if cached is None or cached.order < order:
        cached = expand_inverse_product(
            variables(d), order, box=_operator_box(d, order)
        )
        _INVPROD_CACHE[d] = cached
    return cached


def _pq_halves(d: int, order: int) -> Tuple[TruncatedSeries, TruncatedSeries]:
    """G_0 ... G_d multiplied in two halves, each clipped to the operator
    box; their product, never formed, is the pq-binomial series."""
    cached = _PQPROD_CACHE.get(d)
    if cached is None or cached[0].order < order:
        box = _operator_box(d, order)
        half = (d + 1) // 2
        cached = (
            _pq_product(range(half), order, box),
            _pq_product(range(half, d + 1), order, box),
        )
        _PQPROD_CACHE[d] = cached
    return cached


def _pq_product(ms: range, order: int, box: Tuple[int, int]) -> TruncatedSeries:
    """prod_{m in ms} G_m clipped to box; G_m has t^j coefficient
    pq_binomial(m, j)."""
    prod = None
    for m in ms:
        gm = TruncatedSeries(
            [_clip(c, box) for c in pq_binomial_row(m, order)], order=order
        )
        prod = gm if prod is None else series_mul(prod, gm, order, box)
    return prod if prod is not None else TruncatedSeries.one(order)


def _clip(poly: LaurentPoly, box: Tuple[int, int]) -> LaurentPoly:
    amax, bmax = box
    return LaurentPoly(
        {(a, b): c for (a, b), c in poly.terms.items() if a <= amax and b <= bmax}
    )


def _pq_extract(
    halves: Tuple[TruncatedSeries, TruncatedSeries], n: int, w: int
) -> int:
    """The operator applied to the t^n coefficient of the product of the
    two halves, read as five dot products."""
    targets = [(w - a, w - b) for a, b in OPERATOR_TERMS]
    values = product_coeffs(halves[0], halves[1], n, targets)
    return sum(c * v for c, v in zip(OPERATOR_TERMS.values(), values))


def clear_caches() -> None:
    _INVPROD_CACHE.clear()
    _PQPROD_CACHE.clear()
