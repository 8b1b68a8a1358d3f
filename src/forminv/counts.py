"""Invariant counts for binary and ternary forms, by several routes.

Binary forms: the weight-count difference and its q-binomial restatement,
whose low part is one packed int built by the q-Pascal recurrence.
Ternary forms: four mutually independent methods for the number of
linearly independent degree-n invariants,

  * counting  -- five cells of one lattice-point counting grid,
                 combined with signs,
  * genfunc   -- coefficient extraction from the inverse-product series,
                 expanded one variable at a time on graded packed ints,
  * pqbinom   -- the same series assembled from pq-binomial factors,
                 whose packed table is built by the q-Pascal recurrence,
  * peel      -- highest-weight peeling of the full weight table.

All methods return exact Python ints and agree with each other; the
redundancy is the point.

counting, genfunc and pqbinom share one driver, for a series and for a
single point alike.  Each is a reader builder: ``(d, order)`` ->
``coeff(n, a, b)``, the t^n p^a q^b coefficient of the series
prod_{k+l<=d} (1 - t p^k q^l)^{-1} for any n <= order.  Each route
makes that coefficient its own way (a cell of the packed counting grid,
one slot of the graded packed inverse-product expansion, one slot of a
product of two graded packed halves of the pq-binomial factors).
counting's and pqbinom's readers are exact anywhere in the operator box;
genfunc's expansion is also floored on a + b (``_operator_floor``), so
its reader is exact only at the cells the operator reads.  Only the
five-point functional ``sl3.FIVE_POINT`` is shared, and
``_operator_value`` is the one place that applies it.  Peel never reads
it.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from . import weights
from .qbinom import _box_masks, gaussian_binomial_low, pq_binomial_table
from .sl3 import FIVE_POINT, decompose
from .weights import _check_dn, omega_binary, variables, weight_table

# None of these is called here; perfbench/tracer.py requires the bindings.
from .poly import expand_inverse_product, series_mul  # noqa: F401
from .qbinom import gaussian_binomial, pq_binomial  # noqa: F401
from .weights import c_ternary  # noqa: F401

DEFAULT_WORK_LIMIT = 10 ** 8

# The five-point functional moved from weights to exponents by the
# paper's map (i, j) -> p^{(i-j)/3} q^{(i+2j)/3}: the extraction operator
# 1 + pq + q^2/p - 2q - q^2, as exponent pair -> coefficient.
OPERATOR_TERMS: Dict[Tuple[int, int], int] = {
    ((i - j) // 3, (i + 2 * j) // 3): c for (i, j), c in FIVE_POINT.items()
}

# coeff(n, a, b): the t^n p^a q^b coefficient of the series, exact at
# least at every cell the operator reads for n <= the reader's order
# (genfunc's is exact only there).
Reader = Callable[[int, int, int], int]


class WorkLimitExceeded(RuntimeError):
    """A method's estimated state count exceeds the allowed budget."""


# ---------------------------------------------------------------------------
# binary forms


def gamma_binary(d: int, n: int) -> int:
    """Invariants of degree n of the binary form of degree d, as the
    difference of the zero-weight and weight-2 monomial counts."""
    return gamma_binary_full(d, n, 0)


def gamma_binary_qbinom(d: int, n: int) -> int:
    """Same count via the q-binomial: coefficient of q^{dn/2} in
    (1 - q) * [d+n choose n]_q, read as the difference of slots w and
    w-1 of the packed low part ``gaussian_binomial_low(d, n, w)``."""
    _check_dn(d, n)
    if (d * n) % 2:
        return 0
    w = d * n // 2
    low, slot = gaussian_binomial_low(d, n, w)
    below = (low >> ((w - 1) * slot)) & ((1 << slot) - 1) if w else 0
    return (low >> (w * slot)) - below


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
    """The five-point functional ``sl3.FIVE_POINT`` on the weight
    multiplicities c(d, n, i, j) of the degree-n monomials, read as five
    cells of one counting grid."""
    return _point("counting", d, n)


def nu_ternary_genfunc(d: int, n: int) -> int:
    """Coefficient extraction from the expansion of
    (prod_{k+l<=d} (1 - t p^k q^l))^{-1}."""
    return _point("genfunc", d, n)


def nu_ternary_pqbinom(d: int, n: int) -> int:
    """Same extraction, with the series assembled as the product of the
    pq-binomial generating series G_0 ... G_d."""
    return _point("pqbinom", d, n)


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
    return decompose(weight_table(d, n)).get((0, 0), 0)


def peel_work_estimate(d: int, n: int) -> int:
    """Rough state count of the peel route: the weight-table DP plus the
    quadratic cost of peeling the dominant sector.  The half of the box
    is rounded up, so the single weight at n = 0 still counts."""
    dn = d * n
    table_states = weights.num_variables(d) * (n + 1) * (dn + 1) ** 2
    dominant = ((dn + 1) ** 2 + 1) // 2
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

    counting, genfunc and pqbinom build one reader at order n_max (one
    counting grid or one expansion clipped to the cells the operator
    reads) and apply the operator to it at every degree, so a whole
    series is much cheaper than n_max independent point queries.  Peel
    and the binary methods run one point count per degree.
    """
    method, point = resolve_method(form, method, work_limit)
    _check_dn(d, n_max)
    if method in _READERS:
        coeff = _READERS[method](d, n_max)
        rows = [(n, _operator_value(coeff, d, n)) for n in range(n_max + 1)]
    else:
        rows = [(n, point(d, n)) for n in range(n_max + 1)]
    if not include_zeros:
        rows = [(n, v) for n, v in rows if v]
    return rows


def _point(method: str, d: int, n: int) -> int:
    """One degree of a reader route: a reader built at order n and read
    at n alone.  Where 3 does not divide d*n the count is 0 and no reader
    is built."""
    _check_dn(d, n)
    if (d * n) % 3:
        return 0
    return _operator_value(_READERS[method](d, n), d, n)


def _operator_value(coeff: Reader, d: int, n: int) -> int:
    """The operator OPERATOR_TERMS applied to the t^n coefficient that
    ``coeff`` reads, at (pq)^w, w = d*n/3; 0 unless 3 | d*n."""
    if (d * n) % 3:
        return 0
    w = d * n // 3
    return sum(c * coeff(n, w - a, w - b) for (a, b), c in OPERATOR_TERMS.items())


def _operator_box(d: int, order: int) -> Tuple[int, int]:
    """Exponent bounds of every coefficient the operator reads from the
    t^n terms, n <= order: p^a q^b with a <= w+1, b <= w, w = d*order//3.
    The box only grows with the order, so an expansion clipped at one
    order serves every lower one exactly."""
    w = d * order // 3
    return (w + 1, w)


def _counting_reader(d: int, order: int) -> Reader:
    return weights.solution_count_grid(d, order).cell


def _operator_floor(d: int, order: int) -> int:
    """Least total degree a + b of the coefficients the operator reads
    from the t^order term, w = d*order/3: 2w - 2, rounded down.

    At degree n the operator reads a + b >= 2dn/3 - 2, and a t^j term of
    total degree s reaches at most s + d(n - j) by t^n, so it is needed
    only if s >= 2dn/3 - 2 - d(n - j).  That bound is weakest at
    n = order, so an expansion floored at one order serves every lower
    one at the cells the operator reads."""
    return (2 * d * order) // 3 - max(a + b for a, b in OPERATOR_TERMS)


def _genfunc_reader(d: int, order: int) -> Reader:
    """One slot of ``_genfunc_expansion``: exact at every cell the
    operator reads, for n <= order."""
    coeffs, slot = _genfunc_expansion(d, order)
    cell = (1 << slot) - 1

    def coeff(n: int, a: int, b: int) -> int:
        if a < 0 or b < 0:
            return 0
        return (coeffs[n].get(a + b, 0) >> (b * slot)) & cell

    return coeff


def _genfunc_expansion(d: int, order: int) -> Tuple[List[Dict[int, int]], int]:
    """prod_{k+l<=d} (1 - t p^k q^l)^{-1} up to t^order, clipped to the
    operator box and floored on a + b, and the slot width.

    Entry j maps each total degree D = a + b of the t^j coefficient to
    one int holding the coefficient of p^(D-b) q^b in slot b.  The
    variables are folded in one at a time by the recurrence
    S'[j] = S[j] + p^k q^l S'[j-1]; multiplying by p^k q^l moves piece D
    to D + k + l and shifts it left by l slots.  Each new piece is masked
    to the box (``_box_masks``), and a piece of t^j is kept only if
    D >= _operator_floor - d*(order - j), the degrees the remaining
    order - j shifts can still lift to the floor.  Both are exact because
    every exponent is >= 0: a + b never falls along the recurrence, and a
    term dropped for the box never comes back.  Every slot is a count of
    monomials of degree <= order, which the slot holds without carry.
    """
    slot = weights.monomial_count(d, order).bit_length() + 1
    masks = _box_masks(_operator_box(d, order), slot)
    top = len(masks) - 1
    floor = _operator_floor(d, order)
    lows = [floor - d * (order - j) for j in range(order + 1)]
    coeffs: List[Dict[int, int]] = [{0: 1}] + [{} for _ in range(order)]
    for k, l in variables(d):
        step, shift = k + l, l * slot
        for j in range(1, order + 1):
            cur, low = coeffs[j], lows[j]
            get = cur.get
            for deg, x in coeffs[j - 1].items():
                deg += step
                if low <= deg <= top:
                    cur[deg] = get(deg, 0) + ((x << shift) & masks[deg])
    return coeffs, slot


def _pqbinom_reader(d: int, order: int) -> Reader:
    """G_0 ... G_d multiplied in two halves, each clipped to the operator
    box and held as graded packed ints (``_pq_half``).  A coefficient of
    their product, never formed, is slot b of a sum of piece products:

        coeff(n, a, b) = slot b of  sum_i sum_D1 lo[i][D1] * hi[n-i][a+b-D1].

    That sum holds, in every slot, part of a coefficient of the full
    series, so no slot carries into the next one.  Exact for any
    (a, b) inside the box.
    """
    box = _operator_box(d, order)
    slot = weights.monomial_count(d, order).bit_length() + 1
    cell = (1 << slot) - 1
    masks = _box_masks(box, slot)
    rows = pq_binomial_table(d, order, box, slot)
    half = (d + 1) // 2
    lo = _pq_half(rows, range(half), order, masks)
    hi = _pq_half(rows, range(half, d + 1), order, masks)

    def coeff(n: int, a: int, b: int) -> int:
        if a < 0 or b < 0:
            return 0
        deg, total = a + b, 0
        for i in range(n + 1):
            get = hi[n - i].get
            for d1, x in lo[i].items():
                y = get(deg - d1)
                if y:
                    total += x * y
        return (total >> (b * slot)) & cell

    return coeff


def _pq_half(
    rows: List[List[int]], ms: range, order: int, masks: List[int]
) -> List[Dict[int, int]]:
    """prod_{m in ms} G_m clipped to the box of ``masks`` (``_box_masks``),
    as graded packed ints: entry j maps each total degree D = a + b of
    the t^j coefficient to one int holding the coefficient of
    p^(D-b) q^b in slot b.

    The t^k coefficient of G_m is pq_binomial(m, k), homogeneous of
    degree m*k with coefficients >= 0, so it is one piece, rows[m][k] of
    ``pq_binomial_table`` (already clipped; the row ends where m*k leaves
    the box), and multiplying in G_m is one int multiply per pair of
    pieces.  Every exponent is >= 0, so masking each product to the box
    is exact: a dropped term never comes back.  Every slot of a product,
    masked or not, is part of a count of monomials of degree <= order,
    which the slot holds without carry.
    """
    top = len(masks) - 1
    prod: List[Dict[int, int]] = [{0: 1}] + [{} for _ in range(order)]
    for m in ms:
        row = rows[m]
        nxt: List[Dict[int, int]] = []
        for j in range(order + 1):
            acc: Dict[int, int] = {}
            get = acc.get
            for k in range(min(j, len(row) - 1) + 1):
                g, dk = row[k], m * k
                for deg, x in prod[j - k].items():
                    deg += dk
                    if deg <= top:
                        acc[deg] = get(deg, 0) + g * x
            nxt.append({deg: v & masks[deg] for deg, v in acc.items()})
        prod = nxt
    return prod


_READERS: Dict[str, Callable[[int, int], Reader]] = {
    "counting": _counting_reader,
    "genfunc": _genfunc_reader,
    "pqbinom": _pqbinom_reader,
}
