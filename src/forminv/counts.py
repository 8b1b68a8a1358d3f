"""Invariant counts for binary and ternary forms, by several routes.

Binary forms: two independent methods for the number of degree-n
invariants, the coefficient of q^{dn/2} in (1 - q) [d+n choose n]_q,

  * omega     -- weight counts of the coefficient monomials, from one
                 packed partition DP (``weights.omega_reader``),
  * qbinom    -- the q-binomials themselves, from one packed q-Pascal
                 row (``qbinom.gaussian_binomial_low``).

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

Every method but peel is a reader route, and the five share one runner,
for a series (``poincare_series``) and for a single point (``count``)
alike.  ``BINARY_METHODS`` and ``TERNARY_METHODS``, one route table per
form with its default first, map each reader route to its reader builder
``(d, order)`` -> ``coeff``, exact for every degree n <= order, and peel
to its point count.  ``_FORMS`` holds each table beside the form's k and
operator, which the runner applies to a reader at w = d*n/k.  A binary
reader is ``coeff(n, w)``, the q^w coefficient of [d+n choose n]_q for
w <= d*order//2, and the operator is 1 - q at q^{dn/2}.  A ternary
reader is ``coeff(n, a, b)``, the t^n p^a q^b coefficient of the series
prod_{k+l<=d} (1 - t p^k q^l)^{-1}.  Each ternary route makes that
coefficient its own way (a cell of the packed counting grid, one slot of
the graded packed inverse-product expansion, one slot of a product of
two graded packed halves of the pq-binomial factors).  No reader is
exact on the whole operator box.  counting's grid keeps only the rows of
w1 that a cell the operator reads can still reach
(``weights.solution_count_grid``).  genfunc's expansion and pqbinom's
halves drop every piece of t^j whose total degree a + b can no longer
reach the operator's floor, given the largest a + b per power of t of
the factors still to multiply it (``_floors``).  So all three readers
are exact only around the cells the operator reads.  Only the five-point
functional ``sl3.FIVE_POINT`` is shared, and ``_ternary_operator`` is
the one place that applies it.  Peel never reads it.
"""

from __future__ import annotations

from itertools import accumulate, groupby
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import weights
from .qbinom import _box_masks, gaussian_binomial_low, pq_binomial_table
from .sl3 import FIVE_POINT, decompose
from .weights import _check_dn, variables, weight_table

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

# coeff(n, w) for a binary route: the q^w coefficient of its degree-n
# series.  coeff(n, a, b) for a ternary route: the t^n p^a q^b
# coefficient of the series.  Either is exact at least at every cell the
# operator reads for n <= the reader's order (the ternary readers are
# exact only around those cells).
Reader = Callable[..., int]


class WorkLimitExceeded(RuntimeError):
    """A method's estimated state count exceeds the allowed budget."""


# ---------------------------------------------------------------------------
# binary forms


def gamma_binary(d: int, n: int) -> int:
    """Invariants of degree n of the binary form of degree d, as the
    difference of the zero-weight and weight-2 monomial counts: two
    slots of one partition DP (``weights.omega_reader``)."""
    return count("binary", d, n, "omega")


def gamma_binary_qbinom(d: int, n: int) -> int:
    """Same count via the q-binomial: coefficient of q^{dn/2} in
    (1 - q) * [d+n choose n]_q, two slots of the q-Pascal row
    (``qbinom.gaussian_binomial_low``)."""
    return count("binary", d, n, "qbinom")


def gamma_binary_full(d: int, n: int, k: int) -> int:
    """Multiplicity of the (k+1)-dimensional irreducible summand in the
    degree-n piece of the binary form's coefficient ring: (1 - q) at
    q^w, w = (d*n - k)/2, read from one omega reader."""
    _check_dn(d, n, k)
    if k < 0 or k > d * n or (d * n - k) % 2:
        return 0
    return _binary_operator(weights.omega_reader(d, n), n, (d * n - k) // 2)


# ---------------------------------------------------------------------------
# ternary forms


def nu_ternary_counting(d: int, n: int) -> int:
    """The five-point functional ``sl3.FIVE_POINT`` on the weight
    multiplicities c(d, n, i, j) of the degree-n monomials, read as five
    cells of one counting grid."""
    return count("ternary", d, n, "counting")


def nu_ternary_genfunc(d: int, n: int) -> int:
    """Coefficient extraction from the expansion of
    (prod_{k+l<=d} (1 - t p^k q^l))^{-1}."""
    return count("ternary", d, n, "genfunc")


def nu_ternary_pqbinom(d: int, n: int) -> int:
    """Same extraction, with the series assembled as the product of the
    pq-binomial generating series G_0 ... G_d."""
    return count("ternary", d, n, "pqbinom")


def nu_ternary_peel(
    d: int, n: int, work_limit: int = DEFAULT_WORK_LIMIT
) -> int:
    """Trivial-representation multiplicity via highest-weight peeling of
    the full weight table.  Guarded by a state-count work limit, an int."""
    _check_dn(d, n, work_limit)
    est = peel_work_estimate(d, n)
    if est > work_limit:
        raise WorkLimitExceeded(
            f"peel at d={d}, n={n} needs ~{est} states (limit {work_limit})"
        )
    return decompose(weight_table(d, n)).get((0, 0), 0)


def peel_work_estimate(d: int, n: int) -> int:
    """Rough state count of the peel route: the weight-table DP plus the
    quadratic cost of peeling the dominant sector.  The half of the box
    is rounded up, so the single weight at n = 0 still counts.  Raises
    ValueError unless d and n are nonnegative ints."""
    _check_dn(d, n)
    dn = d * n
    table_states = weights.num_variables(d) * (n + 1) * (dn + 1) ** 2
    dominant = ((dn + 1) ** 2 + 1) // 2
    return table_states + dominant ** 2


# ---------------------------------------------------------------------------
# the route runner


def resolve_method(form: str, method: Optional[str] = None) -> str:
    """The method a request runs: ``method``, or the form's default, the
    first key of its table (omega for binary forms, counting for ternary
    forms).  An unknown form, or a method of the other form, raises
    ValueError.
    """
    if form not in _FORMS:
        raise ValueError(f"unknown form {form!r}")
    table = _FORMS[form][0]
    if method is None:
        return next(iter(table))
    if method not in table:
        raise ValueError(f"method {method!r} invalid for {form} forms")
    return method


def count(
    form: str,
    d: int,
    n: int,
    method: Optional[str] = None,
    work_limit: int = DEFAULT_WORK_LIMIT,
) -> int:
    """The number of degree-n invariants of the form of degree d, by
    ``method`` (the form's default if None): the point counterpart of
    ``poincare_series``.  A reader route builds its reader at order n;
    where the form's k does not divide d*n the count is 0 and no reader
    is built.  Peel raises WorkLimitExceeded past ``work_limit``, an int.
    """
    method = resolve_method(form, method)
    _check_dn(d, n, work_limit)
    return _run(form, method, d, n, [n], work_limit)[0]


def poincare_series(
    form: str,
    d: int,
    n_max: int,
    method: str | None = None,
    include_zeros: bool = True,
    work_limit: int = DEFAULT_WORK_LIMIT,
) -> List[Tuple[int, int]]:
    """Per-degree invariant counts for n = 0..n_max.

    Every method but peel builds one reader at order n_max (one DP, grid
    or expansion clipped to the cells the operator reads) and applies the
    form's operator to it at every degree, so a whole series is much
    cheaper than n_max independent point queries.  Only peel runs one
    point count per degree.
    """
    method = resolve_method(form, method)
    _check_dn(d, n_max, work_limit)
    degrees = range(n_max + 1)
    rows = list(zip(degrees, _run(form, method, d, n_max, degrees, work_limit)))
    if not include_zeros:
        rows = [(n, v) for n, v in rows if v]
    return rows


def _run(
    form: str, method: str, d: int, order: int, degrees: Sequence[int], work_limit: int
) -> List[int]:
    """The counts of a resolved method at ``degrees``, each <= order,
    by the entry of the form's table at call time.  Peel runs once per
    degree.  A reader route builds one reader at ``order`` and applies
    the form's operator to it at w = d*n/k for every degree with k | d*n;
    the others are 0, and when no degree has k | d*n no reader is
    built."""
    table, k, operator = _FORMS[form]
    if method == "peel":
        return [table[method](d, n, work_limit=work_limit) for n in degrees]
    reads = {n: d * n // k for n in degrees if d * n % k == 0}
    coeff = table[method](d, order) if reads else None
    return [operator(coeff, n, reads[n]) if n in reads else 0 for n in degrees]


def _binary_operator(coeff: Reader, n: int, w: int) -> int:
    """1 - q at q^w: the q^w minus the q^(w-1) coefficient of the degree-n
    series that ``coeff`` reads."""
    return coeff(n, w) - coeff(n, w - 1)


def _ternary_operator(coeff: Reader, n: int, w: int) -> int:
    """OPERATOR_TERMS at (pq)^w of the t^n coefficient that ``coeff``
    reads."""
    return sum(c * coeff(n, w - a, w - b) for (a, b), c in OPERATOR_TERMS.items())


def _operator_box(d: int, order: int) -> Tuple[int, int]:
    """Exponent bounds of every coefficient the operator reads from the
    t^n terms, n <= order: p^a q^b with a <= w+1, b <= w, w = d*order//3.
    The box only grows with the order, so an expansion clipped at one
    order serves every lower one exactly."""
    w = d * order // 3
    return (w + 1, w)


def counting_reader(d: int, order: int) -> Reader:
    """The cells of one counting grid (``weights.solution_count_grid``):
    exact at every cell the operator reads, for n <= order."""
    return weights.solution_count_grid(d, order).cell


def _floors(d: int, order: int, rest: int) -> List[int]:
    """lows[j], j = 0..order: the least total degree a + b of a piece of
    t^j that can still reach a cell the operator reads, when every factor
    still to multiply it adds at most ``rest`` to a + b per power of t.

    At degree n the operator reads a + b >= 2dn/3 - 2 (rounded down), and
    by t^n a piece of t^j of total degree D reaches at most
    D + rest*(n - j).  So the piece is needed only if
    D >= min over n in [j, order] of floor(2dn/3) - 2 - rest*(n - j),
    one suffix minimum over n.  A piece below lows[j] can be dropped at
    every order up to ``order``, since a lower order only drops values of
    n from the minimum."""
    reach = max(a + b for a, b in OPERATOR_TERMS)
    need = [(2 * d * n) // 3 - reach - rest * n for n in range(order + 1)]
    least = list(accumulate(reversed(need), min))[::-1]
    return [low + rest * j for j, low in enumerate(least)]


def genfunc_reader(d: int, order: int) -> Reader:
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
    variables are folded in one at a time, in descending k + l, by the
    recurrence S'[j] = S[j] + p^k q^l S'[j-1]; multiplying by p^k q^l
    moves piece D to D + k + l and shifts it left by l slots.  Each new
    piece is masked to the box (``_box_masks``) and kept only if
    D >= ``_floors(d, order, k + l)[j]``: S'[j-1] already holds the
    variable being folded, and every later one has k + l no larger.  So
    the floors rise as the fold goes on, and the last variable, p^0 q^0,
    leaves the expansion exact at D >= 2dj/3 - 2 (rounded down), which
    holds every cell the operator reads; a piece below that may hold part
    of its coefficient.  Both cuts are exact because every exponent is
    >= 0: a + b never falls along the recurrence, and a term dropped for
    the box never comes back.  Every slot is a count of monomials of
    degree <= order, which the slot holds without carry.
    """
    slot = weights.monomial_count(d, order).bit_length() + 1
    masks = _box_masks(_operator_box(d, order), slot)
    top = len(masks) - 1
    coeffs: List[Dict[int, int]] = [{0: 1}] + [{} for _ in range(order)]
    for step, group in groupby(sorted(variables(d), key=sum, reverse=True), key=sum):
        lows = _floors(d, order, step)
        for _, l in group:
            shift = l * slot
            for j in range(1, order + 1):
                cur, low = coeffs[j], lows[j]
                get = cur.get
                for deg, x in coeffs[j - 1].items():
                    deg += step
                    if low <= deg <= top:
                        cur[deg] = get(deg, 0) + ((x << shift) & masks[deg])
    return coeffs, slot


def pqbinom_reader(d: int, order: int) -> Reader:
    """G_0 ... G_d multiplied in two halves, each clipped to the operator
    box and floored on a + b, held as graded packed ints (``_pq_half``).
    The split is at half = min(d + 1, ceil(2d/3) + 1): lo is
    G_0 ... G_{half-1}, and hi is G_d down to G_half, whose pieces are the
    ones that reach the operator's floor along its slope.  A coefficient
    of their product, never formed, is slot b of a sum of piece products:

        coeff(n, a, b) = slot b of  sum_i sum_D1 lo[i][D1] * hi[n-i][a+b-D1].

    That sum holds, in every slot, part of a coefficient of the full
    series, so no slot carries into the next one.  The five cells the
    operator reads at degree n have only three distinct a + b, so each
    sum is made once, in a dict that lives as long as the reader.  The
    floors make the reader exact only at a + b >= 2dn/3 - 2 (rounded
    down), which holds every cell the operator reads.
    """
    box = _operator_box(d, order)
    slot = weights.monomial_count(d, order).bit_length() + 1
    cell = (1 << slot) - 1
    masks = _box_masks(box, slot)
    rows = pq_binomial_table(d, order, box, slot)
    half = min(d + 1, -(-2 * d // 3) + 1)
    lo = _pq_half(d, rows, range(half), d if half <= d else 0, order, masks)
    hi = _pq_half(d, rows, range(d, half - 1, -1), half - 1, order, masks)
    sums: Dict[Tuple[int, int], int] = {}

    def coeff(n: int, a: int, b: int) -> int:
        if a < 0 or b < 0:
            return 0
        key = (n, a + b)
        if key not in sums:
            sums[key] = _convolve(lo, hi, n, a + b)
        return (sums[key] >> (b * slot)) & cell

    return coeff


def _convolve(
    lo: List[Dict[int, int]], hi: List[Dict[int, int]], n: int, deg: int
) -> int:
    """sum_i sum_D1 lo[i][D1] * hi[n-i][deg-D1]: the packed t^n piece of
    total degree ``deg`` of the product of two graded packed series."""
    total = 0
    for i in range(n + 1):
        get = hi[n - i].get
        for d1, x in lo[i].items():
            y = get(deg - d1)
            if y:
                total += x * y
    return total


def _pq_half(
    d: int,
    rows: List[List[int]],
    ms: Sequence[int],
    after: int,
    order: int,
    masks: List[int],
) -> List[Dict[int, int]]:
    """prod_{m in ms} G_m clipped to the box of ``masks`` (``_box_masks``)
    and floored on a + b, as graded packed ints: entry j maps each total
    degree D = a + b of the t^j coefficient to one int holding the
    coefficient of p^(D-b) q^b in slot b.

    The t^k coefficient of G_m is pq_binomial(m, k), homogeneous of
    degree m*k with coefficients >= 0, so it is one piece, rows[m][k] of
    ``pq_binomial_table`` (already clipped; the row ends where m*k leaves
    the box), and multiplying in G_m is one int multiply per pair of
    pieces.  G_m is never folded in one factor (1 - t p^k q^l)^{-1} at a
    time: that is genfunc's recurrence, and the routes stay independent.
    The factors are multiplied in the order of ``ms``, and
    ``after`` is the largest m of the factors that multiply the half
    later (the other half), or 0.  Once G_m is in, a piece of t^j is kept
    only above ``_floors(d, order, rest)``, where rest is the largest m
    still to come, in ``ms`` or after it.  Every exponent is >= 0, so
    masking each product to the box and dropping it below the floor are
    exact: a dropped term never comes back, and a + b never falls.  Every
    slot of a product, masked or not, is part of a count of monomials of
    degree <= order, which the slot holds without carry.
    """
    top = len(masks) - 1
    prod: List[Dict[int, int]] = [{0: 1}] + [{} for _ in range(order)]
    for i, m in enumerate(ms):
        row = rows[m]
        lows = _floors(d, order, max(max(ms[i + 1:], default=0), after))
        nxt: List[Dict[int, int]] = []
        for j, low in enumerate(lows):
            acc: Dict[int, int] = {}
            get = acc.get
            for k in range(min(j, len(row) - 1) + 1):
                g, dk = row[k], m * k
                for deg, x in prod[j - k].items():
                    deg += dk
                    if low <= deg <= top:
                        acc[deg] = get(deg, 0) + g * x
            nxt.append({deg: v & masks[deg] for deg, v in acc.items()})
        prod = nxt
    return prod


# ---------------------------------------------------------------------------
# route tables

# Each form's methods, its default first, mapped to what ``_run`` calls:
# a reader route's builder (d, order) -> coeff, or peel's point count.
# Peel, the oracle that ``forminv verify`` runs degree by degree, is last.
BINARY_METHODS: Dict[str, Callable[[int, int], Reader]] = {
    "omega": weights.omega_reader,
    "qbinom": gaussian_binomial_low,
}

TERNARY_METHODS: Dict[str, Callable[..., object]] = {
    "counting": counting_reader,
    "genfunc": genfunc_reader,
    "pqbinom": pqbinom_reader,
    "peel": nu_ternary_peel,
}

# Each form's table, k and operator, read at w = d*n/k: 1 - q at q^w for
# binary forms, k = 2; OPERATOR_TERMS at (pq)^w for ternary forms, k = 3.
_FORMS: Dict[str, Tuple[Dict[str, Callable[..., object]], int, Callable[..., int]]] = {
    "binary": (BINARY_METHODS, 2, _binary_operator),
    "ternary": (TERNARY_METHODS, 3, _ternary_operator),
}
