"""Invariant counts for binary and ternary forms, by several routes.

Binary forms: two independent methods for the number of degree-n
invariants, the coefficient of q^{dn/2} in (1 - q) [d+n choose n]_q,

  * omega     -- weight counts of the coefficient monomials, from one
                 packed partition DP (``weights.omega_reader``),
  * qbinom    -- the q-binomials themselves, row d of the packed
                 pq-binomial table at p = 1
                 (``qbinom.gaussian_binomial_low``).

Ternary forms: four mutually independent methods for the number of
linearly independent degree-n invariants,

  * counting  -- five cells of one lattice-point counting grid,
                 combined with signs,
  * genfunc   -- coefficient extraction from the inverse-product series,
                 expanded one variable at a time on graded packed ints,
  * pqbinom   -- the same series assembled from pq-binomial factors,
                 whose packed table is built by the q-Pascal recurrence,
  * peel      -- highest-weight peeling of the weight table's dominant
                 part, built on the dominant box alone.

All methods return exact Python ints and agree with each other; the
redundancy is the point.

Every method but peel is a reader route, and the five share one runner,
for a series (``poincare_series``) and for a single point (``count``)
alike.  ``BINARY_METHODS`` and ``TERNARY_METHODS``, one route table per
form with its default first, map each reader route to its reader builder
and peel to its point count.  ``_FORMS`` holds each table beside the
form's k and operator, as a table of exponents and coefficients: 1 - q
at q^w for binary forms, ``OPERATOR_TERMS`` at (pq)^w for ternary forms,
w = d*n/k.  From the request's own degrees the runner works out one
``Reads``: for each degree n with k | d*n, the cells the operator reads
there that have no negative coordinate, each as the reader's arguments
with its coefficient c.  The count at n is the sum of c * coeff(*cell)
over them.

A binary reader is ``coeff(n, w)``, the q^w coefficient of
[d+n choose n]_q, built by ``(d, order)`` for w <= d*order//2, which
holds both cells w and w - 1.  A ternary reader is ``coeff(n, a, b)``,
the t^n p^a q^b coefficient of the series prod_{k+l<=d} (1 - t p^k q^l)^{-1},
built by ``(d, reads)``.  Each ternary route makes that coefficient its
own way (a cell of the packed counting grid, one slot of the graded
packed inverse-product expansion, one slot of a product of two graded
packed halves of the pq-binomial factors), and each is exact only at the
cells of its ``Reads``: every extent it keeps derives from them.
genfunc and pqbinom clip to ``Reads.box`` and drop every piece of t^j
whose total degree a + b can no longer reach a read cell
(``Reads.floors``); counting keeps only the rows of w1 from which a
read cell can still be reached (``Reads.window``).  Only the five-point functional
``sl3.FIVE_POINT`` is shared, through ``OPERATOR_TERMS``.  Peel never
reads it.
"""

from __future__ import annotations

from functools import cached_property
from itertools import repeat
from math import inf
from operator import sub
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from . import weights
from .qbinom import _box_masks, gaussian_binomial_low, pq_binomial_table
from .sl3 import FIVE_POINT, decompose
from .weights import _check_dn, weight_table

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

# An operator: exponent tuple -> coefficient.
Terms = Dict[Tuple[int, ...], int]

# coeff(n, w) for a binary route: the q^w coefficient of its degree-n
# series.  coeff(n, a, b) for a ternary route: the t^n p^a q^b
# coefficient of the series.  Either is exact at least at every cell of
# its ``Reads`` (the ternary readers are exact only around those cells).
Reader = Callable[..., int]


class WorkLimitExceeded(RuntimeError):
    """A method's estimated state count exceeds the allowed budget."""


class Reads:
    """The cells an operator reads from one reader.

    ``terms`` maps each exponent tuple e of the operator to its
    coefficient: at degree n the operator reads the reader at w - e,
    w = d*n/k, for every degree n in ``degrees`` with k | d*n.
    ``cells[n]`` holds the cells of degree n that have no negative
    coordinate, in ascending order, each as the reader's arguments
    (n, *(w - e)) with its coefficient, and ``order`` is the last degree
    read (-1 if none is).  A cell's coordinates grow with w, and so with
    n, so the largest of each is read at degree order.

    A ternary reader need be exact only at these cells, and every extent
    a ternary builder keeps derives from them: ``box``, ``floors`` and
    ``window``.  Each takes at most one summary per read degree, then
    O(order) int work per bound it returns.
    """

    def __init__(self, terms: Terms, d: int, k: int, degrees: Iterable[int]):
        ns = [n for n in degrees if d * n % k == 0]
        ws = [d * n // k for n in ns]
        # a column of (cell, coefficient) per term, exponents descending so
        # that each degree's cells ascend, and a row per degree, read
        # across; once w reaches the largest exponent, no cell has a
        # negative coordinate
        columns = [
            zip(zip(ns, *[map(sub, ws, repeat(e)) for e in exps]), repeat(c))
            for exps, c in sorted(terms.items(), reverse=True)
        ]
        full = max(map(max, terms))
        self.cells: Dict[int, Tuple[Tuple[Tuple[int, ...], int], ...]] = {
            n: row if w >= full else tuple(x for x in row if min(x[0]) >= 0)
            for n, w, row in zip(ns, ws, zip(*columns))
        }
        self.order = ns[-1] if ns else -1

    def box(self) -> Tuple[int, int]:
        """(A, B): every ternary cell (n, a, b) read has a <= A and b <= B,
        the largest a and b of the cells of degree order."""
        cells = self.cells[self.order]
        return max([a for (_, a, _), _ in cells]), max([b for (_, _, b), _ in cells])

    def floors(self, rest: int) -> List[int]:
        """lows[j], j = 0..order: the least total degree a + b of a piece of
        t^j that can still reach a ternary cell (n, a, b) read, when every
        factor still to multiply it adds at most ``rest`` to a + b per power
        of t.  By t^n a piece of total degree D reaches at most
        D + rest*(n - j), so lows[j] is the least, over the read degrees
        n >= j, of the least a + b read at n minus rest*(n - j).  A piece
        below lows[j] reaches no read cell."""
        # the least of x is minus the largest of -x
        return [-x for x in _suffix_max(self._sunk_sums, -rest)]

    @cached_property
    def _sunk_sums(self) -> List:
        """Minus the least a + b read at each degree, -inf where none is:
        one summary per degree, taken once for every ``floors`` call."""
        sunk = [-inf] * (self.order + 1)
        for n, cells in self.cells.items():
            sunk[n] = -min([a + b for (_, a, b), _ in cells])
        return sunk

    def window(self, d: int) -> Tuple[List[int], List[List[int]], int]:
        """lows[c], tops[r][c] and w2cap, c = 0..order, r = 0..d: the window
        of the counting grid (``weights.solution_count_grid``) of degree-d
        forms, the rows of w1 and the cells w2 <= w2cap of each from which
        a ternary cell (n, a, b) read, at w1 = a and w2 = b, can still be
        reached.  No weight falls along the DP, so w2cap is the largest b
        read.  A step from layer c to c + 1 raises w1 by at most d, so a
        cell of layer c reaches (n, a, b) only from w1 >= a - d*(n - c):
        lows[c] is the least of that over the read degrees n >= c, and at
        least 0.  While the variables a_{r,s} are folded in, r ascending,
        every step still to come raises w1 by at least r, so layer c
        reaches (n, a, b) only from w1 <= a - r*(n - c): tops[r][c] is the
        largest of that.  So lows never falls as c grows, nor tops[r][c]
        grows with r."""
        # a degree's cells (n, a, b) ascend, so by a first; the least of
        # x is minus the largest of -x
        sunk, highest = [-inf] * (self.order + 1), [-inf] * (self.order + 1)
        for n, cells in self.cells.items():
            sunk[n], highest[n] = -cells[0][0][1], cells[-1][0][1]
        lows = [-x if x < 0 else 0 for x in _suffix_max(sunk, -d)]
        tops = [_suffix_max(highest, r) for r in range(d + 1)]
        return lows, tops, self.box()[1]


def _suffix_max(values: List, step: int) -> List[int]:
    """m[j] = the largest, over n >= j, of values[n] - step*(n - j), for
    j = 0..len(values) - 1, by m[j] = max(values[j], m[j+1] - step).  A
    value of -inf marks a degree not read; the last value is an int, so
    every m[j] is.  The floors and lows take the least of values[n] -
    step*(n - j) as minus this over -values and -step."""
    run = -inf
    return [run := v if v > run - step else run - step for v in reversed(values)][::-1]


def _check_request(d: int, n: int, work_limit: int) -> None:
    """``_check_dn`` on d, n and work_limit, and ValueError for a
    work_limit below 1, the rule of the CLI's --work-limit."""
    _check_dn(d, n, work_limit)
    if work_limit < 1:
        raise ValueError("work_limit must be >= 1")


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
    q^w, w = (d*n - k)/2, two slots of one omega reader."""
    _check_dn(d, n, k)
    if k < 0 or k > d * n or (d * n - k) % 2:
        return 0
    coeff, w = weights.omega_reader(d, n), (d * n - k) // 2
    return coeff(n, w) - coeff(n, w - 1)


# ---------------------------------------------------------------------------
# ternary forms


def nu_ternary_peel(
    d: int, n: int, work_limit: int = DEFAULT_WORK_LIMIT
) -> int:
    """Trivial-representation multiplicity via highest-weight peeling of
    the dominant part of the weight table, whose character has
    ``monomial_count(d, n)`` weights in all.  Guarded by a state-count
    work limit, an int of at least 1."""
    _check_request(d, n, work_limit)
    est = peel_work_estimate(d, n)
    if est > work_limit:
        raise WorkLimitExceeded(
            f"peel at d={d}, n={n} needs ~{est} states (limit {work_limit})"
        )
    table = weight_table(d, n, dominant=True)
    return decompose(table, weights.monomial_count(d, n)).get((0, 0), 0)


def peel_work_estimate(d: int, n: int) -> int:
    """Rough state count of the peel route: the DP of the weight table's
    dominant part, on the box w1 <= dn//2, w2 <= dn//3, plus the
    ``decompose`` sweep.  The sweep visits at most the T = (dn+1)(dn+2)/2
    dominant weights i + j <= dn, and a weight peeled there starts at most
    three rays (``sl3._rays``: two of +g line tops and at most one of -g
    bottoms), so the sweep's visits plus ray starts are at most 4T.
    Raises ValueError unless d and n are nonnegative ints."""
    _check_dn(d, n)
    dn = d * n
    table_states = weights.num_variables(d) * (n + 1) * (dn // 2 + 1) * (dn // 3 + 1)
    dominant = (dn + 1) * (dn + 2) // 2
    return table_states + 4 * dominant


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
    ``poincare_series``.  A reader route builds its reader for the cells
    of degree n alone; where the form's k does not divide d*n the count
    is 0 and no reader is built.  Peel raises WorkLimitExceeded past
    ``work_limit``, an int of at least 1 (ValueError otherwise, for every
    method).
    """
    method = resolve_method(form, method)
    _check_request(d, n, work_limit)
    return _run(form, method, d, [n], work_limit)[0]


def poincare_series(
    form: str,
    d: int,
    n_max: int,
    method: str | None = None,
    include_zeros: bool = True,
    work_limit: int = DEFAULT_WORK_LIMIT,
) -> List[Tuple[int, int]]:
    """Per-degree invariant counts for n = 0..n_max.

    Every method but peel builds one reader for the cells of every degree
    (one DP, grid or expansion clipped to them) and applies the form's
    operator to it at every degree, so a whole series is much cheaper
    than n_max independent point queries.  Only peel runs one point count
    per degree.
    """
    method = resolve_method(form, method)
    _check_request(d, n_max, work_limit)
    degrees = range(n_max + 1)
    rows = list(zip(degrees, _run(form, method, d, degrees, work_limit)))
    if not include_zeros:
        rows = [(n, v) for n, v in rows if v]
    return rows


def _run(
    form: str, method: str, d: int, degrees: Sequence[int], work_limit: int
) -> List[int]:
    """The counts of a resolved method at ``degrees``, by the entry of
    the form's table at call time.  Peel runs once per degree.  A reader
    route works out the ``Reads`` of ``degrees``, builds one reader from
    it (a binary builder from its order) and sums each degree's cells;
    a degree without k | d*n counts 0, and when no degree has k | d*n no
    reader is built."""
    table, k, terms = _FORMS[form]
    if method == "peel":
        return [table[method](d, n, work_limit=work_limit) for n in degrees]
    reads = Reads(terms, d, k, degrees)
    if not reads.cells:
        return [0] * len(degrees)
    coeff = table[method](d, reads if k == 3 else reads.order)
    return [sum([c * coeff(*cell) for cell, c in reads.cells.get(n, ())]) for n in degrees]


def counting_reader(d: int, reads: Reads) -> Reader:
    """The cells of one counting grid on the window of ``reads``
    (``Reads.window``): exact at every cell read."""
    return weights.solution_count_grid(d, reads.order, *reads.window(d)).cell


def genfunc_reader(d: int, reads: Reads) -> Reader:
    """One slot of ``_genfunc_expansion``: exact at every cell read."""
    coeffs, slot = _genfunc_expansion(d, reads)
    cell = (1 << slot) - 1

    def coeff(n: int, a: int, b: int) -> int:
        return (coeffs[n].get(a + b, 0) >> (b * slot)) & cell

    return coeff


def _genfunc_expansion(d: int, reads: Reads) -> Tuple[List[Dict[int, int]], int]:
    """prod_{k+l<=d} (1 - t p^k q^l)^{-1} up to t^order, clipped to
    ``reads.box()`` and floored on a + b, and the slot width.

    Entry j maps each total degree D = a + b of the t^j coefficient to
    one int holding the coefficient of p^(D-b) q^b in slot b.  The
    variables are folded in one at a time by the recurrence
    S'[j] = S[j] + p^k q^l S'[j-1], by factor degree step = k + l from d
    down to 0, and p^(step-l) q^l for l = 0..step within a step;
    multiplying by p^k q^l moves piece D to D + step and shifts it left by
    l slots.  Each new piece is masked to the box (``_box_masks``) and
    kept only if D >= ``reads.floors(step)[j]``, one floors per step:
    S'[j-1] already holds the variable being folded, and every later one
    has k + l no larger.  So the floors rise as the fold goes on, and the
    last variable, p^0 q^0, leaves the expansion exact at
    D >= ``reads.floors(0)[j]``, which holds every cell read; a piece
    below that may hold part of its coefficient.  Both cuts are exact
    because every exponent is >= 0: a + b never falls along the
    recurrence, and a term dropped for the box never comes back.  Every
    slot is part of a count of monomials of degree <= order, so the slot
    is the bit length of ``monomial_count(d, order)`` (the slot rule,
    ``weights`` module docstring).  Every sum is made here, up front,
    before ``genfunc_reader`` returns; its reader is one slot read.
    """
    order = reads.order
    slot = weights.monomial_count(d, order).bit_length()
    masks = _box_masks(reads.box(), slot)
    top = len(masks) - 1
    coeffs: List[Dict[int, int]] = [{0: 1}] + [{} for _ in range(order)]
    for step in range(d, -1, -1):
        lows = reads.floors(step)
        for l in range(step + 1):
            shift = l * slot
            for j in range(1, order + 1):
                cur, low = coeffs[j], lows[j]
                get = cur.get
                for deg, x in coeffs[j - 1].items():
                    deg += step
                    if low <= deg <= top:
                        cur[deg] = get(deg, 0) + ((x << shift) & masks[deg])
    return coeffs, slot


def pqbinom_reader(d: int, reads: Reads) -> Reader:
    """G_d ... G_0 multiplied in two halves, each clipped to
    ``reads.box()`` and floored on a + b, held as graded packed ints
    (``_pq_half``).  The split is at half = ceil(2d/3) + 1, which is at
    most d + 1: lo is G_{half-1} down to G_0, and hi is G_d down to
    G_half (none when half = d + 1), whose pieces are the ones that reach
    the operator's floor along its slope.  Each half is folded from its
    largest factor down and starts from that factor's own series, and
    each is floored against the other half's factors, which will still
    multiply it.  G_0, last in lo, is multiplied in as a running sum over
    the powers of t, so the t^n coefficient of the product is the paper's
    sum over i_1 + ... + i_d <= n of [1 i_1] ... [d i_d].  A coefficient
    of their product, never formed, is slot b of a sum of piece products:

        coeff(n, a, b) = slot b of  sum_i sum_D1 lo[i][D1] * hi[n-i][a+b-D1].

    That sum holds, in every slot, part of a coefficient of the full
    series, so no slot carries into the next one (the slot rule,
    ``weights`` module docstring).  The five cells the operator reads at
    degree n have only three distinct a + b (one at n = 0), and one
    ``_convolve`` per read degree sums all of them, up front, before the
    reader returns; the reader is one slot read of those sums and raises
    KeyError for any (n, a + b) not read.  The floors make the reader
    exact only at a + b >= ``reads.floors(0)[n]``, which holds every
    cell read.
    """
    order, box = reads.order, reads.box()
    slot = weights.monomial_count(d, order).bit_length()
    cell = (1 << slot) - 1
    masks = _box_masks(box, slot)
    rows = pq_binomial_table(d, order, masks, slot)
    half = -(-2 * d // 3) + 1
    los, his = range(half - 1, -1, -1), range(d, half - 1, -1)
    lo, hi = _pq_half(rows, los, his, reads, masks), _pq_half(rows, his, los, reads, masks)
    sums = {
        n: _convolve(lo, hi, n, sorted({a + b for (_, a, b), _ in cells}))
        for n, cells in reads.cells.items()
    }

    def coeff(n: int, a: int, b: int) -> int:
        return (sums[n][a + b] >> (b * slot)) & cell

    return coeff


def _convolve(
    lo: List[Dict[int, int]], hi: List[Dict[int, int]], n: int, degs: Sequence[int]
) -> Dict[int, int]:
    """deg -> sum_i sum_D1 lo[i][D1] * hi[n-i][deg-D1] for each deg in
    ``degs``: the packed t^n pieces of those total degrees of the product
    of two graded packed series.  Each split i scans the smaller of
    lo[i] and hi[n-i] once and looks its partner up at every deg, so
    each product is the same pair of pieces whichever side is scanned."""
    sums = dict.fromkeys(degs, 0)
    for i in range(n + 1):
        scan, other = lo[i], hi[n - i]
        if len(scan) > len(other):
            scan, other = other, scan
        get = other.get
        for d1, x in scan.items():
            for deg in degs:
                y = get(deg - d1)
                if y:
                    sums[deg] += x * y
    return sums


def _pq_half(
    rows: List[List[int]], ms: Sequence[int], later: Sequence[int], reads: Reads, masks: List[int]
) -> List[Dict[int, int]]:
    """prod_{m in ms} G_m up to t^order, clipped to the box of ``masks``
    (``_box_masks``) and floored on a + b, as graded packed ints: entry j
    maps each total degree D = a + b of the t^j coefficient to one int
    holding the coefficient of p^(D-b) q^b in slot b.

    The t^k coefficient of G_m is pq_binomial(m, k), homogeneous of
    degree m*k with coefficients >= 0, so it is one piece, rows[m][k] of
    ``pq_binomial_table`` (already clipped; the row ends where m*k leaves
    the box).  The factors are multiplied in the order of ``ms``, and
    ``later`` holds the m of the factors that multiply the half later
    (the other half's).  Once G_m is in, a piece of t^j is kept only at
    D >= lows[j] = ``reads.floors(rest)[j]``, where rest is the largest m
    still to come, in ``ms`` after it or in ``later``, or 0 if none is.

    A half with no factor is the series 1.  Otherwise it starts from its
    first factor's own series, with no product made: its t^k piece is
    the table's own int rows[m][k] at D = m*k, where the floor keeps it.
    Each later G_m with m >= 1 is multiplied in whole, one int multiply
    per pair of pieces.  Every piece of G_0 = sum_k t^k is 1 at D = 0, so
    its product is the running sum over j: piece D of t^j is piece D of
    t^(j-1) plus the incoming piece D of t^j, kept at D >= lows[j].  The
    floors never fall as j grows and D does not move, so a piece dropped
    once never returns and no mask is needed.  That sum is G_0's
    whole-series product, each t^j the sum of prod[j-k] * [0 k] over k,
    spelled out for a series whose every coefficient is 1.  No G_m is
    ever folded in one factor (1 - t p^k q^l)^{-1} at a time: that is
    genfunc's recurrence, and the routes stay independent.

    Every exponent is >= 0, so masking each product to the box and
    dropping it below the floor are exact: a dropped term never comes
    back, and a + b never falls.  Every slot of a product, masked or
    not, is part of a count of monomials of degree <= order (the slot
    rule, ``weights`` module docstring).
    """
    top = len(masks) - 1
    prod: List[Dict[int, int]] = [{0: 1}] + [{} for _ in range(reads.order)]
    for i, m in enumerate(ms):
        row = rows[m]
        lows = reads.floors(max([*ms[i + 1:], *later, 0]))
        if not i:
            # the seed: G_m's own pieces
            prod = [
                {m * j: row[j]} if j < len(row) and m * j >= low else {}
                for j, low in enumerate(lows)
            ]
            continue
        nxt: List[Dict[int, int]] = []
        acc: Dict[int, int] = {}
        for j, low in enumerate(lows):
            if m:
                acc = {}
                get = acc.get
                for k in range(min(j, len(row) - 1) + 1):
                    g, dk = row[k], m * k
                    for deg, x in prod[j - k].items():
                        deg += dk
                        if low <= deg <= top:
                            acc[deg] = get(deg, 0) + g * x
                nxt.append({deg: v & masks[deg] for deg, v in acc.items()})
            else:
                # G_0: the running sum, carried from t^(j-1)
                acc = {deg: x for deg, x in acc.items() if deg >= low}
                get = acc.get
                for deg, x in prod[j].items():
                    if deg >= low:
                        acc[deg] = get(deg, 0) + x
                nxt.append(acc)
        prod = nxt
    return prod


# ---------------------------------------------------------------------------
# route tables

# Each form's methods, its default first, mapped to what ``_run`` calls:
# a reader route's builder, (d, order) -> coeff for binary forms and
# (d, reads) -> coeff for ternary forms, or peel's point count, the
# oracle that ``forminv verify`` runs degree by degree.
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

# Each form's table, k and operator, read at w = d*n/k, as exponents ->
# coefficient: 1 - q at q^w for binary forms, k = 2; OPERATOR_TERMS at
# (pq)^w for ternary forms, k = 3.
_FORMS: Dict[str, Tuple[Dict[str, Callable[..., object]], int, Terms]] = {
    "binary": (BINARY_METHODS, 2, {(0,): 1, (1,): -1}),
    "ternary": (TERNARY_METHODS, 3, OPERATOR_TERMS),
}
