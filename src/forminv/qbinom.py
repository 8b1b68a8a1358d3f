"""Gaussian (q-) and two-variable (pq-) binomial coefficients.

``gaussian_binomial_low`` and ``pq_binomial_table`` are the ones the
routes use.  ``pq_binomial_table`` builds a table of pq-binomials,
clipped to a box of exponents, as packed ints by the q-Pascal
recurrence: one shift, one add and one mask per entry, no polynomial
product and no division.  ``gaussian_binomial_low`` reads its row d at
p = 1, the low parts of a row of q-binomials, for the binary qbinom
route.

``gaussian_binomial`` and ``pq_binomial`` are their test oracles.
``pq_binomial`` is computed from the defining product by exact
polynomial division (``poly.LaurentPoly``), dividing as we multiply so
intermediates stay small.  Each division is asserted exact; a remainder
aborts the computation.  ``gaussian_binomial`` is ``pq_binomial`` at
p = 1, the Gaussian binomial of the Sylvester-Cayley formula that the
pq-binomial generalises.  No route calls them and the package root does
not export them: they stay here only because ``perfbench/tracer.py``
binds them.
"""

from __future__ import annotations

from math import comb
from typing import Callable, Iterator, List, Tuple

from .poly import LaurentPoly
from .weights import _check_dn


def gaussian_binomial(d: int, n: int) -> LaurentPoly:
    """(1-q^{d+1})...(1-q^{d+n}) / ((1-q)...(1-q^n)), a polynomial in q.

    Counts partitions fitting in a d x n box; degree d*n, nonnegative
    coefficients.  This is ``pq_binomial(d, n)`` at p = 1: that is
    homogeneous of degree d*n, so each power of q is exactly one of its
    terms.  Raises ValueError unless d and n are nonnegative ints.
    """
    return LaurentPoly({(0, b): c for (_, b), c in pq_binomial(d, n).terms.items()})


def gaussian_binomial_low(d: int, order: int) -> Callable[[int, int], int]:
    """coeff(k, e): the coefficient of q^e in gaussian_binomial(d, k) for
    every k <= order and e <= d*order//2, and 0 for e < 0.

    Row d of ``pq_binomial_table`` at p = 1, where the slot e of an
    entry, the coefficient of p^(D-e) q^e, is that of q^e.  The build
    holds one row, updated in place up to row d.  Every degree takes the
    one mask of slots 0..d*order//2, and the masks run to degree
    d*order, so every row holds k = 0..order.  Every coefficient
    is at most comb(d + order, order), so the slot is its bit length
    (the slot rule, ``weights`` module docstring).  Raises ValueError
    unless d and order are nonnegative ints.
    """
    _check_dn(d, order)
    slot = comb(d + order, order).bit_length()
    mask = (1 << ((d * order // 2 + 1) * slot)) - 1
    for row in _pq_binomial_rows(d, order, [mask] * (d * order + 1), slot):
        pass
    cell = (1 << slot) - 1

    def coeff(k: int, e: int) -> int:
        return (row[k] >> (e * slot)) & cell if e >= 0 else 0

    return coeff


def pq_binomial(d: int, k: int) -> LaurentPoly:
    """prod_{i=1..k} (p^{d+i}-q^{d+i}) / (p^i-q^i).

    Homogeneous of total degree d*k; symmetric in p and q.  Raises
    ValueError unless d and k are nonnegative ints.
    """
    _check_dn(d, k)
    result = LaurentPoly({(0, 0): 1})
    for i in range(1, k + 1):
        result = result * _p_minus_q(d + i)
        result = result.divexact(_p_minus_q(i))
    return result


def pq_binomial_table(mmax: int, order: int, masks: List[int], slot: int) -> List[List[int]]:
    """Row m, for m = 0..mmax, holds pq_binomial(m, k), masked, for
    k = 0..order.  Entry (m, k) is homogeneous of degree D = m*k;
    ``masks[D]`` is applied to every entry of degree D, and a row ends
    where m*k passes len(masks) - 1.  The ternary pqbinom route passes
    ``_box_masks(box, slot)``, which clips each entry to the box p^a q^b,
    a <= A, b <= B (an entry of degree above A + B lies wholly outside
    it); ``gaussian_binomial_low`` passes one mask for every degree.

    Entry (m, k) is packed as one int with the coefficient of
    p^(D-b) q^b in slot b (``slot`` bits at offset b*slot).  The rows are
    built by the q-Pascal identity

        pq_binomial(m, k) = p^m pq_binomial(m, k-1) + q^k pq_binomial(m-1, k),

    which in this layout is P[m][k] = P[m][k-1] + (P[m-1][k] << k*slot),
    from P[0][k] = P[m][0] = 1: one row is cut and updated in place for
    k = 1, 2, ... (``_pq_binomial_rows``), and the table keeps a copy of
    each.  Every coefficient is at most comb(m + k, k), so a slot that
    holds comb(mmax + order, order) never carries, else ValueError.  Every exponent is >= 0 and only grows
    along the recurrence, so masking each entry as it is built is exact:
    a dropped term never comes back.  Raises ValueError unless mmax,
    order and slot are nonnegative ints.
    """
    return [row[:] for row in _pq_binomial_rows(mmax, order, masks, slot)]


def _pq_binomial_rows(mmax: int, order: int, masks: List[int], slot: int) -> Iterator[List[int]]:
    """The rows of ``pq_binomial_table``, as one list updated in place
    and yielded as each row is done: a caller copies the rows it keeps."""
    _check_dn(mmax, order, slot)
    if slot < 0 or comb(mmax + order, order) >> slot:
        raise ValueError(f"{slot}-bit slots cannot hold comb({mmax + order}, {order})")
    top = len(masks) - 1
    row = [1] * (order + 1)
    yield row
    for m in range(1, mmax + 1):
        del row[top // m + 1 :]
        for k in range(1, len(row)):
            row[k] = (row[k - 1] + (row[k] << (k * slot))) & masks[m * k]
        yield row


def _box_masks(box: Tuple[int, int], slot: int) -> List[int]:
    """For each total degree D <= A + B, the mask of the slots b of a
    packed degree-D polynomial (coefficient of p^(D-b) q^b in slot b)
    whose monomial lies in the box a <= A, b <= B:
    max(0, D - A) <= b <= min(B, D)."""
    amax, bmax = box
    masks = []
    for deg in range(amax + bmax + 1):
        first = max(0, deg - amax)
        width = min(bmax, deg) - first + 1
        masks.append(((1 << (width * slot)) - 1) << (first * slot))
    return masks


def _p_minus_q(i: int) -> LaurentPoly:
    return LaurentPoly({(i, 0): 1, (0, i): -1})
