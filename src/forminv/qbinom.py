"""Gaussian (q-) and two-variable (pq-) binomial coefficients.

``gaussian_binomial_low`` and ``pq_binomial_table`` are the ones the
routes use.  They build q-binomials (the low parts of a row of them,
read by the binary qbinom route) and a table of pq-binomials (clipped to
a box of exponents) as packed ints by the q-Pascal recurrence: one
shift, one add and one mask per entry, no polynomial product and no
division.

``gaussian_binomial`` and ``pq_binomial`` are their test oracles,
computed from the defining products by exact polynomial division
(``poly.LaurentPoly``), dividing as we multiply so intermediates stay
small.  Each division is asserted exact; a remainder aborts the
computation.  No route calls them and the package root does not export
them: they stay here only because ``perfbench/tracer.py`` binds them.
"""

from __future__ import annotations

from math import comb
from typing import Callable, List, Tuple

from .poly import LaurentPoly
from .weights import _check_dn


def gaussian_binomial(d: int, n: int) -> LaurentPoly:
    """(1-q^{d+1})...(1-q^{d+n}) / ((1-q)...(1-q^n)), a polynomial in q.

    Counts partitions fitting in a d x n box; degree d*n, nonnegative
    coefficients.  Raises ValueError unless d and n are nonnegative ints.
    """
    _check_dn(d, n)
    result = LaurentPoly({(0, 0): 1})
    for i in range(1, n + 1):
        result = result * _one_minus_q(d + i)
        result = result.divexact(_one_minus_q(i))
    return result


def gaussian_binomial_low(d: int, order: int) -> Callable[[int, int], int]:
    """coeff(k, e): the coefficient of q^e in gaussian_binomial(d, k) for
    every k <= order and e <= d*order//2, and 0 for e < 0.

    Built by the q-Pascal identity for Q(m, k) = gaussian_binomial(m, k),

        Q(m, k) = Q(m, k-1) + q^k Q(m-1, k),

    over one row k = 0..order, each entry packed as one int with the
    coefficient of q^e in slot e, updated in place for m = 1..d from
    Q(0, k) = Q(m, 0) = 1: row[k] = (row[k-1] + (row[k] << k*slot)) & mask,
    the mask keeping slots 0..d*order//2.  Every coefficient is at most
    comb(d + order, order), so slots of its bit length never carry.
    Every exponent is >= 0 and only grows along the recurrence, so
    truncating each entry as it is built is exact.  Raises ValueError
    unless d and order are nonnegative ints.
    """
    _check_dn(d, order)
    slot = comb(d + order, order).bit_length()
    mask = (1 << ((d * order // 2 + 1) * slot)) - 1
    row = [1] * (order + 1)
    for _ in range(d):
        for k in range(1, order + 1):
            row[k] = (row[k - 1] + (row[k] << (k * slot))) & mask
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


def pq_binomial_table(
    mmax: int, order: int, box: Tuple[int, int], slot: int
) -> List[List[int]]:
    """Row m, for m = 0..mmax, holds pq_binomial(m, k) clipped to the box
    p^a q^b, a <= A, b <= B, for every k <= order with m*k <= A + B (the
    entries of higher degree lie wholly outside the box).

    Entry (m, k) is homogeneous of degree D = m*k, packed as one int with
    the coefficient of p^(D-b) q^b in slot b (``slot`` bits at offset
    b*slot).  The rows are built by the q-Pascal identity

        pq_binomial(m, k) = p^m pq_binomial(m, k-1) + q^k pq_binomial(m-1, k),

    which in this layout is P[m][k] = P[m][k-1] + (P[m-1][k] << k*slot),
    from P[0][k] = P[m][0] = 1.  Every coefficient is at most
    comb(m + k, k), so a slot that holds comb(mmax + order, order) never
    carries, else ValueError.  Every exponent is >= 0 and only grows
    along the recurrence, so masking each entry to the box as it is
    built is exact: a dropped term never comes back.  Raises ValueError
    unless every argument is a nonnegative int.
    """
    _check_dn(mmax, order, *box, slot)
    if min(box) < 0 or slot < 0:
        raise ValueError("box and slot must be nonnegative")
    if comb(mmax + order, order) >> slot:
        raise ValueError(f"{slot}-bit slots cannot hold comb({mmax + order}, {order})")
    masks = _box_masks(box, slot)
    top = len(masks) - 1
    table = [[1] * (order + 1)]
    for m in range(1, mmax + 1):
        prev = table[-1]
        row = [1]
        for k in range(1, min(order, top // m) + 1):
            row.append((row[-1] + (prev[k] << (k * slot))) & masks[m * k])
        table.append(row)
    return table


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


def _one_minus_q(i: int) -> LaurentPoly:
    return LaurentPoly({(0, 0): 1, (0, i): -1})


def _p_minus_q(i: int) -> LaurentPoly:
    return LaurentPoly({(i, 0): 1, (0, i): -1})
