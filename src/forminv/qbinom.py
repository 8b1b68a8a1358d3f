"""Gaussian (q-) and two-variable (pq-) binomial coefficients.

Both are computed from their defining products by exact polynomial
division, dividing as we multiply so intermediates stay small.  Each
division is asserted exact; a remainder aborts the computation.
"""

from __future__ import annotations

from typing import List

from .poly import LaurentPoly


def gaussian_binomial(d: int, n: int) -> LaurentPoly:
    """(1-q^{d+1})...(1-q^{d+n}) / ((1-q)...(1-q^n)), a polynomial in q.

    Counts partitions fitting in a d x n box; degree d*n, nonnegative
    coefficients.
    """
    if d < 0 or n < 0:
        raise ValueError("arguments must be nonnegative")
    result = LaurentPoly.one()
    for i in range(1, n + 1):
        result = result * _one_minus_q(d + i)
        result = result.divexact(_one_minus_q(i))
    return result


def pq_binomial(d: int, k: int) -> LaurentPoly:
    """prod_{i=1..k} (p^{d+i}-q^{d+i}) / (p^i-q^i).

    Homogeneous of total degree d*k; symmetric in p and q.
    """
    if d < 0 or k < 0:
        raise ValueError("arguments must be nonnegative")
    result = LaurentPoly.one()
    for i in range(1, k + 1):
        result = result * _p_minus_q(d + i)
        result = result.divexact(_p_minus_q(i))
    return result


def pq_binomial_row(m: int, order: int) -> List[LaurentPoly]:
    """[pq_binomial(m, 0), ..., pq_binomial(m, order)], each entry grown
    from the one before by one multiply and one exact division:

        pq_binomial(m, j) = pq_binomial(m, j-1) * (p^{m+j}-q^{m+j}) / (p^j-q^j).
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    row = [pq_binomial(m, 0)]
    for j in range(1, order + 1):
        row.append((row[-1] * _p_minus_q(m + j)).divexact(_p_minus_q(j)))
    return row


def _one_minus_q(i: int) -> LaurentPoly:
    return LaurentPoly({(0, 0): 1, (0, i): -1})


def _p_minus_q(i: int) -> LaurentPoly:
    return LaurentPoly({(i, 0): 1, (0, i): -1})
