"""Exact sparse bivariate Laurent polynomials and truncated power series:
the kernel of the test oracles.

A :class:`LaurentPoly` is a finite map from exponent pairs ``(a, b)`` --
the powers of the formal variables ``p`` and ``q`` -- to nonzero Python
integers, in ``terms``.  Exponents may be negative.  It has the product
and the exact quotient, nothing else; the tests compare ``terms`` dicts.
A :class:`TruncatedSeries` is a polynomial in a third formal variable
``t`` kept only up to a fixed order, with LaurentPoly coefficients in
``coeffs``.

Every operation returns a new object and leaves its operands unchanged.
Nothing enforces this (``LaurentPoly.terms`` is a plain dict), and no
concurrent use has been tested.

The routes in ``counts`` work on packed ints and use nothing here, and
the package root exports none of it: import it from ``forminv.poly``.
The tests check the routes against ``series_mul``,
``expand_inverse_product`` and the binomials of ``qbinom`` built on
``LaurentPoly``.  ``perfbench/tracer.py`` binds ``series_mul``,
``expand_inverse_product``, ``LaurentPoly.__mul__`` and
``LaurentPoly.divexact``, which is why they live in the package and not
in ``tests/``.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Dict, Iterable, List, Mapping, Tuple

Exponents = Tuple[int, int]


class ExactDivisionError(ArithmeticError):
    """Raised when a division that must be exact leaves a remainder."""


class OrderTooSmallError(ValueError):
    """Raised when a series operand has lower order than requested."""


class LaurentPoly:
    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Exponents, int] | None = None):
        # canonical form: zero coefficients are never stored
        self.terms: Dict[Exponents, int] = {
            k: v for k, v in (terms or {}).items() if v
        }

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        acc: Dict[Exponents, int] = {}
        get = acc.get
        for (a, b), c in self.terms.items():
            for (x, y), e in other.terms.items():
                k = (a + x, b + y)
                acc[k] = get(k, 0) + c * e
        return LaurentPoly(acc)

    def divexact(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Exact division; raises ExactDivisionError on any remainder.

        Plain multivariate division in lex order.  Leading terms come from
        a heap of negated keys: every key a step adds is lex-below the
        current lead, and a key whose term cancelled is skipped when it
        surfaces.  The iteration guard turns a non-terminating inexact
        division (possible because Laurent exponents are unbounded below)
        into an error.
        """
        if not divisor.terms:
            raise ZeroDivisionError("division by the zero polynomial")
        dlead = max(divisor.terms)
        dcoeff = divisor.terms[dlead]
        rem = dict(self.terms)
        heap = [(-a, -b) for a, b in rem]
        heapify(heap)
        quot: Dict[Exponents, int] = {}
        guard = _division_guard(self, divisor)
        while rem:
            na, nb = heappop(heap)
            lead = (-na, -nb)
            c = rem.get(lead)
            if c is None:
                continue
            if c % dcoeff:
                raise ExactDivisionError(
                    f"leading coefficient {c} not divisible by {dcoeff}"
                )
            k = c // dcoeff
            mono = (lead[0] - dlead[0], lead[1] - dlead[1])
            quot[mono] = quot.get(mono, 0) + k
            for (da, db), dv in divisor.terms.items():
                key = (mono[0] + da, mono[1] + db)
                old = rem.get(key)
                if old is None:
                    rem[key] = -k * dv
                    heappush(heap, (-key[0], -key[1]))
                elif old == k * dv:
                    del rem[key]
                else:
                    rem[key] = old - k * dv
            guard -= 1
            if guard < 0:
                raise ExactDivisionError("division does not terminate: inexact")
        return LaurentPoly(quot)


def _division_guard(num: LaurentPoly, den: LaurentPoly) -> int:
    keys = list(num.terms) + list(den.terms)
    span_a = max(k[0] for k in keys) - min(k[0] for k in keys) + 1
    span_b = max(k[1] for k in keys) - min(k[1] for k in keys) + 1
    return 4 * span_a * span_b + 16


class TruncatedSeries:
    """Power series in t, truncated at a fixed order."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Iterable[LaurentPoly], order: int):
        cs = list(coeffs)
        if order < 0:
            raise ValueError("order must be nonnegative")
        while len(cs) < order + 1:
            cs.append(LaurentPoly())
        self.order = order
        self.coeffs = cs[: order + 1]


def series_mul(x: TruncatedSeries, y: TruncatedSeries, order: int) -> TruncatedSeries:
    """Cauchy product truncated at t^order."""
    if x.order < order or y.order < order:
        raise OrderTooSmallError(
            f"operand orders ({x.order}, {y.order}) below requested {order}"
        )
    out = []
    for j in range(order + 1):
        acc: Dict[Exponents, int] = {}
        get = acc.get
        for i in range(j + 1):
            yt = y.coeffs[j - i].terms
            for (a, b), c in x.coeffs[i].terms.items():
                for (u, v), e in yt.items():
                    k = (a + u, b + v)
                    acc[k] = get(k, 0) + c * e
        out.append(LaurentPoly(acc))
    return TruncatedSeries(out, order=order)


def expand_inverse_product(factors: Iterable[Exponents], order: int) -> TruncatedSeries:
    """Expand the inverse of prod over (k, l) of (1 - t p^k q^l).

    Each factor contributes a geometric series; they are folded in one
    at a time with the recurrence  S'[j] = S[j] + p^k q^l * S'[j-1],
    which keeps the work proportional to the support size.  A negative
    order raises ValueError, from ``TruncatedSeries``.
    """
    coeffs: List[Dict[Exponents, int]] = [{(0, 0): 1}] + [{} for _ in range(order)]
    for (k, l) in factors:
        for j in range(1, order + 1):
            cur = coeffs[j]
            get = cur.get
            for (a, b), c in coeffs[j - 1].items():
                key = (a + k, b + l)
                cur[key] = get(key, 0) + c
    return TruncatedSeries([LaurentPoly(c) for c in coeffs], order=order)
