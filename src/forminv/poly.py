"""Exact sparse bivariate Laurent polynomials and truncated power series.

A :class:`LaurentPoly` is a finite map from exponent pairs ``(a, b)`` --
the powers of the formal variables ``p`` and ``q`` -- to nonzero Python
integers.  Exponents may be negative.  A :class:`TruncatedSeries` is a
polynomial in a third formal variable ``t`` kept only up to a fixed
order, with LaurentPoly coefficients.

Every operation returns a new object and leaves its operands unchanged.
Nothing enforces this (``LaurentPoly.terms`` is a plain dict), and no
concurrent use has been tested.

The routes in ``counts`` work on packed ints and use nothing here.  This
is the exact, unclipped arithmetic that the tests check them against.
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

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({(0, 0): 1})

    @classmethod
    def monomial(cls, a: int, b: int, coeff: int = 1) -> "LaurentPoly":
        return cls({(a, b): coeff})

    def coeff(self, a: int, b: int) -> int:
        return self.terms.get((a, b), 0)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self.terms == other.terms
        if isinstance(other, int):
            return self.terms == ({(0, 0): other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __neg__(self) -> "LaurentPoly":
        out = LaurentPoly()
        out.terms = {k: -v for k, v in self.terms.items()}
        return out

    def __add__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly({(0, 0): other})
        out = dict(self.terms)
        for k, v in other.terms.items():
            s = out.get(k, 0) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        res = LaurentPoly()
        res.terms = out
        return res

    __radd__ = __add__

    def __sub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly({(0, 0): other})
        return self + (-other)

    def __rsub__(self, other: int) -> "LaurentPoly":
        return LaurentPoly({(0, 0): other}) + (-self)

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly()
            out = LaurentPoly()
            out.terms = {k: other * v for k, v in self.terms.items()}
            return out
        acc: Dict[Exponents, int] = {}
        get = acc.get
        for (a, b), c in self.terms.items():
            for (x, y), e in other.terms.items():
                k = (a + x, b + y)
                acc[k] = get(k, 0) + c * e
        return LaurentPoly(acc)

    __rmul__ = __mul__

    def substitute(self, p: int | None = None, q: int | None = None) -> "LaurentPoly":
        """Substitute integer values for p and/or q.

        A negative exponent is only legal when the substituted base is
        1 or -1 (the only integers with integer reciprocals).
        """
        acc: Dict[Exponents, int] = {}
        for (a, b), c in self.terms.items():
            if p is not None:
                c *= _int_pow(p, a)
                a = 0
            if q is not None:
                c *= _int_pow(q, b)
                b = 0
            acc[(a, b)] = acc.get((a, b), 0) + c
        return LaurentPoly(acc)

    def constant(self) -> int:
        """The value of a constant polynomial, as an int."""
        extra = [k for k in self.terms if k != (0, 0)]
        if extra:
            raise ValueError(f"not a constant polynomial: {self!r}")
        return self.terms.get((0, 0), 0)

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

    def __repr__(self) -> str:
        if not self.terms:
            return "LaurentPoly(0)"
        bits = []
        for (a, b), c in sorted(self.terms.items()):
            mono = "".join(
                f"{v}^{e}" for v, e in (("p", a), ("q", b)) if e
            )
            bits.append(f"{c}{'*' + mono if mono else ''}")
        return f"LaurentPoly({' + '.join(bits)})"


def _int_pow(base: int, exp: int) -> int:
    if exp >= 0:
        return base ** exp
    if base == 1:
        return 1
    if base == -1:
        return -1 if exp % 2 else 1
    raise ValueError(f"negative exponent {exp} with non-unit base {base}")


def _division_guard(num: LaurentPoly, den: LaurentPoly) -> int:
    keys = list(num.terms) + list(den.terms)
    span_a = max(k[0] for k in keys) - min(k[0] for k in keys) + 1
    span_b = max(k[1] for k in keys) - min(k[1] for k in keys) + 1
    return 4 * span_a * span_b + 16


class TruncatedSeries:
    """Power series in t, truncated at a fixed order."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Iterable[LaurentPoly], order: int | None = None):
        cs = list(coeffs)
        if order is None:
            order = len(cs) - 1
        if order < 0:
            raise ValueError("order must be nonnegative")
        while len(cs) < order + 1:
            cs.append(LaurentPoly.zero())
        self.order = order
        self.coeffs = cs[: order + 1]

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls([LaurentPoly.one()], order=order)

    def coeff(self, j: int) -> LaurentPoly:
        if j < 0 or j > self.order:
            raise IndexError(f"coefficient {j} outside order {self.order}")
        return self.coeffs[j]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"TruncatedSeries(order={self.order}, coeffs={self.coeffs!r})"


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
    which keeps the work proportional to the support size.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    coeffs: List[Dict[Exponents, int]] = [{(0, 0): 1}] + [{} for _ in range(order)]
    for (k, l) in factors:
        for j in range(1, order + 1):
            cur = coeffs[j]
            get = cur.get
            for (a, b), c in coeffs[j - 1].items():
                key = (a + k, b + l)
                cur[key] = get(key, 0) + c
    return TruncatedSeries([LaurentPoly(c) for c in coeffs], order=order)
