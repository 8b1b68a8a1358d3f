import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forminv.poly import (
    ExactDivisionError,
    LaurentPoly,
    OrderTooSmallError,
    TruncatedSeries,
    expand_inverse_product,
    series_mul,
)

def lp(terms):
    return LaurentPoly(terms)


ONE = lp({(0, 0): 1})
P_MINUS_Q = lp({(1, 0): 1, (0, 1): -1})
P_PLUS_Q = lp({(1, 0): 1, (0, 1): 1})


def plus(x, y):
    """x + y, on terms dicts: LaurentPoly itself has no sum."""
    out = dict(x.terms)
    for k, v in y.terms.items():
        out[k] = out.get(k, 0) + v
    return LaurentPoly(out)


exponents = st.integers(min_value=-4, max_value=4)
coefficients = st.integers(min_value=-9, max_value=9)
polys = st.dictionaries(
    st.tuples(exponents, exponents), coefficients, max_size=6
).map(LaurentPoly)
nonzero = coefficients.filter(bool)
# mostly negative exponents, never the zero polynomial
laurent_polys = st.dictionaries(
    st.tuples(st.integers(-7, 2), st.integers(-7, 2)), nonzero, min_size=1, max_size=8
).map(LaurentPoly)


class TestMul:
    def test_difference_of_squares(self):
        assert (P_MINUS_Q * P_PLUS_Q).terms == {(2, 0): 1, (0, 2): -1}

    def test_telescoping(self):
        # (p^2 + pq + q^2)(p - q) = p^3 - q^3, the step behind the
        # two-variable binomial division
        lhs = lp({(2, 0): 1, (1, 1): 1, (0, 2): 1}) * P_MINUS_Q
        assert lhs.terms == {(3, 0): 1, (0, 3): -1}

    def test_zero_annihilates(self):
        assert (lp({(5, -3): 7}) * lp({})).terms == {}


class TestRingLaws:
    @given(polys, polys)
    def test_mul_commutes(self, x, y):
        assert (x * y).terms == (y * x).terms

    @given(polys, polys, polys)
    @settings(max_examples=50)
    def test_mul_associates(self, x, y, z):
        assert ((x * y) * z).terms == (x * (y * z)).terms

    @given(polys, polys, polys)
    @settings(max_examples=50)
    def test_distributes(self, x, y, z):
        assert (x * plus(y, z)).terms == plus(x * y, x * z).terms

    @given(polys, polys)
    @settings(max_examples=50)
    def test_product_coeff_is_convolution(self, x, y):
        prod = x * y
        keys = set()
        for (a, b) in x.terms:
            for (u, v) in y.terms:
                keys.add((a + u, b + v))
        for (a, b) in keys:
            expect = sum(
                c * y.terms.get((a - u, b - v), 0)
                for (u, v), c in x.terms.items()
            )
            assert prod.terms.get((a, b), 0) == expect


class TestDivexact:
    def test_exact(self):
        num = lp({(3, 0): 1, (0, 3): -1})
        assert num.divexact(P_MINUS_Q).terms == {(2, 0): 1, (1, 1): 1, (0, 2): 1}

    def test_inexact_raises(self):
        with pytest.raises(ExactDivisionError):
            P_PLUS_Q.divexact(P_MINUS_Q)

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ONE.divexact(lp({}))

    @given(polys, polys)
    @settings(max_examples=50)
    def test_roundtrip(self, x, y):
        if not y.terms:
            return
        assert (x * y).divexact(y).terms == x.terms

    @given(laurent_polys, laurent_polys, st.tuples(exponents, exponents), nonzero)
    @settings(max_examples=100)
    def test_roundtrip_negative_exponents(self, x, y, mono, c):
        assert (x * y).divexact(y).terms == x.terms
        if len(y.terms) > 1:
            # a monomial is a unit, so only a monomial y divides x*y + c*mono
            with pytest.raises(ExactDivisionError):
                plus(x * y, lp({mono: c})).divexact(y)


def series_one(order):
    return TruncatedSeries([ONE], order=order)


def series_terms(series):
    """A series as its list of terms dicts, one per power of t."""
    return [p.terms for p in series.coeffs]


class TestSeries:
    def test_truncated_product(self):
        one_plus_t = TruncatedSeries([ONE, ONE], order=2)
        one_minus_t = TruncatedSeries([ONE, lp({(0, 0): -1})], order=2)
        prod = series_mul(one_plus_t, one_minus_t, 2)
        assert series_terms(prod) == [{(0, 0): 1}, {}, {(0, 0): -1}]

    def test_identity(self):
        x = TruncatedSeries(
            [lp({(1, 0): 1}), lp({(0, 1): 1}), lp({(1, 1): 1})], order=2
        )
        prod = series_mul(x, series_one(2), 2)
        assert prod.order == 2
        assert series_terms(prod) == series_terms(x)

    def test_order_too_small(self):
        with pytest.raises(OrderTooSmallError):
            series_mul(series_one(1), series_one(5), 3)

    def test_negative_order(self):
        with pytest.raises(ValueError, match="order must be nonnegative"):
            TruncatedSeries([ONE], order=-1)

    def test_truncation_consistency(self):
        x = expand_inverse_product([(1, 0), (0, 1), (1, 1)], 6)
        y = expand_inverse_product([(0, 0), (2, 1)], 6)
        full = series_mul(x, y, 6)
        for j in range(7):
            partial = series_mul(x, y, j)
            assert partial.coeffs[j].terms == full.coeffs[j].terms


class TestExpandInverseProduct:
    def test_geometric(self):
        s = expand_inverse_product([(0, 0)], 3)
        assert series_terms(s) == [{(0, 0): 1}] * 4

    def test_first_order(self):
        s = expand_inverse_product([(0, 0), (1, 0), (0, 1)], 1)
        assert series_terms(s) == [{(0, 0): 1}, {(0, 0): 1, (1, 0): 1, (0, 1): 1}]

    def test_degree_one_second_order(self):
        s = expand_inverse_product([(0, 0), (1, 0), (0, 1)], 2)
        assert s.coeffs[2].terms[(1, 1)] == 1

    def test_constant_term_is_one(self):
        for factors in ([(0, 0)], [(2, 3), (1, 1)], []):
            assert expand_inverse_product(factors, 4).coeffs[0].terms == {(0, 0): 1}

    def test_negative_exponent_expands(self):
        s = expand_inverse_product([(-1, 2)], 2)
        assert s.coeffs[2].terms == {(-2, 4): 1}

    def test_negative_order(self):
        with pytest.raises(ValueError, match="order must be nonnegative"):
            expand_inverse_product([(1, 0)], -1)

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            min_size=0,
            max_size=4,
        ),
        st.integers(0, 5),
    )
    @settings(max_examples=40)
    def test_times_finite_product_is_one(self, factors, order):
        inv = expand_inverse_product(factors, order)
        finite = series_one(order)
        for (k, l) in factors:
            f = TruncatedSeries([ONE, lp({(k, l): -1})], order=order)
            finite = series_mul(finite, f, order)
        prod = series_mul(inv, finite, order)
        assert series_terms(prod) == [{(0, 0): 1}] + [{}] * order
