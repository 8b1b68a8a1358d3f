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

P = LaurentPoly.monomial(1, 0)
Q = LaurentPoly.monomial(0, 1)
ONE = LaurentPoly.one()


def lp(terms):
    return LaurentPoly(terms)


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


class TestAdd:
    def test_additive_inverse(self):
        pq = lp({(1, 1): 1})
        assert (pq + lp({(1, 1): -1})).is_zero()

    def test_like_term_merge(self):
        assert lp({(0, 0): 1, (0, 1): 1}) + Q == lp({(0, 0): 1, (0, 1): 2})

    def test_disjoint_supports(self):
        s = lp({(-1, 2): 1}) + lp({(1, 1): 1})
        assert s.terms == {(-1, 2): 1, (1, 1): 1}


class TestMul:
    def test_difference_of_squares(self):
        assert (P - Q) * (P + Q) == lp({(2, 0): 1, (0, 2): -1})

    def test_telescoping(self):
        # (p^2 + pq + q^2)(p - q) = p^3 - q^3, the step behind the
        # two-variable binomial division
        lhs = lp({(2, 0): 1, (1, 1): 1, (0, 2): 1}) * (P - Q)
        assert lhs == lp({(3, 0): 1, (0, 3): -1})

    def test_zero_annihilates(self):
        assert (lp({(5, -3): 7}) * LaurentPoly.zero()).is_zero()


class TestCoeff:
    # the coefficient-extraction operator 1 + pq + q^2/p - 2q - q^2
    OPERATOR = lp({(0, 0): 1, (1, 1): 1, (-1, 2): 1, (0, 1): -2, (0, 2): -1})

    def test_operator_pq_coefficient(self):
        assert self.OPERATOR.coeff(1, 1) == 1

    def test_operator_q_coefficient(self):
        assert self.OPERATOR.coeff(0, 1) == -2

    def test_absent_coefficient_is_zero(self):
        assert LaurentPoly.zero().coeff(5, 5) == 0


class TestRingLaws:
    @given(polys, polys)
    def test_add_commutes(self, x, y):
        assert x + y == y + x

    @given(polys, polys)
    def test_mul_commutes(self, x, y):
        assert x * y == y * x

    @given(polys, polys, polys)
    @settings(max_examples=50)
    def test_mul_associates(self, x, y, z):
        assert (x * y) * z == x * (y * z)

    @given(polys, polys, polys)
    @settings(max_examples=50)
    def test_distributes(self, x, y, z):
        assert x * (y + z) == x * y + x * z

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
            assert prod.coeff(a, b) == expect


class TestDivexact:
    def test_exact(self):
        num = lp({(3, 0): 1, (0, 3): -1})
        assert num.divexact(P - Q) == lp({(2, 0): 1, (1, 1): 1, (0, 2): 1})

    def test_inexact_raises(self):
        with pytest.raises(ExactDivisionError):
            (P + Q).divexact(P - Q)

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ONE.divexact(LaurentPoly.zero())

    @given(polys, polys)
    @settings(max_examples=50)
    def test_roundtrip(self, x, y):
        if y.is_zero():
            return
        assert (x * y).divexact(y) == x

    @given(laurent_polys, laurent_polys, st.tuples(exponents, exponents), nonzero)
    @settings(max_examples=100)
    def test_roundtrip_negative_exponents(self, x, y, mono, c):
        assert (x * y).divexact(y) == x
        if len(y.terms) > 1:
            # a monomial is a unit, so only a monomial y divides x*y + c*mono
            with pytest.raises(ExactDivisionError):
                (x * y + LaurentPoly.monomial(*mono, c)).divexact(y)


class TestSubstitute:
    def test_p_to_one(self):
        poly = lp({(2, 1): 3, (0, 1): 1})
        assert poly.substitute(p=1) == lp({(0, 1): 4})

    def test_negative_exponent_unit_base(self):
        assert lp({(-1, 2): 5}).substitute(p=1) == lp({(0, 2): 5})

    def test_negative_exponent_nonunit_base(self):
        with pytest.raises(ValueError):
            lp({(-1, 0): 1}).substitute(p=2)


class TestSeries:
    def test_truncated_product(self):
        one_plus_t = TruncatedSeries([ONE, ONE], order=2)
        one_minus_t = TruncatedSeries([ONE, -ONE], order=2)
        prod = series_mul(one_plus_t, one_minus_t, 2)
        assert prod.coeff(0) == ONE
        assert prod.coeff(1).is_zero()
        assert prod.coeff(2) == -ONE

    def test_identity(self):
        x = TruncatedSeries([P, Q, P * Q], order=2)
        assert series_mul(x, TruncatedSeries.one(2), 2) == x

    def test_order_too_small(self):
        short = TruncatedSeries.one(1)
        with pytest.raises(OrderTooSmallError):
            series_mul(short, TruncatedSeries.one(5), 3)

    def test_coeff_out_of_range(self):
        with pytest.raises(IndexError):
            TruncatedSeries.one(2).coeff(3)

    def test_truncation_consistency(self):
        x = expand_inverse_product([(1, 0), (0, 1), (1, 1)], 6)
        y = expand_inverse_product([(0, 0), (2, 1)], 6)
        full = series_mul(x, y, 6)
        for j in range(7):
            partial = series_mul(x, y, j)
            assert partial.coeff(j) == full.coeff(j)


class TestExpandInverseProduct:
    def test_geometric(self):
        s = expand_inverse_product([(0, 0)], 3)
        assert s.coeffs == [ONE, ONE, ONE, ONE]

    def test_first_order(self):
        s = expand_inverse_product([(0, 0), (1, 0), (0, 1)], 1)
        assert s.coeff(0) == ONE
        assert s.coeff(1) == lp({(0, 0): 1, (1, 0): 1, (0, 1): 1})

    def test_degree_one_second_order(self):
        s = expand_inverse_product([(0, 0), (1, 0), (0, 1)], 2)
        assert s.coeff(2).coeff(1, 1) == 1

    def test_constant_term_is_one(self):
        for factors in ([(0, 0)], [(2, 3), (1, 1)], []):
            assert expand_inverse_product(factors, 4).coeff(0) == ONE

    def test_negative_exponent_expands(self):
        s = expand_inverse_product([(-1, 2)], 2)
        assert s.coeff(2) == lp({(-2, 4): 1})

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
        finite = TruncatedSeries.one(order)
        for (k, l) in factors:
            f = TruncatedSeries(
                [ONE, -LaurentPoly.monomial(k, l)], order=order
            )
            finite = series_mul(finite, f, order)
        prod = series_mul(inv, finite, order)
        assert prod.coeff(0) == ONE
        for j in range(1, order + 1):
            assert prod.coeff(j).is_zero()
