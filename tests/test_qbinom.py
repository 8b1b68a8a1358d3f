import sys
import tracemalloc
from itertools import combinations_with_replacement
from math import comb

import pytest

from forminv.poly import expand_inverse_product
from forminv.qbinom import (
    _box_masks,
    gaussian_binomial,
    gaussian_binomial_low,
    pq_binomial,
    pq_binomial_table,
)


def qterms(coeffs):
    """The terms of a polynomial in q from {exponent: coefficient}."""
    return {(0, e): c for e, c in coeffs.items()}


def box_partitions(d, k):
    """{b: the number of partitions of b into at most k parts, each at
    most d}, by listing them: k parts from 0..d, in any order."""
    counts = {}
    for parts in combinations_with_replacement(range(d + 1), k):
        counts[sum(parts)] = counts.get(sum(parts), 0) + 1
    return counts


class TestGaussianBinomial:
    @pytest.mark.parametrize("d", [0, 1, 3, 7])
    def test_empty_product(self, d):
        assert gaussian_binomial(d, 0).terms == {(0, 0): 1}

    def test_1_2(self):
        assert gaussian_binomial(1, 2).terms == qterms({0: 1, 1: 1, 2: 1})

    def test_2_2(self):
        assert gaussian_binomial(2, 2).terms == qterms({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})

    def test_counts_partitions_in_box(self):
        # coefficient of q^w = partitions of w inside a d x n box
        from itertools import product

        for d, n in [(2, 3), (3, 2), (3, 3)]:
            poly = gaussian_binomial(d, n)
            counts = {}
            for parts in product(range(d + 1), repeat=n):
                if list(parts) == sorted(parts, reverse=True):
                    w = sum(parts)
                    counts[w] = counts.get(w, 0) + 1
            assert poly.terms == qterms(counts)

    def test_negative_arguments(self):
        with pytest.raises(ValueError):
            gaussian_binomial(-1, 2)


class TestPqBinomial:
    @pytest.mark.parametrize("d", [0, 1, 4])
    def test_empty_product(self, d):
        assert pq_binomial(d, 0).terms == {(0, 0): 1}

    def test_1_2(self):
        assert pq_binomial(1, 2).terms == {(2, 0): 1, (1, 1): 1, (0, 2): 1}

    def test_2_1(self):
        assert pq_binomial(2, 1).terms == {(2, 0): 1, (1, 1): 1, (0, 2): 1}

    @pytest.mark.parametrize("d", range(9))
    @pytest.mark.parametrize("k", range(9))
    def test_specializes_to_gaussian(self, d, k):
        # at p = 1 both are [d+k choose k]_q: the q^b coefficient (of
        # p^(dk-b) q^b in the pq-binomial) counts partitions of b in a
        # k x d box, listed here with no recurrence and no division
        counts = box_partitions(d, k)
        assert gaussian_binomial(d, k).terms == qterms(counts)
        want = {(d * k - b, b): c for b, c in counts.items()}
        assert pq_binomial(d, k).terms == want

    def test_specializes_to_binomial(self):
        # at p = q = 1: the coefficients sum to comb(d+k, k)
        for d in range(11):
            for k in range(11):
                assert sum(pq_binomial(d, k).terms.values()) == comb(d + k, k)
                assert sum(gaussian_binomial(d, k).terms.values()) == comb(d + k, k)

    @pytest.mark.parametrize("d", range(9))
    @pytest.mark.parametrize("k", range(9))
    def test_symmetric_in_p_q(self, d, k):
        terms = pq_binomial(d, k).terms
        assert {(b, a): c for (a, b), c in terms.items()} == terms

    def test_homogeneous(self):
        for d in range(7):
            for k in range(7):
                for (a, b) in pq_binomial(d, k).terms:
                    assert a >= 0 and b >= 0
                    assert a + b == d * k


def inverse_product_series(m, order):
    """The inverse product over k+l = m of (1 - t p^k q^l), whose t^j
    coefficient is pq_binomial(m, j)."""
    return expand_inverse_product([(k, m - k) for k in range(m + 1)], order)


class TestPqBinomialSeries:
    def test_m0(self):
        s = inverse_product_series(0, 3)
        assert [p.terms for p in s.coeffs] == [{(0, 0): 1}] * 4

    def test_m1_order2(self):
        assert inverse_product_series(1, 2).coeffs[2].terms == pq_binomial(1, 2).terms

    def test_m2_order1(self):
        assert inverse_product_series(2, 1).coeffs[1].terms == pq_binomial(2, 1).terms

    @pytest.mark.parametrize("m", range(7))
    def test_generates_pq_binomials(self, m):
        s = inverse_product_series(m, 8)
        for j in range(9):
            assert s.coeffs[j].terms == pq_binomial(m, j).terms


@pytest.fixture(scope="module")
def pq_oracle():
    """pq_binomial(m, k) for m <= 10, k <= 20, by the defining quotient."""
    return {(m, k): pq_binomial(m, k) for m in range(11) for k in range(21)}


def unpack(packed, deg, slot):
    """A packed homogeneous degree-deg polynomial as {(a, b): c}."""
    cell = (1 << slot) - 1
    terms = {}
    for b in range(deg + 1):
        c = (packed >> (b * slot)) & cell
        if c:
            terms[(deg - b, b)] = c
    assert packed >> ((deg + 1) * slot) == 0
    return terms


class TestPqBinomialRow:
    @pytest.mark.parametrize("m", range(8))
    def test_grown_row_is_pq_binomials(self, m):
        # a box holding every degree m*k <= 7*15, so no entry is clipped
        slot = comb(m + 15, 15).bit_length()
        row = pq_binomial_table(m, 15, _box_masks((105, 105), slot), slot)[m]
        assert len(row) == 16
        for j, entry in enumerate(row):
            assert unpack(entry, m * j, slot) == pq_binomial(m, j).terms


class TestPqBinomialTable:
    @pytest.mark.parametrize(
        "mmax, order", [(10, 20), (0, 20), (10, 0), (0, 0), (3, 7)]
    )
    # the operator box at d = 10, order 20; a box no entry leaves; small ones
    @pytest.mark.parametrize("box", [(67, 66), (300, 300), (5, 3), (2, 9), (0, 0)])
    def test_entries_are_clipped_pq_binomials(self, pq_oracle, mmax, order, box):
        # the narrowest slot the table accepts, so a carry would show
        slot = comb(mmax + order, order).bit_length()
        amax, bmax = box
        table = pq_binomial_table(mmax, order, _box_masks(box, slot), slot)
        assert len(table) == mmax + 1
        for m in range(mmax + 1):
            row = table[m]
            # the row ends where m*k leaves the box
            kmax = min(order, (amax + bmax) // m) if m else order
            assert len(row) == kmax + 1
            for k in range(order + 1):
                want = {
                    (a, b): c
                    for (a, b), c in pq_oracle[m, k].terms.items()
                    if a <= amax and b <= bmax
                }
                got = unpack(row[k], m * k, slot) if k <= kmax else {}
                assert got == want, (m, k)

    def test_short_slot_raises(self):
        slot = comb(10 + 20, 20).bit_length()
        with pytest.raises(ValueError):
            pq_binomial_table(10, 20, _box_masks((67, 66), slot - 1), slot - 1)

    @pytest.mark.parametrize("args", [(-1, 3, 8), (2, -1, 8), (2, 3, -1)])
    def test_negative_arguments(self, args):
        mmax, order, slot = args
        with pytest.raises(ValueError):
            pq_binomial_table(mmax, order, _box_masks((2, 2), 8), slot)


class TestGaussianBinomialLow:
    @pytest.mark.parametrize("d", [0, 1, 2, 5, 9])
    @pytest.mark.parametrize("n", [0, 1, 3, 8])
    def test_is_low_part_of_gaussian_binomial(self, d, n):
        # the reader at order n holds every row k <= n of the q-Pascal
        # recurrence, each up to q^(d*n//2)
        coeff = gaussian_binomial_low(d, n)
        # the narrowest slot that holds comb(d + n, n), so a carry would show
        closure = dict(zip(coeff.__code__.co_freevars, coeff.__closure__))
        assert closure["slot"].cell_contents == comb(d + n, n).bit_length()
        top = d * n // 2
        for k in range(n + 1):
            oracle = gaussian_binomial(d, k)
            got = [coeff(k, e) for e in range(-1, top + 2)]
            want = [oracle.terms.get((0, e), 0) for e in range(top + 1)]
            # nothing below q^0, and the mask clears every slot past top
            assert got == [0] + want + [0], k

    def test_build_holds_one_row(self):
        # the build updates one row in place up to row d, so its peak is
        # the row the reader keeps plus a few entries' temporaries; a build
        # that kept every row of the table would peak at about 5 rows here
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            coeff = gaussian_binomial_low(8, 200)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        closure = dict(zip(coeff.__code__.co_freevars, coeff.__closure__))
        row = closure["row"].cell_contents
        assert len(row) == 201
        assert peak < 2 * (sys.getsizeof(row) + sum(map(sys.getsizeof, row)))

    @pytest.mark.parametrize("args", [(-1, 3), (2, -1), (-1, -1)])
    def test_negative_arguments(self, args):
        with pytest.raises(ValueError):
            gaussian_binomial_low(*args)


class TestValidation:
    @pytest.mark.parametrize("bad", [True, 2.0, -1])
    def test_rejects_bad_arguments(self, bad):
        # a bool or a float is not an int: gaussian_binomial(2.0, 2) would
        # have float exponents
        for call in (
            lambda: gaussian_binomial(bad, 2),
            lambda: gaussian_binomial(2, bad),
            lambda: pq_binomial(bad, 2),
            lambda: pq_binomial(2, bad),
            lambda: gaussian_binomial_low(bad, 2),
            lambda: gaussian_binomial_low(2, bad),
            lambda: pq_binomial_table(bad, 2, _box_masks((2, 2), 8), 8),
            lambda: pq_binomial_table(2, bad, _box_masks((2, 2), 8), 8),
            lambda: pq_binomial_table(2, 2, _box_masks((2, 2), 8), bad),
        ):
            with pytest.raises(ValueError):
                call()
