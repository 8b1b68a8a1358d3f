from itertools import combinations_with_replacement
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forminv import counts, sl3, weights
from forminv.counts import (
    BINARY_METHODS,
    OPERATOR_TERMS,
    TERNARY_METHODS,
    WorkLimitExceeded,
    count,
    gamma_binary,
    gamma_binary_full,
    gamma_binary_qbinom,
    nu_ternary_counting,
    nu_ternary_genfunc,
    nu_ternary_peel,
    nu_ternary_pqbinom,
    peel_work_estimate,
    poincare_series,
    resolve_method,
)
from forminv.poly import (
    LaurentPoly,
    TruncatedSeries,
    expand_inverse_product,
    series_mul,
)
from forminv.qbinom import _box_masks, pq_binomial, pq_binomial_table
from forminv.sl3 import FIVE_POINT, decompose, e_lambda
from forminv.weights import (
    _count_layers,
    c_ternary,
    monomial_count,
    num_variables,
    solution_count_grid,
    variables,
    weight_table,
)


def brute_gamma_binary(d, n):
    """Zero-weight minus weight-2 monomial counts, by full enumeration."""
    weights = {}
    for combo in combinations_with_replacement(range(d + 1), n):
        w = d * n - 2 * sum(combo)
        weights[w] = weights.get(w, 0) + 1
    return weights.get(0, 0) - weights.get(2, 0)


class TestGammaBinary:
    def test_degree_zero(self):
        for d in range(1, 6):
            assert gamma_binary(d, 0) == 1
            assert gamma_binary_qbinom(d, 0) == 1

    def test_quadratic_discriminant(self):
        assert gamma_binary(2, 2) == 1
        assert gamma_binary_qbinom(2, 2) == 1

    def test_cubic_has_no_quadratic_invariant(self):
        assert gamma_binary(3, 2) == 0

    def test_quartic_cubic_invariant(self):
        assert gamma_binary_qbinom(4, 3) == 1
        assert gamma_binary(4, 3) == 1

    def test_linear_form(self):
        for n in range(1, 8):
            assert gamma_binary_qbinom(1, n) == 0
            assert gamma_binary(1, n) == 0

    def test_odd_weight_vanishes(self):
        assert gamma_binary(3, 3) == 0
        assert gamma_binary_qbinom(3, 3) == 0

    @pytest.mark.parametrize("d", range(1, 5))
    @pytest.mark.parametrize("n", range(5))
    def test_against_enumeration(self, d, n):
        expect = brute_gamma_binary(d, n)
        assert gamma_binary(d, n) == expect
        assert gamma_binary_qbinom(d, n) == expect

    def test_methods_agree(self):
        for d in range(13):
            for n in range(31):
                assert gamma_binary(d, n) == gamma_binary_qbinom(d, n), (d, n)

    @given(st.integers(0, 12), st.integers(0, 12))
    @settings(max_examples=60, deadline=None)
    def test_hermite_reciprocity(self, d, n):
        # degree-n invariants of the binary d-ic match degree-d of the n-ic
        assert gamma_binary(d, n) == gamma_binary(n, d)
        assert gamma_binary_qbinom(d, n) == gamma_binary_qbinom(n, d)


class TestGammaBinaryFull:
    def test_first_power(self):
        for d in range(1, 6):
            for k in range(d * 1 + 1):
                assert gamma_binary_full(d, 1, k) == (1 if k == d else 0)

    def test_dimension_bookkeeping(self):
        total = sum(
            gamma_binary_full(2, 2, k) * (k + 1) for k in range(5)
        )
        assert total == comb(4, 2)

    def test_consistent_with_gamma(self):
        for d in range(1, 6):
            for n in range(7):
                assert gamma_binary_full(d, n, 0) == gamma_binary(d, n)

    def test_dimension_bookkeeping_sweep(self):
        for d in range(1, 9):
            for n in range(21):
                total = sum(
                    gamma_binary_full(d, n, k) * (k + 1)
                    for k in range(d * n + 1)
                )
                assert total == comb(n + d, d)


class TestNuTernary:
    def test_counting_cubic(self):
        assert nu_ternary_counting(3, 4) == 1

    def test_counting_congruence(self):
        assert nu_ternary_counting(4, 4) == 0

    def test_counting_septic(self):
        assert nu_ternary_counting(7, 12) == 421

    def test_genfunc(self):
        assert nu_ternary_genfunc(3, 6) == 1
        assert nu_ternary_genfunc(5, 12) == 19
        for d in (1, 2, 4):
            assert nu_ternary_genfunc(d, 0) == 1

    def test_pqbinom(self):
        assert nu_ternary_pqbinom(4, 3) == 1
        assert nu_ternary_pqbinom(6, 3) == 1
        assert nu_ternary_pqbinom(7, 6) == 3

    def test_peel(self):
        assert nu_ternary_peel(3, 4) == 1
        assert nu_ternary_peel(4, 6) == 2

    def test_peel_linear_form(self):
        # S^n of the 3-variable coefficient space is irreducible, so a
        # linear ternary form has no invariants past degree 0
        for n in range(7):
            expect = 1 if n == 0 else 0
            assert nu_ternary_peel(1, n) == expect
            assert nu_ternary_counting(1, n) == expect

    def test_divisibility_vanishing(self):
        for d in range(1, 6):
            for n in range(9):
                if (d * n) % 3:
                    assert nu_ternary_counting(d, n) == 0
                    assert nu_ternary_genfunc(d, n) == 0
                    assert nu_ternary_pqbinom(d, n) == 0

    def test_divisibility_vanishing_builds_no_reader(self, monkeypatch):
        def unbuildable(d, order):
            raise AssertionError(f"reader built at d={d}, order={order}")

        for table in (BINARY_METHODS, TERNARY_METHODS):
            for method in table:
                if method != "peel":
                    monkeypatch.setitem(table, method, unbuildable)
        for point in (nu_ternary_counting, nu_ternary_genfunc, nu_ternary_pqbinom):
            assert point(7, 20) == 0
        for point in (gamma_binary, gamma_binary_qbinom):
            assert point(7, 19) == 0

    def test_nonnegative(self):
        for d in range(1, 6):
            for n in range(10):
                assert nu_ternary_counting(d, n) >= 0

    def test_methods_agree_small(self):
        for d in range(1, 5):
            for n in range(10):
                a = nu_ternary_counting(d, n)
                assert nu_ternary_genfunc(d, n) == a
                assert nu_ternary_pqbinom(d, n) == a
                assert nu_ternary_peel(d, n) == a

    def test_functional_reproduces_peel(self):
        # summing gamma(lambda) * E(lambda) over the decomposition
        # recovers the trivial multiplicity
        for d in range(1, 4):
            for n in range(9):
                parts = decompose(weight_table(d, n))
                total = sum(g * e_lambda(hw) for hw, g in parts.items())
                assert total == parts.get((0, 0), 0)
                assert total == nu_ternary_counting(d, n)

    def test_peel_work_estimate_bounds_measured_work(self, monkeypatch):
        # measured work: the weight table's DP cells plus the decompose
        # sweep's, one visit per nonzero dominant weight and one per ray a
        # peeled highest weight starts.  The estimate must bound it and
        # stay within twice it.  The sweep's totals per d are pinned, so a
        # change in how many weights it visits or how many rays it starts
        # shows here.
        starts = 0
        real = sl3._rays

        def counted(hw):
            nonlocal starts
            rays = real(hw)
            starts += len(rays)
            return rays

        monkeypatch.setattr(sl3, "_rays", counted)
        totals = {}
        for d in range(1, 5):
            totals[d] = 0
            for n in range(11):
                starts = 0
                nu_ternary_peel(d, n)
                visits = sum(
                    1 for (i, j), m in weight_table(d, n).items() if m and i >= 0 and j >= 0
                )
                work = num_variables(d) * (n + 1) * (d * n + 1) ** 2 + visits + starts
                assert work <= peel_work_estimate(d, n) <= 2 * work, (d, n, visits, starts)
                totals[d] += visits + starts
        assert totals == {1: 97, 2: 367, 3: 1164, 4: 2141}

    def test_work_limit(self):
        with pytest.raises(WorkLimitExceeded):
            nu_ternary_peel(4, 10, work_limit=10)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            nu_ternary_counting(-1, 3)
        with pytest.raises(ValueError):
            gamma_binary(2, -1)

    @pytest.mark.parametrize("bad", [True, 3.0, -2])
    def test_rejects_bool_float_and_negative(self, bad):
        for fn in (
            gamma_binary,
            gamma_binary_qbinom,
            nu_ternary_counting,
            nu_ternary_genfunc,
            nu_ternary_pqbinom,
            nu_ternary_peel,
            peel_work_estimate,
        ):
            with pytest.raises(ValueError):
                fn(bad, 3)
            with pytest.raises(ValueError):
                fn(3, bad)
        with pytest.raises(ValueError):
            poincare_series("ternary", bad, 3)
        with pytest.raises(ValueError):
            poincare_series("binary", 3, bad)
        if bad != -2:  # a negative k is a zero multiplicity
            with pytest.raises(ValueError):
                gamma_binary_full(3, 4, bad)

    @pytest.mark.parametrize("bad", [True, 2.5, "10", None, 0, -5])
    def test_rejects_a_work_limit_that_is_not_an_int(self, bad):
        # the rule d and n follow: peel would compare its estimate with a
        # float, and the other routes would ignore any value at all.  An
        # int below 1 is refused too, as by the CLI's --work-limit: a
        # reader route would ignore it and peel would call it exceeded.
        message = "work_limit must be >= 1" if type(bad) is int else "expected an int"
        for call in (
            lambda: count("ternary", 3, 4, "peel", work_limit=bad),
            lambda: count("ternary", 3, 4, work_limit=bad),
            lambda: count("binary", 2, 2, work_limit=bad),
            lambda: poincare_series("ternary", 3, 4, work_limit=bad),
            lambda: poincare_series("ternary", 3, 4, "peel", work_limit=bad),
            lambda: nu_ternary_peel(3, 4, work_limit=bad),
        ):
            with pytest.raises(ValueError, match=message):
                call()


class TestPoincareSeries:
    def test_binary_linear(self):
        rows = poincare_series("binary", 1, 10)
        assert rows == [(0, 1)] + [(n, 0) for n in range(1, 11)]

    def test_binary_constant(self):
        rows = poincare_series("binary", 0, 3)
        assert rows == [(0, 1), (1, 1), (2, 1), (3, 1)]

    @pytest.mark.parametrize("method", ["omega", "qbinom"])
    def test_binary_series_is_the_points(self, method):
        # one reader at order 60 against one reader per degree
        for d in range(13):
            rows = poincare_series("binary", d, 60, method=method)
            assert rows == [(n, count("binary", d, n, method)) for n in range(61)], d

    def test_omega_reader_needs_every_lower_layer(self, monkeypatch):
        # layer n alone counts the partitions into exactly n parts, not at
        # most n: the DP without alpha_0
        def layer_alone(d, order):
            slot = comb(order + d, d).bit_length() + 1
            mask = (1 << ((d * order // 2 + 1) * slot)) - 1
            shifts = [p * slot for p in range(1, d + 1)]
            layers = weights._packed_layers([(shifts, [mask] * (order + 1))], order)
            cell = (1 << slot) - 1
            return lambda n, w: (layers[n] >> (w * slot)) & cell if w >= 0 else 0

        def series(method):
            return [poincare_series("binary", d, 60, method=method) for d in range(13)]

        assert series("omega") == series("qbinom")
        monkeypatch.setitem(BINARY_METHODS, "omega", layer_alone)
        monkeypatch.setattr(weights, "omega_reader", layer_alone)
        assert series("omega") != series("qbinom")
        assert sum(gamma_binary_full(4, 3, k) * (k + 1) for k in range(13)) != comb(7, 4)

    def test_ternary_methods_match(self):
        for method in ("counting", "genfunc", "pqbinom", "peel"):
            rows = poincare_series("ternary", 3, 8, method=method)
            assert rows == [
                (0, 1), (1, 0), (2, 0), (3, 0),
                (4, 1), (5, 0), (6, 1), (7, 0), (8, 1),
            ]

    def test_skip_zeros(self):
        full = poincare_series("ternary", 3, 8)
        sparse = poincare_series("ternary", 3, 8, include_zeros=False)
        assert sparse == [(n, v) for n, v in full if v]

    def test_invalid_method(self):
        with pytest.raises(ValueError):
            poincare_series("binary", 2, 4, method="counting")
        with pytest.raises(ValueError):
            poincare_series("ternary", 2, 4, method="omega")

    def test_invalid_form(self):
        with pytest.raises(ValueError):
            poincare_series("quaternary", 2, 4)


class TestResolveMethod:
    def test_defaults(self):
        assert resolve_method("binary") == "omega"
        assert resolve_method("ternary") == "counting"
        for d, n in ((2, 2), (4, 6), (5, 18)):
            assert count("binary", d, n) == gamma_binary(d, n)
            assert count("ternary", d, n) == nu_ternary_counting(d, n)

    def test_default_is_the_first_key(self):
        assert resolve_method("binary") == next(iter(BINARY_METHODS))
        assert resolve_method("ternary") == next(iter(TERNARY_METHODS))

    def test_peel_gets_work_limit(self):
        assert count("ternary", 4, 9, "peel") == nu_ternary_counting(4, 9) == 4
        with pytest.raises(WorkLimitExceeded):
            count("ternary", 4, 10, "peel", work_limit=10)

    def test_mismatch(self):
        with pytest.raises(ValueError, match="invalid for binary forms"):
            count("binary", 2, 2, "genfunc")
        with pytest.raises(ValueError, match="invalid for ternary forms"):
            count("ternary", 2, 2, "omega")
        with pytest.raises(ValueError, match="unknown form"):
            count("quaternary", 2, 2)
        with pytest.raises(ValueError, match="invalid for binary forms"):
            resolve_method("binary", "genfunc")
        with pytest.raises(ValueError, match="unknown form"):
            resolve_method("quaternary")


EXTRACTION_ROUTES = pytest.mark.parametrize(
    "method", ["genfunc", "pqbinom"]
)
READER_ROUTES = pytest.mark.parametrize(
    "method", ["counting", "genfunc", "pqbinom"]
)


class TestClippedExpansions:
    """counting, genfunc and pqbinom build a grid or an expansion clipped
    to the operator box of the order it is built at; it must be exact at
    every degree up to that order, and a point (a reader built at its own
    degree) must agree with a series."""

    def test_cold_counting_points_match_five_counts(self):
        # the paper's formula, one c_ternary count per point of FIVE_POINT
        for d in range(8):
            for n in range(16):
                want = sum(
                    c * c_ternary(d, n, i, j) for (i, j), c in FIVE_POINT.items()
                )
                assert nu_ternary_counting(d, n) == want, (d, n)

    @READER_ROUTES
    def test_cold_points_match_counting(self, method):
        for d in range(1, 8):
            base = poincare_series("ternary", d, 18)
            for n, want in base:
                assert count("ternary", d, n, method) == want, (d, n)

    @READER_ROUTES
    def test_point_then_longer_series(self, method):
        for d, n in ((3, 6), (5, 12), (4, 9)):
            base = poincare_series("ternary", d, 21)
            assert count("ternary", d, n, method) == dict(base)[n]
            assert poincare_series("ternary", d, 21, method=method) == base
            # and a shorter series, from a reader built at its own order
            assert poincare_series("ternary", d, n, method=method) == base[: n + 1]

    @EXTRACTION_ROUTES
    @pytest.mark.parametrize("d, n_max", [(4, 60), (8, 18), (10, 21), (7, 42)])
    def test_series_beyond_the_acceptance_range(self, d, n_max, method):
        want = poincare_series("ternary", d, n_max)
        assert poincare_series("ternary", d, n_max, method=method) == want

    @pytest.mark.parametrize("order", [3, 8, 15])
    def test_genfunc_reader_is_counting_grid_at_operator_cells(self, order):
        # cell by cell: the operator's coefficients sum to 0, so an error
        # shared by all five cells would cancel in a series
        for d in range(8):
            coeff = counts.genfunc_reader(d, order)
            grid = solution_count_grid(d, order)
            for cell in operator_cells(d, order):
                assert coeff(*cell) == grid.cell(*cell), (d, cell)

    def test_genfunc_floor_is_tight(self, monkeypatch):
        assert floor_raised_differs(monkeypatch, "genfunc")

    def test_pqbinom_floor_is_tight(self, monkeypatch):
        assert floor_raised_differs(monkeypatch, "pqbinom")

    def test_floors_are_the_suffix_minimum(self):
        for d in range(9):
            for order in range(21):
                for rest in range(d + 1):
                    want = brute_floors(d, order, rest)
                    assert counts._floors(d, order, rest) == want, (d, order, rest)
        # past the operator's slope the weakest degree is the order, below
        # it the piece's own degree
        assert counts._floors(6, 9, 6)[3] == 4 * 9 - 2 - 6 * 6
        assert counts._floors(6, 9, 3)[3] == 4 * 3 - 2


def operator_cells(d, order):
    """Every cell (n, a, b) the operator reads for n <= order."""
    for n in range(order + 1):
        if d * n % 3 == 0:
            w = d * n // 3
            for a, b in OPERATOR_TERMS:
                yield (n, w - a, w - b)


def brute_floors(d, order, rest):
    """The least a + b of a piece of t^j that can reach a + b >= 2dn/3 - 2
    at some n <= order, by factors adding at most ``rest`` per power of t:
    the minimum over n taken directly."""
    return [
        min((2 * d * n) // 3 - 2 - rest * (n - j) for n in range(j, order + 1))
        for j in range(order + 1)
    ]


def floor_raised_differs(monkeypatch, method):
    """The degrees d <= 7 whose order-15 series by ``method`` differs from
    counting's once every floor is one higher: one more than the floor
    drops cells the operator reads, and the cross-check must see it."""
    floors = counts._floors

    def raised(d, order, rest):
        return [x + 1 for x in floors(d, order, rest)]

    monkeypatch.setattr(counts, "_floors", raised)
    return [
        d
        for d in range(1, 8)
        if poincare_series("ternary", d, 15, method=method)
        != poincare_series("ternary", d, 15)
    ]


def restrict(series, box):
    """The series with every term outside the box p^a q^b, a <= A, b <= B,
    dropped."""
    amax, bmax = box
    return TruncatedSeries(
        [
            LaurentPoly(
                {(a, b): c for (a, b), c in p.terms.items() if a <= amax and b <= bmax}
            )
            for p in series.coeffs
        ],
        order=series.order,
    )


def restrict_band(series, lows):
    """The series with every term p^a q^b of t^j below a + b >= lows[j]
    dropped."""
    return TruncatedSeries(
        [
            LaurentPoly(
                {(a, b): c for (a, b), c in p.terms.items() if a + b >= lows[j]}
            )
            for j, p in enumerate(series.coeffs)
        ],
        order=series.order,
    )


def series_terms(series):
    """A series as (j, a, b) -> coefficient, nonzero entries only."""
    return {
        (j, a, b): c
        for j, coeff in enumerate(series.coeffs)
        for (a, b), c in coeff.terms.items()
    }


def unpack_graded(series, slot):
    """Graded packed pieces (a pqbinom half, the genfunc expansion) as
    (j, a, b) -> coefficient, nonzero entries only."""
    cell = (1 << slot) - 1
    terms = {}
    for j, pieces in enumerate(series):
        for deg, packed in pieces.items():
            for b in range(deg + 1):
                c = (packed >> (b * slot)) & cell
                if c:
                    terms[(j, deg - b, b)] = c
            assert packed >> ((deg + 1) * slot) == 0
    return terms


class TestPackedPqbinom:
    """pqbinom's halves are graded packed ints built from the packed
    pq-binomial table; they must hold exactly the box-clipped dict product
    of the G_m rows pq_binomial(m, k)."""

    @given(st.integers(0, 7), st.integers(0, 10), st.data())
    @settings(max_examples=60, deadline=None)
    def test_half_is_clipped_series_product(self, d, order, data):
        first = data.draw(st.integers(0, d))
        last = data.draw(st.integers(first, d + 1))
        ms = list(range(first, last))
        if data.draw(st.booleans()):
            ms.reverse()
        after = data.draw(st.integers(0, d))
        box = counts._operator_box(d, order)
        slot = monomial_count(d, order).bit_length() + 1
        want = TruncatedSeries([LaurentPoly({(0, 0): 1})], order=order)
        for i, m in enumerate(ms):
            row = [pq_binomial(m, k) for k in range(order + 1)]
            gm = TruncatedSeries(row, order=order)
            # exact: every exponent is >= 0, so a dropped term never returns
            want = restrict(series_mul(gm, want, order), box)
            rest = max(ms[i + 1:] + [after])
            want = restrict_band(want, brute_floors(d, order, rest))
        rows = pq_binomial_table(d, order, box, slot)
        half = counts._pq_half(d, rows, ms, after, order, _box_masks(box, slot))
        assert unpack_graded(half, slot) == series_terms(want)

    @pytest.mark.parametrize("d, order", [(1, 9), (4, 10), (6, 7), (7, 10)])
    def test_reader_is_counting_grid_at_operator_cells(self, d, order):
        # cell by cell, against the plain-box grid: the halves are floored,
        # so the reader is exact only around the cells the operator reads
        coeff = counts.pqbinom_reader(d, order)
        amax, bmax = counts._operator_box(d, order)
        grid = _count_layers(d, order, amax, bmax)
        for cell in operator_cells(d, order):
            assert coeff(*cell) == grid.cell(*cell), (d, cell)
        assert coeff(order, -1, 0) == coeff(order, 0, -1) == 0

    def test_each_total_degree_is_convolved_once(self, monkeypatch):
        calls = []
        real = counts._convolve

        def counted(lo, hi, n, deg):
            calls.append((n, deg))
            return real(lo, hi, n, deg)

        monkeypatch.setattr(counts, "_convolve", counted)
        d, order = 7, 15
        poincare_series("ternary", d, order, method="pqbinom")
        read = {(n, a + b) for n, a, b in operator_cells(d, order) if min(a, b) >= 0}
        assert sorted(calls) == sorted(read)
        # three distinct a + b per degree, one at n = 0
        degrees = [n for n in range(1, order + 1) if d * n % 3 == 0]
        assert len(read) == 3 * len(degrees) + 1

    def test_convolution_is_per_total_degree(self, monkeypatch):
        # a reader that answered every (a, b) of a degree from the first
        # a + b read there must break some series
        real = counts._convolve
        first = {}

        def first_degree(lo, hi, n, deg):
            return real(lo, hi, n, first.setdefault(n, deg))

        monkeypatch.setattr(counts, "_convolve", first_degree)
        differ = []
        for d in range(1, 8):
            first.clear()
            if poincare_series("ternary", d, 15, method="pqbinom") != poincare_series(
                "ternary", d, 15
            ):
                differ.append(d)
        assert differ


def test_operator_terms_are_the_papers_operator():
    # 1 + pq + q^2/p - 2q - q^2
    assert OPERATOR_TERMS == {(0, 0): 1, (1, 1): 1, (-1, 2): 1, (0, 1): -2, (0, 2): -1}


class TestPackedGenfunc:
    """genfunc's expansion is graded packed ints; unpacked, it must be the
    dict expansion of the inverse product restricted to the operator box
    and to the a + b floor band, with no bit outside the box."""

    @pytest.mark.parametrize("d", range(8))
    def test_expansion_is_restricted_inverse_product(self, d):
        # folded in descending k + l, each variable floors its new pieces
        # by its own k + l, and the last, p^0 q^0, by 0: the expansion is
        # exact in the band of rest 0, and no piece lies below the band of
        # the first variable, rest d
        for order in range(13):
            pieces, slot = counts._genfunc_expansion(d, order)
            box = counts._operator_box(d, order)
            band = brute_floors(d, order, 0)
            full = expand_inverse_product(variables(d), order)
            want = restrict(restrict_band(full, band), box)
            got = unpack_graded(pieces, slot)
            in_band = {(j, a, b): c for (j, a, b), c in got.items() if a + b >= band[j]}
            assert in_band == series_terms(want), (d, order)
            first = brute_floors(d, order, d)
            assert all(a + b >= first[j] for j, a, b in got), (d, order)

    @pytest.mark.parametrize("d, order", [(1, 30), (4, 20), (7, 12), (10, 9)])
    def test_no_bit_outside_the_box(self, d, order):
        pieces, slot = counts._genfunc_expansion(d, order)
        masks = _box_masks(counts._operator_box(d, order), slot)
        for j, coeff in enumerate(pieces):
            for deg, packed in coeff.items():
                assert packed & ~masks[deg] == 0, (j, deg)
