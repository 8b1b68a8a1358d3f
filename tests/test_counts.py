from functools import lru_cache
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
    Reads,
    WorkLimitExceeded,
    count,
    gamma_binary,
    gamma_binary_full,
    gamma_binary_qbinom,
    nu_ternary_peel,
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


class _Int(int):
    """An int subclass: the package takes only an int itself for an int."""


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
        assert count("ternary", 3, 4, "counting") == 1

    def test_counting_congruence(self):
        assert count("ternary", 4, 4, "counting") == 0

    def test_counting_septic(self):
        assert count("ternary", 7, 12, "counting") == 421

    def test_genfunc(self):
        assert count("ternary", 3, 6, "genfunc") == 1
        assert count("ternary", 5, 12, "genfunc") == 19
        for d in (1, 2, 4):
            assert count("ternary", d, 0, "genfunc") == 1

    def test_pqbinom(self):
        assert count("ternary", 4, 3, "pqbinom") == 1
        assert count("ternary", 6, 3, "pqbinom") == 1
        assert count("ternary", 7, 6, "pqbinom") == 3
        for d in (1, 2, 4):
            assert count("ternary", d, 0, "pqbinom") == 1

    def test_peel(self):
        assert nu_ternary_peel(3, 4) == 1
        assert nu_ternary_peel(4, 6) == 2

    def test_peel_linear_form(self):
        # S^n of the 3-variable coefficient space is irreducible, so a
        # linear ternary form has no invariants past degree 0
        for n in range(7):
            expect = 1 if n == 0 else 0
            assert nu_ternary_peel(1, n) == expect
            assert count("ternary", 1, n, "counting") == expect

    def test_divisibility_vanishing(self):
        for d in range(1, 6):
            for n in range(9):
                if (d * n) % 3:
                    assert count("ternary", d, n, "counting") == 0
                    assert count("ternary", d, n, "genfunc") == 0
                    assert count("ternary", d, n, "pqbinom") == 0

    def test_divisibility_vanishing_builds_no_reader(self, monkeypatch):
        def unbuildable(d, order):
            raise AssertionError(f"reader built at d={d}, order={order}")

        for table in (BINARY_METHODS, TERNARY_METHODS):
            for method in table:
                if method != "peel":
                    monkeypatch.setitem(table, method, unbuildable)
        for method in ("counting", "genfunc", "pqbinom"):
            assert count("ternary", 7, 20, method) == 0
        for point in (gamma_binary, gamma_binary_qbinom):
            assert point(7, 19) == 0

    def test_nonnegative(self):
        for d in range(1, 6):
            for n in range(10):
                assert count("ternary", d, n, "counting") >= 0

    def test_methods_agree_small(self):
        for d in range(1, 5):
            for n in range(10):
                a = count("ternary", d, n, "counting")
                assert count("ternary", d, n, "genfunc") == a
                assert count("ternary", d, n, "pqbinom") == a
                assert nu_ternary_peel(d, n) == a

    def test_functional_reproduces_peel(self):
        # summing gamma(lambda) * E(lambda) over the decomposition
        # recovers the trivial multiplicity
        for d in range(1, 4):
            for n in range(9):
                parts = decompose(weight_table(d, n))
                total = sum(g * e_lambda(hw) for hw, g in parts.items())
                assert total == parts.get((0, 0), 0)
                assert total == count("ternary", d, n, "counting")

    def test_peel_work_estimate_bounds_measured_work(self, monkeypatch):
        # measured work: the DP cells of the weight table's dominant box,
        # w1 <= dn//2 and w2 <= dn//3, plus the decompose sweep's, one
        # visit per nonzero dominant weight and one per ray a peeled
        # highest weight starts.  The estimate must bound it and
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
                box = (d * n // 2 + 1) * (d * n // 3 + 1)
                work = num_variables(d) * (n + 1) * box + visits + starts
                assert work <= peel_work_estimate(d, n) <= 2 * work, (d, n, visits, starts)
                totals[d] += visits + starts
        assert totals == {1: 97, 2: 367, 3: 1164, 4: 2141}

    def test_work_limit(self):
        with pytest.raises(WorkLimitExceeded):
            nu_ternary_peel(4, 10, work_limit=10)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            count("ternary", -1, 3, "counting")
        with pytest.raises(ValueError):
            gamma_binary(2, -1)

    @pytest.mark.parametrize("bad", [True, 3.0, -2, pytest.param(_Int(3), id="int-subclass")])
    def test_rejects_bool_float_and_negative(self, bad):
        # a value that is not an int itself is named with its type, so an
        # int subclass does not read as valid input
        if type(bad) is int:
            message = "d and n must be nonnegative"
        else:
            message = f"expected an int, got {type(bad).__name__} {bad!r}"

        def rejects(fn, *args):
            with pytest.raises(ValueError) as info:
                fn(*args)
            assert str(info.value) == message

        for fn in (gamma_binary, gamma_binary_qbinom, nu_ternary_peel, peel_work_estimate):
            rejects(fn, bad, 3)
            rejects(fn, 3, bad)
        for method in ("counting", "genfunc", "pqbinom"):
            rejects(count, "ternary", bad, 3, method)
            rejects(count, "ternary", 3, bad, method)
        rejects(poincare_series, "ternary", bad, 3)
        rejects(poincare_series, "binary", 3, bad)
        if bad != -2:  # a negative k is a zero multiplicity
            rejects(gamma_binary_full, 3, 4, bad)

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
            slot = comb(order + d, d).bit_length()
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
            assert count("ternary", d, n) == count("ternary", d, n, "counting")

    def test_default_is_the_first_key(self):
        assert resolve_method("binary") == next(iter(BINARY_METHODS))
        assert resolve_method("ternary") == next(iter(TERNARY_METHODS))

    def test_peel_gets_work_limit(self):
        assert count("ternary", 4, 9, "peel") == count("ternary", 4, 9, "counting") == 4
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
                assert count("ternary", d, n, "counting") == want, (d, n)

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
            reads = ternary_reads(d, range(order + 1))
            coeff = counts.genfunc_reader(d, reads)
            grid = _count_layers(d, order, *reads.box())
            for cell in read_cells(reads):
                assert coeff(*cell) == grid.cell(*cell), (d, cell)

    def test_genfunc_floor_is_tight(self, monkeypatch):
        assert floor_raised_differs(monkeypatch, "genfunc")

    def test_pqbinom_floor_is_tight(self, monkeypatch):
        assert floor_raised_differs(monkeypatch, "pqbinom")

    def test_floors_are_the_suffix_minimum(self):
        for d in range(9):
            for order in range(21):
                for degrees in (range(order + 1), [order]):
                    reads = ternary_reads(d, degrees)
                    if not reads.cells:
                        continue
                    for rest in range(d + 1):
                        want = brute_floors(reads, rest)
                        assert reads.floors(rest) == want, (d, order, rest)
        # past the operator's slope the weakest degree is the order, below
        # it the piece's own degree
        reads = ternary_reads(6, range(10))
        assert reads.floors(6)[3] == 4 * 9 - 2 - 6 * 6
        assert reads.floors(3)[3] == 4 * 3 - 2
        # a point reads one degree, so every floor comes from it
        assert ternary_reads(6, [9]).floors(3)[3] == 4 * 9 - 2 - 3 * 6


def ternary_reads(d, degrees):
    """The ``Reads`` a ternary request at ``degrees`` works out."""
    return Reads(OPERATOR_TERMS, d, 3, degrees)


def read_cells(reads):
    """Every cell (n, a, b) of ``reads``."""
    return [cell for cells in reads.cells.values() for cell, _ in cells]


def brute_floors(reads, rest):
    """The least a + b of a piece of t^j that can reach a cell (n, a, b)
    read, by factors adding at most ``rest`` per power of t: the minimum
    over the cells read at n >= j, taken directly."""
    return [
        min(a + b - rest * (n - j) for n, a, b in read_cells(reads) if n >= j)
        for j in range(reads.order + 1)
    ]


def floor_raised_differs(monkeypatch, method):
    """The degrees d <= 7 whose order-15 series by ``method`` differs from
    counting's once every floor is one higher: one more than the floor
    drops cells the operator reads, and the cross-check must see it."""
    floors = Reads.floors
    monkeypatch.setattr(Reads, "floors", lambda reads, rest: [x + 1 for x in floors(reads, rest)])
    return [
        d
        for d in range(1, 8)
        if poincare_series("ternary", d, 15, method=method)
        != poincare_series("ternary", d, 15)
    ]


@lru_cache(maxsize=None)
def monomial_counts(d):
    """counts[n][a][b]: the degree-n monomials in the a_{r,s}, r + s <= d,
    with sum r = a and sum s = b, for n <= 15 and a, b <= 5d + 1 (every
    cell a ternary request of degree <= 15 reads), by a plain DP with one
    int per cell."""
    top = 5 * d + 1
    counts = [[[0] * (top + 1) for _ in range(top + 1)] for _ in range(16)]
    counts[0][0][0] = 1
    for r, s in variables(d):
        for n in range(1, 16):
            cur, prev = counts[n], counts[n - 1]
            for a in range(r, top + 1):
                row, prow = cur[a], prev[a - r]
                for b in range(s, top + 1):
                    row[b] += prow[b - s]
    return counts


def misread_cells(method):
    """Every (d, order, point, cell) at which the reader that ``method``
    builds from the Reads of a series to order, or of a point at order,
    d <= 7 and order <= 15, differs from ``monomial_counts`` or raises
    IndexError."""
    bad = []
    for d in range(8):
        counts = monomial_counts(d)
        for order in range(16):
            for degrees in (range(order + 1), [order]):
                reads = ternary_reads(d, degrees)
                if not reads.cells:
                    continue
                coeff = TERNARY_METHODS[method](d, reads)
                for n, a, b in read_cells(reads):
                    try:
                        right = coeff(n, a, b) == counts[n][a][b]
                    except IndexError:
                        right = False
                    if not right:
                        bad.append((d, order, len(degrees) == 1, (n, a, b)))
    return bad


class TestReads:
    """Every ternary reader is exact at every cell of the Reads it is
    built from, and each extent that the builders derive from it is
    tight: one step narrower, some cell read is wrong."""

    @READER_ROUTES
    def test_reader_is_exact_at_every_cell_read(self, method):
        assert misread_cells(method) == []

    @EXTRACTION_ROUTES
    def test_floor_one_higher_misreads(self, monkeypatch, method):
        floors = Reads.floors
        monkeypatch.setattr(Reads, "floors", lambda reads, rest: [x + 1 for x in floors(reads, rest)])
        assert misread_cells(method)

    def test_window_top_one_lower_misreads(self, monkeypatch):
        window = Reads.window

        def lowered(reads, d):
            lows, tops, w2cap = window(reads, d)
            return lows, [[t - 1 for t in top] for top in tops], w2cap

        monkeypatch.setattr(Reads, "window", lowered)
        assert misread_cells("counting")

    def test_window_floor_one_higher_misreads(self, monkeypatch):
        # a floor of 0 is the origin's row, so only the rows above it rise
        window = Reads.window

        def raised(reads, d):
            lows, tops, w2cap = window(reads, d)
            return [low + 1 if low else 0 for low in lows], tops, w2cap

        monkeypatch.setattr(Reads, "window", raised)
        assert misread_cells("counting")

    def test_cells_are_the_operator_at_each_degree(self):
        # (4, 10): 3 | 4n only at n = 0, 3, 6, 9; w = 4n/3, and at w = 0
        # and w = 1 the cells with a negative coordinate are left out
        reads = ternary_reads(4, range(11))
        assert list(reads.cells) == [0, 3, 6, 9] and reads.order == 9
        assert reads.cells[0] == (((0, 0, 0), 1),)
        assert sorted(reads.cells[9]) == sorted(
            ((9, 12 - a, 12 - b), c) for (a, b), c in OPERATOR_TERMS.items()
        )
        assert sorted(ternary_reads(3, [1]).cells[1]) == [
            ((1, 0, 0), 1), ((1, 1, 0), -2), ((1, 1, 1), 1)
        ]
        # every degree's cells ascend, and the box is the largest a and b
        for cells in reads.cells.values():
            assert list(cells) == sorted(cells)
        assert reads.box() == (13, 12)
        assert not ternary_reads(4, [10]).cells
        assert ternary_reads(4, [10]).order == -1
        # the binary operator, 1 - q at q^w, w = d*n/2
        binary = Reads({(0,): 1, (1,): -1}, 3, 2, range(5))
        assert binary.cells == {0: (((0, 0), 1),), 2: (((2, 2), -1), ((2, 3), 1)), 4: (((4, 5), -1), ((4, 6), 1))}

    @READER_ROUTES
    def test_a_count_reads_one_degree(self, monkeypatch, method):
        seen = []
        real = TERNARY_METHODS[method]

        def spy(d, reads):
            seen.append((list(reads.cells), reads.order))
            return real(d, reads)

        monkeypatch.setitem(TERNARY_METHODS, method, spy)
        assert count("ternary", 5, 12, method) == 19
        assert seen == [([12], 12)]

    @READER_ROUTES
    @pytest.mark.parametrize("d, n_max, last", [(4, 10, 9), (5, 31, 30)])
    def test_series_is_built_at_the_last_read_degree(self, monkeypatch, method, d, n_max, last):
        # 3 does not divide d*n_max: the reader is built at the last degree
        # it reads, and the series, zeros included, is counting's
        want = poincare_series("ternary", d, n_max)
        seen = []
        real = TERNARY_METHODS[method]

        def spy(d, reads):
            seen.append(reads.order)
            return real(d, reads)

        monkeypatch.setitem(TERNARY_METHODS, method, spy)
        assert poincare_series("ternary", d, n_max, method=method) == want
        assert seen == [last]
        assert len(want) == n_max + 1 and want[-1] == (n_max, 0)


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


@lru_cache(maxsize=None)
def pq_row(m, order):
    """The t^k coefficients pq_binomial(m, k), k = 0..order."""
    return [pq_binomial(m, k) for k in range(order + 1)]


def brute_half(reads, ms, later):
    """prod_{m in ms} G_m by dict series products, clipped to the box of
    ``reads`` and, once each G_m is in, floored by the largest factor
    still to come, in ``ms`` or in ``later``: as (j, a, b) ->
    coefficient, nonzero entries only."""
    order, box = reads.order, reads.box()
    want = TruncatedSeries([LaurentPoly({(0, 0): 1})], order=order)
    for i, m in enumerate(ms):
        gm = TruncatedSeries(pq_row(m, order), order=order)
        # exact: every exponent is >= 0, so a dropped term never returns
        want = restrict(series_mul(gm, want, order), box)
        want = restrict_band(want, brute_floors(reads, max([*ms[i + 1:], *later, 0])))
    return series_terms(want)


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

    @given(st.integers(0, 7), st.integers(0, 10), st.booleans(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_half_is_clipped_series_product(self, d, order, point, data):
        first = data.draw(st.integers(0, d))
        last = data.draw(st.integers(first, d + 1))
        ms = list(range(first, last))
        if data.draw(st.booleans()):
            ms.reverse()
        after = data.draw(st.integers(0, d))
        reads = ternary_reads(d, [order] if point else range(order + 1))
        if not reads.cells:
            return
        slot = monomial_count(d, reads.order).bit_length()
        masks = _box_masks(reads.box(), slot)
        rows = pq_binomial_table(d, reads.order, masks, slot)
        half = counts._pq_half(rows, ms, [after], reads, masks)
        assert unpack_graded(half, slot) == brute_half(reads, ms, [after])

    @pytest.mark.parametrize("d", range(1, 8))
    def test_reader_halves_are_clipped_series_products(self, monkeypatch, d):
        # the halves the reader builds at the crosscheck order: lo from
        # G_{half-1} down to G_0, hi from G_d down, each floored against
        # the other's factors
        reads = ternary_reads(d, range(16))
        built = []
        real = counts._pq_half

        def spy(rows, ms, later, reads, masks):
            half = real(rows, ms, later, reads, masks)
            built.append((list(ms), list(later), half))
            return half

        monkeypatch.setattr(counts, "_pq_half", spy)
        counts.pqbinom_reader(d, reads)
        half = -(-2 * d // 3) + 1
        los, his = list(range(half - 1, -1, -1)), list(range(d, half - 1, -1))
        assert [(ms, later) for ms, later, _ in built] == [(los, his), (his, los)]
        slot = monomial_count(d, reads.order).bit_length()
        for ms, later, got in built:
            assert unpack_graded(got, slot) == brute_half(reads, ms, later), (d, ms)

    def test_one_factor_half_holds_the_tables_ints(self):
        # a half starts from its first factor's own series: no product is
        # made, so each piece the floor keeps is the table's own int
        big = 0
        for d in range(1, 8):
            reads = ternary_reads(d, range(16))
            slot = monomial_count(d, reads.order).bit_length()
            masks = _box_masks(reads.box(), slot)
            rows = pq_binomial_table(d, reads.order, masks, slot)
            for m in range(d + 1):
                for later in ([], [d]):
                    half = counts._pq_half(rows, [m], later, reads, masks)
                    lows = reads.floors(max(later + [0]))
                    for k, piece in enumerate(half):
                        if k < len(rows[m]) and m * k >= lows[k]:
                            assert list(piece) == [m * k], (d, m, k)
                            assert piece[m * k] is rows[m][k], (d, m, k)
                            big += rows[m][k] > 256
                        else:
                            assert piece == {}, (d, m, k)
        # small ints are cached, so only big ones tell a copy from the int
        assert big > 100

    @pytest.mark.parametrize("d, order", [(1, 9), (4, 10), (6, 7), (7, 10)])
    def test_reader_is_counting_grid_at_operator_cells(self, d, order):
        # cell by cell, against the plain-box grid: the halves are floored,
        # so the reader is exact only around the cells the operator reads
        for degrees in (range(order + 1), [order]):
            reads = ternary_reads(d, degrees)
            if not reads.cells:
                continue
            coeff = counts.pqbinom_reader(d, reads)
            grid = _count_layers(d, order, *reads.box())
            for cell in read_cells(reads):
                assert coeff(*cell) == grid.cell(*cell), (d, cell)

    def test_each_total_degree_is_convolved_once(self, monkeypatch):
        calls = []
        real = counts._convolve

        def counted(lo, hi, n, degs):
            calls.append((n, tuple(degs)))
            return real(lo, hi, n, degs)

        monkeypatch.setattr(counts, "_convolve", counted)
        d, order = 7, 15
        poincare_series("ternary", d, order, method="pqbinom")
        read = {}
        for n, a, b in read_cells(ternary_reads(d, range(order + 1))):
            read.setdefault(n, set()).add(a + b)
        # one call per read degree, with each distinct a + b once
        assert sorted(n for n, _ in calls) == sorted(read)
        for n, degs in calls:
            assert sorted(degs) == sorted(read[n]), n
        # three distinct a + b per degree, one at n = 0
        assert sorted(map(len, read.values())) == [1] + [3] * (len(read) - 1)

    def test_convolve_is_the_sum_over_every_pair_of_pieces(self, monkeypatch):
        # against a plain double loop over every pair of pieces of the
        # real halves, at every read degree; the sizes hold splits where
        # hi[n - i] has fewer pieces and splits where lo[i] has
        real = counts._convolve
        sides = set()
        for d, order in [(3, 15), (5, 15), (7, 15), (4, 60)]:
            reads = ternary_reads(d, range(order + 1))
            halves = []
            monkeypatch.setattr(
                counts, "_convolve",
                lambda lo, hi, n, degs: halves.append((lo, hi)) or real(lo, hi, n, degs),
            )
            counts.pqbinom_reader(d, reads)
            lo, hi = halves[0]
            for n, cells in reads.cells.items():
                degs = {a + b for (_, a, b), _ in cells}
                want = dict.fromkeys(degs, 0)
                for i in range(n + 1):
                    sides.add((len(lo[i]) > len(hi[n - i])) - (len(lo[i]) < len(hi[n - i])))
                    for d1, x in lo[i].items():
                        for d2, y in hi[n - i].items():
                            if d1 + d2 in degs:
                                want[d1 + d2] += x * y
                assert real(lo, hi, n, degs) == want, (d, order, n)
        assert {-1, 1} <= sides

    def test_slot_is_the_bound_bit_length(self):
        # the narrowest slot that holds monomial_count(d, order), so a
        # carry would show
        for d in range(8):
            for order in range(13):
                reads = ternary_reads(d, range(order + 1))
                if reads.cells:
                    coeff = counts.pqbinom_reader(d, reads)
                    closure = dict(zip(coeff.__code__.co_freevars, coeff.__closure__))
                    slot = closure["slot"].cell_contents
                    assert slot == monomial_count(d, reads.order).bit_length(), (d, order)

    def test_reader_holds_only_the_sums_read(self):
        # every sum is convolved before the reader returns, so a cell whose
        # (n, a + b) was not read has no sum to read a slot of
        reads = ternary_reads(3, [4])  # a + b = 6, 7 and 8 at n = 4
        coeff = counts.pqbinom_reader(3, reads)
        assert coeff(4, 5, 2) == _count_layers(3, 4, *reads.box()).cell(4, 5, 2)
        for cell in [(4, 0, 0), (4, 4, 5), (3, 3, 3)]:
            with pytest.raises(KeyError):
                coeff(*cell)

    def test_convolution_is_per_total_degree(self, monkeypatch):
        # a _convolve that answered every a + b of a degree with the sum
        # for its least one must break some series
        real = counts._convolve

        def first_degree(lo, hi, n, degs):
            return dict.fromkeys(degs, real(lo, hi, n, [min(degs)])[min(degs)])

        monkeypatch.setattr(counts, "_convolve", first_degree)
        differ = [
            d
            for d in range(1, 8)
            if poincare_series("ternary", d, 15, method="pqbinom")
            != poincare_series("ternary", d, 15)
        ]
        assert differ


def test_operator_terms_are_the_papers_operator():
    # 1 + pq + q^2/p - 2q - q^2
    assert OPERATOR_TERMS == {(0, 0): 1, (1, 1): 1, (-1, 2): 1, (0, 1): -2, (0, 2): -1}


class TestPackedGenfunc:
    """genfunc's expansion is graded packed ints; unpacked, it must be the
    dict expansion of the inverse product restricted to the box of its
    Reads and to the a + b floor band, with no bit outside the box."""

    @pytest.mark.parametrize("d", range(8))
    def test_expansion_is_restricted_inverse_product(self, d):
        # folded in descending k + l, each variable floors its new pieces
        # by its own k + l, and the last, p^0 q^0, by 0: the expansion is
        # exact in the band of rest 0, and no piece lies below the band of
        # the first variable, rest d
        for order in range(13):
            for degrees in (range(order + 1), [order]):
                reads = ternary_reads(d, degrees)
                if not reads.cells:
                    continue
                pieces, slot = counts._genfunc_expansion(d, reads)
                band = brute_floors(reads, 0)
                full = expand_inverse_product(variables(d), reads.order)
                want = restrict(restrict_band(full, band), reads.box())
                got = unpack_graded(pieces, slot)
                in_band = {(j, a, b): c for (j, a, b), c in got.items() if a + b >= band[j]}
                assert in_band == series_terms(want), (d, order)
                first = brute_floors(reads, d)
                assert all(a + b >= first[j] for j, a, b in got), (d, order)

    def test_slot_is_the_bound_bit_length(self):
        # the narrowest slot that holds monomial_count(d, order), so a
        # carry would show
        for d in range(8):
            for order in range(13):
                reads = ternary_reads(d, range(order + 1))
                if reads.cells:
                    _, slot = counts._genfunc_expansion(d, reads)
                    assert slot == monomial_count(d, reads.order).bit_length(), (d, order)

    @pytest.mark.parametrize("d, order", [(1, 30), (4, 20), (7, 12), (10, 9)])
    def test_no_bit_outside_the_box(self, d, order):
        reads = ternary_reads(d, range(order + 1))
        pieces, slot = counts._genfunc_expansion(d, reads)
        masks = _box_masks(reads.box(), slot)
        for j, coeff in enumerate(pieces):
            for deg, packed in coeff.items():
                assert packed & ~masks[deg] == 0, (j, deg)
