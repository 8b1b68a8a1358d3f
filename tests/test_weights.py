"""Lattice-point counting, cross-checked against exhaustive enumeration."""

from itertools import combinations_with_replacement
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forminv.counts import OPERATOR_TERMS, Reads, poincare_series
from forminv.poly import expand_inverse_product
from forminv.weights import (
    _count_layers,
    c_ternary,
    monomial_count,
    num_variables,
    omega_binary,
    omega_reader,
    solution_count_grid,
    variables,
    weight_table,
)


def brute_omega(d, n, w):
    """Enumerate all degree-n monomials in d+1 variables and count weight w."""
    count = 0
    for combo in combinations_with_replacement(range(d + 1), n):
        if sum(combo) == w:
            count += 1
    return count


def brute_ternary_counts(d, n):
    """(w1, w2) -> count over all degree-n monomials, by enumeration."""
    out = {}
    for combo in combinations_with_replacement(variables(d), n):
        w1 = sum(r for r, _ in combo)
        w2 = sum(s for _, s in combo)
        out[(w1, w2)] = out.get((w1, w2), 0) + 1
    return out


def reference_count_grid(d, n, w1cap, w2cap):
    """grid[c][x][y] = #vectors alpha over the (r,s) variables with
    sum alpha = c, sum r*alpha = x, sum s*alpha = y (x <= w1cap, y <= w2cap),
    by an unpacked list-of-lists DP with one int per cell."""
    dp = [
        [[0] * (w2cap + 1) for _ in range(w1cap + 1)] for _ in range(n + 1)
    ]
    dp[0][0][0] = 1
    for (r, s) in variables(d):
        # unbounded use of this variable: dp[c] += shifted dp[c-1] (post-update)
        for c in range(1, n + 1):
            cur = dp[c]
            prev = dp[c - 1]
            for x in range(r, w1cap + 1):
                row = cur[x]
                prow = prev[x - r]
                for y in range(s, w2cap + 1):
                    row[y] += prow[y - s]
    return dp


def reference_omega_row(d, n):
    """ways[w] = #{alpha_0..alpha_d >= 0 : sum alpha = n, sum k*alpha_k = w},
    by an unpacked DP over (parts used, weight)."""
    wmax = d * n
    dp = [[0] * (wmax + 1) for _ in range(n + 1)]
    dp[0][0] = 1
    for part in range(1, d + 1):
        for c in range(1, n + 1):
            row = dp[c]
            prev = dp[c - 1]
            for w in range(part, wmax + 1):
                row[w] += prev[w - part]
    return [sum(dp[c][w] for c in range(n + 1)) for w in range(wmax + 1)]


@st.composite
def grid_shapes(draw):
    d = draw(st.integers(0, 4))
    n = draw(st.integers(0, 6))
    w1cap = draw(st.integers(0, d * n))
    w2cap = draw(st.integers(0, d * n))
    return d, n, w1cap, w2cap


class TestPackedLayers:
    @given(grid_shapes())
    @settings(max_examples=60, deadline=None)
    def test_cells_match_reference(self, shape):
        # caps below d put cells into the row padding on every shift
        d, n, w1cap, w2cap = shape
        grid = _count_layers(d, n, w1cap, w2cap)
        ref = reference_count_grid(d, n, w1cap, w2cap)
        for c in range(n + 1):
            for x in range(w1cap + 1):
                for y in range(w2cap + 1):
                    assert grid.cell(c, x, y) == ref[c][x][y]

    def test_slot_is_the_bound_bit_length(self):
        # the narrowest slot that holds monomial_count(d, n), so a carry
        # would show; the window grid takes the same width
        for d in range(7):
            for n in range(9):
                grid = _count_layers(d, n, d * n, d * n)
                assert grid.slot == monomial_count(d, n).bit_length(), (d, n)
                assert grid.mask == (1 << grid.slot) - 1
        reads = series_reads(5, 9)
        assert solution_count_grid(5, 9, *reads.window(5)).slot == monomial_count(5, 9).bit_length()

    def test_padding_edge(self):
        # w2cap = 0 < d: every s > 0 shift lands wholly in the padding
        for d in range(1, 5):
            grid = _count_layers(d, 4, 2 * d, 0)
            ref = reference_count_grid(d, 4, 2 * d, 0)
            for c in range(5):
                for x in range(2 * d + 1):
                    assert grid.cell(c, x, 0) == ref[c][x][0]

    def test_solution_count_grid_cap(self):
        # solution_count_grid keeps only the window its caller derives
        # (TestWindow); on the box of the same reads the plain
        # _count_layers holds every cell
        reads = series_reads(5, 9)
        amax, bmax = reads.box()
        grid = solution_count_grid(5, 9, *reads.window(5))
        box = _count_layers(5, 9, amax, bmax)
        ref = reference_count_grid(5, 9, amax, bmax)
        assert (grid.tops[-1], grid.w2cap) == (amax, bmax) == (16, 15)
        assert all(
            box.cell(9, x, y) == ref[9][x][y]
            for x in range(amax + 1)
            for y in range(bmax + 1)
        )
        for x, y in ((-1, 0), (amax + 1, 0), (amax, -1), (amax, bmax + 1)):
            with pytest.raises(IndexError):
                grid.cell(9, x, y)


def series_reads(d, n_max):
    """The ``Reads`` of a ternary series to n_max."""
    return Reads(OPERATOR_TERMS, d, 3, range(n_max + 1))


def window_grid(d, n_max):
    """The counting grid a ternary series to n_max builds."""
    reads = series_reads(d, n_max)
    return solution_count_grid(d, reads.order, *reads.window(d))


class TestWindow:
    """solution_count_grid stores layer n from row lows[n] up to row
    tops[n] of w1, each row up to w2 = w2cap, the window that
    ``Reads.window`` derives, and must be exact at every cell it stores."""

    @pytest.mark.parametrize("d", range(6))
    def test_window_cells_match_reference(self, d):
        # one reference at the largest box serves every smaller n_max
        ref = reference_count_grid(d, 9, 3 * d + 1, 3 * d + 1)
        for n_max in range(10):
            grid = window_grid(d, n_max)
            for n in range(len(grid.lows)):
                low, top = grid.lows[n], grid.tops[n]
                for x in range(low, top + 1):
                    for y in range(grid.w2cap + 1):
                        assert grid.cell(n, x, y) == ref[n][x][y], (n_max, n)
                # just outside the window
                outside = [(top + 1, 0), (low, grid.w2cap + 1), (low - 1, 0)]
                for x, y in outside:
                    with pytest.raises(IndexError):
                        grid.cell(n, x, y)

    def test_window_is_narrower_than_the_box(self):
        grid = window_grid(9, 24)
        assert grid.lows[24] == 71 and grid.tops[24] == 73 and grid.w2cap == 72
        assert sum(t - lo + 1 for lo, t in zip(grid.lows, grid.tops)) < 25 * 74 // 2

    def test_layers_stay_inside_their_window(self):
        # a mask that is not rebuilt when a layer's top falls leaves every
        # count exact, so only the layer's bit length shows it
        sizes = [(3, 26), (4, 30), (5, 30), (6, 13), (7, 21), (8, 24), (9, 24), (10, 21)]
        for d, order in sizes + [(3, 4), (5, 18), (7, 21)]:
            for degrees in (range(order + 1), [order]):
                reads = Reads(OPERATOR_TERMS, d, 3, degrees)
                grid = solution_count_grid(d, reads.order, *reads.window(d))
                # layer 0 is the DP's seed, never masked
                assert grid.layers[0] == 1
                for c in range(1, len(grid.layers)):
                    rows = max(grid.tops[c] - grid.lows[c] + 1, 0)
                    assert grid.layers[c].bit_length() <= rows * grid.row, (d, order, c)

    def test_window_top_is_tight(self, monkeypatch):
        # one row lower, the cuts made while 0 < r < d drop counts the
        # operator reads, and the cross-check must see it; a cut never
        # falls below the last one (the window contract, _grid)
        window = Reads.window

        def lowered(reads, d):
            lows, tops, w2cap = window(reads, d)
            inner = [[max(t - 1, last) for t, last in zip(top, tops[-1])] for top in tops[1:-1]]
            return lows, tops[:1] + inner + tops[-1:], w2cap

        monkeypatch.setattr(Reads, "window", lowered)
        differ = []
        for d in range(1, 8):
            want = poincare_series("ternary", d, 15, method="genfunc")
            if poincare_series("ternary", d, 15) != want:
                differ.append(d)
        assert differ

    def test_window_top_bounds_the_reads(self, monkeypatch):
        # one row lower, the last cut leaves out the top row the operator
        # reads: at d = 1 the first is cell (0, 0, 0), at n = 0
        window = Reads.window

        def lowered(reads, d):
            lows, tops, w2cap = window(reads, d)
            return lows, tops[:-1] + [[t - 1 for t in tops[-1]]], w2cap

        monkeypatch.setattr(Reads, "window", lowered)
        with pytest.raises(IndexError, match=r"\(0, 0\) is outside layer 0"):
            poincare_series("ternary", 1, 6)

    @pytest.mark.parametrize("margin, holds", [(0, True), (1, False)])
    def test_window_floor_margin(self, monkeypatch, margin, holds):
        # the floor is tight: as derived every series through d = 8,
        # n_max = 18 holds, and raised by one a cell the operator reads
        # loses a count (a floor of 0 is the origin's row, and stays)
        want = {
            (d, n_max): poincare_series("ternary", d, n_max)
            for d in range(1, 9)
            for n_max in range(19)
        }
        window = Reads.window

        def raised(reads, d):
            lows, tops, w2cap = window(reads, d)
            return [low + margin if low else 0 for low in lows], tops, w2cap

        monkeypatch.setattr(Reads, "window", raised)
        got = {}
        for key in want:
            try:
                got[key] = poincare_series("ternary", *key)
            except IndexError:
                pass
        assert (got == want) is holds


class _Int(int):
    """An int subclass: the package takes only an int itself for an int."""


class TestValidation:
    @pytest.mark.parametrize("bad", [True, 2.0, -1, pytest.param(_Int(2), id="int-subclass")])
    def test_rejects_bad_d_and_n(self, bad):
        # a value that is not an int itself is named with its type, so an
        # int subclass does not read as valid input
        if type(bad) is int:
            message = "d and n must be nonnegative"
        else:
            message = f"expected an int, got {type(bad).__name__} {bad!r}"
        for call in (
            lambda: omega_binary(bad, 2, 1),
            lambda: omega_binary(2, bad, 1),
            lambda: c_ternary(bad, 2, 0, 0),
            lambda: c_ternary(2, bad, 0, 0),
            lambda: weight_table(bad, 2),
            lambda: weight_table(2, bad),
            lambda: solution_count_grid(bad, 2, [0] * 3, [[1] * 3], 1),
            lambda: solution_count_grid(2, bad, [0] * 3, [[1] * 3], 1),
            lambda: monomial_count(bad, 2),
            lambda: variables(bad),
            lambda: num_variables(bad),
        ):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message

    @pytest.mark.parametrize("bad", [True, False, 0.0, "1"])
    def test_rejects_non_int_weights(self, bad):
        with pytest.raises(ValueError):
            omega_binary(2, 2, bad)
        with pytest.raises(ValueError):
            c_ternary(2, 3, bad, 0)
        with pytest.raises(ValueError):
            c_ternary(2, 3, 0, bad)

    def test_grid_rejects_lows_of_another_length(self):
        for lows in ([0, 0], [0, 0, 0, 0]):
            with pytest.raises(ValueError, match=r"^lows must hold n_max \+ 1 layers$"):
                solution_count_grid(2, 2, lows, [[4] * 3] * 3, 4)

    def test_grid_rejects_tops_of_another_shape(self):
        for tops in ([[4] * 3] * 2, [[4] * 3, [4] * 2, [4] * 3]):
            with pytest.raises(ValueError, match=r"^tops must hold d \+ 1 rows"):
                solution_count_grid(2, 2, [0] * 3, tops, 4)

    def test_grid_rejects_lows_that_start_above_0(self):
        # layer 0's seed sits at row lows[0]: unchecked, this window reads
        # cell (0, 1, 0) as 1, where no degree-0 monomial has w1 = 1
        with pytest.raises(ValueError, match="^lows must start at 0 and never fall$"):
            solution_count_grid(2, 1, [1, 1], [[2, 2]] * 3, 2)

    def test_grid_rejects_falling_lows(self):
        # unchecked, this window misreads 12 cells, among them (1, 1, 2)
        # as 1 (it is 0) and (2, 2, 1) as 1 (it is 2)
        with pytest.raises(ValueError, match="^lows must start at 0 and never fall$"):
            solution_count_grid(2, 2, [0, 1, 0], [[4, 4, 4]] * 3, 4)
        # empty layers, tops below lows, stay allowed: a point makes them
        lows, tops, w2cap = Reads(OPERATOR_TERMS, 3, 3, [6]).window(3)
        assert tops[-1][1] < lows[1]
        grid = solution_count_grid(3, 6, lows, tops, w2cap)
        assert grid.cell(6, 6, 6) == _count_layers(3, 6, 7, 6).cell(6, 6, 6) > 0

    def test_grid_rejects_tops_that_grow(self):
        # unchecked, this window dies of a negative shift count
        with pytest.raises(ValueError, match=r"^tops\[r\]\[c\] must never grow with r$"):
            solution_count_grid(2, 1, [0, 0], [[1, 1], [2, 2], [2, 2]], 2)

    def test_cell_rejects_a_layer_outside_the_grid(self):
        # unchecked, layer -1 reads layer 3's count of 2 from the end of
        # the list
        grid = _count_layers(2, 3, 6, 6)
        assert grid.cell(3, 3, 3) == 2
        for c in (-1, -4, 4):
            with pytest.raises(IndexError, match=rf"^cell \(3, 3\) is outside layer {c} of the grid$"):
                grid.cell(c, 3, 3)

    def test_negative_weights_are_counts_of_zero(self):
        assert omega_binary(2, 2, -1) == 0
        assert c_ternary(3, 3, -30, -30) == 0


class TestOmegaBinary:
    def test_weight_zero(self):
        for d in range(5):
            for n in range(5):
                assert omega_binary(d, n, 0) == 1

    def test_2_2_enumeration(self):
        assert omega_binary(2, 2, 2) == 2
        assert omega_binary(2, 2, 1) == 1

    def test_out_of_range(self):
        assert omega_binary(3, 4, -1) == 0
        assert omega_binary(3, 4, 13) == 0

    @pytest.mark.parametrize("d,n", [(2, 3), (3, 3), (4, 2), (1, 5)])
    def test_against_enumeration(self, d, n):
        for w in range(d * n + 1):
            assert omega_binary(d, n, w) == brute_omega(d, n, w)

    def test_against_reference_dp(self):
        for d in range(13):
            for n in range(13):
                ref = reference_omega_row(d, n)
                assert [omega_binary(d, n, w) for w in range(d * n + 1)] == ref

    def test_slot_is_the_bound_bit_length(self):
        # the narrowest slot that holds comb(order + d, d), so a carry
        # would show
        for d in range(9):
            for order in range(9):
                coeff = omega_reader(d, order)
                closure = dict(zip(coeff.__code__.co_freevars, coeff.__closure__))
                assert closure["slot"].cell_contents == comb(order + d, d).bit_length()

    def test_box_transpose_symmetry(self):
        for d in range(9):
            for n in range(9):
                for w in range(d * n + 1):
                    assert omega_binary(d, n, w) == omega_binary(n, d, w)

    def test_reflection_symmetry(self):
        for d in range(1, 7):
            for n in range(7):
                for w in range(d * n + 1):
                    assert omega_binary(d, n, w) == omega_binary(d, n, d * n - w)

    def test_total(self):
        for d in range(7):
            for n in range(7):
                total = sum(omega_binary(d, n, w) for w in range(d * n + 1))
                assert total == comb(n + d, d)


class TestCTernary:
    def test_degree_zero(self):
        for d in (1, 2, 5):
            assert c_ternary(d, 0, 0, 0) == 1
            assert c_ternary(d, 0, 3, 0) == 0
            assert c_ternary(d, 0, 1, 1) == 0

    def test_linear_cubic_monomial(self):
        # the single degree-3 monomial in 3 variables with both weight sums 1
        assert c_ternary(1, 3, 0, 0) == 1

    def test_congruence_vanishing(self):
        for d in (1, 2, 3):
            for n in range(5):
                for i in range(-4, 5):
                    for j in range(-4, 5):
                        if (i - j - d * n) % 3 != 0:
                            assert c_ternary(d, n, i, j) == 0

    @pytest.mark.parametrize("d,n", [(1, 4), (2, 3), (2, 4)])
    def test_against_enumeration(self, d, n):
        brute = brute_ternary_counts(d, n)
        for w1 in range(d * n + 1):
            for w2 in range(d * n + 1):
                i = n * d - 2 * w1 - w2
                j = w1 - w2
                assert c_ternary(d, n, i, j) == brute.get((w1, w2), 0)


class TestWeightTable:
    def test_degree_one_is_variable_weights(self):
        for d in (1, 2, 3, 4):
            table = weight_table(d, 1)
            expect = {(d - (2 * r + s), r - s): 1 for (r, s) in variables(d)}
            assert table == expect

    def test_linear_quadratic(self):
        table = weight_table(1, 2)
        assert sum(table.values()) == 6
        assert table.get((2, 0), 0) == 1
        assert table.get((0, 1), 0) == 1
        assert table.get((1, -1), 0) == 1

    def test_total_cubic_quadratic(self):
        assert sum(weight_table(3, 2).values()) == 55

    def test_totals_are_monomial_counts(self):
        for d in range(1, 5):
            for n in range(7):
                assert sum(weight_table(d, n).values()) == monomial_count(d, n)

    def test_congruence_sublattice(self):
        for d in range(1, 5):
            for n in range(6):
                for (i, j) in weight_table(d, n):
                    assert (i - j - d * n) % 3 == 0

    def test_agrees_with_c_ternary(self):
        for d in range(1, 5):
            for n in range(7):
                table = weight_table(d, n)
                for (i, j), c in table.items():
                    assert c_ternary(d, n, i, j) == c
                # off-table points vanish
                span = d * n + 2
                for i in range(-span, span + 1, max(1, span // 3)):
                    for j in range(-span, span + 1, max(1, span // 3)):
                        if (i, j) not in table:
                            assert c_ternary(d, n, i, j) == 0

    @pytest.mark.parametrize("d,n", [(1, 4), (2, 4), (2, 5), (3, 3), (3, 4), (4, 3)])
    def test_dominant_part_against_enumeration(self, d, n):
        want = {}
        for (w1, w2), c in brute_ternary_counts(d, n).items():
            i, j = n * d - 2 * w1 - w2, w1 - w2
            if i >= 0 and j >= 0:
                want[(i, j)] = c
        assert weight_table(d, n, dominant=True) == want

    def test_weyl_invariant_and_dominant_part_built_alone(self):
        # peel builds only the dominant part and decompose skips its Weyl
        # pass there, so the full table's s1 and s2 invariance is pinned
        # here: at every size the benchmark peels, and at (7, 21) and
        # (8, 24), which CI peels
        sizes = [(d, n) for d in range(5) for n in range(13)] + [(5, 9), (7, 21), (8, 24)]
        for d, n in sizes:
            table = weight_table(d, n)
            for (a, b), m in table.items():
                assert table.get((-a, a + b)) == m == table.get((a + b, -b)), (d, n, a, b)
            dominant = {w: m for w, m in table.items() if w[0] >= 0 and w[1] >= 0}
            assert weight_table(d, n, dominant=True) == dominant, (d, n)

    def test_generating_function_consistency(self):
        # c(d, n, i, j) = coefficient of t^n p^w1 q^w2 in the inverse product
        for d in range(1, 4):
            series = expand_inverse_product(variables(d), 6)
            for n in range(7):
                coeff = series.coeffs[n].terms
                table = weight_table(d, n)
                for (i, j), c in table.items():
                    w1 = (d * n - (i - j)) // 3
                    w2 = (d * n - (i + 2 * j)) // 3
                    assert coeff.get((w1, w2), 0) == c


def test_num_variables():
    for d in range(6):
        assert num_variables(d) == len(variables(d))
