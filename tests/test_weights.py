"""Lattice-point counting, cross-checked against exhaustive enumeration."""

from itertools import combinations_with_replacement
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forminv import weights
from forminv.counts import poincare_series
from forminv.poly import expand_inverse_product
from forminv.weights import (
    _count_layers,
    c_ternary,
    monomial_count,
    num_variables,
    omega_binary,
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

    def test_padding_edge(self):
        # w2cap = 0 < d: every s > 0 shift lands wholly in the padding
        for d in range(1, 5):
            grid = _count_layers(d, 4, 2 * d, 0)
            ref = reference_count_grid(d, 4, 2 * d, 0)
            for c in range(5):
                for x in range(2 * d + 1):
                    assert grid.cell(c, x, 0) == ref[c][x][0]

    def test_solution_count_grid_cap(self):
        # solution_count_grid keeps only a window of the box (TestWindow),
        # so the whole box at its cap is the plain _count_layers
        grid = solution_count_grid(5, 9)
        cap = 5 * 9 // 3 + 1
        box = _count_layers(5, 9, cap, cap)
        ref = reference_count_grid(5, 9, cap, cap)
        assert (grid.tops[-1], grid.w2cap) == (cap, cap)
        assert all(
            box.cell(9, x, y) == ref[9][x][y]
            for x in range(cap + 1)
            for y in range(cap + 1)
        )
        assert grid.cell(9, -1, 0) == 0
        with pytest.raises(IndexError):
            grid.cell(9, cap + 1, 0)


class TestWindow:
    """solution_count_grid stores layer n from row lows[n] up to row
    d*n//3 + 1 of w1, each row up to w2 = cap, and must be exact at every
    cell it stores."""

    @pytest.mark.parametrize("d", range(6))
    def test_window_cells_match_reference(self, d):
        # one reference at the largest cap serves every smaller n_max
        ref = reference_count_grid(d, 9, 3 * d + 1, 3 * d + 1)
        for n_max in range(10):
            grid = solution_count_grid(d, n_max)
            cap = d * n_max // 3 + 1
            for n in range(n_max + 1):
                low, top = grid.lows[n], d * n // 3 + 1
                assert grid.tops[n] == top
                for x in range(low, top + 1):
                    for y in range(cap + 1):
                        assert grid.cell(n, x, y) == ref[n][x][y], (n_max, n)
                # just outside the window
                outside = [(top + 1, 0), (low, cap + 1)]
                if low:
                    outside.append((low - 1, 0))
                for x, y in outside:
                    with pytest.raises(IndexError):
                        grid.cell(n, x, y)

    def test_window_is_narrower_than_the_box(self):
        grid = solution_count_grid(9, 24)
        assert grid.lows[24] == 69 and grid.tops[24] == 73
        assert sum(t - lo + 1 for lo, t in zip(grid.lows, grid.tops)) < 25 * 74 // 2

    def test_window_top_is_tight(self, monkeypatch):
        # one row lower, the cuts made while 0 < r < d drop counts the
        # operator reads, and the cross-check must see it
        window = weights._window

        def lowered(d, n_max):
            lows, tops = window(d, n_max)
            inner = [[t - 1 for t in top] for top in tops[1:-1]]
            return lows, tops[:1] + inner + tops[-1:]

        monkeypatch.setattr(weights, "_window", lowered)
        differ = []
        for d in range(1, 8):
            want = poincare_series("ternary", d, 15, method="genfunc")
            if poincare_series("ternary", d, 15) != want:
                differ.append(d)
        assert differ

    def test_window_top_bounds_the_reads(self, monkeypatch):
        # one row lower, the last cut leaves out the top row the operator
        # reads: at d = 1, n = 6 that is cell (6, 3, 0)
        window = weights._window

        def lowered(d, n_max):
            lows, tops = window(d, n_max)
            return lows, tops[:-1] + [[t - 1 for t in tops[-1]]]

        monkeypatch.setattr(weights, "_window", lowered)
        with pytest.raises(IndexError, match=r"\(3, 0\) is outside layer 6"):
            poincare_series("ternary", 1, 6)

    @pytest.mark.parametrize("margin, holds", [(2, True), (3, False)])
    def test_window_floor_margin(self, monkeypatch, margin, holds):
        # the floor is two rows looser than it needs to be: raised by two
        # every series through d = 8, n_max = 18 holds, raised by three
        # a cell the operator reads falls below it
        want = {
            (d, n_max): poincare_series("ternary", d, n_max)
            for d in range(1, 9)
            for n_max in range(19)
        }
        window = weights._window

        def raised(d, n_max):
            _, tops = window(d, n_max)
            cap = d * n_max // 3 + 1
            lows = [max(0, d * c - 2 * cap - 1 + margin) for c in range(n_max + 1)]
            return lows, tops

        monkeypatch.setattr(weights, "_window", raised)
        got = {}
        for key in want:
            try:
                got[key] = poincare_series("ternary", *key)
            except IndexError:
                pass
        assert (got == want) is holds


class TestValidation:
    @pytest.mark.parametrize("bad", [True, 2.0, -1])
    def test_rejects_bad_d_and_n(self, bad):
        for call in (
            lambda: omega_binary(bad, 2, 1),
            lambda: omega_binary(2, bad, 1),
            lambda: c_ternary(bad, 2, 0, 0),
            lambda: c_ternary(2, bad, 0, 0),
            lambda: weight_table(bad, 2),
            lambda: weight_table(2, bad),
            lambda: solution_count_grid(bad, 2),
            lambda: solution_count_grid(2, bad),
            lambda: monomial_count(bad, 2),
            lambda: variables(bad),
            lambda: num_variables(bad),
        ):
            with pytest.raises(ValueError):
                call()

    @pytest.mark.parametrize("bad", [True, False, 0.0, "1"])
    def test_rejects_non_int_weights(self, bad):
        with pytest.raises(ValueError):
            omega_binary(2, 2, bad)
        with pytest.raises(ValueError):
            c_ternary(2, 3, bad, 0)
        with pytest.raises(ValueError):
            c_ternary(2, 3, 0, bad)

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
