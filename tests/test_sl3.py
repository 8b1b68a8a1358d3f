import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forminv import sl3
from forminv.sl3 import (
    InvalidCharacterError,
    character,
    decompose,
    dimension,
    e_lambda,
    weight_multiplicity,
)
from forminv.weights import weight_table


# The Weyl alternation written out directly: six Weyl lambdas and every
# term evaluated, with no early exit.  The independent reference for
# weight_multiplicity.
REFERENCE_WEYL = (
    (1, lambda a, b: (a, b)),  # identity
    (-1, lambda a, b: (-a, a + b)),  # s1
    (-1, lambda a, b: (a + b, -b)),  # s2
    (1, lambda a, b: (b, -a - b)),  # s1 s2
    (1, lambda a, b: (-a - b, a)),  # s2 s1
    (-1, lambda a, b: (-b, -a)),  # longest element
)


def reference_weight_multiplicity(lam, mu):
    la, lb = lam[0] + 1, lam[1] + 1
    ta, tb = mu[0] + 1, mu[1] + 1
    total = 0
    for sign, act in REFERENCE_WEYL:
        va, vb = act(la, lb)
        x, y = va - ta, vb - tb
        n1, n2 = 2 * x + y, x + 2 * y
        if n1 % 3 or n2 % 3:
            continue
        k1, k2 = n1 // 3, n2 // 3
        if k1 >= 0 and k2 >= 0:
            total += sign * (min(k1, k2) + 1)
    return total


def recompose(multiset):
    """The weight diagram of sum g * character(hw); g = 0 leaves zeros."""
    diagram = {}
    for hw, g in multiset.items():
        for w, m in character(hw).items():
            diagram[w] = diagram.get(w, 0) + g * m
    return diagram


class TestAgainstReference:
    BOX = [(i, j) for i in range(-24, 25) for j in range(-24, 25)]

    def test_weight_multiplicity_box(self):
        # every mu of the box, non-dominant ones included, so the
        # identity-term early exit is checked wherever it fires
        for m1 in range(13):
            for m2 in range(13):
                lam = (m1, m2)
                got = [weight_multiplicity(lam, mu) for mu in self.BOX]
                want = [reference_weight_multiplicity(lam, mu) for mu in self.BOX]
                assert got == want, lam

    def test_character(self):
        for m1 in range(9):
            for m2 in range(9):
                lam = (m1, m2)
                want = {
                    mu: m
                    for mu in self.BOX
                    if (m := reference_weight_multiplicity(lam, mu))
                }
                assert character(lam) == want, lam


class TestWeightMultiplicity:
    def test_adjoint_zero_weight(self):
        assert weight_multiplicity((1, 1), (0, 0)) == 2

    @pytest.mark.parametrize("m", range(1, 6))
    def test_diagonal_zero_weight(self, m):
        assert weight_multiplicity((m, m), (0, 0)) == m + 1

    def test_standard_highest_weight(self):
        assert weight_multiplicity((1, 0), (1, 0)) == 1

    def test_outside_diagram(self):
        assert weight_multiplicity((1, 0), (2, 0)) == 0
        assert weight_multiplicity((1, 0), (0, 0)) == 0

    def test_rejects_non_dominant(self):
        with pytest.raises(ValueError):
            weight_multiplicity((-1, 0), (0, 0))


class TestDimension:
    def test_values(self):
        assert dimension((0, 0)) == 1
        assert dimension((1, 0)) == 3
        assert dimension((1, 1)) == 8

    def test_character_totals(self):
        for m in range(9):
            for k in range(9):
                assert sum(character((m, k)).values()) == dimension((m, k))


class TestCharacter:
    def test_trivial(self):
        assert character((0, 0)) == {(0, 0): 1}

    def test_standard(self):
        assert character((1, 0)) == {(1, 0): 1, (-1, 1): 1, (0, -1): 1}

    def test_adjoint(self):
        # six root weights around a doubled zero weight
        expect = {
            (1, 1): 1,
            (-1, 2): 1,
            (2, -1): 1,
            (1, -2): 1,
            (-2, 1): 1,
            (-1, -1): 1,
            (0, 0): 2,
        }
        assert character((1, 1)) == expect

    def test_weyl_symmetry(self):
        for m in range(0, 9, 2):
            for k in range(0, 9, 3):
                diag = character((m, k))
                for (i, j), mult in diag.items():
                    assert diag.get((-i, i + j)) == mult  # s1
                    assert diag.get((i + j, -j)) == mult  # s2

    def test_rejects_negative_highest_weight(self):
        # (-5, 1) scans an empty chamber, so the check must not rely on it
        for lam in ((-1, 0), (0, -1), (-5, 1)):
            with pytest.raises(ValueError):
                character(lam)

    def test_duality(self):
        for m in range(7):
            for k in range(7):
                diag = character((m, k))
                dual = {(j, i): c for (i, j), c in diag.items()}
                assert dual == character((k, m))

    @given(st.tuples(st.integers(0, 30), st.integers(0, 30)))
    @settings(max_examples=60, deadline=None)
    def test_dominant_chamber_past_reference_box(self, lam):
        # beyond TestAgainstReference's lam <= (8, 8): the orbit writes
        # fill the whole diagram, and the chamber reaches i + j = m1 + m2
        diag = character(lam)
        assert sum(diag.values()) == dimension(lam)
        sl3._check_weyl_invariant(diag)
        span = lam[0] + lam[1]
        for i in range(span + 1):
            for j in range(span - i + 1):
                assert diag.get((i, j), 0) == weight_multiplicity(lam, (i, j)), (i, j)


class TestELambda:
    def test_trivial(self):
        assert e_lambda((0, 0)) == 1

    def test_adjoint(self):
        assert e_lambda((1, 1)) == 0

    def test_far_weight(self):
        assert e_lambda((4, 0)) == 0

    def test_small_sweep(self):
        for m in range(8):
            for k in range(8):
                expect = 1 if (m, k) == (0, 0) else 0
                assert e_lambda((m, k)) == expect


class TestMalformedInput:
    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda: character((True, 0)), id="character-bool"),
            pytest.param(lambda: character((1.0, 0)), id="character-float"),
            pytest.param(lambda: character((1,)), id="character-short"),
            pytest.param(lambda: character((1, 0, 0)), id="character-long"),
            pytest.param(lambda: character([1, 0]), id="character-list"),
            pytest.param(lambda: dimension((True, 1)), id="dimension-bool"),
            pytest.param(lambda: dimension((2, 0.5)), id="dimension-float"),
            pytest.param(lambda: e_lambda((0.0, 0)), id="e_lambda-float"),
            pytest.param(
                lambda: weight_multiplicity((True, 0), (1, 0)),
                id="weight_multiplicity-bool-lam",
            ),
            pytest.param(
                lambda: weight_multiplicity((1, 0), (0.5, 0)),
                id="weight_multiplicity-float-mu",
            ),
            pytest.param(
                lambda: weight_multiplicity((1, 0), (True, 0)),
                id="weight_multiplicity-bool-mu",
            ),
            pytest.param(
                lambda: weight_multiplicity((1, 0), (0,)),
                id="weight_multiplicity-short-mu",
            ),
        ],
    )
    def test_rejects_weight_that_is_not_a_pair_of_ints(self, call):
        with pytest.raises(ValueError, match="pair of ints"):
            call()

    @pytest.mark.parametrize("mult", [1.5, True, "1"])
    def test_decompose_rejects_multiplicity_that_is_not_an_int(self, mult):
        with pytest.raises(InvalidCharacterError, match="not an int"):
            decompose({(0, 0): mult})

    @pytest.mark.parametrize(
        "weight",
        [
            pytest.param((0.0, 0.0), id="float"),
            pytest.param((0, 0.0), id="mixed"),
            pytest.param((True, False), id="bool"),
            pytest.param((0,), id="short"),
            pytest.param((0, 0, 0), id="long"),
            pytest.param("ab", id="str"),
        ],
    )
    def test_decompose_rejects_weight_that_is_not_a_pair_of_ints(self, weight):
        with pytest.raises(InvalidCharacterError, match="not a pair of ints"):
            decompose({weight: 1})


highest_weights = st.tuples(st.integers(0, 6), st.integers(0, 6))


class TestDecompose:
    def test_irreducible_input(self):
        assert decompose(character((2, 1))) == {(2, 1): 1}

    def test_symmetric_square_of_linear_table(self):
        # six weights, total 6 = dimension of the peeled irreducible
        result = decompose(weight_table(1, 2))
        assert len(result) == 1
        ((hw, mult),) = result.items()
        assert mult == 1
        assert dimension(hw) == 6

    def test_cubic_quartic_invariant(self):
        assert decompose(weight_table(3, 4)).get((0, 0), 0) == 1

    @given(st.dictionaries(highest_weights, st.integers(1, 3), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_recompose_identity(self, multiset):
        assert decompose(recompose(multiset)) == multiset

    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 9), st.integers(0, 9)),
            st.integers(0, 4),
            max_size=5,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_nonnegative_sum_of_characters(self, multiset):
        expected = {hw: g for hw, g in multiset.items() if g}
        assert decompose(recompose(multiset)) == expected

    def test_each_highest_weight_scans_once(self, monkeypatch):
        # one Weyl orbit per peeled highest weight, none for the rest
        calls = []
        real = sl3._weyl_images

        def recorded(lam):
            calls.append(lam)
            return real(lam)

        multiset = {(3, 1): 2, (1, 1): 1, (0, 0): 3}
        diagram = recompose(multiset)
        monkeypatch.setattr(sl3, "_weyl_images", recorded)
        assert decompose(diagram) == multiset
        assert calls == [(3, 1), (1, 1), (0, 0)]

    def test_not_weyl_invariant(self):
        with pytest.raises(InvalidCharacterError):
            decompose({(1, 0): 1})

    def test_negative_multiplicity(self):
        # adjoint character with the zero weight removed: peeling (1,1)
        # drives (0,0) negative
        bad = dict(character((1, 1)))
        bad[(0, 0)] = 1
        with pytest.raises(InvalidCharacterError):
            decompose(bad)

    def test_recompose_sum_matches_dimension(self):
        rng = random.Random(7)
        for _ in range(10):
            multiset = {
                (rng.randint(0, 5), rng.randint(0, 5)): rng.randint(1, 2)
                for _ in range(rng.randint(1, 3))
            }
            diagram = recompose(multiset)
            result = decompose(diagram)
            total = sum(g * dimension(hw) for hw, g in result.items())
            assert total == sum(diagram.values())
