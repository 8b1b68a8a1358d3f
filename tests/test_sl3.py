import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forminv.sl3 import (
    InvalidCharacterError,
    character,
    decompose,
    dimension,
    e_lambda,
    weight_multiplicity,
)
from forminv.weights import weight_table


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

    def test_duality(self):
        for m in range(7):
            for k in range(7):
                diag = character((m, k))
                dual = {(j, i): c for (i, j), c in diag.items()}
                assert dual == character((k, m))


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


highest_weights = st.tuples(st.integers(0, 6), st.integers(0, 6))


class TestDecompose:
    def test_irreducible_input(self):
        assert decompose(character((2, 1))) == {(2, 1): 1}

    def test_symmetric_square_of_linear_table(self):
        # six weights, total 6 = dimension of the peeled irreducible
        result = decompose(weight_table(1, 2).entries)
        assert len(result) == 1
        ((hw, mult),) = result.items()
        assert mult == 1
        assert dimension(hw) == 6

    def test_cubic_quartic_invariant(self):
        assert decompose(weight_table(3, 4).entries).get((0, 0), 0) == 1

    @given(st.dictionaries(highest_weights, st.integers(1, 3), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_recompose_identity(self, multiset):
        diagram = {}
        for hw, g in multiset.items():
            for w, m in character(hw).items():
                diagram[w] = diagram.get(w, 0) + g * m
        assert decompose(diagram) == multiset

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
            diagram = {}
            for hw, g in multiset.items():
                for w, m in character(hw).items():
                    diagram[w] = diagram.get(w, 0) + g * m
            result = decompose(diagram)
            total = sum(g * dimension(hw) for hw, g in result.items())
            assert total == sum(diagram.values())
