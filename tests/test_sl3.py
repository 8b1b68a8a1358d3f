import random
import re

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
from forminv.weights import monomial_count, weight_table


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


def reference_term(sign, act, lam, mu):
    """The signed term sign(w) * K(w(lam + rho) - (mu + rho)) of one
    Weyl element."""
    va, vb = act(lam[0] + 1, lam[1] + 1)
    x, y = va - mu[0] - 1, vb - mu[1] - 1
    n1, n2 = 2 * x + y, x + 2 * y
    if n1 % 3 or n2 % 3:
        return 0
    k1, k2 = n1 // 3, n2 // 3
    if k1 >= 0 and k2 >= 0:
        return sign * (min(k1, k2) + 1)
    return 0


def reference_weight_multiplicity(lam, mu):
    return sum(reference_term(sign, act, lam, mu) for sign, act in REFERENCE_WEYL)


def reference_dimension(lam):
    """Weyl's dimension formula for sl3."""
    m1, m2 = lam
    return (m1 + 1) * (m2 + 1) * (m1 + m2 + 2) // 2


def reference_peel(diagram):
    """Highest-weight peeling with all six Weyl terms at every weight and
    no early exit: the highest dominant weight left, by (i + j, i), is
    peeled off the whole dominant residual until none is left.  Fails
    (AssertionError) where the diagram is not a nonnegative sum of
    characters: at a multiplicity below 0, or when the peeled dimensions
    miss the diagram's total, a weight of a peeled character being absent
    from it."""
    residual = {w: m for w, m in diagram.items() if m and w[0] >= 0 and w[1] >= 0}
    out = {}
    while residual:
        hw = max(residual, key=lambda w: (w[0] + w[1], w[0]))
        g = out[hw] = residual[hw]
        assert g > 0, hw
        for mu in list(residual):
            v = residual[mu] - g * reference_weight_multiplicity(hw, mu)
            assert v >= 0, (hw, mu)
            if v:
                residual[mu] = v
            else:
                del residual[mu]
    assert sum(g * reference_dimension(hw) for hw, g in out.items()) == sum(diagram.values())
    return out


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

    def test_dominant_mu_has_three_weyl_terms(self):
        # the rule character and decompose rely on: at a dominant mu the
        # s1 s2, s2 s1 and longest-element terms are all 0, here for every
        # dominant mu of the chamber's triangle and a margin of 3 past it
        for m1 in range(16):
            for m2 in range(16):
                lam = (m1, m2)
                for i in range(m1 + m2 + 4):
                    for j in range(m1 + m2 + 4 - i):
                        for sign, act in REFERENCE_WEYL[3:]:
                            assert reference_term(sign, act, lam, (i, j)) == 0, (lam, i, j)

    def test_hexagon_rule(self):
        # the closed form decompose's scan takes: a dominant mu =
        # lam - k1 alpha1 - k2 alpha2 has multiplicity 1 + min(k1, k2, m1, m2)
        # when k1, k2 are nonnegative integers, and 0 otherwise; checked at
        # every dominant mu of the triangle and a margin of 3 past it
        for m1 in range(16):
            for m2 in range(16):
                lam = (m1, m2)
                for i in range(m1 + m2 + 4):
                    for j in range(m1 + m2 + 4 - i):
                        x, y = m1 - i, m2 - j
                        k1, r1 = divmod(2 * x + y, 3)
                        k2 = (x + 2 * y) // 3
                        want = 0 if r1 or k1 < 0 or k2 < 0 else 1 + min(k1, k2, m1, m2)
                        assert reference_weight_multiplicity(lam, (i, j)) == want, (lam, i, j)

    def test_decompose_weight_table(self):
        for d in range(4):
            for n in range(9):
                table = weight_table(d, n)
                assert decompose(table) == reference_peel(table), (d, n)

    def test_decompose_dominant_weight_table(self):
        # peel decomposes the dominant part of the table against the
        # monomial count, with no Weyl pass: the full table's decomposition
        sizes = [(d, n) for d in range(5) for n in range(13)]
        sizes += [(5, 9), (7, 21), (8, 24), (6, 30), (10, 21)]
        for d, n in sizes:
            dominant = weight_table(d, n, dominant=True)
            got = decompose(dominant, monomial_count(d, n))
            assert got == decompose(weight_table(d, n)), (d, n)

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

    def test_evaluates_only_the_root_lattice_coset(self, monkeypatch):
        # the alternation runs once per weight of the triangle
        # i + j <= m1 + m2 whose j is i - m1 + m2 mod 3, none elsewhere
        calls = []
        real = sl3._alternation

        def recorded(images, mu):
            calls.append(mu)
            return real(images, mu)

        monkeypatch.setattr(sl3, "_alternation", recorded)
        for m1, m2 in ((0, 0), (2, 1), (6, 6), (7, 3)):
            calls.clear()
            character((m1, m2))
            span = m1 + m2
            want = sum(len(range((i - m1 + m2) % 3, span - i + 1, 3)) for i in range(span + 1))
            assert len(calls) == want, (m1, m2)

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
        for (a, b), m in diag.items():
            assert diag.get((-a, a + b), 0) == diag.get((a + b, -b), 0) == m, (a, b)
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

    def test_reads_multiplicities_only_on_the_root_lattice(self, monkeypatch):
        # every FIVE_POINT weight lies in the root lattice, so lam off it
        # (2 m1 + m2 not 0 mod 3) reads none; lam on it reads all five
        calls = []
        real = sl3.weight_multiplicity

        def recorded(lam, mu):
            calls.append(mu)
            return real(lam, mu)

        monkeypatch.setattr(sl3, "weight_multiplicity", recorded)
        for m1 in range(9):
            for m2 in range(9):
                calls.clear()
                e_lambda((m1, m2))
                want = 0 if (2 * m1 + m2) % 3 else len(sl3.FIVE_POINT)
                assert len(calls) == want, (m1, m2)


class _Int(int):
    """An int subclass: the package takes only an int itself for an int."""


class TestMalformedInput:
    @pytest.mark.parametrize(
        "call, got",
        [
            pytest.param(lambda: character((True, 0)), "(bool True, int 0)", id="character-bool"),
            pytest.param(lambda: character((1.0, 0)), "(float 1.0, int 0)", id="character-float"),
            pytest.param(lambda: character((1,)), "(int 1)", id="character-short"),
            pytest.param(
                lambda: character((1, 0, 0)), "(int 1, int 0, int 0)", id="character-long"
            ),
            pytest.param(lambda: character([1, 0]), "list [1, 0]", id="character-list"),
            pytest.param(lambda: dimension((True, 1)), "(bool True, int 1)", id="dimension-bool"),
            pytest.param(lambda: dimension((2, 0.5)), "(int 2, float 0.5)", id="dimension-float"),
            pytest.param(lambda: e_lambda((0.0, 0)), "(float 0.0, int 0)", id="e_lambda-float"),
            # 2 * True + 0 is off the root lattice: checked all the same
            pytest.param(lambda: e_lambda((True, 0)), "(bool True, int 0)", id="e_lambda-bool"),
            pytest.param(
                lambda: weight_multiplicity((True, 0), (1, 0)),
                "(bool True, int 0)",
                id="weight_multiplicity-bool-lam",
            ),
            pytest.param(
                lambda: weight_multiplicity((_Int(1), 0), (1, 0)),
                "(_Int 1, int 0)",
                id="weight_multiplicity-int-subclass-lam",
            ),
            pytest.param(
                lambda: weight_multiplicity((1, 0), (0.5, 0)),
                "(float 0.5, int 0)",
                id="weight_multiplicity-float-mu",
            ),
            pytest.param(
                lambda: weight_multiplicity((1, 0), (True, 0)),
                "(bool True, int 0)",
                id="weight_multiplicity-bool-mu",
            ),
            pytest.param(
                lambda: weight_multiplicity((1, 0), (0,)),
                "(int 0)",
                id="weight_multiplicity-short-mu",
            ),
        ],
    )
    def test_rejects_weight_that_is_not_a_pair_of_ints(self, call, got):
        # each part is named with its type, so an int subclass does not
        # read as valid input
        with pytest.raises(ValueError, match=f" must be a pair of ints, got {re.escape(got)}$"):
            call()

    # (-1, 0) and (0, -1) are off the root lattice: checked all the same
    @pytest.mark.parametrize("lam", [(-1, 0), (0, -1), (-2, 1)], ids=str)
    def test_e_lambda_rejects_negative_highest_weight(self, lam):
        with pytest.raises(ValueError, match="^highest weight components must be nonnegative$"):
            e_lambda(lam)

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
        # each peeled highest weight places its rays once, none for the
        # rest of the weights
        calls = []
        real = sl3._rays

        def recorded(hw):
            calls.append(hw)
            return real(hw)

        multiset = {(3, 1): 2, (1, 1): 1, (0, 0): 3}
        diagram = recompose(multiset)
        monkeypatch.setattr(sl3, "_rays", recorded)
        assert decompose(diagram) == multiset
        assert calls == [(3, 1), (1, 1), (0, 0)]

    def test_scan_terms_match_alternation(self):
        # the sweep's rays for one highest weight with g = 1, walked from
        # their start weights (_ray_weight at their start levels) to the
        # walls (family 0 by (-2, 1) on i + 2j = key, family 1 by (1, -2)
        # on 2i + j = key), and the events they place
        # summed down each line i - j (an event e at a weight adds
        # e * (1 + t) at the weight t steps of (-1, -1) below it), against
        # their definition, at every weight of the dominant triangle plus a
        # margin of 3, which holds weights of all three root-lattice
        # cosets; and the sweep itself, which must peel each character
        # back to one copy
        for m1 in range(13):
            for m2 in range(13):
                hw = (m1, m2)
                images = sl3._weyl_images(hw)[:3]
                events = []
                for family, key, start, sign in sl3._rays(hw):
                    step = (1, -2) if family else (-2, 1)
                    a, b = sl3._ray_weight(family, key, start)
                    assert (2 * a + b if family else a + 2 * b) == key, (hw, family)
                    while a >= 0 and b >= 0:
                        events.append(((a, b), sign))
                        a, b = a + step[0], b + step[1]
                span = m1 + m2 + 3
                for i in range(span + 1):
                    for j in range(span - i + 1):
                        value = sum(
                            e * (1 + a - i)
                            for (a, b), e in events
                            if a - b == i - j and a >= i
                        )
                        assert value == sl3._alternation(images, (i, j)), (hw, (i, j))
                assert decompose(character(hw)) == {hw: 1}

    def test_ray_starts_are_the_hexagon_rule_weights(self):
        # each ray starts at the level i + j of the weight the hexagon rule
        # names: hw itself along -alpha1, the next weight below hw along
        # -alpha2, and the bottom (m1 - m2 - 3, 0) or (0, m2 - m1 - 3)
        for m1 in range(13):
            for m2 in range(13):
                starts = [(m1, m2), (m1 + 1, m2 - 2)]
                if m1 >= m2 + 3:
                    starts.append((m1 - m2 - 3, 0))
                if m2 >= m1 + 3:
                    starts.append((0, m2 - m1 - 3))
                rays = sl3._rays((m1, m2))
                assert [start for _, _, start, _ in rays] == [a + b for a, b in starts]
                for (family, key, start, _), w in zip(rays, starts):
                    assert sl3._ray_weight(family, key, start) == w, ((m1, m2), family)

    def test_raises_exactly_where_reference_peel_fails(self):
        # seeded recompositions, a third with one Weyl orbit perturbed and
        # a third with one removed; each stays Weyl-invariant, which
        # reference_peel does not check
        rng = random.Random(2323)
        rejected = 0
        for case in range(150):
            multiset = {
                (rng.randint(0, 6), rng.randint(0, 6)): rng.randint(1, 3)
                for _ in range(rng.randint(1, 3))
            }
            diagram = recompose(multiset)
            dominant = sorted(w for w in diagram if w[0] >= 0 and w[1] >= 0)
            w = rng.choice(dominant)
            orbit = set(sl3._weyl_orbit(*w))
            if case % 3 == 1:
                delta = rng.choice((-2, -1, 1, 2))
                for v in orbit:
                    diagram[v] = diagram.get(v, 0) + delta
            elif case % 3 == 2:
                for v in orbit:
                    del diagram[v]
            try:
                want = reference_peel(diagram)
            except AssertionError:
                rejected += 1
                with pytest.raises(InvalidCharacterError):
                    decompose(diagram)
            else:
                assert decompose(diagram) == want, case
        assert 50 < rejected < 120  # both outcomes, in numbers

    def test_ray_gaps_raise_exactly_where_reference_peel_fails(self):
        # seeded recompositions, in the odd cases with the Weyl orbit of one
        # weight removed, taken on a line top or a line bottom of one of the
        # highest weights (the weights of its rays), and sparse inputs of
        # one far orbit beside a trivial part: decompose must raise exactly
        # where reference_peel fails, and a message that names a weight the
        # diagram lacks must name a dominant weight absent from it
        rng = random.Random(2424)
        rejected = lacked = 0
        for case in range(160):
            if case % 8 == 7:
                top = 40 if case % 16 == 7 else 3
                far = (rng.randint(0, top), rng.randint(0, top))
                diagram = {w: 1 for w in sl3._weyl_orbit(*far)}
                diagram[(0, 0)] = diagram.get((0, 0), 0) + rng.randint(1, 10**6)
            else:
                multiset = {
                    (rng.randint(0, 8), rng.randint(0, 8)): rng.randint(1, 3)
                    for _ in range(rng.randint(1, 3))
                }
                diagram = recompose(multiset)
                if case % 2:
                    m1, m2 = rng.choice(sorted(multiset))
                    step = min(m1, m2) + 1
                    tops = [(m1 - 2 * k, m2 + k) for k in range(m1 // 2 + 1)]
                    tops += [(m1 + k, m2 - 2 * k) for k in range(1, m2 // 2 + 1)]
                    bottoms = [(a - step, b - step) for a, b in tops if a >= step and b >= step]
                    for w in sl3._weyl_orbit(*rng.choice(tops + bottoms)):
                        diagram.pop(w, None)
            try:
                want = reference_peel(diagram)
            except AssertionError:
                rejected += 1
                with pytest.raises(InvalidCharacterError) as info:
                    decompose(diagram)
                named = re.search(r"have weight \((\d+), (\d+)\), which the diagram lacks", str(info.value))
                if named:
                    lacked += 1
                    w = (int(named[1]), int(named[2]))
                    assert not diagram.get(w), (case, w)
            else:
                assert decompose(diagram) == want, case
        # both outcomes, and the ray-line guards among the rejections, in numbers
        assert 50 < rejected < 110 and lacked > 20, (rejected, lacked)

    def test_missing_weight_fails_where_its_event_lands(self):
        # the orbit of (2, 0) without that of (0, 1), the next weight on
        # V(2, 0)'s ray along i + 2j = 2, beside a trivial part: the sweep
        # never visits that ray line again, so it fails at the end, where
        # the line has not reached its wall, and not at the bookkeeping
        diagram = {(2, 0): 1, (-2, 2): 1, (0, -2): 1, (0, 0): 3}
        with pytest.raises(InvalidCharacterError, match=r"have weight \(0, 1\), which the diagram lacks"):
            decompose(diagram)

    @pytest.mark.parametrize(
        "hw, missing",
        [
            # (2, 1) lies between (4, 0) and (0, 2) on V(4, 0)'s top ray
            # along i + 2j = 4: the visit to (0, 2) skips a level of it
            pytest.param((4, 0), (2, 1), id="top-ray"),
            # V(7, 0)'s -1 events lie on its bottom ray along i + 2j = 4,
            # from (4, 0) through (2, 1) to (0, 2); the sweep reaches (0, 2)
            # before (1, 0), below (2, 1) on its line i - j
            pytest.param((7, 0), (2, 1), id="bottom-ray"),
            # weights on the (1, 1) line i = j, off every ray of hw: the line
            # holds multiplicity after its visit above the gap, so the next
            # visit on the line, or with none left the end of the sweep,
            # names the gap
            pytest.param((1, 1), (0, 0), id="line-end-V11"),
            pytest.param((2, 2), (1, 1), id="line-V22"),
            pytest.param((3, 3), (1, 1), id="line-V33"),
        ],
    )
    def test_gap_mid_sweep_names_the_missing_weight(self, hw, missing):
        # V(hw) without the orbit of one weight
        diagram = character(hw)
        for w in set(sl3._weyl_orbit(*missing)):
            del diagram[w]
        message = f"have weight {re.escape(str(missing))}, which the diagram lacks"
        with pytest.raises(InvalidCharacterError, match=message):
            decompose(diagram)

    def test_far_highest_weight_names_its_missing_weight(self):
        # one orbit far out beside a large trivial part: the sweep peels
        # the far weight and adds its three rays in O(1).  Where the far
        # weight's (1, 1) line runs through (0, 0), the visit there skips
        # the line's next weight and names it; otherwise the end-of-sweep
        # ray check names the highest weight the rays hold that the
        # diagram lacks, the first below the far weight on a top ray
        cases = {
            (10**6, 0): (999998, 1),  # on i + 2j = 10**6
            (0, 10**6): (1, 999998),  # on 2i + j = 10**6
            (10**6, 10**6): (999999, 999999),  # on i - j = 0, visited at (0, 0)
            (10**6, 3): (1000001, 1),  # on 2i + j = 2 * 10**6 + 3
        }
        for far, lacked in cases.items():
            diagram = {w: 1 for w in sl3._weyl_orbit(*far)}
            diagram[(0, 0)] = 10**18
            message = f"have weight {re.escape(str(lacked))}, which the diagram lacks"
            with pytest.raises(InvalidCharacterError, match=message):
                decompose(diagram)

    def test_rejects_name_a_weight_not_the_bookkeeping(self):
        # seeded recompositions, each with one to three Weyl orbits removed
        # or shifted by +-1 or +-2: decompose must raise exactly where
        # reference_peel fails, and every reject is one of the sweep's own
        # checks; the dimension bookkeeping is a backstop that none reaches
        rng = random.Random(2727)
        rejected = lacked = 0
        for case in range(300):
            multiset = {
                (rng.randint(0, 6), rng.randint(0, 6)): rng.randint(1, 3)
                for _ in range(rng.randint(1, 3))
            }
            diagram = recompose(multiset)
            for _ in range(rng.randint(1, 3)):
                dominant = sorted(w for w in diagram if w[0] >= 0 and w[1] >= 0)
                if not dominant:
                    break
                orbit = set(sl3._weyl_orbit(*rng.choice(dominant)))
                delta = rng.choice((None, -2, -1, 1, 2))
                for v in orbit:
                    if delta is None:
                        del diagram[v]
                    else:
                        diagram[v] += delta
            try:
                want = reference_peel(diagram)
            except AssertionError:
                rejected += 1
                with pytest.raises(InvalidCharacterError) as info:
                    decompose(diagram)
                assert "bookkeeping" not in str(info.value), case
                named = re.search(r"have weight \((\d+), (\d+)\), which the diagram lacks", str(info.value))
                if named:
                    lacked += 1
                    assert not diagram.get((int(named[1]), int(named[2]))), case
            else:
                assert decompose(diagram) == want, case
        assert 250 < rejected < 300 and lacked > 30, (rejected, lacked)

    def test_dominant_diagram_with_total(self):
        # the dominant part of the adjoint character, whose 8 weights sum
        # to its dimension
        dominant = {w: m for w, m in character((1, 1)).items() if w[0] >= 0 and w[1] >= 0}
        assert decompose(dominant, 8) == {(1, 1): 1}
        for total in (7, 9):
            with pytest.raises(InvalidCharacterError, match="^dimension bookkeeping failed$"):
                decompose(dominant, total)
        for w in ((-1, 2), (2, -1), (-1, -1)):
            with pytest.raises(InvalidCharacterError, match=re.escape(f"weight {w} of a dominant")):
                decompose({**dominant, w: 1}, 8)
        # a full diagram is no dominant one
        with pytest.raises(InvalidCharacterError, match="is not dominant"):
            decompose(character((1, 1)), 8)

    def test_rejects_a_total_that_is_not_a_nonnegative_int(self):
        # unchecked, each of these fails the dimension bookkeeping, or, as
        # 8.0, passes as 8
        dominant = {w: m for w, m in character((1, 1)).items() if w[0] >= 0 and w[1] >= 0}
        for total in (True, "8", 8.0, -8):
            message = f"total must be a nonnegative int, got {type(total).__name__} {total!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                decompose(dominant, total)
        assert decompose({}, 0) == {}

    @staticmethod
    def skewed_at(diagram, w):
        with pytest.raises(
            InvalidCharacterError, match=f"^{re.escape(f'diagram is not Weyl-invariant at weight {w}')}$"
        ):
            decompose(diagram)

    def test_not_weyl_invariant(self):
        self.skewed_at({(1, 0): 1}, (1, 0))

    # V(1, 1) is, in diagram order, (0, 0): 2 and the orbit (1, 1), (-1, 2),
    # (2, -1), (1, -2), (-2, 1), (-1, -1): 1.  The message names the first
    # weight in that order whose s1 or s2 image holds another multiplicity.
    @pytest.mark.parametrize(
        "changed, named",
        [((-1, 2), (1, 1)), ((2, -1), (1, 1)), ((1, -2), (-1, 2)), ((-2, 1), (2, -1)),
         ((-1, -1), (1, -2))],
    )
    def test_one_non_dominant_image_changed(self, changed, named):
        diagram = character((1, 1))
        diagram[changed] = 2
        self.skewed_at(diagram, named)

    def test_extra_weight_outside_every_orbit(self):
        # (-3, 1) is in no orbit of V(1, 1); its s1 image (3, -2) is missing
        self.skewed_at({**character((1, 1)), (-3, 1): 1}, (-3, 1))

    def test_zero_at_a_dominant_weight_whose_images_are_not(self):
        diagram = character((1, 1))
        diagram[(1, 1)] = 0
        self.skewed_at(diagram, (1, 1))

    def test_invariant_diagram_with_explicit_zeros(self):
        # zeros on and off the orbits, before and after the support
        diagram = {(2, 0): 0, **character((1, 1)), (-5, 2): 0, (3, -7): 0, (0, 0): 2}
        assert decompose(diagram) == {(1, 1): 1}
        assert decompose({(0, 0): 0, (1, -1): 0}) == {}

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
