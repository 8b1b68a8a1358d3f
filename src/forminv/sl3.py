"""Weight multiplicities of irreducible sl3 representations.

Weights are integer pairs (i, j) in fundamental-weight coordinates (the
eigenvalues of the two Cartan generators); ``_weyl_orbit`` holds the six
Weyl maps in them.

  * ``weight_multiplicity`` and ``character`` -- the signed Weyl
    alternation over the rank-2 partition function (``_alternation``);
  * ``e_lambda`` -- the paper's five-point functional ``FIVE_POINT`` on
    a weight diagram, which turns weight counts into invariant counts;
  * ``decompose`` -- peels a character into irreducible highest weights
    in one downward sweep (``_rays``): the peel route, the independent
    oracle against the counting, genfunc and pqbinom routes.

The sweep rests on the hexagon rule (Fulton-Harris, Representation
Theory, Lecture 13): the multiplicity of a dominant weight grows by one
per hexagonal shell of the weight diagram until the shells become
triangles.  ``character`` keeps the alternation on purpose, so that
decomposing a recomposed character checks the sweep against the
alternation rather than against its own formula.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

Weight = Tuple[int, int]
HighestWeight = Tuple[int, int]
WeightDiagram = Dict[Weight, int]
WeylImages = Tuple[Tuple[int, int, int], ...]
Ray = Tuple[int, int, int, int]  # (family, key, start level, sign): see ``_rays``


class InvalidCharacterError(ValueError):
    """The input diagram is not a nonnegative sum of irreducible characters."""


# The paper's five-point functional: weight (i, j) -> the coefficient of
# its multiplicity n(i, j) in a weight diagram.
FIVE_POINT: Dict[Weight, int] = {(0, 0): 1, (3, 0): 1, (0, 3): 1, (1, 1): -2, (2, 2): -1}


def _is_weight(w: object) -> bool:
    """Whether w is a tuple of two ints.  A bool, like any other int
    subclass, is not an int here."""
    return type(w) is tuple and len(w) == 2 and type(w[0]) is int and type(w[1]) is int


def _typed(w: object) -> str:
    """w for an error message, each part of a tuple with its type named:
    (I 1, int 0) for a pair whose first part is an int subclass I."""
    if type(w) is tuple:
        return "(" + ", ".join(f"{type(x).__name__} {x!r}" for x in w) + ")"
    return f"{type(w).__name__} {w!r}"


def _check_weight(w: Weight, name: str) -> None:
    if not _is_weight(w):
        raise ValueError(f"{name} must be a pair of ints, got {_typed(w)}")


def _check_dominant(lam: HighestWeight) -> None:
    _check_weight(lam, "highest weight")
    if lam[0] < 0 or lam[1] < 0:
        raise ValueError("highest weight components must be nonnegative")


def _weyl_orbit(a: int, b: int) -> Tuple[Weight, ...]:
    """w(a, b) for the six Weyl elements w, in fundamental-weight
    coordinates: identity, s1, s2, s1 s2, s2 s1, longest element.  The
    simple reflections are s1(a, b) = (-a, a + b) and
    s2(a, b) = (a + b, -b); the last three are the longest element's map
    (x, y) -> (-y, -x) applied to the first three, in reverse order."""
    return ((a, b), (-a, a + b), (a + b, -b), (b, -a - b), (-a - b, a), (-b, -a))


def _weyl_images(lam: HighestWeight) -> WeylImages:
    """(sign, w(lam + rho)) for the six Weyl elements w, in the order of
    ``_weyl_orbit`` (identity, s1, s2 first), as flat triples
    (sign, a, b) in fundamental-weight coordinates."""
    _check_dominant(lam)
    (a0, b0), (a1, b1), (a2, b2), (a3, b3), (a4, b4), (a5, b5) = _weyl_orbit(
        lam[0] + 1, lam[1] + 1
    )
    return ((1, a0, b0), (-1, a1, b1), (-1, a2, b2), (1, a3, b3), (1, a4, b4), (-1, a5, b5))


def _alternation(images: WeylImages, mu: Weight) -> int:
    """Sum over w of sign(w) * K(w(lam + rho) - (mu + rho)), rho = (1, 1).

    ``images`` comes from ``_weyl_images(lam)``: all six for any mu,
    or only the first three (identity, s1, s2) when mu is dominant.
    The argument of K is taken to simple-root coordinates
    (k1, k2) = ((2x + y)/3, (x + 2y)/3); K(k1, k2) = min(k1, k2) + 1 on
    the nonnegative quadrant of the root lattice and 0 elsewhere.  Every
    w(lam + rho) is lam + rho minus a nonnegative root combination, so
    all six arguments lie in one coset of the root lattice and none is
    above the identity's: when the identity term is 0, so is every other
    term.  At a dominant mu the s1 s2, s2 s1 and longest-element terms
    are 0: with lam + rho = (a, b) and mu + rho = (p, q), all >= 1, the
    s1 s2 term has k2 = -(2a + b + p + 2q)/3 and the other two have
    k1 = -(a + 2b + 2p + q)/3, both negative.

    ``decompose``'s sweep takes instead the closed form these three terms
    sum to at a dominant mu, the hexagon rule (``_rays``); ``character``
    keeps this function on purpose, as the sweep's independent check,
    and a test pins the rays against it.
    """
    ta, tb = mu[0] + 1, mu[1] + 1
    _, a, b = images[0]
    x, y = a - ta, b - tb
    n1, n2 = 2 * x + y, x + 2 * y
    if n1 % 3 or n1 < 0 or n2 < 0:
        return 0
    total = min(n1, n2) // 3 + 1
    for sign, a, b in images[1:]:
        x, y = a - ta, b - tb
        n1, n2 = 2 * x + y, x + 2 * y
        if n1 >= 0 and n2 >= 0:
            total += sign * (min(n1, n2) // 3 + 1)
    return total


def weight_multiplicity(lam: HighestWeight, mu: Weight) -> int:
    """Multiplicity of the weight mu in the irrep with highest weight lam,
    by the signed Weyl alternation over the sl3 partition function.
    Raises ValueError unless lam is a pair of nonnegative ints and mu a
    pair of ints (an int subclass, bool included, is not an int); for a
    pair that is not one of ints, the message names each part's type
    (``_typed``)."""
    images = _weyl_images(lam)
    _check_weight(mu, "weight")
    return _alternation(images, mu)


def _dimension(m1: int, m2: int) -> int:
    return (m1 + 1) * (m2 + 1) * (m1 + m2 + 2) // 2


def dimension(lam: HighestWeight) -> int:
    """The dimension of V(lam), by Weyl's dimension formula."""
    _check_dominant(lam)
    return _dimension(*lam)


def character(lam: HighestWeight) -> WeightDiagram:
    """Full weight -> multiplicity map of the irrep with highest weight lam.

    Multiplicities are Weyl-invariant, and every weight of the irrep is a
    Weyl image of a dominant weight mu = lam - k1 alpha1 - k2 alpha2 with
    k1, k2 >= 0.  The simple roots alpha1 = (2, -1) and alpha2 = (-1, 2)
    each lower i + j by 1, so the dominant support lies in the triangle
    i, j >= 0, i + j <= m1 + m2.  Every weight of the irrep also lies in
    lam's coset of the root lattice, where 2(m1 - i) + (m2 - j) is a
    multiple of 3, that is j = i - m1 + m2 mod 3; ``_alternation`` is 0
    off it at its first test.  So only the triangle's weights on that
    coset are evaluated, one j in three, and each nonzero multiplicity
    is written to the Weyl orbit of its weight.
    As every evaluated weight is dominant, only the identity, s1 and s2
    terms of the alternation are taken; each other term has a negative
    simple-root coordinate there, so is 0 (``_alternation``).  This
    stays the alternation, not ``decompose``'s hexagon-rule sweep, on
    purpose: ``decompose(character(...))`` then checks one against the
    other.
    """
    images = _weyl_images(lam)[:3]
    span = lam[0] + lam[1]
    out: WeightDiagram = {}
    for i in range(span + 1):
        for j in range((i - lam[0] + lam[1]) % 3, span - i + 1, 3):
            m = _alternation(images, (i, j))
            if m:
                for w in _weyl_orbit(i, j):
                    out[w] = m
    return out


def e_lambda(lam: HighestWeight) -> int:
    """The five-point functional FIVE_POINT on the weight diagram of lam.

    Equals 1 exactly for the trivial representation and 0 otherwise,
    which is what turns weight counts into invariant counts.  Every
    FIVE_POINT weight lies in the root lattice, and V(lam) has weights
    only in lam's coset of it, which is the lattice itself exactly when
    2 m1 + m2 is 0 mod 3 (``character``).  Off the lattice, two lam in
    three, every multiplicity read would be 0, so the functional is 0
    with no alternation evaluated; lam is checked first all the same.
    """
    _check_dominant(lam)
    if (2 * lam[0] + lam[1]) % 3:
        return 0
    return sum(c * weight_multiplicity(lam, mu) for mu, c in FIVE_POINT.items())


def _rays(hw: HighestWeight) -> Tuple[Ray, ...]:
    """Where the character of V(hw) enters ``decompose``'s sweep: its rays,
    as (family, key, start, sign), sign times its multiplicity g, and
    start the level i + j of the ray's first weight, which
    ``_ray_weight(family, key, start)`` names.

    Summed over the dominant mu = hw - k1 alpha1 - k2 alpha2, the hexagon
    rule's 1 + min(k1, k2, M), M = min(m1, m2), is
    (1 - (xy)^(M+1)) / ((1 - x)(1 - y)(1 - xy)) in x^k1 y^k2.  A step
    of (-1, -1) = -(alpha1 + alpha2) raises k1 and k2 by one, so on a
    line i - j = const, at t = min(k1, k2), the multiplicity 1 + min(t, M)
    has second differences +1 at t = 0, -1 at t = M + 1 and 0 elsewhere.
    Those events lie on rays: a ray of family 0 runs along the line
    i + 2j = key from its start by steps of -alpha1 = (-2, 1), one of
    family 1 along 2i + j = key by steps of -alpha2 = (1, -2), each down
    to the wall i or j in {0, 1}.  Both steps lower i + j by one, so a
    ray meets one weight per level.
    - The +g tops, the two boundary rays of the dominant hexagon:
      (m1 - 2k, m2 + k), k >= 0, from hw itself on i + 2j = m1 + 2 m2,
      and (m1 + k, m2 - 2k), k >= 1, from the next weight below hw on
      2i + j = 2 m1 + m2 (no dominant weight when m2 < 2).  Every line
      i - j through a dominant weight of V(hw) has its top on one of them.
    - The -g bottoms, the tops moved (M + 1)(1, 1) down where that is
      dominant: one ray, on i + 2j = m1 - m2 - 3 from (m1 - m2 - 3, 0)
      when m1 >= m2 + 3, on 2i + j = m2 - m1 - 3 from (0, m2 - m1 - 3)
      when m2 >= m1 + 3, and none otherwise.  No dominant weight of its
      line lies above its start.
    Every dominant weight of a ray is a weight of V(hw).
    """
    m1, m2 = hw
    tops = ((0, m1 + 2 * m2, m1 + m2, 1), (1, 2 * m1 + m2, m1 + m2 - 1, 1))
    if m1 >= m2 + 3:
        return tops + ((0, m1 - m2 - 3, m1 - m2 - 3, -1),)
    if m2 >= m1 + 3:
        return tops + ((1, m2 - m1 - 3, m2 - m1 - 3, -1),)
    return tops


def _ray_weight(family: int, key: int, level: int) -> Weight:
    """The weight at i + j = level of the ray line (family, key)."""
    if family:
        return key - level, 2 * level - key
    return 2 * level - key, key - level


def _lacks(w: Weight) -> InvalidCharacterError:
    return InvalidCharacterError(f"the peeled characters have weight {w}, which the diagram lacks")


def decompose(diagram: WeightDiagram, total: Optional[int] = None) -> Dict[HighestWeight, int]:
    """Resolve a character into irreducible highest weights.

    Peels on the dominant sector only: multiplicities at dominant
    weights determine the decomposition, and for a genuine character the
    dominant support of each constituent lies inside the residual's
    support.  Any negative residual (or a non-Weyl-invariant input, a
    weight that is not a pair of ints, or a multiplicity that is not an
    int) signals that the input was not a valid character.  One pass
    over every weight checks the types, counts the nonzero weights and
    collects the nonzero dominant ones.  Weyl invariance is then checked
    once per orbit: each such dominant weight's five other images
    (``_weyl_orbit``) must hold its multiplicity, and the orbits' sizes,
    6, 3 or 1 as the weight has no, one or two zero coordinates, must
    sum to the nonzero count, so no nonzero weight outside those orbits
    passes unseen.  On a failure the message names the first
    weight, in diagram order, that s1 or s2 moves to another
    multiplicity, a missing weight counting 0.

    With ``total`` given, ``diagram`` is the dominant part of a character
    whose multiplicities sum to ``total``: the pass checks the types and
    rejects a weight that is not dominant, and it makes no Weyl-invariance
    lookup, since the dominant part alone fixes the rest of a character.
    The dimension bookkeeping then compares against ``total``, which must
    be a nonnegative int (a bool is not one), else ValueError.

    One downward sweep: the pass records each nonzero dominant weight as
    (i + j, i, weight), and the records are sorted once, descending, and
    visited in that order (no two weights share (i + j, i)), which meets
    every line of direction (1, 1) from the top down.  Each line i - j
    keeps a running slope and value, the summed multiplicity there of
    the characters peeled so far; a visit moves it down one step by the
    slope, then adds to the slope the events at the weight.  Each peeled
    multiplicity 1 + min(k1, k2, M) never falls going down a line, so
    while a line's value is nonzero its next visit must be the weight one
    step of (-1, -1) lower, else the sweep fails and names that weight;
    a line whose value is 0 has slope 0, so a gap there moves nothing.
    The input's multiplicity there minus that value is
    the weight's own multiplicity g as a highest weight; where it is
    positive the weight is peeled.  Its character's events lie on three
    rays (``_rays``) that run to the walls, so the sweep keeps one running
    sum per ray line, i + 2j or 2i + j: a peel adds +-g to three of them
    in O(1), and the events at a visited weight are the sums of the two
    ray lines through it.  A ray line's weights are one level i + j
    apart, so each line also keeps the level of the weight it must visit
    next: while its sum is nonzero, a visit that skips a level, or a
    sweep that ends above the line's wall, fails and names the weight the
    diagram lacks.  The end of the sweep also names the next weight of a
    (1, 1) line that still holds multiplicity above its wall.  These
    checks reject a highest weight far out: the orbit of (10**6, 0)
    beside a trivial part is peeled in O(1), and the end of the sweep
    names (999998, 1), the next weight on its ray along i + 2j = 10**6.
    No weight is interpolated, so the sweep checks every dominant weight
    of the peeled characters, and the dimension bookkeeping stays only
    as a backstop.  ``character`` keeps the alternation as the sweep's
    independent check.
    """
    if total is not None and (type(total) is not int or total < 0):
        raise ValueError(f"total must be a nonnegative int, got {_typed(total)}")
    get = diagram.get
    dominant: List[Tuple[int, int, Weight]] = []  # (level i + j, i, weight)
    left = 0  # the nonzero weights not yet in a constant Weyl orbit
    for w, m in diagram.items():
        if not _is_weight(w):
            raise InvalidCharacterError(f"weight {_typed(w)} is not a pair of ints")
        if type(m) is not int:
            raise InvalidCharacterError(f"multiplicity {_typed(m)} at weight {w} is not an int")
        a, b = w
        if total is not None and (a < 0 or b < 0):
            raise InvalidCharacterError(f"weight {w} of a dominant diagram is not dominant")
        if m:
            left += 1
            if a >= 0 and b >= 0:
                dominant.append((a + b, a, w))
    if total is None:
        # Each Weyl orbit holds one dominant weight (a, b), and 6, 3 or 1
        # weights as both of a and b are nonzero, one is, or neither.  The
        # orbits of distinct dominant weights are disjoint, so the diagram
        # is invariant exactly when the constant orbits of the nonzero
        # dominant weights hold every nonzero weight: an orbit that is not
        # constant is not subtracted, and its own dominant weight is left.
        for _, _, (a, b) in dominant:
            _, s1, s2, s12, s21, s0 = _weyl_orbit(a, b)
            if get((a, b)) == get(s1) == get(s2) == get(s12) == get(s21) == get(s0):
                left -= 6 if a and b else 3 if a or b else 1
        if left:
            # name the first weight where s1 or s2 changes the multiplicity,
            # a missing weight counting 0: s1 and s2 generate the Weyl group,
            # and a weight outside the diagram whose image is in it is caught
            # at that image, as s1 and s2 are involutions
            for w, m in diagram.items():
                if {get(s, 0) for s in _weyl_orbit(*w)[1:3]} != {m}:
                    raise InvalidCharacterError(f"diagram is not Weyl-invariant at weight {w}")
            # s1 and s2 fix every weight, so an orbit size is wrong: fail all the same
            raise InvalidCharacterError(f"orbit sizes miss the nonzero weight count by {left}")
    lines: Dict[int, Tuple[int, int, int]] = {}  # i - j -> (i, slope, value) at its last visit
    # per family (0 along -alpha1, 1 along -alpha2): ray line key ->
    # [level of the weight it visits next, sum of the signed g on it]
    rays: Tuple[Dict[int, List[int]], Dict[int, List[int]]] = ({}, {})
    along1, along2 = rays
    out: Dict[HighestWeight, int] = {}
    dominant.sort(reverse=True)
    for level, i, w in dominant:
        j = level - i
        e = 0
        ray = along1.get(level + j)
        if ray is not None and ray[1]:
            if ray[0] != level:
                raise _lacks(_ray_weight(0, level + j, ray[0]))
            ray[0] = level - 1
            e = ray[1]
        ray = along2.get(level + i)
        if ray is not None and ray[1]:
            if ray[0] != level:
                raise _lacks(_ray_weight(1, level + i, ray[0]))
            ray[0] = level - 1
            e += ray[1]
        # a line not visited yet holds 0; one that holds multiplicity must
        # visit the weight one step of (-1, -1) below its last
        last, slope, value = lines.get(i - j, (0, 0, 0))
        if value and last != i + 1:
            raise _lacks((last - 1, last - 1 - i + j))
        value += slope
        g = get(w) - value - e
        if g < 0:
            if value + e:
                raise InvalidCharacterError(f"the peeled characters drive weight {w} negative")
            raise InvalidCharacterError(f"negative multiplicity {g} at dominant weight {w}")
        if g:
            out[w] = g
            for family, key, start, sign in _rays(w):
                if start == level:  # the ray from w itself: its event is here
                    e += sign * g
                    start -= 1
                ray = rays[family].setdefault(key, [start, 0])
                ray[0] = start
                ray[1] += sign * g
        lines[i - j] = (i, slope + e, value + e)
    # a ray line's wall weight is at level (key + 1) // 2
    lacked = [
        _ray_weight(family, key, level)
        for family in (0, 1)
        for key, (level, held) in rays[family].items()
        if held and level >= (key + 1) // 2
    ]
    # a line i - j = d last visited at i has a next weight in the chamber when i > 0 and i > d
    lacked += [(i - 1, i - 1 - d) for d, (i, _, value) in lines.items() if value and 0 < i > d]
    if lacked:
        raise _lacks(max(lacked, key=lambda w: (w[0] + w[1], w[0])))
    # every peeled highest weight is a dominant pair of ints: no check per weight
    if total is None:
        total = sum(diagram.values())
    if sum(g * _dimension(m1, m2) for (m1, m2), g in out.items()) != total:
        raise InvalidCharacterError("dimension bookkeeping failed")
    return out
