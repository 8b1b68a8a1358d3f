"""Weight multiplicities of irreducible sl3 representations.

Weights are integer pairs (i, j) in fundamental-weight coordinates (the
eigenvalues of the two Cartan generators).  Multiplicities come from the
signed Weyl-group alternation over the rank-2 partition function, which
for sl3 has the closed form min(k1, k2) + 1 on the nonnegative quadrant
of the root lattice.

``decompose`` peels a character into irreducible highest weights; it is
the independent oracle against the counting and generating-function
routes for the trivial-representation multiplicity.
"""

from __future__ import annotations

from typing import Dict, Tuple

Weight = Tuple[int, int]
HighestWeight = Tuple[int, int]
WeightDiagram = Dict[Weight, int]
WeylImages = Tuple[Tuple[int, int, int], ...]


class InvalidCharacterError(ValueError):
    """The input diagram is not a nonnegative sum of irreducible characters."""


# The paper's five-point functional: weight (i, j) -> the coefficient of
# its multiplicity n(i, j) in a weight diagram.
FIVE_POINT: Dict[Weight, int] = {(0, 0): 1, (3, 0): 1, (0, 3): 1, (1, 1): -2, (2, 2): -1}


def _is_weight(w: object) -> bool:
    """Whether w is a tuple of two ints.  A bool, like any other int
    subclass, is not an int here."""
    return type(w) is tuple and len(w) == 2 and type(w[0]) is int and type(w[1]) is int


def _check_weight(w: Weight, name: str) -> None:
    if not _is_weight(w):
        raise ValueError(f"{name} must be a pair of ints, got {w!r}")


def _check_dominant(lam: HighestWeight) -> None:
    _check_weight(lam, "highest weight")
    if lam[0] < 0 or lam[1] < 0:
        raise ValueError("highest weight components must be nonnegative")


def _weyl_orbit(a: int, b: int) -> Tuple[Weight, ...]:
    """w(a, b) for the six Weyl elements w, in fundamental-weight
    coordinates: identity, s1, s2, s1 s2, s2 s1, longest element."""
    return (
        (a, b),  # identity
        (-a, a + b),  # s1
        (a + b, -b),  # s2
        (b, -a - b),  # s1 s2
        (-a - b, a),  # s2 s1
        (-b, -a),  # longest element
    )


def _weyl_images(lam: HighestWeight) -> WeylImages:
    """(sign, w(lam + rho)) for the six Weyl elements w, identity first,
    as flat triples (sign, a, b) in fundamental-weight coordinates."""
    _check_dominant(lam)
    (a0, b0), (a1, b1), (a2, b2), (a3, b3), (a4, b4), (a5, b5) = _weyl_orbit(
        lam[0] + 1, lam[1] + 1
    )
    return ((1, a0, b0), (-1, a1, b1), (-1, a2, b2), (1, a3, b3), (1, a4, b4), (-1, a5, b5))


def _alternation(images: WeylImages, mu: Weight) -> int:
    """Sum over w of sign(w) * K(w(lam + rho) - (mu + rho)), rho = (1, 1).

    ``images`` comes from ``_weyl_images(lam)``.  The argument of K is
    taken to simple-root coordinates (k1, k2) = ((2x + y)/3, (x + 2y)/3);
    K(k1, k2) = min(k1, k2) + 1 on the nonnegative quadrant of the root
    lattice and 0 elsewhere.  Every w(lam + rho) is lam + rho minus a
    nonnegative root combination, so all six arguments lie in one coset
    of the root lattice and none is above the identity's: when the
    identity term is 0, so is every other term.
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
    by the signed Weyl alternation over the sl3 partition function."""
    images = _weyl_images(lam)
    _check_weight(mu, "weight")
    return _alternation(images, mu)


def dimension(lam: HighestWeight) -> int:
    _check_dominant(lam)
    m1, m2 = lam
    return (m1 + 1) * (m2 + 1) * (m1 + m2 + 2) // 2


def character(lam: HighestWeight) -> WeightDiagram:
    """Full weight -> multiplicity map of the irrep with highest weight lam.

    Multiplicities are Weyl-invariant, and every weight of the irrep is a
    Weyl image of a dominant weight mu = lam - k1 alpha1 - k2 alpha2 with
    k1, k2 >= 0.  The simple roots alpha1 = (2, -1) and alpha2 = (-1, 2)
    each lower i + j by 1, so the dominant support lies in the triangle
    i, j >= 0, i + j <= m1 + m2.  Only those weights are evaluated, and
    each nonzero multiplicity is written to the Weyl orbit of its weight.
    """
    images = _weyl_images(lam)
    span = lam[0] + lam[1]
    out: WeightDiagram = {}
    for i in range(span + 1):
        for j in range(span - i + 1):
            m = _alternation(images, (i, j))
            if m:
                for w in _weyl_orbit(i, j):
                    out[w] = m
    return out


def e_lambda(lam: HighestWeight) -> int:
    """The five-point functional FIVE_POINT on the weight diagram of lam.

    Equals 1 exactly for the trivial representation and 0 otherwise,
    which is what turns weight counts into invariant counts.
    """
    return sum(c * weight_multiplicity(lam, mu) for mu, c in FIVE_POINT.items())


def _check_weyl_invariant(diagram: WeightDiagram) -> None:
    """Raise InvalidCharacterError unless the simple reflections s1 and s2
    fix every multiplicity, a missing weight counting 0.  They generate
    the Weyl group, and a weight outside the diagram whose image is in it
    is caught at that image, since s1 and s2 are involutions."""
    get = diagram.get
    for (a, b), m in diagram.items():
        orbit = _weyl_orbit(a, b)
        if get(orbit[1], 0) != m or get(orbit[2], 0) != m:
            raise InvalidCharacterError(
                f"diagram is not Weyl-invariant at weight {(a, b)}"
            )


def decompose(diagram: WeightDiagram) -> Dict[HighestWeight, int]:
    """Resolve a character into irreducible highest weights.

    Peels on the dominant sector only: multiplicities at dominant
    weights determine the decomposition, and for a genuine character the
    dominant support of each constituent lies inside the residual's
    support.  Any negative residual (or a non-Weyl-invariant input, a
    weight that is not a pair of ints, or a multiplicity that is not an
    int) signals that the input was not a valid character.

    The dominant weights are sorted once by (i + j, i), descending, and
    walked in that order: peeling only removes weights, so the first one
    still in the residual is its highest, and each highest weight's Weyl
    images are computed once for its whole scan.
    """
    for w, m in diagram.items():
        if not _is_weight(w):
            raise InvalidCharacterError(f"weight {w!r} is not a pair of ints")
        if type(m) is not int:
            raise InvalidCharacterError(f"multiplicity {m!r} at weight {w} is not an int")
    _check_weyl_invariant(diagram)
    residual = {w: m for w, m in diagram.items() if m and w[0] >= 0 and w[1] >= 0}
    out: Dict[HighestWeight, int] = {}
    for hw in sorted(residual, key=lambda w: (w[0] + w[1], w[0]), reverse=True):
        g = residual.get(hw)
        if g is None:
            continue
        if g < 0:
            raise InvalidCharacterError(
                f"negative multiplicity {g} at dominant weight {hw}"
            )
        out[hw] = g
        images = _weyl_images(hw)
        for mu in list(residual):
            m = _alternation(images, mu)
            if not m:
                continue
            v = residual[mu] - g * m
            if v < 0:
                raise InvalidCharacterError(
                    f"peeling {hw} drives weight {mu} negative"
                )
            if v:
                residual[mu] = v
            else:
                del residual[mu]
    if sum(g * dimension(l) for l, g in out.items()) != sum(diagram.values()):
        raise InvalidCharacterError("dimension bookkeeping failed")
    return out
