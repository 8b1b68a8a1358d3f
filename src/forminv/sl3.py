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


class InvalidCharacterError(ValueError):
    """The input diagram is not a nonnegative sum of irreducible characters."""


# The paper's five-point functional: weight (i, j) -> the coefficient of
# its multiplicity n(i, j) in a weight diagram.
FIVE_POINT: Dict[Weight, int] = {(0, 0): 1, (3, 0): 1, (0, 3): 1, (1, 1): -2, (2, 2): -1}


# Weyl group of sl3 acting on fundamental-weight coordinates, with signs.
_WEYL = (
    (1, lambda a, b: (a, b)),            # identity
    (-1, lambda a, b: (-a, a + b)),      # s1
    (-1, lambda a, b: (a + b, -b)),      # s2
    (1, lambda a, b: (b, -a - b)),       # s1 s2
    (1, lambda a, b: (-a - b, a)),       # s2 s1
    (-1, lambda a, b: (-b, -a)),         # longest element
)


def weight_multiplicity(lam: HighestWeight, mu: Weight) -> int:
    """Multiplicity of the weight mu in the irrep with highest weight lam.

    Signed alternation: sum over Weyl elements w of
    sign(w) * K(w(lam + rho) - (mu + rho)) with rho = (1, 1), where the
    argument is converted from fundamental-weight to simple-root
    coordinates (non-integral conversions contribute 0).
    """
    m1, m2 = lam
    if m1 < 0 or m2 < 0:
        raise ValueError("highest weight components must be nonnegative")
    la, lb = m1 + 1, m2 + 1
    ta, tb = mu[0] + 1, mu[1] + 1
    total = 0
    for sign, act in _WEYL:
        va, vb = act(la, lb)
        x, y = va - ta, vb - tb
        n1, n2 = 2 * x + y, x + 2 * y
        if n1 % 3 or n2 % 3:
            continue
        k1, k2 = n1 // 3, n2 // 3
        if k1 >= 0 and k2 >= 0:
            total += sign * (min(k1, k2) + 1)
    return total


def dimension(lam: HighestWeight) -> int:
    m1, m2 = lam
    if m1 < 0 or m2 < 0:
        raise ValueError("highest weight components must be nonnegative")
    return (m1 + 1) * (m2 + 1) * (m1 + m2 + 2) // 2


def character(lam: HighestWeight) -> WeightDiagram:
    """Full weight -> multiplicity map of the irrep with highest weight lam.

    The support lies in the box |i|, |j| <= m1 + m2 (the Weyl orbit of
    lam stays inside it and the support is its convex hull), so the box
    is scanned and zero multiplicities dropped.
    """
    m1, m2 = lam
    span = m1 + m2
    out: WeightDiagram = {}
    for i in range(-span, span + 1):
        for j in range(-span, span + 1):
            m = weight_multiplicity(lam, (i, j))
            if m:
                out[(i, j)] = m
    return out


def e_lambda(lam: HighestWeight) -> int:
    """The five-point functional FIVE_POINT on the weight diagram of lam.

    Equals 1 exactly for the trivial representation and 0 otherwise,
    which is what turns weight counts into invariant counts.
    """
    return sum(c * weight_multiplicity(lam, mu) for mu, c in FIVE_POINT.items())


def _check_weyl_invariant(diagram: WeightDiagram) -> None:
    for (a, b), m in diagram.items():
        for _, act in _WEYL:
            if diagram.get(act(a, b), 0) != m:
                raise InvalidCharacterError(
                    f"diagram is not Weyl-invariant at weight {(a, b)}"
                )


def decompose(diagram: WeightDiagram) -> Dict[HighestWeight, int]:
    """Resolve a character into irreducible highest weights.

    Peels on the dominant sector only: multiplicities at dominant
    weights determine the decomposition, and for a genuine character the
    dominant support of each constituent lies inside the residual's
    support.  Any negative residual (or a non-Weyl-invariant input)
    signals that the input was not a valid character.
    """
    _check_weyl_invariant(diagram)
    residual = {w: m for w, m in diagram.items() if w[0] >= 0 and w[1] >= 0}
    out: Dict[HighestWeight, int] = {}
    while residual:
        hw = max(residual, key=lambda w: (w[0] + w[1], w[0]))
        g = residual[hw]
        if g < 0:
            raise InvalidCharacterError(
                f"negative multiplicity {g} at dominant weight {hw}"
            )
        out[hw] = g
        for mu in list(residual):
            m = weight_multiplicity(hw, mu)
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
