"""Exact lattice-point counting for weight multiplicities of coefficient
monomials.

``omega_binary`` counts monomials of the binary form's coefficient ring
by weight; ``c_ternary``, ``solution_count_grid`` and ``weight_table`` do
the same for ternary forms, where a degree-n monomial in the variables
a_{r,s} (r+s <= d) has weight sums w1 = sum r*alpha_{r,s} and
w2 = sum s*alpha_{r,s}.

Every count comes from one kernel, ``_packed_layers``: an
unbounded-knapsack dynamic program whose count layers are each packed
into a single Python int (Kronecker substitution applied to the DP
state).  Cell k of layer c takes ``slot`` bits at offset k*slot and
holds a number of degree-c monomials.  Adding a variable whose weight
moves a cell by ``shift`` bits is one step per layer, for c = 1..n,

    layer[c] = (layer[c] + (layer[c-1] << shift)) & mask,

where ``mask`` keeps the cells inside the caps.  No addition carries
into the next cell: every cell, padding included, holds a nonnegative
count of monomials of degree at most n, and ``slot`` is one bit wider
than a bound on that count (``monomial_count(d, n)`` for the ternary
grid; ``comb(n+d, d)`` for the binary layers, their sum included).  A
cell is read back with one shift and one mask.

``omega_binary`` packs one weight per slot and shifts by part*slot.  The
ternary grid packs weight sums (w1, w2) at offset ``w1*row + w2*slot``,
where a w1 row holds w2cap + 1 cells followed by d zero padding slots,
so ``row = (w2cap + 1 + d) * slot``; variable a_{r,s} shifts by
r*row + s*slot.  A shift by s <= d moves cells past w2cap only into the
padding of their own row, and the mask clears them before the next step.

Results are exact Python ints at any size.  Nothing is cached: a grid is
rebuilt on every call.
"""

from __future__ import annotations

from math import comb
from typing import Dict, Iterable, List, Tuple

Weight = Tuple[int, int]


class CountGrid:
    """Packed count layers of the ternary DP (layout in the module
    docstring): ``cell(c, w1, w2)`` is the number of degree-c monomials
    with weight sums (w1, w2).
    """

    __slots__ = ("layers", "w1cap", "w2cap", "slot", "row")

    def __init__(
        self, layers: Tuple[int, ...], w1cap: int, w2cap: int, slot: int, row: int
    ):
        self.layers = layers
        self.w1cap = w1cap
        self.w2cap = w2cap
        self.slot = slot
        self.row = row

    def cell(self, c: int, w1: int, w2: int) -> int:
        """Zero below the origin; IndexError beyond the caps, where the
        grid holds no counts."""
        if w1 < 0 or w2 < 0:
            return 0
        if w1 > self.w1cap or w2 > self.w2cap:
            raise IndexError(f"cell ({w1}, {w2}) is outside the grid")
        return (self.layers[c] >> (w1 * self.row + w2 * self.slot)) & (
            (1 << self.slot) - 1
        )


def _check_dn(d: int, n: int, *others: int) -> None:
    """Raise ValueError unless every argument is an int (a bool is not)
    and d, n are nonnegative."""
    for value in (d, n, *others):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"expected an int, got {value!r}")
    if d < 0 or n < 0:
        raise ValueError("d and n must be nonnegative")


def variables(d: int) -> List[Weight]:
    """Index pairs (r, s) with r+s <= d of the coefficient variables."""
    _check_dn(d, 0)
    return [(r, s) for r in range(d + 1) for s in range(d - r + 1)]


def num_variables(d: int) -> int:
    _check_dn(d, 0)
    return (d + 1) * (d + 2) // 2


def omega_binary(d: int, n: int, w: int) -> int:
    """Number of nonnegative (alpha_0..alpha_d) with sum n and weight sum w.

    alpha_0 absorbs the unused count, so this is the number of ways to
    pick alpha_1..alpha_d with total count <= n and weighted sum w:
    partitions of w into at most n parts, each part <= d.  Layer c packs
    the partitions into exactly c parts, one slot per weight up to w
    (by the reflection w <-> d*n - w, at most d*n/2).
    """
    _check_dn(d, n, w)
    if w < 0 or w > d * n:
        return 0
    w = min(w, d * n - w)
    slot = comb(n + d, d).bit_length() + 1
    mask = (1 << ((w + 1) * slot)) - 1
    layers = _packed_layers((part * slot for part in range(1, d + 1)), n, mask)
    return (sum(layers) >> (w * slot)) & ((1 << slot) - 1)


def _packed_layers(shifts: Iterable[int], n: int, mask: int) -> List[int]:
    """Layers 0..n of the packed DP (module docstring), one variable per
    shift."""
    layers = [1] + [0] * n
    for shift in shifts:
        for c in range(1, n + 1):
            layers[c] = (layers[c] + (layers[c - 1] << shift)) & mask
    return layers


def _count_layers(d: int, n: int, w1cap: int, w2cap: int) -> CountGrid:
    """The packed DP: layers 0..n with weight sums up to (w1cap, w2cap)."""
    slot = monomial_count(d, n).bit_length() + 1
    row = (w2cap + 1 + d) * slot
    # most significant row first: d padding slots, then w2cap + 1 cells
    mask = int(("0" * (d * slot) + "1" * ((w2cap + 1) * slot)) * (w1cap + 1), 2)
    layers = _packed_layers((r * row + s * slot for r, s in variables(d)), n, mask)
    return CountGrid(tuple(layers), w1cap, w2cap, slot, row)


def solution_count_grid(d: int, n_max: int) -> CountGrid:
    """Shared grid serving every c-count with d*n/3-sized targets, n <= n_max.

    Capped at w = d*n_max//3 + 1, which covers all five weight targets
    of the invariant-count formula for every n <= n_max.
    """
    _check_dn(d, n_max)
    cap = d * n_max // 3 + 1
    return _count_layers(d, n_max, cap, cap)


def c_ternary(d: int, n: int, i: int, j: int) -> int:
    """Multiplicity of the weight (i, j) among degree-n monomials.

    This is the number of nonnegative solutions of
        sum r*alpha_{r,s} = (d*n - (i-j)) / 3,
        sum s*alpha_{r,s} = (d*n - (i+2j)) / 3,
        sum   alpha_{r,s} = n.
    Returns 0 whenever a right-hand side is non-integral, negative, or
    larger than d*n.
    """
    _check_dn(d, n, i, j)
    num1 = d * n - (i - j)
    num2 = d * n - (i + 2 * j)
    if num1 % 3 or num2 % 3:
        return 0
    w1, w2 = num1 // 3, num2 // 3
    if w1 < 0 or w2 < 0 or w1 > d * n or w2 > d * n:
        return 0
    return _count_layers(d, n, w1, w2).cell(n, w1, w2)


def weight_table(d: int, n: int) -> Dict[Weight, int]:
    """The weight diagram of the degree-n monomials: weight (i, j) ->
    multiplicity, nonzero entries only.

    A monomial with weight sums (w1, w2) sits at weight
    (i, j) = (n*d - 2*w1 - w2, w1 - w2); the map is injective, so each
    grid cell lands on its own weight.
    """
    _check_dn(d, n)
    wmax = d * n
    grid = _count_layers(d, n, wmax, wmax)
    layer, slot, cell_mask = grid.layers[n], grid.slot, (1 << grid.slot) - 1
    row_mask = (1 << grid.row) - 1
    entries: Dict[Weight, int] = {}
    for w1 in range(wmax + 1):
        row = (layer >> (w1 * grid.row)) & row_mask
        for w2 in range(wmax + 1):
            c = (row >> (w2 * slot)) & cell_mask
            if c:
                entries[(n * d - 2 * w1 - w2, w1 - w2)] = c
    return entries


def monomial_count(d: int, n: int) -> int:
    """Number of degree-n monomials in the (d+1)(d+2)/2 variables."""
    _check_dn(d, n)
    return comb(n + num_variables(d) - 1, n)
