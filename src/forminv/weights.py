"""Exact lattice-point counting for weight multiplicities of coefficient
monomials.

``omega_reader`` counts monomials of the binary form's coefficient ring
by weight, every degree up to its order from one DP, and
``omega_binary`` reads one count from it; ``c_ternary``,
``solution_count_grid`` and ``weight_table`` do the same for ternary
forms, where a degree-n monomial in the variables a_{r,s} (r+s <= d)
has weight sums w1 = sum r*alpha_{r,s} and w2 = sum s*alpha_{r,s}.

Every count comes from one kernel, ``_packed_layers``: an
unbounded-knapsack dynamic program whose count layers are each packed
into a single Python int (Kronecker substitution applied to the DP
state).  Cell k of layer c takes ``slot`` bits at offset k*slot and
holds a number of degree-c monomials.  Adding a variable whose weight
moves a cell by ``shift`` bits is one step per layer, for c = 1..n,

    layer[c] = (layer[c] + (layer[c-1] << shift)) & mask[c],

where ``mask[c]`` keeps the cells of layer c inside its window.  A cell
is read back with one shift and one mask.

Every packed route in the package (this kernel's grid and omega layers,
``counts``' genfunc expansion and pqbinom pieces, ``qbinom``'s
pq-binomial table, binary qbinom's row included) takes the same slot
width: the bit length of a bound on the count its coefficients are parts
of (``monomial_count(d, n)`` for the ternary routes, ``comb(n+d, d)``
for the binary ones).  No addition carries into the next slot, because
every slot of every int they add or multiply holds, before any mask, a
nonnegative part of one count that the bound covers: a grid or omega step adds two parts of one
cell's count, or adds a count to a slot that the last mask zeroed; a
raised layer's right shift only drops rows; a genfunc or q-Pascal step
adds two parts of one coefficient; and a pqbinom piece product, sum of
products or convolution sum holds part of one coefficient of the full
series.  So no slot exceeds the bound, which ``bound.bit_length()`` bits
hold.

``omega_reader`` packs one weight per slot, and the binary variable
alpha_p of weight p shifts by p*slot (alpha_0 by 0).  The
ternary grid packs weight sums (w1, w2) by rows of w1, where a row holds
w2cap + 1 cells followed by d zero padding slots, so
``row = (w2cap + 1 + d) * slot``.  Layer c holds a window of rows
lows[c]..top, and cell (w1, w2) sits at offset
``(w1 - lows[c])*row + w2*slot``; variable a_{r,s} moves a cell by
r*row + s*slot.  A shift by s <= d moves cells past w2cap only into the
padding of their own row, and the mask clears them, and every row above
the layer's top, before the next step.  Layer c starts
lows[c] - lows[c-1] rows above layer c-1, so a step into it moves by
that many rows less, a right shift where the total is negative; the
rows it pushes below the bottom are below lows[c].

``c_ternary`` and ``weight_table`` build the plain box, the window
0..w1cap in every layer.  ``solution_count_grid`` builds the window its
caller gives (``_grid``); the caller derives it from the cells it will
read, and nothing here knows which cells those are.

Results are exact Python ints at any size.  Nothing is cached: a grid or
a binary DP is rebuilt on every call.
"""

from __future__ import annotations

from math import comb
from operator import ge, le
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

Weight = Tuple[int, int]


class CountGrid:
    """Packed count layers of the ternary DP (layout in the module
    docstring): ``cell(c, w1, w2)`` is the number of degree-c monomials
    with weight sums (w1, w2).  Layer c holds the rows lows[c]..tops[c]
    of w1 and the cells w2 <= w2cap of each.  The plain box
    (``_count_layers``) starts every layer at row 0 and ends it at w1cap.
    """

    __slots__ = ("layers", "lows", "tops", "w2cap", "slot", "row", "mask")

    def __init__(
        self,
        layers: Tuple[int, ...],
        lows: List[int],
        tops: List[int],
        w2cap: int,
        slot: int,
        row: int,
    ):
        self.layers = layers
        self.lows = lows
        self.tops = tops
        self.w2cap = w2cap
        self.slot = slot
        self.row = row
        self.mask = (1 << slot) - 1

    def cell(self, c: int, w1: int, w2: int) -> int:
        """IndexError outside the layers 0..n, the rows of layer c or
        0 <= w2 <= w2cap, where the grid holds no counts."""
        lows = self.lows
        if not (0 <= c < len(lows) and lows[c] <= w1 <= self.tops[c] and 0 <= w2 <= self.w2cap):
            raise IndexError(f"cell ({w1}, {w2}) is outside layer {c} of the grid")
        return (self.layers[c] >> ((w1 - lows[c]) * self.row + w2 * self.slot)) & self.mask


def _check_dn(d: int, n: int, *others: int) -> None:
    """Raise ValueError unless every argument is an int and d, n are
    nonnegative.  A bool, like any other int subclass, is not an int here,
    as in ``sl3``."""
    for value in (d, n, *others):
        if type(value) is not int:
            raise ValueError(f"expected an int, got {type(value).__name__} {value!r}")
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
    partitions of w into at most n parts, each part <= d.  Read from
    ``omega_reader(d, n)`` at min(w, d*n - w) <= d*n/2, by the reflection
    w <-> d*n - w; a weight outside 0..d*n reads as 0.

    Importable from ``forminv.weights`` only, not from the package root;
    it stays while ``perfbench/tracer.py`` requires it.
    """
    _check_dn(d, n, w)
    return omega_reader(d, n)(n, min(w, d * n - w))


def omega_reader(d: int, order: int) -> Callable[[int, int], int]:
    """coeff(n, w) = omega_binary(d, n, w) for every n <= order and
    w <= d*order//2, and 0 for w < 0, from one DP.

    The DP runs over the variables alpha_0..alpha_d, alpha_p of weight p,
    so layer n holds the degree-n monomials counted by weight, one slot
    per weight up to d*order//2: alpha_p shifts by p*slot, alpha_0 by 0.
    Every slot of layer n is at most the number comb(n + d, d) of
    degree-n monomials, so the slot is the bit length of
    comb(order + d, d) (the slot rule, module docstring).  Raises
    ValueError unless d and order are nonnegative ints.
    """
    _check_dn(d, order)
    slot = comb(order + d, d).bit_length()
    shifts = [p * slot for p in range(d + 1)]
    mask = (1 << ((d * order // 2 + 1) * slot)) - 1
    layers = _packed_layers([(shifts, [mask] * (order + 1))], order)
    cell = (1 << slot) - 1

    def coeff(n: int, w: int) -> int:
        return (layers[n] >> (w * slot)) & cell if w >= 0 else 0

    return coeff


def _packed_layers(
    groups: Iterable[Tuple[Sequence[int], List[int]]], n: int, drops: Sequence[int] = ()
) -> List[int]:
    """Layers 0..n of the packed DP (module docstring).  ``groups`` yields
    the variables' shifts in groups, each with the masks of layers 0..n
    that its steps apply.

    Each of the last len(drops) layers starts higher than the layer
    before it: a cell sits drops[i] bits lower in the i-th of them than
    it would in the layer before, so a step into that layer moves by
    shift - drops[i] bits, to the right where that is negative.  The
    other layers take the plain left shift."""
    layers = [1] + [0] * n
    split = n + 1 - len(drops)
    head, tail = range(1, split), list(enumerate(drops, split))
    for shifts, masks in groups:
        for shift in shifts:
            prev = layers[0]
            for c in head:
                prev = layers[c] = (layers[c] + (prev << shift)) & masks[c]
            for c, drop in tail:
                move = shift - drop
                prev = prev << move if move >= 0 else prev >> -move
                prev = layers[c] = (layers[c] + prev) & masks[c]
    return layers


def _grid(
    d: int, n: int, w2cap: int, lows: List[int], tops: List[List[int]]
) -> CountGrid:
    """The packed ternary DP on a window (module docstring): layer c is
    stored from row lows[c] of w1, and cut at row tops[r][c] while the
    variables a_{r,s} are folded in (``variables`` order, r ascending).

    The window contract: lows holds n + 1 layers, and tops d + 1 rows of
    n + 1 layers each; lows[0] = 0, as layer 0 is the DP's seed, the
    origin, which no mask touches; lows[c] never falls as c grows, as the
    layers stored from a row above 0 end the list (``_packed_layers``'
    drops); and tops[r][c] never grows with r, as every mask is cut from
    the height of tops[0].  A layer whose top is below its floor is empty.
    ``solution_count_grid`` checks the contract, and ``_count_layers``
    keeps it by construction."""
    slot = monomial_count(d, n).bit_length()
    row = (w2cap + 1 + d) * slot
    height = max([top - low + 1 for top, low in zip(tops[0], lows)])
    # each row: w2cap + 1 cells, then d padding slots; the row count
    # doubles per step, and the rows past height are shifted out
    full, filled = (1 << ((w2cap + 1) * slot)) - 1, 1
    while filled < height:
        full |= full << (filled * row)
        filled *= 2
    full >>= (filled - height) * row
    rows, masks = [0] * (n + 1), [0] * (n + 1)

    def groups() -> Iterator[Tuple[Sequence[int], List[int]]]:
        for r, cut in enumerate(tops):
            # a layer's mask is built only when its row count changes
            for c in range(n + 1):
                h = cut[c] - lows[c] + 1
                if h != rows[c]:
                    rows[c], masks[c] = h, full if h == height else full >> ((height - h) * row)
            yield range(r * row, r * row + (d - r + 1) * slot, slot), masks

    # the layers stored from a row above 0 end the list, as lows never falls
    drops = [(hi - lo) * row for lo, hi in zip(lows, lows[1:]) if hi]
    layers = _packed_layers(groups(), n, drops)
    return CountGrid(tuple(layers), lows, tops[-1], w2cap, slot, row)


def _count_layers(d: int, n: int, w1cap: int, w2cap: int) -> CountGrid:
    """The packed DP on the plain box: layers 0..n with weight sums up
    to (w1cap, w2cap)."""
    return _grid(d, n, w2cap, [0] * (n + 1), [[w1cap] * (n + 1)] * (d + 1))


def solution_count_grid(
    d: int, n_max: int, lows: List[int], tops: List[List[int]], w2cap: int
) -> CountGrid:
    """The counting grid on a window its caller derives from the cells it
    will read (``counts.Reads.window``): layer c, c = 0..n_max, holds the
    rows lows[c] <= w1 <= tops[-1][c] and the cells w2 <= w2cap of each,
    and is cut at row tops[r][c] while the variables a_{r,s} are folded
    in (``_grid``).  Raises ValueError, naming the broken rule, unless the
    window keeps the window contract (``_grid``).  ``cell`` raises
    IndexError outside the window.  A cell is exact if every cell it comes
    from along the DP lies in the window; no weight falls along the DP, so
    a window that holds every cell from which a read cell can be reached
    is exact at the read cells.
    """
    _check_dn(d, n_max)
    if len(lows) != n_max + 1:
        raise ValueError("lows must hold n_max + 1 layers")
    if len(tops) != d + 1 or set(map(len, tops)) != {n_max + 1}:
        raise ValueError("tops must hold d + 1 rows of n_max + 1 layers")
    if lows[0] != 0 or not all(map(le, lows, lows[1:])):
        raise ValueError("lows must start at 0 and never fall")
    if not all(all(map(ge, top, cut)) for top, cut in zip(tops, tops[1:])):
        raise ValueError("tops[r][c] must never grow with r")
    return _grid(d, n_max, w2cap, lows, tops)


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


def weight_table(d: int, n: int, dominant: bool = False) -> Dict[Weight, int]:
    """The weight diagram of the degree-n monomials: weight (i, j) ->
    multiplicity, nonzero entries only; with ``dominant``, only its
    dominant part, the weights with i, j >= 0.

    A monomial with weight sums (w1, w2) sits at weight
    (i, j) = (n*d - 2*w1 - w2, w1 - w2); the map is injective, so each
    grid cell lands on its own weight.  Only the triangle
    w1 + w2 <= d*n is read: past it w0 = d*n - w1 - w2 < 0, and the cell
    is 0.  The weight is dominant exactly when w2 <= w1 and
    2*w1 + w2 <= d*n, so the dominant part is read from the rows
    w1 <= d*n//2 at w2 <= min(w1, d*n - 2*w1) <= d*n//3, and built on
    that box alone: no weight falls along the DP, so every cell of the
    box is exact.  A test pins the full table's s1 and s2 invariance, and
    its dominant part against the dominant build.
    """
    _check_dn(d, n)
    wmax = d * n
    w1cap, w2cap = (wmax // 2, wmax // 3) if dominant else (wmax, wmax)
    grid = _count_layers(d, n, w1cap, w2cap)
    layer, slot, cell_mask = grid.layers[n], grid.slot, grid.mask
    row_mask = (1 << grid.row) - 1
    entries: Dict[Weight, int] = {}
    for w1 in range(w1cap + 1):
        row = (layer >> (w1 * grid.row)) & row_mask
        for w2 in range((min(w1, wmax - 2 * w1) if dominant else wmax - w1) + 1):
            c = (row >> (w2 * slot)) & cell_mask
            if c:
                entries[(n * d - 2 * w1 - w2, w1 - w2)] = c
    return entries


def monomial_count(d: int, n: int) -> int:
    """Number of degree-n monomials in the (d+1)(d+2)/2 variables."""
    _check_dn(d, n)
    return comb(n + num_variables(d) - 1, n)
