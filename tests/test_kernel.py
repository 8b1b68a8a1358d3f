"""Invariants by their definition: a kernel oracle.

An invariant of degree n of a form of degree d is a degree-n polynomial
in the form's coefficients, of weight zero, that the raising operators
annihilate.  So the number of invariants is the dimension of the
zero-weight space less the rank of the raising operators on it:

  * ternary: nu_d(n) = dim W_0 - rank [E12; E23], where E12 = x d/dy and
    E23 = y d/dz act on the coefficients as derivations;
  * binary: gamma_d(n) = dim W_{dn/2} - rank E, where E = x d/dy.

Each coefficient a is the monomial x^i y^j z^k (x^i y^(d-i) for a binary
form) of the form's degree-d space, and a degree-n polynomial in them is
a multiset of n such monomials, held as a sorted tuple of their indices.
x d/dy sends x^i y^j z^k to j x^(i+1) y^(j-1) z^k, and y d/dz sends it to
k x^i y^(j+1) z^(k-1); on a product each acts factor by factor.  The rank
is exact, by fraction-free integer elimination.

This module shares no code with ``forminv``: it imports only ``count``,
to compare.
"""

from math import gcd

import pytest

from forminv import count


def ternary_monomials(d):
    """The exponents (i, j, k), i + j + k = d, of the degree-d monomials."""
    return [(i, j, d - i - j) for i in range(d + 1) for j in range(d - i + 1)]


def weight_space(weights, n, target):
    """Every multiset of n indices into ``weights`` (tuples of ints >= 0),
    as a sorted tuple, whose weights sum to ``target``."""
    found = []
    dims = range(len(target))
    top = max(map(max, weights))

    def extend(start, chosen, left, rest):
        if left == 0:
            found.append(tuple(chosen))
            return
        # the factors still to choose after this one reach at most top each
        most = top * (left - 1)
        for m in range(start, len(weights)):
            after = [rest[t] - weights[m][t] for t in dims]
            if 0 <= min(after) and max(after) <= most:
                chosen.append(m)
                extend(m, chosen, left - 1, after)
                chosen.pop()

    extend(0, [], n, list(target))
    return found


def derivation(product, moves):
    """The image of one product of monomials under the derivation that
    sends monomial m to ``moves[m] = (coefficient, image index)`` (to 0
    if m is not a key), factor by factor, as {product: coefficient}.
    Each distinct factor moves to a distinct product."""
    image = {}
    for m in set(product).intersection(moves):
        c, target = moves[m]
        rest = list(product)
        rest.remove(m)
        image[tuple(sorted(rest + [target]))] = product.count(m) * c
    return image


def rank(vectors):
    """The rank of sparse integer vectors ({key: int}), by fraction-free
    elimination: each vector is reduced, its largest key first, against
    the pivot rows kept so far, each step scaled to clear that key's
    entry and divided by the row's content, until it is 0 or its largest
    key has no pivot row, and it becomes that key's pivot row."""
    pivots = {}  # key -> a row whose largest key it is
    for vec in vectors:
        row = {k: v for k, v in vec.items() if v}
        while row:
            key = max(row)
            pivot = pivots.get(key)
            if pivot is None:
                pivots[key] = row
                break
            g = gcd(pivot[key], row[key])
            a, b = pivot[key] // g, row[key] // g
            if a != 1:
                row = {k: a * v for k, v in row.items()}
            for k, v in pivot.items():
                x = row.get(k, 0) - b * v
                if x:
                    row[k] = x
                else:
                    del row[k]
            g = gcd(*row.values())
            if g > 1:
                row = {k: v // g for k, v in row.items()}
    return len(pivots)


def ternary_kernel_count(d, n):
    """nu_d(n) = dim W_0 - rank [E12; E23] on the zero-weight space."""
    if d * n % 3:
        return 0
    mons = ternary_monomials(d)
    index = {e: m for m, e in enumerate(mons)}
    e12 = {m: (j, index[i + 1, j - 1, k]) for m, (i, j, k) in enumerate(mons) if j}
    e23 = {m: (k, index[i, j + 1, k - 1]) for m, (i, j, k) in enumerate(mons) if k}
    w = d * n // 3
    space = weight_space(mons, n, (w, w, w))
    # E12 and E23 land in different weight spaces, so their images are
    # products that never coincide
    images = [derivation(v, e12) | derivation(v, e23) for v in space]
    return len(space) - rank(images)


def binary_kernel_count(d, n):
    """gamma_d(n) = dim W_{dn/2} - rank E on the middle weight space."""
    if d * n % 2:
        return 0
    e = {i: (d - i, i + 1) for i in range(d)}
    space = weight_space([(i,) for i in range(d + 1)], n, (d * n // 2,))
    return len(space) - rank([derivation(v, e) for v in space])


# The sizes a kernel prototype matched against the routes, but d = 4 only
# to n = 6: at n = 9 its zero-weight space holds 6992 products, and the
# rank takes about 5 s.  The largest here, 2204 products at d = 3, n = 12
# and 2485 at d = 5, n = 6, take under a second each.
TERNARY_SIZES = [(3, 12), (4, 6), (5, 6), (6, 5), (7, 3)]


@pytest.mark.parametrize("d, n_max", TERNARY_SIZES)
def test_ternary_kernel_matches_every_route(d, n_max):
    for n in range(n_max + 1):
        want = ternary_kernel_count(d, n)
        for method in ("counting", "genfunc", "pqbinom", "peel"):
            assert count("ternary", d, n, method) == want, (d, n, method)


@pytest.mark.parametrize("d", range(1, 9))
def test_binary_kernel_matches_every_route(d):
    for n in range(9):
        want = binary_kernel_count(d, n)
        for method in ("omega", "qbinom"):
            assert count("binary", d, n, method) == want, (d, n, method)
