"""Hilbert-series numerators: a structural oracle that shares nothing with
the routes.

The invariant rings are Cohen-Macaulay (Hochster-Roberts) and factorial,
so Gorenstein (Murthy).  Over a homogeneous system of parameters of
degrees e, the Poincare series is h(t) / prod (1 - t^e) with h palindromic
and nonnegative (Stanley), and when the generic stabilizer is finite h has
degree sum(e) - dim V (Knop).  Only the denominators are pinned here; each
numerator is derived from a route's series.
"""

import pytest

from forminv.counts import poincare_series

# (form, d) -> hsop degrees e
HSOP = {
    ("ternary", 3): (4, 6),
    ("ternary", 4): (3, 6, 9, 12, 15, 18, 27),  # Dixmier
    ("binary", 3): (4,),
    ("binary", 4): (2, 3),
    ("binary", 5): (4, 8, 12),
    ("binary", 6): (2, 4, 6, 10),
    ("binary", 7): (4, 8, 12, 12, 20),
    ("binary", 8): (2, 3, 4, 5, 6, 7),
}

# Conics and binary quadratics: the generic stabilizer is infinite, and the
# ring is generated by the discriminant, so the numerator is 1 although
# sum(e) - dim V is -3 and -1.
POLYNOMIAL_RINGS = {("ternary", 2): (3,), ("binary", 2): (2,)}

# Each route's series order: pqbinom, the slow route, takes seconds at
# n = 130, so it runs to 60, below the far end of the degree-75 quartic
# numerator, whose palindrome it checks only in part.
ORDERS = {"counting": 130, "genfunc": 130, "pqbinom": 60, "omega": 80, "qbinom": 80}
ROUTES = {
    "ternary": ("counting", "genfunc", "pqbinom"),
    "binary": ("omega", "qbinom"),
}
CASES = [
    (form, d, method)
    for form, d in [*HSOP, *POLYNOMIAL_RINGS]
    for method in ROUTES[form]
]


def dim_v(form, d):
    return (d + 1) * (d + 2) // 2 if form == "ternary" else d + 1


def numerator(values, e):
    """The series values[0..N] times prod (1 - t^e), up to t^N."""
    h = list(values)
    for step in e:
        for n in range(len(h) - 1, step - 1, -1):
            h[n] -= h[n - step]
    return h


def numerator_faults(values, e, degree):
    """Where the numerator of ``values`` over prod (1 - t^e) breaks the
    Gorenstein shape of the given degree, as far as the series reaches: a
    negative coefficient, a coefficient past the degree, or a pair
    h[k] != h[degree - k] inside the series."""
    h = numerator(values, e)
    top = len(h) - 1
    faults = [("negative", k) for k in range(top + 1) if h[k] < 0]
    faults += [("past degree", k) for k in range(degree + 1, top + 1) if h[k]]
    faults += [
        ("not palindromic", k)
        for k in range(max(0, degree - top), min(degree, top) + 1)
        if h[k] != h[degree - k]
    ]
    return faults


def series(form, d, method):
    return [v for _, v in poincare_series(form, d, ORDERS[method], method=method)]


@pytest.mark.parametrize("form, d, method", CASES)
def test_numerator_is_gorenstein(form, d, method):
    values = series(form, d, method)
    if (form, d) in HSOP:
        e = HSOP[form, d]
        degree = sum(e) - dim_v(form, d)
    else:
        e, degree = POLYNOMIAL_RINGS[form, d], 0
    assert numerator_faults(values, e, degree) == []
    assert numerator(values, e)[0] == 1


def test_the_quartic_numerator():
    h = numerator(series("ternary", 4, "counting"), HSOP["ternary", 4])
    assert max(k for k, c in enumerate(h) if c) == 75 == sum(HSOP["ternary", 4]) - 15
    assert sum(h) == 50


# The ternary numerators end at degree 0 (cubics) and 75 (quartics), well
# inside the series, so counting and genfunc are also read far past their
# end, where every coefficient must be 0.  test_one_changed_value_fails
# stays at ORDERS: its cost grows with the square of the order.
LONG_ORDER = 200


@pytest.mark.parametrize("d", [3, 4])
def test_ternary_numerators_to_a_long_order(d):
    e = HSOP["ternary", d]
    degree = sum(e) - dim_v("ternary", d)
    counting, genfunc = (
        numerator([v for _, v in poincare_series("ternary", d, LONG_ORDER, method=m)], e)
        for m in ("counting", "genfunc")
    )
    assert counting == genfunc
    assert len(counting) == LONG_ORDER + 1 and counting[degree] == 1
    assert not any(counting[degree + 1:])


@pytest.mark.parametrize("d, h1", [(7, 88), (8, 5)])
def test_binary_septic_and_octic_numerators(d, h1):
    # both numerators end well inside the omega series: degree 48 and 18
    e = HSOP["binary", d]
    h = numerator(series("binary", d, "omega"), e)
    assert max(k for k, c in enumerate(h) if c) == sum(e) - dim_v("binary", d)
    assert sum(h) == h1


def test_polynomial_rings_break_the_degree_rule():
    # their numerator is 1 (test_numerator_is_gorenstein), of degree 0
    for (form, d), e in POLYNOMIAL_RINGS.items():
        assert sum(e) - dim_v(form, d) < 0


@pytest.mark.parametrize("form, d, method", [c for c in CASES if c[:2] in HSOP])
def test_one_changed_value_fails(form, d, method):
    values = series(form, d, method)
    e = HSOP[form, d]
    degree = sum(e) - dim_v(form, d)
    for n in range(len(values)):
        for delta in (1, -1):
            changed = values[:n] + [values[n] + delta] + values[n + 1:]
            assert numerator_faults(changed, e, degree), (n, delta)
