"""Property tests of the closed-form irreducibility test at large q.

The grid in test_core.py stops at q = 27.  Here hypothesis draws
classes at prime powers q < 10^4, anywhere in the Weil region or as a
product of two real Weil quadratics, and checks them against the
exhaustive factor search; and it draws such products at q < 10^6,
which must all be reducible.  The powers of 2 and 3 are drawn on their
own, since the two specials live there.
"""

from __future__ import annotations

from math import isqrt

from hypothesis import example, given, settings
from hypothesis import strategies as st

from weillab import is_irreducible_over_Q, make_weil_quartic

from oracles import brute_force_irreducible
from strategies import Q_BELOW_10_4, Q_BELOW_10_6, weil_pairs


@st.composite
def products_of_weil_quadratics(draw, q_strategy):
    """(q, a, b) of f = (t^2 - x1 t + q)(t^2 - x2 t + q) with |x1|, |x2| <= 2 sqrt(q)."""
    q = draw(q_strategy)
    bound = isqrt(4 * q)
    x1 = draw(st.integers(-bound, bound))
    x2 = draw(st.integers(-bound, bound))
    return q, -(x1 + x2), x1 * x2 + 2 * q


@settings(max_examples=200, deadline=None)
@given(st.one_of(weil_pairs(Q_BELOW_10_4), products_of_weil_quadratics(Q_BELOW_10_4)))
@example((2, 0, -4))
@example((3, 0, -6))
@example((8, 0, -16))  # (t^2 - 8)^2: reducible with a non-square discriminant of f+
@example((9, 0, -18))  # (t - 3)^2 (t + 3)^2
@example((9, -12, 54))  # (t - 3)^4
def test_closed_form_matches_exhaustive_search(qab):
    q, a, b = qab
    assert is_irreducible_over_Q(make_weil_quartic(q, a, b)) == brute_force_irreducible(q, a, b)


@settings(max_examples=300, deadline=None)
@given(products_of_weil_quadratics(Q_BELOW_10_6))
def test_products_of_weil_quadratics_are_reducible(qab):
    assert not is_irreducible_over_Q(make_weil_quartic(*qab))
