"""Property test of the record builder over the Weil region at q < 10^6.

Any valid class builds a record without raising, its label parses back
to the class, and the record carries a genus-3 verdict exactly when the
class is a family member.  Uniform (a, b) almost never meets a family,
so half the draws follow the family patterns: b = a^2 - q, with a
moved down to the nearest trace whose q - a^2 has only prime divisors
1 mod 3 (family A), and a = 0 with b in {1-2q, 2-2q, -q, -2q} (family B
and, at q = 2, 3, the two specials).
"""

from __future__ import annotations

from math import isqrt

from hypothesis import example, given, settings
from hypothesis import strategies as st

from weillab import build_record, make_weil_quartic, parse_label

from oracles import oracle_all_prime_divisors_1_mod_3
from strategies import Q_BELOW_10_6, weil_pairs


@st.composite
def family_pattern_pairs(draw):
    """(q, a, b) on a family pattern; valid Weil classes, members or not."""
    q = draw(Q_BELOW_10_6)
    if draw(st.booleans()):
        # a^2 - 4b + 8q = 12q - 3a^2 >= 0 bounds a; the other inequalities always hold
        a = draw(st.integers(0, isqrt(4 * q)))
        if a * a < q:
            a = next((x for x in range(a, -1, -1) if oracle_all_prime_divisors_1_mod_3(q - x * x)), a)
        a *= draw(st.sampled_from((1, -1)))
        return q, a, a * a - q
    return q, 0, draw(st.sampled_from((1 - 2 * q, 2 - 2 * q, -q, -2 * q)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(family_pattern_pairs(), weil_pairs(Q_BELOW_10_6)))
@example((2, 0, -4))
@example((3, 0, -6))
@example((9, 0, -9))
def test_any_valid_class_builds_a_record(qab):
    f = make_weil_quartic(*qab)
    record = build_record(f)
    assert parse_label(record.label) == f
    assert (record.genus3_exists is None) == (record.class_kind == "Outside")
