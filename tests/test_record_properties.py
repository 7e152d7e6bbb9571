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

from hypothesis import example, given, settings
from hypothesis import strategies as st

from weillab import build_record, make_weil_quartic, parse_label

from strategies import Q_BELOW_10_6, family_pattern_pairs, weil_pairs


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
