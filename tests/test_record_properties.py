"""Property test of the record builder over the Weil region at q < 10^6.

Any valid class builds a record without raising, its label parses back
to the class, and the record carries a genus-3 verdict exactly when the
class is a family member.  Its irreducible cell, which an Outside record
reads from the squarefree decomposition of disc(f+), is the public
irreducibility test's answer, and at q < BRUTE_FORCE_Q that of the
exhaustive factor search.  Uniform (a, b) almost never meets a family,
so half the draws follow the family patterns: b = a^2 - q, with a
moved down to the nearest trace whose q - a^2 has only prime divisors
1 mod 3 (family A), and a = 0 with b in {1-2q, 2-2q, -q, -2q} (family B
and, at q = 2, 3, the two specials).
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from weillab import build_record, is_irreducible_over_Q, make_weil_quartic, parse_label

from oracles import brute_force_irreducible
from strategies import Q_BELOW_10_6, family_pattern_pairs, weil_pairs

# the exhaustive factor search takes milliseconds below this q, and grows with q
BRUTE_FORCE_Q = 1000


# 300 examples, or more under a deeper Hypothesis profile (tests/conftest.py)
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(st.one_of(family_pattern_pairs(), weil_pairs(Q_BELOW_10_6)))
@example((2, 0, -4))
@example((3, 0, -6))
@example((9, 0, -9))
# the reducible Outside shapes
@example((25, -18, 131))  # (t^2 - 9t + 25)^2: disc(f+) = 0
@example((4, 0, -8))  # (t - 2)^2 (t + 2)^2: disc(f+) = 64, a square
@example((3, 0, -3))  # (t^2 - 3t + 3)(t^2 + 3t + 3): disc(f+) = 36, a square
@example((5, 0, -10))  # (t^2 - 5)^2: disc(f+) = 80 is no square, a = 0 and b = -2q
def test_any_valid_class_builds_a_record(qab):
    f = make_weil_quartic(*qab)
    record = build_record(f)
    assert parse_label(record.label) == f
    assert (record.genus3_exists is None) == (record.class_kind == "Outside")
    assert record.irreducible == is_irreducible_over_Q(f)
    if f.q < BRUTE_FORCE_Q:
        assert record.irreducible == brute_force_irreducible(*qab)
