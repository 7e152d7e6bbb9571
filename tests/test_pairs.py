"""Range mode works per (+-a, b) pair, from candidate to written line.

enumerate_classes classifies the members with a >= 0, builds only the
a = 0 ones through make_weil_quartic, and mirrors each (a, b) with a > 0
to (-a, b) with the same kind.  records_for_q builds the records of the
members with a >= 0; with_mirrors gives every member's record, and
pair_lines writes their lines, rendering each pair's cells once.  All are
checked against the direct routes: every a from 0 to isqrt(q - 1) and
every family B pattern, each through make_weil_quartic and
_classify_matched, build_record on every member, and csv_row or
to_json_line on every record.
"""

from __future__ import annotations

import sys
from math import isqrt

import pytest
from hypothesis import example, given, settings

from weillab import build_record, enumerate_classes, make_weil_quartic, parse_label, render_label
from weillab.classify import _classify_matched, _family_b_patterns, prime_divisors_all_1_mod_3
from weillab.core import require_prime_power
from weillab.records import csv_row, pair_lines, records_for_q, to_json_line, with_mirrors

from oracles import prime_powers_up_to
from strategies import Q_BELOW_10_6

# the module itself: the package re-exports the function classify over its name
CLASSIFY = sys.modules["weillab.classify"]
RECORDS = sys.modules["weillab.records"]


def every_a_classes(q: int):
    """The members at q from every a >= 0 with a^2 < q, both signs, each built and classified."""
    p, r = require_prime_power(q)
    in_a = {}
    for a in range(isqrt(q - 1) + 1):
        b = a * a - q
        if prime_divisors_all_1_mod_3(-b):
            in_a[a, b] = in_a[-a, b] = True
    patterns = _family_b_patterns(q, p, r)
    for b in patterns:
        in_a.setdefault((0, b), False)
    members = []
    for a, b in sorted(in_a):
        f = make_weil_quartic(q, a, b)
        members.append((f, _classify_matched(f, in_a[a, b], patterns.get(b) if a == 0 else None)))
    return members


def check_pairs(q: int) -> None:
    classes = enumerate_classes(q)
    assert classes == every_a_classes(q), q
    kinds = {(f.a, f.b): kind for f, kind in classes}
    assert all(kind is kinds[-f.a, f.b] for f, kind in classes if f.a < 0), q
    built = records_for_q(q)
    assert built == [build_record(f, kind) for f, kind in classes if f.a >= 0], q
    records = with_mirrors(built)
    assert records == [build_record(f, kind) for f, kind in classes], q
    for record in records:
        if record.a < 0:
            f = parse_label(record.label)
            assert (f.q, f.a, f.b) == (record.q, record.a, record.b)
            assert render_label(f) == record.label
    check_lines(built)


def check_lines(built) -> None:
    """pair_lines writes what the single-record writers write for every record, filtered or not."""
    no_genus3 = [record for record in built if record.genus3_exists is False]
    for fmt, line in (("csv", csv_row), ("json", to_json_line)):
        assert pair_lines(built, fmt) == [line(record) for record in with_mirrors(built)]
        assert pair_lines(no_genus3, fmt) == [
            line(record) for record in with_mirrors(built) if record.genus3_exists is False
        ]


def test_pairs_match_the_every_a_route_up_to_5000():
    for q in prime_powers_up_to(5000):
        check_pairs(q)


@settings(max_examples=60, deadline=None)
@given(Q_BELOW_10_6)
@example(2)
@example(3)
@example(3**5)
@example(3**12)
@example(2401)
@example(2**10)
@example(2**19)
def test_pairs_match_the_every_a_route_below_10_6(q):
    check_pairs(q)


@pytest.mark.parametrize("q", [2, 3, 7, 13, 243, 1024, 2401, 3**12, 999983])
def test_only_a_with_q_minus_a_squared_1_mod_6_are_tested(monkeypatch, q):
    tested = []
    monkeypatch.setattr(CLASSIFY, "prime_divisors_all_1_mod_3", lambda m: tested.append(m) or prime_divisors_all_1_mod_3(m))
    enumerate_classes(q)
    assert tested == [q - a * a for a in range(isqrt(q - 1) + 1) if (q - a * a) % 6 == 1]
    if q % 3 == 0:
        assert tested == []


@pytest.mark.parametrize("q", [2, 7, 2401, 999983])
def test_only_members_with_a_at_least_0_are_built(monkeypatch, q):
    quartics, records = [], []
    monkeypatch.setattr(CLASSIFY, "make_weil_quartic", lambda *qab: quartics.append(qab[1]) or make_weil_quartic(*qab))
    monkeypatch.setattr(RECORDS, "build_record", lambda f, kind: records.append(f.a) or build_record(f, kind))
    built = records_for_q(q)
    assert records == [record.a for record in built] and min(records) == 0
    assert quartics == [0] * records.count(0)
    assert len(with_mirrors(built)) == 2 * len(built) - records.count(0)
