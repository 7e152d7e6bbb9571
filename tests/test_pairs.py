"""Range mode works per (+-a, b) pair, from candidate to written line.

enumerate_classes lists the members with a >= 0, each a > 0 entry
standing for its pair of quadratic twists, and builds and classifies
only the a = 0 candidates through make_weil_quartic and classify.
records_for_q builds their records; with_mirrors gives every member's
record, and pair_lines writes their lines, rendering each pair's cells
once.  All are checked against the direct routes: every a from
-isqrt(q - 1) to isqrt(q - 1) and every family B pattern, each sign
through make_weil_quartic and classify on its own, build_record on
every member, and csv_row or to_json_line on every record.
"""

from __future__ import annotations

import sys
from math import gcd, isqrt

import pytest
from hypothesis import example, given, settings

from weillab import (
    ClassKind,
    Family,
    InternalInvariantError,
    build_record,
    classify,
    enumerate_classes,
    make_weil_quartic,
    parse_label,
    render_label,
)
from weillab.classify import _family_b_patterns, _primorial_not_1_mod_3, prime_divisors_all_1_mod_3
from weillab.core import require_prime_power, trial_limit
from weillab.records import csv_row, pair_lines, records_for_q, to_json_line, with_mirrors

from oracles import prime_powers_up_to
from strategies import Q_BELOW_10_6

# the module itself: the package re-exports the function classify over its name
CLASSIFY = sys.modules["weillab.classify"]
RECORDS = sys.modules["weillab.records"]


def every_a_classes(q: int):
    """The members at q from every a >= 0 with a^2 < q, both signs, each built and classified."""
    p, r = require_prime_power(q)
    pairs = {(0, b) for b in _family_b_patterns(q, p, r)}
    for a in range(isqrt(q - 1) + 1):
        if prime_divisors_all_1_mod_3(q - a * a):
            pairs |= {(a, a * a - q), (-a, a * a - q)}
    members = [(f, classify(f)) for f in (make_weil_quartic(q, a, b) for a, b in sorted(pairs))]
    assert all(kind.family is not Family.OUTSIDE for _, kind in members), q
    return members


def check_pairs(q: int) -> None:
    members = every_a_classes(q)
    classes = enumerate_classes(q)
    assert classes == [(f, kind) for f, kind in members if f.a >= 0], q
    kinds = {(f.a, f.b): kind for f, kind in members}
    assert all(kind is kinds[-f.a, f.b] for f, kind in members if f.a < 0), q
    built = records_for_q(q)
    assert built == [build_record(f, kind) for f, kind in classes], q
    records = with_mirrors(built)
    assert records == [build_record(f, kind) for f, kind in members], q
    for record in records:
        if record.a < 0:
            f = parse_label(record.label)
            assert (f.q, f.a, f.b) == (record.q, record.a, record.b)
            assert render_label(f) == record.label
    check_lines(built)


def check_lines(built) -> None:
    """pair_lines writes what the single-record writers write for every record, filtered or not.

    Besides the records of one q and those a genus-3 filter keeps, the
    order-preserving sub-lists are those with every record of one
    splitting of 2 in K+ dropped, and the a > 0 records alone, so a
    splitting's text is rendered at whichever record first has it.
    """
    no_genus3 = [record for record in built if record.genus3_exists is False]
    splittings = {record.split2_Kplus for record in built if record.a}
    subsets = [
        built,
        [record for record in built if record.a],
        *([record for record in built if record.split2_Kplus != split2] for split2 in splittings),
    ]
    for fmt, line in (("csv", csv_row), ("json", to_json_line)):
        for sub in subsets:
            assert pair_lines(sub, fmt) == [line(record) for record in with_mirrors(sub)]
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
# q = 4^5: trial_limit(q) = 2 * trial_limit(q - 1), so every a > 0 candidate is tested
# against a longer prime product than its own bound takes
@example(2**10)
@example(2**19)
# q = (2^k - 1)^2 with 2^k - 1 prime: the largest odd square of bit length 2k
@example(9)
@example(49)
@example(961)
@example(16129)
def test_pairs_match_the_every_a_route_below_10_6(q):
    check_pairs(q)


@pytest.mark.parametrize("fmt", ["xml", "table", "CSV", ""])
def test_pair_lines_refuses_a_format_it_does_not_write(fmt):
    with pytest.raises(ValueError, match=repr(fmt)):
        pair_lines(records_for_q(7), fmt)


def zero_candidates(q: int) -> set[int]:
    """The b that enumerate_classes tries at a = 0: the family B patterns, and -q when q = 1 (mod 6)."""
    p, r = require_prime_power(q)
    return {*_family_b_patterns(q, p, r), *([-q] if q % 6 == 1 else [])}


@pytest.mark.parametrize("q", [2, 3, 7, 13, 25, 121, 243, 1024, 2401, 3**12, 999983])
def test_only_a_with_q_minus_a_squared_1_mod_6_are_tested(monkeypatch, q):
    # the a > 0 candidates are tested at q - a^2 = 1 (mod 6) only, each by one gcd with
    # the prime product of q; classify tests q once when (0, -q) is a candidate with
    # a^2 - b = q, as it is for every q = 1 (mod 6), and the gcd that
    # prime_divisors_all_1_mod_3 then makes has m = q, above every q - a^2
    tested, products = [], set()
    monkeypatch.setattr(CLASSIFY, "prime_divisors_all_1_mod_3", lambda m: tested.append(m) or prime_divisors_all_1_mod_3(m))

    def divided(m, n):
        if m < q:
            tested.append(m)
            products.add(n)
        return gcd(m, n)

    monkeypatch.setattr(CLASSIFY, "gcd", divided)
    enumerate_classes(q)
    assert products <= {_primorial_not_1_mod_3(trial_limit(q))}
    at_zero = [q] if -q in zero_candidates(q) else []
    assert tested == at_zero + [q - a * a for a in range(1, isqrt(q - 1) + 1) if (q - a * a) % 6 == 1]
    assert (q in tested) == (q % 6 == 1 or q in (2, 3**12))
    if q % 3 == 0:
        assert tested in ([], [q])


@pytest.mark.parametrize("q", [2, 7, 25, 121, 2401, 999983])
def test_only_members_with_a_at_least_0_are_built(monkeypatch, q):
    quartics, records = [], []
    monkeypatch.setattr(CLASSIFY, "make_weil_quartic", lambda *qab: quartics.append(qab[1]) or make_weil_quartic(*qab))
    monkeypatch.setattr(RECORDS, "build_record", lambda f, kind: records.append(f.a) or build_record(f, kind))
    built = records_for_q(q)
    # build_record runs once per entry, so once per member with a >= 0 and never for a < 0
    assert records == [record.a for record in built] and records
    assert quartics == [0] * len(zero_candidates(q))
    assert records.count(0) == len(zero_candidates(q)) - (q == 25)  # (0, -25) is Outside: 5 is 2 mod 3
    assert len(with_mirrors(built)) == 2 * len(built) - records.count(0)
    assert all(f.a >= 0 for f, _ in enumerate_classes(q))


def test_a_pattern_classified_outside_is_an_internal_error(monkeypatch):
    real = CLASSIFY.classify
    monkeypatch.setattr(CLASSIFY, "classify", lambda f: ClassKind(Family.OUTSIDE, reason="x") if f.b == 1 - 2 * f.q else real(f))
    with pytest.raises(InternalInvariantError, match="b=-13"):
        enumerate_classes(7)
