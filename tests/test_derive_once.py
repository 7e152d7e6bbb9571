"""build_record derives each per-class quantity once and passes it on.

The record's fields must equal what the single-function public calls
give on their own, and one record of a family A or B member must make
exactly one squarefree decomposition and no irreducibility test once
its class key is warm; an Outside record makes the same, reading its
irreducible cell from that decomposition, and classify builds no table
of family B patterns for an a = 0 class.  Per record only the head is worked out, the
discriminant c^2 * d of f+ for every kind, with d deciding the splitting
of 2 in K+ for a family A or B member; the 2-adic data, the genus-3
verdict, the irreducibility test and the other cells a class decides
are worked out once per class key, and the per-record checks still run
on a warm key.  The splitting is checked against the 2-adic class of
the discriminant, which no production path reads.
"""

from __future__ import annotations

import sys
from collections import Counter

import pytest

from weillab import (
    ClassKind,
    DegenerateDiscriminant,
    InternalInvariantError,
    Split2,
    build_record,
    curve_shape_constraints,
    fplus_discriminant,
    genus3_verdict,
    is_irreducible_over_Q,
    make_weil_quartic,
    render_label,
    squarefree_part,
    two_adic_data,
)
from weillab import records
from weillab.classify import Family, _family_b_patterns, classify, prime_divisors_all_1_mod_3

from oracles import oracle_split2, trial_squarefree
from strategies import CLASS_KEY_FIRST_MEMBERS, family_members, kind_of


def test_record_fields_equal_single_function_path():
    checked = 0
    for f, kind in family_members(512):
        record = build_record(f, kind)
        delta = fplus_discriminant(f)
        assert record.fplus_disc == delta
        assert (record.c, record.d) == squarefree_part(delta)
        assert record.irreducible == is_irreducible_over_Q(f)
        verdict = genus3_verdict(f, kind)
        assert record.genus3_exists == verdict.genus3_curve_exists
        assert record.deg4_polarisation == verdict.deg4_polarisation_exists
        assert record.rule == verdict.rule
        if kind.is_irreducible_family:
            assert record.split2_Kplus == two_adic_data(f, kind).split2_Kplus.value
            assert record.shape2_K == str(two_adic_data(f, kind).shape2_K)
        else:
            assert record.split2_Kplus is None and record.shape2_K is None
        assert build_record(f) == record
        checked += 1
    assert checked == 798  # members with q <= 512


def _count_calls(monkeypatch, *functions) -> Counter:
    """Wrap each function in every weillab module that binds it; return the call counter."""
    counts: Counter = Counter()
    modules = [m for name, m in sorted(sys.modules.items()) if name == "weillab" or name.startswith("weillab.")]
    for fn in functions:
        def counted(*args, _fn=fn, **kwargs):
            counts[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, key, counted)
    return counts


@pytest.mark.parametrize(
    "q, a, b, family",
    [
        (8, 1, -7, Family.PIRR_A),
        (7, 0, -7, Family.PIRR_A),
        (7, 0, -13, Family.PIRR_B),
        (9, 0, -16, Family.PIRR_B),
    ],
)
def test_one_squarefree_part_and_irreducibility_test_per_record(monkeypatch, q, a, b, family):
    f = make_weil_quartic(q, a, b)
    kind = classify(f)
    assert kind.family is family
    monkeypatch.setattr(records, "_MEMBER_CELLS", {})
    build_record(f, kind)  # warms the class key, whatever ran before
    counts = _count_calls(monkeypatch, squarefree_part, is_irreducible_over_Q)
    build_record(f, kind)
    assert counts["squarefree_part"] == 1
    assert counts["is_irreducible_over_Q"] == 0
    counts.clear()
    build_record(f)  # classify reads irreducibility from the coefficients
    assert counts["squarefree_part"] == 1
    assert counts["is_irreducible_over_Q"] == 0


@pytest.mark.parametrize("q, a, b", [(8, 1, -7), (7, 0, -13)])
def test_a_cold_class_key_decomposes_the_discriminant_three_times(monkeypatch, q, a, b):
    # build_record once for the head, and two_adic_data and genus3_verdict once each
    # for the cells of the key, which also test irreducibility once against the kind
    f, kind = kind_of(q, a, b)
    monkeypatch.setattr(records, "_MEMBER_CELLS", {})
    counts = _count_calls(monkeypatch, squarefree_part, is_irreducible_over_Q, two_adic_data, genus3_verdict)
    build_record(f, kind)
    assert counts == Counter(squarefree_part=3, two_adic_data=1, genus3_verdict=1, is_irreducible_over_Q=1)


def test_range_mode_tests_irreducibility_once_per_class_key(monkeypatch):
    monkeypatch.setattr(records, "_MEMBER_CELLS", {})
    counts = _count_calls(monkeypatch, is_irreducible_over_Q)
    records.records_for_q(2401)
    records.records_for_q(999983)
    assert counts["is_irreducible_over_Q"] == len(records._MEMBER_CELLS) == 6


@pytest.mark.parametrize("q", [2401, 999983])
def test_range_mode_derives_what_a_q_shares_once(monkeypatch, q):
    # once the class keys are warm, every member goes through build_record once; only the
    # a = 0 members go through classify, which tests the prime divisors of q once when
    # (0, -q) is a candidate, as it is for every q = 1 (mod 6); the a > 0 candidates share
    # one prime product, and each record makes one squarefree decomposition and takes
    # delta from its coefficients, with no fplus_discriminant call
    records.records_for_q(q)
    counts = _count_calls(
        monkeypatch, build_record, prime_divisors_all_1_mod_3, squarefree_part, is_irreducible_over_Q, fplus_discriminant
    )
    built = records.records_for_q(q)
    at_zero = sum(record.a == 0 for record in built)
    assert 0 < at_zero < len(built)
    assert counts == Counter(
        build_record=len(built), prime_divisors_all_1_mod_3=int(q % 6 == 1), squarefree_part=len(built)
    )
    assert counts["fplus_discriminant"] == 0


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("q", [999983, 2**19])
def test_range_mode_renders_what_a_q_and_its_splitting_of_2_share_once(monkeypatch, q, fmt):
    # once the class keys are warm, build_record writes each label from q, a and b with no
    # render_label call; only the a = 0 records look up their class text record by record,
    # in the single-record writers, and the a > 0 records take their class text once per
    # splitting of 2 in K+ (q = 2^19: the p = 2 class keys)
    records.records_for_q(q)
    counts = _count_calls(monkeypatch, records._class_text, render_label)
    built = records.records_for_q(q)
    lines = records.pair_lines(built, fmt)
    at_zero = sum(record.a == 0 for record in built)
    splittings = {record.split2_Kplus for record in built if record.a}
    assert len(lines) == 2 * len(built) - at_zero
    assert 0 < at_zero and len(splittings) < len(built) - at_zero
    assert counts["_class_text"] <= len(splittings) + at_zero
    assert counts["render_label"] == 0


def test_a_kind_its_irreducibility_test_contradicts_fails_at_a_cold_class_key(monkeypatch):
    monkeypatch.setattr(records, "_MEMBER_CELLS", {})
    f = make_weil_quartic(7, 0, -13)  # irreducible, given a special's kind
    with pytest.raises(InternalInvariantError, match="irreducibility test"):
        build_record(f, ClassKind(Family.SPECIAL_Q2, "(q,b)=(2,-4)"))
    assert records._MEMBER_CELLS == {}


def test_outside_record_tests_irreducibility_once(monkeypatch):
    # the irreducible cell is read from the one squarefree decomposition of disc(f+)
    f = make_weil_quartic(7, 1, 1)
    counts = _count_calls(monkeypatch, squarefree_part, is_irreducible_over_Q)
    record = build_record(f)
    assert record.class_kind == "Outside"
    assert counts["squarefree_part"] == 1
    assert counts["is_irreducible_over_Q"] == 0


@pytest.mark.parametrize(
    "q, a, b, expected",
    [
        (2, 0, -2, ClassKind(Family.PIRR_B, "b=-q")),  # 2 - 2q = -q: only the b = -q pattern applies
        (2, 0, -3, ClassKind(Family.PIRR_B, "b=1-2q")),
        (2, 0, -4, ClassKind(Family.SPECIAL_Q2, "(q,b)=(2,-4)")),
        (7, 0, -12, ClassKind(Family.PIRR_B, "b=2-2q")),
        (9, 0, -9, ClassKind(Family.PIRR_B, "b=-q")),
        (7, 0, -7, ClassKind(Family.PIRR_A)),
        (7, 0, -14, ClassKind(Family.OUTSIDE, reason="b-not-in-weil-restriction-list")),
        (4, 0, -4, ClassKind(Family.OUTSIDE, reason="prime-divisor-of-b-not-1-mod-3")),
    ],
)
def test_classify_at_a_0_builds_no_table_of_patterns(monkeypatch, q, a, b, expected):
    f = make_weil_quartic(q, a, b)
    counts = _count_calls(monkeypatch, _family_b_patterns)
    assert classify(f) == expected
    assert counts["_family_b_patterns"] == 0


def test_classify_shares_one_outside_kind_per_reason():
    pairs = [(7, 1, 1), (7, 2, 1), (7, 0, 3), (7, 0, 5), (4, 0, -4), (16, 0, -16), (7, 3, 2), (7, 3, 3)]
    kinds = [classify(make_weil_quartic(*qab)) for qab in pairs]
    assert all(kind.family is Family.OUTSIDE for kind in kinds)
    by_reason = {kind.reason: kind for kind in kinds}
    assert len(by_reason) == 4
    assert all(kind is by_reason[kind.reason] for kind in kinds)


@pytest.mark.parametrize(
    "q, a, b, calls",
    [
        (8, 1, -7, 1),  # PirrA
        (7, 0, -13, 1),  # PirrB
        (2, 0, -4, 0),  # SpecialQ2
        (3, 0, -6, 0),  # SpecialQ3
        (7, 1, 1, 0),  # Outside
    ],
)
def test_one_two_adic_data_call_per_family_record(monkeypatch, q, a, b, calls):
    monkeypatch.setattr(records, "_MEMBER_CELLS", {})
    f = make_weil_quartic(q, a, b)
    kind = classify(f)
    counts = _count_calls(monkeypatch, two_adic_data)
    first = build_record(f, kind)
    assert build_record(f, kind) == first  # the second build meets a warm key
    assert counts["two_adic_data"] == calls


def test_verdict_and_cells_derived_once_per_class_key(monkeypatch):
    monkeypatch.setattr(records, "_MEMBER_CELLS", {})
    counts = _count_calls(monkeypatch, genus3_verdict, curve_shape_constraints, two_adic_data)
    firsts = []
    member_cells = records._member_cells
    monkeypatch.setattr(records, "_member_cells", lambda f, kind: firsts.append((f.q, f.a, f.b)) or member_cells(f, kind))
    for f, kind in family_members(64):
        build_record(f, kind)
    # the cells of each key come from its first member, in the order the keys are met
    assert list(zip(records._MEMBER_CELLS, firsts)) == list(CLASS_KEY_FIRST_MEMBERS.items())
    assert counts["genus3_verdict"] == counts["curve_shape_constraints"] == len(CLASS_KEY_FIRST_MEMBERS)
    assert counts["two_adic_data"] == sum(kind.is_irreducible_family for kind, *_ in CLASS_KEY_FIRST_MEMBERS)


def test_member_checks_run_on_a_warm_class_key(monkeypatch):
    monkeypatch.setattr(records, "_MEMBER_CELLS", {})
    warm = build_record(make_weil_quartic(19, 0, -19))
    assert (warm.class_kind, warm.split2_Kplus, warm.p % 2, warm.a) == ("PirrA", "Split", 1, 0)
    # delta = 36 = 6^2 has d = 1, and the check runs though a PirrA key is warm
    square = make_weil_quartic(3, 0, -3)
    assert fplus_discriminant(square) == 36
    with pytest.raises(DegenerateDiscriminant, match="square discriminant"):
        build_record(square, ClassKind(Family.PIRR_A))
    # (t^2-9t+25)^2: delta = 0 has no squarefree part
    double = make_weil_quartic(25, -18, 131)
    assert fplus_discriminant(double) == 0
    with pytest.raises(DegenerateDiscriminant, match="is not positive"):
        build_record(double, ClassKind(Family.PIRR_A))


def test_splitting_beyond_q_2_to_36_from_the_record_and_two_adic_data():
    # delta = 16q - 4 = 2^41 - 4 = 2^2 * (2^39 - 1) lies above the old 2^40 ceiling
    f, kind = kind_of(2**37, 0, 1 - 2**38)
    assert (kind.family, kind.b_case) == (Family.PIRR_B, "b=1-2q")
    record = build_record(f, kind)
    assert (record.c, record.d) == (2, 2**39 - 1)
    assert record.split2_Kplus == two_adic_data(f, kind).split2_Kplus.value == "Ramified"


# family A members at q = 1 mod 8 with a = 2 mod 4, where v2(delta) is unbounded; with
# delta = 2^e * m, m odd: e = 8 split, 10 inert, 12 split and inert, 13 and 16 ramified
HIGH_V2_MEMBERS = [
    (1217, 2, -1213),
    (1873, 18, -1549),
    (19457, 2, -19453),
    (7177, -6, -7141),
    (10289, 14, -10093),
    (16433, -14, -16237),
]
_SPLIT_BY_D_MOD_8 = {1: Split2.SPLIT, 5: Split2.INERT}


def test_verdict_is_one_value_per_two_adic_class_key():
    high_v2 = [kind_of(q, a, b) for q, a, b in HIGH_V2_MEMBERS]
    assert all(kind.family is Family.PIRR_A for _, kind in high_v2)
    inert_rules = checked = 0
    verdicts: dict[tuple, set] = {}
    for f, kind in [*family_members(512), *high_v2]:
        if not kind.is_irreducible_family:
            continue
        verdict = genus3_verdict(f, kind)
        data = two_adic_data(f, kind)
        # the field-level criterion, d mod 8 of delta = c^2 * d, with d found by division
        # alone, and the 2-adic class of delta, which reads d mod 8 with no decomposition
        d = trial_squarefree(data.delta)[1]
        assert data.split2_Kplus is _SPLIT_BY_D_MOD_8.get(d % 8, Split2.RAMIFIED), (f.q, f.a, f.b)
        assert data.split2_Kplus.value == oracle_split2(data.delta), (f.q, f.a, f.b)
        checked += 1
        if kind.family is Family.PIRR_A:
            inert = d % 8 == 5
            assert (verdict.rule == "PirrA-inert") == inert, (f.q, f.a, f.b)
            inert_rules += inert
        # the class key: the splitting of 2 in K+ for family A, q mod 2 for a family B pattern
        key = (kind, data.split2_Kplus if kind.family is Family.PIRR_A else f.q % 2)
        verdicts.setdefault(key, set()).add(verdict)
    assert inert_rules > 0
    assert checked == 796 + len(HIGH_V2_MEMBERS)  # 796 family A and B members with q <= 512
    assert all(len(equal) == 1 for equal in verdicts.values()), verdicts
