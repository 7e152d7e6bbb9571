from __future__ import annotations

from math import gcd, inf

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weillab import (
    Family,
    InternalInvariantError,
    PRankClass,
    WrongKind,
    build_record,
    classify,
    enumerate_classes,
    is_irreducible_over_Q,
    make_weil_quartic,
    p_rank_class,
)
from weillab.classify import prime_divisors_all_1_mod_3
from weillab.core import NotPrimePower, ceil_sqrt, weil_validity_failure

from oracles import (
    gf2_degree_multiset,
    oracle_all_prime_divisors_1_mod_3,
    oracle_family_b_case,
    oracle_matches_family_a,
    prime_powers_up_to,
)
from strategies import Q_BELOW_10_6, family_pattern_pairs, weil_pairs

SWEEP_LIMIT = 100


def _members(limit=SWEEP_LIMIT):
    for q in prime_powers_up_to(limit):
        yield from enumerate_classes(q)


# ---------------------------------------------------------------------------
# classify on pinned inputs


def test_classify_outside_examples():
    assert classify(make_weil_quartic(2, 0, -1)).family is Family.OUTSIDE
    assert classify(make_weil_quartic(13, 0, -11)).family is Family.OUTSIDE


def test_classify_family_a():
    kind = classify(make_weil_quartic(8, 1, -7))
    assert kind.family is Family.PIRR_A
    assert kind.b_case is None


def test_classify_specials():
    assert classify(make_weil_quartic(2, 0, -4)).family is Family.SPECIAL_Q2
    assert classify(make_weil_quartic(3, 0, -6)).family is Family.SPECIAL_Q3
    # each special carries its matched family B pattern; its record leaves the cell empty
    for q, b, pattern in ((2, -4, "(q,b)=(2,-4)"), (3, -6, "(q,b)=(3,-6)")):
        f = make_weil_quartic(q, 0, b)
        assert classify(f).b_case == pattern
        assert build_record(f).b_case is None


def test_classify_family_b_case_tag():
    kind = classify(make_weil_quartic(7, 0, -13))
    assert kind.family is Family.PIRR_B
    assert kind.b_case == "b=1-2q"
    assert classify(make_weil_quartic(7, 0, -12)).b_case == "b=2-2q"
    assert classify(make_weil_quartic(2, 0, -2)).b_case == "b=-q"


def test_classify_outside_reasons_are_stable_strings():
    assert classify(make_weil_quartic(2, 0, -1)).reason == "b-not-in-weil-restriction-list"
    assert classify(make_weil_quartic(5, 1, -4)).reason == "prime-divisor-of-b-not-1-mod-3"
    assert classify(make_weil_quartic(5, 3, 4)).reason == "b-not-negative"
    assert classify(make_weil_quartic(5, 1, -3)).reason == "no-family-condition-matched"


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_rejects_non_prime_power():
    with pytest.raises(NotPrimePower):
        enumerate_classes(6)


def test_enumerate_q2():
    rows = [(f.a, f.b, k.family) for f, k in enumerate_classes(2)]
    assert rows == [
        (-1, -1, Family.PIRR_A),
        (0, -4, Family.SPECIAL_Q2),
        (0, -3, Family.PIRR_B),
        (0, -2, Family.PIRR_B),
        (1, -1, Family.PIRR_A),
    ]


def test_enumerate_q3():
    rows = [(f.a, f.b, k.family) for f, k in enumerate_classes(3)]
    assert rows == [
        (0, -6, Family.SPECIAL_Q3),
        (0, -5, Family.PIRR_B),
        (0, -4, Family.PIRR_B),
    ]


def test_enumerate_q7():
    # the two ordinary Weil-restriction classes plus the supersingular
    # member of family A (a = 0, b = -q, 7 = 1 mod 3)
    rows = [(f.a, f.b, k.family) for f, k in enumerate_classes(7)]
    assert rows == [
        (0, -13, Family.PIRR_B),
        (0, -12, Family.PIRR_B),
        (0, -7, Family.PIRR_A),
    ]


def test_enumerate_q4_has_no_2_minus_2q_row():
    # p = 2 excludes b = 2-2q
    rows = [(f.a, f.b, k.family) for f, k in enumerate_classes(4)]
    assert rows == [(0, -7, Family.PIRR_B)]


def test_enumerate_classes_is_complete_up_to_64():
    # every Weil (a, b) that classify places in a family, with the same kind, in (a, b) order
    for q in prime_powers_up_to(64):
        expected = []
        for a, b in _grid_pairs(q):
            if weil_validity_failure(q, a, b) is None:
                f = make_weil_quartic(q, a, b)
                kind = classify(f)
                if kind.family is not Family.OUTSIDE:
                    expected.append((f, kind))
        assert enumerate_classes(q) == expected, q


@settings(max_examples=300, deadline=None)
@given(st.one_of(family_pattern_pairs(), weil_pairs(Q_BELOW_10_6)))
@example((2, 0, -4))
@example((3, 0, -6))
@example((2401, 42, -637))
@example((2401, -42, -637))
def test_classify_agrees_with_enumerate_classes_below_10_6(qab):
    # a class is enumerated, with the kind classify gives it, exactly when it is a member
    f = make_weil_quartic(*qab)
    kind = classify(f)
    assert ((f, kind) in enumerate_classes(f.q)) == (kind.family is not Family.OUTSIDE)


def test_classify_matched_rejects_neither_and_both_conditions():
    from weillab.classify import _classify_matched

    with pytest.raises(InternalInvariantError, match="neither"):
        _classify_matched(make_weil_quartic(2, 0, -1), False, None)
    with pytest.raises(InternalInvariantError, match="both"):
        _classify_matched(make_weil_quartic(7, 0, -7), True, "b=-q")


def test_enumerate_sorted_and_duplicate_free():
    for q in prime_powers_up_to(SWEEP_LIMIT):
        pairs = [(f.a, f.b) for f, _ in enumerate_classes(q)]
        assert pairs == sorted(pairs)
        assert len(pairs) == len(set(pairs))


# ---------------------------------------------------------------------------
# the family A prime-divisor condition


@pytest.mark.parametrize(
    "m, expected",
    [
        (1, True),  # no prime divisor
        (4, False),
        (14, False),
        (91, True),  # 7 * 13
        (1729, True),  # 7 * 13 * 19
        (25, False),  # 1 mod 6, rejected by the division loop
        (55, False),
        (121, False),
        (10000141, True),  # a prime 1 mod 3 above 10^7
    ],
)
def test_prime_divisors_all_1_mod_3_examples(m, expected):
    assert prime_divisors_all_1_mod_3(m) is expected


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.integers(1, 12 * 10**6), st.integers(0, 2 * 10**6 - 1).map(lambda k: 6 * k + 1)))
def test_prime_divisors_all_1_mod_3_matches_oracle(m):
    # the second strategy draws m = 1 mod 6, the values the division loop decides
    assert prime_divisors_all_1_mod_3(m) == oracle_all_prime_divisors_1_mod_3(m)


# ---------------------------------------------------------------------------
# family condition sweeps


def _grid_pairs(q):
    a_bound = 4 * ceil_sqrt(q)
    for a in range(-a_bound, a_bound + 1):
        for b in range(-2 * q, (a * a + 8 * q) // 4 + 1):
            yield a, b


def test_conditions_never_both_hold_up_to_100():
    for q in prime_powers_up_to(SWEEP_LIMIT):
        p, r = _prime_power(q)
        for a, b in _grid_pairs(q):
            both = oracle_matches_family_a(q, a, b) and oracle_family_b_case(q, p, r, a, b)
            assert not both, (q, a, b)


def test_reducible_matches_are_exactly_the_two_squares():
    reducible = []
    for q in prime_powers_up_to(SWEEP_LIMIT):
        p, r = _prime_power(q)
        for a, b in _grid_pairs(q):
            from weillab.core import weil_validity_failure

            if weil_validity_failure(q, a, b) is not None:
                continue
            if not (oracle_matches_family_a(q, a, b) or oracle_family_b_case(q, p, r, a, b)):
                continue
            if not is_irreducible_over_Q(make_weil_quartic(q, a, b)):
                reducible.append((q, a, b))
    assert reducible == [(2, 0, -4), (3, 0, -6)]


def _prime_power(q):
    from weillab.core import prime_power_decomposition

    return prime_power_decomposition(q)


def test_members_factor_mod_2_into_quadratics():
    # grouped into two degree-2 factors: no irreducible factor of degree 3 or 4
    for f, _ in _members():
        assert max(gf2_degree_multiset(f.q, f.a, f.b)) <= 2, (f.q, f.a, f.b)


def test_family_b_characterisation_by_base_change():
    from oracles import brute_force_irreducible, companion_base_change

    for f, kind in _members():
        irreducible = brute_force_irreducible(f.q, f.a, f.b)
        a2, b2 = companion_base_change(f.q, f.a, f.b)
        base_change_reducible = not brute_force_irreducible(f.q * f.q, a2, b2)
        in_b_list = oracle_family_b_case(f.q, f.p, f.r, f.a, f.b) is not None
        is_family_b = kind.family is Family.PIRR_B
        assert is_family_b == (irreducible and base_change_reducible and in_b_list), (f.q, f.a, f.b)


def test_family_b_characterisation_production_path():
    from weillab.classify import family_b_case

    from oracles import companion_base_change

    for f, kind in _members():
        base_change = make_weil_quartic(f.q * f.q, *companion_base_change(f.q, f.a, f.b))
        rhs = (
            is_irreducible_over_Q(f)
            and not is_irreducible_over_Q(base_change)
            and family_b_case(f) is not None
        )
        assert (kind.family is Family.PIRR_B) == rhs, (f.q, f.a, f.b)


# ---------------------------------------------------------------------------
# p-rank


def test_p_rank_examples():
    f = make_weil_quartic(8, 1, -7)
    assert p_rank_class(f, classify(f)) is PRankClass.ORDINARY
    g = make_weil_quartic(2, 0, -2)
    assert p_rank_class(g, classify(g)) is PRankClass.SUPERSINGULAR
    h = make_weil_quartic(9, 0, -9)
    assert p_rank_class(h, classify(h)) is PRankClass.SUPERSINGULAR


def test_p_rank_agrees_with_gcd_criterion():
    for f, kind in _members():
        if not kind.is_irreducible_family:
            continue
        ordinary = p_rank_class(f, kind) is PRankClass.ORDINARY
        assert ordinary == (gcd(f.b, f.p) == 1), (f.q, f.a, f.b)


def _valuation(n, p):
    if n == 0:
        return inf
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@pytest.mark.xfail(
    strict=True,
    reason="family A admits (a, b) = (+-42, -637) at q = 7^4: v(a) = 1, v(b) = 2, so no valuation case holds",
)
def test_members_meet_a_rueck_valuation_case():
    # Rueck: a Weil quartic of an abelian surface over F_q, q = p^r, has
    # v(b) = 0 (ordinary), or v(a) = 0 and v(b) >= r/2 (p-rank 1), or
    # v(a) >= r/2 and v(b) >= r (supersingular), with v the p-adic valuation
    for q in prime_powers_up_to(2500):
        for f, _ in enumerate_classes(q):
            va, vb = _valuation(f.a, f.p), _valuation(f.b, f.p)
            assert vb == 0 or (va == 0 and 2 * vb >= f.r) or (2 * va >= f.r and vb >= f.r), (f.q, f.a, f.b)


def test_p_rank_rejects_specials():
    f = make_weil_quartic(2, 0, -4)
    with pytest.raises(WrongKind):
        p_rank_class(f, classify(f))
    g = make_weil_quartic(2, 0, -1)
    with pytest.raises(WrongKind):
        p_rank_class(g, classify(g))
