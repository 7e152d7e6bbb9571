from __future__ import annotations

import sys
from math import inf, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weillab import (
    Family,
    InternalInvariantError,
    WrongKind,
    classify,
    enumerate_classes,
    is_irreducible_over_Q,
    make_weil_quartic,
    p_rank_class,
)
from weillab.classify import prime_divisors_all_1_mod_3
from weillab.core import NotPrimePower, ceil_sqrt, weil_validity_failure

from oracles import (
    oracle_all_prime_divisors_1_mod_3,
    oracle_family_b_case,
    oracle_matches_family_a,
    prime_powers_up_to,
)
from strategies import Q_BELOW_10_6, family_members, family_pattern_pairs, weil_pairs

SWEEP_LIMIT = 100


# ---------------------------------------------------------------------------
# the reason an Outside class gives


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
    # every Weil (a, b) with a >= 0 that classify places in a family, with the same kind,
    # in (a, b) order; and every member with a < 0 is the twist of one of them, same kind
    for q in prime_powers_up_to(64):
        members = []
        for a, b in _grid_pairs(q):
            if weil_validity_failure(q, a, b) is None:
                f = make_weil_quartic(q, a, b)
                kind = classify(f)
                if kind.family is not Family.OUTSIDE:
                    members.append((f, kind))
        expected = [(f, kind) for f, kind in members if f.a >= 0]
        assert enumerate_classes(q) == expected, q
        twists = [(f.a, f.b, kind) for f, kind in members if f.a < 0]
        assert twists == [(-f.a, f.b, kind) for f, kind in reversed(expected) if f.a], q


@settings(max_examples=300, deadline=None)
@given(st.one_of(family_pattern_pairs(), weil_pairs(Q_BELOW_10_6)))
@example((2, 0, -4))
@example((3, 0, -6))
@example((2401, 42, -637))
@example((2401, -42, -637))
def test_classify_agrees_with_enumerate_classes_below_10_6(qab):
    # a class is enumerated, as (|a|, b) with the kind classify gives it, exactly when it is a member
    f = make_weil_quartic(*qab)
    kind = classify(f)
    listed = (make_weil_quartic(f.q, abs(f.a), f.b), kind) in enumerate_classes(f.q)
    assert listed == (kind.family is not Family.OUTSIDE)


@settings(max_examples=300, deadline=None)
@given(family_pattern_pairs())
@example((2, 0, -4))
@example((3, 0, -6))
@example((2401, 42, -637))
@example((2401, -42, -637))
def test_a_members_kind_says_whether_it_is_irreducible_below_10_6(qab):
    # classify makes no irreducibility test: the kind of a member comes from its
    # coefficients, special exactly at b = -2q and irreducible otherwise
    f = make_weil_quartic(*qab)
    kind = classify(f)
    if kind.family is not Family.OUTSIDE:
        assert is_irreducible_over_Q(f) == kind.is_irreducible_family
        assert (kind.family in (Family.SPECIAL_Q2, Family.SPECIAL_Q3)) == (f.b == -2 * f.q)


def test_classify_rejects_a_class_meeting_both_conditions(monkeypatch):
    # (9, 0, -9) is the family B pattern b = -q at p = 3; a prime-divisor test that
    # accepts 9 makes it meet the family A condition too
    monkeypatch.setattr(sys.modules["weillab.classify"], "prime_divisors_all_1_mod_3", lambda m: m == 9 or prime_divisors_all_1_mod_3(m))
    with pytest.raises(InternalInvariantError, match="both"):
        classify(make_weil_quartic(9, 0, -9))


def test_enumerate_classes_checks_each_a_member_against_the_weil_region(monkeypatch):
    # the a > 0 members are proven inside the Weil region and built directly; the
    # check of that proof still runs once for each member, and a failure names it
    members = [f for f, _ in enumerate_classes(999983) if f.a > 0]
    checked = []
    last = members[-1]
    monkeypatch.setattr(
        sys.modules["weillab.classify"],
        "weil_validity_failure",
        lambda q, a, b: checked.append((q, a, b)) or ("forced" if a == last.a else None),
    )
    with pytest.raises(InternalInvariantError, match=f"a={last.a}, b={last.b}\\).*forced"):
        enumerate_classes(999983)
    assert checked == [(f.q, f.a, f.b) for f in members]


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
        (25, False),  # 1 mod 6, rejected by the gcd
        (55, False),
        (121, False),
        (10000141, True),  # a prime 1 mod 3 above 10^7
        (130973 * 131009, False),  # two primes 2 mod 3 just below and above sqrt(m)
        (2063**2, False),  # the square of a prime 2 mod 3
        (7 * 13 * 130981, True),  # a prime 1 mod 3 above sqrt(m)
        (7**14, True),
        (13**10, True),
        (2**39, False),
        (3**24, False),
    ],
)
def test_prime_divisors_all_1_mod_3_examples(m, expected):
    assert prime_divisors_all_1_mod_3(m) is expected


_PRIMES_1_MOD_3 = [p for p in range(7, 1 << 10, 6) if all(p % k for k in range(2, p))]


@st.composite
def _passing_part_times_cofactor(draw):
    """m < 2^34: a product of primes 1 mod 3 below 2^10, times a cofactor that may or may not pass."""
    part = prod(draw(st.lists(st.sampled_from(_PRIMES_1_MOD_3), max_size=3)))
    limit = min(2**20, (2**34 - 1) // part)
    return part * draw(st.one_of(st.integers(1, limit), st.integers(0, (limit - 1) // 6).map(lambda k: 6 * k + 1)))


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(
        st.integers(1, 12 * 10**6),
        st.integers(0, 2 * 10**6 - 1).map(lambda k: 6 * k + 1),
        _passing_part_times_cofactor(),
    )
)
def test_prime_divisors_all_1_mod_3_matches_oracle(m):
    # the second and third strategies draw m = 1 mod 6, the values the gcd decides
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


# ---------------------------------------------------------------------------
# p-rank


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
    for f, _ in family_members(2500):
        va, vb = _valuation(f.a, f.p), _valuation(f.b, f.p)
        assert vb == 0 or (va == 0 and 2 * vb >= f.r) or (2 * va >= f.r and vb >= f.r), (f.q, f.a, f.b)


def test_p_rank_rejects_specials():
    f = make_weil_quartic(2, 0, -4)
    with pytest.raises(WrongKind):
        p_rank_class(f, classify(f))
    g = make_weil_quartic(2, 0, -1)
    with pytest.raises(WrongKind):
        p_rank_class(g, classify(g))
