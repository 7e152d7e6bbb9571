from __future__ import annotations

import pytest

from weillab import (
    ClassKind,
    ConjugationTag,
    DegenerateDiscriminant,
    Family,
    PRankClass,
    Split2,
    WrongKind,
    build_record,
    classify,
    enumerate_classes,
    fplus_discriminant,
    genus3_verdict,
    make_weil_quartic,
    p_rank_class,
    two_adic_data,
)
from weillab.two_adic import _CLASS_ROWS
from oracles import fplus_mod2_shape, gf2_factor_names, prime_powers_up_to, trial_squarefree

SWEEP_LIMIT = 100


def _members(limit=SWEEP_LIMIT):
    for q in prime_powers_up_to(limit):
        for f, kind in enumerate_classes(q):
            if kind.is_irreducible_family:
                yield f, kind


def _kind(q, a, b):
    f = make_weil_quartic(q, a, b)
    return f, classify(f)


# ---------------------------------------------------------------------------
# splitting of 2 in the real quadratic subfield


def _split2(f, kind):
    return two_adic_data(f, kind).split2_Kplus


# the kind passed for classes outside both families: two_adic_data reads
# the splitting from the discriminant alone
NON_MEMBER = ClassKind(Family.PIRR_A)


def test_splitting_examples():
    assert _split2(*_kind(8, 1, -7)) is Split2.INERT  # d = 93
    assert _split2(*_kind(5, 2, -1)) is Split2.RAMIFIED  # d = 3
    assert _split2(*_kind(7, 0, -13)) is Split2.RAMIFIED  # d = 3


def test_splitting_split_case():
    # (2, 0, -3): delta = 28, d = 7 = -1 mod 8
    assert _split2(*_kind(2, 0, -3)) is Split2.RAMIFIED
    # find a genuine split example: d = 1 mod 8 needs d = 17, 33, ...
    # (13, 2, -9): delta = 4 - 4*(-9 - 26) = 144 + ... compute in test body
    f = make_weil_quartic(13, 2, -9)
    assert fplus_discriminant(f) == 144
    with pytest.raises(DegenerateDiscriminant):
        _split2(f, NON_MEMBER)  # square discriminant, reducible real factor
    g = make_weil_quartic(17, 2, -13)
    assert fplus_discriminant(g) == 192  # d = 3
    h = make_weil_quartic(25, 4, -8)
    assert fplus_discriminant(h) == 248  # d = 62: 2 mod 4
    assert _split2(h, NON_MEMBER) is Split2.RAMIFIED
    # q = 41, a = 0, b = -24: delta = 4*(2*41+24) = 424 = 4*106, d = 106
    k = make_weil_quartic(41, 0, -24)
    assert trial_squarefree(fplus_discriminant(k)) == (2, 106)
    assert _split2(k, NON_MEMBER) is Split2.RAMIFIED
    m = make_weil_quartic(7, 3, 2)
    assert fplus_discriminant(m) == 57  # squarefree, 1 mod 8
    assert _split2(m, NON_MEMBER) is Split2.SPLIT


def test_degenerate_discriminant_rejected():
    # t^4 - 3t^2 + 9 = (t^2-3t+3)(t^2+3t+3): delta = 36 = 6^2
    with pytest.raises(DegenerateDiscriminant):
        _split2(make_weil_quartic(3, 0, -3), NON_MEMBER)


def test_splitting_decided_by_d_on_members():
    for f, kind in _members():
        _, d = trial_squarefree(fplus_discriminant(f))
        assert d > 1
        expected = (
            Split2.INERT if d % 8 == 5 else Split2.SPLIT if d % 8 == 1 else Split2.RAMIFIED
        )
        assert d % 4 in (1, 2, 3)
        assert _split2(f, kind) is expected


# ---------------------------------------------------------------------------
# ramification of K over K+


def test_ramification_examples():
    f, kind = _kind(7, 0, -12)
    assert two_adic_data(f, kind).K_over_Kplus_ramified is True
    g, g_kind = _kind(7, 0, -13)
    assert two_adic_data(g, g_kind).K_over_Kplus_ramified is False
    h, h_kind = _kind(8, 1, -7)
    assert two_adic_data(h, h_kind).K_over_Kplus_ramified is False


def test_ramification_rejects_specials():
    f, kind = _kind(2, 0, -4)
    with pytest.raises(WrongKind):
        two_adic_data(f, kind)


def test_ramified_members_are_ordinary_with_fourth_power_reduction():
    seen = 0
    for f, kind in _members():
        if not two_adic_data(f, kind).K_over_Kplus_ramified:
            continue
        seen += 1
        assert p_rank_class(f, kind) is PRankClass.ORDINARY
        assert gf2_factor_names(f.q, f.a, f.b) == {"t+1": 4}, (f.q, f.a, f.b)
    assert seen > 0


def test_family_b_always_ramifies_in_Kplus():
    for f, kind in _members():
        if kind.family is Family.PIRR_B:
            assert _split2(f, kind) is Split2.RAMIFIED, (f.q, f.a, f.b)


# ---------------------------------------------------------------------------
# shape of 2 in K


def test_shape_examples():
    f, kind = _kind(7, 0, -12)
    assert two_adic_data(f, kind).shape2_K.factors == ((4, 1, 1),)
    g, g_kind = _kind(7, 0, -13)
    assert two_adic_data(g, g_kind).shape2_K.factors == ((2, 2, 1),)
    h, h_kind = _kind(2, 0, -3)
    assert two_adic_data(h, h_kind).shape2_K.factors == ((2, 1, 2),)
    k, k_kind = _kind(8, 1, -7)
    shape = two_adic_data(k, k_kind).shape2_K
    assert shape.factors == ((1, 2, 2),)
    assert shape.conjugation is ConjugationTag.CONJUGATE_PAIR


def test_shape_supersingular_members_inert():
    # the unique prime of K+ above 2 stays inert in K for every
    # supersingular Weil-restriction class, whatever the parity of q
    f, kind = _kind(2, 0, -2)
    assert two_adic_data(f, kind).shape2_K.factors == ((2, 2, 1),)
    g, g_kind = _kind(9, 0, -9)
    assert two_adic_data(g, g_kind).shape2_K.factors == ((2, 2, 1),)


def _degree(shape):
    return sum(e * fr * count for e, fr, count in shape.factors)


def test_shape_totals_are_4():
    # e*f summed over the primes above 2 is [K:Q] = 4 for every table row
    for shape, _, _ in _CLASS_ROWS.values():
        assert _degree(shape) == 4, shape
    for f, kind in _members():
        assert _degree(two_adic_data(f, kind).shape2_K) == 4


def test_every_class_row_is_met_up_to_64():
    # no dead rows: each key is met by a member, (b=-q, q odd) first at 9, Split first at 19
    met = {}
    for f, kind in _members(64):
        key = _split2(f, kind) if kind.family is Family.PIRR_A else (kind.b_case, f.q % 2)
        met.setdefault(key, f.q)
    assert set(met) == set(_CLASS_ROWS)
    assert (met[Split2.SPLIT], met["b=-q", 1]) == (19, 9)


def test_family_b_shape_trichotomy_is_exhaustive():
    for f, kind in _members():
        if kind.family is not Family.PIRR_B:
            continue
        shape = two_adic_data(f, kind).shape2_K
        assert shape.factors in (((4, 1, 1),), ((2, 2, 1),), ((2, 1, 2),))


def test_family_b_shape_against_mod2_reduction():
    # order-level cross-check wherever the mod-2 reduction is conclusive:
    # a squared irreducible quadratic forces the inert shape, two distinct
    # linear squares force the split shape, a fourth power of t+1 forces
    # total ramification
    for f, kind in _members():
        if kind.family is not Family.PIRR_B:
            continue
        shape = two_adic_data(f, kind).shape2_K.factors
        reduction = gf2_factor_names(f.q, f.a, f.b)
        if reduction == {"t^2+t+1": 2}:
            assert shape == ((2, 2, 1),), (f.q, f.a, f.b)
        elif reduction == {"t": 2, "t+1": 2}:
            assert shape == ((2, 1, 2),), (f.q, f.a, f.b)
        elif reduction == {"t+1": 4}:
            assert shape == ((4, 1, 1),), (f.q, f.a, f.b)
        else:
            # q even supersingular: f = t^4 mod 2, the order is singular
            # at 2 and the reduction says nothing about the field
            assert reduction == {"t": 4}, (f.q, f.a, f.b)
            assert shape == ((2, 2, 1),)


def test_family_a_shape_follows_subfield_splitting():
    for f, kind in _members():
        if kind.family is not Family.PIRR_A:
            continue
        shape = two_adic_data(f, kind).shape2_K
        symbol = _split2(f, kind)
        if symbol is Split2.INERT:
            assert shape.factors == ((1, 2, 2),)
            assert shape.conjugation is ConjugationTag.CONJUGATE_PAIR
        elif symbol is Split2.SPLIT:
            assert shape.factors == ((1, 2, 2),)
            assert shape.conjugation is ConjugationTag.EACH_SELF_CONJUGATE
        else:
            assert shape.factors == ((2, 2, 1),)
            assert shape.conjugation is ConjugationTag.SINGLE_SELF_CONJUGATE


# ---------------------------------------------------------------------------
# Kummer-Dedekind agreement in K+


def test_kummer_dedekind_agreement_odd_conductor():
    checked = 0
    for f, kind in _members():
        c, _ = trial_squarefree(fplus_discriminant(f))
        if c % 2 == 0:
            continue
        checked += 1
        a, c0 = f.a, f.b - 2 * f.q
        shape = fplus_mod2_shape(a, c0)
        symbol = _split2(f, kind)
        expected = {
            "irreducible": Split2.INERT,
            "split": Split2.SPLIT,
            "ramified": Split2.RAMIFIED,
        }[shape]
        assert symbol is expected, (f.q, f.a, f.b)
    assert checked > 0


# ---------------------------------------------------------------------------
# coefficient shortcuts


def test_family_a_even_q_is_inert():
    for f, kind in _members(512):
        if kind.family is Family.PIRR_A and f.q % 2 == 0:
            assert _split2(f, kind) is Split2.INERT, (f.q, f.a, f.b)


def test_family_a_even_trace_ramification_shortcut():
    for f, kind in _members(512):
        if kind.family is Family.PIRR_A and f.a % 2 == 0 and (f.a + f.b) % 4 != 1:
            assert _split2(f, kind) is Split2.RAMIFIED, (f.q, f.a, f.b)


# ---------------------------------------------------------------------------
# aggregate record


def test_two_adic_data_bundle():
    f, kind = _kind(8, 1, -7)
    data = two_adic_data(f, kind)
    assert data.delta == 1 * 1 - 4 * (-23)  # f+ = t^2 + t - 23
    assert data.delta == 93
    assert (data.c, data.d) == (1, 93)
    assert data.split2_Kplus is Split2.INERT
    assert data.K_over_Kplus_ramified is False
    assert data.c * data.c * data.d == data.delta


@pytest.mark.parametrize(
    "q,a,b,delta",
    [
        (25, -18, 131, 0),  # discriminant 0
        (2, 0, 0, 16),  # square discriminant
    ],
)
def test_two_adic_data_rejects_outside_before_the_discriminant(q, a, b, delta):
    f, kind = _kind(q, a, b)
    assert kind.family is Family.OUTSIDE
    assert fplus_discriminant(f) == delta
    with pytest.raises(WrongKind):
        two_adic_data(f, kind)


@pytest.mark.parametrize(
    "q,a,b,b_case",
    [
        (7, 0, -12, None),  # family B kind with no pattern
        (4, 0, -6, "b=2-2q"),  # b = 2-2q needs p > 2, so it has no even-q row
        (7, 0, -13, "b=unknown"),
    ],
)
def test_family_b_kind_without_a_row_raises_wrong_kind(q, a, b, b_case):
    f = make_weil_quartic(q, a, b)
    kind = ClassKind(Family.PIRR_B, b_case=b_case)
    for operation in (two_adic_data, genus3_verdict, build_record):
        with pytest.raises(WrongKind):
            operation(f, kind)
