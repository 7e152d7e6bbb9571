from __future__ import annotations

import pytest

from weillab import (
    ClassKind,
    ConjugationTag,
    DegenerateDiscriminant,
    Family,
    Split2,
    WrongKind,
    build_record,
    fplus_discriminant,
    genus3_verdict,
    make_weil_quartic,
    two_adic_data,
)
from weillab.two_adic import _CLASS_ROWS
from oracles import trial_squarefree
from strategies import family_members, kind_of


# ---------------------------------------------------------------------------
# splitting of 2 in the real quadratic subfield


def _split2(f, kind):
    return two_adic_data(f, kind).split2_Kplus


# the kind passed for classes outside both families: two_adic_data reads
# the splitting from the discriminant alone
NON_MEMBER = ClassKind(Family.PIRR_A)


def test_splitting_examples():
    assert _split2(*kind_of(8, 1, -7)) is Split2.INERT  # d = 93
    assert _split2(*kind_of(5, 2, -1)) is Split2.RAMIFIED  # d = 3
    assert _split2(*kind_of(7, 0, -13)) is Split2.RAMIFIED  # d = 3


def test_splitting_split_case():
    # (2, 0, -3): delta = 28, d = 7 = -1 mod 8
    assert _split2(*kind_of(2, 0, -3)) is Split2.RAMIFIED
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


# ---------------------------------------------------------------------------
# ramification of K over K+


def test_ramification_examples():
    f, kind = kind_of(7, 0, -12)
    assert two_adic_data(f, kind).K_over_Kplus_ramified is True
    g, g_kind = kind_of(7, 0, -13)
    assert two_adic_data(g, g_kind).K_over_Kplus_ramified is False
    h, h_kind = kind_of(8, 1, -7)
    assert two_adic_data(h, h_kind).K_over_Kplus_ramified is False


def test_ramification_rejects_specials():
    f, kind = kind_of(2, 0, -4)
    with pytest.raises(WrongKind):
        two_adic_data(f, kind)


# ---------------------------------------------------------------------------
# shape of 2 in K


def test_shape_examples():
    f, kind = kind_of(7, 0, -12)
    assert two_adic_data(f, kind).shape2_K.factors == ((4, 1, 1),)
    g, g_kind = kind_of(7, 0, -13)
    assert two_adic_data(g, g_kind).shape2_K.factors == ((2, 2, 1),)
    h, h_kind = kind_of(2, 0, -3)
    assert two_adic_data(h, h_kind).shape2_K.factors == ((2, 1, 2),)
    k, k_kind = kind_of(8, 1, -7)
    shape = two_adic_data(k, k_kind).shape2_K
    assert shape.factors == ((1, 2, 2),)
    assert shape.conjugation is ConjugationTag.CONJUGATE_PAIR


def test_shape_supersingular_members_inert():
    # the unique prime of K+ above 2 stays inert in K for every
    # supersingular Weil-restriction class, whatever the parity of q
    f, kind = kind_of(2, 0, -2)
    assert two_adic_data(f, kind).shape2_K.factors == ((2, 2, 1),)
    g, g_kind = kind_of(9, 0, -9)
    assert two_adic_data(g, g_kind).shape2_K.factors == ((2, 2, 1),)


def test_shape_totals_are_4():
    # e*f summed over the primes above 2 is [K:Q] = 4 for every table row
    for shape, _, _ in _CLASS_ROWS.values():
        assert sum(e * fr * count for e, fr, count in shape.factors) == 4, shape


def test_every_class_row_is_met_up_to_64():
    # no dead rows: each key is met by a member, (b=-q, q odd) first at 9, Split first at 19
    met = {}
    for f, kind in family_members(64):
        if not kind.is_irreducible_family:
            continue
        key = _split2(f, kind) if kind.family is Family.PIRR_A else (kind.b_case, f.q % 2)
        met.setdefault(key, f.q)
    assert set(met) == set(_CLASS_ROWS)
    assert (met[Split2.SPLIT], met["b=-q", 1]) == (19, 9)


# ---------------------------------------------------------------------------
# aggregate record


def test_two_adic_data_bundle():
    f, kind = kind_of(8, 1, -7)
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
    f, kind = kind_of(q, a, b)
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
