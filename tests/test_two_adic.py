from __future__ import annotations

import pytest

from weillab import (
    ClassKind,
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
    # (t^2-9t+25)^2: delta = 18^2 - 4*(131-50) = 0
    with pytest.raises(DegenerateDiscriminant, match="is not positive"):
        _split2(make_weil_quartic(25, -18, 131), NON_MEMBER)


# ---------------------------------------------------------------------------
# shape of 2 in K


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
