from __future__ import annotations

import pytest

from weillab import (
    Family,
    PRankClass,
    SPECIAL_Q3_WITNESS,
    Split2,
    WrongKind,
    classify,
    curve_shape_constraints,
    enumerate_classes,
    genus3_verdict,
    make_weil_quartic,
    p_rank_class,
    two_adic_data,
)

from oracles import prime_powers_up_to


def _kind(q, a, b):
    f = make_weil_quartic(q, a, b)
    return f, classify(f)


def _members(limit):
    for q in prime_powers_up_to(limit):
        yield from enumerate_classes(q)


# ---------------------------------------------------------------------------
# degree-4 polarisation


@pytest.mark.parametrize(
    "q,a,b,expected",
    [
        (8, 1, -7, False),  # 2 inert in K+ (d = 93)
        (5, 2, -1, True),  # d = 3, ramified
        (7, 0, -13, False),  # ordinary, b = 1-2q, q odd
        (7, 0, -12, True),  # b = 2-2q escapes both exclusion clauses
        (2, 0, -3, True),  # ordinary, b = 1-2q but q even
        (2, 0, -2, False),  # supersingular, q even
        (9, 0, -9, True),  # supersingular, q odd
    ],
)
def test_degree4_table(q, a, b, expected):
    f, kind = _kind(q, a, b)
    assert genus3_verdict(f, kind).deg4_polarisation_exists is expected


def test_degree4_rejects_specials_and_outside():
    # a special is settled without the criterion: no flag, and no 2-adic data to read one from
    f, kind = _kind(2, 0, -4)
    assert genus3_verdict(f, kind).deg4_polarisation_exists is None
    with pytest.raises(WrongKind):
        two_adic_data(f, kind)
    g, g_kind = _kind(2, 0, -1)
    with pytest.raises(WrongKind):
        genus3_verdict(g, g_kind)


# ---------------------------------------------------------------------------
# genus-3 verdicts


def test_special_q2_verdict():
    f, kind = _kind(2, 0, -4)
    verdict = genus3_verdict(f, kind)
    assert verdict.genus3_curve_exists is False
    assert verdict.deg4_polarisation_exists is None
    assert verdict.rule == "Special-Q2"
    assert verdict.witness is None
    assert verdict.note


def test_special_q3_verdict_carries_witness():
    f, kind = _kind(3, 0, -6)
    verdict = genus3_verdict(f, kind)
    assert verdict.genus3_curve_exists is True
    assert verdict.deg4_polarisation_exists is None
    assert verdict.rule == "Special-Q3"
    assert verdict.witness == SPECIAL_Q3_WITNESS == "y^4+xz^3+2x^3z"


def test_family_rules_and_equality_of_verdicts():
    f, kind = _kind(5, 2, -1)
    verdict = genus3_verdict(f, kind)
    assert verdict.rule == "PirrA-noninert"
    assert verdict.genus3_curve_exists is True
    g, g_kind = _kind(8, 1, -7)
    assert genus3_verdict(g, g_kind).rule == "PirrA-inert"
    h, h_kind = _kind(7, 0, -13)
    assert genus3_verdict(h, h_kind).rule == "PirrB-ordinary-coeff"
    s, s_kind = _kind(9, 0, -9)
    assert genus3_verdict(s, s_kind).rule == "PirrB-supersingular-parity"
    for pair in ((5, 2, -1), (8, 1, -7), (7, 0, -13), (9, 0, -9)):
        f, kind = _kind(*pair)
        verdict = genus3_verdict(f, kind)
        assert verdict.genus3_curve_exists == verdict.deg4_polarisation_exists


def test_verdict_rejects_outside():
    f, kind = _kind(2, 0, -1)
    with pytest.raises(WrongKind):
        genus3_verdict(f, kind)


def test_family_a_even_q_has_no_genus3_up_to_512():
    seen = 0
    for f, kind in _members(512):
        if kind.family is Family.PIRR_A and f.q % 2 == 0:
            seen += 1
            assert genus3_verdict(f, kind).genus3_curve_exists is False, (f.q, f.a, f.b)
    assert seen > 0


def test_ordinary_family_b_verdict_matches_inert_shape():
    # for ordinary Weil-restriction classes the three shapes of 2 in K
    # partition the family and the negative verdict is exactly the inert
    # shape; the supersingular classes are excluded (their field shape is
    # inert for both parities while the verdict depends on the parity)
    for f, kind in _members(100):
        if kind.family is not Family.PIRR_B:
            continue
        if p_rank_class(f, kind) is not PRankClass.ORDINARY:
            continue
        inert = two_adic_data(f, kind).shape2_K.factors == ((2, 2, 1),)
        assert genus3_verdict(f, kind).deg4_polarisation_exists == (not inert), (f.q, f.a, f.b)


def test_family_a_verdict_matches_subfield_splitting():
    for f, kind in _members(100):
        if kind.family is not Family.PIRR_A:
            continue
        inert = two_adic_data(f, kind).split2_Kplus is Split2.INERT
        assert genus3_verdict(f, kind).deg4_polarisation_exists == (not inert)


def test_verdicts_are_deterministic():
    first = [(f.q, f.a, f.b, genus3_verdict(f, k)) for f, k in _members(50)]
    second = [(f.q, f.a, f.b, genus3_verdict(f, k)) for f, k in _members(50)]
    assert first == second


# ---------------------------------------------------------------------------
# curve shape constraints and the clause certifying no curves of genus <= 2


def _cell(q, a, b):
    f, kind = _kind(q, a, b)
    return dict(item.split("=", 1) for item in curve_shape_constraints(f, kind).split(";"))


def test_certificate_clause_a():
    assert _cell(8, 1, -7)["clause"] == "a"


def test_certificate_clause_a_vacuous():
    # b = -1 has no prime divisor at all
    assert _cell(2, 1, -1)["clause"] == "a"


def test_certificate_clause_b():
    assert _cell(7, 0, -13)["clause"] == "b:b=1-2q"
    # the special square carries its matched pattern in b_case
    assert _cell(2, 0, -4)["clause"] == "b:(q,b)=(2,-4)"


def test_certificate_rejects_outside():
    f, kind = _kind(13, 0, -11)
    with pytest.raises(WrongKind):
        curve_shape_constraints(f, kind)


def test_constraints_odd_characteristic():
    f, kind = _kind(9, 0, -9)
    assert curve_shape_constraints(f, kind) == (
        "clause=b:b=-q;not_hyperelliptic=true;bielliptic_plane_quartic=true;jacobian_splits_E_x_A=true"
    )
    cell = _cell(5, 2, -1)
    assert cell["not_hyperelliptic"] == "true"
    assert cell["clause"] == "a"


def test_constraints_unasserted_in_characteristic_2():
    cell = _cell(8, 1, -7)
    assert cell["not_hyperelliptic"] == "unasserted"
    assert cell["bielliptic_plane_quartic"] == "unasserted"
    assert cell["jacobian_splits_E_x_A"] == "unasserted"
