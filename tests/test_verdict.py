from __future__ import annotations

import pytest

from weillab import (
    WrongKind,
    curve_shape_constraints,
    genus3_verdict,
    two_adic_data,
)

from strategies import kind_of


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
    f, kind = kind_of(q, a, b)
    assert genus3_verdict(f, kind).deg4_polarisation_exists is expected


def test_degree4_rejects_specials_and_outside():
    # a special is settled without the criterion: no flag, and no 2-adic data to read one from
    f, kind = kind_of(2, 0, -4)
    assert genus3_verdict(f, kind).deg4_polarisation_exists is None
    with pytest.raises(WrongKind):
        two_adic_data(f, kind)
    g, g_kind = kind_of(2, 0, -1)
    with pytest.raises(WrongKind):
        genus3_verdict(g, g_kind)


# ---------------------------------------------------------------------------
# the clause certifying no curves of genus <= 2


def test_certificate_rejects_outside():
    f, kind = kind_of(13, 0, -11)
    with pytest.raises(WrongKind):
        curve_shape_constraints(f, kind)
