"""The committed genus-3 witnesses against the verdicts and bounds of the records they certify.

Each witness in ``certify.witnesses`` is a smooth bielliptic plane
quartic whose Prym lands on a class; that class must have a "yes"
genus-3 verdict and claim the curve's shape, and the curve's points
must lie in the intervals weillab prints.  The counts are checked
against brute-force recounts made once, outside the suite.
"""

from __future__ import annotations

import re
from collections import Counter

import pytest

from weillab import (
    SPECIAL_Q3_WITNESS,
    build_record,
    make_weil_quartic,
    non_pp_bounds,
    serre_weil_interval,
    weil_restriction_bounds,
)

from certify.search import all_forms
from certify.witnesses import (
    WITNESSES,
    Field,
    Witness,
    curve_points,
    discriminant_form,
    is_smooth,
    is_squarefree_quartic,
    prym,
    quotient_points,
)

# name -> (#C over F_p and F_{p^2}, #E over F_p and F_{p^2})
COUNTS = {
    "SPECIAL_Q3_WITNESS": ((4, 4), (4, 16)),
    "q23_split": ((21, 545), (25, 575)),
    "q3_b2m2q": ((2, 4), (2, 12)),
    "q5_ramified": ((1, 21), (3, 27)),
    "q13_ramified": ((15, 169), (15, 195)),
    "q19_split": ((13, 313), (13, 351)),
}
BY_NAME = {witness.name: witness for witness in WITNESSES}
each_witness = pytest.mark.parametrize("witness", WITNESSES, ids=list(BY_NAME))


@each_witness
def test_witness_is_a_smooth_plane_quartic(witness):
    assert is_smooth(witness)


@each_witness
def test_witness_counts_give_its_prym(witness):
    curve, quotient = COUNTS[witness.name]
    assert tuple(curve_points(witness, k) for k in (1, 2)) == curve
    assert tuple(quotient_points(witness, k) for k in (1, 2)) == quotient
    assert prym(witness) == witness.prym


@each_witness
def test_witness_class_has_a_genus3_curve_of_that_shape(witness):
    # the Prym's class and its quadratic twist (-a, b) share a verdict
    a, b = witness.prym
    for twist in {a, -a}:
        record = build_record(make_weil_quartic(witness.p, twist, b))
        assert record.genus3_exists is True
        assert "bielliptic_plane_quartic=true" in record.curve_constraints.split(";")


@each_witness
def test_witness_points_lie_in_the_printed_intervals(witness):
    points = curve_points(witness, 1)
    serre = serre_weil_interval(witness.p, 3)
    assert serre.lo <= points <= serre.hi


def test_q23_witness_points_lie_in_the_non_pp_interval():
    bounds = non_pp_bounds(23, -7)
    assert (bounds.lo, bounds.hi) == (9, 39)
    assert bounds.lo <= curve_points(BY_NAME["q23_split"], 1) <= bounds.hi


@pytest.mark.parametrize(
    "name,bounds,interval",
    [
        ("q5_ramified", non_pp_bounds(5, -1), (0, 13)),
        ("q13_ramified", non_pp_bounds(13, -13), (1, 27)),
        ("q19_split", non_pp_bounds(19, -19), (5, 35)),
        ("q3_b2m2q", weil_restriction_bounds(3), (1, 7)),
    ],
)
def test_witness_points_lie_in_its_class_interval(name, bounds, interval):
    # family A rows in the non-pp interval of their b, the b = 2 - 2q row on a Weil restriction
    assert (bounds.lo, bounds.hi) == interval
    assert bounds.lo <= curve_points(BY_NAME[name], 1) <= bounds.hi


def test_every_smooth_form_at_q3_misses_the_no_class_and_hits_both_yes_classes():
    """All 3^8 forms (h, r) at p = 3: no smooth curve has Prym (0, -5), and (0, -4) and (0, -6) are hit.

    At q = 3 the a = 0 classes (0, -4) and (0, -6) have a "yes" genus-3
    verdict and (0, -5) a "no".  This rests on the records' bielliptic
    claim: a genus-3 curve in any of the three classes is a bielliptic
    plane quartic whose Prym is the class, and over F_3 such a curve,
    with its involution y -> -y, is one of these forms.  So the search
    agrees with the verdicts, but it does not show that no genus-3
    curve lies on a (0, -5) surface.
    """
    pryms = Counter()
    smooth = 0
    for h, r in all_forms(3):
        curve = Witness("form", 3, h, r, None)
        if is_smooth(curve):
            smooth += 1
            pryms[prym(curve)] += 1
    assert smooth == 2592
    assert (pryms[0, -4], pryms[0, -5], pryms[0, -6]) == (72, 0, 2)


def _partials(form: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # d/dx and d/dz of a binary form, as the coefficients of forms of one degree less
    d = len(form) - 1
    return tuple((d - j) * form[j] for j in range(d)), tuple(j * form[j] for j in range(1, d + 1))


def test_smoothness_test_refuses_a_curve_whose_only_flaw_is_a_double_root_of_d():
    # h = z^2, r = x^3 z + x^2 z^2 + z^4 over F_3: r is squarefree, D = 2x^3 z + 2x^2 z^2 has
    # the double root x = 0, and C is singular at x = 0, z = 1, y = i, with i^2 = 2, in F_9
    curve = Witness("d_double_root", 3, (0, 0, 1), (0, 1, 1, 0, 1), None)
    assert is_squarefree_quartic(3, curve.r)
    assert discriminant_form(3, curve.h, curve.r) == (0, 2, 2, 0, 0)
    assert not is_smooth(curve)
    field = Field(3, 2)
    x, y, z = (0, 0), (0, 1), (1, 0)
    y2 = field.mul(y, y)
    assert y2 == (2, 0)
    h, r = field.form(curve.h, x, z), field.form(curve.r, x, z)
    # F = y^4 - h y^2 + r and its partial derivatives in y, x and z
    values = [
        field.add(field.add(field.mul(y2, y2), field.scale(-1, field.mul(h, y2))), r),
        field.add(field.scale(4, field.mul(y, y2)), field.scale(-2, field.mul(h, y))),
    ]
    for dh, dr in zip(_partials(curve.h), _partials(curve.r)):
        values.append(field.add(field.scale(-1, field.mul(field.form(dh, x, z), y2)), field.form(dr, x, z)))
    assert values == [(0, 0)] * 4


def _monomials(text: str) -> dict[tuple[int, int, int], int]:
    # "y^4+xz^3+2x^3z" -> {exponents of (x, y, z): coefficient}
    terms = {}
    for term in text.split("+"):
        coefficient, powers = re.fullmatch(r"(\d*)((?:[xyz](?:\^\d+)?)*)", term).groups()
        exponents = dict.fromkeys("xyz", 0)
        for variable, power in re.findall(r"([xyz])(?:\^(\d+))?", powers):
            exponents[variable] = int(power or 1)
        terms[tuple(exponents.values())] = int(coefficient or 1)
    return terms


def test_special_q3_witness_is_the_verdicts_curve():
    witness = BY_NAME["SPECIAL_Q3_WITNESS"]
    p = witness.p
    expected = {(0, 4, 0): 1}
    expected.update({(2 - j, 2, j): -c % p for j, c in enumerate(witness.h)})
    expected.update({(4 - j, 0, j): c % p for j, c in enumerate(witness.r)})
    assert _monomials(SPECIAL_Q3_WITNESS) == {key: c for key, c in expected.items() if c}


@pytest.mark.parametrize(
    "p,coefficients,squarefree",
    [
        (5, (1, 0, 0, 0, 4), True),  # x^4 - z^4, four distinct roots
        (5, (0, 1, 0, 0, 1), True),  # z is a simple factor
        (5, (0, 0, 1, 0, 1), False),  # z^2 divides
        (5, (1, 0, 4, 0, 0), False),  # x^2 (x^2 - z^2)
        (3, (1, 0, 0, 2, 0), False),  # x (x + 2z)^3: f' has no x^2 term in characteristic 3
        (3, (0, 0, 0, 0, 0), False),
    ],
)
def test_squarefree_test_finds_repeated_factors(p, coefficients, squarefree):
    assert is_squarefree_quartic(p, coefficients) is squarefree
