"""The committed genus-3 witnesses against the verdicts and bounds of the records they certify.

Each witness in ``certify.witnesses`` is a smooth bielliptic plane
quartic whose Prym lands on a class; that class must have a "yes"
genus-3 verdict and claim the curve's shape, and the curve's points
must lie in the intervals weillab prints.  The counts are checked
against brute-force recounts made once, outside the suite.
"""

from __future__ import annotations

import re

import pytest

from weillab import SPECIAL_Q3_WITNESS, build_record, make_weil_quartic, non_pp_bounds, serre_weil_interval

from certify.witnesses import WITNESSES, curve_points, is_smooth, is_squarefree_quartic, prym, quotient_points

# name -> (#C over F_p and F_{p^2}, #E over F_p and F_{p^2})
COUNTS = {
    "SPECIAL_Q3_WITNESS": ((4, 4), (4, 16)),
    "q23_split": ((21, 545), (25, 575)),
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
