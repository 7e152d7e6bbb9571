"""build_record derives each per-class quantity once and passes it on.

The record's fields must equal what the single-function public calls
give on their own, and one record of a family A or B member must make
exactly one squarefree decomposition and at most one irreducibility
test.  The 2-adic data is worked out once, inside the genus-3 verdict.
"""

from __future__ import annotations

import sys
from collections import Counter

import pytest

from weillab import (
    build_record,
    fplus_discriminant,
    genus3_verdict,
    is_irreducible_over_Q,
    make_weil_quartic,
    squarefree_part,
    two_adic_data,
)
from weillab.classify import Family, classify

from strategies import family_members


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
    counts = _count_calls(monkeypatch, squarefree_part, is_irreducible_over_Q)
    build_record(f, kind)
    assert counts["squarefree_part"] == 1
    assert counts["is_irreducible_over_Q"] == 0
    counts.clear()
    build_record(f)  # classify runs the one irreducibility test
    assert counts["squarefree_part"] == 1
    assert counts["is_irreducible_over_Q"] == 1


def test_outside_record_tests_irreducibility_once(monkeypatch):
    f = make_weil_quartic(7, 1, 1)
    counts = _count_calls(monkeypatch, squarefree_part, is_irreducible_over_Q)
    record = build_record(f)
    assert record.class_kind == "Outside"
    assert counts["squarefree_part"] == 1
    assert counts["is_irreducible_over_Q"] == 1


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
    f = make_weil_quartic(q, a, b)
    kind = classify(f)
    counts = _count_calls(monkeypatch, two_adic_data)
    build_record(f, kind)
    assert counts["two_adic_data"] == calls


def test_verdict_carries_the_two_adic_data_it_was_read_from():
    inert_rules = 0
    for f, kind in family_members(512):
        verdict = genus3_verdict(f, kind)
        if not kind.is_irreducible_family:
            assert verdict.two_adic is None
            continue
        assert verdict.two_adic == two_adic_data(f, kind)
        if kind.family is Family.PIRR_A:
            inert = verdict.two_adic.d % 8 == 5
            assert (verdict.rule == "PirrA-inert") == inert, (f.q, f.a, f.b)
            inert_rules += inert
    assert inert_rules > 0
