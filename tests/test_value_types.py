"""The value types are immutable, hashable NamedTuples.

Every record and every value the library returns is a ``typing.NamedTuple``:
a field cannot be assigned, the value hashes, and ``_asdict()`` gives the
keyword arguments that rebuild it.  The serialisers take the cells a
record's class decides as two slices of the record, so the slices must
cover exactly those fields; a field moved across them would shift cells
silently.  Importing the command line front end loads neither
``dataclasses`` nor ``inspect``.
"""

from __future__ import annotations

import subprocess
import sys

import pytest

from weillab import (
    build_record,
    classify,
    enumerate_classes,
    genus3_verdict,
    make_weil_quartic,
    non_pp_bounds,
    two_adic_data,
)
from weillab import records
from weillab.cli import main
from weillab.classify import B_CASE_1_MINUS_2Q, Family
from weillab.records import FIELD_NAMES, ClassRecord

LEAD_NAMES = ("class_kind", "b_case", "ordinary", "irreducible")
REST_NAMES = (
    "split2_Kplus", "K_over_Kplus_ramified", "shape2_K", "deg4_polarisation",
    "genus3_exists", "rule", "curve_constraints", "notes",
)


def _one_of_each():
    f = make_weil_quartic(11, 2, -7)  # family A: 4 - (-7) = 11 and 7 is 1 mod 3
    kind = classify(f)
    data = two_adic_data(f, kind)
    return [f, kind, data.shape2_K, data, genus3_verdict(f, kind), non_pp_bounds(11, -7), build_record(f, kind)]


@pytest.mark.parametrize("value", _one_of_each(), ids=lambda value: type(value).__name__)
def test_values_are_immutable_hashable_and_rebuilt_from_asdict(value):
    for name in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    assert hash(value) == hash(type(value)(**value._asdict()))
    assert type(value)(**value._asdict()) == value


def test_field_names_are_the_record_fields_and_the_csv_header(capsys):
    assert FIELD_NAMES == ClassRecord._fields
    assert main(["enumerate", "--q-min", "2", "--q-max", "3", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == ",".join(ClassRecord._fields)


def test_serialiser_slices_cover_exactly_the_class_decided_cells():
    assert FIELD_NAMES[records._LEAD] == LEAD_NAMES
    assert FIELD_NAMES[records._REST] == REST_NAMES
    record = build_record(make_weil_quartic(7, 0, -13))  # family B, every cell set
    assert record[records._LEAD] == tuple(getattr(record, name) for name in LEAD_NAMES)
    assert record[records._REST] == tuple(getattr(record, name) for name in REST_NAMES)


def test_irreducible_members_of_one_kind_share_one_kind_value():
    kinds = [kind for q in (13, 31, 49) for _, kind in enumerate_classes(q)]
    family_a = [kind for kind in kinds if kind.family is Family.PIRR_A]
    assert len(family_a) > 2
    assert all(kind is family_a[0] for kind in family_a)
    assert classify(make_weil_quartic(11, 2, -7)) is family_a[0]
    minus_2q = [kind for kind in kinds if kind.b_case == B_CASE_1_MINUS_2Q]
    assert len(minus_2q) == 3
    assert all(kind is minus_2q[0] for kind in minus_2q)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # modules the bare interpreter loads at start-up (say, from a site hook) do not count
    code = (
        "import sys; before = set(sys.modules); import weillab.cli; "
        "print(' '.join(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before))))"
    )
    result = subprocess.run([sys.executable, "-s", "-c", code], capture_output=True, text=True, check=True)
    assert result.stdout.strip() == ""
