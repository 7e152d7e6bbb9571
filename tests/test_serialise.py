"""The CSV and JSON lines of a record are the stdlib's rendering of its cells.

``csv_row`` and ``to_json_line`` format the head of a record directly
and take the cells its class decides from text rendered once per value
tuple.  Whatever class a record is for, the line must be what
``csv.writer`` and ``json.dumps`` write for the whole record, with its
newline.  Half the
draws follow the family patterns, so members of both families meet the
text caches as often as Outside classes do.
"""

from __future__ import annotations

import csv
import io
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from weillab import build_record, make_weil_quartic
from weillab.records import FIELD_NAMES, _cell, csv_row, to_json_line

from strategies import Q_BELOW_10_6, family_pattern_pairs, weil_pairs


def stdlib_csv_line(record) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([_cell(getattr(record, name)) for name in FIELD_NAMES])
    return buffer.getvalue()


@settings(max_examples=300, deadline=None)
@given(st.one_of(family_pattern_pairs(), weil_pairs(Q_BELOW_10_6)))
@example((2, 0, -4))  # SpecialQ2, whose curve constraints quote "(q,b)=(2,-4)"
@example((3, 0, -6))  # SpecialQ3
@example((2, 0, 4))  # delta = 0: no c and d
@example((2, -1, -1))  # family A, with a quoted shape2_K
@example((7, 0, -13))  # family B
@example((7, 0, 1))  # Outside
def test_serialisers_match_the_stdlib(qab):
    record = build_record(make_weil_quartic(*qab))
    assert csv_row(record) == stdlib_csv_line(record)
    assert to_json_line(record) == json.dumps(record._asdict()) + "\n"
