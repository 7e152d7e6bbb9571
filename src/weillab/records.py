"""Flat per-class records for table, CSV and JSON emission.

A ClassRecord carries primitives only (ints, bools, strings, None) so
that a record serialises losslessly to a CSV row and to a JSON object
with identical field names.  Fields that do not apply to a kind (for
example the 2-adic data of an Outside class) are None, rendered as an
empty CSV cell and a JSON null.
"""

from __future__ import annotations

import csv
import io
import json
from functools import cache
from typing import NamedTuple

from .classify import ClassKind, Family, PRankClass, classify, enumerate_classes, p_rank_class
from .core import WeilQuartic, fplus_discriminant, is_irreducible_over_Q, render_label, squarefree_part
from .two_adic import _delta_split2, two_adic_data
from .verdict import curve_shape_constraints, genus3_verdict


class ClassRecord(NamedTuple):
    q: int
    p: int
    r: int
    a: int
    b: int
    label: str
    class_kind: str
    b_case: str | None
    ordinary: bool | None
    irreducible: bool
    fplus_disc: int
    c: int | None
    d: int | None
    split2_Kplus: str | None
    K_over_Kplus_ramified: bool | None
    shape2_K: str | None
    deg4_polarisation: bool | None
    genus3_exists: bool | None
    rule: str | None
    curve_constraints: str | None
    notes: str | None


FIELD_NAMES = ClassRecord._fields


# (kind, splitting of 2 in K+, p == 2, a == 0) of a family member -> its record cells
# before and after (fplus_disc, c, d); kinds come from classify, so there are a few dozen keys
_MEMBER_CELLS: dict[tuple, tuple[tuple, tuple]] = {}


def build_record(f: WeilQuartic, kind: ClassKind | None = None) -> ClassRecord:
    """Full record for one class; kind is classified when not supplied.

    Per record only the head is computed: q, p, r, a, b, label and the
    discriminant delta of f+ as c^2 * d, from its one squarefree
    decomposition.  For a family A or B member, the 2-adic class of
    delta checks the member and splits 2 in K+.  The other cells (2-adic
    data, :func:`genus3_verdict`, p-rank, curve shape) depend only on the
    kind, that splitting, whether p = 2 and whether a = 0, so they are
    derived once per such key.  The irreducible column is read from
    ``kind``: only an Outside class is tested here.
    """
    if kind is None:
        kind = classify(f)
    if kind.is_irreducible_family:
        delta, split2 = _delta_split2(f)
    else:
        delta, split2 = fplus_discriminant(f), None
    c, d = squarefree_part(delta) if delta != 0 else (None, None)
    if kind.family is Family.OUTSIDE:
        lead = (kind.family.value, None, None, is_irreducible_over_Q(f))
        rest = (None,) * 7 + (f"reason={kind.reason}",)  # no 2-adic data and no verdict
    else:
        key = (kind, split2, f.p == 2, f.a == 0)
        cells = _MEMBER_CELLS.get(key)
        if cells is None:
            cells = _MEMBER_CELLS[key] = _member_cells(f, kind)
        lead, rest = cells
    return ClassRecord(f.q, f.p, f.r, f.a, f.b, render_label(f), *lead, delta, c, d, *rest)


def _member_cells(f: WeilQuartic, kind: ClassKind) -> tuple[tuple, tuple]:
    # the cells of a family member's record before and after (fplus_disc, c, d)
    verdict = genus3_verdict(f, kind)
    notes = [f"witness={verdict.witness}"] if verdict.witness else []
    if verdict.note:
        notes.append(verdict.note)
    if kind.is_irreducible_family:
        data = two_adic_data(f, kind)
        ordinary = p_rank_class(f, kind) is PRankClass.ORDINARY
        lead = (kind.family.value, kind.b_case, ordinary, True)
        two_adic = (data.split2_Kplus.value, data.K_over_Kplus_ramified, str(data.shape2_K))
    else:
        lead = (kind.family.value, None, None, False)
        two_adic = (None, None, None)
    rest = (
        *two_adic,
        verdict.deg4_polarisation_exists,
        verdict.genus3_curve_exists,
        verdict.rule,
        curve_shape_constraints(f, kind),
        "; ".join(notes) if notes else None,
    )
    return lead, rest


def records_for_q(q: int) -> list[ClassRecord]:
    """Records of every family member at q, in (a, b) order.

    The members come from ``enumerate_classes``, which tests only the a
    with q - a^2 = 1 (mod 6) and lists the a < 0 members first, the a > 0
    ones mirrored in reverse.  Only the members with a >= 0 are built:
    (-a, b) has the kind, disc(f+) = 12q - 3a^2 and class key of (a, b),
    so its record is the record of (a, b) with a negated and the sign
    marker ``a`` put in front of enc(a) in the label.
    """
    built = [build_record(f, kind) for f, kind in enumerate_classes(q) if f.a >= 0]
    head = f"2.{q}."
    n = len(head)
    mirrors = [
        ClassRecord._make((*record[:3], -record.a, record.b, f"{head}a{record.label[n:]}", *record[6:]))
        for record in reversed(built)
        if record.a
    ]
    return mirrors + built


def _cell(value: object) -> str:
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


# the cells a record's class decides, on either side of (fplus_disc, c, d)
_LEAD = slice(FIELD_NAMES.index("class_kind"), FIELD_NAMES.index("fplus_disc"))
_REST = slice(FIELD_NAMES.index("split2_Kplus"), None)
_LEAD_FIELDS = FIELD_NAMES[_LEAD]
_REST_FIELDS = FIELD_NAMES[_REST]


@cache
def _class_text(names: tuple[str, ...], cells: tuple) -> tuple[str, str]:
    # the CSV and JSON text of the cells named names, rendered by the stdlib once per key
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([_cell(value) for value in cells])
    return buffer.getvalue()[:-1], json.dumps(dict(zip(names, cells)))[1:-1]


def csv_row(record: ClassRecord) -> str:
    """The record's CSV line, newline included, as ``csv.writer`` writes its cells.

    The head (q, p, r, a, b, label, fplus_disc, c, d) is integers, None
    and a label of ASCII letters, digits, dots and an underscore, none of
    which needs quoting, so it is formatted directly.  The cells the
    class decides are rendered by ``csv.writer`` once per distinct value
    tuple, which decides their quoting.  The cache is keyed by value, and
    1 == True, so the bool columns must hold bool or None only.
    """
    c = "" if record.c is None else record.c
    d = "" if record.d is None else record.d
    lead = _class_text(_LEAD_FIELDS, record[_LEAD])[0]
    rest = _class_text(_REST_FIELDS, record[_REST])[0]
    return (
        f"{record.q},{record.p},{record.r},{record.a},{record.b},{record.label},"
        f"{lead},{record.fplus_disc},{c},{d},{rest}\n"
    )


def to_json_line(record: ClassRecord) -> str:
    """``json.dumps(record._asdict())`` and a newline, built as :func:`csv_row` builds its line.

    The label's characters need no JSON escape, and the class-decided
    cells are rendered by ``json.dumps`` once per distinct value tuple.
    """
    c = "null" if record.c is None else record.c
    d = "null" if record.d is None else record.d
    lead = _class_text(_LEAD_FIELDS, record[_LEAD])[1]
    rest = _class_text(_REST_FIELDS, record[_REST])[1]
    return (
        f'{{"q": {record.q}, "p": {record.p}, "r": {record.r}, "a": {record.a}, "b": {record.b}, '
        f'"label": "{record.label}", {lead}, "fplus_disc": {record.fplus_disc}, "c": {c}, "d": {d}, {rest}}}\n'
    )
