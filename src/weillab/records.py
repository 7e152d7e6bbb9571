"""Flat per-class records and their table, CSV and JSON text.

A ClassRecord carries primitives only (ints, bools, strings, None) so
that a record serialises losslessly to a CSV row and to a JSON object
with identical field names.  Fields that do not apply to a kind (for
example the 2-adic data of an Outside class) are None, rendered as an
empty CSV cell, a JSON null and a "-" in the table.
"""

from __future__ import annotations

import csv
import io
import json
from functools import cache
from typing import NamedTuple

from .classify import ClassKind, Family, PRankClass, classify, enumerate_classes, p_rank_class
from .core import (
    InternalInvariantError,
    WeilQuartic,
    is_irreducible_over_Q,
    render_label,
    squarefree_part,
    _encode_coefficient,
    _irreducible,
)
from .two_adic import _split2_of, two_adic_data
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


# the class_kind cell of an Outside record
_OUTSIDE = Family.OUTSIDE.value

# (kind, splitting of 2 in K+, p == 2, a == 0) of a family member -> its record cells
# before and after (fplus_disc, c, d); kinds come from classify, which meets 14 keys
# (tests/strategies.py CLASS_KEY_FIRST_MEMBERS)
_MEMBER_CELLS: dict[tuple, tuple[tuple, tuple]] = {}


def build_record(f: WeilQuartic, kind: ClassKind | None = None) -> ClassRecord:
    """Full record for one class; kind is classified when not supplied.

    Per record only the head is computed: q, p, r, a, b, label and the
    discriminant delta of f+ as c^2 * d, from its one squarefree
    decomposition, for every kind.  For a family A or B member, delta
    and d check the member and d mod 8 splits 2 in K+.  The other cells
    (2-adic data, :func:`genus3_verdict`, p-rank, curve shape) depend
    only on the kind, that splitting, whether p = 2 and whether a = 0,
    so they are derived once per such key.  The irreducible column is
    tested once per class key, and checked against the kind.  An Outside
    class reads it from the decomposition in hand, since delta >= 0 is a
    square exactly when it is 0 or d = 1, by the criterion that
    :func:`is_irreducible_over_Q` applies.
    """
    if kind is None:
        kind = classify(f)
    q, p, r, a, b = f
    delta = a * a - 4 * (b - 2 * q)
    c, d = squarefree_part(delta) if delta else (None, None)
    if kind.family is Family.OUTSIDE:
        lead = (_OUTSIDE, None, None, _irreducible(q, a, b, d is None or d == 1))
        rest = (None,) * 7 + (f"reason={kind.reason}",)  # no 2-adic data and no verdict
    else:
        split2 = _split2_of(f, delta, d) if kind.is_irreducible_family else None
        key = (kind, split2, p == 2, a == 0)
        lead, rest = _MEMBER_CELLS.get(key) or _filled_cells(key, f, kind)
    return ClassRecord._make((q, p, r, a, b, render_label(f), *lead, delta, c, d, *rest))


def _filled_cells(key: tuple, f: WeilQuartic, kind: ClassKind) -> tuple[tuple, tuple]:
    # the cells of a class key met for the first time, from its first member f; the
    # builders read a warm key's cells with one _MEMBER_CELLS.get and call this on a miss
    cells = _MEMBER_CELLS[key] = _member_cells(f, kind)
    return cells


def _member_cells(f: WeilQuartic, kind: ClassKind) -> tuple[tuple, tuple]:
    # the cells of a family member's record before and after (fplus_disc, c, d); the kind
    # gives the irreducible cell, as classify proves from the coefficients, and one test
    # per class key checks that proof
    if is_irreducible_over_Q(f) != kind.is_irreducible_family:
        raise InternalInvariantError(f"the irreducibility test of {f} disagrees with its kind {kind.family.value}")
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
    """Records of the family members at q with a >= 0, in (a, b) order.

    These are the members :func:`~weillab.classify.enumerate_classes`
    lists, and each record with a != 0 stands for its pair of quadratic
    twists (+-a, b), by the proof there.  :func:`with_mirrors` gives every
    member's record; :func:`pair_lines` writes them all.

    The a = 0 members, one to four of varied kinds, come first, and
    :func:`build_record` builds their records, up to the first a > 0
    member.  The a > 0 members are all family A, share q, p and r and
    differ only in a, b and how 2 splits in K+, so one loop over them
    builds their records as :func:`build_record` would build them from
    what is derived once per q, the label prefix ``2.<q>.``, and once per
    (q, splitting of 2), the class cells under :func:`build_record`'s
    class key.  Per record what is left is the codes of a and b, delta =
    a^2 - 4(b - 2q) = c^2 * d from the coefficients and one squarefree
    decomposition, the splitting of 2 from d, with the member checks of
    ``_split2_of``, and one tuple of the record's cells.
    """
    classes = enumerate_classes(q)
    records = []
    for f, kind in classes:
        if f.a:
            break
        records.append(build_record(f, kind))
    prefix = f"2.{q}."
    at_q = {}  # splitting of 2 in K+ -> the class cells of the a > 0 members at q
    for f, kind in classes[len(records) :]:
        _, p, r, a, b = f
        delta = a * a - 4 * (b - 2 * q)
        c, d = squarefree_part(delta)
        split2 = _split2_of(f, delta, d)
        cells = at_q.get(split2)
        if cells is None:
            key = (kind, split2, p == 2, False)
            cells = at_q[split2] = _MEMBER_CELLS.get(key) or _filled_cells(key, f, kind)
        lead, rest = cells
        label = f"{prefix}{_encode_coefficient(a)}_{_encode_coefficient(b)}"
        # ClassRecord._make without its Python frame and length check; tests/test_pairs.py
        # checks each such record against build_record's
        records.append(tuple.__new__(ClassRecord, (q, p, r, a, b, label, *lead, delta, c, d, *rest)))
    return records


def with_mirrors(records: list[ClassRecord]) -> list[ClassRecord]:
    """The records of every member at one q, in (a, b) order, from its ``records_for_q``.

    The (-a, b) records come first, mirrored in reverse from the records
    with a != 0: a twist has the kind, and so the cells, of (a, b) (see
    :func:`~weillab.classify.enumerate_classes`), and differs only in a
    and the sign marker ``a`` put in front of enc(a) in the label.  A
    filter on a cell both members of a pair share (such as
    ``genus3_exists``) gives the same list before as after.
    """
    mirrors = [record._replace(a=-record.a, label=_mirror_label(record.label)) for record in reversed(records) if record.a]
    return mirrors + records


def _mirror_label(label: str) -> str:
    # 2.<q>.<enc(a)>_<enc(b)> of an a > 0 -> the label of (-a, b); codes hold no dot
    head, _, codes = label.rpartition(".")
    return f"{head}.a{codes}"


def _cell(value: object, none: str = "", true: str = "true", false: str = "false") -> str:
    # a CSV cell by default; `is` tests, since 1 == True
    if value is None:
        return none
    if value is True:
        return true
    if value is False:
        return false
    return str(value)


# the cells a record's class decides, on either side of (fplus_disc, c, d)
_LEAD = slice(FIELD_NAMES.index("class_kind"), FIELD_NAMES.index("fplus_disc"))
_REST = slice(FIELD_NAMES.index("split2_Kplus"), None)
_LEAD_FIELDS = FIELD_NAMES[_LEAD]
_REST_FIELDS = FIELD_NAMES[_REST]


def _run_text(names: tuple[str, ...], cells: tuple) -> tuple[str, str]:
    # the CSV and JSON text of the cells named names, each rendered by the stdlib
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([_cell(value) for value in cells])
    return buffer.getvalue()[:-1], json.dumps(dict(zip(names, cells)))[1:-1]


@cache
def _class_text(lead: tuple, rest: tuple) -> tuple[tuple[str, str], tuple[str, str]]:
    # ((csv lead, csv rest), (json lead, json rest)) of a record's class-decided runs,
    # one lookup per record that csv_row or to_json_line writes, and per (q, splitting
    # of 2 in K+) in pair_lines
    return tuple(zip(_run_text(_LEAD_FIELDS, lead), _run_text(_REST_FIELDS, rest)))


def csv_row(record: ClassRecord) -> str:
    """The record's CSV line, newline included, as ``csv.writer`` writes its cells.

    The cells q, p, r, a, b, label, fplus_disc, c and d are integers,
    None and a label of ASCII letters, digits, dots and an underscore,
    none of which needs quoting, so they are formatted directly.  The
    cells the class decides, the runs before and after (fplus_disc, c,
    d), are rendered by ``csv.writer`` once per distinct pair of runs,
    which decides their quoting.  The cache is keyed by that pair of
    value tuples, and 1 == True, so the bool columns must hold bool or
    None only.
    """
    c = "" if record.c is None else record.c
    d = "" if record.d is None else record.d
    lead, rest = _class_text(record[_LEAD], record[_REST])[0]
    return (
        f"{record.q},{record.p},{record.r},{record.a},{record.b},{record.label},"
        f"{lead},{record.fplus_disc},{c},{d},{rest}\n"
    )


def to_json_line(record: ClassRecord) -> str:
    """``json.dumps(record._asdict())`` and a newline, built as :func:`csv_row` builds its line.

    The label's characters need no JSON escape, and the class-decided
    cells are rendered by ``json.dumps`` once per distinct pair of runs.
    """
    c = "null" if record.c is None else record.c
    d = "null" if record.d is None else record.d
    lead, rest = _class_text(record[_LEAD], record[_REST])[1]
    return (
        f'{{"q": {record.q}, "p": {record.p}, "r": {record.r}, "a": {record.a}, "b": {record.b}, '
        f'"label": "{record.label}", {lead}, "fplus_disc": {record.fplus_disc}, "c": {c}, "d": {d}, {rest}}}\n'
    )


def pair_lines(records: list[ClassRecord], fmt: str) -> list[str]:
    """The ``fmt`` ("csv" or "json") lines of ``with_mirrors(records)``, in that order.

    ``records`` are one q's ``records_for_q``, or those of them that a
    filter on a cell both members of a pair share keeps; any other
    ``fmt`` raises ValueError.  One pass over the records writes each
    line.  A record with a = 0 has no mirror and is written by
    :func:`csv_row` or :func:`to_json_line`.  The a > 0 records come
    last, share q, p and r, and, as ``records_for_q`` builds them, their
    class cells once per splitting of 2 in K+, so the text of the q head
    and the label prefix is rendered once per q, from the last record,
    and that of the class cells once per (q, splitting of 2), at the
    first record with that splitting.  A pair (+-a, b) shares every
    other part of its two lines but a and the label, whose mirror puts
    the sign marker ``a`` in front of the codes of (a, b).
    """
    if fmt == "csv":
        single, which = csv_row, 0
    elif fmt == "json":
        single, which = to_json_line, 1
    else:
        raise ValueError(f"pair_lines writes csv or json, not {fmt!r}")
    if not records or not records[-1].a:
        return [single(record) for record in records]
    q, p, r = records[-1][:3]
    prefix = f"2.{q}."
    cut = len(prefix)
    if which == 0:
        head, b_sep, label_sep, c_sep, d_sep = f"{q},{p},{r},", ",", f",{prefix}", ",", ","
    else:
        head, b_sep, label_sep, c_sep, d_sep = (
            f'{{"q": {q}, "p": {p}, "r": {r}, "a": ', ', "b": ', f', "label": "{prefix}', ', "c": ', ', "d": '
        )
    # a line is head + a + mid + codes + post; a mirror's has -a and the codes after "a"
    mirrors, lines, pairs = [], [], []
    runs = {}  # splitting of 2 in K+ -> the fmt text before and after (fplus_disc, c, d)
    for record in records:
        a = record.a
        if not a:
            lines.append(single(record))
            continue
        split2 = record.split2_Kplus
        run = runs.get(split2)
        if run is None:
            lead, rest = _class_text(record[_LEAD], record[_REST])[which]
            run = runs[split2] = (f",{lead},", f",{rest}\n") if which == 0 else (f'", {lead}, "fplus_disc": ', f", {rest}}}\n")
        before, after = run
        mid = f"{b_sep}{record.b}{label_sep}"
        codes = record.label[cut:]
        post = f"{before}{record.fplus_disc}{c_sep}{record.c}{d_sep}{record.d}{after}"
        mirrors.append(f"{head}-{a}{mid}a{codes}{post}")
        pairs.append(f"{head}{a}{mid}{codes}{post}")
    mirrors.reverse()
    return mirrors + lines + pairs


TABLE_COLUMNS = (
    "q", "a", "b", "label", "class_kind", "b_case", "ordinary",
    "d", "split2_Kplus", "deg4_polarisation", "genus3_exists", "rule",
)


def table_rows(records: list[ClassRecord]) -> list[list[str]]:
    """The table cells, in TABLE_COLUMNS, of each of ``with_mirrors(records)``.

    None, True and False read "-", "yes" and "no".  No cell holds a tab
    or a newline.
    """
    return [[_cell(getattr(record, name), "-", "yes", "no") for name in TABLE_COLUMNS] for record in with_mirrors(records)]


def table_line(cells: list[str], widths: list[int]) -> str:
    """One line of the aligned table: each cell padded to its column's width, newline included.

    Columns are two spaces apart and trailing spaces are cut.  A table's
    widths are those of its widest cells, the header's TABLE_COLUMNS
    among them.
    """
    return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths)).rstrip() + "\n"
