"""Flat per-class records for table, CSV and JSON emission.

A ClassRecord carries primitives only (ints, bools, strings, None) so
that a record serialises losslessly to a CSV row and to a JSON object
with identical field names.  Fields that do not apply to a kind (for
example the 2-adic data of an Outside class) are None, rendered as an
empty CSV cell and a JSON null.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

from .classify import ClassKind, Family, PRankClass, classify, enumerate_classes, p_rank_class
from .core import WeilQuartic, fplus_discriminant, is_irreducible_over_Q, render_label, squarefree_part
from .verdict import curve_shape_constraints, genus3_verdict


@dataclass(frozen=True)
class ClassRecord:
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


FIELD_NAMES = tuple(f.name for f in fields(ClassRecord))


def build_record(f: WeilQuartic, kind: ClassKind | None = None) -> ClassRecord:
    """Full record for one class; kind is classified when not supplied.

    Each derived quantity is computed once.  For every family member
    :func:`genus3_verdict` decides the verdict, and for family A and B it
    carries the 2-adic data (c, d, splitting, shape and ramification)
    that the record reads.  The irreducible column is read from
    ``kind``, which classify settled: family members are irreducible,
    the two specials are not, and only an Outside class is tested here.
    """
    if kind is None:
        kind = classify(f)
    delta = fplus_discriminant(f)
    verdict = data = None
    notes: list[str] = []
    if kind.family is Family.OUTSIDE:
        notes.append(f"reason={kind.reason}")
    else:
        verdict = genus3_verdict(f, kind)
        data = verdict.two_adic
        if verdict.witness:
            notes.append(f"witness={verdict.witness}")
        if verdict.note:
            notes.append(verdict.note)
    if data is not None:
        c, d = data.c, data.d
    else:
        c, d = squarefree_part(delta) if delta != 0 else (None, None)
    return ClassRecord(
        q=f.q,
        p=f.p,
        r=f.r,
        a=f.a,
        b=f.b,
        label=render_label(f),
        class_kind=kind.family.value,
        b_case=None if data is None else kind.b_case,
        ordinary=None if data is None else p_rank_class(f, kind) is PRankClass.ORDINARY,
        irreducible=is_irreducible_over_Q(f) if kind.family is Family.OUTSIDE else kind.is_irreducible_family,
        fplus_disc=delta,
        c=c,
        d=d,
        split2_Kplus=None if data is None else data.split2_Kplus.value,
        K_over_Kplus_ramified=None if data is None else data.K_over_Kplus_ramified,
        shape2_K=None if data is None else str(data.shape2_K),
        deg4_polarisation=None if verdict is None else verdict.deg4_polarisation_exists,
        genus3_exists=None if verdict is None else verdict.genus3_curve_exists,
        rule=None if verdict is None else verdict.rule,
        curve_constraints=None if verdict is None else curve_shape_constraints(f, kind),
        notes="; ".join(notes) if notes else None,
    )


def records_for_q(q: int) -> list[ClassRecord]:
    """Records of every family member at q, in (a, b) order."""
    return [build_record(f, kind) for f, kind in enumerate_classes(q)]


def _cell(value: object) -> str:
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def csv_row(record: ClassRecord) -> list[str]:
    return [_cell(getattr(record, name)) for name in FIELD_NAMES]


def to_json_obj(record: ClassRecord) -> dict:
    return {name: getattr(record, name) for name in FIELD_NAMES}


def to_json_line(record: ClassRecord) -> str:
    return json.dumps(to_json_obj(record))
