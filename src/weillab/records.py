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
from .core import WeilQuartic, is_irreducible_over_Q, render_label, squarefree_part
from .two_adic import fplus_discriminant, two_adic_data
from .verdict import curve_shape_constraints, genus3_verdict

FIELD_NAMES = (
    "q",
    "p",
    "r",
    "a",
    "b",
    "label",
    "class_kind",
    "b_case",
    "ordinary",
    "irreducible",
    "fplus_disc",
    "c",
    "d",
    "split2_Kplus",
    "K_over_Kplus_ramified",
    "shape2_K",
    "deg4_polarisation",
    "genus3_exists",
    "rule",
    "curve_constraints",
    "notes",
)


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


assert tuple(f.name for f in fields(ClassRecord)) == FIELD_NAMES


def build_record(f: WeilQuartic, kind: ClassKind | None = None) -> ClassRecord:
    """Full record for one class; kind is classified when not supplied.

    Each derived quantity is computed once.  For family A and B members
    :func:`two_adic_data` factorises the discriminant of f+, and its
    (c, d) and splitting of 2 in K+ feed the record and the genus-3
    verdict.  The irreducible column is read from ``kind``, which
    classify settled: family members are irreducible, the two specials
    are not, and only an Outside class is tested here.
    """
    if kind is None:
        kind = classify(f)
    delta = fplus_discriminant(f)
    data = None
    c = d = None
    if kind.is_irreducible_family:
        data = two_adic_data(f, kind)
        c, d = data.c, data.d
    elif delta != 0:
        c, d = squarefree_part(delta)
    if kind.family is Family.OUTSIDE:
        irreducible = is_irreducible_over_Q(f)
    else:
        irreducible = kind.is_irreducible_family
    record = {
        "q": f.q,
        "p": f.p,
        "r": f.r,
        "a": f.a,
        "b": f.b,
        "label": render_label(f),
        "class_kind": kind.family.value,
        "b_case": kind.b_case,
        "ordinary": None,
        "irreducible": irreducible,
        "fplus_disc": delta,
        "c": c,
        "d": d,
        "split2_Kplus": None,
        "K_over_Kplus_ramified": None,
        "shape2_K": None,
        "deg4_polarisation": None,
        "genus3_exists": None,
        "rule": None,
        "curve_constraints": None,
        "notes": None,
    }
    notes: list[str] = []
    if kind.family is Family.OUTSIDE:
        notes.append(f"reason={kind.reason}")
    else:
        verdict = genus3_verdict(f, kind, data.split2_Kplus if data is not None else None)
        record["genus3_exists"] = verdict.genus3_curve_exists
        record["rule"] = verdict.rule
        record["deg4_polarisation"] = verdict.deg4_polarisation_exists
        record["curve_constraints"] = curve_shape_constraints(f, kind)
        if verdict.witness:
            notes.append(f"witness={verdict.witness}")
        if verdict.note:
            notes.append(verdict.note)
        if data is not None:
            record["ordinary"] = p_rank_class(f, kind) is PRankClass.ORDINARY
            record["split2_Kplus"] = data.split2_Kplus.value
            record["K_over_Kplus_ramified"] = data.K_over_Kplus_ramified
            record["shape2_K"] = str(data.shape2_K)
    record["notes"] = "; ".join(notes) if notes else None
    return ClassRecord(**record)


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
    return json.dumps(to_json_obj(record), separators=(", ", ": "))


def from_json_obj(obj: dict) -> ClassRecord:
    missing = [name for name in FIELD_NAMES if name not in obj]
    if missing:
        raise ValueError(f"record object is missing fields {missing}")
    return ClassRecord(**{name: obj[name] for name in FIELD_NAMES})
