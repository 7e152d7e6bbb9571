"""Command line front end.

Subcommands:
    classify   one class from coefficients or from a label
    enumerate  all family members for a range of q, as table, CSV or JSON
    bounds     point-count interval calculators
    label      label codec utilities

Exit codes: 0 success, 1 invalid input, 2 internal invariant violation.
Every subcommand refuses q above the safe bound SAFE_BOUND = 10^6.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from collections import Counter

from .bounds import genus_bounds_on_surface, non_pp_bounds, serre_weil_interval, weil_restriction_bounds
from .classify import Family
from .core import (
    InternalInvariantError,
    WeilQuartic,
    label_coefficients,
    make_weil_quartic,
    prime_power_decomposition,
    render_label,
)
from .records import FIELD_NAMES, ClassRecord, build_record, csv_row, records_for_q, to_json_line

SAFE_BOUND = 10**6

_TABLE_COLUMNS = (
    "q", "a", "b", "label", "class_kind", "b_case", "ordinary",
    "d", "split2_Kplus", "deg4_polarisation", "genus3_exists", "rule",
)
# bounds --family -> (calculator, the flags it takes after --q, in argument order); nonpp may omit --b
_BOUNDS = {
    "general": (genus_bounds_on_surface, ("a", "pa")),
    "wres": (weil_restriction_bounds, ()),
    "nonpp": (non_pp_bounds, ("b",)),
    "serre": (serre_weil_interval, ("g",)),
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the contract wants 1
    def error(self, message: str) -> None:  # type: ignore[override]
        self.exit(1, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="weillab", description="Weil quartic classification and bounds")
    subparsers = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_classify = subparsers.add_parser("classify", help="classify one isogeny class")
    p_classify.set_defaults(handler=_run_classify)
    p_classify.add_argument("--q", type=int)
    p_classify.add_argument("--a", type=int)
    p_classify.add_argument("--b", type=int)
    p_classify.add_argument("--label", type=str)

    p_enum = subparsers.add_parser("enumerate", help="enumerate family members over a q range")
    p_enum.set_defaults(handler=_run_enumerate)
    p_enum.add_argument("--q-min", type=int, required=True)
    p_enum.add_argument("--q-max", type=int, required=True)
    p_enum.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p_enum.add_argument("--only-no-genus3", action="store_true",
                        help="keep only classes with no genus-3 curve")
    p_enum.add_argument("--output", type=str, default=None, help="write records to a file")
    p_enum.add_argument("--jobs", type=int, default=1,
                        help="accepted for compatibility; enumeration runs in one thread")

    p_bounds = subparsers.add_parser("bounds", help="point-count interval calculators")
    p_bounds.set_defaults(handler=_run_bounds)
    p_bounds.add_argument("--q", type=int, required=True)
    p_bounds.add_argument("--family", choices=tuple(_BOUNDS), required=True)
    p_bounds.add_argument("--a", type=int)
    p_bounds.add_argument("--pa", type=int)
    p_bounds.add_argument("--g", type=int)
    p_bounds.add_argument("--b", type=int, help="middle coefficient b = a^2 - q for the nonpp variant")

    p_label = subparsers.add_parser("label", help="encode or decode isogeny-class labels")
    p_label.set_defaults(handler=_run_label)
    mode = p_label.add_mutually_exclusive_group(required=True)
    mode.add_argument("--encode", type=str, help="q,a,b")
    mode.add_argument("--decode", type=str)

    return parser


def _check_q(q: int) -> None:
    if q > SAFE_BOUND:
        raise ValueError(f"q={q} exceeds the safe bound {SAFE_BOUND}")


def _bounded_quartic(q: int, a: int, b: int) -> WeilQuartic:
    # guard q before make_weil_quartic factorises it
    _check_q(q)
    return make_weil_quartic(q, a, b)


def _run_classify(args: argparse.Namespace, out: io.TextIOBase, err: io.TextIOBase) -> int:
    by_coeffs = args.q is not None or args.a is not None or args.b is not None
    by_label = args.label is not None
    if by_coeffs == by_label:
        raise ValueError("provide either --q/--a/--b or --label")
    if by_label:
        q, a, b = label_coefficients(args.label)
    else:
        if args.q is None or args.a is None or args.b is None:
            raise ValueError("coefficient form needs all of --q, --a and --b")
        q, a, b = args.q, args.a, args.b
    record = build_record(_bounded_quartic(q, a, b))
    out.write(to_json_line(record) + "\n")
    return 0


def prime_powers_in_range(lo: int, hi: int) -> list[int]:
    """Prime powers q with lo <= q <= hi, ascending; other q are skipped."""
    found = [q for q in range(max(2, lo), hi + 1) if prime_power_decomposition(q) is not None]
    return found


def _summary_line(q_min: int, q_max: int, records: list[ClassRecord]) -> str:
    kinds = Counter(record.class_kind for record in records)
    genus3 = Counter(record.genus3_exists for record in records)
    kind_part = " ".join(f"{k.value}={kinds[k.value]}" for k in Family if k is not Family.OUTSIDE)
    return (
        f"summary q={q_min}..{q_max}: records={len(records)} {kind_part} "
        f"genus3_yes={genus3[True]} genus3_no={genus3[False]}"
    )


def _render_table(records: list[ClassRecord], out: io.TextIOBase) -> None:
    rows = [[_table_cell(record, name) for name in _TABLE_COLUMNS] for record in records]
    widths = [
        max(len(name), *(len(row[i]) for row in rows)) if rows else len(name)
        for i, name in enumerate(_TABLE_COLUMNS)
    ]
    out.write("  ".join(name.ljust(widths[i]) for i, name in enumerate(_TABLE_COLUMNS)).rstrip() + "\n")
    for row in rows:
        out.write("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip() + "\n")


def _table_cell(record: ClassRecord, name: str) -> str:
    value = getattr(record, name)
    if value is None:
        return "-"
    if value is True:
        return "yes"
    if value is False:
        return "no"
    return str(value)


def _run_enumerate(args: argparse.Namespace, out: io.TextIOBase, err: io.TextIOBase) -> int:
    q_min, q_max = args.q_min, args.q_max
    if q_min < 2 or q_min > q_max:
        raise ValueError(f"need 2 <= q-min <= q-max, got {q_min}..{q_max}")
    _check_q(q_max)
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    # records_for_q yields (a, b) order, so the records come out in (q, a, b) order
    records = [record for q in prime_powers_in_range(q_min, q_max) for record in records_for_q(q)]
    if args.only_no_genus3:
        records = [record for record in records if record.genus3_exists is False]

    sink = open(args.output, "w", encoding="utf-8", newline="") if args.output else out
    try:
        if args.format == "csv":
            writer = csv.writer(sink, lineterminator="\n")
            writer.writerow(FIELD_NAMES)
            for record in records:
                writer.writerow(csv_row(record))
        elif args.format == "json":
            for record in records:
                sink.write(to_json_line(record) + "\n")
        else:
            _render_table(records, sink)
    finally:
        if args.output:
            sink.close()

    summary = _summary_line(q_min, q_max, records)
    if args.format == "table" and not args.output:
        out.write(summary + "\n")
    else:
        err.write(summary + "\n")
    return 0


def _run_bounds(args: argparse.Namespace, out: io.TextIOBase, err: io.TextIOBase) -> int:
    _check_q(args.q)
    calculator, takes = _BOUNDS[args.family]
    given = tuple(flag for flag in ("a", "pa", "g", "b") if getattr(args, flag) is not None)
    if given != takes and (args.family, given) != ("nonpp", ()):
        raise ValueError(f"--family {args.family} takes {' and '.join('--' + flag for flag in takes) or 'no flag'}")
    interval = calculator(args.q, *(getattr(args, flag) for flag in takes))
    payload = {
        "family": interval.family.value,
        "q": args.q,
        "center": interval.center,
        "radius": interval.radius,
        "lo": interval.lo,
        "hi": interval.hi,
        "raw_lo": interval.raw_lo,
    }
    if interval.note is not None:
        payload["note"] = interval.note
    out.write(json.dumps(payload) + "\n")
    return 0


def _run_label(args: argparse.Namespace, out: io.TextIOBase, err: io.TextIOBase) -> int:
    if args.encode is not None:
        parts = args.encode.split(",")
        if len(parts) != 3:
            raise ValueError(f"--encode expects q,a,b, got {args.encode!r}")
        try:
            q, a, b = (int(part) for part in parts)
        except ValueError:
            raise ValueError(f"--encode expects three integers, got {args.encode!r}")
    else:
        q, a, b = label_coefficients(args.decode)
    f = _bounded_quartic(q, a, b)
    out.write(render_label(f) + "\n" if args.encode is not None else f"q={f.q} a={f.a} b={f.b}\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return int(exit_.code or 0)
    out, err = sys.stdout, sys.stderr
    try:
        return args.handler(args, out, err)
    except (ValueError, OSError) as exc:
        err.write(f"error: {exc}\n")
        return 1
    except (InternalInvariantError, AssertionError) as exc:
        err.write(f"internal error: {exc}\n")
        return 2


def main_entry() -> None:
    raise SystemExit(main())
