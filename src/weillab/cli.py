"""Command line front end: it parses arguments and hands them to the library.

Subcommands:
    classify   one class from coefficients or from a label
    enumerate  all family members for a range of q, as table, CSV or JSON
    bounds     point-count interval calculators
    label      label codec utilities

Exit codes: 0 success, 1 invalid input, 2 internal invariant violation.
A reader that goes away (a closed pipe) stops the run with exit 0 and no
message.  An error is one line of printable ASCII under 200 bytes,
however long the input it quotes.

``enumerate`` refuses q above the safe bound SAFE_BOUND = 10^6.  The
single-class subcommands take every q the library factorises, q < 2^40:
a larger q exits 1 before any sieve is built (``core.trial_limit``).

A subcommand imports the modules that only it runs when it runs, so a
cold process loads no more than it needs: ``label`` loads no weillab
module beyond ``core`` and ``classify``, and neither ``csv`` nor
``json``; ``classify`` and ``enumerate`` import ``records``, and
``bounds`` imports ``bounds`` and ``json``.
"""

from __future__ import annotations

import argparse
import io
import os
import stat
import sys
from collections import Counter
from collections.abc import Iterator
from contextlib import AbstractContextManager, ExitStack, contextmanager, nullcontext
from operator import attrgetter

from .classify import Family
from .core import InternalInvariantError, label_coefficients, make_weil_quartic, prime_powers_in_range, render_label

SAFE_BOUND = 10**6
# the summary's tally key of a record, and its a, which is nonzero for a record that stands for a pair
_KIND_GENUS3 = attrgetter("class_kind", "genus3_exists")
_A = attrgetter("a")
# bounds --family -> (its calculator in weillab.bounds, the flags it takes after --q, in
# argument order); nonpp may omit --b
_BOUNDS = {
    "general": ("genus_bounds_on_surface", ("a", "pa")),
    "wres": ("weil_restriction_bounds", ()),
    "nonpp": ("non_pp_bounds", ("b",)),
    "serre": ("serre_weil_interval", ("g",)),
}


# every ASCII control character -> its escape; the other non-ASCII ones are escaped on encoding
_CONTROL_ESCAPES = {code: f"\\x{code:02x}" for code in (*range(32), 127)}
# the characters an error message keeps, so that its line stays under 200 bytes
_ERROR_LIMIT = 140


def _error_line(prefix: str, message: str) -> str:
    """``prefix: message`` and a newline, one line of printable ASCII under 200 bytes.

    Control and non-ASCII characters are written as backslash escapes, so
    no input ends the line early or takes more than a byte per character.
    An escaped message longer than _ERROR_LIMIT characters keeps its start
    and is followed by "... (N characters)", N its whole length.
    """
    text = message.translate(_CONTROL_ESCAPES).encode("ascii", "backslashreplace").decode("ascii")
    if len(text) > _ERROR_LIMIT:
        text = f"{text[:_ERROR_LIMIT]}... ({len(text)} characters)"
    return f"{prefix}: {text}\n"


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the contract wants 1
    def error(self, message: str) -> None:  # type: ignore[override]
        self.exit(1, _error_line("error", message))


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


def _run_classify(args: argparse.Namespace, out: io.TextIOBase, err: io.TextIOBase) -> int:
    from .records import build_record, to_json_line

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
    record = build_record(make_weil_quartic(q, a, b))
    out.write(to_json_line(record))
    return 0


def _summary_line(q_min: int, q_max: int, kinds: Counter, genus3: Counter) -> str:
    kind_part = " ".join(f"{k.value}={kinds[k.value]}" for k in Family if k is not Family.OUTSIDE)
    return (
        f"summary q={q_min}..{q_max}: records={sum(kinds.values())} {kind_part} "
        f"genus3_yes={genus3[True]} genus3_no={genus3[False]}"
    )


def _open_output(path: str) -> AbstractContextManager[io.TextIOBase]:
    """The sink of ``--output PATH``, refusing at once what ``open(PATH, "w")`` refuses.

    A regular file, or a path where none exists yet, is written through
    ``_replace_on_success``.  Anything else (a device such as /dev/null, a
    pipe) has no old bytes to keep and must not be replaced, so it is
    opened as it is.  A missing path whose last part names no file ("",
    "dir/", "dir/.") cannot be created: an exclusive create of it raises
    the error ``open()`` raises, before ``os.path.realpath`` could turn it
    into a name that can be.
    """
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        if os.path.basename(path) in ("", ".", ".."):
            os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL)  # always raises, naming no file
        return _replace_on_success(path, None)
    if not stat.S_ISREG(mode):
        return open(path, "w", encoding="utf-8", newline="")
    os.close(os.open(path, os.O_WRONLY))  # a file we may not write fails here, before any work
    return _replace_on_success(path, stat.S_IMODE(mode))


@contextmanager
def _replace_on_success(path: str, mode: int | None) -> Iterator[io.TextIOBase]:
    """A text file that appears at ``path`` only if the block completes.

    The block writes a new file beside ``path``, with ``mode`` (that of
    the file it replaces) or, for a new file, 0o666 less the umask, as
    ``open(path, "w")`` gives.  ``os.replace`` moves it into place on
    success; any exception, KeyboardInterrupt included, deletes it and
    leaves ``path`` as it was.  If the temporary file cannot be made, its
    error names ``path``, as ``open()`` names the path it is given.
    """
    target = os.path.realpath(path)  # through a symbolic link, as open() writes, not over it
    directory, name = os.path.split(target)
    temporary = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "w", encoding="utf-8", newline="") as sink:
            if mode is not None:
                os.fchmod(fd, mode)
            yield sink
        os.replace(temporary, target)
    except BaseException:
        os.unlink(temporary)
        raise


def _run_enumerate(args: argparse.Namespace, out: io.TextIOBase, err: io.TextIOBase) -> int:
    from .records import FIELD_NAMES, TABLE_COLUMNS, pair_lines, records_for_q, table_line, table_rows

    q_min, q_max = args.q_min, args.q_max
    if q_min < 2 or q_min > q_max:
        raise ValueError(f"need 2 <= q-min <= q-max, got {q_min}..{q_max}")
    if q_max > SAFE_BOUND:
        raise ValueError(f"q='{q_max}' exceeds the safe bound {SAFE_BOUND}")
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    # (class_kind, genus3_exists) -> members: one per record, and one more per record with
    # a != 0, which stands for a pair
    tally: Counter = Counter()
    table = args.format == "table"
    # each q's records are written and dropped before the next q; the table format
    # spools each q's rows, their cells tab-joined, and keeps the widest cell of each
    # column, then pads the rows on one read back
    widest = list(TABLE_COLUMNS)
    with nullcontext(out) if args.output is None else _open_output(args.output) as sink, ExitStack() as stack:
        spool = None
        if table:
            # imported here: tempfile loads random, shutil, bz2 and lzma, which no other run needs
            import tempfile

            spool = stack.enter_context(tempfile.TemporaryFile("w+", encoding="utf-8", newline=""))
        if args.format == "csv":
            sink.write(",".join(FIELD_NAMES) + "\n")
        # records_for_q holds the a >= 0 members of each pair (+-a, b), whose two records
        # share every cell but a and the label; both writers keep (q, a, b) order
        for q in prime_powers_in_range(q_min, q_max):
            records = records_for_q(q)
            if args.only_no_genus3:
                records = [record for record in records if record.genus3_exists is False]
            if table:
                rows = table_rows(records)
                widest = [max(column, key=len) for column in zip(widest, *rows)]
                spool.writelines("\t".join(cells) + "\n" for cells in rows)
            else:
                sink.write("".join(pair_lines(records, args.format)))
            tally.update(map(_KIND_GENUS3, records))
            tally.update(map(_KIND_GENUS3, filter(_A, records)))
        if table:
            widths = [len(cell) for cell in widest]
            spool.seek(0)
            sink.write(table_line(TABLE_COLUMNS, widths))
            sink.writelines(table_line(line[:-1].split("\t"), widths) for line in spool)

    kinds: Counter = Counter()
    genus3: Counter = Counter()
    for (kind, genus3_exists), count in tally.items():
        kinds[kind] += count
        genus3[genus3_exists] += count
    summary = _summary_line(q_min, q_max, kinds, genus3)
    if table and args.output is None:
        out.write(summary + "\n")
    else:
        err.write(summary + "\n")
    return 0


def _run_bounds(args: argparse.Namespace, out: io.TextIOBase, err: io.TextIOBase) -> int:
    import json

    from . import bounds

    name, takes = _BOUNDS[args.family]
    calculator = getattr(bounds, name)
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
    try:
        line = json.dumps(payload)
    except ValueError:  # an end point with more digits than int-to-str conversion allows
        # only --g and --pa are unbounded, each the last flag of its family; the others are checked by the calculators
        raise ValueError(f"--family {args.family}: end points too long to print; give a smaller --{takes[-1]}") from None
    out.write(line + "\n")
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
    f = make_weil_quartic(q, a, b)
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
        code = args.handler(args, out, err)
        out.flush()  # a reader that went away shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader went away (say `| head`), a normal stop; stdout now goes
        # to devnull, so what is still buffered for it cannot fail at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, out.fileno())
        os.close(devnull)
        return 0
    except (ValueError, OSError) as exc:
        err.write(_error_line("error", str(exc)))
        return 1
    except (InternalInvariantError, AssertionError) as exc:
        err.write(_error_line("internal error", str(exc)))
        return 2


def main_entry() -> None:
    raise SystemExit(main())
