from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from weillab import Family, Split2, build_record, classify, cli, make_weil_quartic, records, render_label
from weillab.cli import SAFE_BOUND, main, main_entry
from weillab.core import InternalInvariantError, prime_power_decomposition, prime_powers_in_range
from weillab.records import FIELD_NAMES, ClassRecord, records_for_q, with_mirrors

from oracles import trial_squarefree
from strategies import CLASS_KEY_FIRST_MEMBERS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_short_error_line(code, out, err):
    # exit 1, nothing on stdout, and one printable line under 200 bytes on stderr
    assert (code, out) == (1, ""), err
    assert err.startswith("error: ") and "Traceback" not in err
    assert err.count("\n") == 1 and err.endswith("\n") and err[:-1].isprintable(), err
    assert len(err.encode()) < 200, err


# ---------------------------------------------------------------------------
# classify


def test_classify_by_label_outside(capsys):
    code, out, _ = run_cli(capsys, "classify", "--label", "2.2.a_ab")
    assert code == 0
    assert out.count("\n") == 1 and out.endswith("\n")  # one line, one newline
    record = json.loads(out)
    assert record["class_kind"] == "Outside"
    assert record["q"] == 2 and record["a"] == 0 and record["b"] == -1


def test_classify_by_coefficients(capsys):
    code, out, _ = run_cli(capsys, "classify", "--q", "7", "--a", "0", "--b", "-12")
    assert code == 0
    assert out.count("\n") == 1 and out.endswith("\n")
    record = json.loads(out)
    assert record["class_kind"] == "PirrB"
    assert record["shape2_K"].startswith("(e=4,f=1)x1")
    assert record["genus3_exists"] is True
    assert list(record) == list(FIELD_NAMES)


def test_classify_rejects_non_prime_power(capsys):
    code, _, err = run_cli(capsys, "classify", "--q", "6", "--a", "0", "--b", "-6")
    assert code == 1
    assert "prime power" in err


def test_classify_requires_exactly_one_input_form(capsys):
    code, _, err = run_cli(capsys, "classify", "--q", "7", "--a", "0", "--b", "-12", "--label", "2.2.a_ab")
    assert code == 1
    code, _, err = run_cli(capsys, "classify")
    assert code == 1
    code, _, err = run_cli(capsys, "classify", "--q", "7", "--a", "0")
    assert code == 1
    assert "coefficient form needs all of" in err


# ---------------------------------------------------------------------------
# enumerate


def test_enumerate_csv_q7(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--q-min", "7", "--q-max", "7", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == list(FIELD_NAMES)
    data = rows[1:]
    assert [(row[0], row[3], row[4]) for row in data] == [
        ("7", "0", "-13"),
        ("7", "0", "-12"),
        ("7", "0", "-7"),
    ]
    assert "summary" in err


def test_enumerate_json_round_trips(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--q-min", "2", "--q-max", "5", "--format", "json")
    assert code == 0
    for line in out.splitlines():
        obj = json.loads(line)
        record = ClassRecord(**obj)
        assert record._asdict() == obj


def test_enumerate_filter_no_genus3(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--q-min", "2", "--q-max", "3", "--format", "json", "--only-no-genus3"
    )
    assert code == 0
    kinds = [json.loads(line)["class_kind"] for line in out.splitlines()]
    assert "SpecialQ2" in kinds
    assert "SpecialQ3" not in kinds
    assert all(json.loads(line)["genus3_exists"] is False for line in out.splitlines())


def test_enumerate_bad_range(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--q-min", "3", "--q-max", "2")
    assert code == 1
    assert "q-min" in err


def test_enumerate_rejects_zero_jobs(capsys):
    # --jobs is otherwise ignored, but its value is still checked
    code, out, err = run_cli(capsys, "enumerate", "--q-min", "2", "--q-max", "3", "--jobs", "0")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "--jobs" in err


def test_enumerate_skips_non_prime_powers(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--q-min", "5", "--q-max", "7", "--format", "csv")
    assert code == 0
    qs = {row.split(",")[0] for row in out.splitlines()[1:]}
    assert qs == {"5", "7"}


_TABLE_Q_2_TO_3 = """\
q  a   b   label      class_kind  b_case  ordinary  d   split2_Kplus  deg4_polarisation  genus3_exists  rule
2  -1  -1  2.2.ab_ab  PirrA       -       yes       21  Inert         no                 no             PirrA-inert
2  0   -4  2.2.a_ae   SpecialQ2   -       -         2   -             -                  no             Special-Q2
2  0   -3  2.2.a_ad   PirrB       b=1-2q  yes       7   Ramified      yes                yes            PirrB-ordinary-coeff
2  0   -2  2.2.a_ac   PirrB       b=-q    no        6   Ramified      no                 no             PirrB-supersingular-parity
2  1   -1  2.2.b_ab   PirrA       -       yes       21  Inert         no                 no             PirrA-inert
3  0   -6  2.3.a_ag   SpecialQ3   -       -         3   -             -                  yes            Special-Q3
3  0   -5  2.3.a_af   PirrB       b=1-2q  yes       11  Ramified      no                 no             PirrB-ordinary-coeff
3  0   -4  2.3.a_ae   PirrB       b=2-2q  yes       10  Ramified      yes                yes            PirrB-ordinary-coeff
"""
_SUMMARY_Q_2_TO_3 = "summary q=2..3: records=8 PirrA=2 PirrB=4 SpecialQ2=1 SpecialQ3=1 genus3_yes=3 genus3_no=5\n"


def test_enumerate_table_format(capsys):
    assert run_cli(capsys, "enumerate", "--q-min", "2", "--q-max", "3") == (0, _TABLE_Q_2_TO_3 + _SUMMARY_Q_2_TO_3, "")


def test_enumerate_table_to_an_output_file_leaves_the_summary_on_stderr(tmp_path, capsys):
    target = tmp_path / "classes.txt"
    code, out, err = run_cli(capsys, "enumerate", "--q-min", "2", "--q-max", "3", "--output", str(target))
    assert (code, out, err) == (0, "", _SUMMARY_Q_2_TO_3)
    assert target.read_text() == _TABLE_Q_2_TO_3


@pytest.mark.parametrize(
    ("flags", "digest"),
    [
        ((), "435332349199b0a65ee4f8c0c6f432a3343d4114cbdf3ae4c74d9f42d712447b"),
        (("--only-no-genus3",), "728a2b7afbe6f7d04c80c2e5a43fac25fc66939269c08eae44454f0b7dd31962"),
    ],
    ids=["all", "only-no-genus3"],
)
def test_enumerate_table_bytes_to_q_1000(capsys, flags, digest):
    # stdout, summary line included
    code, out, err = run_cli(capsys, "enumerate", "--q-min", "2", "--q-max", "1000", "--format", "table", *flags)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class _Sha256Sink(io.TextIOBase):
    """A text stream that keeps only the sha256 of the UTF-8 bytes written to it."""

    def __init__(self) -> None:
        self.hash = hashlib.sha256()

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self.hash.update(text.encode())
        return len(text)


_BAND = ("998001", "1000000")
# (q-min, q-max, flags) -> sha256 of stdout, summary line included for the table format;
# the q <= 10^4 csv sum is test_acceptance's criterion 5
_PINNED_SUMS = {
    ("2", "100000", "--format", "csv"): "7c25e950e37532ee2f83b836fbbfda1a1bfce9e8f6d41fbf6c4a2bfdace0b520",
    ("2", "100000", "--format", "json"): "4bf980837f24567d294df4b8bd45b2d94f961266a91ac54abc2b90426a662799",
    ("2", "10000", "--format", "json"): "b5f259f983bedc8cfbdf7aedcf5a67d783dee54a8cd8d02c5a032ea01f6fe474",
    ("2", "10000", "--format", "table"): "762938e32a5b24d9d0972dde5414d8bb9149410e131a4445674ea78c85b8df96",
    ("2", "10000", "--format", "csv", "--only-no-genus3"): "4d6fac03c204064eb26122f62bfdb07f0e30a7eb58a8a5e46ad0581d9d9c0aad",
    (*_BAND, "--format", "csv"): "5a2e56a5d6a8ffd91f90f2d3b724b97e24ab997b1ed98f465fdbb4cc42fecfff",
    (*_BAND, "--format", "json"): "0c820f732f16bcf8f7beb5fc76db8aeb29133d91deedff0cf931b7c30f6f4b6a",
    (*_BAND, "--format", "table"): "05ef5f18d5d4cfa2b4ff6fb1c534b7c6de98a26a5ff262a4a7ae3199768e0db2",
    (*_BAND, "--format", "csv", "--only-no-genus3"): "56f408fcc9d116d208b2bbc50fb3b57cc55e6fc02caa6a709c94b17e7cd598e0",
    (*_BAND, "--format", "json", "--only-no-genus3"): "04c691a4fb60132f573108526d7124e87cbca680e8b7b97145701d1db9850de7",
}
_BAND_SUMMARY = (
    "summary q=998001..1000000: records=33185 PirrA=32907 PirrB=278 SpecialQ2=0 SpecialQ3=0 "
    "genus3_yes=27746 genus3_no=5439\n"
)


@pytest.mark.parametrize(("argv", "digest"), list(_PINNED_SUMS.items()), ids=[" ".join(argv) for argv in _PINNED_SUMS])
def test_enumerate_stdout_keeps_its_pinned_sha256(monkeypatch, argv, digest):
    # stdout is hashed as it is written, so no run's output is held in memory
    q_min, q_max, *flags = argv
    sink, err = _Sha256Sink(), io.StringIO()
    monkeypatch.setattr(sys, "stdout", sink)
    monkeypatch.setattr(sys, "stderr", err)
    assert main(["enumerate", "--q-min", q_min, "--q-max", q_max, *flags]) == 0
    assert sink.hash.hexdigest() == digest
    if argv == (*_BAND, "--format", "csv"):
        assert err.getvalue() == _BAND_SUMMARY


def test_enumerate_output_file(tmp_path, capsys):
    target = tmp_path / "classes.csv"
    code, out, err = run_cli(
        capsys, "enumerate", "--q-min", "2", "--q-max", "3", "--format", "csv", "--output", str(target)
    )
    assert code == 0
    assert out == ""
    assert "summary" in err
    rows = target.read_text().splitlines()
    assert rows[0] == ",".join(FIELD_NAMES)
    assert len(rows) == 9  # header + 8 classes


def test_enumerate_failing_partway_exits_2_and_writes_no_file(tmp_path, capsys, monkeypatch):
    # a run that fails partway must not leave a truncated --output file behind
    def fail_above_3(q):
        if q > 3:
            raise InternalInvariantError(f"q={q}")
        return records_for_q(q)

    monkeypatch.setattr("weillab.cli.records_for_q", fail_above_3)
    target = tmp_path / "classes.csv"
    code, out, err = run_cli(
        capsys, "enumerate", "--q-min", "2", "--q-max", "7", "--format", "csv", "--output", str(target)
    )
    assert (code, out) == (2, "")
    assert err.startswith("internal error: ")
    assert list(tmp_path.iterdir()) == []  # neither the target nor a temporary file


@pytest.mark.parametrize("failure", [InternalInvariantError, KeyboardInterrupt])
def test_enumerate_failing_partway_keeps_an_existing_output_file(tmp_path, capsys, monkeypatch, failure):
    def fail_above_3(q):
        if q > 3:
            raise failure(f"q={q}")
        return records_for_q(q)

    monkeypatch.setattr("weillab.cli.records_for_q", fail_above_3)
    target = tmp_path / "classes.csv"
    target.write_bytes(b"old bytes\n")
    argv = ("enumerate", "--q-min", "2", "--q-max", "7", "--format", "csv", "--output", str(target))
    if failure is KeyboardInterrupt:
        with pytest.raises(KeyboardInterrupt):
            main(list(argv))
    else:
        assert run_cli(capsys, *argv)[:2] == (2, "")
    assert target.read_bytes() == b"old bytes\n"
    assert list(tmp_path.iterdir()) == [target]


def test_enumerate_output_file_mode(tmp_path, capsys):
    # the mode open(path, "w") gives: 0o666 less the umask for a new file, the old mode for an existing one
    argv = ("enumerate", "--q-min", "2", "--q-max", "3", "--format", "csv", "--output")
    umask = os.umask(0o027)
    try:
        fresh = tmp_path / "fresh.csv"
        assert run_cli(capsys, *argv, str(fresh))[0] == 0
        existing = tmp_path / "existing.csv"
        existing.write_text("old\n")
        existing.chmod(0o604)
        assert run_cli(capsys, *argv, str(existing))[0] == 0
    finally:
        os.umask(umask)
    assert fresh.stat().st_mode & 0o777 == 0o640
    assert existing.stat().st_mode & 0o777 == 0o604
    assert existing.read_text() == fresh.read_text()


def test_enumerate_output_through_a_symbolic_link(tmp_path, capsys):
    # open(path, "w") wrote through a link; the link must not become a regular file
    target = tmp_path / "classes.csv"
    target.write_text("old\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    code, _, _ = run_cli(capsys, "enumerate", "--q-min", "2", "--q-max", "3", "--format", "csv", "--output", str(link))
    assert code == 0
    assert link.is_symlink() and link.resolve() == target
    assert target.read_text().splitlines()[0] == ",".join(FIELD_NAMES)
    assert sorted(tmp_path.iterdir()) == [target, link]


def test_enumerate_output_to_a_pipe_streams_into_it(tmp_path, capsys):
    # a device or pipe (say /dev/null) is written as it is, never replaced by a regular file
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    received = []
    reader = threading.Thread(target=lambda: received.append(pipe.read_bytes()), daemon=True)
    reader.start()
    code, out, _ = run_cli(capsys, "enumerate", "--q-min", "2", "--q-max", "3", "--format", "csv", "--output", str(pipe))
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert (code, out) == (0, "")
    assert received[0].decode().splitlines()[0] == ",".join(FIELD_NAMES)
    assert len(received[0].splitlines()) == 9
    assert list(tmp_path.iterdir()) == [pipe] and pipe.is_fifo()


@pytest.mark.parametrize(
    "kind",
    [
        "directory",
        "empty-path",
        "missing-directory-with-a-slash",
        "missing-parent-directory",
        pytest.param("read-only", marks=pytest.mark.skipif(os.geteuid() == 0, reason="root writes any file")),
    ],
)
def test_enumerate_refuses_an_unwritable_output_before_any_work(tmp_path, capsys, monkeypatch, kind):
    # what open(path, "w") refuses exits 1 at once with the error naming the path as given,
    # leaves no file behind, and a write-protected file is not replaced
    def refuse(q):
        raise AssertionError(f"q={q} was enumerated before --output was checked")

    monkeypatch.setattr("weillab.cli.records_for_q", refuse)
    monkeypatch.chdir(tmp_path)  # where a path made from "" would land
    target = tmp_path / "classes.csv"
    path = {
        "empty-path": "",
        "missing-directory-with-a-slash": str(tmp_path / "missing") + os.sep,
        "missing-parent-directory": str(tmp_path / "missing" / "classes.csv"),
    }.get(kind, str(target))
    if kind == "directory":
        target.mkdir()
    elif kind == "read-only":
        target.write_bytes(b"old bytes\n")
        target.chmod(0o444)
    code, out, err = run_cli(capsys, "enumerate", "--q-min", "2", "--q-max", "3", "--format", "csv", "--output", path)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.endswith(f": {path!r}\n"), err  # open()'s message, not a temporary name
    assert list(tmp_path.iterdir()) == ([target] if kind in ("directory", "read-only") else [])
    if kind == "directory":
        assert target.is_dir()
    elif kind == "read-only":
        assert target.read_bytes() == b"old bytes\n"


def test_enumerate_memory_is_bounded_by_one_q(tmp_path, capsys):
    # 310 and 2,136 records: a run that held every record would peak about 4x higher on the wider range
    def traced_peak(fmt, q_max):
        tracemalloc.start()
        try:
            code = main(["enumerate", "--q-min", "20000", "--q-max", str(q_max), "--format", fmt, "--output", target])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        return peak

    for fmt in ("csv", "json", "table"):
        target = str(tmp_path / f"classes.{fmt}")
        # fill the factorisation caches first, so that neither traced run pays for them
        assert main(["enumerate", "--q-min", "20000", "--q-max", "20500", "--format", fmt, "--output", target]) == 0
        narrow, wide = traced_peak(fmt, 20100), traced_peak(fmt, 20500)
        capsys.readouterr()
        assert wide < 2 * narrow, fmt


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_enumerate_text_caches_hold_a_few_dozen_entries(tmp_path, capsys, monkeypatch, fmt):
    # the class-decided text of 26,370 records is rendered once per distinct pair of
    # lead and rest runs, and their cells once per class key, so both memos hold one
    # entry per class key; every line is written through pair_lines, so the one
    # patched here sees every record written
    records._class_text.cache_clear()
    member_cells: dict = {}
    monkeypatch.setattr(records, "_MEMBER_CELLS", member_cells)
    written: list[ClassRecord] = []
    pair_lines = cli.pair_lines
    monkeypatch.setattr(cli, "pair_lines", lambda built, fmt: written.extend(with_mirrors(built)) or pair_lines(built, fmt))
    target = str(tmp_path / f"classes.{fmt}")
    assert main(["enumerate", "--q-min", "2", "--q-max", "10000", "--format", fmt, "--output", target]) == 0
    capsys.readouterr()
    assert len(written) == 26370
    runs = {(record[records._LEAD], record[records._REST]) for record in written}
    assert records._class_text.cache_info().currsize == len(runs) == len(CLASS_KEY_FIRST_MEMBERS)
    assert set(member_cells) == set(CLASS_KEY_FIRST_MEMBERS)


@pytest.mark.parametrize("only_no_genus3", [False, True])
def test_enumerate_summary_line_counts_the_written_records(capsys, only_no_genus3):
    # a record with a != 0 counts for its pair and an a = 0 record for itself; the ranges
    # hold small q with every a = 0 kind, q = 2^19, and large q up to the safe bound
    flags = ("--only-no-genus3",) if only_no_genus3 else ()
    for q_min, q_max in ((2, 100), (524200, 524400), (999000, 1000000)):
        records = [
            record
            for q in prime_powers_in_range(q_min, q_max)
            for record in with_mirrors(records_for_q(q))
            if not only_no_genus3 or record.genus3_exists is False
        ]
        kinds = Counter(record.class_kind for record in records)
        genus3 = Counter(record.genus3_exists for record in records)
        summary = (
            f"summary q={q_min}..{q_max}: records={len(records)} PirrA={kinds['PirrA']} PirrB={kinds['PirrB']} "
            f"SpecialQ2={kinds['SpecialQ2']} SpecialQ3={kinds['SpecialQ3']} "
            f"genus3_yes={genus3[True]} genus3_no={genus3[False]}\n"
        )
        for fmt, header in (("csv", 1), ("json", 0)):
            code, out, err = run_cli(capsys, "enumerate", "--q-min", str(q_min), "--q-max", str(q_max), "--format", fmt, *flags)
            assert code == 0
            assert err == summary
            assert out.count("\n") == header + len(records)


def test_enumerate_byte_identical_across_runs_and_jobs(capsys):
    outputs = []
    for jobs in ("1", "4", "1"):
        code, out, _ = run_cli(
            capsys, "enumerate", "--q-min", "2", "--q-max", "64", "--format", "csv", "--jobs", jobs
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_prime_powers_in_range():
    assert prime_powers_in_range(2, 12) == [2, 3, 4, 5, 7, 8, 9, 11]
    assert prime_powers_in_range(24, 28) == [25, 27]


def decomposed_prime_powers(lo: int, hi: int) -> list[int]:
    # the sieve's reference: every q of the range through prime_power_decomposition
    return [q for q in range(max(2, lo), hi + 1) if prime_power_decomposition(q)]


@pytest.mark.parametrize(
    ("lo", "hi"),
    [
        (2, 2), (2, 3), (4, 4), (5, 30), (0, 1), (10, 9), (14, 16),
        # lo a prime, a prime square or a power of 2
        (997, 1100), (999983, 10**6), (961, 1000), (994009, 994400), (1024, 1100), (2**19, 2**19 + 300),
        (998001, 10**6), (2, 2 * 10**5),
    ],
)
def test_prime_powers_in_range_matches_factorising_each_q(lo, hi):
    assert prime_powers_in_range(lo, hi) == decomposed_prime_powers(lo, hi)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 5000))
def test_prime_powers_in_range_matches_factorising_each_q_below_10_6(hi, width):
    # the range is at most 5001 wide, which keeps the reference cheap
    assert prime_powers_in_range(hi - width, hi) == decomposed_prime_powers(hi - width, hi)


# ---------------------------------------------------------------------------
# bounds


def test_bounds_general(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--q", "11", "--a", "2", "--pa", "3", "--family", "general")
    assert code == 0
    payload = json.loads(out)
    assert (payload["lo"], payload["hi"]) == (8, 20)


def test_bounds_wres(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--q", "4", "--family", "wres")
    assert code == 0
    payload = json.loads(out)
    assert (payload["lo"], payload["hi"]) == (1, 9)


def test_bounds_serre(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--q", "11", "--family", "serre", "--g", "3")
    assert code == 0
    payload = json.loads(out)
    assert (payload["lo"], payload["hi"]) == (0, 30)


def test_bounds_nonpp_exact(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--q", "8", "--family", "nonpp", "--b", "-7")
    assert code == 0
    payload = json.loads(out)
    assert (payload["lo"], payload["hi"]) == (0, 18)


def test_bounds_nonpp_rejects_b_of_no_class(capsys):
    code, out, err = run_cli(capsys, "bounds", "--q", "11", "--family", "nonpp", "--b", "-1000")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_bounds_missing_flags(capsys):
    code, _, err = run_cli(capsys, "bounds", "--q", "11", "--family", "general")
    assert code == 1
    code, _, err = run_cli(capsys, "bounds", "--q", "11", "--family", "serre")
    assert code == 1
    code, _, err = run_cli(capsys, "bounds", "--q", "6", "--family", "wres")
    assert code == 1
    # a flag the family does not take is rejected, not dropped
    code, _, err = run_cli(capsys, "bounds", "--q", "11", "--family", "wres", "--b", "-2")
    assert code == 1
    code, _, err = run_cli(capsys, "bounds", "--q", "11", "--family", "serre", "--g", "3", "--a", "5")
    assert code == 1


def test_bounds_general_rejects_a_trace_no_surface_has(capsys):
    code, out, err = run_cli(capsys, "bounds", "--q", "11", "--a", "-100", "--pa", "1", "--family", "general")
    assert (code, out) == (1, "")
    assert "16q" in err


# serre --g or general --pa of 4,300 nines gives end points of 4,301 digits, one more than
# int-to-str conversion allows by default
_NINES_4300 = "9" * 4300


@pytest.mark.parametrize(
    ("family_flags", "flag"),
    [(("serre", "--g", _NINES_4300), "--g"), (("general", "--a", "0", "--pa", _NINES_4300), "--pa")],
    ids=["serre-g", "general-pa"],
)
def test_bounds_end_points_too_long_to_print_name_the_family_and_flag(capsys, family_flags, flag):
    family, *flags = family_flags
    code, out, err = run_cli(capsys, "bounds", "--q", "11", "--family", family, *flags)
    assert_one_short_error_line(code, out, err)
    assert f"--family {family}" in err and flag in err and "set_int_max_str_digits" not in err


def test_bounds_end_points_at_the_digit_limit_are_printed(capsys):
    code, out, err = run_cli(capsys, "bounds", "--q", "11", "--family", "serre", "--g", "9" * 4299)
    assert (code, err) == (0, "")
    assert len(out.encode()) == 17302 and json.loads(out)["family"] == "SerreWeil"


# ---------------------------------------------------------------------------
# label


def test_label_encode(capsys):
    code, out, _ = run_cli(capsys, "label", "--encode", "13,0,-11")
    assert code == 0
    assert out.strip() == "2.13.a_al"


def test_label_decode(capsys):
    code, out, _ = run_cli(capsys, "label", "--decode", "2.2.a_ab")
    assert code == 0
    assert out.strip() == "q=2 a=0 b=-1"


def test_label_decode_malformed(capsys):
    code, _, err = run_cli(capsys, "label", "--decode", "2.2.zz")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("command", ["classify --label", "label --decode"])
@pytest.mark.parametrize("label", ["2.007.a_ab", "2.\u0663.a_ab", "2.\u00b2.a_ab"])
def test_non_canonical_label_exits_1(capsys, command, label):
    code, _, err = run_cli(capsys, *command.split(), label)
    assert code == 1
    assert "field size" in err


def test_over_long_coefficient_code_exits_1_at_once(capsys):
    # int() refuses a code of more letters than it converts; a digit-by-digit decode is quadratic in its length
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "classify", "--label", "2.7.b" + "z" * 99999 + "_a")
    assert time.perf_counter() - start < 0.5
    assert code == 1
    assert "too long to convert" in err


# over-long input -> the start of its one error line
_OVER_LONG_LABELS = {
    "code-of-5000-letters": ("2.7.aa" + "z" * 4998 + "_a", "error: coefficient code"),
    "code-of-100000-letters": ("2.7.b" + "z" * 99999 + "_a", "error: label"),
    "q-of-5000-digits": ("2." + "1" * 5000 + ".a_a", "error: label"),
    "no-form": ("x" * 100000, "error: label"),
    # int() converts these 4,000 digits, so the library's ceiling q < 2^40 refuses the q
    "q-of-4000-digits": ("2." + "1" * 4000 + ".a_a", "error: factorisation expects 1 <= n < 2^40"),
}
_OVER_LONG_CASES = {
    f"{command}-{name}": (command, text, start)
    for command in ("classify --label", "label --decode")
    for name, (text, start) in _OVER_LONG_LABELS.items()
}
_OVER_LONG_CASES["label --encode-100000-digits"] = ("label --encode", "1" * 100000, "error: --encode")


@pytest.mark.parametrize(("command", "text", "start"), list(_OVER_LONG_CASES.values()), ids=list(_OVER_LONG_CASES))
def test_over_long_label_error_is_one_short_line(capsys, command, text, start):
    code, out, err = run_cli(capsys, *command.split(), text)
    assert_one_short_error_line(code, out, err)
    assert err.startswith(start)


BIG_Q = 10**39 + 7  # 40 digits: far beyond factorising by trial division

# a single-class query -> its argv at q; each goes through trial_limit
_SINGLE_CLASS_ARGV = {
    "classify-label": "classify --label 2.{q}.a_a",
    "label-decode": "label --decode 2.{q}.a_a",
    "label-encode": "label --encode {q},0,0",
    "classify-q": "classify --q {q} --a 0 --b 0",
    "bounds": "bounds --q {q} --family wres",
}
_AT_THE_CEILING = {
    **{name: argv.format(q=BIG_Q) for name, argv in _SINGLE_CLASS_ARGV.items()},
    **{f"{name}-2^40": argv.format(q=2**40) for name, argv in _SINGLE_CLASS_ARGV.items()},
}


@pytest.mark.parametrize("argv", list(_AT_THE_CEILING.values()), ids=list(_AT_THE_CEILING))
def test_safe_bound_is_checked_before_q_is_factorised(capsys, monkeypatch, argv):
    # the single-class bound is the library's, q < 2^40; a sieve built first would exit 2 here, not 1
    def refuse(limit):
        raise AssertionError(f"a sieve up to {limit} was built")

    monkeypatch.setattr("weillab.core._small_primes", refuse)
    code, out, err = run_cli(capsys, *argv.split())
    assert_one_short_error_line(code, out, err)
    assert err.startswith("error: factorisation expects 1 <= n < 2^40, got ")


def test_enumerate_safe_bound_is_checked_before_any_q_is_listed(capsys, monkeypatch):
    def refuse(lo, hi):
        raise AssertionError(f"the prime powers of {lo}..{hi} were listed before the safe-bound check")

    monkeypatch.setattr("weillab.cli.prime_powers_in_range", refuse)
    code, out, err = run_cli(capsys, "enumerate", "--q-min", "2", "--q-max", str(SAFE_BOUND + 1))
    assert (code, out) == (1, "")
    assert err == f"error: q='{SAFE_BOUND + 1}' exceeds the safe bound {SAFE_BOUND}\n"


@pytest.mark.parametrize(
    ("argv", "expected"),
    [
        ("classify --q 1000003 --a 0 --b 0", '"class_kind": "Outside"'),
        ("classify --label 2.1000003.a_a", '"class_kind": "Outside"'),
        ("label --decode 2.1000003.a_a", "q=1000003 a=0 b=0\n"),
    ],
    ids=["classify-q-1000003", "classify-label-1000003", "label-decode-1000003"],
)
def test_single_class_queries_take_q_above_the_safe_bound(capsys, argv, expected):
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert expected in out


# the a = 0 family patterns at prime powers from 1000003 to 1000003^2 < 2^40, with
# 549755813881 the largest prime below 2^39.  Their records meet 7 of the 14 class keys;
# the oracle's descending division takes about isqrt(|delta|) steps, so it checks d
# where that is at most 10^6
_ABOVE_THE_SAFE_BOUND = (2**39, 3**24, 5**17, 7**14, 11**10, 11**11, 13**10, 1000003, 1000003**2, 549755813881)


def test_single_class_records_above_the_safe_bound_meet_known_class_keys():
    built = []
    for q in _ABOVE_THE_SAFE_BOUND:
        for b in (1 - 2 * q, 2 - 2 * q, -q, -2 * q):
            f = make_weil_quartic(q, 0, b)
            kind = classify(f)
            if kind.family is not Family.OUTSIDE:
                built.append((kind, build_record(f, kind)))
    assert len(built) == 27
    for kind, record in built:
        split2 = None if record.split2_Kplus is None else Split2(record.split2_Kplus)
        assert (kind, split2, record.p == 2, record.a == 0) in CLASS_KEY_FIRST_MEMBERS, record
        if record.fplus_disc <= 10**12:
            assert (record.c, record.d) == trial_squarefree(record.fplus_disc), record


def test_classify_label_of_a_prime_near_2_39(capsys):
    code, out, err = run_cli(capsys, "classify", "--label", "2.549755813881.a_acqlqjyrkb")
    assert (code, err) == (0, "")
    record = json.loads(out)
    assert (record["q"], record["a"], record["b"]) == (549755813881, 0, -549755813881)
    assert (record["class_kind"], record["genus3_exists"]) == ("PirrA", True)


# ---------------------------------------------------------------------------
# error lines


_DIGITS_300 = "1" * 300
_OVER_LONG_ARGV = {
    "classify-q": ["classify", "--q", "-" + _DIGITS_300, "--a", "0", "--b", "0"],
    "classify-a": ["classify", "--q", "7", "--a", "-" + _DIGITS_300, "--b", "0"],
    "classify-b": ["classify", "--q", "7", "--a", "0", "--b", "-" + _DIGITS_300],
    "bounds-nonpp-b": ["bounds", "--q", "11", "--family", "nonpp", "--b", "-" + _DIGITS_300],
    "bounds-general-a": ["bounds", "--q", "11", "--family", "general", "--a", "-" + _DIGITS_300, "--pa", "3"],
    "bounds-serre-g": ["bounds", "--q", "11", "--family", "serre", "--g", "-" + _DIGITS_300],
    "enumerate-q-min": ["enumerate", "--q-min", "-" + _DIGITS_300, "--q-max", "3"],
    "enumerate-jobs": ["enumerate", "--q-min", "2", "--q-max", "3", "--jobs", "-" + _DIGITS_300],
    "q-of-5000-digits": ["classify", "--q", "1" * 5000, "--a", "0", "--b", "0"],
    "q-of-5000-unicode-digits": ["classify", "--q", "\u0663" * 5000, "--a", "0", "--b", "0"],
    "family-of-5000-characters": ["bounds", "--q", "11", "--family", "bogus" + "x" * 4995],
    "format-of-5000-characters": ["enumerate", "--q-min", "2", "--q-max", "3", "--format", "x" * 5000],
    "unrecognised-argument-with-line-breaks": ["label", "--decode", "2.2.a_ab", "x\ny\r\u2028z\x1b[2J"],
}


@pytest.mark.parametrize("argv", list(_OVER_LONG_ARGV.values()), ids=list(_OVER_LONG_ARGV))
def test_error_is_one_short_line(capsys, argv):
    assert_one_short_error_line(*run_cli(capsys, *argv))


# the README's invocations, with enumerate ranges at most 64 wide and --output relative
_README_ARGV = [
    "classify --q 7 --a 0 --b -12",
    "classify --label 2.2.a_ab",
    "enumerate --q-min 2 --q-max 3",
    "enumerate --q-min 2 --q-max 64 --format csv",
    "enumerate --q-min 2 --q-max 64 --format json",
    "enumerate --q-min 2 --q-max 64 --only-no-genus3",
    "enumerate --q-min 2 --q-max 64 --format csv --output classes.csv",
    "enumerate --q-min 2 --q-max 64 --format csv --jobs 2",
    "bounds --q 11 --a 2 --pa 3 --family general",
    "bounds --q 4 --family wres",
    "bounds --q 11 --family nonpp",
    "bounds --q 8 --family nonpp --b -7",
    "bounds --q 11 --family serre --g 3",
    "label --encode 13,0,-11",
    "label --decode 2.2.a_ab",
]
_MUTANTS = st.one_of(
    st.integers(-64, 64).map(str),
    st.integers(-(10**40), 10**40).map(str),
    st.sampled_from(["-" + _DIGITS_300, _DIGITS_300, "1" * 5000, str(2**40), str(BIG_Q)]),
    st.just(""),
    st.text(st.sampled_from("\u0660\u0663\u0967\uff17\U0001d7d9"), min_size=1, max_size=6),
    st.from_regex(r"-?[0-9]{1,3}(_[0-9]{1,3}){1,2}", fullmatch=True),
    st.sampled_from(["x" * 5000, "7," * 2500, "2." + "1" * 4998]),
)


def _enumerates_over_64_q(argv):
    # True when argv asks enumerate for a range the safe bound accepts and wider than 64
    values = dict(zip(argv, argv[1:]))
    try:
        lo, hi = int(values["--q-min"]), int(values["--q-max"])
    except (KeyError, ValueError):
        return False
    return 2 <= lo and hi <= SAFE_BOUND and hi - lo > 64


@st.composite
def mutated_readme_argv(draw):
    argv = draw(st.sampled_from(_README_ARGV)).split()
    # the subcommand and flag values, not the flags, so that some mutants still run
    values = [i for i, token in enumerate(argv) if not token.startswith("--")]
    for _ in range(draw(st.integers(1, 3))):
        argv[draw(st.sampled_from(values))] = draw(_MUTANTS)
    assume(not _enumerates_over_64_q(argv))
    return argv


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=mutated_readme_argv())
def test_mutated_readme_invocations_keep_the_exit_code_contract(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)  # --output classes.csv, or its mutant, lands here
    code, out, err = run_cli(capsys, *argv)
    assert code in (0, 1), err
    assert "Traceback" not in err
    if code == 1:
        assert_one_short_error_line(code, out, err)


def test_label_bad_encode_argument(capsys):
    code, _, _ = run_cli(capsys, "label", "--encode", "2,0")
    assert code == 1
    code, _, _ = run_cli(capsys, "label", "--encode", "2,a,b")
    assert code == 1


@pytest.mark.parametrize(
    ("text", "value"),
    [(" 2", 2), ("+0", 0), ("0_4", 4), ("-1_3", -13), ("\u0663", 3), ("\uff17", 7), ("7.0", None)],
    ids=["leading-space", "plus-sign", "underscore", "negative-underscore", "arabic-indic-digit", "fullwidth-digit", "point"],
)
def test_integer_arguments_take_the_grammar_of_int(capsys, text, value):
    # --q/--a/--b and the parts of --encode are read by int(): what it accepts they accept
    encoded = run_cli(capsys, "label", "--encode", f"7,0,{text}")
    joined = run_cli(capsys, "classify", "--q", "7", "--a", "0", f"--b={text}")
    spaced = run_cli(capsys, "classify", "--q", "7", "--a", "0", "--b", text)
    if value is None:
        assert encoded[0] == joined[0] == spaced[0] == 1
        return
    assert encoded == (0, render_label(make_weil_quartic(7, 0, value)) + "\n", "")
    assert joined == run_cli(capsys, "classify", "--q", "7", "--a", "0", "--b", str(value))
    if text.startswith("-") and spaced[0] == 1:
        # after a space, argparse reads a token that starts with "-" as a value only if it
        # matches its pattern of a negative number, which has no "_" on Python 3.11
        assert "expected one argument" in spaced[2]
    else:
        assert spaced == joined


def test_label_requires_one_mode(capsys):
    code, _, _ = run_cli(capsys, "label")
    assert code == 1
    code, _, _ = run_cli(capsys, "label", "--encode", "2,0,-1", "--decode", "2.2.a_ab")
    assert code == 1


# ---------------------------------------------------------------------------
# process-level behaviour


def test_module_entry_point_round_trip(capsys, monkeypatch):
    result = subprocess.run(
        [sys.executable, "-m", "weillab", "label", "--decode", "2.13.a_al"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "q=13 a=0 b=-11"
    # the console script reads sys.argv and exits with the code of main
    monkeypatch.setattr(sys, "argv", ["weillab", "label", "--decode", "2.13.a_al"])
    with pytest.raises(SystemExit) as exited:
        main_entry()
    assert exited.value.code == 0
    assert capsys.readouterr().out.strip() == "q=13 a=0 b=-11"


def test_module_entry_point_invalid_input_exit_code():
    result = subprocess.run(
        [sys.executable, "-m", "weillab", "classify", "--q", "6", "--a", "0", "--b", "-6"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 1


def test_enumerate_into_a_pipe_closed_after_the_header_exits_0_silently():
    # far more rows than a pipe buffers, so the run is still writing when its reader goes away
    process = subprocess.Popen(
        [sys.executable, "-m", "weillab", "enumerate", "--q-min", "2", "--q-max", "3000", "--format", "csv"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    assert process.stdout.readline().rstrip("\n") == ",".join(FIELD_NAMES)
    process.stdout.close()
    _, stderr = process.communicate(timeout=60)
    assert (process.returncode, stderr) == (0, "")


def test_usage_error_exits_1():
    result = subprocess.run(
        [sys.executable, "-m", "weillab", "enumerate", "--q-min", "2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 1


def test_importing_the_cli_loads_no_tempfile():
    # only enumerate --format table spools to a temporary file, and tempfile brings random,
    # shutil, bz2 and lzma with it; -S keeps the site module's imports out of the check
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = f"import sys; sys.path.insert(0, {src!r}); import weillab.cli; print('tempfile' in sys.modules)"
    result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert (result.returncode, result.stdout, result.stderr) == (0, "False\n", "")
