from __future__ import annotations

import csv
import io
import json
import subprocess
import sys

import pytest

from weillab.cli import main, main_entry, prime_powers_in_range
from weillab.core import InternalInvariantError
from weillab.records import FIELD_NAMES, ClassRecord, records_for_q, to_json_obj


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# classify


def test_classify_by_label_outside(capsys):
    code, out, _ = run_cli(capsys, "classify", "--label", "2.2.a_ab")
    assert code == 0
    record = json.loads(out)
    assert record["class_kind"] == "Outside"
    assert record["q"] == 2 and record["a"] == 0 and record["b"] == -1


def test_classify_by_coefficients(capsys):
    code, out, _ = run_cli(capsys, "classify", "--q", "7", "--a", "0", "--b", "-12")
    assert code == 0
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
        assert to_json_obj(record) == obj


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


def test_enumerate_table_format(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--q-min", "2", "--q-max", "3")
    assert code == 0
    assert out.splitlines()[0].startswith("q")
    assert "summary" in out.splitlines()[-1]


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
    assert not target.exists()


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


BIG_Q = 10**39 + 7  # 40 digits: far past the safe bound, and beyond factorising by trial division


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--label", f"2.{BIG_Q}.a_a"],
        ["label", "--decode", f"2.{BIG_Q}.a_a"],
        ["label", "--encode", f"{BIG_Q},0,0"],
        ["classify", "--q", str(BIG_Q), "--a", "0", "--b", "0"],
        ["classify", "--q", "1000003", "--a", "0", "--b", "0"],
        ["classify", "--label", "2.1000003.a_a"],
        ["label", "--decode", "2.1000003.a_a"],
    ],
    ids=[
        "classify-label", "label-decode", "label-encode", "classify-q",
        "classify-q-1000003", "classify-label-1000003", "label-decode-1000003",
    ],
)
def test_safe_bound_is_checked_before_q_is_factorised(capsys, monkeypatch, argv):
    # a guard that ran after make_weil_quartic would exit 2 here, not 1
    def refuse(q):
        raise AssertionError(f"q={q} was factorised before the safe-bound check")

    monkeypatch.setattr("weillab.core.prime_power_decomposition", refuse)
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert "safe bound" in err


def test_label_bad_encode_argument(capsys):
    code, _, _ = run_cli(capsys, "label", "--encode", "2,0")
    assert code == 1
    code, _, _ = run_cli(capsys, "label", "--encode", "2,a,b")
    assert code == 1


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


def test_usage_error_exits_1():
    result = subprocess.run(
        [sys.executable, "-m", "weillab", "enumerate", "--q-min", "2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 1
