"""Range mode against the shared-nothing recount of tests/recount.py.

Every line of ``enumerate --format csv`` is compared, in the columns
q, a, b, class_kind, d, split2_Kplus and genus3_exists, with the
recount's row at the same place, for q <= 2 * 10^4 and for the band
998001..10^6.  The recount imports no weillab code; CI runs the same
check over the whole safe range.
"""

from __future__ import annotations

import pytest

from weillab.cli import main

import recount


def enumerate_csv(tmp_path, capsys, q_min: int, q_max: int) -> tuple[str, str]:
    """The path of the csv that ``enumerate`` writes for q_min..q_max, and its summary line."""
    target = tmp_path / "records.csv"
    assert main(["enumerate", "--q-min", str(q_min), "--q-max", str(q_max), "--format", "csv", "--output", str(target)]) == 0
    return str(target), capsys.readouterr().err


@pytest.mark.parametrize("q_min, q_max", [(2, 20_000), (998_001, 1_000_000)])
def test_every_csv_line_matches_the_recount(tmp_path, capsys, q_min, q_max):
    path, summary = enumerate_csv(tmp_path, capsys, q_min, q_max)
    with open(path, encoding="utf-8") as handle:
        lines = sum(1 for _ in recount.checked(handle, q_min, q_max))
    assert f" records={lines - 1} " in summary


def test_the_recount_refuses_a_changed_a_missing_and_an_extra_line(tmp_path, capsys):
    path, _ = enumerate_csv(tmp_path, capsys, 2, 50)
    with open(path, encoding="utf-8") as handle:
        lines = handle.readlines()
    assert list(recount.checked(lines, 2, 50)) == lines
    # q = 13, b = 2 - 2q: disc(f+) = 200 = 10^2 * 2, and d = 8 would keep the square factor 4
    at = next(i for i, line in enumerate(lines) if line.startswith("13,13,1,0,-24,"))
    cells = lines[at].split(",")
    assert (cells[12], cells[13]) == ("2", "Ramified")
    changed = [*lines[:at], ",".join([*cells[:12], "8", *cells[13:]]), *lines[at + 1 :]]
    for bad, where in (
        (changed, f"line {at + 1} '13,13,1,0,-24,"),
        (lines[:-1], "ends at line"),
        ([*lines, lines[-1]], "beyond"),
    ):
        with pytest.raises(recount.Mismatch, match=where):
            list(recount.checked(bad, 2, 50))
