"""A shared-nothing recount of range mode's key columns.

    weillab enumerate --q-min 2 --q-max 1000000 --format csv | python3 tests/recount.py 2 1000000 | sha256sum

For each prime power q in a range, :func:`records` yields, in the row
order of ``enumerate --format csv``, each record's q, a, b,
``class_kind``, d, ``split2_Kplus`` and ``genus3_exists``.  Run as a
script, it reads such a csv on stdin, checks every line against the
recount, copies each line to stdout once it is checked, and exits 1 at
the first line that differs, or when either side ends first.

Nothing here imports weillab, and nothing follows its route:

- the prime powers come from a bytearray sieve, not from trial division;
- "every prime divisor of m is 1 mod 3" is one table up to the range's
  end, made by crossing off the multiples of each prime that is not
  1 mod 3, and every a with a^2 < q is looked up in it, not only the
  residues mod 6 that weillab tests against a product of primes;
- d comes from a table of the largest square divisor of each n <= 4q,
  made by slice assignment over every k^2, not from a factorisation;
- the (-a, b) twins are listed here, not mirrored from the (a, b) rows.

It is independent in its arithmetic and its route, not in its
mathematics: the family A condition, the family B patterns, the
splitting of 2 in K+ from d mod 8 and the genus-3 verdicts are restated
from the paper, as ``tests/oracles.py`` restates them, so a misreading
of the paper that weillab shares would pass here too.
"""

from __future__ import annotations

import csv
import sys
from array import array
from collections.abc import Iterable, Iterator
from math import isqrt
from operator import itemgetter

# the csv columns the recount gives, in the order of a row of records()
COLUMNS = ("q", "a", "b", "class_kind", "d", "split2_Kplus", "genus3_exists")


class Mismatch(AssertionError):
    """A csv line that differs from the recount, or a side that ended first."""


class _Tables:
    """Primes up to n, "every prime divisor is 1 mod 3" up to n, and largest square divisors up to 4n."""

    def __init__(self, n: int) -> None:
        prime = bytearray([1]) * (n + 1)
        prime[:2] = b"\x00\x00"
        for p in range(2, isqrt(n) + 1):
            if prime[p]:
                prime[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
        self.primes = [p for p, flag in enumerate(prime) if flag]
        # good[m]: m >= 1 and every prime divisor of m is 1 mod 3 (m = 1 has none)
        self.good = bytearray([1]) * (n + 1)
        self.good[0] = 0
        for p in self.primes:
            if p % 3 != 1:
                self.good[p::p] = bytes(len(range(p, n + 1, p)))
        # square[m]: the largest k^2 dividing m, for 1 <= m <= 4n; the last k^2 written wins
        size = 4 * n + 1
        self.square = array("I", [1]) * size
        for k in range(2, isqrt(size - 1) + 1):
            k2 = k * k
            self.square[k2::k2] = array("I", [k2]) * len(range(k2, size, k2))

    def squarefree(self, m: int, n: int) -> int:
        """The squarefree part of m * n, for m in (1, 2, 3) and 1 <= n <= 4 * (the tables' n)."""
        s = n // self.square[n]
        return s // m if s % m == 0 else m * s


def _prime_powers(q_min: int, q_max: int, primes: list[int]) -> list[tuple[int, int, int]]:
    # (q, p, r) for each prime power q_min <= q <= q_max, ascending
    out = []
    for p in primes:
        q, r = p, 1
        while q <= q_max:
            if q >= q_min:
                out.append((q, p, r))
            q, r = q * p, r + 1
    return sorted(out)


def _split2(d: int) -> str:
    # 2 in K+ = Q(sqrt d): ramified iff d = 2, 3 mod 4, split iff d = 1 mod 8, inert iff d = 5 mod 8
    if d % 4 != 1:
        return "Ramified"
    return "Split" if d % 8 == 1 else "Inert"


def _members(q: int, p: int, r: int, tables: _Tables) -> list[tuple]:
    """The (a, b, class_kind, d, split2_Kplus, genus3_exists) of the members at q with a >= 0, in (a, b) order."""
    members = []
    # family A: a^2 - b = q, b < 0, every prime divisor of -b = q - a^2 is 1 mod 3; disc(f+) = 3(4q - a^2)
    good = tables.good
    for a in [a for a in range(isqrt(q - 1) + 1) if good[q - a * a]]:
        d = tables.squarefree(3, 4 * q - a * a)
        split2 = _split2(d)
        members.append((a, a * a - q, "PirrA", d, split2, split2 != "Inert"))
    # family B at a = 0, disc(f+) = 8q - 4b; no degree-4 polarisation exactly for
    # (b = 1 - 2q, q odd) and (b = -q, q even)
    even = q % 2 == 0
    patterns = [(1 - 2 * q, tables.squarefree(1, 4 * q - 1), even)]
    if p > 2:
        patterns.append((2 - 2 * q, tables.squarefree(2, 2 * q - 1), True))
    if (r % 2 == 0 and (p % 12 == 11 or p == 3)) or (p == 2 and r % 2 == 1):
        patterns.append((-q, tables.squarefree(3, q), not even))
    members += [(0, b, "PirrB", d, _split2(d), exists) for b, d, exists in patterns]
    # the two reducible specials (t^2 - q)^2 at q = 2, 3, b = -2q, disc(f+) = 16q;
    # (t^2 - 3)^2 holds the genus-3 curve y^4 + xz^3 + 2x^3z, (t^2 - 2)^2 none
    if q == 2:
        members.append((0, -4, "SpecialQ2", tables.squarefree(1, q), None, False))
    if q == 3:
        members.append((0, -6, "SpecialQ3", tables.squarefree(1, q), None, True))
    return sorted(members)


def records(q_min: int, q_max: int) -> Iterator[tuple]:
    """(q, a, b, class_kind, d, split2_Kplus, genus3_exists) of each record at q_min <= q <= q_max, in csv row order.

    Per q: the (-a, b) twins of the a > 0 members by decreasing a, then
    the a = 0 members by b, then the a > 0 members by increasing a.
    ``split2_Kplus`` is None for the two specials.
    """
    tables = _Tables(q_max)
    for q, p, r in _prime_powers(max(q_min, 2), q_max, tables.primes):
        members = _members(q, p, r, tables)
        positive = [m for m in members if m[0] > 0]
        for a, *rest in reversed(positive):
            yield (q, -a, *rest)
        for member in members:
            if member[0] == 0:
                yield (q, *member)
        for member in positive:
            yield (q, *member)


def checked(lines: Iterable[str], q_min: int, q_max: int) -> Iterator[str]:
    """Each of ``lines``, the csv of ``enumerate --q-min q_min --q-max q_max``, once it matches the recount.

    The header comes first.  Raises Mismatch at the first line whose
    COLUMNS differ from the recount's, or when either side ends first.
    """
    held = []

    def hold() -> Iterator[str]:
        # csv.reader takes one line per row, since no cell holds a newline; the line is
        # held until its row is checked
        for line in lines:
            held.append(line)
            yield line

    rows = csv.reader(hold())
    names = next(rows, [])
    if any(name not in names for name in COLUMNS):
        raise Mismatch(f"header {held[-1:]} lacks one of {COLUMNS}")
    yield held.pop()
    pick = itemgetter(*(names.index(name) for name in COLUMNS))
    number = 1
    for q, a, b, kind, d, split2, exists in records(q_min, q_max):
        expected = (str(q), str(a), str(b), kind, str(d), split2 or "", "true" if exists else "false")
        row = next(rows, None)
        number += 1
        if row is None:
            raise Mismatch(f"the csv ends at line {number}, where the recount has {expected}")
        if len(row) != len(names) or pick(row) != expected:
            raise Mismatch(f"line {number} {held[-1]!r} differs from the recount's {dict(zip(COLUMNS, expected))}")
        yield held.pop()
    if next(rows, None) is not None:
        raise Mismatch(f"line {number + 1} {held[-1]!r} lies beyond the recount's last record")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: recount.py Q_MIN Q_MAX < enumerate.csv", file=sys.stderr)
        return 2
    q_min, q_max = map(int, argv)
    # the bytes pass through unchanged, in 1 MiB writes even under python -u
    with (
        open(sys.stdin.fileno(), encoding="utf-8", newline="", closefd=False) as source,
        open(sys.stdout.fileno(), "w", buffering=1 << 20, encoding="utf-8", newline="", closefd=False) as sink,
    ):
        try:
            for line in checked(source, q_min, q_max):
                sink.write(line)
        except Mismatch as error:
            print(f"recount: {error}", file=sys.stderr)
            return 1
    print(f"recount: every line of q={q_min}..{q_max} matches", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
