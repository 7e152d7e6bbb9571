"""Re-derive the committed genus-3 witnesses by searching forms y^4 - h y^2 + r.

    python3 tests/certify/search.py

For each row of ``WITNESSES`` it checks the committed curve with the
checker (smooth, and its point counts give the row's Prym), then
searches for a smooth curve whose Prym is the row's (a, b):

- at p = 3, every form, h then r, in ``itertools.product`` order;
- at p >= 5, forms drawn from ``random.Random(p)``: three
  ``randrange(p)`` calls for h, then five for r, per draw.

It prints each row's check and the first form its search finds, with the
draw it came at, counted from 0.  The found form may differ from the
committed one: a row whose seed was not recorded is re-derived from
``Random(p)``.  Exits 1 when a committed row fails its check or a search
finds nothing within ``MAX_DRAWS``.  Pytest does not collect this file.
"""

from __future__ import annotations

import itertools
import os
import random
import sys
from collections.abc import Iterator

if not __package__:
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from certify.witnesses import WITNESSES, Witness, is_smooth, prym  # noqa: E402

MAX_DRAWS = 20_000


def all_forms(p: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every (h, r) over F_p, p^8 of them, in ``itertools.product`` order."""
    for coefficients in itertools.product(range(p), repeat=8):
        yield coefficients[:3], coefficients[3:]


def random_forms(p: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Endless (h, r) drawn from ``random.Random(p)``, h's three coefficients first."""
    rng = random.Random(p)
    while True:
        yield tuple(rng.randrange(p) for _ in range(3)), tuple(rng.randrange(p) for _ in range(5))


def search(p: int, target: tuple[int, int]) -> tuple[int, Witness] | None:
    """The first smooth curve whose Prym is target, with its draw, or None."""
    forms = all_forms(p) if p == 3 else itertools.islice(random_forms(p), MAX_DRAWS)
    for draw, (h, r) in enumerate(forms):
        curve = Witness("found", p, h, r, target)
        if is_smooth(curve) and prym(curve) == target:
            return draw, curve
    return None


def main() -> int:
    failed = False
    for witness in WITNESSES:
        checked = is_smooth(witness) and prym(witness) == witness.prym
        failed |= not checked
        print(f"{witness.name}: p={witness.p} h={witness.h} r={witness.r} prym={witness.prym} checks {'ok' if checked else 'FAILED'}")
        found = search(witness.p, witness.prym)
        if found is None:
            failed = True
            print(f"  search: nothing within {MAX_DRAWS} draws")
        else:
            draw, curve = found
            print(f"  search: h={curve.h} r={curve.r} at draw {draw}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
