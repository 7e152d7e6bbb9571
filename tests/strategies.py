"""Hypothesis strategies shared by the property tests.

Prime powers below a limit, with the powers of 2 and 3 drawn on their
own since the two specials live there, (q, a, b) anywhere inside the
Weil region of q, and (q, a, b) on the family patterns.
"""

from __future__ import annotations

from math import isqrt

from hypothesis import assume
from hypothesis import strategies as st

from weillab.core import ceil_sqrt

from oracles import oracle_all_prime_divisors_1_mod_3


def _prime_powers_below(limit: int) -> list[int]:
    sieve = bytearray([1]) * limit
    sieve[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit, p)))
    out = []
    for p in (n for n, flag in enumerate(sieve) if flag):
        q = p
        while q < limit:
            out.append(q)
            q *= p
    return sorted(out)


def _prime_powers(limit: int):
    powers_of_2_and_3 = [p**r for p in (2, 3) for r in range(1, limit.bit_length()) if p**r < limit]
    return st.one_of(st.sampled_from(powers_of_2_and_3), st.sampled_from(_prime_powers_below(limit)))


Q_BELOW_10_4 = _prime_powers(10**4)
Q_BELOW_10_6 = _prime_powers(10**6)


@st.composite
def weil_pairs(draw, q_strategy):
    """(q, a, b) with a and b anywhere inside the Weil region of q."""
    q = draw(q_strategy)
    a = draw(st.integers(-isqrt(16 * q), isqrt(16 * q)))
    b_lo = ceil_sqrt(4 * a * a * q) - 2 * q  # (2q+b)^2 >= 4a^2q with 2q+b >= 0
    b_hi = (a * a + 8 * q) // 4  # a^2 - 4b + 8q >= 0
    assume(b_lo <= b_hi)
    return q, a, draw(st.integers(b_lo, b_hi))


@st.composite
def family_pattern_pairs(draw):
    """(q, a, b) on a family pattern; valid Weil classes, members or not."""
    q = draw(Q_BELOW_10_6)
    if draw(st.booleans()):
        # a^2 - 4b + 8q = 12q - 3a^2 >= 0 bounds a; the other inequalities always hold
        a = draw(st.integers(0, isqrt(4 * q)))
        if a * a < q:
            a = next((x for x in range(a, -1, -1) if oracle_all_prime_divisors_1_mod_3(q - x * x)), a)
        a *= draw(st.sampled_from((1, -1)))
        return q, a, a * a - q
    return q, 0, draw(st.sampled_from((1 - 2 * q, 2 - 2 * q, -q, -2 * q)))
