"""Inputs shared by the tests.

The member sweep over every q up to a limit, a class with its kind, the
class keys of the record cells with the first member of each, and the
hypothesis strategies: prime powers below a limit, with the powers
of 2 and 3 drawn on their own since the two specials live there,
(q, a, b) anywhere inside the Weil region of q, and (q, a, b) on the
family patterns.
"""

from __future__ import annotations

from math import isqrt

from hypothesis import assume
from hypothesis import strategies as st

from weillab import ClassKind, Family, Split2, classify, enumerate_classes, make_weil_quartic
from weillab.core import ceil_sqrt

from oracles import oracle_all_prime_divisors_1_mod_3, prime_powers_up_to


def family_members(limit: int):
    """(f, kind) for every family member and special with q <= limit, in (q, a, b) order.

    enumerate_classes lists the members with a >= 0; each twist (-a, b) of
    one with a > 0 is built by make_weil_quartic and classified here, and
    must get the kind of (a, b).
    """
    for q in prime_powers_up_to(limit):
        members = enumerate_classes(q)
        for f, kind in reversed(members):
            if f.a:
                twist, twist_kind = kind_of(q, -f.a, f.b)
                assert twist_kind == kind, twist
                yield twist, twist_kind
        yield from members


def kind_of(q: int, a: int, b: int):
    """The quartic t^4 + a t^3 + b t^2 + a q t + q^2 with the kind classify gives it."""
    f = make_weil_quartic(q, a, b)
    return f, classify(f)


_A = ClassKind(Family.PIRR_A)
_B = {pattern: ClassKind(Family.PIRR_B, pattern) for pattern in ("b=-q", "b=1-2q", "b=2-2q")}
# every key (kind, splitting of 2 in K+, p == 2, a == 0) of records._MEMBER_CELLS -> the
# (q, a, b) of the first member that meets it in (q, a, b) order; q = 37 meets the last,
# and q <= 10^5 meets no other
CLASS_KEY_FIRST_MEMBERS = {
    (_A, Split2.INERT, True, False): (2, -1, -1),
    (ClassKind(Family.SPECIAL_Q2, "(q,b)=(2,-4)"), None, True, True): (2, 0, -4),
    (_B["b=1-2q"], Split2.RAMIFIED, True, True): (2, 0, -3),
    (_B["b=-q"], Split2.RAMIFIED, True, True): (2, 0, -2),
    (ClassKind(Family.SPECIAL_Q3, "(q,b)=(3,-6)"), None, False, True): (3, 0, -6),
    (_B["b=1-2q"], Split2.RAMIFIED, False, True): (3, 0, -5),
    (_B["b=2-2q"], Split2.RAMIFIED, False, True): (3, 0, -4),
    (_A, Split2.RAMIFIED, False, False): (5, -2, -1),
    (_A, Split2.INERT, False, True): (7, 0, -7),
    (_B["b=-q"], Split2.RAMIFIED, False, True): (9, 0, -9),
    (_A, Split2.RAMIFIED, False, True): (13, 0, -13),
    (_A, Split2.SPLIT, False, True): (19, 0, -19),
    (_A, Split2.SPLIT, False, False): (23, -4, -7),
    (_A, Split2.INERT, False, False): (37, -6, -1),
}


def _prime_powers(limit: int):
    powers_of_2_and_3 = [p**r for p in (2, 3) for r in range(1, limit.bit_length()) if p**r < limit]
    return st.one_of(st.sampled_from(powers_of_2_and_3), st.sampled_from(prime_powers_up_to(limit - 1)))


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
