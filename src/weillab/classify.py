"""Classification of isogeny classes with no curves of geometric genus <= 2.

An abelian surface over the field with q elements contains no absolutely
irreducible curve of geometric genus 0, 1 or 2 exactly when its Weil
quartic falls in one of two coefficient families (plus two exceptional
reducible squares):

family A, the classes with no principally polarised member:
    a^2 - b = q,  b < 0,  and every prime divisor of b is 1 mod 3;

family B, the Weil-restriction classes (a = 0 and one of):
    b = 1 - 2q;
    b = 2 - 2q  with p > 2;
    b = -q      with p = 11 mod 12 and q a square,
                or p = 3 and q a square,
                or p = 2 and q a non-square;
    b = -2q     with q = 2 or 3 (the two specials).

Members of either family are irreducible over the rationals except for
(t^2-2)^2 and (t^2-3)^2, which are split off as the two special kinds.
Everything else is reported as Outside with a short machine-readable
reason.  The family B list, specials included, is ``_family_b_patterns``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, unique
from math import isqrt

from .core import (
    InternalInvariantError,
    WeilQuartic,
    is_irreducible_over_Q,
    make_weil_quartic,
    require_prime_power,
    trial_primes,
)


class WrongKind(ValueError):
    """Operation called on a class kind outside its domain."""


@unique
class Family(Enum):
    PIRR_A = "PirrA"
    PIRR_B = "PirrB"
    SPECIAL_Q2 = "SpecialQ2"
    SPECIAL_Q3 = "SpecialQ3"
    OUTSIDE = "Outside"


# coefficient patterns of family B, used as b_case tags and certificates
B_CASE_1_MINUS_2Q = "b=1-2q"
B_CASE_2_MINUS_2Q = "b=2-2q"
B_CASE_MINUS_Q = "b=-q"

# the families the kind guards admit: the irreducible members, and every member
_IRREDUCIBLE_FAMILIES = (Family.PIRR_A, Family.PIRR_B)
_MEMBER_FAMILIES = (*_IRREDUCIBLE_FAMILIES, Family.SPECIAL_Q2, Family.SPECIAL_Q3)


# the two reducible family members (t^2-2)^2 and (t^2-3)^2, both at b = -2q: q -> family
_SPECIALS = {2: Family.SPECIAL_Q2, 3: Family.SPECIAL_Q3}


@dataclass(frozen=True)
class ClassKind:
    """Verdict of the family classification.

    ``b_case`` is the matched family B pattern, set for family B members
    and for the two specials, whose pattern b = -2q reads ``(q,b)=(2,-4)``
    and ``(q,b)=(3,-6)``; ``reason`` is set for Outside.
    """

    family: Family
    b_case: str | None = None
    reason: str | None = None

    @property
    def is_irreducible_family(self) -> bool:
        return self.family in _IRREDUCIBLE_FAMILIES


@unique
class PRankClass(Enum):
    ORDINARY = "Ordinary"
    SUPERSINGULAR = "Supersingular"


def prime_divisors_all_1_mod_3(m: int) -> bool:
    """True iff every prime divisor of 1 <= m < 2^40 is congruent to 1 mod 3.

    Such primes are odd, so their products, m = 1 among them, are 1 mod 6;
    any other m is rejected without a division.  Early exit on the first
    bad prime.
    """
    if m % 6 != 1:
        return False
    for p in trial_primes(m):
        if p * p > m:
            break
        if m % p == 0:
            if p % 3 != 1:
                return False
            while m % p == 0:
                m //= p
    return m % 3 == 1


def _family_b_patterns(q: int, p: int, r: int) -> dict[int, str]:
    """The family B patterns met at q = p^r (with a = 0), as {b: pattern}."""
    patterns = {1 - 2 * q: B_CASE_1_MINUS_2Q}
    if p > 2:
        patterns[2 - 2 * q] = B_CASE_2_MINUS_2Q
    q_is_square = r % 2 == 0
    if (p % 12 == 11 and q_is_square) or (p == 3 and q_is_square) or (p == 2 and not q_is_square):
        patterns[-q] = B_CASE_MINUS_Q
    if q in _SPECIALS:
        patterns[-2 * q] = f"(q,b)=({q},{-2 * q})"
    return patterns


def classify(f: WeilQuartic) -> ClassKind:
    """Place f in family A, family B, one of the two specials, or Outside.

    Outside classes also get their reason, from the first family A clause
    they fail.  The two coefficient conditions are mutually exclusive; a
    reducible match can only be (t^2-2)^2 or (t^2-3)^2.  Either guarantee
    failing raises InternalInvariantError.
    """
    b_case = _family_b_patterns(f.q, f.p, f.r).get(f.b) if f.a == 0 else None
    if f.a * f.a - f.b != f.q:
        reason = "b-not-in-weil-restriction-list" if f.a == 0 else "no-family-condition-matched"
    elif f.b >= 0:
        reason = "b-not-negative"
    elif prime_divisors_all_1_mod_3(-f.b):
        return _classify_matched(f, True, b_case)
    else:
        reason = "prime-divisor-of-b-not-1-mod-3"
    if b_case is None:
        return ClassKind(Family.OUTSIDE, reason=reason)
    return _classify_matched(f, False, b_case)


def _classify_matched(f: WeilQuartic, in_a: bool, b_case: str | None) -> ClassKind:
    # classify a member, given the outcomes of the family A and family B conditions
    if in_a == (b_case is not None):
        raise InternalInvariantError(f"{'both' if in_a else 'neither of'} conditions (a) and (b) match {f}")
    if is_irreducible_over_Q(f):
        return ClassKind(Family.PIRR_A if in_a else Family.PIRR_B, b_case=b_case)
    if f.q in _SPECIALS and f.b == -2 * f.q:
        return ClassKind(_SPECIALS[f.q], b_case=b_case)
    raise InternalInvariantError(f"reducible family member {f} is not one of the two specials")


def enumerate_classes(q: int) -> list[tuple[WeilQuartic, ClassKind]]:
    """All family members at a given q, sorted by (a, b), duplicate-free.

    Family A candidates are (+-a, a^2 - q) for each a >= 0 with a^2 < q
    whose q - a^2 passes the prime-divisor test; family B candidates are
    ``_family_b_patterns``.  Every candidate is a member, none Outside.
    """
    p, r = require_prime_power(q)
    # candidate (a, b) -> whether it meets the family A condition
    in_a: dict[tuple[int, int], bool] = {}
    for a in range(isqrt(q - 1) + 1):
        b = a * a - q
        if prime_divisors_all_1_mod_3(-b):
            in_a[a, b] = in_a[-a, b] = True
    patterns = _family_b_patterns(q, p, r)
    for b in patterns:
        in_a.setdefault((0, b), False)
    members = []
    for a, b in sorted(in_a):
        f = make_weil_quartic(q, a, b)
        members.append((f, _classify_matched(f, in_a[a, b], patterns.get(b) if a == 0 else None)))
    return members


def _require_family(kind: ClassKind, operation: str, families: tuple[Family, ...]) -> None:
    if kind.family not in families:
        raise WrongKind(f"{operation} is not defined for {kind.family.value} classes")


def p_rank_class(f: WeilQuartic, kind: ClassKind) -> PRankClass:
    """Ordinary or supersingular; no family member has intermediate p-rank.

    Family A members are read as ordinary exactly when a != 0, family B
    members when the matched pattern is not b = -q.  This is not always
    gcd(b, p) = 1: the family A members (+-42, -637) at q = 7^4 have 7 | b
    yet read ordinary, and meet none of Rueck's valuation conditions.
    """
    _require_family(kind, "p_rank_class", _IRREDUCIBLE_FAMILIES)
    if kind.family is Family.PIRR_A:
        ordinary = f.a != 0
    else:
        ordinary = kind.b_case != B_CASE_MINUS_Q
    return PRankClass.ORDINARY if ordinary else PRankClass.SUPERSINGULAR

