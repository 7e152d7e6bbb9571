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
    (q, b) = (2, -4);
    (q, b) = (3, -6).

Members of either family are irreducible over the rationals except for
(t^2-2)^2 and (t^2-3)^2, which are split off as the two special kinds.
Everything else is reported as Outside with a short machine-readable
reason.
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
B_CASE_SPECIAL_Q2 = "(q,b)=(2,-4)"
B_CASE_SPECIAL_Q3 = "(q,b)=(3,-6)"


@dataclass(frozen=True)
class ClassKind:
    """Verdict of the family classification.

    ``b_case`` is the matched family B pattern, set for family B members
    and for the two specials, which carry ``B_CASE_SPECIAL_Q2/Q3``;
    ``reason`` is set for Outside.
    """

    family: Family
    b_case: str | None = None
    reason: str | None = None

    @property
    def is_irreducible_family(self) -> bool:
        return self.family in (Family.PIRR_A, Family.PIRR_B)


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


def matches_family_a(f: WeilQuartic) -> bool:
    """Coefficient condition of family A (irreducibility not included)."""
    return (
        f.a * f.a - f.b == f.q
        and f.b < 0
        and prime_divisors_all_1_mod_3(-f.b)
    )


def family_b_case(f: WeilQuartic) -> str | None:
    """Matched coefficient pattern of family B, or None."""
    q, p, r, b = f.q, f.p, f.r, f.b
    if f.a != 0:
        return None
    if b == 1 - 2 * q:
        return B_CASE_1_MINUS_2Q
    if b == 2 - 2 * q and p > 2:
        return B_CASE_2_MINUS_2Q
    if b == -q:
        q_is_square = r % 2 == 0
        if (p % 12 == 11 and q_is_square) or (p == 3 and q_is_square) or (p == 2 and not q_is_square):
            return B_CASE_MINUS_Q
    if (q, b) == (2, -4):
        return B_CASE_SPECIAL_Q2
    if (q, b) == (3, -6):
        return B_CASE_SPECIAL_Q3
    return None


def _outside_reason(f: WeilQuartic) -> str:
    if f.a * f.a - f.b == f.q:
        if f.b >= 0:
            return "b-not-negative"
        return "prime-divisor-of-b-not-1-mod-3"
    if f.a == 0:
        return "b-not-in-weil-restriction-list"
    return "no-family-condition-matched"


def classify(f: WeilQuartic) -> ClassKind:
    """Place f in family A, family B, one of the two specials, or Outside.

    The two coefficient conditions are mutually exclusive; a reducible
    match can only be (t^2-2)^2 or (t^2-3)^2.  Either guarantee failing
    raises InternalInvariantError.
    """
    return _classify_matched(f, matches_family_a(f), family_b_case(f))


def _classify_matched(f: WeilQuartic, in_a: bool, b_case: str | None) -> ClassKind:
    # classify, given the outcomes of the family A and family B conditions
    if in_a and b_case is not None:
        raise InternalInvariantError(f"conditions (a) and (b) both match {f}")
    if not in_a and b_case is None:
        return ClassKind(Family.OUTSIDE, reason=_outside_reason(f))
    if is_irreducible_over_Q(f):
        if in_a:
            return ClassKind(Family.PIRR_A)
        return ClassKind(Family.PIRR_B, b_case=b_case)
    if b_case == B_CASE_SPECIAL_Q2:
        return ClassKind(Family.SPECIAL_Q2, b_case=b_case)
    if b_case == B_CASE_SPECIAL_Q3:
        return ClassKind(Family.SPECIAL_Q3, b_case=b_case)
    raise InternalInvariantError(f"reducible family member {f} is not one of the two specials")


def enumerate_classes(q: int) -> list[tuple[WeilQuartic, ClassKind]]:
    """All family members at a given q, sorted by (a, b), duplicate-free.

    Family A candidates run over a with a^2 < q (both signs) and
    b = a^2 - q; family B candidates come from its finite b list; the
    two specials occur only at q = 2 and q = 3.
    """
    require_prime_power(q)
    # candidate (a, b) -> whether it meets the family A condition; every
    # (a, b) with a^2 - b = q and b < 0 is trial-divided in the first loop
    candidates: dict[tuple[int, int], bool] = {}
    a_max = isqrt(q - 1)
    for a in range(-a_max, a_max + 1):
        b = a * a - q
        if prime_divisors_all_1_mod_3(-b):
            candidates[(a, b)] = True
    for b in (1 - 2 * q, 2 - 2 * q, -q):
        candidates.setdefault((0, b), False)
    if q == 2:
        candidates.setdefault((0, -4), False)
    if q == 3:
        candidates.setdefault((0, -6), False)
    members = []
    for (a, b), in_a in candidates.items():
        f = make_weil_quartic(q, a, b)
        kind = _classify_matched(f, in_a, family_b_case(f))
        if kind.family is not Family.OUTSIDE:
            members.append((f, kind))
    members.sort(key=lambda pair: (pair[0].a, pair[0].b))
    return members


def _require_irreducible_family(kind: ClassKind, operation: str) -> None:
    if not kind.is_irreducible_family:
        raise WrongKind(f"{operation} is defined for family A and B members only, got {kind.family.value}")


def p_rank_class(f: WeilQuartic, kind: ClassKind) -> PRankClass:
    """Ordinary or supersingular; no family member has intermediate p-rank.

    Family A members are ordinary exactly when a != 0; family B members
    exactly when the matched pattern is b = 1-2q or b = 2-2q, that is,
    not b = -q.  Agrees with the general criterion gcd(b, p) = 1.
    """
    _require_irreducible_family(kind, "p_rank_class")
    if kind.family is Family.PIRR_A:
        ordinary = f.a != 0
    else:
        ordinary = kind.b_case != B_CASE_MINUS_Q
    return PRankClass.ORDINARY if ordinary else PRankClass.SUPERSINGULAR

