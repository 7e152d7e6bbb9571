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
(t^2-2)^2 and (t^2-3)^2, the two special kinds, and this follows from the
coefficients alone, so no member is tested.  By
:func:`~weillab.core.is_irreducible_over_Q`, f is reducible exactly when
disc(f+) is a square or a = 0 and b = -2q - u^2, and the Weil region
forces u = 0 there:

    family A: disc(f+) = 12q - 3a^2 = 3(4q - a^2).  If it is s^2, then
              3 | s, 4q - a^2 = 3t^2 and 4(q - a^2) = 3(t^2 - a^2), so
              3 | -b; but every prime divisor of -b is 1 mod 3.  And
              b = -2q would need a^2 = -q.
    family B: disc(f+) = 8q - 4b is 4(4q - 1), 8(2q - 1) or 12q for the
              first three patterns.  None is a square: 4q - 1 = 3 mod 4,
              2 divides 8(2q - 1) to the power 3, and 3 divides 12q to
              the power 1, or r + 1 at p = 3, where the pattern asks
              q = 3^r to be a square.  The fourth pattern, b = -2q, is
              the two specials.

Everything else is reported as Outside with a short machine-readable
reason.  The family B rule, specials included, is ``_family_b_kind``, for
one b; ``_family_b_patterns`` lists the b it accepts at one q.
"""

from __future__ import annotations

from enum import Enum, unique
from functools import lru_cache
from math import gcd, isqrt
from typing import NamedTuple

from .core import (
    InternalInvariantError,
    WeilQuartic,
    make_weil_quartic,
    require_prime_power,
    trial_limit,
    weil_validity_failure,
    _product,
    _small_primes,
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

    # members compare by identity, so the C-level identity hash is consistent with
    # equality; Enum.__hash__ is a Python call, made twice per record for a class key
    __hash__ = object.__hash__


# coefficient patterns of family B, used as b_case tags and certificates
B_CASE_1_MINUS_2Q = "b=1-2q"
B_CASE_2_MINUS_2Q = "b=2-2q"
B_CASE_MINUS_Q = "b=-q"

# the families the kind guards admit: the irreducible members, and every member
_IRREDUCIBLE_FAMILIES = (Family.PIRR_A, Family.PIRR_B)
_MEMBER_FAMILIES = (*_IRREDUCIBLE_FAMILIES, Family.SPECIAL_Q2, Family.SPECIAL_Q3)


class ClassKind(NamedTuple):
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


# the kinds of the members, one shared value each, so neither classify nor
# enumerate_classes builds a kind per member: family A, the three family B patterns,
# and the two reducible members (t^2-2)^2 and (t^2-3)^2, both at b = -2q (q -> kind)
_PIRR_A = ClassKind(Family.PIRR_A)
_PIRR_B = {case: ClassKind(Family.PIRR_B, case) for case in (B_CASE_1_MINUS_2Q, B_CASE_2_MINUS_2Q, B_CASE_MINUS_Q)}
_SPECIALS = {q: ClassKind(family, f"(q,b)=({q},{-2 * q})") for q, family in ((2, Family.SPECIAL_Q2), (3, Family.SPECIAL_Q3))}
# the Outside kinds, one shared value per reason, as for the members
_OUTSIDE_B_NOT_IN_LIST = ClassKind(Family.OUTSIDE, reason="b-not-in-weil-restriction-list")
_OUTSIDE_NO_CONDITION = ClassKind(Family.OUTSIDE, reason="no-family-condition-matched")
_OUTSIDE_B_NOT_NEGATIVE = ClassKind(Family.OUTSIDE, reason="b-not-negative")
_OUTSIDE_PRIME_DIVISOR = ClassKind(Family.OUTSIDE, reason="prime-divisor-of-b-not-1-mod-3")


@unique
class PRankClass(Enum):
    ORDINARY = "Ordinary"
    SUPERSINGULAR = "Supersingular"


def prime_divisors_all_1_mod_3(m: int) -> bool:
    """True iff every prime divisor of 1 <= m < 2^40 is congruent to 1 mod 3.

    Such primes are odd, so their products, m = 1 among them, are 1 mod 6;
    any other m is rejected without a division.  Otherwise m is tested
    against the product of the primes not 1 mod 3 up to trial_limit(m),
    which lies above sqrt(m).  If they are coprime, every prime factor
    up to that bound is 1 mod 3, and at most one prime factor lies above
    it; that one is then 1 mod 3 too, since m is.
    """
    if m % 6 != 1:
        return False
    return gcd(m, _primorial_not_1_mod_3(trial_limit(m))) == 1


@lru_cache(maxsize=None)
def _primorial_not_1_mod_3(limit: int) -> int:
    """The product of the primes <= limit that are not 1 mod 3; limit >= 2."""
    return _product([p for p in _small_primes(limit) if p % 3 != 1])


def _family_b_kind(q: int, p: int, r: int, b: int) -> ClassKind | None:
    """The kind of the family B member (a = 0, b) at q = p^r, or None if b meets no pattern.

    At q = 2, 2 - 2q = -q: the b = 2-2q pattern asks p > 2, so only the
    b = -q pattern applies there.
    """
    if b == 1 - 2 * q:
        return _PIRR_B[B_CASE_1_MINUS_2Q]
    if b == 2 - 2 * q and p > 2:
        return _PIRR_B[B_CASE_2_MINUS_2Q]
    if b == -q:
        q_is_square = r % 2 == 0
        if (p % 12 == 11 and q_is_square) or (p == 3 and q_is_square) or (p == 2 and not q_is_square):
            return _PIRR_B[B_CASE_MINUS_Q]
    if b == -2 * q:
        return _SPECIALS.get(q)
    return None


def _family_b_patterns(q: int, p: int, r: int) -> dict[int, ClassKind]:
    """The family B patterns met at q = p^r (with a = 0), as {b: the kind of its member}.

    They are the b of the four patterns that ``_family_b_kind`` accepts.
    """
    return {b: kind for b in (1 - 2 * q, 2 - 2 * q, -q, -2 * q) if (kind := _family_b_kind(q, p, r, b)) is not None}


def classify(f: WeilQuartic) -> ClassKind:
    """Place f in family A, family B, one of the two specials, or Outside.

    Outside classes also get their reason, from the first family A clause
    they fail, as one shared kind per reason.  At a = 0 the family B kind
    is that of b's pattern, by ``_family_b_kind``, with no table of q's
    patterns built.  The two coefficient conditions are mutually
    exclusive, or InternalInvariantError is raised.  A family B member's
    kind is the one its matched pattern carries: it is (t^2-q)^2, a
    special, when b = -2q, a family B pattern only at q = 2 and 3, and
    every other member is irreducible, by the module's proof, so none is
    tested.  A family A member never has b = -2q, which would need
    a^2 = -q.
    """
    q, p, r, a, b = f
    b_kind = _family_b_kind(q, p, r, b) if a == 0 else None
    if a * a - b != q:
        return b_kind or (_OUTSIDE_B_NOT_IN_LIST if a == 0 else _OUTSIDE_NO_CONDITION)
    if b >= 0:
        return b_kind or _OUTSIDE_B_NOT_NEGATIVE
    if prime_divisors_all_1_mod_3(-b):
        if b_kind is not None:
            raise InternalInvariantError(f"both conditions (a) and (b) match {f}")
        return _PIRR_A
    return b_kind or _OUTSIDE_PRIME_DIVISOR


def enumerate_classes(q: int) -> list[tuple[WeilQuartic, ClassKind]]:
    """The family members at a given q with a >= 0, sorted by (a, b), duplicate-free.

    Each entry with a > 0 stands for its pair of quadratic twists
    (+-a, b): the member (-a, b), whose Weil polynomial is f(-t), has the
    kind of (a, b), since the Weil region, the family conditions and
    disc(f+) = 12q - 3a^2 depend on a only through a^2 and whether
    a = 0.  So (-a, b) is neither built nor listed.

    The a = 0 candidates are the b of ``_family_b_patterns``, and b = -q
    when q = 1 (mod 6); each is built by ``make_weil_quartic`` and kept
    when ``classify`` places it in a family.  A family B pattern that
    ``classify`` places Outside raises InternalInvariantError.  The
    family A candidates with a > 0 are (a, a^2 - q) for each a > 0 with
    a^2 < q whose q - a^2 passes the prime-divisor test.

    A product of primes 1 mod 3 is 1 mod 6, so (0, -q) is a candidate
    only when q = 1 (mod 6), and only the a > 0 with a^2 = q - 1 (mod 6)
    are tested: one or two residues of a mod 6, and none at q = 3^r.
    They share one prime product: m = q - a^2 is kept when it is coprime
    to the product of the primes not 1 mod 3 up to trial_limit(q), which
    is exactly :func:`prime_divisors_all_1_mod_3` of m.  Its argument
    holds for any bound above sqrt(m), and since m < q,
    trial_limit(q) >= trial_limit(m) > sqrt(m).
    Each a > 0 member is family A, with no per-member call: it is
    irreducible, since disc(f+) = 3(4q - a^2) = s^2 would give 3 | s and
    4(q - a^2) = 3((s/3)^2 - a^2), so 3 | -b, whose prime divisors are
    1 mod 3 (the module docstring).

    A member with a > 0 needs no second prime-power lookup, since
    q = p^r was decided once above, and lies in the Weil region: with
    a^2 < q and b = a^2 - q,
        a^2 < q <= 16q;
        2q + b = q + a^2 > 0 and (2q + b)^2 - 4a^2 q = (q - a^2)^2 >= 0;
        a^2 - 4b + 8q = 12q - 3a^2 > 0.
    So it is built directly, and ``weil_validity_failure`` only guards
    that argument.  One loop over the candidates, in increasing order,
    makes each one's gcd and, for a kept one, its guard and its member.
    """
    p, r = require_prime_power(q)
    patterns = _family_b_patterns(q, p, r)
    members = []
    for b in sorted({*patterns, -q} if q % 6 == 1 else patterns):
        f = make_weil_quartic(q, 0, b)
        if (kind := classify(f)).family is not Family.OUTSIDE:
            members.append((f, kind))
        elif b in patterns:
            raise InternalInvariantError(f"family B pattern {f} classified Outside: {kind.reason}")
    # the a > 0 with a^2 < q and q - a^2 = 1 (mod 6), in increasing order; x = 6 stands for residue 0
    candidates = []
    for x in range(1, 7):
        if (q - x * x) % 6 == 1:
            candidates += range(x, isqrt(q - 1) + 1, 6)
    candidates.sort()
    product = _primorial_not_1_mod_3(trial_limit(q))
    for a in candidates:
        b = a * a - q
        if gcd(-b, product) == 1:
            if (failure := weil_validity_failure(q, a, b)) is not None:
                raise InternalInvariantError(f"family A candidate {WeilQuartic(q, p, r, a, b)} left the Weil region: {failure}")
            # WeilQuartic._make without its Python frame and length check, which five fields meet
            members.append((tuple.__new__(WeilQuartic, (q, p, r, a, b)), _PIRR_A))
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

