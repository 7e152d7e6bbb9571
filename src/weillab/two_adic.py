"""Behaviour of the prime 2 in the CM field of a family A or B class.

For an irreducible member f the field K = Q[t]/(f) is a CM quartic with
real quadratic subfield K+ generated by a root of f+(t) = t^2+at+(b-2q).
Writing the discriminant of f+ as c^2*d with d squarefree, the splitting
of 2 in K+ depends on d alone:

    inert     iff  d = 5 mod 8
    split     iff  d = 1 mod 8
    ramified  iff  d = 2, 3 mod 4

This is a field-level criterion; the factorisation of f+ mod 2 only
agrees with it when c is odd, which the test suite checks but the
implementation never relies on.  The splitting is read from the d of the
one squarefree decomposition of delta, the d a record already holds.

Every other fact of a class is read from one table, ``_CLASS_ROWS``:
one row per class key (the splitting of 2 in K+ for family A, the
pattern ``ClassKind.b_case`` and q mod 2 for family B) gives the shape
of 2 in K, the degree-4 polarisation verdict and its rule.
"""

from __future__ import annotations

from enum import Enum, unique
from typing import NamedTuple

from .classify import (
    B_CASE_1_MINUS_2Q,
    B_CASE_2_MINUS_2Q,
    B_CASE_MINUS_Q,
    ClassKind,
    Family,
    WrongKind,
    _IRREDUCIBLE_FAMILIES,
    _require_family,
)
from .core import WeilQuartic, fplus_discriminant, squarefree_part


class DegenerateDiscriminant(ValueError):
    """The discriminant of f+ has trivial squarefree part; f+ is reducible."""


@unique
class Split2(Enum):
    SPLIT = "Split"
    INERT = "Inert"
    RAMIFIED = "Ramified"

    __hash__ = object.__hash__  # as for classify.Family: part of every record's class key


@unique
class ConjugationTag(Enum):
    CONJUGATE_PAIR = "conjugate-pair"
    EACH_SELF_CONJUGATE = "each-self-conjugate"
    SINGLE_SELF_CONJUGATE = "self-conjugate"


class Shape2(NamedTuple):
    """Factorisation shape of 2 in K.

    ``factors`` lists (ramification index e, residue degree f, number of
    primes with that pair); the products e*f*multiplicity sum to 4.
    """

    factors: tuple[tuple[int, int, int], ...]
    conjugation: ConjugationTag

    def __str__(self) -> str:
        body = ";".join(f"(e={e},f={fr})x{mult}" for e, fr, mult in self.factors)
        return f"{body};{self.conjugation.value}"


class TwoAdicData(NamedTuple):
    delta: int
    split2_Kplus: Split2
    K_over_Kplus_ramified: bool
    shape2_K: Shape2


# the members, read once: an Enum member's lookup on its class is a Python call, and
# _split2_of runs once per record
_RAMIFIED, _SPLIT, _INERT = Split2.RAMIFIED, Split2.SPLIT, Split2.INERT


def _split2_of(f: WeilQuartic, delta: int, d: int | None) -> Split2:
    """The splitting of 2 in K+ for delta = disc(f+) = c^2 * d; raises DegenerateDiscriminant unless delta > 0 and d != 1."""
    if delta <= 0:
        raise DegenerateDiscriminant(f"discriminant {delta} of the real factor of {f} is not positive")
    if d == 1:
        raise DegenerateDiscriminant(f"real quadratic factor of {f} has square discriminant {delta}")
    if d % 4 != 1:
        return _RAMIFIED
    return _SPLIT if d % 8 == 1 else _INERT


def _delta_split2(f: WeilQuartic) -> tuple[int, Split2]:
    """delta = disc(f+) and the splitting of 2 in K+, from one squarefree decomposition of delta."""
    delta = fplus_discriminant(f)
    return delta, _split2_of(f, delta, squarefree_part(delta)[1] if delta > 0 else None)


_SINGLE = ConjugationTag.SINGLE_SELF_CONJUGATE

# Class key -> (shape of 2 in K, degree-4 polarisation exists, rule).  In
# family A, 2 is unramified in K/K+; in family B it ramifies in K+ and the
# prime above it is totally ramified (b = 2-2q, p > 2), split or inert in K.
_CLASS_ROWS = {
    Split2.INERT: (Shape2(((1, 2, 2),), ConjugationTag.CONJUGATE_PAIR), False, "PirrA-inert"),
    Split2.SPLIT: (Shape2(((1, 2, 2),), ConjugationTag.EACH_SELF_CONJUGATE), True, "PirrA-noninert"),
    Split2.RAMIFIED: (Shape2(((2, 2, 1),), _SINGLE), True, "PirrA-noninert"),
    (B_CASE_1_MINUS_2Q, 1): (Shape2(((2, 2, 1),), _SINGLE), False, "PirrB-ordinary-coeff"),
    (B_CASE_1_MINUS_2Q, 0): (Shape2(((2, 1, 2),), ConjugationTag.CONJUGATE_PAIR), True, "PirrB-ordinary-coeff"),
    (B_CASE_2_MINUS_2Q, 1): (Shape2(((4, 1, 1),), _SINGLE), True, "PirrB-ordinary-coeff"),
    (B_CASE_MINUS_Q, 1): (Shape2(((2, 2, 1),), _SINGLE), True, "PirrB-supersingular-parity"),
    (B_CASE_MINUS_Q, 0): (Shape2(((2, 2, 1),), _SINGLE), False, "PirrB-supersingular-parity"),
}


def _class_row(kind: ClassKind, q: int, split2: Split2) -> tuple[Shape2, bool, str]:
    """The ``_CLASS_ROWS`` row of a family A or B kind whose 2 splits as ``split2`` in K+."""
    key = split2 if kind.family is Family.PIRR_A else (kind.b_case, q % 2)
    row = _CLASS_ROWS.get(key)
    if row is None:
        raise WrongKind(f"no family B row for pattern {kind.b_case!r} at q={q}")
    return row


def two_adic_data(f: WeilQuartic, kind: ClassKind) -> TwoAdicData:
    """Bundle of the 2-adic invariants of an irreducible family member.

    The squarefree part d of the discriminant delta = c^2 * d of f+ gives
    the splitting of 2 in K+, and the class's ``_CLASS_ROWS`` row the
    shape of 2 in K.  An Outside or special kind raises WrongKind
    before the discriminant is read, a family B kind whose
    (pattern, q mod 2) has no row raises WrongKind after it.  K/K+ is
    ramified exactly for the family B pattern b = 2-2q, whose p > 2.
    Raises DegenerateDiscriminant unless delta is positive and not a square.
    Accepts every member make_weil_quartic builds: delta <= 16q < 2^44.
    """
    _require_family(kind, "two_adic_data", _IRREDUCIBLE_FAMILIES)
    delta, split2 = _delta_split2(f)
    return TwoAdicData(
        delta=delta,
        split2_Kplus=split2,
        K_over_Kplus_ramified=kind.b_case == B_CASE_2_MINUS_2Q,
        shape2_K=_class_row(kind, f.q, split2)[0],
    )
