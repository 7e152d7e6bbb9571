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
implementation never relies on.

The shape of 2 in K is read from one of two tables in
:func:`two_adic_data`: family A's is keyed by the splitting of 2 in K+,
family B's by the matched pattern ``ClassKind.b_case`` and q mod 2.
For family B, 2 always ramifies in K+.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, unique

from .classify import (
    B_CASE_1_MINUS_2Q,
    B_CASE_2_MINUS_2Q,
    B_CASE_MINUS_Q,
    ClassKind,
    Family,
    WrongKind,
    _require_irreducible_family,
)
from .core import WeilQuartic, fplus_discriminant, squarefree_part


class DegenerateDiscriminant(ValueError):
    """The discriminant of f+ has trivial squarefree part; f+ is reducible."""


@unique
class Split2(Enum):
    SPLIT = "Split"
    INERT = "Inert"
    RAMIFIED = "Ramified"


@unique
class ConjugationTag(Enum):
    CONJUGATE_PAIR = "conjugate-pair"
    EACH_SELF_CONJUGATE = "each-self-conjugate"
    SINGLE_SELF_CONJUGATE = "self-conjugate"


@dataclass(frozen=True)
class Shape2:
    """Factorisation shape of 2 in K.

    ``factors`` lists (ramification index e, residue degree f, number of
    primes with that pair); the products e*f*multiplicity sum to 4.
    """

    factors: tuple[tuple[int, int, int], ...]
    conjugation: ConjugationTag

    def __str__(self) -> str:
        body = ";".join(f"(e={e},f={fr})x{mult}" for e, fr, mult in self.factors)
        return f"{body};{self.conjugation.value}"


@dataclass(frozen=True)
class TwoAdicData:
    delta: int
    c: int
    d: int
    split2_Kplus: Split2
    K_over_Kplus_ramified: bool
    shape2_K: Shape2


def _split2_from_d(d: int) -> Split2:
    if d % 8 == 5:
        return Split2.INERT
    if d % 8 == 1:
        return Split2.SPLIT
    return Split2.RAMIFIED


# Family A: 2 is unramified in K/K+, so its splitting in K+ decides the shape.
_SHAPE_A = {
    Split2.INERT: Shape2(((1, 2, 2),), ConjugationTag.CONJUGATE_PAIR),
    Split2.SPLIT: Shape2(((1, 2, 2),), ConjugationTag.EACH_SELF_CONJUGATE),
    Split2.RAMIFIED: Shape2(((2, 2, 1),), ConjugationTag.SINGLE_SELF_CONJUGATE),
}

# Family B, keyed by (matched pattern, q mod 2): 2 ramifies in K+, and the
# one prime above it is totally ramified (b = 2-2q), split or inert in K.
_SHAPE_B = {
    (B_CASE_1_MINUS_2Q, 1): Shape2(((2, 2, 1),), ConjugationTag.SINGLE_SELF_CONJUGATE),
    (B_CASE_1_MINUS_2Q, 0): Shape2(((2, 1, 2),), ConjugationTag.CONJUGATE_PAIR),
    (B_CASE_2_MINUS_2Q, 1): Shape2(((4, 1, 1),), ConjugationTag.SINGLE_SELF_CONJUGATE),
    (B_CASE_MINUS_Q, 1): Shape2(((2, 2, 1),), ConjugationTag.SINGLE_SELF_CONJUGATE),
    (B_CASE_MINUS_Q, 0): Shape2(((2, 2, 1),), ConjugationTag.SINGLE_SELF_CONJUGATE),
}


def two_adic_data(f: WeilQuartic, kind: ClassKind) -> TwoAdicData:
    """Bundle of the 2-adic invariants of an irreducible family member.

    The discriminant of f+ is factorised once; its squarefree part d
    gives the splitting of 2 in K+.  The shape of 2 in K comes from
    ``_SHAPE_A`` or ``_SHAPE_B``.  The kind is checked first, so an
    Outside class, or a family B kind whose (pattern, q mod 2) has no
    ``_SHAPE_B`` row, raises WrongKind whatever its discriminant.  K/K+
    is ramified exactly for the family B pattern b = 2-2q, whose p > 2.
    Raises DegenerateDiscriminant unless delta > 0 and d != 1.
    """
    _require_irreducible_family(kind, "two_adic_data")
    shape = _SHAPE_B.get((kind.b_case, f.q % 2))
    if kind.family is Family.PIRR_B and shape is None:
        raise WrongKind(f"two_adic_data has no family B row for pattern {kind.b_case!r} at q={f.q}")
    delta = fplus_discriminant(f)
    if delta <= 0:
        raise DegenerateDiscriminant(f"discriminant {delta} of the real factor of {f} is not positive")
    c, d = squarefree_part(delta)
    if d == 1:
        raise DegenerateDiscriminant(f"real quadratic factor of {f} has square discriminant {delta}")
    split2 = _split2_from_d(d)
    if kind.family is Family.PIRR_A:
        shape = _SHAPE_A[split2]
    return TwoAdicData(
        delta=delta,
        c=c,
        d=d,
        split2_Kplus=split2,
        K_over_Kplus_ramified=kind.b_case == B_CASE_2_MINUS_2Q,
        shape2_K=shape,
    )
