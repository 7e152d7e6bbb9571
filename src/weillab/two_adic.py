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

For family B, 2 always ramifies in K+; write m for the unique prime of
K+ above 2.  The shape of 2 in K is then decided by the decision table
in :func:`shape_2_in_K`.  K/K+ is ramified at a finite prime exactly for
b = 2-2q with q odd, in which case 2 is totally ramified in K.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, unique

from .classify import ClassKind, Family, PRankClass, _require_irreducible_family, p_rank_class
from .core import WeilQuartic, squarefree_part


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

    def total(self) -> int:
        return sum(e * fr * mult for e, fr, mult in self.factors)

    def __str__(self) -> str:
        body = ";".join(f"(e={e},f={fr})x{mult}" for e, fr, mult in self.factors)
        return f"{body};{self.conjugation.value}"


@dataclass(frozen=True)
class TwoAdicData:
    fplus_coeffs: tuple[int, int]
    delta: int
    c: int
    d: int
    split2_Kplus: Split2
    K_over_Kplus_ramified: bool
    shape2_K: Shape2


def fplus_discriminant(f: WeilQuartic) -> int:
    """Discriminant a^2 - 4(b - 2q) of the real quadratic factor."""
    return f.a * f.a - 4 * (f.b - 2 * f.q)


def _squarefree_discriminant(f: WeilQuartic) -> tuple[int, int, int]:
    """(delta, c, d) with delta = c^2 * d the discriminant of f+, d squarefree.

    Raises DegenerateDiscriminant unless delta > 0 and d != 1.
    """
    delta = fplus_discriminant(f)
    if delta <= 0:
        raise DegenerateDiscriminant(f"discriminant {delta} of the real factor of {f} is not positive")
    c, d = squarefree_part(delta)
    if d == 1:
        raise DegenerateDiscriminant(f"real quadratic factor of {f} has square discriminant {delta}")
    return delta, c, d


def _split2_from_d(d: int) -> Split2:
    if d % 8 == 5:
        return Split2.INERT
    if d % 8 == 1:
        return Split2.SPLIT
    return Split2.RAMIFIED


def splitting_2_in_Kplus(f: WeilQuartic) -> Split2:
    """Splitting symbol of 2 in K+ from the squarefree part of the discriminant.

    Expects an irreducible member; d = 1 would mean f+ (hence f) is
    reducible and signals an upstream classification bug.
    """
    _, _, d = _squarefree_discriminant(f)
    return _split2_from_d(d)


def is_K_over_Kplus_ramified(f: WeilQuartic, kind: ClassKind) -> bool:
    """True iff some finite prime of K+ ramifies in K.

    Happens exactly for family B with b = 2-2q and q odd; never for
    family A.
    """
    _require_irreducible_family(kind, "is_K_over_Kplus_ramified")
    if kind.family is Family.PIRR_A:
        return False
    return f.b == 2 - 2 * f.q and f.q % 2 == 1


def shape_2_in_K(f: WeilQuartic, kind: ClassKind, split2: Split2 | None = None) -> Shape2:
    """Factorisation shape of 2 in K.

    Family A (2 unramified in K/K+): the splitting of 2 in K+ decides
    everything.  Inert gives two conjugate primes of residue degree 2;
    split gives two self-conjugate primes of residue degree 2; ramified
    gives a single self-conjugate prime with e = 2, f = 2.

    Family B (2 ramifies in K+, unique prime m above 2): m is totally
    ramified in K exactly when b = 2-2q with q odd; m splits in K
    exactly for the ordinary classes with q even; in every other case
    (ordinary b = 1-2q with q odd, and all supersingular classes) m is
    inert in K.

    ``split2`` is the splitting of 2 in K+ when the caller already has
    it; family A otherwise derives it with :func:`splitting_2_in_Kplus`.
    """
    _require_irreducible_family(kind, "shape_2_in_K")
    if kind.family is Family.PIRR_A:
        symbol = split2 if split2 is not None else splitting_2_in_Kplus(f)
        if symbol is Split2.INERT:
            return Shape2(((1, 2, 2),), ConjugationTag.CONJUGATE_PAIR)
        if symbol is Split2.SPLIT:
            return Shape2(((1, 2, 2),), ConjugationTag.EACH_SELF_CONJUGATE)
        return Shape2(((2, 2, 1),), ConjugationTag.SINGLE_SELF_CONJUGATE)
    if is_K_over_Kplus_ramified(f, kind):
        return Shape2(((4, 1, 1),), ConjugationTag.SINGLE_SELF_CONJUGATE)
    ordinary = p_rank_class(f, kind) is PRankClass.ORDINARY
    if ordinary and f.q % 2 == 0:
        return Shape2(((2, 1, 2),), ConjugationTag.CONJUGATE_PAIR)
    return Shape2(((2, 2, 1),), ConjugationTag.SINGLE_SELF_CONJUGATE)


def two_adic_data(f: WeilQuartic, kind: ClassKind) -> TwoAdicData:
    """Bundle of the 2-adic invariants of an irreducible family member.

    The discriminant of f+ is factorised once; its squarefree part d
    gives the splitting of 2 in K+, which is handed on to
    :func:`shape_2_in_K` rather than derived again.  The kind is checked
    first, so an Outside class raises WrongKind whatever its discriminant.
    """
    _require_irreducible_family(kind, "two_adic_data")
    delta, c, d = _squarefree_discriminant(f)
    split2 = _split2_from_d(d)
    return TwoAdicData(
        fplus_coeffs=f.fplus_coefficients(),
        delta=delta,
        c=c,
        d=d,
        split2_Kplus=split2,
        K_over_Kplus_ramified=is_K_over_Kplus_ramified(f, kind),
        shape2_K=shape_2_in_K(f, kind, split2),
    )
