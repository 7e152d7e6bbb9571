"""Genus-3 verdicts for the classes with no curves of genus up to 2.

For a simple abelian surface, carrying a polarisation of degree 4 is
equivalent to containing an irreducible curve of arithmetic genus 3, so
for family A and B classes the genus-3 question reduces to a degree-4
polarisation test:

    family A: no degree-4 polarisation anywhere in the class
              iff 2 is inert in K+;
    family B: no degree-4 polarisation anywhere in the class
              iff (ordinary, b = 1-2q, q odd) or (supersingular, q even).

The two special classes (t^2-2)^2 and (t^2-3)^2 are settled directly:
the first contains no curve of geometric genus 3 at all, the second
contains a smooth genus-3 witness, the plane quartic y^4+xz^3+2x^3z.

Verdicts are class-level: they assert existence of some surface in the
isogeny class, not a property of every member.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classify import (
    ClassKind,
    Family,
    PRankClass,
    WrongKind,
    family_b_case,
    p_rank_class,
)
from .core import WeilQuartic, factorize
from .two_adic import Split2, splitting_2_in_Kplus

SPECIAL_Q3_WITNESS = "y^4+xz^3+2x^3z"
_SPECIAL_NOTE = "degree-4 polarisation criterion not applied; class settled by direct genus-3 search"

RULE_A_INERT = "PirrA-inert"
RULE_A_NONINERT = "PirrA-noninert"
RULE_B_ORDINARY = "PirrB-ordinary-coeff"
RULE_B_SUPERSINGULAR = "PirrB-supersingular-parity"
RULE_SPECIAL_Q2 = "Special-Q2"
RULE_SPECIAL_Q3 = "Special-Q3"


@dataclass(frozen=True)
class Genus3Verdict:
    """Existence verdict for degree-4 polarisations and genus-3 curves.

    ``deg4_polarisation_exists`` is None for the two special classes,
    which are settled without the polarisation criterion.  For family A
    and B the two booleans coincide.  ``ordinary_max_ring_equivalent``
    records that for ordinary classes the verdict may equivalently be
    tested on surfaces with maximal endomorphism ring.
    """

    deg4_polarisation_exists: bool | None
    genus3_curve_exists: bool
    rule: str
    ordinary_max_ring_equivalent: bool
    witness: str | None = None
    note: str | None = None


@dataclass(frozen=True)
class NoSmallGenusCertificate:
    """Which family clause certifies the absence of genus <= 2 curves."""

    clause: str  # "a" or "b"
    b_prime_divisors: tuple[int, ...] | None = None
    b_pattern: str | None = None

    def __str__(self) -> str:
        if self.clause == "a":
            divisors = ",".join(str(p) for p in self.b_prime_divisors or ())
            return f"clause-a(prime-divisors-of-b={{{divisors}}})"
        return f"clause-b({self.b_pattern})"


@dataclass(frozen=True)
class CurveConstraints:
    """Shape facts about smooth genus-3 curves on surfaces in the class.

    The three curve facts hold for odd characteristic only; for p = 2
    they are reported as None (not asserted) rather than False.
    """

    no_genus_le2: bool
    clause: str
    not_hyperelliptic: bool | None
    bielliptic_plane_quartic_form: bool | None
    jacobian_splits_as_E_times_A: bool | None


def _require_family_member(kind: ClassKind, operation: str) -> None:
    if kind.family is Family.OUTSIDE:
        raise WrongKind(f"{operation} is not defined for Outside classes")


def degree4_polarisation_exists(f: WeilQuartic, kind: ClassKind, split2: Split2 | None = None) -> bool:
    """Does some surface in the class admit a polarisation of degree 4?

    ``split2`` is the splitting of 2 in K+ when the caller already has
    it; family A otherwise derives it with :func:`splitting_2_in_Kplus`.
    """
    if not kind.is_irreducible_family:
        raise WrongKind(f"degree4_polarisation_exists needs a family A or B member, got {kind.family.value}")
    if kind.family is Family.PIRR_A:
        symbol = split2 if split2 is not None else splitting_2_in_Kplus(f)
        return symbol is not Split2.INERT
    if p_rank_class(f, kind) is PRankClass.ORDINARY:
        return not (f.b == 1 - 2 * f.q and f.q % 2 == 1)
    return f.q % 2 == 1


def genus3_verdict(f: WeilQuartic, kind: ClassKind, split2: Split2 | None = None) -> Genus3Verdict:
    """Class-level genus-3 verdict with rule provenance.

    ``split2``, the splitting of 2 in K+ if the caller already has it,
    is passed on to :func:`degree4_polarisation_exists`.
    """
    _require_family_member(kind, "genus3_verdict")
    if kind.family is Family.SPECIAL_Q2:
        return Genus3Verdict(
            deg4_polarisation_exists=None,
            genus3_curve_exists=False,
            rule=RULE_SPECIAL_Q2,
            ordinary_max_ring_equivalent=False,
            note=_SPECIAL_NOTE,
        )
    if kind.family is Family.SPECIAL_Q3:
        return Genus3Verdict(
            deg4_polarisation_exists=None,
            genus3_curve_exists=True,
            rule=RULE_SPECIAL_Q3,
            ordinary_max_ring_equivalent=False,
            witness=SPECIAL_Q3_WITNESS,
            note=_SPECIAL_NOTE,
        )
    ordinary = p_rank_class(f, kind) is PRankClass.ORDINARY
    exists = degree4_polarisation_exists(f, kind, split2)
    if kind.family is Family.PIRR_A:
        rule = RULE_A_NONINERT if exists else RULE_A_INERT
    else:
        rule = RULE_B_ORDINARY if ordinary else RULE_B_SUPERSINGULAR
    return Genus3Verdict(
        deg4_polarisation_exists=exists,
        genus3_curve_exists=exists,
        rule=rule,
        ordinary_max_ring_equivalent=ordinary,
    )


def no_small_genus_certificate(f: WeilQuartic, kind: ClassKind) -> NoSmallGenusCertificate:
    """Clause certifying that no surface in the class carries a genus <= 2 curve."""
    _require_family_member(kind, "no_small_genus_certificate")
    if kind.family is Family.PIRR_A:
        divisors = tuple(sorted(factorize(-f.b))) if f.b < -1 else ()
        return NoSmallGenusCertificate(clause="a", b_prime_divisors=divisors)
    return NoSmallGenusCertificate(clause="b", b_pattern=_b_pattern(f, kind))


def _b_pattern(f: WeilQuartic, kind: ClassKind) -> str | None:
    # the specials carry no b_case of their own; their pattern is matched afresh
    return kind.b_case if kind.b_case is not None else family_b_case(f)


def curve_shape_constraints(f: WeilQuartic, kind: ClassKind) -> CurveConstraints:
    """Constraints on smooth genus-3 curves lying on surfaces in the class.

    In odd characteristic any such curve is a non-hyperelliptic
    bielliptic plane quartic y^4 - h(x,z)y^2 + r(x,z) = 0 and its
    Jacobian is isogenous to a product E x A with E elliptic.

    The certifying clause is read from ``kind``; the prime divisors of b
    that :func:`no_small_genus_certificate` lists are not computed.
    """
    _require_family_member(kind, "curve_shape_constraints")
    clause = "a" if kind.family is Family.PIRR_A else f"b:{_b_pattern(f, kind)}"
    odd = f.p > 2
    asserted = True if odd else None
    return CurveConstraints(
        no_genus_le2=True,
        clause=clause,
        not_hyperelliptic=asserted,
        bielliptic_plane_quartic_form=asserted,
        jacobian_splits_as_E_times_A=asserted,
    )
