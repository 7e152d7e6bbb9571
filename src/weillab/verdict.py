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
    _require_irreducible_family,
    family_b_case,
    p_rank_class,
)
from .core import WeilQuartic
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
    and B the two booleans coincide.
    """

    deg4_polarisation_exists: bool | None
    genus3_curve_exists: bool
    rule: str
    witness: str | None = None
    note: str | None = None


def _require_family_member(kind: ClassKind, operation: str) -> None:
    if kind.family is Family.OUTSIDE:
        raise WrongKind(f"{operation} is not defined for Outside classes")


def degree4_polarisation_exists(f: WeilQuartic, kind: ClassKind, split2: Split2 | None = None) -> bool:
    """Does some surface in the class admit a polarisation of degree 4?

    ``split2`` is the splitting of 2 in K+ when the caller already has
    it; family A otherwise derives it with :func:`splitting_2_in_Kplus`.
    """
    _require_irreducible_family(kind, "degree4_polarisation_exists")
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
            note=_SPECIAL_NOTE,
        )
    if kind.family is Family.SPECIAL_Q3:
        return Genus3Verdict(
            deg4_polarisation_exists=None,
            genus3_curve_exists=True,
            rule=RULE_SPECIAL_Q3,
            witness=SPECIAL_Q3_WITNESS,
            note=_SPECIAL_NOTE,
        )
    exists = degree4_polarisation_exists(f, kind, split2)
    if kind.family is Family.PIRR_A:
        rule = RULE_A_NONINERT if exists else RULE_A_INERT
    elif p_rank_class(f, kind) is PRankClass.ORDINARY:
        rule = RULE_B_ORDINARY
    else:
        rule = RULE_B_SUPERSINGULAR
    return Genus3Verdict(
        deg4_polarisation_exists=exists,
        genus3_curve_exists=exists,
        rule=rule,
    )


def curve_shape_constraints(f: WeilQuartic, kind: ClassKind) -> str:
    """Constraints on smooth genus-3 curves on surfaces in the class, as a record cell.

    In odd characteristic any such curve is a non-hyperelliptic
    bielliptic plane quartic y^4 - h(x,z)y^2 + r(x,z) = 0 and its
    Jacobian is isogenous to a product E x A with E elliptic; for p = 2
    the three facts are reported as unasserted rather than false.  The
    clause certifying the absence of curves of genus <= 2 is read from
    ``kind``: "a", or "b:" followed by the matched family B pattern.
    """
    _require_family_member(kind, "curve_shape_constraints")
    if kind.family is Family.PIRR_A:
        clause = "a"
    else:
        # the specials carry no b_case of their own; their pattern is matched afresh
        clause = f"b:{kind.b_case or family_b_case(f)}"
    asserted = "true" if f.p > 2 else "unasserted"
    return (
        f"clause={clause};not_hyperelliptic={asserted}"
        f";bielliptic_plane_quartic={asserted};jacobian_splits_E_x_A={asserted}"
    )
