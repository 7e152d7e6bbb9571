"""Genus-3 verdicts for the classes with no curves of genus up to 2.

For a simple abelian surface, carrying a polarisation of degree 4 is
equivalent to containing an irreducible curve of arithmetic genus 3, so
for family A and B classes the genus-3 question reduces to a degree-4
polarisation test, decided in :func:`genus3_verdict`:

    family A: no degree-4 polarisation anywhere in the class
              iff 2 is inert in K+;
    family B: read from ``_VERDICT_B`` by the matched coefficient pattern
              and the parity of q; there is none exactly for
              (b = 1-2q, q odd) and (b = -q, q even).

The two special classes (t^2-2)^2 and (t^2-3)^2 are settled directly:
the first contains no curve of geometric genus 3 at all, the second
contains a smooth genus-3 witness, the plane quartic y^4+xz^3+2x^3z.

Verdicts are class-level: they assert existence of some surface in the
isogeny class, not a property of every member.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classify import (
    B_CASE_1_MINUS_2Q,
    B_CASE_2_MINUS_2Q,
    B_CASE_MINUS_Q,
    ClassKind,
    Family,
    WrongKind,
)
from .core import WeilQuartic
from .two_adic import Split2, TwoAdicData, two_adic_data

SPECIAL_Q3_WITNESS = "y^4+xz^3+2x^3z"
_SPECIAL_NOTE = "degree-4 polarisation criterion not applied; class settled by direct genus-3 search"

RULE_A_INERT = "PirrA-inert"
RULE_A_NONINERT = "PirrA-noninert"
RULE_B_ORDINARY = "PirrB-ordinary-coeff"
RULE_B_SUPERSINGULAR = "PirrB-supersingular-parity"
RULE_SPECIAL_Q2 = "Special-Q2"
RULE_SPECIAL_Q3 = "Special-Q3"

# Family B, keyed by (matched pattern, q mod 2): (degree-4 polarisation
# exists, rule).  b = 2-2q needs p > 2, so it has no even-q row.
_VERDICT_B = {
    (B_CASE_1_MINUS_2Q, 1): (False, RULE_B_ORDINARY),
    (B_CASE_1_MINUS_2Q, 0): (True, RULE_B_ORDINARY),
    (B_CASE_2_MINUS_2Q, 1): (True, RULE_B_ORDINARY),
    (B_CASE_MINUS_Q, 1): (True, RULE_B_SUPERSINGULAR),
    (B_CASE_MINUS_Q, 0): (False, RULE_B_SUPERSINGULAR),
}


@dataclass(frozen=True)
class Genus3Verdict:
    """Existence verdict for degree-4 polarisations and genus-3 curves.

    ``deg4_polarisation_exists`` is None for the two special classes,
    which are settled without the polarisation criterion.  For family A
    and B the two booleans coincide, and ``two_adic`` holds the 2-adic
    data the verdict was read from (its d gives the d mod 8 residue of
    the family A rule); it is None for the two specials.
    """

    deg4_polarisation_exists: bool | None
    genus3_curve_exists: bool
    rule: str
    witness: str | None = None
    note: str | None = None
    two_adic: TwoAdicData | None = None


_VERDICT_SPECIAL = {
    Family.SPECIAL_Q2: Genus3Verdict(None, False, RULE_SPECIAL_Q2, note=_SPECIAL_NOTE),
    Family.SPECIAL_Q3: Genus3Verdict(None, True, RULE_SPECIAL_Q3, witness=SPECIAL_Q3_WITNESS, note=_SPECIAL_NOTE),
}


def _require_family_member(kind: ClassKind, operation: str) -> None:
    if kind.family is Family.OUTSIDE:
        raise WrongKind(f"{operation} is not defined for Outside classes")


def genus3_verdict(f: WeilQuartic, kind: ClassKind) -> Genus3Verdict:
    """Class-level genus-3 verdict with rule provenance and 2-adic data."""
    _require_family_member(kind, "genus3_verdict")
    if not kind.is_irreducible_family:
        return _VERDICT_SPECIAL[kind.family]
    data = two_adic_data(f, kind)
    if kind.family is Family.PIRR_A:
        exists = data.split2_Kplus is not Split2.INERT
        rule = RULE_A_NONINERT if exists else RULE_A_INERT
    else:
        exists, rule = _VERDICT_B[kind.b_case, f.q % 2]
    return Genus3Verdict(
        deg4_polarisation_exists=exists,
        genus3_curve_exists=exists,
        rule=rule,
        two_adic=data,
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
        clause = f"b:{kind.b_case}"
    asserted = "true" if f.p > 2 else "unasserted"
    return (
        f"clause={clause};not_hyperelliptic={asserted}"
        f";bielliptic_plane_quartic={asserted};jacobian_splits_E_x_A={asserted}"
    )
