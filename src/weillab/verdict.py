"""Genus-3 verdicts for the classes with no curves of genus up to 2.

For a simple abelian surface, carrying a polarisation of degree 4 is
equivalent to containing an irreducible curve of arithmetic genus 3, so
for family A and B classes the genus-3 question reduces to a degree-4
polarisation test, decided in :func:`genus3_verdict`:

    family A: no degree-4 polarisation anywhere in the class
              iff 2 is inert in K+;
    family B: none exactly for (b = 1-2q, q odd) and (b = -q, q even).

Both are read, with the rule, from the class's row of the one table
``two_adic._CLASS_ROWS``, which also gives the shape of 2 in K.

The two special classes (t^2-2)^2 and (t^2-3)^2 are settled directly:
the first contains no curve of geometric genus 3 at all, the second
contains a smooth genus-3 witness, the plane quartic y^4+xz^3+2x^3z.

Verdicts are class-level: they assert existence of some surface in the
isogeny class, not a property of every member.
"""

from __future__ import annotations

from typing import NamedTuple

from .classify import ClassKind, Family, _MEMBER_FAMILIES, _require_family
from .core import WeilQuartic
from .two_adic import _class_row, _delta_split2

SPECIAL_Q3_WITNESS = "y^4+xz^3+2x^3z"
_SPECIAL_NOTE = "degree-4 polarisation criterion not applied; class settled by direct genus-3 search"


class Genus3Verdict(NamedTuple):
    """Existence verdict for degree-4 polarisations and genus-3 curves.

    ``deg4_polarisation_exists`` is None for the two special classes,
    which are settled without the polarisation criterion.  For family A
    and B the two booleans coincide.  A verdict is one value per class
    key, so every member sharing a key gets an equal verdict.
    """

    deg4_polarisation_exists: bool | None
    genus3_curve_exists: bool
    rule: str
    witness: str | None = None
    note: str | None = None


_VERDICT_SPECIAL = {
    Family.SPECIAL_Q2: Genus3Verdict(None, False, "Special-Q2", note=_SPECIAL_NOTE),
    Family.SPECIAL_Q3: Genus3Verdict(None, True, "Special-Q3", witness=SPECIAL_Q3_WITNESS, note=_SPECIAL_NOTE),
}


def genus3_verdict(f: WeilQuartic, kind: ClassKind) -> Genus3Verdict:
    """Class-level genus-3 verdict and its rule, one value per class key.

    Read from the key's ``_CLASS_ROWS`` row; raises as :func:`two_adic_data`
    does for a member it does not cover, but builds no ``TwoAdicData``.
    """
    _require_family(kind, "genus3_verdict", _MEMBER_FAMILIES)
    if not kind.is_irreducible_family:
        return _VERDICT_SPECIAL[kind.family]
    _, exists, rule = _class_row(kind, f.q, _delta_split2(f)[1])
    return Genus3Verdict(exists, exists, rule)


def curve_shape_constraints(f: WeilQuartic, kind: ClassKind) -> str:
    """Constraints on smooth genus-3 curves on surfaces in the class, as a record cell.

    In odd characteristic any such curve is a non-hyperelliptic
    bielliptic plane quartic y^4 - h(x,z)y^2 + r(x,z) = 0 and its
    Jacobian is isogenous to a product E x A with E elliptic; for p = 2
    the three facts are reported as unasserted rather than false.  The
    clause certifying the absence of curves of genus <= 2 is read from
    ``kind``: "a", or "b:" followed by the matched family B pattern.
    """
    _require_family(kind, "curve_shape_constraints", _MEMBER_FAMILIES)
    if kind.family is Family.PIRR_A:
        clause = "a"
    else:
        clause = f"b:{kind.b_case}"
    asserted = "true" if f.p > 2 else "unasserted"
    return (
        f"clause={clause};not_hyperelliptic={asserted}"
        f";bielliptic_plane_quartic={asserted};jacobian_splits_E_x_A={asserted}"
    )
