"""weillab: Weil quartics of abelian surfaces over finite fields.

Classifies the isogeny classes carrying no curves of genus up to 2,
decides whether a class contains a surface with a degree-4 polarisation
(equivalently an irreducible curve of arithmetic genus 3), computes the
2-adic field data driving that decision, and gives point-count
intervals.  All computation is exact integer arithmetic.
"""

from .bounds import (
    BoundFamily,
    PointBounds,
    genus_bounds_on_surface,
    non_pp_bounds,
    serre_weil_interval,
    weil_restriction_bounds,
)
from .classify import (
    ClassKind,
    Family,
    PRankClass,
    WrongKind,
    classify,
    enumerate_classes,
    p_rank_class,
)
from .core import (
    InternalInvariantError,
    MalformedLabel,
    NotPrimePower,
    NotWeil,
    WeilQuartic,
    floor_2sqrt,
    fplus_discriminant,
    is_irreducible_over_Q,
    make_weil_quartic,
    parse_label,
    render_label,
    squarefree_part,
)
from .records import ClassRecord, build_record, records_for_q, with_mirrors
from .two_adic import (
    ConjugationTag,
    DegenerateDiscriminant,
    Shape2,
    Split2,
    TwoAdicData,
    two_adic_data,
)
from .verdict import (
    Genus3Verdict,
    SPECIAL_Q3_WITNESS,
    curve_shape_constraints,
    genus3_verdict,
)

__version__ = "0.1.0"

__all__ = [
    "BoundFamily",
    "ClassKind",
    "ClassRecord",
    "ConjugationTag",
    "DegenerateDiscriminant",
    "Family",
    "Genus3Verdict",
    "InternalInvariantError",
    "MalformedLabel",
    "NotPrimePower",
    "NotWeil",
    "PRankClass",
    "PointBounds",
    "SPECIAL_Q3_WITNESS",
    "Shape2",
    "Split2",
    "TwoAdicData",
    "WeilQuartic",
    "WrongKind",
    "build_record",
    "classify",
    "curve_shape_constraints",
    "enumerate_classes",
    "floor_2sqrt",
    "fplus_discriminant",
    "genus3_verdict",
    "genus_bounds_on_surface",
    "is_irreducible_over_Q",
    "make_weil_quartic",
    "non_pp_bounds",
    "p_rank_class",
    "parse_label",
    "records_for_q",
    "render_label",
    "serre_weil_interval",
    "squarefree_part",
    "two_adic_data",
    "weil_restriction_bounds",
    "with_mirrors",
]
